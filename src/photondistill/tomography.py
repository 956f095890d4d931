"""Synthetic homodyne records and iterative maximum-likelihood reconstruction.

The forward model draws quadrature samples from the marginal distributions
of a (possibly loss-degraded) state; the reconstruction iterates the
expectation-maximization update rho <- N[R(rho) rho R(rho)] over binned
quadrature projectors, with the detection efficiency folded into the POVM.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedError, _require_columns
from .fockspace import (
    DensityMatrix,
    _binomials,
    _hermite_functions,
    _loss_map,
    pure_loss_channel,
    quadrature_pdf,
)

logger = logging.getLogger(__name__)

X_RANGE = (-6.0, 6.0)
N_EDGES = 801  # POVM bin edges across X_RANGE
SAMPLING_GRID = 4001  # finer grid for inverse-CDF sampling
CSV_BLOCK = 8192  # CSV rows formatted per % pass

# inverse-loss amplification beyond this is treated as numerically hopeless
CONDITION_LIMIT = 1e12


def quadrature_record(theta, x) -> np.recarray:
    """Homodyne record: one row per outcome, float fields `theta` and `x`.

    The local-oscillator phase is reduced to [0, 2 pi), so phases that differ
    by whole turns share one phase row in the reconstruction.
    """
    theta = np.asarray(theta, dtype=float) % (2.0 * math.pi)
    return np.rec.fromarrays([theta, np.asarray(x, dtype=float)], names="theta,x")


def _csv_chunks(table: np.ndarray, end: str):
    """CSV text of a record array: field-name header, integer fields %d, the rest %.12g."""
    names = table.dtype.names
    yield ",".join(names) + end
    line = ",".join("%d" if table.dtype[name].kind in "iu" else "%.12g" for name in names) + end
    # one % pass per CSV_BLOCK rows: a single pass over a large record leaves
    # multi-MB temporaries that fragment the heap across repeated calls
    for start in range(0, len(table), CSV_BLOCK):
        rows = table[start:start + CSV_BLOCK]
        values = np.column_stack([rows[name] for name in names]).ravel().tolist()
        yield line * len(rows) % tuple(values)


@dataclass
class ReconstructionResult:
    rho: DensityMatrix
    log_likelihood_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False

    @property
    def final_log_likelihood(self) -> float:
        return self.log_likelihood_trace[-1] if self.log_likelihood_trace else float("nan")


def sample_homodyne(
    rho: DensityMatrix,
    phases,
    samples_per_phase: int,
    efficiency: float = 1.0,
    seed: int = 0,
) -> np.recarray:
    """Draw quadrature samples of the state seen by a lossy homodyne detector.

    The state is degraded by `efficiency` via the pure loss channel and
    sampled per phase by inverse-CDF lookup on a tabulated grid.  Phases get
    independent deterministic substreams, so results do not depend on the
    order in which phases are processed.  Returns a `quadrature_record`,
    phase by phase in the given order.
    """
    phases = list(phases)
    if not phases:
        raise ValueError("phase list must not be empty")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    if samples_per_phase <= 0:
        raise ValueError("samples_per_phase must be positive")
    lossy = rho if efficiency == 1.0 else pure_loss_channel(rho, efficiency)
    x = np.linspace(*X_RANGE, SAMPLING_GRID)
    streams = np.random.SeedSequence(seed).spawn(len(phases))
    xs = np.empty((len(phases), samples_per_phase))
    for row, theta, stream in zip(xs, phases, streams):
        pdf = quadrature_pdf(lossy, theta, x)
        cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(x))))
        cdf /= cdf[-1]
        u = np.random.default_rng(stream).uniform(size=samples_per_phase)
        row[:] = np.interp(u, cdf, x)
    return quadrature_record(np.repeat(np.asarray(phases, dtype=float), samples_per_phase),
                             xs.ravel())


def _bin_counts(samples: np.recarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct phases (sorted) and the (phases, N_EDGES-1) histogram of x.

    x outside X_RANGE counts in the first or last bin.
    """
    thetas, theta_row = np.unique(samples.theta, return_inverse=True)
    edges = np.linspace(*X_RANGE, N_EDGES)
    x_bin = np.clip(np.searchsorted(edges, samples.x, side="right") - 1, 0, N_EDGES - 2)
    counts = np.zeros((len(thetas), N_EDGES - 1))
    np.add.at(counts, (theta_row, x_bin), 1.0)
    return thetas, counts


def _bin_matrices(dim: int, edges: np.ndarray) -> np.ndarray:
    """G[l, m, n] = integral over bin l of psi_m(x) psi_n(x) dx (Simpson)."""
    n_bins = len(edges) - 1
    # 4 Simpson subintervals per bin -> 5 nodes, shared endpoints
    nodes = np.linspace(edges[:-1], edges[1:], 5, axis=1)  # (n_bins, 5)
    h = (edges[1:] - edges[:-1]) / 4.0
    w = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 3.0
    psi = _hermite_functions(dim - 1, nodes.reshape(-1)).reshape(dim, n_bins, 5)
    prod = np.einsum("mlt,nlt,t->lmn", psi, psi, w)
    return prod * h[:, None, None]


def _efficiency_adjusted(G: np.ndarray, efficiency: float) -> np.ndarray:
    """Pull the loss channel into the measurement operators: sum_k K_k^dag G K_k."""
    if efficiency == 1.0:
        return G
    dim = G.shape[1]
    binom = _binomials(dim)
    out = np.zeros_like(G)
    for k in range(dim):
        coeff = np.sqrt(binom[k:, k] * efficiency ** np.arange(dim - k) * (1.0 - efficiency) ** k)
        out[:, k:, k:] += coeff[None, :, None] * G[:, : dim - k, : dim - k] * coeff[None, None, :]
    return out


def mle_reconstruct(
    samples,
    dim: int,
    efficiency: float = 1.0,
    max_iter: int = 1000,
    tol: float = 1e-9,
) -> ReconstructionResult:
    """Iterative maximum-likelihood estimate of the density matrix.

    samples: a `quadrature_record` or any iterable of (theta, x) pairs.
    Stops when the per-sample log-likelihood gain drops below tol.  The
    detection efficiency is handled inside the POVM, so the returned state
    refers to the field before the lossy detector.
    """
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    if not isinstance(samples, np.recarray):
        pairs = np.asarray(list(samples), dtype=float)
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ValueError(f"samples must be (theta, x) pairs, got shape {pairs.shape}")
        samples = quadrature_record(*pairs.reshape(-1, 2).T)
    if len(samples) == 0:
        raise ValueError("no samples given")
    n_rec = 10 * dim * dim
    if len(samples) < n_rec:
        logger.warning("only %d samples for dim %d; %d recommended", len(samples), dim, n_rec)

    thetas, counts = _bin_counts(samples)
    freqs = counts / counts.sum()

    G = _efficiency_adjusted(_bin_matrices(dim, np.linspace(*X_RANGE, N_EDGES)), efficiency)
    # G is real, so both contractions with it are real matmuls on (bins, dim^2)
    Gf = G.reshape(len(G), dim * dim)
    n = np.arange(dim)
    phase = np.exp(1j * np.outer(thetas, n))  # (J, dim)
    hit = freqs > 0
    hit_flat = np.flatnonzero(hit)  # gathers faster than the boolean mask
    freqs_hit = freqs.take(hit_flat)
    # a single occupied bin carries no distribution information; the
    # fixed point is arbitrary, so flag the run as non-converged
    degenerate = len(hit_flat) < 2

    rho = np.eye(dim, dtype=complex) / dim
    trace = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # projector matrix elements Pi_{j,l}[m,n] = e^{-i theta_j (m-n)} G_l[m,n],
        # matching pr(x, theta) = sum_mn rho_mn e^{i theta (m-n)} psi_m psi_n
        twisted = phase.conj()[:, :, None] * rho[None, :, :].transpose(0, 2, 1) * phase[:, None, :]
        # twisted[j, m, n] = rho_nm e^{-i theta_j (m-n)}
        pr = twisted.real.reshape(len(thetas), dim * dim) @ Gf.T
        pr = np.clip(pr, 1e-300, None)
        ll = float(np.sum(freqs_hit * np.log(pr.take(hit_flat))))
        trace.append(ll)
        if not degenerate and len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
        weights = np.where(hit, freqs / pr, 0.0)
        R_real = (weights @ Gf).reshape(len(thetas), dim, dim)
        R = np.einsum("jm,jmn,jn->mn", phase.conj(), R_real, phase)
        rho = R @ rho @ R
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real

    result_rho = DensityMatrix(dim, rho)
    return ReconstructionResult(
        rho=result_rho,
        log_likelihood_trace=trace,
        iterations=iterations,
        converged=converged,
    )


def loss_correct(rho: DensityMatrix, loss: float) -> DensityMatrix:
    """Invert a known loss channel (inverse Bernoulli transformation).

    Exact on the truncated space; small negative eigenvalues produced by
    noisy inputs are clipped to zero (logged).  Raises IllConditionedError
    when the amplification (1/T)^(N-1) exceeds CONDITION_LIMIT.
    """
    if not 0.0 <= loss < 1.0:
        raise ValueError("loss must be in [0, 1)")
    if loss == 0.0:
        return rho
    dim = rho.dim
    T = 1.0 - loss
    condition = (1.0 / T) ** (dim - 1)
    if condition > CONDITION_LIMIT:
        raise IllConditionedError(
            f"inverse-loss amplification {condition:.3e} exceeds {CONDITION_LIMIT:.1e}"
        )
    # the forward channel's kernel with T -> 1/T
    out = _loss_map(rho.elements, 1.0 / T)
    out = 0.5 * (out + out.conj().T)
    ev, V = np.linalg.eigh(out)
    if ev.min() < -1e-12:
        logger.info("loss_correct clipped negative eigenvalues down to %.3e", ev.min())
    ev = np.clip(ev, 0.0, None)
    out = (V * ev) @ V.conj().T
    out /= np.trace(out).real
    return DensityMatrix(dim, out)


def write_samples_csv(path, samples):
    """Write a `quadrature_record` as a `theta,x` CSV: `%.12g` values, CRLF line ends."""
    with open(path, "w", newline="") as fh:
        fh.writelines(_csv_chunks(samples, "\r\n"))


def read_samples_csv(path) -> np.recarray:
    """Read a CSV with `theta` and `x` columns, picked by header name."""
    with open(path, newline="") as fh:
        header = [name.strip() for name in fh.readline().rstrip("\r\n").split(",")]
        _require_columns(path, header, ("theta", "x"))
        columns = (header.index("theta"), header.index("x"))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(fh, delimiter=",", usecols=columns, ndmin=2)
    return quadrature_record(table[:, 0], table[:, 1])


def reconstruction_report(result: ReconstructionResult) -> dict:
    """JSON-ready summary of a reconstruction run."""
    return {
        "dim": result.rho.dim,
        "iterations": result.iterations,
        "converged": result.converged,
        "final_log_likelihood": result.final_log_likelihood,
        "rho": {
            "real": np.real(result.rho.elements).tolist(),
            "imag": np.imag(result.rho.elements).tolist(),
        },
    }
