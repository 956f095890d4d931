"""Truncated Fock-space linear algebra for single-mode photonic states.

States live in the number basis |0>, ..., |N-1>.  Quadratures follow the
convention a = (x + ip)/sqrt(2), so the vacuum quadrature variance is 1/2
and the vacuum Wigner function peaks at W(0,0) = 1/pi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

DEFAULT_DIM = 20

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True)
class FockVector:
    """Pure state as a complex coefficient vector over |n>."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
        if amps.shape != (self.dim,):
            raise ValueError(f"amplitudes must have shape ({self.dim},)")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def density_matrix(self) -> "DensityMatrix":
        """Outer product |psi><psi|, normalized to unit trace."""
        v = self.amplitudes / self.norm
        return DensityMatrix(self.dim, np.outer(v, v.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state as a complex N x N matrix in the Fock basis."""

    dim: int
    elements: np.ndarray

    def __post_init__(self):
        el = np.asarray(self.elements, dtype=complex)
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
        if el.shape != (self.dim, self.dim):
            raise ValueError(f"elements must have shape ({self.dim}, {self.dim})")
        el.flags.writeable = False
        object.__setattr__(self, "elements", el)

    @property
    def trace(self) -> float:
        return float(np.trace(self.elements).real)

    def populations(self) -> np.ndarray:
        """Diagonal probabilities p_n = <n|rho|n>."""
        return np.real(np.diag(self.elements)).copy()

    def normalized(self) -> "DensityMatrix":
        tr = np.trace(self.elements)
        if abs(tr) == 0.0:
            raise ValueError("cannot normalize a traceless matrix")
        return DensityMatrix(self.dim, self.elements / tr)

    def validate(self, herm_tol=HERMITICITY_TOL, trace_tol=TRACE_TOL, psd_tol=PSD_TOL):
        """Raise ValueError unless Hermitian, unit-trace and PSD at tolerance."""
        el = self.elements
        herm_dev = float(np.max(np.abs(el - el.conj().T)))
        if herm_dev > herm_tol:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
        tr_dev = abs(np.trace(el) - 1.0)
        if tr_dev > trace_tol:
            raise ValueError(f"trace deviates from 1 by {tr_dev:.3e}")
        min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (el + el.conj().T))))
        if min_eig < -psd_tol:
            raise ValueError(f"not PSD: smallest eigenvalue {min_eig:.3e}")
        return self


@dataclass(frozen=True)
class PhotonStatistics:
    """Photon-number distribution summary of a state."""

    probabilities: np.ndarray
    mean: float
    g2_zero: float | None = field(default=None)


def fock_state(n: int, dim: int = DEFAULT_DIM) -> FockVector:
    """Number state |n>."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    if not 0 <= n < dim:
        raise ValueError(f"n={n} outside truncation 0..{dim - 1}")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockVector(dim, amps)


def coherent_state(alpha: complex, dim: int = DEFAULT_DIM) -> FockVector:
    """Coherent state with amplitude alpha, truncated at dim photons.

    Coefficients are exp(-|alpha|^2/2) alpha^n / sqrt(n!).  Warns when
    |alpha|^2 > dim/4, where the truncated tail is no longer negligible.
    """
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    nbar = abs(alpha) ** 2
    if nbar > dim / 4:
        warnings.warn(
            f"|alpha|^2 = {nbar:.3g} exceeds dim/4 = {dim / 4:.3g}; "
            "truncation may be inadequate",
            stacklevel=2,
        )
    return FockVector(dim, math.exp(-nbar / 2) * _coherent_amplitudes(alpha, dim))


def thermal_state(nbar: float, dim: int = DEFAULT_DIM) -> DensityMatrix:
    """Thermal state p_n proportional to (nbar/(1+nbar))^n, renormalized."""
    if nbar < 0:
        raise ValueError("mean photon number must be nonnegative")
    if nbar == 0:
        return fock_state(0, dim).density_matrix()
    q = nbar / (1.0 + nbar)
    p = q ** np.arange(dim)
    p /= p.sum()
    return DensityMatrix(dim, np.diag(p).astype(complex))


_BINOMIALS = np.ones((1, 1))  # grown on demand by _binomials


def _binomials(size: int) -> np.ndarray:
    """Read-only C[n, k] = C(n, k) for 0 <= n, k < size (0 where k > n).

    Pascal's rule adds integers: exact while C(n, k) < 2^53 (n <= 56), correct
    to rounding beyond.  Serves every Fock-space channel and the beam splitter.
    """
    global _BINOMIALS
    table = _BINOMIALS  # slice the table read here: another thread may swap it
    if len(table) < size:
        table = np.zeros((size, size))
        table[:, 0] = 1.0
        for n in range(1, size):
            table[n, 1:] = table[n - 1, :-1] + table[n - 1, 1:]
        table.flags.writeable = False
        _BINOMIALS = table
    return table[:size, :size]


def _coherent_amplitudes(z, size: int) -> np.ndarray:
    """z^n / sqrt(n!) for 0 <= n < size on a new last axis; z broadcasts.

    The package's one sqrt(n!): a running product of z/sqrt(k), which forms
    neither n! nor z^n, so large n stays finite where the amplitude is.
    """
    z = np.asarray(z)[..., None]
    factors = z / np.sqrt(np.arange(1, size))
    return np.cumprod(np.concatenate([np.ones_like(z), factors], axis=-1), axis=-1)


def _shift_sum(rho: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[..., k, :, :] * S_k(rho), the k-photon sum of Kraus-form channels.

    S_k(rho)[m, n] = sqrt(C(m+k, k) C(n+k, k)) rho[m+k, n+k], zero where
    m + k or n + k reaches dim.  rho (..., dim, dim) and coeffs
    (..., K, dim, dim) with K <= dim broadcast over their leading axes.
    """
    dim = rho.shape[-1]
    binom = _binomials(dim)
    out = np.zeros(np.broadcast_shapes(rho.shape, coeffs[..., 0, :, :].shape), dtype=complex)
    for k in range(coeffs.shape[-3]):
        nk, root = dim - k, np.sqrt(binom[k:, k])
        out[..., :nk, :nk] += coeffs[..., k, :nk, :nk] * np.outer(root, root) * rho[..., k:, k:]
    return out


def _loss_map(el: np.ndarray, transmission: float) -> np.ndarray:
    """sum_k K_k rho K_k^dag for transmission T on density-matrix arrays (..., dim, dim).

    (K_k rho K_k^dag)_{m,n} = (1-T)^k T^((m+n)/2) S_k(rho)[m, n].  With
    T -> 1/T the same kernel inverts the channel; (1-T)^k then alternates.
    """
    dim = el.shape[-1]
    root_t = transmission ** (0.5 * np.arange(dim))
    return _shift_sum(el, (1.0 - transmission) ** np.arange(dim)[:, None, None]
                      * np.outer(root_t, root_t))


def pure_loss_channel(rho: DensityMatrix, transmission: float) -> DensityMatrix:
    """Beam-splitter photon loss with intensity transmission T.

    Kraus form: rho -> sum_k K_k rho K_k^dag with
    K_k = sum_n sqrt(C(n,k) T^(n-k) (1-T)^k) |n-k><n|.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {transmission}")
    return DensityMatrix(rho.dim, _loss_map(rho.elements, transmission))


def _hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Normalized harmonic-oscillator eigenfunctions psi_0..psi_n_max at x.

    Upward recurrence psi_n = x sqrt(2/n) psi_{n-1} - sqrt((n-1)/n) psi_{n-2},
    stable because each step works with the normalized functions.
    """
    x = np.asarray(x, dtype=float)
    psi = np.empty((n_max + 1,) + x.shape)
    psi[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        psi[1] = np.sqrt(2.0) * x * psi[0]
    for n in range(2, n_max + 1):
        psi[n] = x * np.sqrt(2.0 / n) * psi[n - 1] - np.sqrt((n - 1) / n) * psi[n - 2]
    return psi


def quadrature_pdf(rho: DensityMatrix, theta: float, x) -> np.ndarray:
    """Probability density of the rotated quadrature x_theta.

    pr(x, theta) = sum_mn rho_mn exp(i theta (m-n)) psi_m(x) psi_n(x).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    psi = _hermite_functions(rho.dim - 1, x)  # (dim, npts)
    phase = np.exp(1j * theta * np.arange(rho.dim))
    twisted = phase[:, None] * rho.elements * phase.conj()[None, :]
    pdf = np.einsum("mn,mk,nk->k", twisted, psi, psi).real
    return np.clip(pdf, 0.0, None)


def _laguerre_clenshaw(coeffs: np.ndarray, d: int, x: np.ndarray) -> np.ndarray:
    """sum_n c_n (-1)^n sqrt(n! d!/(n+d)!) L_n^(d)(x) by Clenshaw's recurrence.

    The normalized functions phi_n = (-1)^n sqrt(n!/(n+d)!) L_n^(d) obey
    phi_(n+1) = a_n phi_n + b_n phi_(n-1) with
    a_n = (x - 2n - 1 - d)/sqrt((n+1)(n+d+1)) and
    b_n = -sqrt(n(n+d)/((n+1)(n+d+1))), so the backward sweep needs only
    two arrays of the shape of x.  Returns sum_n c_n phi_n * sqrt(d!).
    """
    b1 = np.zeros(x.shape, dtype=complex)
    b2 = np.zeros(x.shape, dtype=complex)
    for k in range(len(coeffs) - 1, -1, -1):
        a_k = (x - (2 * k + 1 + d)) / math.sqrt((k + 1) * (k + d + 1))
        b_next = -math.sqrt((k + 1) * (k + d + 1) / ((k + 2) * (k + d + 2)))
        b1, b2 = coeffs[k] + a_k * b1 + b_next * b2, b1
    return b1


def wigner(rho: DensityMatrix, q, p):
    """Wigner function at phase-space points (q, p); broadcastable arrays.

    Normalized so that the double integral over (q, p) equals 1 and the
    vacuum gives W(0,0) = 1/pi.  W = Re sum_mn rho_mn W_mn with
    W_mn = (-1)^n sqrt(2^d n!/m!) (q - ip)^d L_n^(d)(2r^2) exp(-r^2)/pi
    for m = n + d >= n and W_nm = conj(W_mn), which equals the sum over
    the lower diagonals of the Hermitian part of rho (off-diagonals
    doubled).  Each diagonal's Laguerre series is summed with Clenshaw's
    recurrence and the diagonals by Horner's rule in sqrt(2) (q - ip), as
    in QuTiP's wigner(method="clenshaw") (Johansson, Nation & Nori,
    Comput. Phys. Commun. 184, 1234 (2013)); memory is O(points), with
    no per-element table.
    """
    q_arr, p_arr = np.broadcast_arrays(np.asarray(q, float), np.asarray(p, float))
    el = rho.elements
    herm = 0.5 * (el + el.conj().T)
    x = 2.0 * (q_arr * q_arr + p_arr * p_arr)
    z = math.sqrt(2.0) * (q_arr - 1j * p_arr)
    acc = np.zeros(x.shape, dtype=complex)
    for d in range(rho.dim - 1, -1, -1):
        coeffs = np.diagonal(herm, -d) * (2.0 if d else 1.0)
        acc = _laguerre_clenshaw(coeffs, d, x) + acc * (z / math.sqrt(d + 1))
    vals = acc.real * np.exp(-0.5 * x) / np.pi
    if vals.ndim == 0:
        return float(vals)
    return vals


def number_g2(populations) -> np.ndarray:
    """g2(0) = <n(n-1)>/<n>^2 of photon-number distributions on the last axis.

    NaN where <n> = 0 (undefined).
    """
    p = np.asarray(populations, dtype=float)
    n = np.arange(p.shape[-1])
    mean = p @ n
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mean > 0.0, (p @ (n * (n - 1))) / mean**2, np.nan)


def photon_statistics(rho: DensityMatrix) -> PhotonStatistics:
    """Populations, mean photon number and g2(0) of a state.

    g2(0) = <n(n-1)>/<n>^2; reported as None for the vacuum (undefined).
    """
    p = rho.populations()
    g2 = number_g2(p)
    return PhotonStatistics(
        probabilities=p,
        mean=float(np.dot(np.arange(rho.dim), p)),
        g2_zero=None if np.isnan(g2) else float(g2),
    )


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    w, V = np.linalg.eigh(0.5 * (rho.elements + rho.elements.conj().T))
    w = np.clip(w, 0.0, None)
    w[w < rho.dim * np.finfo(float).eps * w.max()] = 0.0  # sqrt would amplify noise
    sqrt_rho = (V * np.sqrt(w)) @ V.conj().T
    inner = sqrt_rho @ sigma.elements @ sqrt_rho
    ev = np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T)), 0.0, None)
    if ev.max() > 0:
        ev[ev < rho.dim * np.finfo(float).eps * ev.max()] = 0.0
    return float(np.sum(np.sqrt(ev)) ** 2)
