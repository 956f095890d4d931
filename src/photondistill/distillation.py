"""Parity-measurement distillation of photonic states.

Reflecting light off the cavity entangles the photon-number parity with the
atomic state; detecting the atom afterwards projects the light onto odd
("up" herald) or even ("down" herald) Fock components.  This module builds
the heralded output states for coherent inputs in closed form, generalizes
the map to arbitrary Fock-basis inputs through a Kraus construction, and
applies detection-error mixing and photon loss.

Loss bookkeeping: `uncorrected_loss` happens during production and always
stays in the state; `downstream_loss` (propagation/detection) can be undone
in analysis.  The "corrected" pipeline evaluates states at the residual
production loss while keeping the detection-error mixing weights of the
physical (fully lossy) states, matching a correct-after-mixing analysis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .cavity import CavityParams, branch_amplitudes
from .errors import EmptyBranchError
from .fockspace import DEFAULT_DIM, DensityMatrix, coherent_state
from . import fockspace

# Herald probabilities below this are treated as an empty (undefined) branch.
BRANCH_PROB_FLOOR = 1e-12

ODD = "odd"
EVEN = "even"


def _parity_sign(parity: str) -> int:
    if parity == ODD:
        return -1
    if parity == EVEN:
        return +1
    raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")


@dataclass(frozen=True)
class DistillationConfig:
    """Cavity parameters plus the technical imperfections of the protocol."""

    params: CavityParams
    detection_error: float = 0.0
    uncorrected_loss: float = 0.0
    downstream_loss: float = 0.0

    def __post_init__(self):
        for name in ("detection_error", "uncorrected_loss", "downstream_loss"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {val}")

    @property
    def total_loss(self) -> float:
        """Combined production and downstream loss."""
        return 1.0 - (1.0 - self.uncorrected_loss) * (1.0 - self.downstream_loss)


@dataclass(frozen=True)
class HeraldedOutput:
    """Parity decomposition of the reflected light.

    rho_odd/rho_even are the states conditioned on the atomic herald and
    p_up/p_down the corresponding probabilities, before any detection-error
    mixing (p_up + p_down = 1; the probability-weighted sum of the two
    states recombines to the unconditioned reflected state).
    """

    rho_odd: DensityMatrix
    rho_even: DensityMatrix
    p_up: float
    p_down: float


class _BranchPair:
    """Scalar overlap machinery for the two coherent output branches."""

    def __init__(self, params: CavityParams, alpha: complex):
        self.alpha = complex(alpha)
        self.up = branch_amplitudes(params, True, alpha)
        self.down = branch_amplitudes(params, False, alpha)
        self.r_up = self.up.r
        self.r_down = self.down.r
        lu = self.up.loss_vector()
        ld = self.down.loss_vector()
        # <l_down|l_up> over the three traced-out loss modes
        self.loss_overlap = np.exp(
            np.sum(ld.conj() * lu) - 0.5 * np.sum(np.abs(lu) ** 2 + np.abs(ld) ** 2)
        )
        # exponent of the reflected-mode overlap <r_down|r_up>
        self.refl_cross = (
            np.conj(self.r_down) * self.r_up
            - 0.5 * (abs(self.r_up) ** 2 + abs(self.r_down) ** 2)
        )
        self.total_overlap = np.exp(self.refl_cross) * self.loss_overlap

    def parity_probability(self, parity: str) -> float:
        sign = _parity_sign(parity)
        return (1.0 + sign * self.total_overlap.real) / 2.0

    def cross_coefficient(self, loss: float) -> complex:
        """Coherence factor multiplying |nu r_up><nu r_down| after loss."""
        return self.loss_overlap * np.exp(loss * self.refl_cross)

    def branch_matrix(self, parity: str, loss: float, dim: int) -> DensityMatrix:
        """Heralded state for a coherent input, after intensity loss `loss`."""
        sign = _parity_sign(parity)
        prob = self.parity_probability(parity)
        if prob < BRANCH_PROB_FLOOR:
            raise EmptyBranchError(
                f"{parity} herald has probability {prob:.3e}; state undefined"
            )
        nu = math.sqrt(1.0 - loss)
        vu = coherent_state(nu * self.r_up, dim).amplitudes
        vd = coherent_state(nu * self.r_down, dim).amplitudes
        lam = self.cross_coefficient(loss)
        M = np.outer(vu, vu.conj()) + np.outer(vd, vd.conj())
        cross = lam * np.outer(vu, vd.conj())
        M += sign * (cross + cross.conj().T)
        return DensityMatrix(dim, M / np.trace(M).real)

    def coherent_sandwich(self, parity: str, loss: float) -> float:
        """<alpha|rho_parity|alpha> with rho at intensity loss `loss`."""
        sign = _parity_sign(parity)
        prob = self.parity_probability(parity)
        if prob < BRANCH_PROB_FLOOR:
            raise EmptyBranchError(
                f"{parity} herald has probability {prob:.3e}; state undefined"
            )
        nu = math.sqrt(1.0 - loss)
        a = self.alpha

        def overlap(beta):
            return np.exp(-(abs(a) ** 2 + abs(beta) ** 2) / 2.0 + np.conj(a) * beta)

        ou = overlap(nu * self.r_up)
        od = overlap(nu * self.r_down)
        lam = self.cross_coefficient(loss)
        val = abs(ou) ** 2 + abs(od) ** 2 + sign * 2.0 * np.real(lam * ou * np.conj(od))
        return float(val.real) / (4.0 * prob)


def distill_coherent(
    config: DistillationConfig,
    alpha: float,
    parity: str = ODD,
    dim: int = DEFAULT_DIM,
    corrected: bool = False,
) -> DensityMatrix:
    """Heralded state for a coherent input pulse, in closed form.

    Applies the config's total loss (or only the uncorrected production
    loss when `corrected`).  Detection errors are not mixed in here; see
    `detection_error_mix` / `distilled_state`.
    """
    if not np.isrealobj(alpha) and abs(complex(alpha).imag) > 0:
        raise ValueError("input amplitude is taken real")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    pair = _BranchPair(config.params, alpha)
    loss = config.uncorrected_loss if corrected else config.total_loss
    return pair.branch_matrix(parity, loss, dim)


def parity_probabilities(config: DistillationConfig, alpha: float) -> tuple[float, float]:
    """True (error-free) probabilities of the odd and even heralds."""
    pair = _BranchPair(config.params, alpha)
    p_odd = pair.parity_probability(ODD)
    return p_odd, 1.0 - p_odd


def herald_probability(config: DistillationConfig, alpha: float) -> float:
    """Probability of detecting the atom "up", including detection errors.

    P(up) = (1-eps) * P_odd + eps * P_even.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    p_odd, p_even = parity_probabilities(config, alpha)
    eps = config.detection_error
    return (1.0 - eps) * p_odd + eps * p_even


def herald_output(
    config: DistillationConfig, alpha: float, dim: int = DEFAULT_DIM, corrected: bool = False
) -> HeraldedOutput:
    """Both heralded branches with their (error-free) probabilities."""
    pair = _BranchPair(config.params, alpha)
    loss = config.uncorrected_loss if corrected else config.total_loss
    p_odd = pair.parity_probability(ODD)
    return HeraldedOutput(
        rho_odd=pair.branch_matrix(ODD, loss, dim),
        rho_even=pair.branch_matrix(EVEN, loss, dim),
        p_up=p_odd,
        p_down=1.0 - p_odd,
    )


def detection_error_mix(
    rho_odd: DensityMatrix,
    rho_even: DensityMatrix,
    alpha: float,
    epsilon: float,
) -> DensityMatrix:
    """Admix the wrong-parity branch caused by faulty atomic state detection.

    The branches are weighted by their overlap with the input pulse:
    rho_eff = [(1-eps) <a|rho-|a> rho- + eps <a|rho+|a> rho+] / P(up).
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if rho_odd.dim != rho_even.dim:
        raise ValueError("branch dimensions differ")
    v = coherent_state(alpha, rho_odd.dim).amplitudes
    w_odd = (1.0 - epsilon) * float(np.real(v.conj() @ rho_odd.elements @ v))
    w_even = epsilon * float(np.real(v.conj() @ rho_even.elements @ v))
    total = w_odd + w_even
    if total < BRANCH_PROB_FLOOR:
        raise EmptyBranchError("herald probability vanishes; mixed state undefined")
    mix = (w_odd * rho_odd.elements + w_even * rho_even.elements) / total
    return DensityMatrix(rho_odd.dim, mix)


def _general_branch(
    rho_in: DensityMatrix, params: CavityParams, parity: str
) -> tuple[np.ndarray, float]:
    """Unnormalized heralded output of the generalized Fock-basis map."""
    sign = _parity_sign(parity)
    dim = rho_in.dim
    up = branch_amplitudes(params, True, 1.0)
    down = branch_amplitudes(params, False, 1.0)
    tau_u, tau_d = up.r, down.r
    mu2_u = max(1.0 - abs(tau_u) ** 2, 0.0)
    mu2_d = max(1.0 - abs(tau_d) ** 2, 0.0)
    # per-lost-photon overlap between the two branches' loss modes
    chi = complex(np.sum(up.loss_vector() * down.loss_vector().conj()))

    n = np.arange(dim)
    rho = rho_in.elements
    out = np.zeros((dim, dim), dtype=complex)
    pow_u = tau_u**n
    pow_d = tau_d**n
    for k in range(dim):
        m = n[: dim - k]
        log_binom = gammaln(m + k + 1) - gammaln(k + 1) - gammaln(m + 1)
        root_binom = np.exp(0.5 * log_binom)
        au = root_binom * pow_u[: dim - k]  # A_k^up acting coefficients
        ad = root_binom * pow_d[: dim - k]
        block = rho[k:, k:]
        out[: dim - k, : dim - k] += (
            mu2_u**k * (au[:, None] * block * au.conj()[None, :])
            + mu2_d**k * (ad[:, None] * block * ad.conj()[None, :])
            + sign * chi**k * (au[:, None] * block * ad.conj()[None, :])
            + sign * np.conj(chi) ** k * (ad[:, None] * block * au.conj()[None, :])
        )
    out /= 4.0
    return out, float(np.trace(out).real)


def distill_general(
    rho_in: DensityMatrix,
    config: DistillationConfig,
    parity: str = ODD,
    corrected: bool = False,
) -> tuple[DensityMatrix, float]:
    """Heralded output for an arbitrary Fock-basis input state.

    Returns the normalized branch state (after loss) and the herald
    probability of that parity outcome.  For coherent inputs this
    reproduces `distill_coherent` exactly.
    """
    out, prob = _general_branch(rho_in, config.params, parity)
    if prob < BRANCH_PROB_FLOOR:
        raise EmptyBranchError(
            f"{parity} herald has probability {prob:.3e}; state undefined"
        )
    state = DensityMatrix(rho_in.dim, out / prob)
    loss = config.uncorrected_loss if corrected else config.total_loss
    if loss > 0.0:
        state = fockspace.pure_loss_channel(state, 1.0 - loss)
    return state, prob


def single_photon_fidelity(rho: DensityMatrix) -> float:
    """Overlap <1|rho|1> with the ideal single photon."""
    return float(np.real(rho.elements[1, 1]))


def multi_photon_suppression(rho: DensityMatrix) -> float:
    """1 - P(n >= 2): absolute suppression of two-and-more-photon events."""
    return 1.0 - float(np.sum(rho.populations()[2:]))


def distilled_state(
    config: DistillationConfig,
    alpha: float,
    parity: str = ODD,
    dim: int = DEFAULT_DIM,
    corrected: bool = False,
) -> tuple[DensityMatrix, float]:
    """Full coherent-input pipeline: parity branch plus detection-error mix.

    The mixing weights are the branch overlaps with the input evaluated on
    the physical (total-loss) states; with `corrected` the mixed branches
    are evaluated at the residual production loss instead, which equals
    inverting the downstream loss after mixing.
    Returns (state, herald probability including detection errors).
    """
    pair = _BranchPair(config.params, alpha)
    eps = config.detection_error
    sign = _parity_sign(parity)
    loss_phys = config.total_loss
    loss_out = config.uncorrected_loss if corrected else loss_phys
    right = EVEN if parity == ODD else ODD
    w_match = (1.0 - eps) * pair.coherent_sandwich(parity, loss_phys)
    w_wrong = eps * pair.coherent_sandwich(right, loss_phys) if eps > 0 else 0.0
    total = w_match + w_wrong
    if total < BRANCH_PROB_FLOOR:
        raise EmptyBranchError("herald probability vanishes; mixed state undefined")
    rho_match = pair.branch_matrix(parity, loss_out, dim)
    if w_wrong > 0.0:
        rho_wrong = pair.branch_matrix(right, loss_out, dim)
        mix = (w_match * rho_match.elements + w_wrong * rho_wrong.elements) / total
        rho_eff = DensityMatrix(dim, mix)
    else:
        rho_eff = rho_match
    p_match = pair.parity_probability(parity)
    p_herald = (1.0 - eps) * p_match + eps * (1.0 - p_match)
    return rho_eff, p_herald


def distilled_state_general(
    rho_in: DensityMatrix,
    config: DistillationConfig,
    parity: str = ODD,
    corrected: bool = False,
) -> tuple[DensityMatrix, float]:
    """Full pipeline for arbitrary inputs; weights are Tr(rho_in rho_branch)."""
    eps = config.detection_error
    right = EVEN if parity == ODD else ODD
    branch, p_match = distill_general(rho_in, config, parity, corrected=False)
    if eps > 0.0:
        wrong, _ = distill_general(rho_in, config, right, corrected=False)
        w_match = (1.0 - eps) * float(np.real(np.trace(rho_in.elements @ branch.elements)))
        w_wrong = eps * float(np.real(np.trace(rho_in.elements @ wrong.elements)))
        total = w_match + w_wrong
        if total < BRANCH_PROB_FLOOR:
            raise EmptyBranchError("herald probability vanishes; mixed state undefined")
        if corrected:
            branch, _ = distill_general(rho_in, config, parity, corrected=True)
            wrong, _ = distill_general(rho_in, config, right, corrected=True)
        mix = (w_match * branch.elements + w_wrong * wrong.elements) / total
        rho_eff = DensityMatrix(rho_in.dim, mix)
    else:
        if corrected:
            branch, _ = distill_general(rho_in, config, parity, corrected=True)
        rho_eff = branch
    p_herald = (1.0 - eps) * p_match + eps * (1.0 - p_match)
    return rho_eff, p_herald


def _odd_herald_populations(
    params: CavityParams,
    alpha_sq,
    loss: float,
    loss_out: float,
    epsilon: float,
    n_max: int,
    renormalize: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Error-mixed odd-herald populations over an array of alpha^2, closed form.

    Every output amplitude is linear in alpha, so each overlap exponent is
    alpha^2 times a constant of the unit-amplitude branches.  The mixing
    weights are the branch overlaps with the input at the physical loss
    `loss`; the mixed populations are those of the branches at `loss_out`
    (1 - loss_out may exceed 1, the formal over-correction used in
    fitting).  With `renormalize` each branch is divided by its sum over
    the n_max levels, as the state truncated at dim = n_max is; otherwise
    the populations are the exact closed form.  Rows whose herald is empty
    under the `EmptyBranchError` rule of `distilled_state` are NaN.

    Returns (populations of shape (K, n_max), herald probability (K,)).
    """
    a2 = np.asarray(alpha_sq, dtype=float).reshape(-1)
    if not np.all(a2 >= 0.0):
        raise ValueError("alpha_sq must be nonnegative")
    up = branch_amplitudes(params, True, 1.0)
    down = branch_amplitudes(params, False, 1.0)
    r_up, r_down = up.r, down.r
    lu, ld = up.loss_vector(), down.loss_vector()
    n_up, n_down = abs(r_up) ** 2, abs(r_down) ** 2
    # exponents of <l_down|l_up> and <r_down|r_up> per unit alpha^2
    c_loss = np.sum(ld.conj() * lu) - 0.5 * np.sum(np.abs(lu) ** 2 + np.abs(ld) ** 2)
    c_refl = np.conj(r_down) * r_up - 0.5 * (n_up + n_down)

    # P_odd and 1 - lambda are differences of nearly equal terms at small
    # alpha^2; expm1 keeps them to rounding there
    herald = a2 * (c_refl + c_loss)
    p_odd = -np.expm1(herald).real / 2.0
    p_even = (1.0 + np.exp(herald).real) / 2.0
    p_herald = (1.0 - epsilon) * p_odd + epsilon * (1.0 - p_odd)
    empty = p_odd < BRANCH_PROB_FLOOR
    if epsilon > 0.0:
        empty |= p_even < BRANCH_PROB_FLOOR

    # 4 P_parity <alpha|rho_parity|alpha> at the physical loss
    nu = math.sqrt(1.0 - loss)
    e_up = -(1.0 + nu * nu * n_up) / 2.0 + nu * r_up
    e_down = -(1.0 + nu * nu * n_down) / 2.0 + nu * r_down
    o_up, o_down = np.exp(a2 * e_up), np.exp(a2 * e_down)
    w_odd, w_even = _parity_split(o_up, o_down, -np.expm1(a2 * (c_loss + loss * c_refl)))

    # 4 P_parity n!/T^n p_n at loss_out from the lossy branch amplitudes
    # u_n = exp(-T x/2) (alpha r)^n of each atomic state, x = alpha^2 |r|^2
    T = 1.0 - loss_out
    n = np.arange(n_max)
    alpha = np.sqrt(a2)[:, None]
    x_up, x_down = (a2 * n_up)[:, None], (a2 * n_down)[:, None]
    u_up = np.exp(-T * x_up / 2.0) * (alpha * r_up) ** n
    u_down = np.exp(-T * x_down / 2.0) * (alpha * r_down) ** n
    odd_n, even_n = _parity_split(
        u_up, u_down, -np.expm1(a2 * (c_loss + loss_out * c_refl))[:, None]
    )
    scale = T**n / np.exp(gammaln(n + 1))

    with np.errstate(divide="ignore", invalid="ignore"):
        w_odd = (1.0 - epsilon) * w_odd / (4.0 * p_odd)
        pops = _branch_populations(scale * odd_n, p_odd, renormalize)
        if epsilon > 0.0:
            w_even = epsilon * w_even / (4.0 * p_even)
            even = _branch_populations(scale * even_n, p_even, renormalize)
            total = w_odd + w_even
            pops = (w_odd[:, None] * pops + w_even[:, None] * even) / total[:, None]
        else:
            total = w_odd
        empty |= total < BRANCH_PROB_FLOOR
    pops[empty] = np.nan

    if renormalize:
        nbar = T * np.max(a2, initial=0.0) * max(n_up, n_down)
        if nbar > n_max / 4:
            warnings.warn(
                f"largest branch mean photon number {nbar:.3g} exceeds "
                f"dim/4 = {n_max / 4:.3g}; truncation may be inadequate",
                stacklevel=3,
            )
    return pops, p_herald


def _parity_split(up, down, one_minus_lam):
    """|u|^2 + |d|^2 -/+ 2 Re(lam u d*) for the odd and even parity.

    Written as |u - d|^2 + m and |u + d|^2 - m with m = 2 Re((1-lam) u d*):
    when u ~ d and lam ~ 1 the odd value is small, and this form keeps it
    to rounding relative to itself, given 1 - lam computed without
    cancellation.
    """
    mix = 2.0 * np.real(one_minus_lam * up * np.conj(down))
    return np.abs(up - down) ** 2 + mix, np.abs(up + down) ** 2 - mix


def _branch_populations(unnormalized: np.ndarray, prob: np.ndarray, renormalize: bool):
    """Normalize 4 P_parity p_n rows to the truncated trace or to P_parity."""
    if renormalize:
        return unnormalized / unnormalized.sum(axis=1, keepdims=True)
    return unnormalized / (4.0 * prob[:, None])


def distilled_populations(
    config: DistillationConfig,
    alpha_sq,
    dim: int = DEFAULT_DIM,
    corrected: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Populations of the odd-herald `distilled_state` over an alpha^2 array.

    Row k of the first array holds the dim populations of
    distilled_state(config, sqrt(alpha_sq[k]), dim=dim, corrected=corrected)
    and entry k of the second the herald probability it returns, from one
    closed-form evaluation.  Populations are NaN where the herald is empty.  Warns once per call when the largest
    branch mean photon number on the grid exceeds dim/4.
    """
    loss_out = config.uncorrected_loss if corrected else config.total_loss
    return _odd_herald_populations(
        config.params, alpha_sq, config.total_loss, loss_out,
        config.detection_error, dim, renormalize=True,
    )


def model_populations(
    params: CavityParams,
    alpha_sq,
    loss: float,
    epsilon: float,
    corrected_loss: float | None = None,
    n_max: int = 4,
) -> np.ndarray:
    """Fock populations of the error-mixed odd-heralded state, closed form.

    `alpha_sq` is a scalar (populations of shape (n_max,)) or an array
    (shape (K, n_max)).  `loss` is the total physical loss on the light;
    if `corrected_loss` is given, populations are reported after inverting
    that downstream part (formally T -> T/(1-corrected_loss), which may
    exceed 1 while fitting).  Raises EmptyBranchError if any herald is
    empty.  Used as the cheap forward model for imperfection fitting.
    """
    loss_out = loss if corrected_loss is None else 1.0 - (1.0 - loss) / (1.0 - corrected_loss)
    pops, _ = _odd_herald_populations(params, alpha_sq, loss, loss_out, epsilon, n_max)
    empty = np.isnan(pops).any(axis=1)
    if np.any(empty):
        at = np.asarray(alpha_sq, dtype=float).reshape(-1)[empty][0]
        raise EmptyBranchError(f"herald probability vanishes at alpha^2 = {at:g}")
    return pops[0] if np.ndim(alpha_sq) == 0 else pops


def sweep_rows(
    config: DistillationConfig,
    alpha_sq_values,
    dim: int = DEFAULT_DIM,
    corrected: bool = True,
) -> list[dict]:
    """Per-alpha^2 summary of the odd-heralded pipeline for CSV emission.

    Zero-probability branches are recorded with NaN markers instead of
    aborting the sweep.  `suppression` is the absolute 1 - P(n>=2);
    `suppression_rel` compares P(n>=2) against the input coherent pulse.
    Needs dim >= 4 for the p3 column.
    """
    if dim < 4:
        raise ValueError(f"dim must be >= 4 for the p3 column, got {dim}")
    a2 = np.asarray(alpha_sq_values, dtype=float).reshape(-1)
    pops, p_up = distilled_populations(config, a2, dim=dim, corrected=corrected)
    tail = np.sum(pops[:, 2:], axis=1)
    coh_tail = 1.0 - np.exp(-a2) * (1.0 + a2)
    with np.errstate(divide="ignore", invalid="ignore"):
        suppression_rel = np.where(coh_tail > 0.0, 1.0 - tail / coh_tail, np.nan)
    columns = {
        "alpha_sq": a2,
        "coherent_ref": a2 * np.exp(-a2),
        "p_up": p_up,
        "f1": pops[:, 1],
        "p0": pops[:, 0],
        "p1": pops[:, 1],
        "p2": pops[:, 2],
        "p3": pops[:, 3],
        "suppression": 1.0 - tail,
        "suppression_rel": suppression_rel,
    }
    names = list(columns)
    return [dict(zip(names, row)) for row in zip(*(col.tolist() for col in columns.values()))]
