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

from .cavity import CavityParams, branch_amplitudes
from .errors import EmptyBranchError
from .fockspace import DEFAULT_DIM, DensityMatrix
from . import fockspace

# Herald probabilities below this are treated as an empty (undefined) branch.
BRANCH_PROB_FLOOR = 1e-12

# Largest share of a nonempty branch's mass that exact populations leave out,
# and the largest branch mean photon number they take (past ~700, the Fock
# amplitudes or the HBT splitter's binomial weights overflow)
EXACT_TAIL = 1e-15
EXACT_MAX_PHOTONS = 500.0

ODD = "odd"
EVEN = "even"


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


def _parity_index(parity: str) -> int:
    """Index of `parity` on the first axis of the branch arrays (odd first)."""
    if parity not in (ODD, EVEN):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    return int(parity == EVEN)


def _require_herald(parity: str, prob: float):
    if prob < BRANCH_PROB_FLOOR:
        raise EmptyBranchError(f"{parity} herald has probability {prob:.3e}; state undefined")


def _alpha_sq(alpha) -> float:
    """alpha^2 of a coherent input amplitude, which must be real and >= 0."""
    alpha = complex(alpha)
    if alpha.imag != 0.0:
        raise ValueError("input amplitude is taken real")
    if alpha.real < 0.0:
        raise ValueError("alpha must be nonnegative")
    return alpha.real**2


def _unit_branches(params: CavityParams):
    """Constants of the two atomic branches at unit input amplitude.

    Returns r_up, r_down and the exponents of <l_down|l_up> (the three
    traced-out loss modes) and <r_down|r_up> per unit alpha^2.  The real
    part of an exponent <d|u> - (|u|^2 + |d|^2)/2 is written -|u - d|^2/2,
    which is never positive and vanishes for equal branches (no coupling).
    """
    up = branch_amplitudes(params, True, 1.0)
    down = branch_amplitudes(params, False, 1.0)
    lu, ld = up.loss_vector(), down.loss_vector()
    c_loss = complex(-0.5 * np.sum(np.abs(lu - ld) ** 2), np.sum(ld.conj() * lu).imag)
    c_refl = complex(-0.5 * abs(up.r - down.r) ** 2, (np.conj(down.r) * up.r).imag)
    return up.r, down.r, c_loss, c_refl


def _exact_levels(nbar: float, p_min: float) -> int:
    """Fock levels holding all but EXACT_TAIL of every branch, at least 4 (p0..p3).

    The raw branches sum to 2(|u><u| + |d><d|), so a branch of herald
    probability P >= p_min drops at most Q/P beyond N levels, Q the tail
    of a Poisson law of mean nbar, at most e^-nbar (e nbar/N)^N.
    """
    if nbar > EXACT_MAX_PHOTONS:
        raise ValueError(f"largest branch mean photon number {nbar:.3g} exceeds "
                         f"{EXACT_MAX_PHOTONS:g}, the range of the exact populations")
    budget = -math.log(EXACT_TAIL * p_min)
    n = max(4, math.floor(nbar) + 1)
    while nbar > 0.0 and nbar + n * (math.log(n / nbar) - 1.0) < budget:
        n += 1
    return n


def _coherent_branches(
    params: CavityParams,
    alpha_sq,
    loss: float,
    loss_out: float,
    n_max: int | None = None,
    outer: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both heralded branches of a coherent input over an alpha^2 array, closed form.

    Every output amplitude is linear in alpha, so each overlap exponent is
    alpha^2 times a constant of the unit-amplitude branches.  Returns three
    arrays indexed [parity (odd, even), point, ...]: P_parity; the overlap
    <alpha|rho_parity|alpha> with the input at the physical loss `loss`;
    and rho_parity at `loss_out` (1 - loss_out may exceed 1, the formal
    over-correction used in fitting).  As populations, rho_parity is exact
    on its first n_max levels, or on `_exact_levels` of them when n_max is
    None.  With `outer` it is the density matrix truncated at dim = n_max,
    divided by its trace there, and one warning is emitted when the
    largest branch mean photon number exceeds n_max/4.  Branches of an
    empty herald are NaN.
    """
    a2 = np.asarray(alpha_sq, dtype=float).reshape(-1)
    if not np.all(a2 >= 0.0):
        raise ValueError("alpha_sq must be nonnegative")
    r_up, r_down, c_loss, c_refl = _unit_branches(params)
    n_up, n_down = abs(r_up) ** 2, abs(r_down) ** 2
    T = 1.0 - loss_out

    # P_odd and 1 - lambda are differences of nearly equal terms at small
    # alpha^2; expm1 keeps them to rounding there
    herald = a2 * (c_refl + c_loss)
    probs = np.array([-np.expm1(herald).real / 2.0, (1.0 + np.exp(herald).real) / 2.0])
    nbar = T * float(np.max(a2, initial=0.0)) * max(n_up, n_down)
    if n_max is None:  # enough levels for the least likely nonempty branch
        n_max = _exact_levels(nbar, np.min(probs, where=probs >= BRANCH_PROB_FLOOR, initial=1.0))
    if outer and nbar > n_max / 4:
        warnings.warn(f"largest branch mean photon number {nbar:.3g} exceeds dim/4 = "
                      f"{n_max / 4:.3g}; truncation may be inadequate", stacklevel=3)

    # 4 P_parity <alpha|rho_parity|alpha> from <alpha|nu alpha r> of each branch
    nu = math.sqrt(1.0 - loss)
    e_up = -(1.0 + nu * nu * n_up) / 2.0 + nu * r_up
    e_down = -(1.0 + nu * nu * n_down) / 2.0 + nu * r_down
    overlaps = np.array(_parity_split(
        np.exp(a2 * e_up), np.exp(a2 * e_down), -np.expm1(a2 * (c_loss + loss * c_refl))
    ))

    # 4 P_parity rho_parity from the Fock amplitudes exp(-T x/2) (sqrt(T)
    # alpha r)^n / sqrt(n!) of each lossy branch, x = alpha^2 |r|^2
    decay = np.exp(-T * np.multiply.outer([n_up, n_down], a2) / 2.0)
    u_up, u_down = decay[..., None] * fockspace._coherent_amplitudes(
        np.multiply.outer([r_up, r_down], math.sqrt(T) * np.sqrt(a2)), n_max)
    one_minus_lam = -np.expm1(a2 * (c_loss + loss_out * c_refl))[:, None]
    if outer:
        one_minus_lam = one_minus_lam[:, :, None]
    branches = np.array(_parity_split(u_up, u_down, one_minus_lam, outer))

    if outer:
        norm = np.diagonal(branches, axis1=-2, axis2=-1).real.sum(axis=-1)
    else:
        norm = 4.0 * probs
    # an empty herald's branch may be divided by a subnormal trace or P_parity
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        overlaps /= 4.0 * probs
        branches /= norm.reshape(norm.shape + (1,) * (branches.ndim - 2))
    return probs, overlaps, branches


def _parity_split(up, down, one_minus_lam, outer=False):
    """|u><u| + |d><d| -/+ (lam |u><d| + h.c.) for the odd and even parity.

    Written as |u - d><u - d| + m and |u + d><u + d| - m with
    m = (1-lam)|u><d| + h.c.: when u ~ d and lam ~ 1 the odd part is
    small, and this form keeps it to rounding relative to itself, given
    1 - lam computed without cancellation.  With `outer` the last axis of
    up/down holds Fock amplitudes and the result their outer products;
    otherwise it is taken elementwise, which gives the diagonal.
    """
    if outer:
        def ket_bra(a, b):
            return a[..., :, None] * b[..., None, :].conj()
    else:
        def ket_bra(a, b):
            return a * b.conj()
    mix = one_minus_lam * ket_bra(up, down)
    mix = mix + (np.swapaxes(mix, -1, -2) if outer else mix).conj()
    odd = ket_bra(up - down, up - down) + mix
    even = ket_bra(up + down, up + down) - mix
    return (odd, even) if outer else (odd.real, even.real)


def _error_mix(parity: str, epsilon: float, probs, overlaps, states):
    """Heralded state after detection errors, with its herald probability.

    A misread atom (probability epsilon) heralds the wrong parity, so
    rho = [(1-eps) w_match rho_match + eps w_wrong rho_wrong] / total, each
    branch weighted by its overlap w with the input, and
    P(herald) = (1-eps) P_match + eps (1 - P_match).  The arguments are
    indexed by parity first (odd, even); the weights broadcast over the
    leading axes of the states.  Returns the mixed state, P(herald) and
    the mask of empty heralds: a mixed branch or the total weight below
    BRANCH_PROB_FLOOR.
    """
    match = _parity_index(parity)
    p_match = probs[match]
    p_herald = (1.0 - epsilon) * p_match + epsilon * (1.0 - p_match)
    empty = p_match < BRANCH_PROB_FLOOR
    w_match = (1.0 - epsilon) * overlaps[match]
    if epsilon > 0.0:
        wrong = 1 - match
        empty = empty | (probs[wrong] < BRANCH_PROB_FLOOR)
        w_wrong = epsilon * overlaps[wrong]
        total = w_match + w_wrong
        axes = (...,) + (None,) * (states.ndim - 1 - np.ndim(total))
        with np.errstate(divide="ignore", invalid="ignore"):
            mixed = (w_match[axes] * states[match] + w_wrong[axes] * states[wrong]) / total[axes]
    else:
        total, mixed = w_match, states[match]
    return mixed, p_herald, empty | (total < BRANCH_PROB_FLOOR)


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
    `distilled_state`.
    """
    index = _parity_index(parity)
    loss = config.uncorrected_loss if corrected else config.total_loss
    probs, _, states = _coherent_branches(
        config.params, _alpha_sq(alpha), loss, loss, dim, outer=True
    )
    _require_herald(parity, probs[index, 0])
    return DensityMatrix(dim, states[index, 0])


def parity_probabilities(config: DistillationConfig, alpha: float) -> tuple[float, float]:
    """True (error-free) probabilities of the odd and even heralds."""
    probs, _, _ = _coherent_branches(config.params, _alpha_sq(alpha), 0.0, 0.0, 1)
    return float(probs[0, 0]), float(probs[1, 0])


def herald_probability(config: DistillationConfig, alpha: float) -> float:
    """Probability of detecting the atom "up", including detection errors.

    P(up) = (1-eps) * P_odd + eps * P_even.
    """
    branches = _coherent_branches(config.params, _alpha_sq(alpha), 0.0, 0.0, 1)
    _, p_up, _ = _error_mix(ODD, config.detection_error, *branches)
    return float(p_up[0])


def herald_output(
    config: DistillationConfig, alpha: float, dim: int = DEFAULT_DIM, corrected: bool = False
) -> HeraldedOutput:
    """Both heralded branches with their (error-free) probabilities."""
    loss = config.uncorrected_loss if corrected else config.total_loss
    probs, _, states = _coherent_branches(
        config.params, _alpha_sq(alpha), loss, loss, dim, outer=True
    )
    _require_herald(ODD, probs[0, 0])
    _require_herald(EVEN, probs[1, 0])
    return HeraldedOutput(
        rho_odd=DensityMatrix(dim, states[0, 0]),
        rho_even=DensityMatrix(dim, states[1, 0]),
        p_up=float(probs[0, 0]),
        p_down=float(probs[1, 0]),
    )


def _general_branches(rho_in: DensityMatrix, params: CavityParams) -> np.ndarray:
    """Unnormalized odd and even outputs of the generalized Fock-basis map, before loss.

    Branch s (up, down) loses k photons through A_k = sum_m sqrt(C(m+k, k))
    mu_s^k tau_s^m |m><m+k|, so odd/even get sum_k S_k(rho) * (|x><x| + |y><y|
    -/+ (lam^k |x><y| + h.c.)) / 4, x_m = mu_u^k tau_u^m, y_m = mu_d^k tau_d^m,
    lam the overlap of the unit loss vectors.  `_parity_split` forms both
    without cancellation, given 1 - lam^k = (1 - lam) sum_(j<k) lam^j.
    """
    dim = rho_in.dim
    up, down = branch_amplitudes(params, True, 1.0), branch_amplitudes(params, False, 1.0)
    lu, ld = up.loss_vector(), down.loss_vector()
    mu_u, mu_d = np.linalg.norm(lu), np.linalg.norm(ld)
    lam, one_minus_lam = 1.0, 0.0  # a lossless branch has no k >= 1 terms to weigh
    if mu_u * mu_d > 0.0:
        lam = np.vdot(ld / mu_d, lu / mu_u)
        one_minus_lam = complex(0.5 * np.sum(np.abs(lu / mu_u - ld / mu_d) ** 2), -lam.imag)
    k = np.arange(dim)
    one_minus_lam_k = one_minus_lam * np.cumsum(np.r_[0.0, lam ** k[:-1]])
    x = mu_u ** k[:, None] * up.r**k
    y = mu_d ** k[:, None] * down.r**k
    coeffs = np.array(_parity_split(x, y, one_minus_lam_k[:, None, None], outer=True))
    return fockspace._shift_sum(rho_in.elements, coeffs) / 4.0


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
    out = _general_branches(rho_in, config.params)[_parity_index(parity)]
    prob = float(np.trace(out).real)
    _require_herald(parity, prob)
    state = DensityMatrix(rho_in.dim, out / prob)
    loss = config.uncorrected_loss if corrected else config.total_loss
    return fockspace.pure_loss_channel(state, 1.0 - loss), prob


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
    loss_out = config.uncorrected_loss if corrected else config.total_loss
    branches = _coherent_branches(
        config.params, _alpha_sq(alpha), config.total_loss, loss_out, dim, outer=True
    )
    rho, p_herald, empty = _error_mix(parity, config.detection_error, *branches)
    if empty[0]:
        raise EmptyBranchError("herald probability vanishes; mixed state undefined")
    return DensityMatrix(dim, rho[0]), float(p_herald[0])


def distilled_state_general(
    rho_in: DensityMatrix,
    config: DistillationConfig,
    parity: str = ODD,
    corrected: bool = False,
) -> tuple[DensityMatrix, float]:
    """Full pipeline for arbitrary inputs; weights are Tr(rho_in rho_branch).

    The weights use the branches at the physical (total) loss, the mixed
    states those at the residual production loss when `corrected`.
    """
    branches = _general_branches(rho_in, config.params)
    probs = np.trace(branches, axis1=1, axis2=2).real
    with np.errstate(divide="ignore", invalid="ignore"):
        states = branches / probs[:, None, None]
    physical = fockspace._loss_map(states, 1.0 - config.total_loss)
    overlaps = np.einsum("ij,pji->p", rho_in.elements, physical).real
    loss_out = config.uncorrected_loss if corrected else config.total_loss
    if loss_out != config.total_loss:
        physical = fockspace._loss_map(states, 1.0 - loss_out)
    rho, p_herald, empty = _error_mix(parity, config.detection_error, probs, overlaps, physical)
    if empty:
        raise EmptyBranchError("herald probability vanishes; mixed state undefined")
    return DensityMatrix(rho_in.dim, rho), float(p_herald)


def distilled_populations(
    config: DistillationConfig,
    alpha_sq,
    corrected: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact populations of the odd-herald `distilled_state` over an alpha^2 array.

    Row k of the first array holds the populations that
    distilled_state(config, sqrt(alpha_sq[k]), corrected=corrected) tends
    to as dim grows, on the levels `_exact_levels` gives for the grid, and
    entry k of the second the herald probability it returns, from one
    closed-form evaluation.  Populations are NaN where the herald is empty.
    """
    loss_out = config.uncorrected_loss if corrected else config.total_loss
    branches = _coherent_branches(config.params, alpha_sq, config.total_loss, loss_out)
    pops, p_up, empty = _error_mix(ODD, config.detection_error, *branches)
    pops[empty] = np.nan
    return pops, p_up


def _coherent_tail(x: np.ndarray) -> np.ndarray:
    """P(n >= 2) = 1 - e^-x (1 + x) of coherent pulses of mean photon number x.

    Below x = 1, where that difference cancels, it is summed over n = 2..23.
    """
    small = np.minimum(x, 1.0)
    terms = fockspace._coherent_amplitudes(np.sqrt(small), 24)[..., 2:] ** 2
    return np.where(x < 1.0, np.exp(-small) * terms.sum(axis=-1), -np.expm1(-x) - x * np.exp(-x))


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
    branches = _coherent_branches(params, alpha_sq, loss, loss_out, n_max)
    pops, _, empty = _error_mix(ODD, epsilon, *branches)
    if np.any(empty):
        at = np.asarray(alpha_sq, dtype=float).reshape(-1)[empty][0]
        raise EmptyBranchError(f"herald probability vanishes at alpha^2 = {at:g}")
    return pops[0] if np.ndim(alpha_sq) == 0 else pops


def sweep_rows(
    config: DistillationConfig,
    alpha_sq_values,
    corrected: bool = True,
) -> np.recarray:
    """Per-alpha^2 summary of the odd-heralded pipeline, one record per alpha^2.

    Populations are exact (`distilled_populations`); zero-probability
    branches are recorded with NaN markers instead of aborting the sweep.
    `suppression` is the absolute 1 - P(n>=2), P(n>=2) summed over n >= 2;
    `suppression_rel` compares P(n>=2) against the input coherent pulse.
    """
    a2 = np.asarray(alpha_sq_values, dtype=float).reshape(-1)
    pops, p_up = distilled_populations(config, a2, corrected=corrected)
    tail = np.sum(pops[:, 2:], axis=1)
    coh_tail = _coherent_tail(a2)
    with np.errstate(divide="ignore", invalid="ignore"):
        suppression_rel = np.where(coh_tail > 0.0, 1.0 - tail / coh_tail, np.nan)
    return np.rec.fromarrays(
        [a2, p_up, pops[:, 1], pops[:, 0], pops[:, 1], pops[:, 2], pops[:, 3], 1.0 - tail,
         suppression_rel, a2 * np.exp(-a2)],
        names="alpha_sq,p_up,f1,p0,p1,p2,p3,suppression,suppression_rel,coherent_ref")
