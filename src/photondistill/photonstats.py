"""Photon-counting statistics: the exact click-level g2, Hanbury Brown-Twiss
Monte Carlo across experimental runs with dark counts, and the
pulse-bandwidth validity check.

The Monte Carlo follows the run-level protocol: one heralded pulse per
trial, split 50:50 onto two threshold detectors, thinned by the detection
efficiency, and each detector fires a dark click with probability
p_dark = dark rate x coincidence window.  Only the two click booleans of a
trial enter the estimator, so each trial is one draw from their joint
distribution, which `click_g2` evaluates in closed form too.  g2(tau) is
estimated from coincidences between runs separated by tau repetition
periods, normalized by the product of the singles probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams
from .distillation import DistillationConfig, distilled_populations
from .fockspace import DensityMatrix, number_g2

# pulses narrower than this fraction of the cavity linewidth pass the check
BANDWIDTH_RATIO_LIMIT = 0.1

# dark-count integration window, in units of the pulse width
DARK_WINDOW_WIDTHS = 3.0

MC_BLOCK = 1 << 20  # trials per RNG substream; fixed for reproducibility


@dataclass(frozen=True)
class HBTConfig:
    """Detector model for the coincidence measurement."""

    detector_efficiency: float = 0.05
    dark_count_rate: float = 20.0
    coincidence_window: float = DARK_WINDOW_WIDTHS * 2.3e-6
    trials: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must be in [0, 1]")
        if not (math.isfinite(self.dark_count_rate) and self.dark_count_rate >= 0):
            raise ValueError("dark_count_rate must be finite and nonnegative")
        if not (math.isfinite(self.coincidence_window) and self.coincidence_window > 0):
            raise ValueError("coincidence_window must be finite and positive")
        if self.dark_probability > 1.0:
            raise ValueError("dark_probability = dark_count_rate x coincidence_window "
                             f"must be <= 1, got {self.dark_probability:g}")
        if self.trials < 1:
            raise ValueError("trials must be positive")

    @property
    def dark_probability(self) -> float:
        """Probability that one detector fires a dark click in the window."""
        return self.dark_count_rate * self.coincidence_window


@dataclass
class HBTResult:
    g2_tau: np.ndarray
    g2_zero: float
    stderr: float
    stderr_tau: np.ndarray
    singles: tuple[int, int]
    coincidences: int
    trials: int


def _split_weights(dim: int) -> np.ndarray:
    """w[n, k] = C(n, k) / 2^n: n photons leave k in arm 1 at the 50:50 splitter.

    Pascal's rule on the halves, w[n, k] = (w[n-1, k-1] + w[n-1, k]) / 2,
    keeps every entry a probability where C(n, k) itself overflows (n > 1,029).
    """
    w = np.zeros((dim, dim + 1))  # w[n, k] in column k + 1; column 0 is k = -1
    w[0, 1] = 1.0
    for n in range(1, dim):
        w[n, 1:] = 0.5 * (w[n - 1, :-1] + w[n - 1, 1:])
    return w[:, 1:]


def _click_outcomes(populations, efficiency: float, dark_probability: float) -> np.ndarray:
    """Joint click distribution of the two HBT arms, dark clicks included.

    `populations` holds photon-number distributions on its last axis; the
    result has (both silent, arm 1 alone, both click) on its last axis, and
    arm 2 alone is as likely as arm 1 alone.  An arm holding k photons
    stays silent with probability s_k = (1 - p_dark)(1 - eta)^k and clicks
    with x_k = -expm1(log s_k).  Every outcome is a sum of nonnegative terms
    over the binomial split, so a rare coincidence keeps full relative
    precision instead of being a difference of O(1) numbers.
    """
    p = np.asarray(populations, dtype=float)
    dim = p.shape[-1]
    k = np.arange(dim)
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) at eta or p_dark = 1
        log_silent = np.log1p(-dark_probability) + np.where(
            k > 0, k * np.log1p(-efficiency), 0.0)
    silent = np.exp(log_silent)
    click = -np.expm1(log_silent)
    w = _split_weights(dim)
    rest = np.abs(k[:, None] - k)  # photons in arm 2 wherever w[n, k] > 0
    given_n = np.stack([
        (w * silent * silent[rest]).sum(axis=1),
        (w * click * silent[rest]).sum(axis=1),
        (w * click * click[rest]).sum(axis=1),
    ], axis=-1)
    return p @ given_n


def click_g2(populations, efficiency: float, dark_probability: float) -> np.ndarray:
    """Exact expectation of the HBT click estimator, dark clicks included.

    `populations` holds photon-number distributions on its last axis.
    g2 = P(both click) / P(one arm clicks)^2 over `_click_outcomes`, the
    distribution `hbt_monte_carlo` samples.  NaN where no arm ever clicks.
    """
    outcomes = _click_outcomes(populations, efficiency, dark_probability)
    both = outcomes[..., 2]
    p1 = outcomes[..., 1] + both
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p1 > 0.0, both / (p1 * p1), np.nan)


def _click_blocks(outcomes, trials: int, seed: int):
    """Click booleans of both arms for `trials` runs, one uniform per run.

    `outcomes` is one row of `_click_outcomes`.  The unit interval is cut
    into [arm 1 alone | both | arm 2 alone | silent], so arm 1 clicks below
    the second cut and arm 2 between the first and the third.  Trials come
    in blocks of MC_BLOCK with one RNG substream each, yielded as (arm 1,
    arm 2) pairs, so the clicks depend only on (seed, trials), and a longer
    run extends a shorter one.
    """
    silent, alone, both = outcomes
    cut1, cut2, cut3 = np.cumsum([alone, both, alone]) / (silent + 2.0 * alone + both)
    streams = np.random.SeedSequence(seed).spawn((trials + MC_BLOCK - 1) // MC_BLOCK)
    for block, stream in enumerate(streams):
        u = np.random.default_rng(stream).random(min(MC_BLOCK, trials - block * MC_BLOCK))
        clicks = u < cut2, (u >= cut1) & (u < cut3)
        del u  # else the next block's uniforms are drawn while these are held
        yield clicks


def _count_clicks(outcomes, trials: int, seed: int, n_offsets: int):
    """Singles of both arms and coincidences of arm 1 of run i with arm 2 of
    run i + tau, tau = 0 .. n_offsets, over the runs of `_click_blocks`.

    Counted block by block: the last n_offsets arm-1 clicks carry across
    each block edge, so memory does not grow with `trials`.
    """
    singles = np.zeros(2, dtype=np.int64)
    counts = np.zeros(n_offsets + 1, dtype=np.int64)
    carry = np.zeros(0, dtype=bool)  # arm 1 of the runs just before the block
    for arm1, arm2 in _click_blocks(outcomes, trials, seed):
        singles += np.count_nonzero(arm1), np.count_nonzero(arm2)
        size, before = len(arm2), len(carry)
        arm1 = np.concatenate([carry, arm1])  # run i of the block at before + i
        for tau in range(n_offsets + 1):
            first = max(tau - before, 0)  # first arm-2 run with a partner
            if first < size:
                counts[tau] += np.count_nonzero(
                    arm1[before + first - tau:before + size - tau] & arm2[first:])
        carry = arm1[max(len(arm1) - n_offsets, 0):].copy()
    return singles, counts


def _g2_estimate(coincidences, pairs, n1, n2, trials: int):
    """g2 = (coincidences / pairs) / ((n1 / trials)(n2 / trials)) and its error.

    The error is the delta-method one from the three Poisson-ish counts.
    With NumPy counts, an arm that never clicked makes g2 and the error NaN,
    not an exception.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        g2 = coincidences / pairs / (n1 / trials * (n2 / trials))
        se = np.where(coincidences > 0,
                      g2 * np.sqrt(1.0 / coincidences + 1.0 / n1 + 1.0 / n2), np.nan)
    return g2, se


def hbt_monte_carlo(
    rho: DensityMatrix,
    cfg: HBTConfig,
    n_offsets: int = 5,
) -> HBTResult:
    """Simulate the run-by-run coincidence measurement of the state.

    Per trial: one draw of the two click booleans from their joint
    distribution (`_click_outcomes`: binomial 50:50 split, efficiency
    thinning and a dark click per detector), so the estimator's expectation
    is `click_g2`.  g2(tau) pairs arm 1 of run i with arm 2 of run i + tau,
    for tau = 0 .. n_offsets.
    """
    if not 0 <= n_offsets < cfg.trials:
        raise ValueError(f"n_offsets must be in [0, trials), got {n_offsets} "
                         f"for {cfg.trials} trials")
    outcomes = _click_outcomes(np.clip(rho.populations(), 0.0, None), cfg.detector_efficiency,
                               cfg.dark_probability)
    (n1, n2), counts = _count_clicks(outcomes, cfg.trials, cfg.seed, n_offsets)
    g2, se = _g2_estimate(counts, cfg.trials - np.arange(n_offsets + 1), n1, n2, cfg.trials)
    return HBTResult(
        g2_tau=g2,
        g2_zero=float(g2[0]),
        stderr=float(se[0]),
        stderr_tau=se,
        singles=(int(n1), int(n2)),
        coincidences=int(counts[0]),
        trials=cfg.trials,
    )


def g2_curve(
    config: DistillationConfig,
    alpha_sq_grid,
    cfg: HBTConfig,
    monte_carlo: bool = False,
) -> np.recarray:
    """Expected g2(0) of the odd-heralded light versus input intensity, one record per alpha^2.

    Uses the exact click-level expectation including dark counts on the
    exact populations (`distilled_populations`), over the whole grid at
    once.  With `monte_carlo`, g2_zero and stderr are estimated from
    cfg.trials simulated runs per row instead: at tau = 0 only the counts
    of (both click, arm 1 alone, arm 2 alone, silent) matter, and every
    nonempty row draws them in one multinomial call seeded with cfg.seed.
    Empty heralds are recorded as NaN rows.
    """
    alpha_sq = np.asarray(alpha_sq_grid, dtype=float).reshape(-1)
    pops, _ = distilled_populations(config, alpha_sq)
    nonempty = ~np.isnan(pops[:, 0])
    g2_zero = click_g2(pops, cfg.detector_efficiency, cfg.dark_probability)
    stderr = np.where(nonempty, 0.0, np.nan)
    if monte_carlo:
        outcomes = _click_outcomes(np.clip(pops[nonempty], 0.0, None), cfg.detector_efficiency,
                                   cfg.dark_probability)
        pvals = outcomes[:, [2, 1, 1, 0]]  # both, arm 1 alone, arm 2 alone, silent
        counts = np.random.default_rng(cfg.seed).multinomial(
            cfg.trials, pvals / pvals.sum(axis=1, keepdims=True))
        both = counts[:, 0]
        g2_zero[nonempty], stderr[nonempty] = _g2_estimate(
            both, cfg.trials, both + counts[:, 1], both + counts[:, 2], cfg.trials)
    return np.rec.fromarrays([alpha_sq, g2_zero, stderr, number_g2(pops)],
                             names="alpha_sq,g2_zero,stderr,g2_state")


def bandwidth_check(kind: str, width: float, params: CavityParams) -> dict:
    """Whether a pulse is spectrally narrow compared to the cavity line.

    width (s) is the FWHM of a gaussian or double_peak pulse and the full
    duration of a rectangular one.  ratio = Fourier-limited spectral
    intensity FWHM (MHz) / kappa (2*pi*MHz); valid below
    BANDWIDTH_RATIO_LIMIT (conservative).
    """
    if not width > 0:
        raise ValueError(f"pulse width must be positive, got {width!r}")
    if kind == "rectangular":
        # sinc^2 power spectrum main lobe
        fwhm_mhz = 0.886 / width / 1e6
    elif kind in ("gaussian", "double_peak"):
        # gaussian time-bandwidth product; double peak bounded by its sub-pulse
        fwhm_mhz = 2.0 * math.log(2.0) / (math.pi * width) / 1e6
    else:
        raise ValueError(f"unknown pulse kind {kind!r}")
    ratio = fwhm_mhz / params.kappa
    return {"valid": bool(ratio < BANDWIDTH_RATIO_LIMIT), "ratio": float(ratio)}
