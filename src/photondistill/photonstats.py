"""Photon-counting statistics: analytic g2, Hanbury Brown-Twiss Monte Carlo
across experimental runs with dark counts, pulse envelopes and the
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
from .fockspace import DensityMatrix, _binomials, number_g2, photon_statistics

GAUSSIAN = "gaussian"
DOUBLE_PEAK = "double_peak"
RECTANGULAR = "rectangular"

# pulses narrower than this fraction of the cavity linewidth pass the check
BANDWIDTH_RATIO_LIMIT = 0.1

# dark-count integration window, in units of the pulse width
DARK_WINDOW_WIDTHS = 3.0

MC_BLOCK = 1 << 20  # trials per RNG substream; fixed for reproducibility


@dataclass(frozen=True)
class PulseShape:
    """Temporal intensity envelope of the input pulse.

    fwhm_or_duration is the FWHM for gaussian/double_peak and the full
    duration for rectangular pulses, in seconds.  The intensity envelope
    integrates to the mean photon number.
    """

    kind: str
    fwhm_or_duration: float
    mean_photon_number: float
    repetition_rate: float = 500.0

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, DOUBLE_PEAK, RECTANGULAR):
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        if self.fwhm_or_duration <= 0:
            raise ValueError("pulse width must be positive")
        if self.mean_photon_number < 0:
            raise ValueError("mean photon number must be nonnegative")
        if self.repetition_rate <= 0:
            raise ValueError("repetition rate must be positive")

    def intensity(self, t) -> np.ndarray:
        """Intensity envelope at times t (s); integrates to alpha^2."""
        t = np.asarray(t, dtype=float)
        w = self.fwhm_or_duration
        n = self.mean_photon_number
        if self.kind == GAUSSIAN:
            sigma = w / (2.0 * math.sqrt(2.0 * math.log(2.0)))
            return n * np.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        if self.kind == DOUBLE_PEAK:
            # two equal sub-pulses of the stated FWHM, one pulse width apart
            sigma = w / (2.0 * math.sqrt(2.0 * math.log(2.0)))
            half = 0.5 * n / (sigma * math.sqrt(2 * math.pi))
            return half * (
                np.exp(-0.5 * ((t - w) / sigma) ** 2) + np.exp(-0.5 * ((t + w) / sigma) ** 2)
            )
        return np.where(np.abs(t) <= w / 2.0, n / w, 0.0)

    def dark_window(self) -> float:
        """Coincidence-gate duration used for dark-count integration."""
        return DARK_WINDOW_WIDTHS * self.fwhm_or_duration

    def spectral_fwhm_mhz(self) -> float:
        """Fourier-limited spectral intensity FWHM of the envelope, in MHz."""
        if self.kind == RECTANGULAR:
            # sinc^2 power spectrum main lobe
            return 0.886 / self.fwhm_or_duration / 1e6
        # gaussian time-bandwidth product; double peak bounded by its sub-pulse
        return 2.0 * math.log(2.0) / (math.pi * self.fwhm_or_duration) / 1e6


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


def g2_analytic(rho: DensityMatrix) -> float | None:
    """g2(0) = <n(n-1)>/<n>^2 from the photon-number distribution."""
    return photon_statistics(rho).g2_zero


def _split_weights(dim: int) -> np.ndarray:
    """w[n, k] = C(n, k) / 2^n: n photons leave k in arm 1 at the 50:50 splitter."""
    return _binomials(dim) * 0.5 ** np.arange(dim)[:, None]


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


def g2_click_level(rho: DensityMatrix, efficiency: float, dark_probability: float) -> float:
    """`click_g2` of one state."""
    return float(click_g2(rho.populations(), efficiency, dark_probability))


def _sample_clicks(outcomes, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Click booleans of both arms for `trials` runs, one uniform per run.

    `outcomes` is one row of `_click_outcomes`.  The unit interval is cut
    into [arm 1 alone | both | arm 2 alone | silent], so arm 1 clicks below
    the second cut and arm 2 between the first and the third.  Trials come
    in blocks of MC_BLOCK with one RNG substream each, so the clicks depend
    only on (seed, trials), and a longer run extends a shorter one.
    """
    silent, alone, both = outcomes
    cut1, cut2, cut3 = np.cumsum([alone, both, alone]) / (silent + 2.0 * alone + both)
    c1 = np.empty(trials, dtype=bool)
    c2 = np.empty(trials, dtype=bool)
    streams = np.random.SeedSequence(seed).spawn((trials + MC_BLOCK - 1) // MC_BLOCK)
    for block, stream in enumerate(streams):
        start = block * MC_BLOCK
        u = np.random.default_rng(stream).random(min(MC_BLOCK, trials - start))
        arm1 = c1[start:start + len(u)]
        arm2 = c2[start:start + len(u)]
        np.less(u, cut2, out=arm1)
        np.greater_equal(u, cut1, out=arm2)
        arm2 &= u < cut3
    return c1, c2


def _hbt_estimate(populations, cfg: HBTConfig, seed: int, n_offsets: int) -> HBTResult:
    """g2(tau), tau = 0 .. n_offsets, from cfg.trials runs of `populations` drawn with `seed`."""
    outcomes = _click_outcomes(np.clip(populations, 0.0, None), cfg.detector_efficiency,
                               cfg.dark_probability)
    c1, c2 = _sample_clicks(outcomes, cfg.trials, seed)

    # NumPy counts: an arm that never clicked makes g2 and se NaN, not an exception
    n1, n2 = np.array([np.count_nonzero(c1), np.count_nonzero(c2)])
    pairs = cfg.trials - np.arange(n_offsets + 1)
    counts = np.array([np.count_nonzero(c1[:cfg.trials - tau] & c2[tau:])
                       for tau in range(n_offsets + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        g2 = counts / pairs / (n1 / cfg.trials * (n2 / cfg.trials))
        # delta-method error from the three Poisson-ish counts
        se = np.where(counts > 0, g2 * np.sqrt(1.0 / counts + 1.0 / n1 + 1.0 / n2), np.nan)
    return HBTResult(
        g2_tau=g2,
        g2_zero=float(g2[0]),
        stderr=float(se[0]),
        stderr_tau=se,
        singles=(int(n1), int(n2)),
        coincidences=int(counts[0]),
        trials=cfg.trials,
    )


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
    return _hbt_estimate(rho.populations(), cfg, cfg.seed, n_offsets)


def g2_curve(
    config: DistillationConfig,
    alpha_sq_grid,
    cfg: HBTConfig,
    monte_carlo: bool = False,
) -> list[dict]:
    """Expected g2(0) of the odd-heralded light versus input intensity.

    Uses the exact click-level expectation including dark counts on the
    exact populations (`distilled_populations`), over the whole grid at
    once; with `monte_carlo` row i is additionally estimated by simulating
    cfg.trials runs of its populations with seed cfg.seed + i.  Empty
    heralds are recorded as NaN rows.
    """
    alpha_sq = np.asarray(alpha_sq_grid, dtype=float).reshape(-1)
    pops, _ = distilled_populations(config, alpha_sq)
    empty = np.isnan(pops[:, 0])
    columns = {
        "alpha_sq": alpha_sq,
        "g2_zero": click_g2(pops, cfg.detector_efficiency, cfg.dark_probability),
        "stderr": np.where(empty, np.nan, 0.0),
        "g2_state": number_g2(pops),
    }
    names = list(columns)
    rows = [dict(zip(names, row)) for row in zip(*(col.tolist() for col in columns.values()))]
    if monte_carlo:
        for i in np.flatnonzero(~empty):
            result = _hbt_estimate(pops[i], cfg, cfg.seed + int(i), 0)
            rows[i].update(g2_zero=result.g2_zero, stderr=result.stderr)
    return rows


def bandwidth_check(pulse: PulseShape, params: CavityParams) -> dict:
    """Whether the pulse is spectrally narrow compared to the cavity line.

    ratio = spectral FWHM (MHz) / kappa (2*pi*MHz); valid below
    BANDWIDTH_RATIO_LIMIT (conservative).
    """
    ratio = pulse.spectral_fwhm_mhz() / params.kappa
    return {"valid": bool(ratio < BANDWIDTH_RATIO_LIMIT), "ratio": float(ratio)}
