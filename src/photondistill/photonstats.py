"""Photon-counting statistics: analytic g2, Hanbury Brown-Twiss Monte Carlo
across experimental runs with dark counts, pulse envelopes and the
pulse-bandwidth validity check.

The Monte Carlo follows the run-level protocol: one heralded pulse per
trial, split 50:50 onto two threshold detectors, thinned by the detection
efficiency, with Poissonian dark counts added per detector.  g2(tau) is
estimated from coincidences between runs separated by tau repetition
periods, normalized by the product of the singles probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams
from .distillation import DistillationConfig, distilled_populations, distilled_state
from .fockspace import DensityMatrix, number_g2, photon_statistics

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
        if self.dark_count_rate < 0:
            raise ValueError("dark_count_rate must be nonnegative")
        if self.coincidence_window <= 0:
            raise ValueError("coincidence_window must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")

    @property
    def dark_probability(self) -> float:
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


def click_g2(populations, efficiency: float, dark_probability: float) -> np.ndarray:
    """Exact expectation of the HBT click estimator, dark counts included.

    `populations` holds photon-number distributions on its last axis.
    Threshold detectors: P(no click on one arm | n photons) =
    (1 - p_dark) (1 - eta/2)^n, and both arms stay silent with probability
    (1 - p_dark)^2 (1 - eta)^n.  NaN where no arm ever clicks.
    """
    p = np.asarray(populations, dtype=float)
    n = np.arange(p.shape[-1])
    q = 1.0 - dark_probability
    single_silent = p @ (1.0 - efficiency / 2.0) ** n
    both_silent = p @ (1.0 - efficiency) ** n
    p1 = 1.0 - q * single_silent
    p11 = 1.0 - 2.0 * q * single_silent + q * q * both_silent
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p1 > 0.0, p11 / (p1 * p1), np.nan)


def g2_click_level(rho: DensityMatrix, efficiency: float, dark_probability: float) -> float:
    """`click_g2` of one state."""
    return float(click_g2(rho.populations(), efficiency, dark_probability))


def hbt_monte_carlo(
    rho: DensityMatrix,
    cfg: HBTConfig,
    n_offsets: int = 5,
) -> HBTResult:
    """Simulate the run-by-run coincidence measurement of the state.

    Per trial: draw a photon number from the state, split it binomially at
    the 50:50 beam splitter, thin each arm by the detector efficiency and
    add Poissonian dark counts over the coincidence window.  Trials are
    generated in fixed-size blocks with per-block RNG substreams, so the
    result depends only on (seed, trials), not on execution layout.
    """
    probs = np.clip(rho.populations(), 0.0, None)
    probs = probs / probs.sum()
    eta = cfg.detector_efficiency
    p_dark = cfg.dark_probability

    n_blocks = (cfg.trials + MC_BLOCK - 1) // MC_BLOCK
    streams = np.random.SeedSequence(cfg.seed).spawn(n_blocks)
    clicks1 = []
    clicks2 = []
    for block, stream in enumerate(streams):
        size = min(MC_BLOCK, cfg.trials - block * MC_BLOCK)
        rng = np.random.default_rng(stream)
        n = rng.choice(len(probs), size=size, p=probs)
        n1 = rng.binomial(n, 0.5)
        d1 = rng.binomial(n1, eta)
        d2 = rng.binomial(n - n1, eta)
        dark1 = rng.poisson(p_dark, size=size)
        dark2 = rng.poisson(p_dark, size=size)
        clicks1.append((d1 + dark1) > 0)
        clicks2.append((d2 + dark2) > 0)
    c1 = np.concatenate(clicks1)
    c2 = np.concatenate(clicks2)

    n1 = int(np.count_nonzero(c1))
    n2 = int(np.count_nonzero(c2))
    if n1 == 0 or n2 == 0:
        return HBTResult(
            g2_tau=np.full(n_offsets + 1, np.nan),
            g2_zero=float("nan"),
            stderr=float("nan"),
            stderr_tau=np.full(n_offsets + 1, np.nan),
            singles=(n1, n2),
            coincidences=0,
            trials=cfg.trials,
        )
    p1 = n1 / cfg.trials
    p2 = n2 / cfg.trials

    g2 = np.empty(n_offsets + 1)
    se = np.empty(n_offsets + 1)
    coincidences0 = 0
    for tau in range(n_offsets + 1):
        if tau == 0:
            co = int(np.count_nonzero(c1 & c2))
            pairs = cfg.trials
            coincidences0 = co
        else:
            co = int(np.count_nonzero(c1[:-tau] & c2[tau:]))
            pairs = cfg.trials - tau
        p11 = co / pairs
        g2[tau] = p11 / (p1 * p2)
        # delta-method error from the three Poisson-ish counts
        if co > 0:
            se[tau] = g2[tau] * math.sqrt(1.0 / co + 1.0 / n1 + 1.0 / n2)
        else:
            se[tau] = float("nan")
    return HBTResult(
        g2_tau=g2,
        g2_zero=float(g2[0]),
        stderr=float(se[0]),
        stderr_tau=se,
        singles=(n1, n2),
        coincidences=coincidences0,
        trials=cfg.trials,
    )


def g2_curve(
    config: DistillationConfig,
    alpha_sq_grid,
    cfg: HBTConfig,
    dim: int = 20,
    monte_carlo: bool = False,
) -> list[dict]:
    """Expected g2(0) of the odd-heralded light versus input intensity.

    Uses the exact click-level expectation including dark counts,
    evaluated in closed form over the whole grid at once; with
    `monte_carlo` each grid point is additionally estimated by simulation.
    Empty heralds are recorded as NaN rows.
    """
    alpha_sq = np.asarray(alpha_sq_grid, dtype=float).reshape(-1)
    pops, _ = distilled_populations(config, alpha_sq, dim=dim)
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
            rho, _ = distilled_state(config, math.sqrt(alpha_sq[i]), dim=dim)
            mc_cfg = HBTConfig(
                detector_efficiency=cfg.detector_efficiency,
                dark_count_rate=cfg.dark_count_rate,
                coincidence_window=cfg.coincidence_window,
                trials=cfg.trials,
                seed=cfg.seed + int(i),
            )
            result = hbt_monte_carlo(rho, mc_cfg, n_offsets=0)
            rows[i].update(g2_zero=result.g2_zero, stderr=result.stderr)
    return rows


def bandwidth_check(pulse: PulseShape, params: CavityParams) -> dict:
    """Whether the pulse is spectrally narrow compared to the cavity line.

    ratio = spectral FWHM (MHz) / kappa (2*pi*MHz); valid below
    BANDWIDTH_RATIO_LIMIT (conservative).
    """
    ratio = pulse.spectral_fwhm_mhz() / params.kappa
    return {"valid": bool(ratio < BANDWIDTH_RATIO_LIMIT), "ratio": float(ratio)}
