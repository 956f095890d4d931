"""Cavity-QED rates and steady-state input-output branch amplitudes.

All rates and detunings are in units of 2*pi*MHz.  The atom either couples
(N=1, state "up") or does not couple (N=0, state "down") to the cavity mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

RATE_SUM_TOL = 1e-9

CONFIG_KEYS = ("g", "kappa", "kappa_r", "kappa_t", "kappa_m", "gamma", "delta_a", "delta_c")


@dataclass(frozen=True)
class CavityParams:
    """Rate set of the atom-cavity system (2*pi*MHz).

    kappa is the total cavity field decay and must equal the sum of the
    mirror channels kappa_r (in/out coupler), kappa_t (transmission) and
    kappa_m (mirror scattering).
    """

    g: float
    kappa: float
    kappa_r: float
    kappa_t: float
    kappa_m: float
    gamma: float
    delta_a: float = 0.0
    delta_c: float = 0.0

    def __post_init__(self):
        for name in CONFIG_KEYS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value < 0 and name not in ("delta_a", "delta_c"):
                raise ValueError(f"{name} must be nonnegative")
        channel_sum = self.kappa_r + self.kappa_t + self.kappa_m
        if abs(self.kappa - channel_sum) > RATE_SUM_TOL:
            raise ValueError(
                f"kappa = {self.kappa} does not match kappa_r+kappa_t+kappa_m = {channel_sum}"
            )
        if self.kappa_r > self.kappa + RATE_SUM_TOL:
            raise ValueError("kappa_r cannot exceed kappa")

    @classmethod
    def from_decays(cls, g, kappa_r, kappa_t, kappa_m, gamma, delta_a=0.0, delta_c=0.0):
        """Construct with kappa derived from the per-channel decays."""
        return cls(
            g=g,
            kappa=kappa_r + kappa_t + kappa_m,
            kappa_r=kappa_r,
            kappa_t=kappa_t,
            kappa_m=kappa_m,
            gamma=gamma,
            delta_a=delta_a,
            delta_c=delta_c,
        )

    def replace(self, **kwargs) -> "CavityParams":
        from dataclasses import replace as _replace

        return _replace(self, **kwargs)

    def to_config_text(self) -> str:
        lines = [f"{key} = {getattr(self, key)!r}" for key in CONFIG_KEYS]
        return "\n".join(lines) + "\n"

    def save(self, path):
        Path(path).write_text(self.to_config_text())

    @classmethod
    def from_config(cls, mapping: dict) -> "CavityParams":
        missing = [k for k in CONFIG_KEYS if k not in mapping]
        if missing:
            raise ValueError(f"config missing keys: {', '.join(missing)}")
        return cls(**{k: float(mapping[k]) for k in CONFIG_KEYS})

    @classmethod
    def load(cls, path) -> "CavityParams":
        return cls.from_config(read_config_file(path))


@dataclass(frozen=True)
class BranchAmplitudes:
    """Coherent amplitudes of the four output modes for one atomic branch.

    r: reflection, t: transmission, m: mirror scattering, a: atom scattering,
    for input amplitude alpha and coupling flag `coupled` (N = 1 or 0).
    """

    r: complex
    t: complex
    m: complex
    a: complex
    alpha: complex
    coupled: bool

    @property
    def total_power(self) -> float:
        return abs(self.r) ** 2 + abs(self.t) ** 2 + abs(self.m) ** 2 + abs(self.a) ** 2

    def loss_vector(self) -> np.ndarray:
        """Amplitudes of the three loss modes (t, m, a)."""
        return np.array([self.t, self.m, self.a], dtype=complex)


def read_config_file(path) -> dict:
    """Parse a flat `key = value` config file; '#' starts a comment."""
    values: dict[str, float] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, _, val = line.partition("=")
        try:
            values[key.strip()] = float(val.strip())
        except ValueError as exc:
            raise ValueError(f"malformed config value in line {raw!r}") from exc
    return values


def branch_amplitudes(params: CavityParams, coupled: bool, alpha: complex = 1.0) -> BranchAmplitudes:
    """Steady-state output amplitudes for a coherent drive of amplitude alpha.

    The linear input-output map sends the input into reflection,
    transmission, mirror-scattering and atom-scattering modes; the four
    moduli squared always sum to |alpha|^2.
    """
    N = 1 if coupled else 0
    za = 1j * params.delta_a + params.gamma
    zc = 1j * params.delta_c + params.kappa
    denom = N * params.g**2 + zc * za
    r = (N * params.g**2 + (zc - 2 * params.kappa_r) * za) / denom * alpha
    t = 2 * np.sqrt(params.kappa_r * params.kappa_t) * za / denom * alpha
    m = 2 * np.sqrt(params.kappa_r * params.kappa_m) * za / denom * alpha
    a = 2 * np.sqrt(params.kappa_r * params.gamma) * np.sqrt(N) * params.g / denom * alpha
    return BranchAmplitudes(r=complex(r), t=complex(t), m=complex(m), a=complex(a),
                            alpha=complex(alpha), coupled=coupled)


def cooperativity(params: CavityParams) -> float:
    """C = g^2 / (2 kappa gamma)."""
    if params.kappa <= 0 or params.gamma <= 0:
        raise ValueError("kappa and gamma must be positive")
    return params.g**2 / (2.0 * params.kappa * params.gamma)


def xi(params: CavityParams) -> float:
    """Reflection/coherence retention factor (kappa_r/kappa) * 2C/(2C+1).

    Equals (kappa_r/kappa) * g^2/(g^2 + kappa*gamma); bounded by [0, 1].
    """
    if params.kappa <= 0 or params.gamma <= 0:
        raise ValueError("kappa and gamma must be positive")
    g2 = params.g**2
    return (params.kappa_r / params.kappa) * g2 / (g2 + params.kappa * params.gamma)


def f1_max(params: CavityParams) -> float:
    """Upper bound on the single-photon fidelity of the reflected light."""
    return xi(params)


def fiber_params(
    length_m: float,
    parasitic_loss_per_mirror_ppm: float,
    outcoupler_transmission_ppm: float,
    g: float,
    gamma: float,
) -> CavityParams:
    """Cavity rates from fiber-resonator geometry and mirror loss figures.

    Each fractional round-trip loss l maps to a field decay
    kappa_i = c*l/(4*L); parasitic losses act on both mirrors, the
    out-coupler transmission feeds kappa_r, and kappa_t = 0.
    """
    if length_m <= 0:
        raise ValueError("cavity length must be positive")
    if parasitic_loss_per_mirror_ppm < 0 or outcoupler_transmission_ppm < 0:
        raise ValueError("loss figures must be nonnegative")

    def decay(loss_fraction):
        rad_per_s = SPEED_OF_LIGHT * loss_fraction / (4.0 * length_m)
        return rad_per_s / (2e6 * np.pi)  # to 2*pi*MHz

    kappa_r = decay(outcoupler_transmission_ppm * 1e-6)
    kappa_m = decay(2.0 * parasitic_loss_per_mirror_ppm * 1e-6)
    return CavityParams.from_decays(g=g, kappa_r=kappa_r, kappa_t=0.0, kappa_m=kappa_m, gamma=gamma)
