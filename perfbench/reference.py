"""Independent reference model for checking the program's outputs.

Shares no code with photondistill.  The heralded state is built numerically
from coherent-state vectors in a generous truncation and degraded by an
explicit binomial loss map, instead of the package's closed-form
cross-coefficient algebra, so an error in either route shows as a mismatch.

Rates are in units of 2*pi*MHz, as in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Truncation of reference states: the dropped tail is below 1e-25 for every
# mean photon number the workloads use (alpha^2 <= 2.61).
REF_DIM = 48


@dataclass(frozen=True)
class Cavity:
    g: float
    kappa: float
    kappa_r: float
    kappa_t: float
    kappa_m: float
    gamma: float
    delta_a: float
    delta_c: float


@dataclass(frozen=True)
class Preset:
    cavity: Cavity
    detection_error: float
    production_loss: float
    downstream_loss: float

    @property
    def total_loss(self) -> float:
        return 1.0 - (1.0 - self.production_loss) * (1.0 - self.downstream_loss)


# The published operating points, restated from the paper's parameters.
REFERENCE_CAVITY = Cavity(g=7.8, kappa=2.5, kappa_r=2.3, kappa_t=0.2, kappa_m=0.0,
                          gamma=3.0, delta_a=0.0, delta_c=0.39)
REFERENCE = Preset(REFERENCE_CAVITY, detection_error=0.013,
                   production_loss=0.135, downstream_loss=0.251)
REFERENCE_G2 = Preset(replace(REFERENCE_CAVITY, delta_a=6.0, delta_c=0.0),
                      detection_error=0.013, production_loss=0.135, downstream_loss=0.0)

# HBT detector model of the `g2` command's defaults.
HBT_EFFICIENCY = 0.05
HBT_DARK_PROBABILITY = 20.0 * 3.0 * 2.3e-6  # rate x (3 pulse widths)


def output_modes(cav: Cavity, coupled: bool) -> tuple[complex, np.ndarray]:
    """Reflection amplitude and the (t, m, atom) loss amplitudes per unit input."""
    n = 1.0 if coupled else 0.0
    za = cav.gamma + 1j * cav.delta_a
    zc = cav.kappa + 1j * cav.delta_c
    d = n * cav.g**2 + za * zc
    r = 1.0 - 2.0 * cav.kappa_r * za / d
    loss = np.array([
        2.0 * math.sqrt(cav.kappa_r * cav.kappa_t) * za,
        2.0 * math.sqrt(cav.kappa_r * cav.kappa_m) * za,
        2.0 * math.sqrt(cav.kappa_r * cav.gamma) * math.sqrt(n) * cav.g,
    ]) / d
    return complex(r), loss


def coherent(beta: complex, dim: int) -> np.ndarray:
    """Fock amplitudes of |beta> by the recurrence c_n = c_(n-1) beta / sqrt(n)."""
    v = np.empty(dim, dtype=complex)
    v[0] = math.exp(-abs(beta) ** 2 / 2.0)
    for n in range(1, dim):
        v[n] = v[n - 1] * beta / math.sqrt(n)
    return v


def product_overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> of two multimode coherent states with amplitude vectors a, b."""
    return complex(np.exp(np.sum(np.conj(a) * b - 0.5 * (np.abs(a) ** 2 + np.abs(b) ** 2))))


def parity_branch(cav: Cavity, alpha: float, sign: int, dim: int) -> np.ndarray:
    """Unnormalized reflected state on one herald (sign -1 odd, +1 even).

    The atom in (|u> + |d>)/sqrt(2) turns |alpha> into
    |u>|r_u alpha>|l_u alpha> + |d>|r_d alpha>|l_d alpha>; projecting the
    atom onto (|u> + sign |d>)/sqrt(2) and tracing the loss modes leaves
    this operator, whose trace is the herald probability.
    """
    r_u, l_u = output_modes(cav, True)
    r_d, l_d = output_modes(cav, False)
    vu = coherent(r_u * alpha, dim)
    vd = coherent(r_d * alpha, dim)
    lam = product_overlap(l_d * alpha, l_u * alpha)
    cross = lam * np.outer(vu, vd.conj())
    return (np.outer(vu, vu.conj()) + np.outer(vd, vd.conj())
            + sign * (cross + cross.conj().T)) / 4.0


def lose(rho: np.ndarray, transmission: float) -> np.ndarray:
    """Beam-splitter loss: sum over k lost photons of K_k rho K_k^dagger."""
    if not 0.0 <= transmission <= 1.0:
        raise ValueError("transmission must be in [0, 1]")
    dim = len(rho)
    out = np.zeros_like(rho)
    for k in range(dim):
        b = np.array([
            math.sqrt(math.comb(n, k) * transmission ** (n - k) * (1.0 - transmission) ** k)
            for n in range(k, dim)
        ])
        out[: dim - k, : dim - k] += b[:, None] * rho[k:, k:] * b[None, :]
    return out


def mixed_state(cav: Cavity, eps: float, alpha_sq: float, weight_loss: float,
                out_loss: float, dim: int = REF_DIM) -> tuple[np.ndarray, float]:
    """Odd-heralded state with wrong-state-detection mixing, and P(up).

    The two parity branches are weighted by their overlap with the input
    pulse after `weight_loss`, and reported after `out_loss`.
    """
    alpha = math.sqrt(alpha_sq)
    probe = coherent(alpha, dim)
    mixed = np.zeros((dim, dim), dtype=complex)
    total_weight = 0.0
    p_up = 0.0
    for sign, share in ((-1, 1.0 - eps), (+1, eps)):
        branch = parity_branch(cav, alpha, sign, dim)
        prob = float(np.trace(branch).real)
        p_up += share * prob
        if share == 0.0:
            continue
        at_weight = lose(branch, 1.0 - weight_loss) / prob
        weight = share * float(np.real(probe.conj() @ at_weight @ probe))
        mixed += weight * lose(branch, 1.0 - out_loss) / prob
        total_weight += weight
    return mixed / total_weight, p_up


def heralded(preset: Preset, alpha_sq: float, corrected: bool,
             dim: int = REF_DIM) -> tuple[np.ndarray, float]:
    """State of the `sweep`/`wigner`/`g2` commands at one alpha^2."""
    out_loss = preset.production_loss if corrected else preset.total_loss
    return mixed_state(preset.cavity, preset.detection_error, alpha_sq,
                       preset.total_loss, out_loss, dim)


def fit_populations(cav: Cavity, alpha_sq: float, loss: float, eps: float,
                    corrected_loss: float) -> np.ndarray:
    """p0..p2 reported by an analysis that undoes `corrected_loss`."""
    out_loss = 1.0 - (1.0 - loss) / (1.0 - corrected_loss)
    rho, _ = mixed_state(cav, eps, alpha_sq, loss, out_loss)
    return np.real(np.diag(rho))[:3]


def fit_residual(cav: Cavity, rows: np.ndarray, loss: float, eps: float, delta_c: float,
                 corrected_loss: float) -> float:
    """Sum of squared p0..p2 errors of (loss, eps, delta_c) over observation rows."""
    cav = replace(cav, delta_c=delta_c)
    return float(sum(
        np.sum((fit_populations(cav, row[0], loss, eps, corrected_loss) - row[1:]) ** 2)
        for row in rows
    ))


def truncate(rho: np.ndarray, dim: int) -> np.ndarray:
    """Leading dim x dim block, renormalized to unit trace."""
    block = rho[:dim, :dim]
    return block / np.trace(block).real


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = root @ sigma @ root
    ev = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)


def click_g2(populations: np.ndarray, efficiency: float, dark: float) -> float:
    """Expected HBT click estimator p11 / p1^2 of threshold detectors.

    Each arm is silent with probability (1 - dark)(1 - eta/2)^n; both arms
    with (1 - dark)^2 (1 - eta)^n.
    """
    n = np.arange(len(populations))
    quiet = 1.0 - dark
    one_silent = float(populations @ (1.0 - efficiency / 2.0) ** n)
    both_silent = float(populations @ (1.0 - efficiency) ** n)
    p1 = 1.0 - quiet * one_silent
    p11 = 1.0 - 2.0 * quiet * one_silent + quiet**2 * both_silent
    return p11 / p1**2


def number_g2(populations: np.ndarray) -> float:
    """<n(n-1)> / <n>^2 of a photon-number distribution."""
    n = np.arange(len(populations))
    return float(populations @ (n * (n - 1)) / (populations @ n) ** 2)
