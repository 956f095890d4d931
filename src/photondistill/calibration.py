"""Loss-budget arithmetic and the three-parameter imperfection fit.

The fit adjusts total light loss, the wrong-state-detection fraction and
the cavity detuning so that the modeled Fock populations p0..p2 of the
odd-heralded light match observed populations across input intensities.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityParams
from .distillation import model_populations
from .errors import InconsistentBudgetError, _require_columns

# With the atom on resonance (delta_a = 0) the model is even in delta_c, so
# its sign is not identifiable and the fit is stated over delta_c >= 0; a
# detuned atom breaks that symmetry and the fit then spans [-2, 2]
FIT_BOUNDS = {
    "loss": (0.0, 0.8),
    "epsilon": (0.0, 0.1),
    "delta_c": (0.0, 2.0),
}
N_RESTARTS = 8
# Restarts within this relative distance of the lowest residual reached one
# optimum: the first of them wins, so model rounding cannot pick the result
FIT_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class LossBudget:
    """Labeled list of independent fractional loss channels."""

    items: tuple

    def __post_init__(self):
        items = tuple((str(label), float(loss)) for label, loss in self.items)
        for label, loss in items:
            if not 0.0 <= loss < 1.0:
                raise ValueError(f"loss {label!r} = {loss} outside [0, 1)")
        object.__setattr__(self, "items", items)

    @classmethod
    def from_csv(cls, path) -> "LossBudget":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                return cls(())
            _require_columns(path, reader.fieldnames, ("label", "loss"))
            return cls(tuple((row["label"], float(row["loss"])) for row in reader))


@dataclass
class FitResult:
    loss: float
    epsilon: float
    delta_c: float
    residual: float
    converged: bool = True
    restarts: list = field(default_factory=list)
    stderr: dict = field(default_factory=dict)


def combine_losses(budget: LossBudget) -> float:
    """Total loss of independent channels: 1 - prod(1 - L_i)."""
    total = 1.0
    for _, loss in budget.items:
        total *= 1.0 - loss
    return 1.0 - total


def residual_loss(total: float, corrected: float) -> float:
    """Loss remaining after a known part is corrected for.

    1 - (1 - L_total)/(1 - L_corrected); an inconsistent budget
    (total smaller than the corrected part) raises.
    """
    if not 0.0 <= corrected < 1.0:
        raise ValueError("corrected loss must be in [0, 1)")
    if not 0.0 <= total <= 1.0:
        raise ValueError("total loss must be in [0, 1]")
    value = 1.0 - (1.0 - total) / (1.0 - corrected)
    if value < -1e-12:
        raise InconsistentBudgetError(
            f"total loss {total} is smaller than the corrected part {corrected}"
        )
    return max(value, 0.0)


def _as_observation_array(observations) -> np.ndarray:
    arr = np.asarray(observations, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError("observations must be rows of (alpha_sq, p0, p1, p2)")
    if len(np.unique(arr[:, 0])) < 4:
        raise ValueError("need at least 4 rows with distinct alpha_sq")
    return arr


def read_observations_csv(path) -> np.ndarray:
    columns = ("alpha_sq", "p0", "p1", "p2")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require_columns(path, reader.fieldnames, columns)
        rows = [tuple(float(r[name]) for name in columns) for r in reader]
    return _as_observation_array(rows)


def fit_residuals(
    theta: np.ndarray,
    observations: np.ndarray,
    params: CavityParams,
    corrected_loss: float,
) -> np.ndarray:
    """Modeled minus observed p0..p2, flattened row by row."""
    loss, eps, dc = theta
    model = model_populations(
        params.replace(delta_c=dc), observations[:, 0], loss, eps,
        corrected_loss=corrected_loss, n_max=3,
    )
    return (model - observations[:, 1:]).ravel()


def _standard_errors(fit) -> dict:
    """sqrt(diag(s^2 (J^T J)^-1)) over the parameters off their bounds.

    s^2 = sum(r^2)/(m - 3).  A parameter on an active bound, or one whose
    variance is not a finite nonnegative number, reports None.
    """
    free = fit.active_mask == 0
    jac = fit.jac[:, free]
    s2 = 2.0 * fit.cost / (fit.fun.size - fit.x.size)
    errors = np.full(fit.x.size, np.nan)
    try:
        var = s2 * np.diag(np.linalg.inv(jac.T @ jac))
        errors[free] = np.sqrt(np.where(var >= 0.0, var, np.nan))
    except np.linalg.LinAlgError:
        pass
    return {name: float(e) if np.isfinite(e) else None for name, e in zip(FIT_BOUNDS, errors)}


def fit_imperfections(
    observations,
    params: CavityParams,
    corrected_loss: float = 0.251,
    restarts: int = N_RESTARTS,
    seed: int = 0,
) -> FitResult:
    """Fit (loss, epsilon, delta_c) to observed populations.

    observations: rows of (alpha_sq, p0, p1, p2), already corrected for the
    downstream loss `corrected_loss` (the model applies the same
    correction).  Bounded trust-region least squares (TRF) on the
    `fit_residuals` vector from `restarts` starting points inside
    `FIT_BOUNDS` (delta_c of either sign when the atom is detuned);
    the lowest-index restart within FIT_TIE_RTOL of the lowest residual wins.
    `stderr` holds each parameter's standard error at the winning optimum.
    """
    from scipy.optimize import least_squares

    obs = _as_observation_array(observations)
    rng = np.random.default_rng(seed)
    lower, upper = np.array(list(FIT_BOUNDS.values())).T
    if params.delta_a != 0.0:
        lower[2] = -upper[2]
    starts = [np.array([0.3, 0.01, 0.0])]
    for _ in range(max(restarts - 1, 0)):
        starts.append(np.array([rng.uniform(lo, hi) for lo, hi in zip(lower, upper)]))

    # TRF scales the gradient by the distance to the bound, so the default
    # gtol (1e-8) stops ~1e-5 short of a parameter whose optimum is on it
    runs = [least_squares(fit_residuals, x0, bounds=(lower, upper), method="trf",
                          gtol=1e-12, args=(obs, params, corrected_loss)) for x0 in starts]
    residuals = [2.0 * float(res.cost) for res in runs]
    tie = min(residuals) * (1.0 + FIT_TIE_RTOL)
    winner = next(i for i, value in enumerate(residuals) if value <= tie)
    best = runs[winner]
    loss, eps, dc = best.x
    return FitResult(
        loss=float(loss),
        epsilon=float(eps),
        delta_c=float(dc),
        residual=residuals[winner],
        converged=bool(best.success),
        restarts=residuals,
        stderr=_standard_errors(best),
    )


def synthetic_observations(
    params: CavityParams,
    truth: tuple[float, float, float],
    alpha_sq_values,
    corrected_loss: float = 0.251,
    noise: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Forward-model observation rows at the given truth parameters."""
    loss, eps, dc = truth
    alpha_sq = np.asarray(alpha_sq_values, dtype=float).reshape(-1)
    p = model_populations(
        params.replace(delta_c=dc), alpha_sq, loss, eps,
        corrected_loss=corrected_loss, n_max=3,
    )
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        p = np.clip(p + rng.normal(scale=noise, size=p.shape) * p, 0.0, 1.0)
    return np.column_stack([alpha_sq, p])
