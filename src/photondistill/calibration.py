"""Loss-budget arithmetic and the three-parameter imperfection fit.

The fit adjusts total light loss, the wrong-state-detection fraction and
the cavity detuning so that the modeled Fock populations p0..p2 of the
odd-heralded light match observed populations across input intensities.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .cavity import CavityParams
from .distillation import model_populations
from .errors import InconsistentBudgetError, _require_columns

FIT_BOUNDS = {
    "loss": (0.0, 0.8),
    "epsilon": (0.0, 0.1),
    "delta_c": (-2.0, 2.0),
}
N_RESTARTS = 8


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


def fit_objective(
    theta: np.ndarray,
    observations: np.ndarray,
    params: CavityParams,
    corrected_loss: float,
) -> float:
    """Sum of squared population errors over the observation rows."""
    loss, eps, dc = theta
    loss = float(np.clip(loss, *FIT_BOUNDS["loss"]))
    eps = float(np.clip(eps, *FIT_BOUNDS["epsilon"]))
    dc = float(np.clip(dc, *FIT_BOUNDS["delta_c"]))
    model = model_populations(
        params.replace(delta_c=dc), observations[:, 0], loss, eps,
        corrected_loss=corrected_loss, n_max=3,
    )
    return float(np.sum((model - observations[:, 1:]) ** 2))


def fit_imperfections(
    observations,
    params: CavityParams,
    corrected_loss: float = 0.251,
    restarts: int = N_RESTARTS,
    seed: int = 0,
    max_iter: int = 400,
) -> FitResult:
    """Fit (loss, epsilon, delta_c) to observed populations.

    observations: rows of (alpha_sq, p0, p1, p2), already corrected for the
    downstream loss `corrected_loss` (the model applies the same
    correction).  Derivative-free simplex descent from `restarts` scattered
    starting points inside the bounds; lowest residual wins, ties broken by
    restart index.  The sign of delta_c is not identifiable on a
    symmetric-line model, so the magnitude is reported.
    """
    obs = _as_observation_array(observations)
    rng = np.random.default_rng(seed)
    bounds = [FIT_BOUNDS["loss"], FIT_BOUNDS["epsilon"], FIT_BOUNDS["delta_c"]]
    starts = [np.array([0.3, 0.01, 0.0])]
    for _ in range(max(restarts - 1, 0)):
        starts.append(np.array([rng.uniform(*b) for b in bounds]))

    attempts = []
    for index, x0 in enumerate(starts):
        res = minimize(
            fit_objective,
            x0,
            args=(obs, params, corrected_loss),
            method="Nelder-Mead",
            bounds=bounds,
            options={"maxiter": max_iter, "xatol": 1e-8, "fatol": 1e-14},
        )
        attempts.append((float(res.fun), index, res))
    attempts.sort(key=lambda item: (item[0], item[1]))
    best_fun, _, best = attempts[0]
    loss, eps, dc = best.x
    return FitResult(
        loss=float(np.clip(loss, *FIT_BOUNDS["loss"])),
        epsilon=float(np.clip(eps, *FIT_BOUNDS["epsilon"])),
        delta_c=abs(float(np.clip(dc, *FIT_BOUNDS["delta_c"]))),
        residual=best_fun,
        converged=bool(best.success),
        restarts=[fun for fun, _, _ in sorted(attempts, key=lambda i: i[1])],
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
