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
OBSERVATION_COLUMNS = ("alpha_sq", "p0", "p1", "p2")
# Restarts within this relative distance of the lowest residual reached one
# optimum: the first of them wins, so model rounding cannot pick the result
FIT_TIE_RTOL = 1e-9
# Levenberg-Marquardt stops once a step changes the cost by less than LM_FTOL
# relative, or once no step lowers it at all (damping past LM_MAX_DAMPING)
LM_FTOL = 1e-13
LM_MAX_DAMPING = 1e16
LM_MAX_STEPS = 1000


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


@dataclass(frozen=True)
class LeastSquaresResult:
    """A box-bounded least-squares optimum.

    cost = fun @ fun / 2 at x, jac = d fun / d x there, active_mask is -1 or
    +1 where x sits on its lower or upper bound and 0 elsewhere.
    """

    x: np.ndarray
    cost: float
    fun: np.ndarray
    jac: np.ndarray
    active_mask: np.ndarray
    success: bool


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


def _as_observation_array(observations, where=None) -> np.ndarray:
    """Observation rows as an array, every cell finite and p0..p2 in [0, 1].

    where[i] names row i in an error message (default "row i").
    """
    arr = np.asarray(observations, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError("observations must be rows of (alpha_sq, p0, p1, p2)")
    bad = ~np.isfinite(arr)
    bad[:, 1:] |= ~((arr[:, 1:] >= 0.0) & (arr[:, 1:] <= 1.0))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        rule = "finite" if col == 0 else "a probability in [0, 1]"
        raise ValueError(f"{f'row {row}' if where is None else where[row]}: "
                         f"column {OBSERVATION_COLUMNS[col]} = {float(arr[row, col])!r} "
                         f"must be {rule}")
    if len(np.unique(arr[:, 0])) < 4:
        raise ValueError("need at least 4 rows with distinct alpha_sq")
    return arr


def read_observations_csv(path) -> np.ndarray:
    """Observation rows from a CSV with alpha_sq,p0,p1,p2 columns.

    A cell that is not a number, not finite or (p0..p2) outside [0, 1]
    raises ValueError naming the file, its line and the column.
    """
    rows, lines = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require_columns(path, reader.fieldnames, OBSERVATION_COLUMNS)
        for record in reader:
            lines.append(f"{path}:{reader.line_num}")
            row = []
            for name in OBSERVATION_COLUMNS:
                try:
                    row.append(float(record[name]))
                except (TypeError, ValueError):  # TypeError: the row ended early
                    raise ValueError(f"{lines[-1]}: column {name} = {record[name]!r} "
                                     "is not a number") from None
            rows.append(row)
    return _as_observation_array(np.reshape(rows, (-1, 4)), where=lines)


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


def _forward_jacobian(fun, x, f, upper, args) -> np.ndarray:
    """Forward differences of `fun` at x, stepping down where up leaves the box."""
    h = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))
    h = np.where(x + h > upper, -h, h)
    jac = np.empty((f.size, x.size))
    for i in range(x.size):
        shifted = x.copy()
        shifted[i] += h[i]
        jac[:, i] = (fun(shifted, *args) - f) / (shifted[i] - x[i])
    return jac


def _levenberg_marquardt(fun, x0, lower, upper, args=()) -> LeastSquaresResult:
    """Minimize sum(fun(x, *args)**2)/2 over lower <= x <= upper.

    Levenberg-Marquardt with Marquardt's diagonal scaling (More, Lecture
    Notes in Mathematics 630, 105 (1978)) on a forward-difference Jacobian.
    A parameter on a bound whose gradient points out of the box is frozen
    for the step, and a step is clipped into the box.  The damping rises x4
    on a rejected step and falls /10 on an accepted one.  Converged: a step
    changed the cost by less than LM_FTOL relative (the step is kept if it
    lowered it), no step lowers it (damping past LM_MAX_DAMPING), or no
    free parameter has a gradient; not converged after LM_MAX_STEPS steps.
    """
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    f = fun(x, *args)
    cost = 0.5 * float(f @ f)
    damping = 1e-3
    jac = None
    success = False
    for _ in range(LM_MAX_STEPS):
        if jac is None:  # x moved
            jac = _forward_jacobian(fun, x, f, upper, args)
            grad = jac.T @ f
            free = ~(((x <= lower) & (grad > 0.0)) | ((x >= upper) & (grad < 0.0)))
            normal = jac[:, free].T @ jac[:, free]
            diagonal = np.diag(normal)
            scale = np.diag(np.where(diagonal > 0.0, diagonal, 1.0))
            if not np.any(grad[free]):
                success = True
                break
        step = np.zeros_like(x)
        step[free] = np.linalg.solve(normal + damping * scale, -grad[free])
        trial = np.clip(x + step, lower, upper)
        f_trial = fun(trial, *args)
        cost_trial = 0.5 * float(f_trial @ f_trial)
        change = cost - cost_trial
        if change > 0.0:
            x, f, cost, jac = trial, f_trial, cost_trial, None
            damping /= 10.0
        else:
            damping *= 4.0
        if abs(change) <= LM_FTOL * cost or damping > LM_MAX_DAMPING:
            success = bool(np.isfinite(cost))
            break
    if jac is None:
        jac = _forward_jacobian(fun, x, f, upper, args)
    active = np.where(x <= lower, -1, np.where(x >= upper, 1, 0))
    return LeastSquaresResult(x=x, cost=cost, fun=f, jac=jac, active_mask=active,
                              success=success)


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
    correction).  Box-bounded Levenberg-Marquardt on the `fit_residuals`
    vector from `restarts` starting points inside `FIT_BOUNDS` (delta_c of
    either sign when the atom is detuned); the lowest-index restart within
    FIT_TIE_RTOL of the lowest residual wins.
    `stderr` holds each parameter's standard error at the winning optimum.
    """
    obs = _as_observation_array(observations)
    rng = np.random.default_rng(seed)
    lower, upper = np.array(list(FIT_BOUNDS.values())).T
    if params.delta_a != 0.0:
        lower[2] = -upper[2]
    starts = [np.array([0.3, 0.01, 0.0])]
    for _ in range(max(restarts - 1, 0)):
        starts.append(np.array([rng.uniform(lo, hi) for lo, hi in zip(lower, upper)]))

    runs = [_levenberg_marquardt(fit_residuals, x0, lower, upper,
                                  args=(obs, params, corrected_loss)) for x0 in starts]
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
