import numpy as np
import pytest

from photondistill import calibration
from photondistill.calibration import (
    FIT_BOUNDS,
    FIT_TIE_RTOL,
    N_RESTARTS,
    LossBudget,
    _standard_errors,
    combine_losses,
    fit_imperfections,
    fit_residuals,
    read_observations_csv,
    residual_loss,
    synthetic_observations,
)
from photondistill.cavity import CavityParams
from photondistill.distillation import model_populations
from photondistill.errors import InconsistentBudgetError
from photondistill.presets import PRESETS, budget_csv_path

REFERENCE_PARAMS = CavityParams(g=7.8, kappa=2.5, kappa_r=2.3, kappa_t=0.2, kappa_m=0.0, gamma=3.0)

ALPHA_GRID = (0.1, 0.35, 0.85, 1.48, 2.61)

# criterion 11: truth, cavity and intensities of the acceptance fit
CRITERION_11_TRUTH = (0.352, 0.013, 0.39)
CRITERION_11_PARAMS = PRESETS["reference"].params.replace(delta_c=0.0)


def sum_of_squares(theta, observations, params, corrected_loss):
    """Sum of the squared `fit_residuals`: the fit's objective."""
    r = fit_residuals(theta, observations, params, corrected_loss)
    return float(r @ r)


def nelder_mead_reference(observations, params, corrected_loss=0.251, restarts=N_RESTARTS,
                          seed=0):
    """The simplex fit that bounded least squares replaced, kept as a reference.

    Nelder-Mead on the sum of squares with the parameters clipped to their
    bounds inside the objective, delta_c searched over [-2, 2] and reported
    as |delta_c|.  Returns ((loss, epsilon, |delta_c|), residual).
    """
    from scipy.optimize import minimize

    bounds = [(0.0, 0.8), (0.0, 0.1), (-2.0, 2.0)]

    def clipped(theta):
        return np.array([np.clip(v, lo, hi) for v, (lo, hi) in zip(theta, bounds)])

    rng = np.random.default_rng(seed)
    starts = [np.array([0.3, 0.01, 0.0])]
    for _ in range(restarts - 1):
        starts.append(np.array([rng.uniform(*b) for b in bounds]))
    runs = [minimize(lambda theta: sum_of_squares(clipped(theta), observations, params,
                                                  corrected_loss),
                     x0, method="Nelder-Mead", bounds=bounds,
                     options={"maxiter": 400, "xatol": 1e-8, "fatol": 1e-14})
            for x0 in starts]
    best = min(runs, key=lambda run: run.fun)  # first of equal residuals wins
    loss, eps, dc = clipped(best.x)
    return (loss, eps, abs(dc)), float(best.fun)


def trf_reference(observations, params, corrected_loss=0.251, restarts=N_RESTARTS, seed=0):
    """The trust-region fit that Levenberg-Marquardt replaced, kept as a reference.

    SciPy's bounded TRF (gtol 1e-12) from `fit_imperfections`'s seeded
    starts, with the same tie rule and standard errors.  Returns
    ((loss, epsilon, delta_c), residual, stderr).
    """
    from scipy.optimize import least_squares

    rng = np.random.default_rng(seed)
    lower, upper = np.array(list(FIT_BOUNDS.values())).T
    if params.delta_a != 0.0:
        lower[2] = -upper[2]
    starts = [np.array([0.3, 0.01, 0.0])]
    for _ in range(max(restarts - 1, 0)):
        starts.append(np.array([rng.uniform(lo, hi) for lo, hi in zip(lower, upper)]))
    runs = [least_squares(fit_residuals, x0, bounds=(lower, upper), method="trf", gtol=1e-12,
                          args=(observations, params, corrected_loss)) for x0 in starts]
    residuals = [2.0 * float(run.cost) for run in runs]
    tie = min(residuals) * (1.0 + FIT_TIE_RTOL)
    best = runs[next(i for i, value in enumerate(residuals) if value <= tie)]
    return tuple(best.x), 2.0 * float(best.cost), _standard_errors(best)


class TestCombineLosses:
    def test_bundled_budget_total(self):
        budget = LossBudget.from_csv(budget_csv_path())
        assert len(budget.items) == 11
        assert abs(combine_losses(budget) - 0.251) < 0.001

    def test_empty_budget(self):
        assert combine_losses(LossBudget(())) == 0.0

    def test_single_item(self):
        assert combine_losses(LossBudget((("x", 0.3),))) == pytest.approx(0.3)

    def test_order_invariant_and_composable(self):
        rng = np.random.default_rng(3)
        losses = rng.uniform(0.0, 0.3, size=6)
        items = tuple((f"ch{i}", l) for i, l in enumerate(losses))
        full = combine_losses(LossBudget(items))
        shuffled = combine_losses(LossBudget(items[::-1]))
        assert full == pytest.approx(shuffled, abs=1e-15)
        a = combine_losses(LossBudget(items[:3]))
        b = combine_losses(LossBudget(items[3:]))
        assert full == pytest.approx(1 - (1 - a) * (1 - b), abs=1e-12)


class TestResidualLoss:
    def test_fitted_values(self):
        assert abs(residual_loss(0.352, 0.251) - 0.135) < 0.001

    def test_nothing_corrected(self):
        assert residual_loss(0.4, 0.0) == pytest.approx(0.4)

    def test_everything_corrected(self):
        assert residual_loss(0.251, 0.251) == pytest.approx(0.0)

    def test_inconsistent_budget(self):
        with pytest.raises(InconsistentBudgetError):
            residual_loss(0.2, 0.3)


class TestFitImperfections:
    def test_noiseless_round_trip_at_zero_imperfections(self):
        # no imperfections and nothing to correct for: exact recovery
        obs = synthetic_observations(REFERENCE_PARAMS, (0.0, 0.0, 0.0), ALPHA_GRID,
                                     corrected_loss=0.0)
        result = fit_imperfections(obs, REFERENCE_PARAMS, corrected_loss=0.0,
                                   restarts=4, seed=1)
        assert result.residual < 1e-10
        assert abs(result.loss) < 1e-3
        assert abs(result.epsilon) < 1e-3
        assert abs(result.delta_c) < 0.05

    def test_noisy_round_trip_recovers_fitted_values(self):
        truth = (0.352, 0.013, 0.39)
        obs = synthetic_observations(REFERENCE_PARAMS, truth, ALPHA_GRID, noise=0.01, seed=7)
        result = fit_imperfections(obs, REFERENCE_PARAMS, seed=2)
        assert abs(result.loss - truth[0]) < 0.02
        assert abs(result.epsilon - truth[1]) < 0.005
        assert abs(result.delta_c - truth[2]) < 0.2

    def test_best_restart_wins(self):
        # the 8 restarts end on one optimum, their residuals 1e-13 apart
        truth = (0.2, 0.02, 0.5)
        obs = synthetic_observations(REFERENCE_PARAMS, truth, ALPHA_GRID, noise=0.005, seed=9)
        result = fit_imperfections(obs, REFERENCE_PARAMS, seed=3)
        tie = min(result.restarts) * (1.0 + FIT_TIE_RTOL)
        first = next(i for i, value in enumerate(result.restarts) if value <= tie)
        assert result.residual == result.restarts[first]
        assert result.residual <= min(result.restarts) * (1.0 + 1e-9)

    @pytest.mark.parametrize("costs, winner", [
        ([1.0 + 1e-13, 1.0, 1.0 + 5e-14], 0),  # rounding-level differences tie
        ([1.0 + 1e-8, 1.0, 1.0 + 5e-14], 1),  # a worse first restart loses
    ])
    def test_restarts_within_the_tie_tolerance_go_to_the_lowest_index(
        self, monkeypatch, costs, winner
    ):
        from types import SimpleNamespace

        calls = iter(range(len(costs)))

        def stub(fun, x0, *args, **kwargs):
            i = next(calls)
            return SimpleNamespace(x=np.array([0.1 * (i + 1), 0.01, 0.2]), cost=costs[i] / 2.0,
                                   success=True, fun=np.zeros(15), jac=np.eye(15, 3),
                                   active_mask=np.zeros(3, dtype=int))

        monkeypatch.setattr(calibration, "_levenberg_marquardt", stub)
        obs = synthetic_observations(REFERENCE_PARAMS, (0.2, 0.02, 0.5), ALPHA_GRID)
        result = fit_imperfections(obs, REFERENCE_PARAMS, restarts=len(costs))
        assert result.restarts == costs
        assert result.loss == 0.1 * (winner + 1)
        assert result.residual == costs[winner]

    def test_identifiability_perturbations_increase_residual(self):
        truth = (0.352, 0.013, 0.39)
        obs = synthetic_observations(REFERENCE_PARAMS, truth, ALPHA_GRID)
        base = sum_of_squares(np.array(truth), obs, REFERENCE_PARAMS, 0.251)
        for i in range(3):
            bumped = np.array(truth)
            bumped[i] *= 1.1
            assert sum_of_squares(bumped, obs, REFERENCE_PARAMS, 0.251) > base

    def test_forward_model_orderings_match_observed_panels(self):
        # distributions at the demonstrated intensities: the one-photon
        # component dominates every panel, vacuum beats two-photon at low
        # intensity (and vice versa at high), and even components stay
        # suppressed relative to Poissonian light of the same brightness
        dists = {}
        for alpha_sq in (0.35, 0.85, 1.48, 2.61):
            p = model_populations(
                REFERENCE_PARAMS.replace(delta_c=0.39), alpha_sq, 0.352, 0.013,
                corrected_loss=0.251, n_max=5,
            )
            assert np.argmax(p) == 1
            nbar = float(np.dot(np.arange(5), p))
            assert p[2] / p[1] < nbar / 2.0  # Poisson ratio p2/p1 = nbar/2
            dists[alpha_sq] = p
        assert dists[0.35][0] > dists[0.35][2]
        assert dists[2.61][2] > dists[2.61][0]

    def test_rejects_too_few_rows(self):
        obs = synthetic_observations(REFERENCE_PARAMS, (0.1, 0.0, 0.0), (0.2, 0.5, 1.0))
        with pytest.raises(ValueError):
            fit_imperfections(obs, REFERENCE_PARAMS)

    def test_observation_csv_round_trip(self, tmp_path):
        obs = synthetic_observations(REFERENCE_PARAMS, (0.3, 0.01, 0.2), ALPHA_GRID)
        path = tmp_path / "obs.csv"
        with open(path, "w") as fh:
            fh.write("alpha_sq,p0,p1,p2\n")
            for row in obs:
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
        loaded = read_observations_csv(path)
        np.testing.assert_allclose(loaded, obs, atol=1e-10)

    def test_bounds_respected(self):
        truth = (0.352, 0.013, 0.39)
        obs = synthetic_observations(REFERENCE_PARAMS, truth, ALPHA_GRID, noise=0.02, seed=11)
        result = fit_imperfections(obs, REFERENCE_PARAMS, seed=4)
        assert FIT_BOUNDS["loss"][0] <= result.loss <= FIT_BOUNDS["loss"][1]
        assert FIT_BOUNDS["epsilon"][0] <= result.epsilon <= FIT_BOUNDS["epsilon"][1]
        assert abs(result.delta_c) <= FIT_BOUNDS["delta_c"][1]


class TestFitResiduals:
    def test_residual_is_the_objective_at_the_reported_parameters(self):
        obs = synthetic_observations(REFERENCE_PARAMS, CRITERION_11_TRUTH, ALPHA_GRID,
                                     noise=0.01, seed=7)
        result = fit_imperfections(obs, REFERENCE_PARAMS, restarts=2, seed=2)
        assert result.delta_c >= 0.0
        theta = np.array([result.loss, result.epsilon, result.delta_c])
        r = fit_residuals(theta, obs, REFERENCE_PARAMS, 0.251)
        assert r.shape == (3 * len(ALPHA_GRID),)
        assert result.residual == pytest.approx(sum_of_squares(theta, obs, REFERENCE_PARAMS,
                                                               0.251), rel=1e-12)
        assert result.residual == pytest.approx(float(np.sum(r ** 2)), rel=1e-12)


class TestDetuningSign:
    def test_detuned_atom_fits_a_negative_delta_c(self):
        # delta_a != 0 makes the model uneven in delta_c, so its sign is fitted
        params = PRESETS["reference-g2"].params
        truth = (0.3, 0.01, -0.3)
        obs = synthetic_observations(params, truth, ALPHA_GRID, noise=0.005, seed=1)
        result = fit_imperfections(obs, params, seed=0)
        assert abs(result.loss - truth[0]) < 0.02
        assert abs(result.epsilon - truth[1]) < 0.005
        assert abs(result.delta_c - truth[2]) < 0.05


class TestAgainstNelderMead:
    @pytest.mark.parametrize("noise_seed, fit_seed", [(5, 6), (1, 0), (2, 3)])
    def test_same_optimum_as_the_simplex_fit(self, noise_seed, fit_seed):
        # (5, 6) is criterion 11's data and starts
        obs = synthetic_observations(CRITERION_11_PARAMS, CRITERION_11_TRUTH, ALPHA_GRID,
                                     noise=0.01, seed=noise_seed)
        result = fit_imperfections(obs, CRITERION_11_PARAMS, seed=fit_seed)
        (loss, eps, dc), residual = nelder_mead_reference(obs, CRITERION_11_PARAMS,
                                                          seed=fit_seed)
        assert result.residual <= residual * (1.0 + 1e-9)
        assert abs(result.loss - loss) <= 1e-6
        assert abs(result.epsilon - eps) <= 1e-6
        assert abs(result.delta_c - dc) <= 1e-6


class TestAgainstTRF:
    @pytest.mark.parametrize("noise_seed", range(1, 11))
    def test_same_optimum_and_errors_as_the_trust_region_fit(self, noise_seed):
        obs = synthetic_observations(CRITERION_11_PARAMS, CRITERION_11_TRUTH, ALPHA_GRID,
                                     noise=0.01, seed=noise_seed)
        result = fit_imperfections(obs, CRITERION_11_PARAMS, restarts=4)
        theta, residual, stderr = trf_reference(obs, CRITERION_11_PARAMS, restarts=4)
        assert result.converged
        # the two solvers stop at rounding-level distances from one optimum,
        # so "no higher" is the fit's own tie rule
        assert result.residual <= residual * (1.0 + FIT_TIE_RTOL)
        for name, value in zip(FIT_BOUNDS, theta):
            assert abs(getattr(result, name) - value) <= 1e-7, name
            assert result.stderr[name] == pytest.approx(stderr[name], rel=1e-6), name


class TestLevenbergMarquardt:
    def test_on_bound_parameter_is_frozen_and_reported_active(self):
        # minimum of (x0 - 2)^2 + (x1 + 1)^2 over [0, 1]^2 sits on a corner
        def fun(x):
            return np.array([x[0] - 2.0, x[1] + 1.0])

        fit = calibration._levenberg_marquardt(fun, [0.5, 0.5], np.zeros(2), np.ones(2))
        assert fit.success
        np.testing.assert_array_equal(fit.x, [1.0, 0.0])
        np.testing.assert_array_equal(fit.active_mask, [1, -1])
        np.testing.assert_allclose(fit.jac, np.eye(2), atol=1e-7)
        assert fit.cost == pytest.approx(1.0)

    def test_non_finite_model_does_not_converge(self):
        fit = calibration._levenberg_marquardt(lambda x: np.full(3, np.nan), [0.5],
                                               np.zeros(1), np.ones(1))
        assert not fit.success


class TestStandardErrors:
    def test_stderr_matches_the_scatter_over_noise_draws(self):
        fits = []
        for seed in range(20):
            obs = synthetic_observations(CRITERION_11_PARAMS, CRITERION_11_TRUTH, ALPHA_GRID,
                                         noise=0.01, seed=seed)
            fits.append(fit_imperfections(obs, CRITERION_11_PARAMS, restarts=2, seed=seed))
        for name in FIT_BOUNDS:
            spread = np.std([getattr(fit, name) for fit in fits], ddof=1)
            reported = np.median([fit.stderr[name] for fit in fits])
            assert 0.5 <= spread / reported <= 2.0, name
