import dataclasses
import math
import warnings

import numpy as np
import pytest

from photondistill.cavity import CavityParams, branch_amplitudes
from photondistill.distillation import (
    DistillationConfig,
    _coherent_tail,
    distill_coherent,
    distill_general,
    distilled_populations,
    distilled_state,
    distilled_state_general,
    herald_output,
    herald_probability,
    model_populations,
    multi_photon_suppression,
    parity_probabilities,
    single_photon_fidelity,
    sweep_rows,
)
from photondistill.errors import EmptyBranchError
from photondistill.fockspace import DensityMatrix, coherent_state, fock_state
from photondistill.cavity import xi
from photondistill.presets import PRESETS

REFERENCE_PARAMS = CavityParams(g=7.8, kappa=2.5, kappa_r=2.3, kappa_t=0.2, kappa_m=0.0, gamma=3.0)
REFERENCE_FIT = DistillationConfig(
    params=REFERENCE_PARAMS.replace(delta_c=0.39),
    detection_error=0.013,
    uncorrected_loss=0.135,
    downstream_loss=0.251,
)

# Effectively lossless, perfectly overcoupled cavity: xi -> 1 to ~1e-13.
IDEAL_PARAMS = CavityParams.from_decays(g=1e7, kappa_r=2.5, kappa_t=0.0, kappa_m=0.0, gamma=3.0)
IDEAL = DistillationConfig(params=IDEAL_PARAMS)


def odd_projected_coherent(alpha, dim):
    """Brute-force oracle: normalized odd-parity projection of |alpha>."""
    v = coherent_state(alpha, dim).amplitudes.copy()
    v[::2] = 0.0
    rho = np.outer(v, v.conj())
    return DensityMatrix(dim, rho / np.trace(rho))


def outer_product_branches(params, alpha, loss, dim):
    """Reference: both heralded branches as sums of coherent-state outer products.

    Returns (P, rho, w) for the odd and then the even herald, at intensity
    loss `loss`: rho = |vu><vu| + |vd><vd| -/+ (lam |vu><vd| + h.c.)
    normalized by its trace, P its probability and w = <alpha|rho|alpha>
    of the untruncated state, all from scalar overlaps of the branches.
    """
    up = branch_amplitudes(params, True, alpha)
    down = branch_amplitudes(params, False, alpha)
    lu, ld = up.loss_vector(), down.loss_vector()
    loss_overlap = np.exp(np.sum(ld.conj() * lu) - 0.5 * np.sum(np.abs(lu) ** 2 + np.abs(ld) ** 2))
    refl_cross = np.conj(down.r) * up.r - 0.5 * (abs(up.r) ** 2 + abs(down.r) ** 2)
    lam = loss_overlap * np.exp(loss * refl_cross)
    nu = math.sqrt(1.0 - loss)
    vu = coherent_state(nu * up.r, dim).amplitudes
    vd = coherent_state(nu * down.r, dim).amplitudes
    ou, od = (np.exp(-(alpha**2 + abs(nu * r) ** 2) / 2.0 + alpha * nu * r) for r in (up.r, down.r))
    branches = []
    for sign in (-1, 1):
        prob = (1.0 + sign * (np.exp(refl_cross) * loss_overlap).real) / 2.0
        cross = sign * lam * np.outer(vu, vd.conj())
        rho = np.outer(vu, vu.conj()) + np.outer(vd, vd.conj()) + cross + cross.conj().T
        w = abs(ou) ** 2 + abs(od) ** 2 + sign * 2.0 * np.real(lam * ou * np.conj(od))
        branches.append((prob, rho / np.trace(rho).real, w / (4.0 * prob)))
    return branches


class TestDistillCoherent:
    def test_ideal_cavity_equals_odd_projection(self):
        alpha = 1.0
        rho = distill_coherent(IDEAL, alpha, "odd", dim=20)
        oracle = odd_projected_coherent(alpha, 20)
        assert np.max(np.abs(rho.elements - oracle.elements)) < 1e-10
        # p1 = alpha^2 e^(-alpha^2) * 2/(1 - e^(-2 alpha^2)) ~ 0.851
        p1 = 1.0 * math.exp(-1.0) * 2.0 / (1.0 - math.exp(-2.0))
        assert abs(single_photon_fidelity(rho) - p1) < 1e-9
        assert abs(p1 - 0.851) < 1e-3

    def test_weak_pulse_fidelity_approaches_xi(self):
        config = DistillationConfig(params=REFERENCE_PARAMS)
        rho = distill_coherent(config, 1e-3, "odd", dim=12)
        assert abs(single_photon_fidelity(rho) - xi(REFERENCE_PARAMS)) < 1e-3

    def test_even_branch_approaches_vacuum(self):
        rho = distill_coherent(REFERENCE_FIT, 1e-4, "even", dim=12)
        assert rho.populations()[0] > 1.0 - 1e-6

    def test_diagonal_matches_closed_form(self):
        # matrix construction against the scalar population formula
        for alpha_sq in (0.1, 0.5, 1.0, 2.5):
            for parity in ("odd", "even"):
                rho = distill_coherent(REFERENCE_FIT, math.sqrt(alpha_sq), parity, dim=20)
                pops = model_populations(
                    REFERENCE_FIT.params, alpha_sq, REFERENCE_FIT.total_loss, 0.0, n_max=20
                ) if parity == "odd" else None
                if parity == "odd":
                    np.testing.assert_allclose(rho.populations(), pops, atol=1e-10)

    def test_state_invariants(self):
        for alpha_sq in (0.1, 1.0, 2.5):
            for parity in ("odd", "even"):
                distill_coherent(REFERENCE_FIT, math.sqrt(alpha_sq), parity, dim=20).validate()

    def test_zero_probability_branch_raises(self):
        config = DistillationConfig(params=REFERENCE_PARAMS)
        with pytest.raises(EmptyBranchError):
            distill_coherent(config, 0.0, "odd")

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            distill_coherent(REFERENCE_FIT, -0.5, "odd")


class TestHeraldProbability:
    def test_vacuum_never_heralds_odd(self):
        config = DistillationConfig(params=REFERENCE_PARAMS)
        assert herald_probability(config, 0.0) == 0.0

    def test_resonant_closed_form(self):
        # P(up) = (1 - exp(-2 xi alpha^2))/2 on resonance, eps = 0
        config = DistillationConfig(params=REFERENCE_PARAMS)
        x = xi(REFERENCE_PARAMS)
        for alpha_sq in (0.3, 1.0, 2.0):
            expected = (1.0 - math.exp(-2.0 * x * alpha_sq)) / 2.0
            assert abs(herald_probability(config, math.sqrt(alpha_sq)) - expected) < 1e-10
        assert abs(herald_probability(config, 1.0) - 0.403) < 1e-3

    def test_detection_error_floor(self):
        config = DistillationConfig(params=REFERENCE_PARAMS, detection_error=0.013)
        assert abs(herald_probability(config, 0.0) - 0.013) < 1e-12


class TestDetectionErrorMix:
    """distilled_state admixes the wrong-parity branch of a misread atom."""

    ALPHA = math.sqrt(0.31)

    def mixed(self, eps):
        config = dataclasses.replace(REFERENCE_FIT, detection_error=eps)
        return distilled_state(config, self.ALPHA, dim=16)[0]

    def test_eps_zero_returns_odd(self):
        odd = distill_coherent(REFERENCE_FIT, self.ALPHA, "odd", dim=16)
        np.testing.assert_allclose(self.mixed(0.0).elements, odd.elements, atol=1e-14)

    def test_eps_one_returns_even(self):
        even = distill_coherent(REFERENCE_FIT, self.ALPHA, "even", dim=16)
        np.testing.assert_allclose(self.mixed(1.0).elements, even.elements, atol=1e-14)

    def test_weights_follow_overlap_rule(self):
        eps = 0.013
        out = herald_output(REFERENCE_FIT, self.ALPHA, dim=16)
        v = coherent_state(self.ALPHA, 16).amplitudes
        w_odd = (1 - eps) * float(np.real(v.conj() @ out.rho_odd.elements @ v))
        w_even = eps * float(np.real(v.conj() @ out.rho_even.elements @ v))
        ref = (w_odd * out.rho_odd.elements + w_even * out.rho_even.elements) / (w_odd + w_even)
        np.testing.assert_allclose(self.mixed(eps).elements, ref, atol=1e-14)


class TestHeraldedOutput:
    def test_probabilities_sum_to_one(self):
        out = herald_output(REFERENCE_FIT, 0.8, dim=18)
        assert abs(out.p_up + out.p_down - 1.0) < 1e-9

    def test_recombination_reproduces_unconditioned_state(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            alpha = rng.uniform(0.2, 1.4)
            loss = rng.uniform(0.0, 0.5)
            dc = rng.uniform(-0.5, 0.5)
            config = DistillationConfig(
                params=REFERENCE_PARAMS.replace(delta_c=dc), uncorrected_loss=loss
            )
            out = herald_output(config, alpha, dim=20)
            recombined = (
                out.p_up * out.rho_odd.elements + out.p_down * out.rho_even.elements
            )
            # unconditioned reflected light: even mixture of the two lossy branches
            from photondistill.cavity import branch_amplitudes

            nu = math.sqrt(1.0 - loss)
            vu = coherent_state(
                nu * branch_amplitudes(config.params, True, alpha).r, 20
            ).amplitudes
            vd = coherent_state(
                nu * branch_amplitudes(config.params, False, alpha).r, 20
            ).amplitudes
            expected = 0.5 * (np.outer(vu, vu.conj()) + np.outer(vd, vd.conj()))
            assert np.max(np.abs(recombined - expected)) < 1e-8

    def test_parity_purity_in_ideal_limit(self):
        out = herald_output(IDEAL, 0.9, dim=20)
        even_weight = out.rho_odd.populations()[::2]
        odd_weight = out.rho_even.populations()[1::2]
        assert np.all(even_weight < 1e-12)
        assert np.all(odd_weight < 1e-12)


class TestDistillGeneral:
    def test_oracle_equivalence_with_closed_form(self):
        # acceptance-grade check: coherent inputs through the Kraus map.
        # The input is built with enough truncation headroom that its
        # discarded tail stays below the comparison tolerance; the compared
        # states live in the first 20 dimensions.
        for alpha_sq in (0.1, 0.5, 1.0, 2.5):
            dim_in = 20 if alpha_sq <= 1.0 else 32
            rho_in = coherent_state(math.sqrt(alpha_sq), dim_in).density_matrix()
            for parity in ("odd", "even"):
                general, p_gen = distill_general(rho_in, REFERENCE_FIT, parity)
                closed = distill_coherent(REFERENCE_FIT, math.sqrt(alpha_sq), parity, dim=20)
                diff = general.elements[:20, :20] - closed.elements
                assert np.max(np.abs(diff)) < 1e-10
                p_ref = parity_probabilities(REFERENCE_FIT, math.sqrt(alpha_sq))
                p_ref = p_ref[0] if parity == "odd" else p_ref[1]
                assert abs(p_gen - p_ref) < 1e-10

    def test_single_photon_through_ideal_cavity(self):
        rho_in = fock_state(1, 10).density_matrix()
        out, prob = distill_general(rho_in, IDEAL, "odd")
        assert abs(prob - 1.0) < 1e-9
        assert abs(single_photon_fidelity(out) - 1.0) < 1e-9

    def test_branch_probabilities_sum_to_one(self):
        rho_in = coherent_state(0.9, 16).density_matrix()
        _, p_odd = distill_general(rho_in, REFERENCE_FIT, "odd")
        _, p_even = distill_general(rho_in, REFERENCE_FIT, "even")
        assert abs(p_odd + p_even - 1.0) < 1e-12

    def test_impure_source_boost(self):
        # mixed vacuum/single-photon source, documented imperfection set:
        # production loss 13.5%, detection error 1.3%, cavity detuning 0.39
        el = np.zeros((12, 12), dtype=complex)
        el[0, 0] = 0.44
        el[1, 1] = 0.56
        source = DensityMatrix(12, el)
        config = DistillationConfig(
            params=REFERENCE_PARAMS.replace(delta_c=0.39),
            detection_error=0.013,
            uncorrected_loss=0.135,
            downstream_loss=0.0,
        )
        rho, p_herald = distilled_state_general(source, config, "odd")
        assert abs(single_photon_fidelity(rho) - 0.701) < 0.02
        assert abs(p_herald - 0.452) < 0.02


class TestKrausPrecision:
    @pytest.mark.parametrize("preset", ["reference", "fiber"])
    @pytest.mark.parametrize("alpha_sq", [1e-9, 1e-6, 1e-4, 1e-2])
    @pytest.mark.parametrize("parity", ["odd", "even"])
    def test_weak_coherent_input_matches_closed_form(self, preset, alpha_sq, parity):
        # the odd branch of a weak pulse is ~alpha^2 of the input; the Kraus
        # map must keep it to rounding relative to itself, as the closed form does
        config = PRESETS[preset]
        alpha = math.sqrt(alpha_sq)
        general, _ = distill_general(coherent_state(alpha, 16).density_matrix(), config, parity)
        closed = distill_coherent(config, alpha, parity, dim=16)
        assert np.max(np.abs(general.elements - closed.elements)) < 1e-11


class TestDistilledState:
    def test_matches_general_pipeline_for_coherent_input(self):
        alpha = math.sqrt(0.31)
        rho_a, p_a = distilled_state(REFERENCE_FIT, alpha, dim=20)
        rho_b, p_b = distilled_state_general(
            coherent_state(alpha, 20).density_matrix(), REFERENCE_FIT, "odd"
        )
        assert np.max(np.abs(rho_a.elements - rho_b.elements)) < 1e-9
        assert abs(p_a - p_b) < 1e-10

    def test_corrected_equals_loss_inversion(self):
        # correcting after mixing equals building branches at residual loss
        from photondistill.tomography import loss_correct

        alpha = math.sqrt(0.4)
        uncorr, _ = distilled_state(REFERENCE_FIT, alpha, dim=20, corrected=False)
        corr, _ = distilled_state(REFERENCE_FIT, alpha, dim=20, corrected=True)
        inverted = loss_correct(uncorr, REFERENCE_FIT.downstream_loss)
        assert np.max(np.abs(corr.elements - inverted.elements)) < 1e-8

    def test_monotonicity_beats_coherent_approximation(self):
        # ideal-limit distilled F1 stays above the best coherent value e^-1
        for alpha_sq in np.linspace(0.05, 2.5, 25):
            rho, _ = distilled_state(IDEAL, math.sqrt(alpha_sq), dim=30)
            assert single_photon_fidelity(rho) > math.exp(-1)

    def test_off_resonance_continuity(self):
        # no branch flips as delta_c crosses zero
        f1 = []
        dcs = np.linspace(-1.0, 1.0, 21)
        for dc in dcs:
            config = DistillationConfig(
                params=REFERENCE_PARAMS.replace(delta_c=float(dc)),
                detection_error=0.013,
                uncorrected_loss=0.135,
            )
            rho, _ = distilled_state(config, 0.6, dim=16)
            f1.append(single_photon_fidelity(rho))
        diffs = np.abs(np.diff(f1))
        assert np.all(diffs < 0.01)

    def test_loss_split_between_kt_km_is_irrelevant(self):
        rng = np.random.default_rng(5)
        base = None
        for _ in range(3):
            kt = rng.uniform(0.0, 0.2)
            params = CavityParams.from_decays(
                g=7.8, kappa_r=2.3, kappa_t=kt, kappa_m=0.2 - kt, gamma=3.0, delta_c=0.39
            )
            config = DistillationConfig(
                params=params, detection_error=0.013, uncorrected_loss=0.135
            )
            rho, p = distilled_state(config, 0.7, dim=16)
            if base is None:
                base = (rho.elements, p)
            else:
                assert np.max(np.abs(rho.elements - base[0])) < 1e-10
                assert abs(p - base[1]) < 1e-12


class TestFiguresOfMerit:
    def test_single_photon_fidelity_examples(self):
        assert single_photon_fidelity(fock_state(1, 5).density_matrix()) == 1.0
        rho = coherent_state(1.0, 20).density_matrix()
        assert abs(single_photon_fidelity(rho) - math.exp(-1)) < 1e-10

    def test_multi_photon_suppression_examples(self):
        assert multi_photon_suppression(fock_state(1, 5).density_matrix()) == 1.0
        rho = coherent_state(1.0, 20).density_matrix()
        # Poisson tail: 1 - P(n>=2) = 2 e^-1
        assert abs(multi_photon_suppression(rho) - 2.0 * math.exp(-1)) < 1e-10
        assert abs(multi_photon_suppression(rho) - 0.736) < 1e-3


class TestSweepRows:
    def test_zero_alpha_row_records_marker(self):
        rows = sweep_rows(REFERENCE_FIT, [0.0, 0.2])
        assert math.isnan(rows[0]["f1"])
        assert abs(rows[0]["p_up"] - 0.013) < 1e-12
        assert not math.isnan(rows[1]["f1"])

    def test_coherent_reference_column(self):
        rows = sweep_rows(REFERENCE_FIT, [0.5, 1.0])
        for row in rows:
            assert abs(row["coherent_ref"] - row["alpha_sq"] * math.exp(-row["alpha_sq"])) < 1e-12


def padded(pops, dim):
    """Population rows padded with zeros, or cut, to dim levels."""
    pops = np.atleast_2d(pops)
    out = np.pad(pops, ((0, 0), (0, max(0, dim - pops.shape[1]))))[:, :dim]
    out[np.isnan(pops).any(axis=1)] = np.nan
    return out


def per_point_rows(config, grid, dim, corrected):
    """Reference: one distilled_state call per alpha^2, NaN where the herald is empty."""
    pops, p_up = [], []
    for alpha_sq in grid:
        try:
            rho, p = distilled_state(config, math.sqrt(alpha_sq), dim=dim, corrected=corrected)
            pops.append(rho.populations())
        except EmptyBranchError:
            pops.append(np.full(dim, np.nan))
            p = herald_probability(config, math.sqrt(alpha_sq))
        p_up.append(p)
    return np.array(pops), np.array(p_up)


class TestClosedFormCore:
    GRID = np.array([0.0, 1e-6, 1e-3, 0.01, 0.05, 0.31, 0.9, 1.7, 2.5])

    @pytest.mark.parametrize("corrected", [True, False])
    @pytest.mark.parametrize("eps", [0.0, 0.013, 0.2])
    def test_sweep_rows_equal_per_point_states(self, corrected, eps):
        config = DistillationConfig(
            params=REFERENCE_FIT.params, detection_error=eps,
            uncorrected_loss=0.135, downstream_loss=0.251,
        )
        rows = sweep_rows(config, self.GRID, corrected=corrected)
        pops, p_up = per_point_rows(config, self.GRID, 40, corrected)
        got = np.array([[row[f"p{n}"] for n in range(4)] for row in rows])
        np.testing.assert_allclose(got, pops[:, :4], rtol=0, atol=1e-12)
        np.testing.assert_allclose([row["f1"] for row in rows], pops[:, 1], rtol=0, atol=1e-12)
        tail = np.sum(pops[:, 2:], axis=1)
        np.testing.assert_allclose([row["suppression"] for row in rows], 1.0 - tail,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose([row["p_up"] for row in rows], p_up, rtol=0, atol=1e-12)
        # alpha^2 = 0 is the empty-herald row: NaN populations, p_up = herald_probability
        assert np.isnan(pops[0]).all() and math.isnan(rows[0]["f1"])
        assert rows[0]["p_up"] == herald_probability(config, 0.0)
        assert not np.isnan(got[1:]).any()

    @pytest.mark.parametrize("eps", [0.0, 0.013])
    def test_distilled_populations_equal_per_point_states(self, eps):
        config = DistillationConfig(params=IDEAL_PARAMS, detection_error=eps)
        pops, p_up = distilled_populations(config, self.GRID)
        ref, ref_p = per_point_rows(config, self.GRID, 40, False)
        assert pops.shape[1] < 40
        np.testing.assert_allclose(padded(pops, 40), ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(p_up, ref_p, rtol=0, atol=1e-12)

    def test_small_pulses_keep_full_precision(self):
        # ideal cavity: the odd herald is the odd projection of |alpha>
        config = DistillationConfig(params=IDEAL_PARAMS)
        grid = np.array([1e-9, 1e-6, 1e-3, 0.5])
        pops, _ = distilled_populations(config, grid)
        closed = model_populations(IDEAL_PARAMS, grid, 0.0, 0.0, n_max=20)
        for row, exact, alpha_sq in zip(padded(pops, 20), closed, grid):
            oracle = odd_projected_coherent(math.sqrt(alpha_sq), 20).populations()
            np.testing.assert_allclose(row, oracle, rtol=0, atol=1e-12)
            rho, _ = distilled_state(config, math.sqrt(alpha_sq), dim=20)
            np.testing.assert_allclose(rho.populations(), oracle, rtol=0, atol=1e-12)
            # not renormalized: also needs P_odd to full precision
            np.testing.assert_allclose(exact, oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("corrected_loss", [None, 0.251])
    @pytest.mark.parametrize("eps", [0.0, 0.013])
    def test_array_model_populations_equal_stacked_scalar_calls(self, corrected_loss, eps):
        params = REFERENCE_FIT.params
        grid = self.GRID[1:]
        stacked = np.array([
            model_populations(params, a2, 0.352, eps, corrected_loss=corrected_loss, n_max=5)
            for a2 in grid
        ])
        array = model_populations(params, grid, 0.352, eps,
                                  corrected_loss=corrected_loss, n_max=5)
        assert array.shape == (len(grid), 5)
        np.testing.assert_allclose(array, stacked, rtol=0, atol=1e-14)

    def test_scalar_model_populations_keeps_shape_and_empty_branch_error(self):
        params = REFERENCE_FIT.params
        assert model_populations(params, 0.31, 0.352, 0.013).shape == (4,)
        with pytest.raises(EmptyBranchError):
            model_populations(params, 0.0, 0.352, 0.013)
        with pytest.raises(EmptyBranchError):
            model_populations(params, np.array([0.3, 0.0]), 0.352, 0.013)

    def test_negative_alpha_sq_rejected(self):
        with pytest.raises(ValueError, match="alpha_sq"):
            sweep_rows(REFERENCE_FIT, [0.5, -1.0])
        with pytest.raises(ValueError, match="alpha_sq"):
            model_populations(REFERENCE_FIT.params, -0.5, 0.352, 0.013)

    def test_bright_sweep_is_exact_without_warning(self):
        # at alpha^2 = 40 a renormalized 20-level truncation gave p1 = 9.3e-7
        grid = np.linspace(0.05, 40.0, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = sweep_rows(REFERENCE_FIT, grid)
            rho, p_up = distilled_state(REFERENCE_FIT, math.sqrt(40.0), dim=200,
                                        corrected=True)
        p = rho.populations()
        assert abs(rows[-1]["p1"] / p[1] - 1.0) < 1e-12
        assert abs(rows[-1]["p1"] - 3.19e-9) < 0.01e-9
        assert abs(rows[-1]["p_up"] - p_up) < 1e-15
        assert abs(rows[-1]["suppression"] - (p[0] + p[1])) < 1e-12

    def test_p3_column_at_the_faintest_pulse(self):
        pops, _ = distilled_populations(REFERENCE_FIT, [1e-9])
        assert pops.shape == (1, 4)
        assert sweep_rows(REFERENCE_FIT, [1e-9])[0]["p3"] >= 0.0

    def test_beyond_the_exact_range_raises(self):
        with pytest.raises(ValueError, match="mean photon number"):
            sweep_rows(REFERENCE_FIT, [0.5, 5000.0])

    @pytest.mark.parametrize("alpha_sq",
                             [1e-8, 1e-6, 1e-5, 1e-4, 0.01, 0.3, 0.999, 1.0, 2.5, 40.0])
    def test_coherent_tail_against_50_digits(self, alpha_sq):
        import mpmath

        with mpmath.workdps(50):
            x = mpmath.mpf(alpha_sq)
            want = 1 - mpmath.exp(-x) * (1 + x)
            got = _coherent_tail(np.array([alpha_sq]))[0]
            assert abs(got / want - 1) < 1e-13

    @pytest.mark.parametrize("corrected", [False, True])
    def test_small_pulse_states_equal_closed_form_populations(self, corrected):
        grid = np.array([1e-9, 1e-6, 1e-3])
        pops, p_up = distilled_populations(REFERENCE_FIT, grid, corrected=corrected)
        for row, p, alpha_sq in zip(padded(pops, 20), p_up, grid):
            rho, p_herald = distilled_state(REFERENCE_FIT, math.sqrt(alpha_sq), dim=20,
                                            corrected=corrected)
            np.testing.assert_allclose(rho.populations(), row, rtol=0, atol=1e-15)
            assert abs(p_herald - p) < 1e-15


class TestOuterProductReference:
    """The closed form against the outer-product construction it replaced."""

    GRID = (0.01, 0.11, 0.31, 1.0, 2.5)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("eps", [0.0, 0.013, 0.2])
    def test_matrix_paths_match_reference(self, preset, corrected, eps):
        config = dataclasses.replace(PRESETS[preset], detection_error=eps)
        loss_out = config.uncorrected_loss if corrected else config.total_loss
        for alpha_sq in self.GRID:
            alpha = math.sqrt(alpha_sq)
            states = outer_product_branches(config.params, alpha, loss_out, 20)
            weights = [w for _, _, w in outer_product_branches(config.params, alpha,
                                                               config.total_loss, 20)]
            out = herald_output(config, alpha, dim=20, corrected=corrected)
            assert abs(out.p_up - states[0][0]) < 1e-12
            assert abs(out.p_down - states[1][0]) < 1e-12
            for index, parity in enumerate(("odd", "even")):
                prob, rho, _ = states[index]
                coherent = distill_coherent(config, alpha, parity, dim=20, corrected=corrected)
                branch = (out.rho_odd, out.rho_even)[index]
                w_match = (1.0 - eps) * weights[index]
                w_wrong = eps * weights[1 - index]
                mixed = (w_match * rho + w_wrong * states[1 - index][1]) / (w_match + w_wrong)
                got, p_herald = distilled_state(config, alpha, parity, dim=20,
                                                corrected=corrected)
                for value, ref in ((coherent, rho), (branch, rho), (got, mixed)):
                    np.testing.assert_allclose(value.elements, ref, rtol=0, atol=1e-12)
                assert abs(p_herald - ((1.0 - eps) * prob + eps * (1.0 - prob))) < 1e-12


class TestMatrixPathContract:
    def test_empty_herald_raises_without_numpy_warnings(self):
        vacuum = fock_state(0, 8).density_matrix()
        calls = (
            lambda: distilled_state(REFERENCE_FIT, 0.0, dim=8),
            lambda: distilled_state(REFERENCE_FIT, 0.0, "even", dim=8),
            lambda: distill_coherent(REFERENCE_FIT, 0.0, "odd", dim=8),
            lambda: herald_output(REFERENCE_FIT, 0.0, dim=8),
            lambda: distill_general(vacuum, REFERENCE_FIT, "odd"),
            lambda: distilled_state_general(vacuum, REFERENCE_FIT, "odd"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(EmptyBranchError):
                    call()
            # without detection errors the even herald of vacuum is vacuum
            config = dataclasses.replace(REFERENCE_FIT, detection_error=0.0)
            rho, p = distilled_state(config, 0.0, "even", dim=8)
            assert p == 1.0 and rho.populations()[0] == 1.0
            rho, p = distilled_state_general(vacuum, config, "even")
            assert p == 1.0 and abs(rho.populations()[0] - 1.0) < 1e-15

    @pytest.mark.parametrize("build", [distilled_state, herald_output])
    def test_one_truncation_warning_above_dim_over_4(self, build):
        # largest branch mean photon number (1 - loss) alpha^2 max|r|^2 against dim/4 = 2
        largest = max(abs(branch_amplitudes(REFERENCE_FIT.params, up).r) ** 2
                      for up in (True, False))
        threshold = 2.0 / ((1.0 - REFERENCE_FIT.total_loss) * largest)
        for alpha_sq, expected in ((0.95 * threshold, 0), (1.05 * threshold, 1)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                build(REFERENCE_FIT, math.sqrt(alpha_sq), dim=8)
            assert len(caught) == expected
            assert all("dim/4" in str(w.message) for w in caught)
