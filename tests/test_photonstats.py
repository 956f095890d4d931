import math
import tracemalloc

import numpy as np
import pytest

from photondistill import photonstats
from photondistill.cavity import CavityParams
from photondistill.distillation import DistillationConfig, distilled_populations, distilled_state
from photondistill.errors import EmptyBranchError
from photondistill.fockspace import (
    DensityMatrix,
    _binomials,
    coherent_state,
    fock_state,
    photon_statistics,
)
from photondistill.photonstats import (
    DARK_WINDOW_WIDTHS,
    MC_BLOCK,
    HBTConfig,
    _click_blocks,
    _click_outcomes,
    _count_clicks,
    _split_weights,
    bandwidth_check,
    click_g2,
    g2_curve,
    hbt_monte_carlo,
)

REFERENCE_PARAMS = CavityParams(g=7.8, kappa=2.5, kappa_r=2.3, kappa_t=0.2, kappa_m=0.0, gamma=3.0)

# documented g2 parameter set: cavity locked on resonance, Stark-shifted
# atomic line at 6 (2*pi*MHz), production losses and detection error
G2_CONFIG = DistillationConfig(
    params=REFERENCE_PARAMS.replace(delta_a=6.0, delta_c=0.0),
    detection_error=0.013,
    uncorrected_loss=0.135,
)

# dark-count window of the paper's 2.3 us pulses
DARK_WINDOW = DARK_WINDOW_WIDTHS * 2.3e-6


def random_weak_state(rng, dim=6):
    """Random vacuum-dominated diagonal state with g2 of order 1.

    The click estimator converges to the photon-number g2 only for weak
    excitation; saturation bias grows like g2 * p2/p1, so keep p2 ~ p1^2.
    """
    p1 = rng.uniform(0.02, 0.04)
    p2 = rng.uniform(0.3, 1.0) * p1**2 / 2.0
    p = np.zeros(dim)
    p[1], p[2] = p1, p2
    p[0] = 1.0 - p[1:].sum()
    return DensityMatrix(dim, np.diag(p).astype(complex))


class TestG2Analytic:
    def test_coherent_poissonian(self):
        rho = coherent_state(0.8, 30).density_matrix()
        assert abs(photon_statistics(rho).g2_zero - 1.0) < 1e-3

    def test_single_photon(self):
        assert photon_statistics(fock_state(1, 6).density_matrix()).g2_zero == 0.0

    def test_vacuum_undefined(self):
        assert photon_statistics(fock_state(0, 6).density_matrix()).g2_zero is None

    def test_weak_distilled_light_is_antibunched(self):
        config = DistillationConfig(params=REFERENCE_PARAMS)
        rho, _ = distilled_state(config, math.sqrt(1e-3), dim=10)
        assert photon_statistics(rho).g2_zero < 0.01


class TestHBTMonteCarlo:
    def test_coherent_reference(self):
        rho = coherent_state(math.sqrt(0.5), 16).density_matrix()
        cfg = HBTConfig(detector_efficiency=0.5, dark_count_rate=0.0, trials=1_000_000, seed=1)
        result = hbt_monte_carlo(rho, cfg)
        assert abs(result.g2_zero - 1.0) < 0.02

    def test_converges_to_analytic_for_weak_states(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            rho = random_weak_state(rng)
            expected = photon_statistics(rho).g2_zero
            cfg = HBTConfig(detector_efficiency=1.0, dark_count_rate=0.0,
                            trials=4_000_000, seed=int(rng.integers(1 << 31)))
            result = hbt_monte_carlo(rho, cfg)
            assert abs(result.g2_zero - expected) < 3.0 * result.stderr

    def test_estimator_independent_of_efficiency(self):
        rng = np.random.default_rng(7)
        rho = random_weak_state(rng)
        results = []
        for eta, seed in ((1.0, 5), (0.3, 6)):
            cfg = HBTConfig(detector_efficiency=eta, dark_count_rate=0.0,
                            trials=2_000_000, seed=seed)
            results.append(hbt_monte_carlo(rho, cfg))
        diff = abs(results[0].g2_zero - results[1].g2_zero)
        err = math.hypot(results[0].stderr, results[1].stderr)
        assert diff < 3.0 * err

    def test_dark_counts_alone_are_uncorrelated(self):
        rho = fock_state(0, 6).density_matrix()
        cfg = HBTConfig(detector_efficiency=0.5, dark_count_rate=2000.0,
                        coincidence_window=6.9e-6, trials=2_000_000, seed=8)
        result = hbt_monte_carlo(rho, cfg)
        assert abs(result.g2_zero - 1.0) < 3.0 * result.stderr

    def test_published_point_with_dark_counts(self):
        rho, _ = distilled_state(G2_CONFIG, math.sqrt(0.11), dim=16)
        cfg = HBTConfig(detector_efficiency=0.05, dark_count_rate=20.0,
                        coincidence_window=DARK_WINDOW,
                        trials=2_000_000, seed=12)
        result = hbt_monte_carlo(rho, cfg)
        assert abs(result.g2_zero - 0.045) < 0.02

    def test_nonzero_offsets_uncorrelated(self):
        rho, _ = distilled_state(G2_CONFIG, math.sqrt(0.11), dim=16)
        cfg = HBTConfig(detector_efficiency=0.3, dark_count_rate=20.0,
                        coincidence_window=DARK_WINDOW,
                        trials=1_000_000, seed=13)
        result = hbt_monte_carlo(rho, cfg, n_offsets=4)
        for tau in range(1, 5):
            assert abs(result.g2_tau[tau] - 1.0) < 0.05

    def test_pulse_shapes_agree_at_fixed_intensity(self):
        # shape enters the statistics only through the total intensity, and
        # every pulse kind gates DARK_WINDOW_WIDTHS widths for dark counts
        rho, _ = distilled_state(G2_CONFIG, math.sqrt(0.11), dim=16)
        results = []
        for seed in (21, 22, 23):  # gaussian, double_peak, rectangular
            cfg = HBTConfig(detector_efficiency=0.05, dark_count_rate=20.0,
                            coincidence_window=DARK_WINDOW,
                            trials=2_000_000, seed=seed)
            results.append(hbt_monte_carlo(rho, cfg))
        base = results[0]
        for other in results[1:]:
            err = math.hypot(base.stderr, other.stderr)
            assert abs(base.g2_zero - other.g2_zero) < 3.0 * err

    def test_deterministic_given_seed(self):
        rho = coherent_state(0.4, 10).density_matrix()
        cfg = HBTConfig(detector_efficiency=0.4, dark_count_rate=20.0,
                        coincidence_window=6.9e-6, trials=200_000, seed=31)
        a = hbt_monte_carlo(rho, cfg)
        b = hbt_monte_carlo(rho, cfg)
        assert a.g2_zero == b.g2_zero
        np.testing.assert_array_equal(a.g2_tau, b.g2_tau)

    def test_zero_singles_marked_undefined(self):
        rho = fock_state(0, 4).density_matrix()
        cfg = HBTConfig(detector_efficiency=0.5, dark_count_rate=0.0, trials=10_000, seed=41)
        result = hbt_monte_carlo(rho, cfg)
        assert math.isnan(result.g2_zero)
        assert result.singles == (0, 0)

    def test_mc_matches_exact_click_expectation(self):
        rho, _ = distilled_state(G2_CONFIG, math.sqrt(0.3), dim=16)
        cfg = HBTConfig(detector_efficiency=0.2, dark_count_rate=20.0,
                        coincidence_window=6.9e-6, trials=4_000_000, seed=42)
        exact = float(click_g2(rho.populations(), cfg.detector_efficiency,
                               cfg.dark_probability))
        result = hbt_monte_carlo(rho, cfg)
        assert abs(result.g2_zero - exact) < 3.0 * result.stderr


class TestHBTConfig:
    def test_dark_probability_above_one_rejected(self):
        with pytest.raises(ValueError, match="dark_probability"):
            HBTConfig(dark_count_rate=1e6, coincidence_window=6.9e-6)
        assert HBTConfig(dark_count_rate=1.0, coincidence_window=1.0).dark_probability == 1.0

    @pytest.mark.parametrize("rate", [math.inf, math.nan, -1.0])
    def test_dark_rate_must_be_finite_and_nonnegative(self, rate):
        with pytest.raises(ValueError, match="dark_count_rate"):
            HBTConfig(dark_count_rate=rate)

    @pytest.mark.parametrize("n_offsets", [-1, 100, 101])
    def test_offsets_must_lie_below_trials(self, n_offsets):
        rho = coherent_state(0.4, 10).density_matrix()
        with pytest.raises(ValueError, match="n_offsets"):
            hbt_monte_carlo(rho, HBTConfig(trials=100), n_offsets=n_offsets)


def _mp_click_g2(populations, efficiency, dark_probability):
    """50-digit P(both click) and g2 of the textbook form 1 - 2qS + q^2 B."""
    import mpmath

    with mpmath.workdps(50):
        p = [mpmath.mpf(float(x)) for x in populations]
        eta, q = mpmath.mpf(efficiency), 1 - mpmath.mpf(dark_probability)
        total = mpmath.fsum(p)
        single = mpmath.fsum(x * (1 - eta / 2) ** n for n, x in enumerate(p))
        both = mpmath.fsum(x * (1 - eta) ** n for n, x in enumerate(p))
        p1 = total - q * single
        p11 = total - 2 * q * single + q * q * both
        return p11, p11 / (p1 * p1)


class TestClickOutcomes:
    def test_paper_detector_against_50_digits(self):
        # at eta = 0.05 with 20/s x 6.9 us of darks, P(both click) is 5e-6..1e-3
        eta, p_dark = 0.05, 20.0 * DARK_WINDOW
        pops, _ = distilled_populations(G2_CONFIG, np.array([1e-3, 0.11, 0.5, 1.5, 2.5]))
        both = _click_outcomes(pops, eta, p_dark)[:, 2]
        g2 = click_g2(pops, eta, p_dark)
        for row, got_both, got_g2 in zip(pops, both, g2):
            want_both, want_g2 = _mp_click_g2(row, eta, p_dark)
            assert abs(got_both / want_both - 1) <= 1e-13
            assert abs(got_g2 / want_g2 - 1) <= 1e-13


class TestSplitWeights:
    def test_equal_to_binomials_over_powers_of_two(self):
        n = np.arange(1000)[:, None]
        np.testing.assert_array_equal(_split_weights(1000), _binomials(1000) * 0.5 ** n)

    def test_finite_where_binomials_overflow(self):
        w = _split_weights(1100)
        assert np.isfinite(w).all() and (w >= 0.0).all()
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=1e-14)


def _outcome_counts(c1, c2):
    """Trials with (both silent, arm 1 alone, arm 2 alone, both click)."""
    return np.array([np.count_nonzero(~c1 & ~c2), np.count_nonzero(c1 & ~c2),
                     np.count_nonzero(~c1 & c2), np.count_nonzero(c1 & c2)])


def sampled_clicks(outcomes, trials, seed):
    """Both arms' click booleans over all `trials` runs, from `_click_blocks`."""
    arm1, arm2 = zip(*_click_blocks(outcomes, trials, seed))
    return np.concatenate(arm1), np.concatenate(arm2)


def all_at_once_counts(outcomes, trials, seed, n_offsets):
    """The counter that streaming replaced, kept as a reference.

    Holds every run's clicks at once, drawn from the same per-block
    uniforms, and counts singles and the tau = 0 .. n_offsets coincidences
    over the whole arrays.
    """
    silent, alone, both = outcomes
    cut1, cut2, cut3 = np.cumsum([alone, both, alone]) / (silent + 2.0 * alone + both)
    block_size = photonstats.MC_BLOCK
    c1 = np.empty(trials, dtype=bool)
    c2 = np.empty(trials, dtype=bool)
    streams = np.random.SeedSequence(seed).spawn((trials + block_size - 1) // block_size)
    for block, stream in enumerate(streams):
        start = block * block_size
        u = np.random.default_rng(stream).random(min(block_size, trials - start))
        arm1 = c1[start:start + len(u)]
        arm2 = c2[start:start + len(u)]
        np.less(u, cut2, out=arm1)
        np.greater_equal(u, cut1, out=arm2)
        arm2 &= u < cut3
    singles = [np.count_nonzero(c1), np.count_nonzero(c2)]
    counts = [np.count_nonzero(c1[:trials - tau] & c2[tau:]) for tau in range(n_offsets + 1)]
    return singles, counts


class TestClickSampler:
    @pytest.mark.parametrize("state", ["coherent", "distilled", "weak"])
    def test_outcome_counts_follow_the_joint_distribution(self, state):
        if state == "coherent":
            rho = coherent_state(math.sqrt(0.5), 16).density_matrix()
        elif state == "distilled":
            rho, _ = distilled_state(G2_CONFIG, math.sqrt(0.11), dim=16)
        else:
            rho = random_weak_state(np.random.default_rng(17))
        trials = 4_000_000
        eta, p_dark = 0.3, 2000.0 * 6.9e-6
        silent, alone, both = _click_outcomes(rho.populations(), eta, p_dark)
        expected = trials * np.array([silent, alone, alone, both]) / (silent + 2 * alone + both)
        counts = _outcome_counts(*sampled_clicks((silent, alone, both), trials, seed=51))
        assert counts.sum() == trials
        sigma = np.sqrt(expected * (1.0 - expected / trials))
        assert np.all(np.abs(counts - expected) <= 5.0 * sigma)

    def test_perfect_detectors_never_see_one_photon_twice(self):
        rho = fock_state(1, 4).density_matrix()
        cfg = HBTConfig(detector_efficiency=1.0, dark_count_rate=0.0, trials=300_000, seed=3)
        result = hbt_monte_carlo(rho, cfg)
        assert result.coincidences == 0
        assert result.g2_zero == 0.0
        assert sum(result.singles) == cfg.trials

    def test_longer_run_extends_shorter_one(self):
        pops = coherent_state(0.6, 10).density_matrix().populations()
        outcomes = _click_outcomes(pops, 0.4, 0.01)
        short = sampled_clicks(outcomes, MC_BLOCK, seed=9)
        long = sampled_clicks(outcomes, MC_BLOCK + 17, seed=9)
        again = sampled_clicks(outcomes, MC_BLOCK + 17, seed=9)
        for arm_short, arm_long, arm_again in zip(short, long, again):
            assert len(arm_long) == MC_BLOCK + 17
            np.testing.assert_array_equal(arm_long, arm_again)
            np.testing.assert_array_equal(arm_long[:MC_BLOCK], arm_short)


class TestStreamedCounts:
    # bright and lossless enough that most runs click, so every block edge
    # carries coincidences
    OUTCOMES = _click_outcomes(coherent_state(1.5, 16).density_matrix().populations(), 0.9, 0.2)

    @pytest.mark.parametrize("n_offsets", [0, 5])
    @pytest.mark.parametrize("trials", [3 * MC_BLOCK + 1, MC_BLOCK + 3, 7])
    def test_counts_equal_the_all_at_once_counter(self, trials, n_offsets):
        singles, counts = _count_clicks(self.OUTCOMES, trials, 4, n_offsets)
        ref_singles, ref_counts = all_at_once_counts(self.OUTCOMES, trials, 4, n_offsets)
        assert singles.tolist() == ref_singles
        assert counts.tolist() == ref_counts

    def test_offsets_longer_than_a_block_carry_across_blocks(self, monkeypatch):
        monkeypatch.setattr(photonstats, "MC_BLOCK", 16)
        for trials in (7, 16, 17, 49, 50):
            for n_offsets in range(trials):
                singles, counts = _count_clicks(self.OUTCOMES, trials, 2, n_offsets)
                ref_singles, ref_counts = all_at_once_counts(self.OUTCOMES, trials, 2, n_offsets)
                assert singles.tolist() == ref_singles
                assert counts.tolist() == ref_counts, (trials, n_offsets)

    def test_memory_does_not_grow_with_trials(self):
        peaks = []
        for trials in (MC_BLOCK, 3 * MC_BLOCK):
            tracemalloc.start()
            try:
                _count_clicks(self.OUTCOMES, trials, 1, 5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


class TestG2Curve:
    def test_curve_shape(self):
        cfg = HBTConfig(detector_efficiency=0.05, dark_count_rate=20.0,
                        coincidence_window=DARK_WINDOW)
        grid = [1e-3, 0.11, 0.5, 1.5, 2.5]
        rows = g2_curve(G2_CONFIG, grid, cfg)
        values = [row["g2_zero"] for row in rows]
        # stays sub-Poissonian at large intensity, rises monotonically there
        assert values[-1] < 1.0
        assert values[2] < values[3] < values[4]
        # dark-count floor at vanishing intensity
        assert values[0] > 0.01

    def test_dark_free_limit_vanishes(self):
        cfg = HBTConfig(detector_efficiency=0.05, dark_count_rate=0.0,
                        coincidence_window=DARK_WINDOW)
        rows = g2_curve(G2_CONFIG, [1e-3], cfg)
        assert rows[0]["g2_zero"] < 0.01

    def test_published_point_analytic(self):
        cfg = HBTConfig(detector_efficiency=0.05, dark_count_rate=20.0,
                        coincidence_window=DARK_WINDOW)
        rows = g2_curve(G2_CONFIG, [0.11], cfg)
        assert abs(rows[0]["g2_zero"] - 0.045) < 0.02


class TestG2CurveEquivalence:
    GRID = [0.0, 1e-3, 0.11, 0.5, 1.5, 2.5]

    def per_point(self, config, cfg, dim):
        """Reference: distilled_state plus the scalar g2 functions, point by point."""
        rows = []
        for alpha_sq in self.GRID:
            try:
                rho, _ = distilled_state(config, math.sqrt(alpha_sq), dim=dim)
            except EmptyBranchError:
                rows.append((math.nan, math.nan))
                continue
            g2_state = photon_statistics(rho).g2_zero
            rows.append((float(click_g2(rho.populations(), cfg.detector_efficiency,
                                        cfg.dark_probability)),
                         math.nan if g2_state is None else g2_state))
        return np.array(rows)

    @pytest.mark.parametrize("eps", [0.0, 0.013])
    def test_rows_equal_per_point_states(self, eps):
        config = DistillationConfig(params=G2_CONFIG.params, detection_error=eps,
                                    uncorrected_loss=0.135)
        # the paper's eta = 0.05 is test_paper_detector_relative
        cfg = HBTConfig(detector_efficiency=0.2, dark_count_rate=20.0,
                        coincidence_window=6.9e-6)
        rows = g2_curve(config, self.GRID, cfg)
        ref = self.per_point(config, cfg, 40)
        got = np.array([(row["g2_zero"], row["g2_state"]) for row in rows])
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        assert [row["alpha_sq"] for row in rows] == self.GRID
        assert math.isnan(rows[0]["stderr"]) and all(row["stderr"] == 0.0 for row in rows[1:])
        if eps == 0.0:
            assert np.isnan(got[0]).all()  # the empty odd herald at alpha^2 = 0

    def test_paper_detector_relative(self):
        cfg = HBTConfig(detector_efficiency=0.05, dark_count_rate=20.0,
                        coincidence_window=DARK_WINDOW)
        rows = g2_curve(G2_CONFIG, self.GRID[1:], cfg)
        ref = self.per_point(G2_CONFIG, cfg, 40)[1:]
        np.testing.assert_allclose([row["g2_zero"] for row in rows], ref[:, 0], rtol=1e-9)
        np.testing.assert_allclose([row["g2_state"] for row in rows], ref[:, 1], rtol=1e-12)


class TestBandwidthCheck:
    def test_reference_gaussian_pulse_is_narrow(self):
        result = bandwidth_check("gaussian", 2.3e-6, REFERENCE_PARAMS)
        assert result["valid"]
        assert abs(result["ratio"] - 0.192 / 2.5) < 0.01

    def test_short_rectangular_pulse_fails(self):
        result = bandwidth_check("rectangular", 10e-9, REFERENCE_PARAMS)
        assert not result["valid"]

    def test_long_pulse_limit(self):
        result = bandwidth_check("gaussian", 1.0, REFERENCE_PARAMS)
        assert result["valid"]
        assert result["ratio"] < 1e-6

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            bandwidth_check("triangle", 1e-6, REFERENCE_PARAMS)

    @pytest.mark.parametrize("width", [0.0, -1e-6, math.nan])
    def test_nonpositive_width(self, width):
        with pytest.raises(ValueError, match="width"):
            bandwidth_check("gaussian", width, REFERENCE_PARAMS)

    @pytest.mark.parametrize("kind", ["gaussian", "double_peak", "rectangular"])
    def test_ratio_keeps_its_evaluation_order(self, kind):
        # g2_summary.json prints the ratio to full precision, so its last bit counts
        width, kappa = 2.3e-6, REFERENCE_PARAMS.kappa
        if kind == "rectangular":
            expected = 0.886 / width / 1e6 / kappa
        else:
            expected = 2.0 * math.log(2.0) / (math.pi * width) / 1e6 / kappa
        assert bandwidth_check(kind, width, REFERENCE_PARAMS)["ratio"] == expected
