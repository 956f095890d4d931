import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import eval_genlaguerre, gammaln

import photondistill
from photondistill.fockspace import (
    DensityMatrix,
    _binomials,
    _coherent_amplitudes,
    coherent_state,
    fidelity,
    fock_state,
    photon_statistics,
    pure_loss_channel,
    quadrature_pdf,
    thermal_state,
    wigner,
)


def random_density(dim, seed):
    """Random full-rank state: normalized A A^dag for complex Gaussian A."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    M = A @ A.conj().T
    return DensityMatrix(dim, M / np.trace(M))


def reference_wigner(rho, q, p):
    """The (dim, dim, points) table formula the Clenshaw sum replaced.

    W = Re sum_mn rho_mn W_mn with W_mn = (-1)^n sqrt(2^d n!/m!) z^d
    L_n^(d)(2 r^2) exp(-r^2)/pi, z = q - ip, d = m - n >= 0, and
    W_nm = conj(W_mn).
    """
    q, p = np.broadcast_arrays(np.asarray(q, float), np.asarray(p, float))
    r2 = q * q + p * p
    z = q - 1j * p
    base = np.exp(-r2) / np.pi
    W = np.empty((rho.dim, rho.dim) + r2.shape, dtype=complex)
    for m in range(rho.dim):
        for n in range(m + 1):
            d = m - n
            log_coeff = 0.5 * (d * np.log(2.0) + gammaln(n + 1) - gammaln(m + 1))
            lag = eval_genlaguerre(n, d, 2.0 * r2)
            W[m, n] = base * (-1.0) ** n * np.exp(log_coeff) * z**d * lag
            if d:
                W[n, m] = np.conj(W[m, n])
    return np.einsum("mn,mn...->...", rho.elements, W).real


class TestCombinatorics:
    def test_binomials_match_math_comb(self):
        table = _binomials(90)
        exact = np.array([[float(math.comb(n, k)) for k in range(90)] for n in range(90)])
        # integers below 2^53 are exact, larger ones correct to rounding
        np.testing.assert_array_equal(table[:57, :57], exact[:57, :57])
        np.testing.assert_allclose(table, exact, rtol=1e-14, atol=0)
        assert not table.flags.writeable
        np.testing.assert_array_equal(_binomials(7), exact[:7, :7])

    def test_coherent_amplitudes_match_math_factorial(self):
        z = 1.7 * np.exp(0.4j)
        exact = np.array([z**n / math.sqrt(math.factorial(n)) for n in range(150)])
        np.testing.assert_allclose(_coherent_amplitudes(z, 150), exact, rtol=1e-13, atol=0)
        stacked = _coherent_amplitudes(np.array([0.0, z]), 4)
        np.testing.assert_allclose(stacked, [[1.0, 0.0, 0.0, 0.0], exact[:4]], rtol=1e-15)

    def test_large_coherent_state_keeps_its_norm(self):
        # amplitudes beyond n = 300, where sqrt(n!) alone overflows a double
        assert abs(coherent_state(20.0, 1600).norm - 1.0) < 1e-12

    def test_library_imports_no_scipy(self, tmp_path):
        # importing every module, then running every command at small sizes
        modules = ["photondistill"] + [f"photondistill.{name}" for name in
                                       ("fockspace", "distillation", "photonstats", "tomography",
                                        "calibration", "cli")]
        code = f"import sys, {', '.join(modules)}\n" + textwrap.dedent("""
            from photondistill.calibration import synthetic_observations
            from photondistill.cli import main
            from photondistill.presets import PRESETS

            def scipy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            print(scipy_modules())
            out = sys.argv[1]
            obs = synthetic_observations(PRESETS["reference"].params, (0.35, 0.013, 0.39),
                                         (0.1, 0.35, 0.85, 1.48, 2.61), noise=0.01, seed=1)
            with open(f"{out}/obs.csv", "w") as fh:
                fh.write("alpha_sq,p0,p1,p2\\n")
                fh.writelines(",".join(map(repr, row.tolist())) + "\\n" for row in obs)
            runs = [
                ["params"],
                ["sweep", "--grid", "0.1:1:3"],
                ["wigner", "--grid=-1:1:3", "--dim", "4"],
                ["g2", "--alpha-sq", "0.1", "--trials", "100", "--dim", "4", "--grid", "0.1:1:3"],
                ["tomography", "simulate", "--samples", "120", "--dim", "4"],
                ["tomography", "reconstruct", "--samples", f"{out}/4/samples.csv", "--dim", "4",
                 "--max-iter", "5"],
                ["fit", "--observations", f"{out}/obs.csv", "--restarts", "1"],
                ["budget"],
            ]
            print([main([*argv, "--out", f"{out}/{i}"]) for i, argv in enumerate(runs)])
            print(scipy_modules())
        """)
        src = str(Path(photondistill.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                              text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        lines = done.stdout.splitlines()
        assert lines[0] == "[]"  # after the imports
        assert lines[-2:] == ["[0, 0, 0, 0, 0, 4, 0, 0]", "[]"]  # after the commands


class TestCoherentState:
    def test_vacuum_limit(self):
        v = coherent_state(0.0, 10)
        expected = np.zeros(10)
        expected[0] = 1.0
        np.testing.assert_allclose(v.amplitudes, expected)

    def test_single_photon_probability_at_unit_intensity(self):
        # p1 = e^-1 for alpha^2 = 1, the best coherent approximation of |1>
        v = coherent_state(1.0, 20)
        assert abs(abs(v.amplitudes[1]) ** 2 - math.exp(-1)) < 1e-12

    def test_poisson_statistics(self):
        # independent oracle: Poisson weights from the series definition
        alpha = 0.7
        v = coherent_state(alpha, 20)
        n = np.arange(20)
        expected = np.exp(-(alpha**2)) * alpha ** (2 * n) / np.array(
            [math.factorial(int(k)) for k in n]
        )
        np.testing.assert_allclose(np.abs(v.amplitudes) ** 2, expected, atol=1e-15)
        assert 1.0 - v.norm**2 < 1e-15

    def test_complex_amplitude_phases(self):
        v = coherent_state(0.5j, 16)
        assert abs(v.amplitudes[1] / abs(v.amplitudes[1]) - 1j) < 1e-12

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            coherent_state(0.3, 1)

    def test_truncation_guard_warns(self):
        with pytest.warns(UserWarning):
            coherent_state(3.0, 10)


class TestPureLossChannel:
    def test_identity_at_full_transmission(self):
        rho = random_density(8, seed=1)
        out = pure_loss_channel(rho, 1.0)
        np.testing.assert_allclose(out.elements, rho.elements, atol=1e-14)

    def test_single_photon_binomial_split(self):
        rho = fock_state(1, 6).density_matrix()
        out = pure_loss_channel(rho, 0.5)
        expected = np.zeros(6)
        expected[0] = 0.5
        expected[1] = 0.5
        np.testing.assert_allclose(out.populations(), expected, atol=1e-14)

    def test_coherent_state_maps_to_attenuated_coherent(self):
        T = 0.749
        rho = coherent_state(0.8, 20).density_matrix()
        out = pure_loss_channel(rho, T)
        ref = coherent_state(0.8 * math.sqrt(T), 20).density_matrix()
        assert np.max(np.abs(out.elements - ref.elements)) < 1e-10

    def test_mean_photon_number_scales_with_transmission(self):
        rho = thermal_state(0.7, 25)
        mean_in = photon_statistics(rho).mean
        out = pure_loss_channel(rho, 0.3)
        assert abs(photon_statistics(out).mean - 0.3 * mean_in) < 1e-10

    def test_composition(self):
        # loss(T1) after loss(T2) equals loss(T1*T2)
        rho = random_density(10, seed=7)
        a = pure_loss_channel(pure_loss_channel(rho, 0.8), 0.6)
        b = pure_loss_channel(rho, 0.48)
        assert np.max(np.abs(a.elements - b.elements)) < 1e-10

    def test_outputs_satisfy_state_invariants(self):
        for seed, T in [(3, 0.9), (4, 0.5), (5, 0.05)]:
            out = pure_loss_channel(random_density(9, seed=seed), T)
            out.validate()

    def test_domain_error(self):
        rho = fock_state(0, 4).density_matrix()
        for T in (-0.1, 1.1):
            with pytest.raises(ValueError):
                pure_loss_channel(rho, T)


class TestWigner:
    def test_vacuum_origin(self):
        rho = fock_state(0, 12).density_matrix()
        assert abs(wigner(rho, 0.0, 0.0) - 1.0 / math.pi) < 1e-12

    def test_single_photon_negativity(self):
        rho = fock_state(1, 12).density_matrix()
        assert abs(wigner(rho, 0.0, 0.0) + 1.0 / math.pi) < 1e-12

    def test_even_mixture_cancels_at_origin(self):
        el = np.zeros((12, 12), dtype=complex)
        el[0, 0] = el[1, 1] = 0.5
        assert abs(wigner(DensityMatrix(12, el), 0.0, 0.0)) < 1e-14

    def test_origin_equals_parity_sum(self):
        # independent identity: W(0,0) = (1/pi) sum_n (-1)^n rho_nn
        for seed in (11, 12, 13):
            rho = random_density(14, seed=seed)
            parity = np.sum((-1.0) ** np.arange(14) * rho.populations()) / math.pi
            assert abs(wigner(rho, 0.0, 0.0) - parity) < 1e-10

    def test_normalization_on_grid(self):
        x = np.linspace(-6, 6, 241)
        X, P = np.meshgrid(x, x, indexing="ij")
        for rho in (coherent_state(0.9, 18).density_matrix(), thermal_state(0.4, 18)):
            W = wigner(rho, X, P)
            total = trapezoid(trapezoid(W, x, axis=1), x)
            assert abs(total - 1.0) < 1e-4

    def test_coherent_state_is_displaced_gaussian(self):
        beta = 0.6
        rho = coherent_state(beta, 20).density_matrix()
        x = np.linspace(-3, 3, 41)
        W = wigner(rho, x, np.zeros_like(x))
        ref = np.exp(-((x - math.sqrt(2) * beta) ** 2)) / math.pi
        np.testing.assert_allclose(W, ref, atol=1e-9)

    def test_marginal_reproduces_quadrature_pdf(self):
        # integrate W over p along a rotated axis, compare with pdf(x, theta)
        p = np.linspace(-6, 6, 501)
        xs = np.linspace(-2.5, 2.5, 11)
        states = [
            fock_state(1, 12).density_matrix(),
            coherent_state(0.8, 16).density_matrix(),
            thermal_state(0.5, 16),
        ]
        for theta in (0.0, 0.7):
            c, s = math.cos(theta), math.sin(theta)
            for rho in states:
                for x0 in xs:
                    q_pts = x0 * c - p * s
                    p_pts = x0 * s + p * c
                    marg = trapezoid(wigner(rho, q_pts, p_pts), p)
                    assert abs(marg - quadrature_pdf(rho, theta, x0)[0]) < 1e-4


class TestWignerAgainstTable:
    AXIS = np.linspace(-4.0, 4.0, 41)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_random_states_with_coherences(self, seed):
        rho = random_density(12, seed=seed)
        Q, P = np.meshgrid(self.AXIS, self.AXIS, indexing="ij")
        np.testing.assert_allclose(wigner(rho, Q, P), reference_wigner(rho, Q, P),
                                   rtol=0, atol=1e-12)

    def test_non_hermitian_input_keeps_real_part_rule(self):
        rng = np.random.default_rng(24)
        el = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho = DensityMatrix(12, el / np.trace(el))
        Q, P = np.meshgrid(self.AXIS, self.AXIS, indexing="ij")
        np.testing.assert_allclose(wigner(rho, Q, P), reference_wigner(rho, Q, P),
                                   rtol=0, atol=1e-12)

    def test_scalar_points_and_broadcasting(self):
        rho = random_density(12, seed=25)
        for q, p in ((0.0, 0.0), (0.7, -1.3), (-2.2, 0.4)):
            value = wigner(rho, q, p)
            assert isinstance(value, float)
            assert abs(value - float(reference_wigner(rho, q, p))) < 1e-12
        row = wigner(rho, self.AXIS[:, None], self.AXIS[None, :3])
        assert row.shape == (41, 3)
        np.testing.assert_allclose(
            row, reference_wigner(rho, self.AXIS[:, None], self.AXIS[None, :3]), atol=1e-12)

    def test_memory_is_per_point_not_per_element(self):
        # a (20, 20, 201^2) complex table is 16 * 400 * 40401 B = 259 MB
        axis = np.linspace(-3.0, 3.0, 201)
        Q, P = np.meshgrid(axis, axis, indexing="ij")
        rho = random_density(20, seed=26)
        tracemalloc.start()
        try:
            wigner(rho, Q, P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 201 * 201 * 20  # 20 complex grids = 13 MB


class TestQuadraturePdf:
    def test_vacuum_gaussian(self):
        rho = fock_state(0, 10).density_matrix()
        x = np.linspace(-4, 4, 81)
        ref = np.exp(-(x**2)) / math.sqrt(math.pi)
        np.testing.assert_allclose(quadrature_pdf(rho, 0.3, x), ref, atol=1e-12)

    def test_single_photon_node(self):
        rho = fock_state(1, 10).density_matrix()
        assert quadrature_pdf(rho, 1.1, 0.0)[0] < 1e-14

    def test_diagonal_state_phase_invariant(self):
        rho = thermal_state(0.6, 15)
        x = np.linspace(-3, 3, 31)
        a = quadrature_pdf(rho, 0.0, x)
        b = quadrature_pdf(rho, 2.1, x)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_normalization(self):
        x = np.linspace(-8, 8, 2001)
        rho = coherent_state(1.1, 25).density_matrix()
        total = trapezoid(quadrature_pdf(rho, 0.4, x), x)
        assert abs(total - 1.0) < 1e-6

    def test_coherent_mean(self):
        x = np.linspace(-8, 8, 2001)
        pdf = quadrature_pdf(coherent_state(1.0, 25).density_matrix(), 0.0, x)
        mean = trapezoid(x * pdf, x)
        assert abs(mean - math.sqrt(2)) < 1e-6


class TestPhotonStatistics:
    def test_coherent_is_poissonian(self):
        stats = photon_statistics(coherent_state(0.6, 20).density_matrix())
        assert abs(stats.g2_zero - 1.0) < 1e-8
        assert abs(stats.mean - 0.36) < 1e-10

    def test_single_photon(self):
        stats = photon_statistics(fock_state(1, 8).density_matrix())
        assert stats.g2_zero == 0.0

    def test_thermal_bunching(self):
        # geometric distribution gives g2 = 2 up to a truncated tail
        stats = photon_statistics(thermal_state(0.5, 40))
        assert abs(stats.g2_zero - 2.0) < 1e-3

    def test_vacuum_undefined_marker(self):
        stats = photon_statistics(fock_state(0, 5).density_matrix())
        assert stats.g2_zero is None
        assert stats.mean == 0.0

    def test_probabilities_sum_to_one(self):
        stats = photon_statistics(random_density(12, seed=21))
        assert abs(stats.probabilities.sum() - 1.0) < 1e-9


class TestFidelity:
    def test_identical_states(self):
        rho = random_density(8, seed=31)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-9

    def test_orthogonal_states(self):
        a = fock_state(0, 6).density_matrix()
        b = fock_state(3, 6).density_matrix()
        assert fidelity(a, b) < 1e-12

    def test_pure_state_overlap(self):
        a = coherent_state(0.4, 20)
        b = coherent_state(0.9, 20)
        expected = abs(np.vdot(a.amplitudes / a.norm, b.amplitudes / b.norm)) ** 2
        assert abs(fidelity(a.density_matrix(), b.density_matrix()) - expected) < 1e-9


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        el = np.eye(4, dtype=complex)
        el[0, 1] = 0.2
        with pytest.raises(ValueError):
            DensityMatrix(4, el / np.trace(el)).validate()

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(4, 2.0 * np.eye(4) / 4).validate()

    def test_rejects_negative_eigenvalue(self):
        el = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(4, el).validate()
