import csv
import io
import math

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import gammaln

from photondistill.cavity import CavityParams
from photondistill.distillation import DistillationConfig, distilled_state
from photondistill.errors import IllConditionedError
from photondistill.fockspace import (
    DensityMatrix,
    coherent_state,
    fidelity,
    fock_state,
    pure_loss_channel,
    wigner,
)
from photondistill.tomography import (
    CSV_BLOCK,
    N_EDGES,
    X_RANGE,
    _bin_counts,
    _bin_matrices,
    _efficiency_adjusted,
    loss_correct,
    mle_reconstruct,
    quadrature_record,
    read_samples_csv,
    sample_homodyne,
    write_samples_csv,
)

PHASES_12 = [k * math.pi / 12 for k in range(12)]


def reference_bin_counts(pairs):
    """Per-sample scalar binning rule, the reference for `_bin_counts`."""
    thetas = sorted({t for t, _ in pairs})
    theta_index = {t: i for i, t in enumerate(thetas)}
    edges = np.linspace(*X_RANGE, N_EDGES)
    counts = np.zeros((len(thetas), N_EDGES - 1))
    for t, xv in pairs:
        b = int(np.clip(np.searchsorted(edges, xv, side="right") - 1, 0, N_EDGES - 2))
        counts[theta_index[t], b] += 1.0
    return np.array(thetas), counts


def reference_mle(pairs, dim, efficiency, max_iter, tol):
    """The einsum form of the EM loop, the oracle for the matmul form."""
    thetas, counts = reference_bin_counts(pairs)
    freqs = counts / counts.sum()
    G = _efficiency_adjusted(_bin_matrices(dim, np.linspace(*X_RANGE, N_EDGES)), efficiency)
    phase = np.exp(1j * np.outer(thetas, np.arange(dim)))
    hit = freqs > 0
    rho = np.eye(dim, dtype=complex) / dim
    trace = []
    converged = False
    for iterations in range(1, max_iter + 1):
        twisted = phase.conj()[:, :, None] * rho[None, :, :].transpose(0, 2, 1) * phase[:, None, :]
        pr = np.clip(np.einsum("lmn,jmn->jl", G, twisted).real, 1e-300, None)
        trace.append(float(np.sum(freqs[hit] * np.log(pr[hit]))))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break
        weights = np.where(hit, freqs / pr, 0.0)
        R_real = np.einsum("jl,lmn->jmn", weights, G)
        R = np.einsum("jm,jmn,jn->mn", phase.conj(), R_real, phase)
        rho = R @ rho @ R
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
    return rho, trace, iterations, converged


def reference_loss_correct_kernel(el, loss):
    """Double-loop inverse-Bernoulli sum, before clipping and normalization."""
    dim = el.shape[0]
    T = 1.0 - loss
    out = np.zeros_like(el)
    for m in range(dim):
        for nn in range(dim):
            kk = np.arange(dim - max(m, nn))
            log_c = 0.5 * (
                gammaln(m + kk + 1) - gammaln(kk + 1) - gammaln(m + 1)
                + gammaln(nn + kk + 1) - gammaln(kk + 1) - gammaln(nn + 1)
            )
            coeff = np.exp(log_c - 0.5 * (m + nn) * math.log(T)) * (-loss / T) ** kk
            out[m, nn] = np.sum(coeff * el[m + kk, nn + kk])
    return out


def csv_writer_bytes(samples):
    """The samples.csv format as csv.writer produces it."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["theta", "x"])
    for theta, x in zip(samples.theta, samples.x):
        writer.writerow([f"{theta:.12g}", f"{x:.12g}"])
    return buf.getvalue().encode()


def distilled_test_state(dim=14):
    params = CavityParams(
        g=7.8, kappa=2.5, kappa_r=2.3, kappa_t=0.2, kappa_m=0.0, gamma=3.0, delta_c=0.39
    )
    config = DistillationConfig(
        params=params, detection_error=0.013, uncorrected_loss=0.135, downstream_loss=0.251
    )
    rho, _ = distilled_state(config, math.sqrt(0.31), dim=dim, corrected=True)
    return rho


class TestSampleHomodyne:
    def test_vacuum_variance(self):
        rho = fock_state(0, 8).density_matrix()
        xs = np.array([s.x for s in sample_homodyne(rho, [0.0], 100_000, seed=11)])
        assert abs(xs.var() - 0.5) < 0.005
        assert abs(xs.mean()) < 0.01

    def test_single_photon_variance(self):
        # oracle: <x^2> of psi_1 computed by quadrature
        from photondistill.fockspace import quadrature_pdf

        rho = fock_state(1, 8).density_matrix()
        grid = np.linspace(-8, 8, 4001)
        expected = trapezoid(grid**2 * quadrature_pdf(rho, 0.0, grid), grid)
        assert abs(expected - 1.5) < 1e-9
        xs = np.array([s.x for s in sample_homodyne(rho, [0.3], 100_000, seed=12)])
        assert abs(xs.var() - expected) < 0.02

    def test_coherent_displacement_convention(self):
        rho = coherent_state(1.0, 20).density_matrix()
        xs = np.array([s.x for s in sample_homodyne(rho, [0.0], 100_000, seed=13)])
        assert abs(xs.mean() - math.sqrt(2)) < 0.01

    def test_efficiency_attenuates_displacement(self):
        rho = coherent_state(1.0, 20).density_matrix()
        eta = 0.49
        xs = np.array([s.x for s in sample_homodyne(rho, [0.0], 50_000, efficiency=eta, seed=14)])
        assert abs(xs.mean() - math.sqrt(2 * eta)) < 0.02

    def test_deterministic_given_seed(self):
        rho = coherent_state(0.5, 12).density_matrix()
        a = sample_homodyne(rho, [0.0, 1.0], 50, seed=21)
        b = sample_homodyne(rho, [0.0, 1.0], 50, seed=21)
        assert np.array_equal(a, b)
        c = sample_homodyne(rho, [0.0, 1.0], 50, seed=22)
        assert not np.array_equal(a, c)

    def test_empty_phase_list_rejected(self):
        rho = fock_state(0, 6).density_matrix()
        with pytest.raises(ValueError):
            sample_homodyne(rho, [], 10)


class TestMLEReconstruct:
    def test_vacuum_reconstruction(self):
        rho = fock_state(0, 8).density_matrix()
        samples = sample_homodyne(rho, PHASES_12, 2_000, seed=31)
        result = mle_reconstruct(samples, dim=6, max_iter=300)
        assert result.rho.populations()[0] >= 0.99

    def test_coherent_round_trip(self):
        truth = coherent_state(0.7, 16).density_matrix()
        samples = sample_homodyne(truth, PHASES_12, 200_000 // 12, seed=32)
        result = mle_reconstruct(samples, dim=10, max_iter=600, tol=1e-10)
        truth10 = coherent_state(0.7, 10).density_matrix()
        assert fidelity(result.rho, truth10) >= 0.99

    def test_likelihood_monotone(self):
        truth = distilled_test_state()
        samples = sample_homodyne(truth, PHASES_12, 3_000, seed=33)
        result = mle_reconstruct(samples, dim=10, max_iter=400)
        trace = np.array(result.log_likelihood_trace)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_efficiency_adjusted_round_trip(self):
        # lossy detection, efficiency folded into the POVM
        truth = distilled_test_state()
        eta = 0.749
        samples = sample_homodyne(truth, PHASES_12, 200_000 // 12, efficiency=eta, seed=34)
        result = mle_reconstruct(samples, dim=10, efficiency=eta, max_iter=1500, tol=1e-11)
        pops_t = truth.populations()[:5]
        pops_r = result.rho.populations()[:5]
        assert np.max(np.abs(pops_t - pops_r)) < 0.02

    def test_povm_efficiency_vs_post_correction_agree(self):
        truth = distilled_test_state()
        eta = 0.8
        samples = sample_homodyne(truth, PHASES_12, 120_000 // 12, efficiency=eta, seed=35)
        in_povm = mle_reconstruct(samples, dim=10, efficiency=eta, max_iter=1200, tol=1e-11)
        raw = mle_reconstruct(samples, dim=10, efficiency=1.0, max_iter=1200, tol=1e-11)
        corrected = loss_correct(raw.rho, 1.0 - eta)
        assert np.max(np.abs(in_povm.rho.populations() - corrected.populations())) < 0.02

    def test_complex_coherences_keep_phase_sign(self):
        # regression: a sampler/POVM sign mismatch reconstructs the conjugate
        truth = coherent_state(0.5 * np.exp(1j * math.pi / 3), 12).density_matrix()
        samples = sample_homodyne(truth, [k * math.pi / 6 for k in range(6)], 20_000, seed=61)
        result = mle_reconstruct(samples, dim=8, max_iter=800)
        truth8 = DensityMatrix(8, truth.elements[:8, :8]).normalized()
        assert fidelity(result.rho, truth8) > 0.98
        assert result.rho.elements[0, 1].imag * truth8.elements[0, 1].imag > 0

    def test_reconstructed_wigner_minimum_of_lossed_single_photon(self):
        eta = 0.8
        truth = pure_loss_channel(fock_state(1, 10).density_matrix(), eta)
        samples = sample_homodyne(truth, PHASES_12, 150_000 // 12, seed=36)
        result = mle_reconstruct(samples, dim=8, max_iter=600)
        expected = (1.0 - 2.0 * eta) / math.pi
        assert abs(wigner(result.rho, 0.0, 0.0) - expected) < 0.02

    def test_degenerate_samples_flagged(self):
        samples = [(0.0, 0.5)] * 500
        result = mle_reconstruct(samples, dim=6, max_iter=40)
        assert not result.converged
        assert result.iterations == 40

    def test_accepts_plain_tuples(self):
        rho = fock_state(0, 6).density_matrix()
        phases = [k * math.pi / 6 for k in range(6)]
        pairs = [(s.theta, s.x) for s in sample_homodyne(rho, phases, 400, seed=37)]
        result = mle_reconstruct(pairs, dim=5, max_iter=300)
        assert result.rho.populations()[0] > 0.95


    def test_matmul_em_matches_einsum_reference(self):
        truth = distilled_test_state(dim=10)
        samples = sample_homodyne(truth, PHASES_12[::2], 2_000, efficiency=0.8, seed=38)
        result = mle_reconstruct(samples, dim=7, efficiency=0.8, max_iter=400, tol=1e-8)
        rho, trace, iterations, converged = reference_mle(
            list(zip(samples.theta, samples.x)), 7, 0.8, 400, 1e-8)
        assert result.iterations == iterations
        assert result.converged == converged
        assert converged and iterations < 400
        np.testing.assert_allclose(result.log_likelihood_trace, trace, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.rho.elements, rho, rtol=0, atol=1e-12)


class TestBinning:
    def test_edges_range_and_turns_match_scalar_rule(self):
        edges = np.linspace(*X_RANGE, N_EDGES)
        xs = np.concatenate([
            edges[[0, 1, 2, 399, 400, 401, N_EDGES - 2, N_EDGES - 1]],
            [-6.0, 6.0, -6.0 - 1e-12, 6.0 + 1e-12, -7.0, 7.5, -1e9, 1e9, 0.0, 0.0123],
        ])
        # dyadic phases, so theta +- 2 pi reduces back to theta exactly
        base = [0.0, 0.5, 1.25]
        thetas = [t + turn for t in base for turn in (0.0, 2 * math.pi, -2 * math.pi)]
        record = quadrature_record(np.repeat(thetas, len(xs)), np.tile(xs, len(thetas)))
        got_thetas, got = _bin_counts(record)
        want_thetas, want = reference_bin_counts(list(zip(record.theta, record.x)))
        np.testing.assert_array_equal(got_thetas, want_thetas)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_thetas, base)
        assert np.all(got.sum(axis=1) == 3 * len(xs))
        assert got[0, 0] == 3 * 5 and got[0, -1] == 3 * 6  # ends of X_RANGE and beyond

    def test_reconstruction_merges_whole_turns(self):
        rho = fock_state(0, 6).density_matrix()
        samples = sample_homodyne(rho, [0.0, 0.5], 300, seed=39)
        shifted = [(t + 2 * math.pi, x) for t, x in zip(samples.theta, samples.x)]
        a = mle_reconstruct(samples, dim=5, max_iter=50)
        b = mle_reconstruct(shifted, dim=5, max_iter=50)
        assert a.log_likelihood_trace == b.log_likelihood_trace
        np.testing.assert_array_equal(a.rho.elements, b.rho.elements)


class TestLossCorrect:
    def test_zero_loss_identity(self):
        rho = coherent_state(0.6, 10).density_matrix()
        out = loss_correct(rho, 0.0)
        np.testing.assert_allclose(out.elements, rho.elements, atol=1e-14)

    def test_two_level_analytic_inversion(self):
        lossy = DensityMatrix(6, np.diag([0.251, 0.749, 0, 0, 0, 0]).astype(complex))
        out = loss_correct(lossy, 0.251)
        expected = fock_state(1, 6).density_matrix()
        assert np.max(np.abs(out.elements - expected.elements)) < 1e-8

    def test_round_trip_on_random_state(self):
        rng = np.random.default_rng(41)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        M = A @ A.conj().T
        rho = DensityMatrix(4, M / np.trace(M))
        L = 0.3
        back = loss_correct(pure_loss_channel(rho, 1.0 - L), L)
        assert np.max(np.abs(back.elements - rho.elements)) < 1e-8

    def test_forward_inverse_on_in_image_state(self):
        # applying the loss channel to the corrected state recovers the input,
        # provided the input actually is a lossy state (no PSD clipping)
        L = 0.25
        lossy = pure_loss_channel(coherent_state(0.9, 12).density_matrix(), 0.6)
        forward = pure_loss_channel(loss_correct(lossy, L), 1.0 - L)
        assert np.max(np.abs(forward.elements - lossy.elements)) < 1e-8

    def test_full_loss_rejected(self):
        rho = fock_state(0, 4).density_matrix()
        with pytest.raises(ValueError):
            loss_correct(rho, 1.0)

    def test_kernel_matches_double_loop(self):
        rng = np.random.default_rng(42)
        for loss in (0.05, 0.2, 0.35):
            A = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
            M = A @ A.conj().T
            rho = DensityMatrix(12, M / np.trace(M))
            out = reference_loss_correct_kernel(rho.elements, loss)
            out = 0.5 * (out + out.conj().T)
            ev, V = np.linalg.eigh(out)
            want = (V * np.clip(ev, 0.0, None)) @ V.conj().T
            want /= np.trace(want).real
            got = loss_correct(rho, loss).elements
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_ill_conditioned_raises(self):
        rho = fock_state(0, 40).density_matrix()
        with pytest.raises(IllConditionedError):
            loss_correct(rho, 0.9)


class TestSampleIO:
    def test_csv_round_trip(self, tmp_path):
        rho = coherent_state(0.4, 10).density_matrix()
        samples = sample_homodyne(rho, [0.0, 0.7], 25, seed=51)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, samples)
        loaded = read_samples_csv(path)
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert abs(a.theta - b.theta) < 1e-10
            assert abs(a.x - b.x) < 1e-10

    def test_csv_bytes_match_csv_writer_format(self, tmp_path):
        samples = quadrature_record(
            [0.0, 0.1, 1.0 / 3.0, 2.0, 3.14159265358979, 6.2, 4.0, 0.25],
            [-0.0, 1e-5, -1.0 / 3.0, 123456789012345.0, 2.5e-300, -5.999999999999, 6.0, 1e20],
        )
        path = tmp_path / "samples.csv"
        write_samples_csv(path, samples)
        assert path.read_bytes() == csv_writer_bytes(samples)
        assert path.read_bytes().startswith(b"theta,x\r\n0,-0\r\n0.1,1e-05\r\n")

    def test_read_write_round_trips_bytes(self, tmp_path):
        # more rows than one CSV_BLOCK, so block boundaries are covered
        rho = coherent_state(0.4, 10).density_matrix()
        samples = sample_homodyne(rho, PHASES_12, CSV_BLOCK // 6 + 1, seed=52)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(first, samples)
        assert first.read_bytes() == csv_writer_bytes(samples)
        write_samples_csv(second, read_samples_csv(first))
        assert second.read_bytes() == first.read_bytes()

    def test_columns_picked_by_header_name(self, tmp_path):
        path = tmp_path / "swapped.csv"
        path.write_text("x,theta\r\n0.5,1.0\r\n-1.25,0.25\r\n", newline="")
        loaded = read_samples_csv(path)
        np.testing.assert_array_equal(loaded.theta, [1.0, 0.25])
        np.testing.assert_array_equal(loaded.x, [0.5, -1.25])

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta,y\n0.5,1.0\n")
        with pytest.raises(ValueError, match="'x'"):
            read_samples_csv(path)

    def test_header_only_reads_empty_record(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_samples_csv(path, quadrature_record([], []))
        assert path.read_bytes() == b"theta,x\r\n"
        assert len(read_samples_csv(path)) == 0
