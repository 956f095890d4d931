"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line with the computed values (run with -s or
check the captured output).  Fixed seeds make every number reproducible.
"""

import math

import numpy as np

from photondistill.calibration import (
    LossBudget,
    combine_losses,
    fit_imperfections,
    residual_loss,
    synthetic_observations,
)
from photondistill.cavity import branch_amplitudes, cooperativity, f1_max, xi
from photondistill.distillation import (
    DistillationConfig,
    distill_coherent,
    distill_general,
    distilled_state,
    distilled_state_general,
    herald_output,
    multi_photon_suppression,
    single_photon_fidelity,
)
from photondistill.fockspace import (
    DensityMatrix,
    coherent_state,
    fidelity,
    fock_state,
    photon_statistics,
    pure_loss_channel,
    wigner,
)
from photondistill.photonstats import DARK_WINDOW_WIDTHS, HBTConfig, hbt_monte_carlo
from photondistill.presets import PRESETS, budget_csv_path
from photondistill.tomography import mle_reconstruct, sample_homodyne

REFERENCE = PRESETS["reference"]
REFERENCE_G2 = PRESETS["reference-g2"]
FIBER = PRESETS["fiber"]


def test_criterion_1_cavity_constants():
    C = cooperativity(REFERENCE.params)
    x = xi(REFERENCE.params)
    f1 = f1_max(REFERENCE.params)
    assert abs(C - 4.06) <= 0.01
    assert abs(x - 0.819) <= 0.001
    assert abs(f1 - 0.819) <= 0.001
    assert f1 == x
    print(f"PASS 1: cavity constants C={C:.4f}, xi=f1_max={x:.4f}")


def test_criterion_2_fiber_prediction():
    f1 = f1_max(FIBER.params)
    assert abs(f1 - 0.959) <= 0.005
    print(f"PASS 2: fiber-resonator prediction f1_max={f1:.4f} "
          f"(kappa_r={FIBER.params.kappa_r:.1f}, kappa={FIBER.params.kappa:.1f})")


def test_criterion_3_loss_arithmetic():
    total = combine_losses(LossBudget.from_csv(budget_csv_path()))
    resid = residual_loss(0.352, 0.251)
    assert abs(total - 0.251) <= 0.001
    assert abs(resid - 0.135) <= 0.001
    print(f"PASS 3: budget total={total:.4f}, residual loss={resid:.4f}")


def test_criterion_4_oracle_equivalence():
    worst = 0.0
    for alpha_sq in (0.1, 0.5, 1.0, 2.5):
        # input truncation chosen so its discarded tail stays below the
        # 1e-10 comparison tolerance; compared states live in dim 20
        dim_in = 20 if alpha_sq <= 1.0 else 32
        rho_in = coherent_state(math.sqrt(alpha_sq), dim_in).density_matrix()
        for parity in ("odd", "even"):
            general, _ = distill_general(rho_in, REFERENCE, parity)
            closed = distill_coherent(REFERENCE, math.sqrt(alpha_sq), parity, dim=20)
            dev = float(np.max(np.abs(general.elements[:20, :20] - closed.elements)))
            worst = max(worst, dev)
            assert dev < 1e-10
    print(f"PASS 4: Kraus map vs closed form, worst deviation {worst:.2e}")


def _corrected_curve(grid, dim=18):
    rows = []
    for alpha_sq in grid:
        rho, _ = distilled_state(REFERENCE, math.sqrt(alpha_sq), dim=dim, corrected=True)
        rows.append(
            (alpha_sq, single_photon_fidelity(rho), multi_photon_suppression(rho))
        )
    return rows


def test_criterion_5_headline_fidelity():
    grid = np.arange(0.05, 2.51, 0.05)
    rows = _corrected_curve(grid)
    plateau = [r for r in rows if r[0] <= 0.8]
    best = max(plateau, key=lambda r: r[1])
    at_031 = min(rows, key=lambda r: abs(r[0] - 0.31))
    assert abs(best[1] - 0.66) <= 0.03
    assert abs(at_031[1] - 0.66) <= 0.03
    print(f"PASS 5: plateau F1 max={best[1]:.4f} at alpha^2={best[0]:.2f}, "
          f"F1(0.31)={at_031[1]:.4f}")


def test_criterion_6_multi_photon_suppression():
    grid = np.arange(0.05, 1.51, 0.05)
    rows = _corrected_curve(grid)
    operating = [
        r for r in rows if abs(r[1] - 0.66) <= 0.03 and abs(r[2] - 0.955) <= 0.015
    ]
    assert operating, "no operating point satisfies both headline figures"
    alpha_sq, f1, supp = min(operating, key=lambda r: abs(r[2] - 0.955))
    print(f"PASS 6: operating point alpha^2={alpha_sq:.2f}: F1={f1:.4f}, "
          f"suppression={supp:.4f} (absolute definition)")


def test_criterion_7_impure_source_boost():
    el = np.zeros((12, 12), dtype=complex)
    el[0, 0] = 0.44
    el[1, 1] = 0.56
    source = DensityMatrix(12, el)
    config = DistillationConfig(
        params=REFERENCE.params,  # delta_c = 0.39
        detection_error=0.013,
        uncorrected_loss=0.135,
        downstream_loss=0.0,
    )
    rho, p_herald = distilled_state_general(source, config, "odd")
    f1 = single_photon_fidelity(rho)
    assert abs(f1 - 0.701) <= 0.02
    assert abs(p_herald - 0.452) <= 0.02
    print(f"PASS 7: impure source boosted to F1={f1:.4f} with P(up)={p_herald:.4f}")


def test_criterion_8_g2():
    coherent_g2 = photon_statistics(coherent_state(1.0, 30).density_matrix()).g2_zero
    assert abs(coherent_g2 - 1.0) <= 1e-3

    rho, _ = distilled_state(REFERENCE_G2, math.sqrt(0.11), dim=16)
    cfg = HBTConfig(
        detector_efficiency=0.05,
        dark_count_rate=20.0,
        coincidence_window=DARK_WINDOW_WIDTHS * 2.3e-6,
        trials=10_000_000,
        seed=2024,
    )
    result = hbt_monte_carlo(rho, cfg, n_offsets=5)
    assert abs(result.g2_zero - 0.045) <= 0.02
    for tau in range(1, 6):
        assert abs(result.g2_tau[tau] - 1.0) <= 0.05
    print(f"PASS 8: coherent g2={coherent_g2:.6f}; MC g2(0)={result.g2_zero:.4f} "
          f"+- {result.stderr:.4f}, g2(tau!=0) in "
          f"[{result.g2_tau[1:].min():.3f}, {result.g2_tau[1:].max():.3f}]")


def test_criterion_9_wigner():
    single = fock_state(1, 16).density_matrix()
    origin = wigner(single, 0.0, 0.0)
    parity_value = float(
        np.sum((-1.0) ** np.arange(16) * single.populations()) / math.pi
    )
    assert abs(origin + 1.0 / math.pi) < 1e-10
    assert abs(origin - parity_value) < 1e-10

    axis = np.linspace(-2.5, 2.5, 61)
    Q, P = np.meshgrid(axis, axis, indexing="ij")
    corrected, _ = distilled_state(REFERENCE, math.sqrt(0.31), dim=18, corrected=True)
    w_corr = float(wigner(corrected, Q, P).min())
    assert w_corr <= -0.10
    uncorrected, _ = distilled_state(REFERENCE, math.sqrt(0.31), dim=18, corrected=False)
    w_unc = float(wigner(uncorrected, Q, P).min())
    assert abs(w_unc - (-0.016)) <= 0.012
    print(f"PASS 9: W(0,0)|1> = -1/pi exactly; corrected min={w_corr:.4f}, "
          f"uncorrected min={w_unc:.4f}")


def test_criterion_10_tomography_round_trip():
    truth, _ = distilled_state(REFERENCE, math.sqrt(0.31), dim=14, corrected=True)
    eta = 0.749
    phases = [k * math.pi / 12 for k in range(12)]
    samples = sample_homodyne(truth, phases, 200_000 // 12, efficiency=eta, seed=77)
    result = mle_reconstruct(samples, dim=10, efficiency=eta, max_iter=2000, tol=1e-11)
    trace = np.array(result.log_likelihood_trace)
    assert np.all(np.diff(trace) >= -1e-12)
    truth10 = DensityMatrix(10, truth.elements[:10, :10])
    truth10 = truth10.normalized()
    F = fidelity(result.rho, truth10)
    assert F >= 0.99
    print(f"PASS 10: reconstruction fidelity={F:.4f} after {result.iterations} "
          f"iterations, likelihood monotone")


def test_criterion_11_fit_round_trip():
    truth = (0.352, 0.013, 0.39)
    obs = synthetic_observations(
        REFERENCE.params.replace(delta_c=0.0),
        truth,
        (0.1, 0.35, 0.85, 1.48, 2.61),
        noise=0.01,
        seed=5,
    )
    result = fit_imperfections(obs, REFERENCE.params.replace(delta_c=0.0), seed=6)
    assert abs(result.loss - truth[0]) <= 0.02
    assert abs(result.epsilon - truth[1]) <= 0.005
    assert abs(result.delta_c - truth[2]) <= 0.2
    print(f"PASS 11: fit recovered loss={result.loss:.4f}, eps={result.epsilon:.4f}, "
          f"delta_c={result.delta_c:.3f}")


def test_criterion_12_property_suites():
    rng = np.random.default_rng(2718)

    # loss-channel outputs satisfy the state invariants and compose
    for _ in range(3):
        A = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        M = A @ A.conj().T
        rho = DensityMatrix(10, M / np.trace(M))
        T1, T2 = rng.uniform(0.2, 0.95, size=2)
        out = pure_loss_channel(rho, T1)
        out.validate()
        twice = pure_loss_channel(out, T2)
        once = pure_loss_channel(rho, T1 * T2)
        assert np.max(np.abs(twice.elements - once.elements)) < 1e-10

    # heralded recombination reproduces the unconditioned reflected light
    for _ in range(3):
        alpha = rng.uniform(0.3, 1.2)
        config = DistillationConfig(
            params=REFERENCE.params.replace(delta_c=rng.uniform(-0.5, 0.5)),
            uncorrected_loss=rng.uniform(0.0, 0.4),
        )
        out = herald_output(config, alpha, dim=18)
        out.rho_odd.validate(psd_tol=1e-9)
        out.rho_even.validate(psd_tol=1e-9)
        recombined = out.p_up * out.rho_odd.elements + out.p_down * out.rho_even.elements
        nu = math.sqrt(1.0 - config.uncorrected_loss)
        vu = coherent_state(nu * branch_amplitudes(config.params, True, alpha).r, 18).amplitudes
        vd = coherent_state(nu * branch_amplitudes(config.params, False, alpha).r, 18).amplitudes
        expected = 0.5 * (np.outer(vu, vu.conj()) + np.outer(vd, vd.conj()))
        assert np.max(np.abs(recombined - expected)) < 1e-8

    # parity purity in the ideal limit
    from photondistill.cavity import CavityParams

    ideal = DistillationConfig(
        params=CavityParams.from_decays(g=1e7, kappa_r=2.5, kappa_t=0.0, kappa_m=0.0, gamma=3.0)
    )
    out = herald_output(ideal, 0.9, dim=18)
    assert np.all(out.rho_odd.populations()[::2] < 1e-12)
    assert np.all(out.rho_even.populations()[1::2] < 1e-12)

    # g2 estimator invariance under detector efficiency, at the published
    # weak-excitation point (threshold detectors saturate for bright light)
    rho, _ = distilled_state(REFERENCE_G2, math.sqrt(0.11), dim=16)
    results = []
    for eta, seed in ((1.0, 11), (0.3, 12)):
        cfg = HBTConfig(detector_efficiency=eta, dark_count_rate=0.0,
                        coincidence_window=DARK_WINDOW_WIDTHS * 2.3e-6,
                        trials=2_000_000, seed=seed)
        results.append(hbt_monte_carlo(rho, cfg))
    diff = abs(results[0].g2_zero - results[1].g2_zero)
    err = math.hypot(results[0].stderr, results[1].stderr)
    assert diff < 3.0 * err

    # channel outputs of the distillation itself stay physical
    for alpha_sq in (0.1, 1.0, 2.5):
        rho, _ = distilled_state(REFERENCE, math.sqrt(alpha_sq), dim=20, corrected=True)
        rho.validate(psd_tol=1e-9)
        stats = photon_statistics(rho)
        assert abs(stats.probabilities.sum() - 1.0) < 1e-9

    print("PASS 12: property suites (invariants, recombination, parity purity, "
          f"g2 efficiency invariance diff={diff:.4f} < 3se={3*err:.4f}, composition)")
