import json
import math
import warnings

import numpy as np
import pytest

from photondistill.cli import RunWriter, main
from photondistill.tomography import CSV_BLOCK


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv_rows(path):
    import csv

    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def per_cell_csv(table):
    """Reference: a record array written cell by cell, floats as %.12g, the rest by str()."""
    def cell(value):
        return f"{value:.12g}" if isinstance(value, float) else str(value)

    lines = [",".join(table.dtype.names)]
    lines += [",".join(map(cell, row)) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode()


class TestParams:
    def test_reference_preset(self, tmp_path, capsys):
        code, out = run(tmp_path, "params", "--config", "reference")
        assert code == 0
        report = read_json(out / "params.json")
        assert abs(report["cooperativity"] - 4.06) < 0.01
        assert abs(report["xi"] - 0.819) < 0.001
        assert abs(report["f1_max"] - 0.819) < 0.001
        assert report["energy_conservation_error"] < 1e-9

    def test_fiber_preset(self, tmp_path):
        code, out = run(tmp_path, "params", "--config", "fiber")
        assert code == 0
        report = read_json(out / "params.json")
        assert abs(report["f1_max"] - 0.959) < 0.005

    def test_zero_coupling_config(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(
            "g = 0.0\nkappa = 2.5\nkappa_r = 2.3\nkappa_t = 0.2\nkappa_m = 0.0\n"
            "gamma = 3.0\ndelta_a = 0.0\ndelta_c = 0.0\n"
        )
        code, out = run(tmp_path, "params", "--config", str(cfg))
        assert code == 0
        report = read_json(out / "params.json")
        assert report["cooperativity"] == 0.0
        assert report["f1_max"] == 0.0

    @pytest.mark.parametrize("command", ["params", "sweep"])
    @pytest.mark.parametrize("key, value", [("g", "nan"), ("kappa_m", "inf")])
    def test_non_finite_rate_exits_3_naming_it(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "g = 10.0\nkappa = 2.5\nkappa_r = 2.3\nkappa_t = 0.2\nkappa_m = 0.0\n"
            "gamma = 3.0\ndelta_a = 0.0\ndelta_c = 0.0\n" + f"{key} = {value}\n"
        )
        code, _ = run(tmp_path, command, "--config", str(cfg))
        assert code == 3
        assert f"{key} must be finite" in capsys.readouterr().err

    def test_malformed_config_exits_3(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("g = not-a-number\n")
        code, _ = run(tmp_path, "params", "--config", str(cfg))
        assert code == 3

    def test_manifest_lists_outputs(self, tmp_path):
        code, out = run(tmp_path, "params")
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "params"
        assert "params.json" in manifest["outputs"]
        for name in manifest["outputs"]:
            assert (out / name).exists()
        assert "photondistill" in manifest["versions"]
        assert manifest["seed"] is None  # params draws no random numbers


class TestSweep:
    def test_curve_values(self, tmp_path):
        code, out = run(tmp_path, "sweep", "--grid", "0.0:1.0:6")
        assert code == 0
        rows = read_csv_rows(out / "sweep.csv")
        assert len(rows) == 6
        first = rows[0]
        assert math.isnan(float(first["f1"]))  # empty odd branch at alpha = 0
        assert abs(float(first["p_up"]) - 0.013) < 1e-9
        for row in rows:
            ref = float(row["alpha_sq"]) * math.exp(-float(row["alpha_sq"]))
            assert abs(float(row["coherent_ref"]) - ref) < 1e-9
        mid = rows[2]  # alpha^2 = 0.4
        assert abs(float(mid["f1"]) - 0.68) < 0.02

    def test_bright_probe_exits_0_without_warning(self, tmp_path):
        from photondistill.distillation import sweep_rows
        from photondistill.presets import resolve_config

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "sweep", "--grid", "0.05:40:3")
        assert code == 0
        rows = read_csv_rows(out / "sweep.csv")
        exact = sweep_rows(resolve_config("reference"), [40.0])[0]
        assert rows[-1]["p1"] == f"{exact['p1']:.12g}" == "3.19253790992e-09"

    def test_summary_skips_empty_heralds(self, tmp_path):
        code, out = run(tmp_path / "a", "sweep", "--grid", "0:2.5:11")
        assert code == 0
        rows = [row for row in read_csv_rows(out / "sweep.csv") if row["f1"] != "nan"]
        assert len(rows) == 10  # alpha^2 = 0 heralds nothing
        best = max(rows, key=lambda row: float(row["f1"]))
        summary = read_json(out / "sweep_summary.json")
        assert f"{summary['max_f1']:.12g}" == best["f1"]
        assert f"{summary['argmax_alpha_sq']:.12g}" == best["alpha_sq"]
        code, out = run(tmp_path / "b", "sweep", "--grid", "0:0:3")
        assert code == 0
        assert read_json(out / "sweep_summary.json") == {
            "rows": 3, "corrected": True, "max_f1": None, "argmax_alpha_sq": None}

    def test_deterministic_output_bytes(self, tmp_path):
        _, out1 = run(tmp_path / "a", "sweep", "--grid", "0.1:0.5:3")
        _, out2 = run(tmp_path / "b", "sweep", "--grid", "0.1:0.5:3")
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


class TestWigner:
    def test_corrected_minimum(self, tmp_path):
        code, out = run(
            tmp_path, "wigner", "--alpha-sq", "0.31", "--grid=-2.5:2.5:51", "--dim", "16"
        )
        assert code == 0
        summary = read_json(out / "wigner_summary.json")
        assert summary["w_min"] <= -0.10

    def test_uncorrected_minimum(self, tmp_path):
        code, out = run(
            tmp_path, "wigner", "--alpha-sq", "0.31", "--grid=-2.5:2.5:51",
            "--dim", "16", "--uncorrected",
        )
        assert code == 0
        summary = read_json(out / "wigner_summary.json")
        assert abs(summary["w_min"] - (-0.016)) < 0.012

    def test_even_herald_of_weak_pulse_is_positive(self, tmp_path):
        # sanity preset: no coupling, even herald -> near-vacuum, positive map
        cfg = tmp_path / "sane.cfg"
        cfg.write_text(
            "g = 0.0\nkappa = 2.5\nkappa_r = 2.3\nkappa_t = 0.2\nkappa_m = 0.0\n"
            "gamma = 3.0\ndelta_a = 0.0\ndelta_c = 0.0\n"
        )
        from photondistill.presets import resolve_config
        from photondistill.distillation import distilled_state
        from photondistill.fockspace import wigner

        config = resolve_config(str(cfg))
        rho, _ = distilled_state(config, math.sqrt(0.1), parity="even", dim=12)
        axis = np.linspace(-2.5, 2.5, 41)
        Q, P = np.meshgrid(axis, axis)
        assert wigner(rho, Q, P).min() >= -1e-9


class TestG2:
    def test_point_mode(self, tmp_path):
        code, out = run(
            tmp_path, "g2", "--config", "reference-g2", "--alpha-sq", "0.11",
            "--trials", "400000", "--seed", "5", "--dim", "16",
        )
        assert code == 0
        rows = read_csv_rows(out / "g2_tau.csv")
        assert len(rows) == 6
        summary = read_json(out / "g2_summary.json")
        assert 0.0 < summary["g2_zero"] < 0.1
        assert summary["bandwidth_valid"]

    def test_curve_mode(self, tmp_path):
        code, out = run(
            tmp_path, "g2", "--config", "reference-g2", "--grid", "0.05:2.5:6",
            "--dim", "16",
        )
        assert code == 0
        rows = read_csv_rows(out / "g2_curve.csv")
        values = [float(r["g2_zero"]) for r in rows]
        assert values[-1] < 1.0
        assert values[0] < values[-1]

    def test_undefined_stderr_is_null_in_strict_json(self, tmp_path):
        # 1,000 trials of a faint pulse see no coincidence, so g2(0)'s stderr is undefined
        code, out = run(tmp_path, "g2", "--alpha-sq", "0.01", "--trials", "1000", "--dim", "8")
        assert code == 0

        def reject(constant):
            raise AssertionError(f"{constant} is not RFC 8259 JSON")

        summary = json.loads((out / "g2_summary.json").read_text(), parse_constant=reject)
        assert summary["stderr"] is None

    def test_requires_mode(self, tmp_path):
        code, _ = run(tmp_path, "g2")
        assert code == 3

    def test_curve_monte_carlo(self, tmp_path):
        from photondistill.distillation import distilled_populations
        from photondistill.photonstats import DARK_WINDOW_WIDTHS, HBTConfig, _click_outcomes
        from photondistill.presets import HBT_DEFAULTS, resolve_config

        argv = ("g2", "--config", "reference-g2", "--grid", "0:2.5:4", "--trials", "4000",
                "--detector-efficiency", "0.5", "--seed", "11")
        outs = [run(tmp_path / name, *argv, *extra)[1]
                for name, extra in (("mc", ("--mc",)), ("again", ("--mc",)), ("exact", ()))]
        mc, exact = (read_csv_rows(out / "g2_curve.csv") for out in (outs[0], outs[2]))
        assert (outs[0] / "g2_curve.csv").read_bytes() == (outs[1] / "g2_curve.csv").read_bytes()
        assert math.isnan(float(mc[0]["g2_zero"])) and math.isnan(float(mc[0]["stderr"]))
        # the nonempty rows' (both, arm 1 alone, arm 2 alone, silent) counts are
        # one multinomial draw from their click outcomes, seeded with --seed
        pops, _ = distilled_populations(resolve_config("reference-g2"), np.linspace(0, 2.5, 4)[1:])
        cfg = HBTConfig(detector_efficiency=0.5, dark_count_rate=HBT_DEFAULTS["dark_count_rate"],
                        coincidence_window=DARK_WINDOW_WIDTHS * HBT_DEFAULTS["pulse_fwhm"])
        silent, alone, both = _click_outcomes(pops, 0.5, cfg.dark_probability).T
        pvals = np.stack([both, alone, alone, silent], axis=1)
        counts = np.random.default_rng(11).multinomial(4000, pvals / pvals.sum(axis=1)[:, None])
        for i, (n11, n10, n01, _) in enumerate(counts.tolist(), start=1):
            n1, n2 = n11 + n10, n11 + n01
            g2 = n11 * 4000 / (n1 * n2)
            stderr = g2 * math.sqrt(1 / n11 + 1 / n1 + 1 / n2)
            assert float(mc[i]["g2_zero"]) == pytest.approx(g2, rel=1e-11)
            assert float(mc[i]["stderr"]) == pytest.approx(stderr, rel=1e-11)
            assert abs(g2 - float(exact[i]["g2_zero"])) <= 5.0 * stderr

    def test_curve_monte_carlo_without_a_nonempty_row(self, tmp_path):
        code, out = run(tmp_path, "g2", "--config", "reference-g2", "--grid", "0:0:2", "--mc")
        assert code == 0
        rows = read_csv_rows(out / "g2_curve.csv")
        assert len(rows) == 2 and all(math.isnan(float(row["g2_zero"])) for row in rows)

    def test_dim_beyond_binomial_overflow(self, tmp_path):
        # C(n, k) overflows from n = 1,030; the split weights must not
        argv = ("g2", "--config", "reference-g2", "--alpha-sq", "0.11", "--trials", "10000")
        outs = [run(tmp_path / dim, *argv, "--dim", dim)[1] for dim in ("16", "1100")]
        summaries = [read_json(out / "g2_summary.json") for out in outs]
        assert summaries[0] == summaries[1]
        assert summaries[1]["singles"] == [162, 196]


class TestCsvFormat:
    def test_command_csvs_match_per_cell_format(self, tmp_path, monkeypatch):
        written = {}
        write_csv = RunWriter.write_csv

        def capture(self, name, table):
            path = write_csv(self, name, table)
            written[name] = per_cell_csv(table), path, table.dtype.names
            return path

        monkeypatch.setattr(RunWriter, "write_csv", capture)
        commands = [
            ("sweep", "--grid", "0.0:2.5:40"),
            ("g2", "--config", "reference-g2", "--grid", "0.0:2.5:9", "--dim", "12"),
            ("g2", "--config", "reference-g2", "--alpha-sq", "0.11", "--trials", "20000",
             "--dim", "12"),
            ("wigner", "--alpha-sq", "0.31", "--grid=-3:3:101", "--dim", "12"),
        ]
        for i, argv in enumerate(commands):
            code, _ = run(tmp_path / str(i), *argv)
            assert code == 0
        # sweep_rows and g2_curve are written as they are: their fields are the headers
        assert {name: names for name, (_, _, names) in written.items()} == {
            "sweep.csv": ("alpha_sq", "p_up", "f1", "p0", "p1", "p2", "p3",
                          "suppression", "suppression_rel", "coherent_ref"),
            "g2_curve.csv": ("alpha_sq", "g2_zero", "stderr", "g2_state"),
            "g2_tau.csv": ("tau_index", "g2", "stderr"),
            "wigner.csv": ("q", "p", "w"),
        }
        for expected, path, _ in written.values():
            assert path.read_bytes() == expected

    def test_special_values_across_block_boundaries(self, tmp_path):
        rng = np.random.default_rng(3)
        specials = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2e-308,
                    1e300, 123456789012345.0, 0.1]
        randoms = rng.standard_normal(CSV_BLOCK) * 10.0 ** rng.integers(-30, 30, CSV_BLOCK)
        x = np.array(specials + randoms.tolist())
        # 13-digit integers: beyond %.12g, so the integer field must be written as %d
        table = np.rec.fromarrays([x, 10**12 + np.arange(len(x))], names="x,n")
        writer = RunWriter(str(tmp_path))
        assert writer.write_csv("rows.csv", table).read_bytes() == per_cell_csv(table)
        assert writer.write_csv("empty.csv", table[:0]).read_bytes() == b"x,n\n"


class TestTomography:
    def test_simulate_and_reconstruct_round_trip(self, tmp_path):
        code, out = run(
            tmp_path, "tomography", "simulate", "--state", "coherent",
            "--alpha-sq", "0.25", "--samples", "24000", "--phases", "8",
            "--seed", "3", "--dim", "12",
        )
        assert code == 0
        code2, out2 = run(
            tmp_path / "rec", "tomography", "reconstruct",
            "--samples", str(out / "samples.csv"), "--dim", "8", "--max-iter", "500",
        )
        assert code2 == 0
        report = read_json(out2 / "reconstruction.json")
        assert report["converged"]
        p = np.array(report["rho"]["real"]).diagonal()
        assert abs(p[0] - math.exp(-0.25)) < 0.03
        assert abs(p[1] - 0.25 * math.exp(-0.25)) < 0.03

    def test_non_convergence_exit_code(self, tmp_path):
        code, out = run(
            tmp_path, "tomography", "simulate", "--state", "coherent",
            "--alpha-sq", "0.25", "--samples", "4000", "--phases", "4", "--seed", "3",
        )
        assert code == 0
        code2, out2 = run(
            tmp_path / "rec", "tomography", "reconstruct",
            "--samples", str(out / "samples.csv"), "--dim", "8", "--max-iter", "3",
        )
        assert code2 == 4
        assert (out2 / "reconstruction.json").exists()
        assert (out2 / "manifest.json").exists()

    def test_header_only_samples_exit_3(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_bytes(b"theta,x\r\n")
        code, _ = run(
            tmp_path, "tomography", "reconstruct", "--samples", str(samples), "--dim", "6",
        )
        assert code == 3
        assert "no samples given" in capsys.readouterr().err

    def test_short_samples_row_exit_3(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_bytes(b"theta,x\r\n0.5,1.0\r\n0.5\r\n")
        code, _ = run(
            tmp_path, "tomography", "reconstruct", "--samples", str(samples), "--dim", "6",
        )
        assert code == 3


class TestFit:
    def test_fit_round_trip_via_cli(self, tmp_path):
        from photondistill.calibration import synthetic_observations
        from photondistill.presets import PRESETS

        params = PRESETS["reference"].params
        obs = synthetic_observations(
            params, (0.3, 0.015, 0.3), (0.2, 0.5, 1.0, 1.7, 2.5), noise=0.005, seed=2
        )
        path = tmp_path / "obs.csv"
        with open(path, "w") as fh:
            fh.write("alpha_sq,p0,p1,p2\n")
            for row in obs:
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
        code, out = run(
            tmp_path, "fit", "--observations", str(path), "--restarts", "3", "--seed", "1"
        )
        assert code == 0
        report = read_json(out / "fit.json")
        assert abs(report["loss"] - 0.3) < 0.03
        assert abs(report["epsilon"] - 0.015) < 0.005

    def test_fit_json_reports_stderr_and_null_on_a_bound(self, tmp_path):
        from photondistill.calibration import synthetic_observations
        from photondistill.presets import PRESETS

        # epsilon = 0 with this noise draw puts the optimum on epsilon's lower bound
        obs = synthetic_observations(PRESETS["reference"].params, (0.3, 0.0, 0.3),
                                     (0.2, 0.5, 1.0, 1.7, 2.5), noise=0.005, seed=1)
        path = tmp_path / "obs.csv"
        with open(path, "w") as fh:
            fh.write("alpha_sq,p0,p1,p2\n")
            for row in obs:
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
        code, out = run(
            tmp_path, "fit", "--observations", str(path), "--restarts", "3", "--seed", "1"
        )
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((out / "fit.json").read_text(), parse_constant=reject)
        assert report["epsilon"] == pytest.approx(0.0, abs=1e-12)
        assert report["stderr"]["epsilon"] is None
        assert 0.0 < report["stderr"]["loss"] < 0.01
        assert 0.0 < report["stderr"]["delta_c"] < 0.05

    @pytest.mark.parametrize("line, message", [
        ("0.35,5,-3,0.1", "obs.csv:3: column p0 = 5.0 must be a probability in [0, 1]"),
        ("0.35,0.5,0.4,-1e-3", "obs.csv:3: column p2 = -0.001 must be a probability"),
        ("0.35,0.5,nan,0.1", "obs.csv:3: column p1 = nan must be a probability"),
        ("inf,0.5,0.4,0.1", "obs.csv:3: column alpha_sq = inf must be finite"),
        ("0.35,0.5,0.4", "obs.csv:3: column p2 = None is not a number"),
    ])
    def test_observation_out_of_domain_exits_3_naming_line_and_column(
        self, tmp_path, capsys, line, message
    ):
        path = tmp_path / "obs.csv"
        rows = ["0.1,0.6,0.35,0.05", line, "0.85,0.5,0.4,0.1", "1.48,0.4,0.4,0.2",
                "2.61,0.3,0.4,0.3"]
        path.write_text("alpha_sq,p0,p1,p2\n" + "\n".join(rows) + "\n")
        code, out = run(tmp_path, "fit", "--observations", str(path))
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (out / "fit.json").exists()

    def test_observations_without_p2_column_exit_3(self, tmp_path, capsys):
        path = tmp_path / "obs.csv"
        path.write_text("alpha_sq,p0,p1\n0.2,0.8,0.2\n")
        code, _ = run(tmp_path, "fit", "--observations", str(path))
        assert code == 3
        assert "no 'p2' column" in capsys.readouterr().err


class TestBudget:
    def test_bundled_budget(self, tmp_path):
        code, out = run(tmp_path, "budget")
        assert code == 0
        report = read_json(out / "budget.json")
        assert abs(report["l_sum"] - 0.251) < 0.001

    def test_with_residual(self, tmp_path):
        code, out = run(tmp_path, "budget", "--l-fit", "0.352")
        assert code == 0
        report = read_json(out / "budget.json")
        assert abs(report["l_uncorrected"] - 0.135) < 0.001

    def test_empty_budget_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("label,loss\n")
        code, out = run(tmp_path, "budget", "--file", str(empty))
        assert code == 0
        assert read_json(out / "budget.json")["l_sum"] == 0.0

    def test_missing_loss_column_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,fraction\nfiber,0.1\n")
        code, _ = run(tmp_path, "budget", "--file", str(bad))
        assert code == 3
        assert "no 'loss' column" in capsys.readouterr().err

    def test_invalid_loss_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,loss\nhuge,1.5\n")
        code, _ = run(tmp_path, "budget", "--file", str(bad))
        assert code == 3


class TestBundledConfig:
    def test_example_config_matches_reference_preset(self):
        from importlib import resources

        from photondistill.presets import PRESETS, config_from_file

        path = resources.files("photondistill.data") / "reference.cfg"
        assert config_from_file(path) == PRESETS["reference"]


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_bad_grid_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--grid", "oops", "--out", str(tmp_path / "o")])
        assert err.value.code == 2


class TestInputContract:
    @pytest.mark.parametrize("argv, argument", [
        (["wigner", "--alpha-sq", "-1"], "--alpha-sq"),
        (["tomography", "simulate", "--alpha-sq", "nan"], "--alpha-sq"),
        (["g2", "--alpha-sq", "-0.1"], "--alpha-sq"),
        (["sweep", "--grid=-1:1:3"], "--grid"),
        (["g2", "--grid=-0.5:1:4"], "--grid"),
        (["sweep", "--grid", "0:1:0"], "--grid"),
        (["wigner", "--grid=-1:1:0"], "--grid"),
        (["wigner", "--dim", "1"], "--dim"),
        (["tomography", "reconstruct", "--samples", "s.csv", "--dim", "1"], "--dim"),
        (["g2", "--alpha-sq", "0.1", "--trials", "0"], "--trials"),
        (["g2", "--alpha-sq", "0.1", "--offsets=-1"], "--offsets"),
        (["g2", "--alpha-sq", "0.1", "--trials", "5", "--offsets", "5"], "--offsets"),
        (["g2", "--alpha-sq", "0.1", "--detector-efficiency", "1.5"], "--detector-efficiency"),
        (["g2", "--alpha-sq", "0.1", "--detector-efficiency=-0.1"], "--detector-efficiency"),
        (["g2", "--alpha-sq", "0.1", "--dark-rate=-1"], "--dark-rate"),
        (["g2", "--alpha-sq", "0.1", "--dark-rate", "inf"], "--dark-rate"),
        (["g2", "--alpha-sq", "0.1", "--pulse-fwhm", "0"], "--pulse-fwhm"),
        (["g2", "--alpha-sq", "0.1", "--dark-rate", "1e6"], "--dark-rate"),
        (["tomography", "simulate", "--phases", "0"], "--phases"),
        (["tomography", "simulate", "--phases=-3"], "--phases"),
        (["tomography", "simulate", "--samples", "0"], "--samples"),
        (["tomography", "simulate", "--samples", "11", "--phases", "12"], "--samples"),
        (["tomography", "simulate", "--efficiency", "0"], "--efficiency"),
        (["tomography", "simulate", "--efficiency", "1.5"], "--efficiency"),
        (["tomography", "reconstruct", "--samples", "s.csv", "--efficiency", "0"],
         "--efficiency"),
        (["tomography", "reconstruct", "--samples", "s.csv", "--efficiency", "1.5"],
         "--efficiency"),
        (["tomography", "reconstruct", "--samples", "s.csv", "--max-iter", "0"], "--max-iter"),
        (["tomography", "reconstruct", "--samples", "s.csv", "--tol", "0"], "--tol"),
        (["tomography", "reconstruct", "--samples", "s.csv", "--tol=-1e-9"], "--tol"),
        (["fit", "--observations", "o.csv", "--corrected-loss", "1"], "--corrected-loss"),
        (["fit", "--observations", "o.csv", "--restarts", "0"], "--restarts"),
        (["fit", "--observations", "o.csv", "--restarts=-4"], "--restarts"),
        (["budget", "--l-fit", "2"], "--l-fit"),
        (["g2", "--alpha-sq", "0.1", "--seed=-1"], "--seed"),
        (["tomography", "simulate", "--seed=-1"], "--seed"),
        (["fit", "--observations", "o.csv", "--seed=-1"], "--seed"),
    ])
    def test_bad_input_exits_2_naming_the_argument(self, tmp_path, capsys, argv, argument):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(tmp_path / "o")])
        assert err.value.code == 2
        assert f"argument {argument}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_phase_space_grid_stays_legal(self, tmp_path):
        code, out = run(tmp_path, "wigner", "--grid=-1:1:3", "--dim", "4")
        assert code == 0
        assert len(read_csv_rows(out / "wigner.csv")) == 9

    @pytest.mark.parametrize("command", [
        ["sweep"], ["params"], ["fit", "--observations", "o.csv"], ["budget"],
    ])
    def test_dim_only_where_a_matrix_is_built(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([*command, "--dim", "20", "--out", str(tmp_path / "o")])
        assert err.value.code == 2
        assert "unrecognized arguments: --dim" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["params"], ["sweep"], ["wigner"], ["budget"],
        ["tomography", "reconstruct", "--samples", "s.csv"],
    ])
    def test_seed_only_where_a_random_stream_is_drawn(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([*command, "--seed", "1", "--out", str(tmp_path / "o")])
        assert err.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
