"""The benchmark's workloads: the argv of each round and the checks on its outputs.

Every workload is a closed loop with one client: a round runs its commands
one after another through `photondistill.cli.main`, each starting when the
previous one has returned.  The package sees only the argv and the input
files written here; every check runs against `reference`, outside the
timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


@dataclass
class Command:
    """One CLI invocation of a round and the check of what it wrote."""

    name: str  # per-command wall-time metric, e.g. "sweep_s"
    argv: list[str]
    out: Path
    check: Callable[[Path], list[str]] = field(repr=False)  # problems found, if any


def round_seed(workload: str, seed: int, index: int) -> int:
    """Seed of one round, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    return header, rows


def _close(name: str, got: float, want: float, tol: float, problems: list[str], rel=False):
    scale = abs(want) if rel else 1.0
    if not abs(got - want) <= tol * scale:
        problems.append(f"{name} = {got!r}, expected {want!r} (tol {tol:g}{' rel' if rel else ''})")


# -- tomo_roundtrip -------------------------------------------------------

TOMO_ALPHA_SQ = 0.31
TOMO_EFFICIENCY = 0.749
TOMO_SAMPLES = 120_000
TOMO_PHASES = 12
# The homodyne record is criterion 10's (seed 77).  The EM iteration count
# to reach tol 1e-11 depends strongly on the record (1,065 to 7,194 over 24
# seeded records, quartile spread 50% of the median), so a seed-dependent
# record would spread the command's time across seeds beyond any allowed
# bound, and 10 of those 24 records exceed --max-iter 2000.
TOMO_RECORD_SEED = 77


class TomoRoundtrip:
    name = "tomo_roundtrip"
    trace_rounds = 2

    def __init__(self):
        truth, _ = ref.heralded(ref.REFERENCE, TOMO_ALPHA_SQ, corrected=True)
        # simulated at dim 14, compared in the reconstruction's dim 10
        self.truth10 = ref.truncate(ref.truncate(truth, 14), 10)

    def commands(self, seed: int, work: Path) -> list[Command]:
        sim, rec = work / "simulate", work / "reconstruct"
        samples = sim / "samples.csv"
        return [
            Command("tomo_simulate_s", [
                "tomography", "simulate", "--alpha-sq", str(TOMO_ALPHA_SQ), "--dim", "14",
                "--samples", str(TOMO_SAMPLES), "--efficiency", str(TOMO_EFFICIENCY),
                "--seed", str(TOMO_RECORD_SEED), "--out", str(sim),
            ], sim, self.check_simulate),
            Command("tomo_reconstruct_s", [
                "tomography", "reconstruct", "--samples", str(samples), "--dim", "10",
                "--efficiency", str(TOMO_EFFICIENCY), "--max-iter", "2000", "--tol", "1e-11",
                "--out", str(rec),
            ], rec, self.check_reconstruct),
        ]

    def check_simulate(self, out: Path) -> list[str]:
        problems: list[str] = []
        header, rows = _read_table(out / "samples.csv")
        if header != ["theta", "x"] or rows.shape != (TOMO_SAMPLES, 2):
            return [f"samples.csv has header {header} and shape {rows.shape}"]
        phases, counts = np.unique(rows[:, 0], return_counts=True)
        want = np.arange(TOMO_PHASES) * math.pi / TOMO_PHASES
        if len(phases) != TOMO_PHASES or np.max(np.abs(phases - want)) > 1e-11:
            problems.append(f"phases {phases.tolist()} are not k*pi/{TOMO_PHASES}")
        if np.any(counts != TOMO_SAMPLES // TOMO_PHASES):
            problems.append(f"samples per phase {counts.tolist()}")
        return problems

    def check_reconstruct(self, out: Path) -> list[str]:
        report = _read_json(out / "reconstruction.json")
        problems = [] if report["converged"] else [
            f"EM did not converge in {report['iterations']} iterations"]
        rho = np.array(report["rho"]["real"]) + 1j * np.array(report["rho"]["imag"])
        fid = ref.fidelity(rho, self.truth10)
        if not fid >= 0.99:
            problems.append(f"fidelity to the dim-10 truth {fid:.5f} < 0.99")
        return problems


# -- model_phase -----------------------------------------------------------

SWEEP_GRID = (0.05, 2.5, 5000)
G2_CURVE_GRID = (0.05, 2.5, 500)
FIT_TRUTH = (0.352, 0.013, 0.39)  # criterion 11: loss, epsilon, delta_c
FIT_ALPHA_SQ = (0.1, 0.35, 0.85, 1.48, 2.61)
FIT_NOISE = 0.01
FIT_CORRECTED_LOSS = 0.251
ROWS_CHECKED = 25  # sampled rows per curve compared against the reference
WIGNER_ALPHA_SQ = 0.31
WIGNER_GRID = (-3.0, 3.0, 201)
MC_ALPHA_SQ = 0.11
MC_TRIALS = 10_000_000
MC_OFFSETS = 5


def _grid_arg(grid) -> str:
    return f"{grid[0]}:{grid[1]}:{grid[2]}"


def _sample_rows(seed: int, n_rows: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n_rows, size=ROWS_CHECKED, replace=False))


class ModelPhase:
    """The closed-form model commands, then the two phase-space commands.

    `sweep`, the g2 curve and `fit` make thousands of per-point calls into
    `distillation`, `cavity` and `calibration`; `wigner` and the Monte
    Carlo `g2` use `fockspace` and `photonstats` through a large Wigner
    table and the trial sampler instead.  `tomography` never runs.
    """

    name = "model_phase"
    trace_rounds = 3

    def __init__(self):
        rho, _ = ref.heralded(ref.REFERENCE, WIGNER_ALPHA_SQ, corrected=True)
        pops = np.real(np.diag(ref.truncate(rho, 20)))
        self.w_origin = float(np.sum((-1.0) ** np.arange(20) * pops) / math.pi)
        rho, _ = ref.heralded(ref.REFERENCE_G2, MC_ALPHA_SQ, corrected=False)
        self.mc_expected = ref.click_g2(np.real(np.diag(ref.truncate(rho, 16))),
                                        ref.HBT_EFFICIENCY, ref.HBT_DARK_PROBABILITY)

    def commands(self, seed: int, work: Path) -> list[Command]:
        obs = work / "observations.csv"
        truth_cavity = replace(ref.REFERENCE_CAVITY, delta_c=FIT_TRUTH[2])
        rng = np.random.default_rng(seed)
        rows = []
        for alpha_sq in FIT_ALPHA_SQ:
            p = ref.fit_populations(truth_cavity, alpha_sq, FIT_TRUTH[0], FIT_TRUTH[1],
                                    FIT_CORRECTED_LOSS)
            p = np.clip(p + rng.normal(scale=FIT_NOISE, size=3) * p, 0.0, 1.0)
            rows.append((alpha_sq, *p))
        work.mkdir(parents=True, exist_ok=True)
        with open(obs, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha_sq", "p0", "p1", "p2"])
            writer.writerows([[repr(float(v)) for v in row] for row in rows])
        return [
            Command("sweep_s", ["sweep", "--grid", _grid_arg(SWEEP_GRID),
                                "--out", str(work / "sweep")], work / "sweep",
                    partial(self.check_sweep, _sample_rows(seed, SWEEP_GRID[2]))),
            Command("g2_curve_s", ["g2", "--config", "reference-g2",
                                   "--grid", _grid_arg(G2_CURVE_GRID),
                                   "--out", str(work / "g2")], work / "g2",
                    partial(self.check_g2_curve, _sample_rows(seed + 1, G2_CURVE_GRID[2]))),
            Command("fit_s", ["fit", "--observations", str(obs), "--restarts", "8",
                              "--corrected-loss", str(FIT_CORRECTED_LOSS), "--seed", str(seed),
                              "--out", str(work / "fit")], work / "fit",
                    partial(self.check_fit, np.array(rows))),
            Command("wigner_s", ["wigner", "--alpha-sq", str(WIGNER_ALPHA_SQ),
                                 f"--grid={_grid_arg(WIGNER_GRID)}",
                                 "--out", str(work / "wigner")], work / "wigner",
                    self.check_wigner),
            Command("g2_mc_s", ["g2", "--config", "reference-g2", "--alpha-sq", str(MC_ALPHA_SQ),
                                "--trials", str(MC_TRIALS), "--dim", "16",
                                "--offsets", str(MC_OFFSETS), "--seed", str(seed),
                                "--out", str(work / "g2_mc")], work / "g2_mc", self.check_mc),
        ]

    def check_sweep(self, checked_rows: np.ndarray, out: Path) -> list[str]:
        header, table = _read_table(out / "sweep.csv")
        if table.shape != (SWEEP_GRID[2], 10):
            return [f"sweep.csv has shape {table.shape}"]
        col = {name: i for i, name in enumerate(header)}
        problems: list[str] = []
        for i in checked_rows:
            row = table[i]
            a2 = row[col["alpha_sq"]]
            rho, p_up = ref.heralded(ref.REFERENCE, a2, corrected=True)
            pops = np.real(np.diag(rho))
            want = {"p_up": p_up, "f1": pops[1], "p0": pops[0], "p1": pops[1],
                    "p2": pops[2], "p3": pops[3], "suppression": pops[0] + pops[1]}
            for name, value in want.items():
                _close(f"row {i} {name}", row[col[name]], value, 1e-9, problems)
            _close(f"row {i} coherent_ref", row[col["coherent_ref"]],
                   a2 * math.exp(-a2), 1e-11, problems, rel=True)
        return problems[:5]

    def check_g2_curve(self, checked_rows: np.ndarray, out: Path) -> list[str]:
        header, table = _read_table(out / "g2_curve.csv")
        if table.shape != (G2_CURVE_GRID[2], 4):
            return [f"g2_curve.csv has shape {table.shape}"]
        col = {name: i for i, name in enumerate(header)}
        problems: list[str] = []
        for i in checked_rows:
            row = table[i]
            rho, _ = ref.heralded(ref.REFERENCE_G2, row[col["alpha_sq"]], corrected=False)
            pops = np.real(np.diag(ref.truncate(rho, 20)))
            _close(f"row {i} g2_zero", row[col["g2_zero"]],
                   ref.click_g2(pops, ref.HBT_EFFICIENCY, ref.HBT_DARK_PROBABILITY),
                   1e-8, problems, rel=True)
            _close(f"row {i} g2_state", row[col["g2_state"]], ref.number_g2(pops),
                   1e-8, problems, rel=True)
        return problems[:5]

    def check_fit(self, observations: np.ndarray, out: Path) -> list[str]:
        fit = _read_json(out / "fit.json")
        problems = [] if fit["converged"] else ["fit reports no convergence"]
        # criterion 11's tolerances on loss and delta_c
        _close("loss", fit["loss"], FIT_TRUTH[0], 0.02, problems)
        _close("delta_c", fit["delta_c"], FIT_TRUTH[2], 0.2, problems)
        # Over noise draws epsilon scatters from 0.005 to 0.024 around 0.013,
        # wider than criterion 11's single-seed 0.005, so the check on it is
        # that the fit is at least as good as the truth, plus a 0.02 bound.
        _close("epsilon", fit["epsilon"], FIT_TRUTH[1], 0.02, problems)
        args = (ref.REFERENCE_CAVITY, observations)
        at_fit = ref.fit_residual(*args, fit["loss"], fit["epsilon"], fit["delta_c"],
                                  FIT_CORRECTED_LOSS)
        at_truth = ref.fit_residual(*args, *FIT_TRUTH, FIT_CORRECTED_LOSS)
        if not at_fit <= at_truth * (1.0 + 1e-6):
            problems.append(f"fit residual {at_fit:.6e} exceeds the truth's {at_truth:.6e}")
        _close("reported residual", fit["residual"], at_fit, 1e-6, problems, rel=True)
        return problems


    def check_wigner(self, out: Path) -> list[str]:
        header, table = _read_table(out / "wigner.csv")
        n = WIGNER_GRID[2]
        if header != ["q", "p", "w"] or table.shape != (n * n, 3):
            return [f"wigner.csv has header {header} and shape {table.shape}"]
        step = (WIGNER_GRID[1] - WIGNER_GRID[0]) / (n - 1)
        problems: list[str] = []
        _close("grid integral", float(np.sum(table[:, 2])) * step * step, 1.0, 1e-3, problems)
        summary = _read_json(out / "wigner_summary.json")
        if not summary["w_min"] <= -0.10:
            problems.append(f"w_min {summary['w_min']} > -0.10")
        _close("w_min vs csv", summary["w_min"], float(np.min(table[:, 2])), 1e-11, problems)
        _close("w_origin", summary["w_origin"], self.w_origin, 1e-9, problems)
        return problems

    def check_mc(self, out: Path) -> list[str]:
        summary = _read_json(out / "g2_summary.json")
        problems: list[str] = []
        if summary["trials"] != MC_TRIALS:
            problems.append(f"trials {summary['trials']}")
        g2, se = summary["g2_zero"], summary["stderr"]
        _close("g2(0)", g2, 0.045, 0.02, problems)  # criterion 8
        _close("g2(0) vs click-level expectation", g2, self.mc_expected, 5.0 * se, problems)
        header, table = _read_table(out / "g2_tau.csv")
        if table.shape != (MC_OFFSETS + 1, 3):
            return problems + [f"g2_tau.csv has shape {table.shape}"]
        # Criterion 8 asks |g2(tau) - 1| <= 0.05; at 1e7 trials that is only
        # ~2.7 standard errors, so the check widens it to 5 where larger.
        for tau, g2_tau, se_tau in table[1:]:
            _close(f"g2(tau={int(tau)})", g2_tau, 1.0, max(0.05, 5.0 * se_tau), problems)
        return problems


WORKLOADS = {cls.name: cls for cls in (TomoRoundtrip, ModelPhase)}
