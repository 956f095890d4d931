"""Per-layer metrics of a traced run: which spans and counters, and how they are reduced.

Every value is per traced round unless its name says otherwise.  Which
end-to-end metric each one should move, on which workload, is listed in
README.md.
"""

from __future__ import annotations

import math
import os
import sys

from tracing import LAYERS

# Functions whose calls, busy time and self time are reported.
FUNCTIONS = (
    "cli.main",
    "cli.write_csv",
    "cli.manifest",
    "tomography.mle_reconstruct",
    "tomography.read_samples_csv",
    "tomography.sample_homodyne",
    "tomography.write_samples_csv",
    "distillation.distilled_state",
    "distillation.sweep_rows",
    "distillation.model_populations",
    "cavity.branch_amplitudes",
    "fockspace.coherent_state",
    "fockspace.wigner",
    "fockspace.quadrature_pdf",
    "fockspace.pure_loss_channel",
    "photonstats.hbt_monte_carlo",
    "photonstats.g2_curve",
    "photonstats.g2_click_level",
    "calibration.fit_imperfections",
    "calibration.fit_objective",
)


def _write_csv(counters, path, args, kwargs):
    counters["csv_bytes"] += os.path.getsize(path)


def _mle_reconstruct(counters, result, args, kwargs):
    counters["em_iterations"] += result.iterations
    counters["em_converged"] += bool(result.converged)
    samples = args[0] if args else kwargs["samples"]
    dim = kwargs["dim"] if "dim" in kwargs else args[1]
    phases = len({s[0] if isinstance(s, tuple) else s.theta for s in samples})
    bins = sys.modules["photondistill.tomography"].N_EDGES - 1
    # Nominal bytes one EM iteration reads and writes: the (bins, dim, dim)
    # POVM table twice, the (J, dim, dim) complex twisted state and real
    # R_j twice each, and the (J, bins) probability/weight arrays four times.
    counters["em_bytes_per_iter"] = 8 * (2 * bins * dim * dim + 4 * phases * dim * dim
                                         + 2 * phases * dim * dim + 4 * phases * bins)


def _sweep_rows(counters, rows, args, kwargs):
    counters["empty_branch_rows"] += sum(1 for row in rows if math.isnan(row["f1"]))


def _wigner(counters, values, args, kwargs):
    rho = args[0]
    points = getattr(values, "size", 1)
    counters["wigner_table_bytes"] = max(counters["wigner_table_bytes"],
                                         16 * rho.dim * rho.dim * points)


def _hbt_monte_carlo(counters, result, args, kwargs):
    counters["mc_trials"] += result.trials
    counters["mc_coincidences"] += result.coincidences


def _fit_imperfections(counters, result, args, kwargs):
    counters["fit_restarts"] += len(result.restarts)
    counters["fit_restarts_at_best"] += sum(
        1 for value in result.restarts if value <= result.residual * (1.0 + 1e-6))


HOOKS = {
    "cli.write_csv": _write_csv,
    "tomography.mle_reconstruct": _mle_reconstruct,
    "distillation.sweep_rows": _sweep_rows,
    "fockspace.wigner": _wigner,
    "photonstats.hbt_monte_carlo": _hbt_monte_carlo,
    "calibration.fit_imperfections": _fit_imperfections,
}

# name -> unit of every per-layer metric, in report order
METRICS: dict[str, str] = {}
for _fn in FUNCTIONS:
    METRICS.update({f"{_fn}.calls": "count", f"{_fn}.busy_s": "s", f"{_fn}.self_s": "s"})
METRICS.update({f"{_layer}.self_s": "s" for _layer in LAYERS})
METRICS.update({
    "cli.write_csv.bytes": "B",
    "tomography.em_iterations": "count",
    "tomography.em_iter_ms": "ms",
    "tomography.em_bytes_per_iter": "B",
    "tomography.converged": "count",
    "distillation.empty_branch_rows": "count",
    "fockspace.wigner_table_bytes": "B",
    "photonstats.mc_trials_per_s": "1/s",
    "photonstats.rng_draws_per_trial": "count",
    "photonstats.coincidence_yield": "ratio",
    "calibration.fit_objective.mean_us": "us",
    "calibration.restart_yield": "ratio",
    "trace.main_coverage": "ratio",
    "trace.spans": "count",
    "trace.hook_errors": "count",
    "trace.overhead_s": "s",
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, rounds: int, measured_s: float) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, from one traced run."""
    totals = tracer.totals()
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    c = tracer.counters
    out: dict[str, float] = {}
    for fn in FUNCTIONS:
        for key, value in totals.get(fn, zero).items():
            out[f"{fn}.{key}"] = value / rounds
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t["self_s"] for name, t in totals.items() if name.split(".")[0] == layer) / rounds
    mle = totals.get("tomography.mle_reconstruct", zero)
    hbt = totals.get("photonstats.hbt_monte_carlo", zero)
    objective = totals.get("calibration.fit_objective", zero)
    out.update({
        "cli.write_csv.bytes": c["csv_bytes"] / rounds,
        "tomography.em_iterations": c["em_iterations"] / rounds,
        # busy time of the whole call, binning and POVM set-up included
        "tomography.em_iter_ms": 1e3 * _ratio(mle["busy_s"], c["em_iterations"]),
        "tomography.em_bytes_per_iter": c["em_bytes_per_iter"],
        "tomography.converged": c["em_converged"] / rounds,
        "distillation.empty_branch_rows": c["empty_branch_rows"] / rounds,
        "fockspace.wigner_table_bytes": c["wigner_table_bytes"],
        "photonstats.mc_trials_per_s": _ratio(c["mc_trials"], hbt["busy_s"]),
        "photonstats.rng_draws_per_trial": _ratio(c["rng_draws"], c["mc_trials"]),
        "photonstats.coincidence_yield": _ratio(c["mc_coincidences"], c["mc_trials"]),
        "calibration.fit_objective.mean_us": 1e6 * _ratio(objective["busy_s"],
                                                          objective["calls"]),
        "calibration.restart_yield": _ratio(c["fit_restarts_at_best"], c["fit_restarts"]),
        "trace.main_coverage": _ratio(totals.get("cli.main", zero)["busy_s"], measured_s),
        "trace.spans": len(tracer.spans) / rounds,
        "trace.hook_errors": c["hook_errors"],
    })
    return out
