"""Command-line interface: runs every pipeline end to end and emits
CSV/JSON data files plus a run manifest.

Exit codes: 0 success, 2 usage error, 3 model/domain error,
4 non-convergence (result files are still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    LossBudget,
    combine_losses,
    fit_imperfections,
    read_observations_csv,
    residual_loss,
)
from .cavity import branch_amplitudes, cooperativity, f1_max, xi
from .distillation import distilled_state, sweep_rows
from .errors import ModelError
from .fockspace import coherent_state, wigner
from .photonstats import (
    DARK_WINDOW_WIDTHS,
    HBTConfig,
    bandwidth_check,
    g2_curve,
    hbt_monte_carlo,
)
from .presets import HBT_DEFAULTS, budget_csv_path, resolve_config
from .tomography import (
    _csv_chunks,
    mle_reconstruct,
    read_samples_csv,
    reconstruction_report,
    sample_homodyne,
    write_samples_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_NO_CONVERGENCE = 4


def _atomic_write(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class RunWriter:
    """Collects output files and emits the run manifest."""

    def __init__(self, out_dir: str):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs: list[str] = []

    def write_csv(self, name: str, table: np.ndarray):
        """Write a record array as CSV, one column per field in field order."""
        _atomic_write(self.out_dir / name, "".join(_csv_chunks(table, "\n")))
        self.outputs.append(name)
        return self.out_dir / name

    def write_json(self, name: str, payload: dict):
        """Write strict (RFC 8259) JSON: NaN and infinities become null."""
        strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
        _atomic_write(self.out_dir / name, json.dumps(strict, indent=2, allow_nan=False) + "\n")
        self.outputs.append(name)
        return self.out_dir / name

    def manifest(self, command: str, config_path: str, seed: int | None):
        payload = {
            "command": command,
            "config_path": config_path,
            "seed": seed,
            "output_dir": str(self.out_dir),
            "versions": {
                "photondistill": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
            },
            "outputs": list(self.outputs),
        }
        _atomic_write(self.out_dir / "manifest.json", json.dumps(payload, indent=2) + "\n")


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"grid must be MIN:MAX:STEPS, got {text!r}") from exc
    if steps < 1:
        raise argparse.ArgumentTypeError(f"grid STEPS must be >= 1, got {text!r}")
    return np.linspace(lo, hi, steps)


def _alpha_sq_grid(text: str) -> np.ndarray:
    grid = _parse_grid(text)
    if not np.all(grid >= 0.0):
        raise argparse.ArgumentTypeError(f"alpha^2 grid must be >= 0, got {text!r}")
    return grid


def _real(name: str, low: float, high: float = math.inf, open_low=False, open_high=False):
    """Parser of a finite number from low to high, each end included unless open."""
    bounds = f"{'>' if open_low else '>='} {low:g}"
    if high != math.inf:
        bounds += f" and {'<' if open_high else '<='} {high:g}"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}") from exc
        if not (math.isfinite(value) and (value > low if open_low else value >= low)
                and (value < high if open_high else value <= high)):
            raise argparse.ArgumentTypeError(f"{name} must be finite and {bounds}, got {text!r}")
        return value

    return parse


def _int_at_least(name: str, minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{name} must be >= {minimum}, got {value}")
        return value

    return parse


_alpha_sq = _real("alpha^2", 0.0)
_efficiency = _real("efficiency", 0.0, 1.0, open_low=True)


def _conflict(args) -> str | None:
    """Usage error between arguments, naming the argument, or None."""
    if args.command == "tomography" and args.mode == "simulate" and args.samples < args.phases:
        return f"argument --samples: must be >= --phases ({args.phases}), got {args.samples}"
    if args.command != "g2":
        return None
    if args.offsets >= args.trials:
        return (f"argument --offsets: must be < --trials ({args.trials}), "
                f"got {args.offsets}")
    dark_probability = args.dark_rate * (DARK_WINDOW_WIDTHS * args.pulse_fwhm)
    if dark_probability > 1.0:
        return ("argument --dark-rate: dark-click probability --dark-rate x "
                f"{DARK_WINDOW_WIDTHS:g} --pulse-fwhm must be <= 1, got {dark_probability:g}")
    return None


def _add_common(parser, dim: bool = False, seed: bool = False):
    parser.add_argument("--config", default="reference",
                        help="preset name (reference, reference-g2, fiber) or config file path")
    if seed:  # only where a random stream is drawn
        parser.add_argument("--seed", type=_int_at_least("seed", 0), default=0)
    parser.add_argument("--out", default="out", help="output directory")
    if dim:  # only where a truncated density matrix is built
        parser.add_argument("--dim", type=_int_at_least("dim", 2), default=20,
                            help="Fock truncation dimension (>= 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photondistill",
        description="Heralded single-photon distillation: model curves, "
        "tomography and photon statistics as data files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="derived cavity quantities")
    _add_common(p)

    p = sub.add_parser("sweep", help="heralding probability and exact populations vs intensity")
    _add_common(p)
    p.add_argument("--grid", type=_alpha_sq_grid, default="0.05:2.5:50",
                   help="alpha^2 grid MIN:MAX:STEPS")
    p.add_argument("--uncorrected", dest="corrected", action="store_false", default=True,
                   help="report populations without inverting the downstream loss")

    p = sub.add_parser("wigner", help="phase-space map of the distilled state")
    _add_common(p, dim=True)
    p.add_argument("--alpha-sq", type=_alpha_sq, default=0.31)
    p.add_argument("--grid", type=_parse_grid, default="-3:3:81",
                   help="q and p axis MIN:MAX:STEPS")
    p.add_argument("--uncorrected", dest="corrected", action="store_false", default=True)

    p = sub.add_parser("g2", help="second-order correlation predictions")
    _add_common(p, dim=True, seed=True)
    p.add_argument("--alpha-sq", type=_alpha_sq, default=None,
                   help="single-point Monte Carlo at this intensity, on --dim levels")
    p.add_argument("--grid", type=_alpha_sq_grid, default=None,
                   help="alpha^2 grid MIN:MAX:STEPS for the curve, exact (ignores --dim)")
    p.add_argument("--mc", action="store_true", help="Monte Carlo instead of analytic curve")
    p.add_argument("--trials", type=_int_at_least("trials", 1), default=1_000_000)
    p.add_argument("--offsets", type=_int_at_least("offsets", 0), default=5,
                   help="run offsets for g2(tau), < --trials")
    p.add_argument("--detector-efficiency", type=_real("detector efficiency", 0.0, 1.0),
                   default=HBT_DEFAULTS["detector_efficiency"])
    p.add_argument("--dark-rate", type=_real("dark rate", 0.0),
                   default=HBT_DEFAULTS["dark_count_rate"],
                   help="dark counts per second; rate x 3 pulse widths must be <= 1")
    p.add_argument("--pulse-fwhm", type=_real("pulse FWHM", 0.0, open_low=True),
                   default=HBT_DEFAULTS["pulse_fwhm"], help="seconds")
    p.add_argument("--pulse-kind", default="gaussian",
                   choices=["gaussian", "double_peak", "rectangular"])

    p = sub.add_parser("tomography", help="synthetic homodyne records and reconstruction")
    tomo_sub = p.add_subparsers(dest="mode", required=True)
    sim = tomo_sub.add_parser("simulate", help="draw homodyne samples")
    _add_common(sim, dim=True, seed=True)
    sim.add_argument("--state", default="distilled", choices=["distilled", "coherent"])
    sim.add_argument("--alpha-sq", type=_alpha_sq, default=0.31)
    sim.add_argument("--phases", type=_int_at_least("phases", 1), default=12)
    sim.add_argument("--samples", type=_int_at_least("samples", 1), default=120_000,
                     help="total sample count, >= --phases")
    sim.add_argument("--efficiency", type=_efficiency, default=1.0)
    sim.add_argument("--uncorrected", dest="corrected", action="store_false", default=True)
    rec = tomo_sub.add_parser("reconstruct", help="maximum-likelihood estimate from samples")
    _add_common(rec, dim=True)
    rec.add_argument("--samples", required=True, help="CSV with theta,x columns")
    rec.add_argument("--efficiency", type=_efficiency, default=1.0)
    rec.add_argument("--max-iter", type=_int_at_least("max-iter", 1), default=1000)
    rec.add_argument("--tol", type=_real("tol", 0.0, open_low=True), default=1e-9)

    p = sub.add_parser("fit", help="fit loss, detection error and detuning to populations")
    _add_common(p, seed=True)
    p.add_argument("--observations", required=True, help="CSV with alpha_sq,p0,p1,p2")
    p.add_argument("--corrected-loss", type=_real("corrected loss", 0.0, 1.0, open_high=True),
                   default=0.251)
    p.add_argument("--restarts", type=_int_at_least("restarts", 1), default=8)

    p = sub.add_parser("budget", help="combine a loss budget")
    _add_common(p)
    p.add_argument("--file", default=None, help="CSV with label,loss (default: bundled budget)")
    p.add_argument("--l-fit", type=_real("l-fit", 0.0, 1.0), default=None,
                   help="also report the residual loss after correcting the budget total")

    return parser


def cmd_params(args, writer: RunWriter) -> int:
    config = resolve_config(args.config)
    params = config.params
    up = branch_amplitudes(params, True, 1.0)
    down = branch_amplitudes(params, False, 1.0)
    report = {
        "cooperativity": cooperativity(params),
        "xi": xi(params),
        "f1_max": f1_max(params),
        "energy_conservation_error": max(
            abs(up.total_power - 1.0), abs(down.total_power - 1.0)
        ),
        "rates": {
            "g": params.g, "kappa": params.kappa, "kappa_r": params.kappa_r,
            "kappa_t": params.kappa_t, "kappa_m": params.kappa_m,
            "gamma": params.gamma, "delta_a": params.delta_a, "delta_c": params.delta_c,
        },
    }
    writer.write_json("params.json", report)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_sweep(args, writer: RunWriter) -> int:
    config = resolve_config(args.config)
    rows = sweep_rows(config, args.grid, corrected=args.corrected)
    writer.write_csv("sweep.csv", rows)
    best = None if np.isnan(rows.f1).all() else rows[np.nanargmax(rows.f1)]
    summary = {
        "rows": len(rows),
        "corrected": args.corrected,
        "max_f1": None if best is None else float(best.f1),
        "argmax_alpha_sq": None if best is None else float(best.alpha_sq),
    }
    writer.write_json("sweep_summary.json", summary)
    return EXIT_OK


def cmd_wigner(args, writer: RunWriter) -> int:
    config = resolve_config(args.config)
    axis = args.grid
    rho, p_up = distilled_state(
        config, math.sqrt(args.alpha_sq), dim=args.dim, corrected=args.corrected
    )
    Q, P = np.meshgrid(axis, axis, indexing="ij")
    W = wigner(rho, Q, P)
    writer.write_csv("wigner.csv", np.rec.fromarrays([Q.ravel(), P.ravel(), W.ravel()],
                                                     names="q,p,w"))
    imin = int(np.argmin(W))
    summary = {
        "alpha_sq": args.alpha_sq,
        "corrected": args.corrected,
        "herald_probability": p_up,
        "w_origin": float(wigner(rho, 0.0, 0.0)),
        "w_min": float(W.ravel()[imin]),
        "w_min_q": float(Q.ravel()[imin]),
        "w_min_p": float(P.ravel()[imin]),
    }
    writer.write_json("wigner_summary.json", summary)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_g2(args, writer: RunWriter) -> int:
    config = resolve_config(args.config)
    hbt = HBTConfig(
        detector_efficiency=args.detector_efficiency,
        dark_count_rate=args.dark_rate,
        coincidence_window=DARK_WINDOW_WIDTHS * args.pulse_fwhm,
        trials=args.trials,
        seed=args.seed,
    )
    if args.alpha_sq is None and args.grid is None:
        raise ModelError("g2 needs --alpha-sq (point mode) or --grid (curve mode)")
    if args.grid is not None:
        writer.write_csv("g2_curve.csv", g2_curve(config, args.grid, hbt, monte_carlo=args.mc))
    if args.alpha_sq is not None:
        rho, _ = distilled_state(config, math.sqrt(args.alpha_sq), dim=args.dim)
        result = hbt_monte_carlo(rho, hbt, n_offsets=args.offsets)
        tau = np.arange(len(result.g2_tau))
        writer.write_csv("g2_tau.csv", np.rec.fromarrays(
            [tau, result.g2_tau, result.stderr_tau], names="tau_index,g2,stderr"))
        check = bandwidth_check(args.pulse_kind, args.pulse_fwhm, config.params)
        summary = {
            "alpha_sq": args.alpha_sq,
            "g2_zero": result.g2_zero,
            "stderr": result.stderr,
            "singles": list(result.singles),
            "coincidences": result.coincidences,
            "trials": result.trials,
            "bandwidth_valid": check["valid"],
            "bandwidth_ratio": check["ratio"],
        }
        writer.write_json("g2_summary.json", summary)
        print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_tomography(args, writer: RunWriter) -> int:
    config = resolve_config(args.config)
    if args.mode == "simulate":
        if args.state == "distilled":
            rho, _ = distilled_state(
                config, math.sqrt(args.alpha_sq), dim=args.dim, corrected=args.corrected
            )
        else:
            rho = coherent_state(math.sqrt(args.alpha_sq), args.dim).density_matrix()
        phases = [k * math.pi / args.phases for k in range(args.phases)]
        per_phase = args.samples // args.phases
        samples = sample_homodyne(rho, phases, per_phase,
                                  efficiency=args.efficiency, seed=args.seed)
        path = writer.out_dir / "samples.csv"
        write_samples_csv(path, samples)
        writer.outputs.append("samples.csv")
        writer.write_json("samples_summary.json", {
            "state": args.state,
            "alpha_sq": args.alpha_sq,
            "phases": args.phases,
            "samples": len(samples),
            "efficiency": args.efficiency,
        })
        return EXIT_OK
    samples = read_samples_csv(args.samples)
    result = mle_reconstruct(samples, dim=args.dim, efficiency=args.efficiency,
                             max_iter=args.max_iter, tol=args.tol)
    writer.write_json("reconstruction.json", reconstruction_report(result))
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_fit(args, writer: RunWriter) -> int:
    config = resolve_config(args.config)
    observations = read_observations_csv(args.observations)
    result = fit_imperfections(
        observations, config.params, corrected_loss=args.corrected_loss,
        restarts=args.restarts, seed=args.seed,
    )
    payload = {
        "loss": result.loss,
        "epsilon": result.epsilon,
        "delta_c": result.delta_c,
        "residual": result.residual,
        "converged": result.converged,
        "restart_residuals": result.restarts,
        "stderr": result.stderr,
    }
    writer.write_json("fit.json", payload)
    print(json.dumps(payload, indent=2))
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_budget(args, writer: RunWriter) -> int:
    path = args.file if args.file is not None else budget_csv_path()
    budget = LossBudget.from_csv(path)
    total = combine_losses(budget)
    payload = {"file": str(path), "items": len(budget.items), "l_sum": total}
    if args.l_fit is not None:
        payload["l_fit"] = args.l_fit
        payload["l_uncorrected"] = residual_loss(args.l_fit, total)
    writer.write_json("budget.json", payload)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


COMMANDS = {
    "params": cmd_params,
    "sweep": cmd_sweep,
    "wigner": cmd_wigner,
    "g2": cmd_g2,
    "tomography": cmd_tomography,
    "fit": cmd_fit,
    "budget": cmd_budget,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    conflict = _conflict(args)
    if conflict is not None:
        parser.error(conflict)
    writer = RunWriter(args.out)
    try:
        code = COMMANDS[args.command](args, writer)
    except (ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_MODEL
    writer.manifest(args.command, getattr(args, "config", ""), getattr(args, "seed", None))
    return code


if __name__ == "__main__":
    sys.exit(main())
