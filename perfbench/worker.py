"""Runs one workload in this (fresh) process and writes its result as JSON.

Started by `run.py`, which caps the BLAS/OpenMP threads in its environment
and measures set-up time itself.  Usage:

    python3 perfbench/worker.py --root DIR --workload NAME --seed N \
        --seconds S --trace 0|1 --result FILE

With --trace 0 it repeats whole rounds while the next one is expected to
end within --seconds of command time (at least MIN_ROUNDS) and reports
median wall times.  With
--trace 1 it runs a fixed number of rounds untraced and then the same
rounds traced, so that counts repeat exactly for a given seed, and reports
the per-layer metrics of the traced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from layers import HOOKS, layer_metrics
from tracing import Tracer
from workloads import WORKLOADS, round_seed

MIN_ROUNDS = 3


def _import_cli(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import photondistill.cli as cli

    if Path(cli.__file__).resolve().parents[2] != root.resolve():
        raise ImportError(f"photondistill imported from {cli.__file__}, not from {src}")
    return cli


def _environment() -> dict:
    import numpy
    import scipy

    caps = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": caps,
        "machine": platform.machine(),
    }


class Runner:
    """Executes rounds of one workload and checks their outputs."""

    def __init__(self, cli, workload, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, list[str]] = {}
        self.passes: dict[str, int] = {}
        self.fails: dict[str, int] = {}
        self.repro_checked = 0
        self.repro_failed = 0

    def run_round(self, index: int, tag: str, reference: list | None = None):
        """Runs round `index`; returns its commands and their wall times.

        With `reference`, the commands of an earlier run of the same round,
        each command's output files must also match those byte for byte.
        """
        seed = round_seed(self.workload.name, self.seed, index)
        commands = self.workload.commands(seed, self.work / f"{tag}{index}")
        times, codes = {}, {}
        for cmd in commands:
            sink = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    codes[cmd.name] = self.cli.main(cmd.argv)
            except SystemExit as exc:  # argparse rejects the argv
                codes[cmd.name] = exc.code
            except Exception:  # a crash is a failed command, not a benchmark crash
                codes[cmd.name] = traceback.format_exc(limit=3)
            times[cmd.name] = time.perf_counter() - start
        for i, cmd in enumerate(commands):
            problems = self._check(cmd, codes[cmd.name])
            if reference is not None:
                mismatches = _compare_outputs(reference[i].out, cmd.out)
                self.repro_checked += 1
                self.repro_failed += bool(mismatches)
                problems += mismatches
            self._verdict(cmd.name, problems)
        return commands, times

    def _check(self, cmd, code) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        try:
            return cmd.check(cmd.out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"output unreadable: {exc!r}"]

    def _verdict(self, name: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.fails[name] = self.fails.get(name, 0) + 1
            self.problems.setdefault(name, []).extend(problems[:3])
        else:
            self.passes[name] = self.passes.get(name, 0) + 1

    def discard(self, tag: str, index: int):
        shutil.rmtree(self.work / f"{tag}{index}", ignore_errors=True)


def _compare_outputs(first: Path, second: Path) -> list[str]:
    """Same seed, same bytes: problems if two output directories differ."""
    try:
        names = sorted(p.name for p in first.iterdir())
        if names != sorted(p.name for p in second.iterdir()):
            return [f"repro: output files differ: {names}"]
        problems = []
        for name in names:
            left, right = (first / name).read_bytes(), (second / name).read_bytes()
            if name == "manifest.json":
                left, right = (_without_output_dir(x) for x in (left, right))
            if left != right:
                problems.append(f"repro: {name} differs between two runs with one seed")
        return problems
    except (OSError, ValueError) as exc:
        return [f"repro: outputs unreadable: {exc!r}"]


def _without_output_dir(raw: bytes) -> dict:
    payload = json.loads(raw)
    payload.pop("output_dir", None)
    return payload


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced rounds: median wall time per command and per round."""
    warm, _ = runner.run_round(1, "warm")  # fills lazy imports; reference for repro
    per_cmd: dict[str, list[float]] = {}
    rounds: list[float] = []
    index = 1
    while len(rounds) < MIN_ROUNDS or sum(rounds) + statistics.median(rounds) <= seconds:
        _, times = runner.run_round(index, "r", warm if index == 1 else None)
        runner.discard("r", index)
        for name, value in times.items():
            per_cmd.setdefault(name, []).append(value)
        rounds.append(sum(times.values()))
        index += 1
    runner.discard("warm", 1)
    return {
        "rounds": len(rounds),
        "round_s": statistics.median(rounds),
        "commands": {n: {"median_s": statistics.median(v), "n": len(v), "all_s": v}
                     for n, v in per_cmd.items()},
        "all_round_s": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(runner: Runner, spans_path: Path) -> dict:
    """Fixed rounds untraced, then the same rounds traced; per-layer metrics."""
    n = runner.workload.trace_rounds
    warm, _ = runner.run_round(1, "warm")
    untraced = []
    for index in range(1, n + 1):
        _, times = runner.run_round(index, "r", warm if index == 1 else None)
        runner.discard("r", index)
        untraced.append(sum(times.values()))
    runner.discard("warm", 1)

    tracer = Tracer()
    tracer.install(HOOKS)
    tracer.count_draws("photonstats", "rng_draws")
    traced = []
    try:
        for index in range(1, n + 1):
            tracer.round = index
            _, times = runner.run_round(index, "t")
            runner.discard("t", index)
            traced.append(sum(times.values()))
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, n, sum(traced))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {"per_layer": metrics, "traced_round_s": traced, "untraced_round_s": untraced,
            "top_self_s": _top_self(tracer, n)}


def _top_self(tracer, rounds: int, count: int = 12) -> list:
    totals = tracer.totals()
    ranked = sorted(totals.items(), key=lambda item: -item[1]["self_s"])[:count]
    return [(name, t["self_s"] / rounds, t["calls"] / rounds) for name, t in ranked]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)

    cli = _import_cli(args.root)
    workload = WORKLOADS[args.workload]()
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=args.result.parent))
    runner = Runner(cli, workload, args.seed, work)
    try:
        if args.trace:
            spans = args.result.parent / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            result = trace(runner, spans)
            result["spans_file"] = spans.name
        else:
            result = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        environment=_environment(),
        attempted=runner.attempted, failed=runner.failed,
        passes=runner.passes, fails=runner.fails, problems=runner.problems,
        repro_checked=runner.repro_checked, repro_failed=runner.repro_failed,
    )
    tmp = args.result.with_suffix(".tmp")
    tmp.write_text(json.dumps(result, indent=1))
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
