"""photondistill benchmark: one command for a chosen workload, or all of them.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file and the
package is imported from its `src/`.  Each workload runs in its own fresh
worker process with BLAS/OpenMP threads capped at one.
The report names every metric with its unit, then the check verdicts; the
last line of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 `metrics` holds the end-to-end metrics, with --trace 1 the
per-layer ones (see README.md).  Outputs, spans and full results go to
`.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("tomo_roundtrip", "model_phase")
# Fresh-interpreter imports per run, half before the worker and half after
# it, so that the median samples the host at both ends of the run.
SETUP_SAMPLES = 8
DEADLINE_S = 170.0  # per workload, inside the 180 s every run must end in


def _worker_env() -> dict[str, str]:
    # One thread: the package's arrays are too small for threaded BLAS to
    # pay, and a second thread waiting on a shared, busy CPU only adds noise.
    threads = "1"
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over the package sources, which identifies them without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def measure_setup(env: dict[str, str], deadline: float, count: int) -> list[float]:
    """Wall seconds of `count` fresh interpreters importing photondistill.cli."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import photondistill.cli"], cwd=ROOT, env=env,
                       check=True, capture_output=True, timeout=max(deadline - time.time(), 1))
        samples.append(time.perf_counter() - start)
    return samples


def run_workload(name: str, args, env: dict[str, str], out_dir: Path) -> dict:
    deadline = time.time() + DEADLINE_S
    setup = measure_setup(env, deadline, SETUP_SAMPLES // 2)
    result_path = out_dir / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--result", str(result_path)],
        cwd=ROOT, env=env, check=True, timeout=max(deadline - time.time(), 1),
    )
    result = json.loads(result_path.read_text())
    setup += measure_setup(env, deadline, SETUP_SAMPLES - len(setup))
    result["setup_s"] = statistics.median(setup)
    result["setup_samples"] = len(setup)
    result["environment"].update(commit=_git_commit(), src_sha256=_source_digest())
    result_path.write_text(json.dumps(result, indent=1))
    return result


def end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (result["setup_s"], "s"),
        "round_s": (result["round_s"], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    return {name: (result["per_layer"][name], unit) for name, unit in METRICS.items()}


def report(result: dict, metrics: dict[str, tuple[float, str]]):
    env = result["environment"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print("   env: python {python}  numpy {numpy}  scipy {scipy}  nproc {nproc}  "
          "threads {thread_caps}  commit {commit}  src {src_sha256}".format(**env))
    if result["trace"] == 0:
        print(f"   rounds {result['rounds']} (closed loop, 1 client); "
              f"set-up median of {result['setup_samples']} imports")
        for name, entry in result["commands"].items():
            print(f"   {name:<34} {entry['median_s']:>14.6f} s      (median of {entry['n']})")
    else:
        print(f"   untraced round_s {result['untraced_round_s']}")
        print(f"   traced round_s   {result['traced_round_s']}")
        print(f"   spans written to .perfbench/{result['spans_file']}")
        print("   top self time per round: " + ", ".join(
            f"{name} {self_s:.4f} s ({calls:.0f} calls)"
            for name, self_s, calls in result["top_self_s"]))
    for name, (value, unit) in metrics.items():
        print(f"   {name:<40} {value:>16.6f} {unit}")
    print(f"   fail_frac {result['failed'] / result['attempted']:.6f} "
          f"({result['failed']}/{result['attempted']} commands)")
    print(f"   reproducibility: {result['repro_checked'] - result['repro_failed']}"
          f"/{result['repro_checked']} commands wrote identical files on a same-seed rerun")
    for name in sorted(set(result["passes"]) | set(result["fails"])):
        verdict = "FAIL" if result["fails"].get(name) else "pass"
        print(f"   check {name:<28} {verdict}  pass {result['passes'].get(name, 0)}"
              f"  fail {result['fails'].get(name, 0)}")
        for problem in result["problems"].get(name, [])[:3]:
            print(f"      {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "photondistill" / "cli.py").is_file():
        print(f"perfbench: no photondistill sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    env = _worker_env()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args, env, out_dir)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: workload {name} did not complete: {exc}", file=sys.stderr)
            return 1
        metrics = per_layer(result) if args.trace else end_to_end(result)
        report(result, metrics)
        prefix = "" if len(names) == 1 else f"{name}."
        combined["correct"] &= result["failed"] == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{prefix}{k}": {"value": v, "unit": u}
                                    for k, (v, u) in metrics.items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
