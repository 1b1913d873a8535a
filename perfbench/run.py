"""frontsteer benchmark: one workload, end-to-end metrics or a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload optimize-gauss-1d --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Inputs are made from ``--seed`` before timing starts.  Operations run back
to back in this process, each checked by its workload's correctness gate,
as many as fit in ``--seconds`` at their mean duration (at least one).
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` one more operation runs traced and the result holds the
per-layer metrics that BENCHMARK.json lists, while ``#`` lines echo every
per-layer figure.  The last line of standard output is the result as one
JSON object.  See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("optimize-gauss-1d", "reproduce-refine2", "verify-2d")
SETUP_BEFORE, SETUP_AFTER = 4, 5    # set-up samples around the operations
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit() -> str:
    """HEAD of the checkout's own git repository, if it is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown (not a git checkout, or packed refs)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "frontsteer").glob("*.py")):
        digest.update(path.read_bytes())
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {k: os.environ[k] for k in THREAD_ENV},
            "commit": _commit(), "source_sha256": digest.hexdigest()[:16],
            "seed": seed}


def setup_probe(config: Path) -> float:
    """Set-up time of one fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_once(wl, op=None) -> tuple[float, list[str]]:
    """Time one operation and gate its outputs; return (seconds, errors)."""
    t0 = time.perf_counter()
    try:
        result = (op or wl.run)()
        wall = time.perf_counter() - t0
        errors = wl.gate(result)
    except Exception:   # an operation that raises is a failed operation
        wall = time.perf_counter() - t0
        errors = [traceback.format_exc()]
    for err in errors:
        print(f"{wl.name} seed {wl.seed}: FAILED: {err}", file=sys.stderr)
    return wall, errors


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _check_metrics(workload: str, metrics: dict, units: dict) -> None:
    """The result must hold every metric BENCHMARK.json lists, and on the
    workloads it lists each one must be a positive finite number."""
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics {missing} of BENCHMARK.json not measured")
    listed = {w["name"] for w in _spec()["workloads"]}
    bad = {k: metrics[k] for k in units if not 0 < metrics[k] < math.inf}
    if bad and workload in listed:
        raise RuntimeError(f"{workload}: metrics {bad} are not positive and finite")
    for name, value in bad.items():
        print(f"{workload}: metric {name} = {value} is not positive and finite",
              file=sys.stderr)


def measure(wl, seconds: float) -> tuple[list[float], int, int]:
    """Run operations back to back, as many as fit in ``seconds`` at their
    mean duration (at least one), after an untimed warm-up operation if the
    workload has one; return their times and the failure and attempt counts."""
    walls, failed = [], 0
    if wl.warm_up:
        failed += bool(run_once(wl)[1])
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.fmean(walls) <= seconds:
        wall, errors = run_once(wl)
        walls.append(wall)
        failed += bool(errors)
    return walls, failed, len(walls) + wl.warm_up


def bench(args) -> dict:
    import workloads

    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            import tracing

            walls, failed, attempted = measure(wl, args.seconds)
            tracer = tracing.Tracer()
            _, errors = run_once(wl, lambda: tracer.run(wl.run))
            failed += bool(errors)
            attempted += 1
            figures = tracer.metrics(statistics.median(walls), wl.bundle())
            kind = "per_layer"
        else:
            setup_probe(wl.config)      # unmeasured: compiles bytecode on a fresh checkout
            setups = [setup_probe(wl.config) for _ in range(SETUP_BEFORE)]
            walls, failed, attempted = measure(wl, args.seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups += [setup_probe(wl.config) for _ in range(SETUP_AFTER)]
            figures = {"setup_s": statistics.median(setups),
                       "wall_s": statistics.median(walls), "peak_rss_mb": peak}
            kind = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in _spec()[kind]}
    _check_metrics(args.workload, figures, units)
    metrics = {name: figures[name] for name in units}
    print(f"# {args.workload} seed {args.seed}: wall_s over {len(walls)} untraced "
          f"operations {[round(w, 4) for w in walls]}")
    print(f"# fail_frac = {failed / attempted:.4g} ratio ({failed} of {attempted})")
    for name, value in figures.items():
        print(f"# {name} = {value:.6g} {units.get(name, '(echoed only, unit in README.md)')}")
    print("# env " + json.dumps(environment(args.seed)))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def bench_all(args) -> dict:
    """Every workload in turn, each in a fresh interpreter."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
    return total


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "frontsteer" / "__init__.py").is_file():
        print(f"error: no frontsteer sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)   # before numpy is imported, here or in a child
    sys.path.insert(0, str(SRC))
    result = bench_all(args) if args.workload == "all" else bench(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
