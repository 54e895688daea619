"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload gateway-l2 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics named in ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  The run's raw record (the
machine, every request's latency, the cross-checks and, when traced,
every span) is written to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"


def blas_threads() -> str:
    """OpenBLAS's thread count as the loaded library reports it, else
    the environment's setting."""
    import ctypes

    import numpy  # noqa: F401 - loads the BLAS library being asked

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                return str(getattr(ctypes.CDLL(lib), symbol)())
            except (OSError, AttributeError):
                continue
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return os.environ[var]
    return "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine() -> dict:
    import numpy

    cpu = "unknown"
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (SRC / "repro").is_dir():
        print(f"error: run from a checkout of the repository "
              f"(missing {spec_path.name} or src/repro)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {names}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads

    workdir = RUNS / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = result.layer if args.trace else result.end_to_end()
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    # ``correct`` is the benchmark's own accounting: every answer was
    # checked, and the client's counts agree with the program's meters.
    # An answer that fails the ground-truth check is a failed request,
    # counted in ``failed`` and ``ok_ratio``.
    checks = result.checks
    summary = {
        "correct": all(checks.values()),
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }

    record = {
        "args": vars(args),
        "machine": machine(),
        "checks": checks,
        "wrong_answers": [
            {"index": o.index, "served_from_cache": o.from_cache}
            for o in result.outcomes if o.wrong
        ],
        "error_codes": sorted({o.code for o in result.outcomes if o.code}),
        "setup_s": result.setup_s,
        "elapsed_s": result.elapsed_s,
        # [stream index, latency ms, served from cache (0/1)] per request.
        "latencies_ms": [
            [o.index, round(o.latency_s * 1e3, 6), int(o.from_cache)]
            for o in result.outcomes
        ],
        "notes": result.notes,
        "summary": summary,
        "spans": [s.as_dict() for s in result.spans],
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = RUNS / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
        f"-{os.getpid()}.json"
    )
    out.write_text(json.dumps(record))
    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}", file=sys.stderr)
    print(f"wrong answers (counted as failed): {result.wrong}",
          file=sys.stderr)
    print(f"machine {json.dumps(record['machine'])}", file=sys.stderr)
    print(f"samples {result.attempted}, raw record {out.relative_to(ROOT)}",
          file=sys.stderr)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
