"""Solve engine throughput: fused batched solve vs the reference loop.

The engine (:mod:`repro.core.engine`) stacks every active instance's
centered/scaled design and multi-RHS log-odds targets into 3-D tensors
and solves one batched normal-equations system per lock-step round; the
reference is the pre-engine implementation — one Python-level ``lstsq``
call per instance.  Both sides produce the full per-pair
:class:`~repro.core.equations.PairSystemSolution` result objects, so the
comparison is honest end to end.

Acceptance gate (enforced at default scale, not ``--tiny``): the engine
must be at least 3x the reference loop at ``n=64, d=16, C=10``
(:data:`repro.core.engine.ENGINE_ACCEPTANCE_POINT`).  The report also
carries the max engine-vs-reference weight difference per configuration,
which must sit at solver rounding error.

Both grids carry one point at the paper's image scale (``d=784, C=10``;
``k=8`` at default scale, ``k=2`` under ``--tiny``), where the engine's
conditioning screen and normal-equations accuracy matter most.

The grid constants and the gate live in
:func:`repro.core.engine.run_standard_engine_benchmark`, shared with the
``python -m repro bench-engine`` subcommand.

Run standalone (the CI smoke uses ``--tiny``)::

    PYTHONPATH=src python benchmarks/bench_solve_engine.py --tiny
    PYTHONPATH=src python benchmarks/bench_solve_engine.py \
        --output BENCH_solve_engine.json

or as a pytest bench: ``pytest benchmarks/bench_solve_engine.py``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.engine import (
    benchmark_gate_failures,
    run_standard_engine_benchmark,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="solve engine throughput: batched engine vs reference loop"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats", type=int, default=20,
        help="timed repetitions per configuration (best-of reported)",
    )
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI smoke scale (small shapes, no speedup gate)",
    )
    parser.add_argument(
        "--output", default=None,
        help="also write the rows as a JSON artifact (e.g. "
        "BENCH_solve_engine.json)",
    )
    args = parser.parse_args(argv)

    report, threshold = run_standard_engine_benchmark(
        tiny=args.tiny, repeats=args.repeats, seed=args.seed
    )
    print(report.as_text())
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2)
            handle.write("\n")
        print(f"\nJSON artifact written to {args.output}")

    failures = benchmark_gate_failures(report, threshold)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_solve_engine(record_result):
    """Pytest-harness entry (``pytest benchmarks/bench_solve_engine.py``)."""
    report, threshold = run_standard_engine_benchmark()
    record_result("solve_engine", report.as_text())
    assert benchmark_gate_failures(report, threshold) == []


if __name__ == "__main__":
    raise SystemExit(main())
