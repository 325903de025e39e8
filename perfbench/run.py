"""Run one benchmark workload and print its metrics.

  python3 perfbench/run.py --workload fixpoint --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half of ``--seconds`` and traced for the other
half, and prints the per-layer metrics.  Every result is checked
against an independent oracle, and every response must report a
Theorem 5.1/5.2 bound ratio <= 1; a mismatch prints the result with
``"correct": false`` and exits 1.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("edge_read", "miss_update", "fixpoint")
#: The latency tail reported per workload: the highest percentile with at
#: least ten samples beyond it at the run length the benchmark uses.
TAIL_Q = {"edge_read": 0.99, "miss_update": 0.97, "fixpoint": 0.75}
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = {"edge_read": 3, "miss_update": 5, "fixpoint": 5}


def measure(workload: str, seed: int, seconds: float, trace: bool):
    from perfbench import edge_read, inprocess

    if workload == "edge_read":
        return edge_read.phases(seed, seconds, trace, SETUPS[workload])
    return inprocess.phases(
        workload, seed, seconds, trace, SETUPS[workload]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from perfbench import use_checkout_sources

    use_checkout_sources()
    from perfbench import report

    untraced, traced = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    tail_q = TAIL_Q[args.workload]
    if traced is None:
        phase = untraced
        values = report.end_to_end(phase, tail_q)
    else:
        phase = traced
        values = report.per_layer(
            traced, report.tracing_overhead(untraced, traced)
        )
    mismatches = untraced.mismatches + (traced.mismatches if traced else [])
    attempted = len(untraced.requests) + (
        len(traced.requests) if traced else 0
    )
    failed = untraced.failed + (traced.failed if traced else 0)

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for note in report.sample_notes(phase, tail_q):
        print(note)
    for name, value in values.items():
        print(f"{name} = {value:.6g} {report.UNITS[name]}")
    for problem in mismatches[:20]:
        print(f"MISMATCH {problem}")
    correct = not mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": report.UNITS[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # Run as a script, only perfbench/ itself is on the path.
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    sys.exit(main())
