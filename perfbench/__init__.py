"""The repository benchmark: three workloads, end-to-end and per-layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the checkout's own ``src/``
tree and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, the metrics and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import os
import sys

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and make sure
    ``repro`` is imported from there, never from an installed copy.

    Exits non-zero (without a result line) when the checkout has no
    ``src/repro``: the benchmark measures the tree it ships with.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import repro

    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(
            f"perfbench: repro was imported from {origin}, not from {SRC}"
        )
