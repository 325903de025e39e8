"""Make ``perfbench`` importable and ``repro`` come from this checkout."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import use_checkout_sources  # noqa: E402

use_checkout_sources()
