"""Make the package importable from a bare checkout.

Prefer the installed package; fall back to the source tree.
"""

import sys
from pathlib import Path

try:
    import motivecount  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
