"""Make the package importable from a bare checkout, and share the slowest
oracle sweep across the session.

Prefer the installed package; fall back to the source tree.
"""

import sys
from pathlib import Path

import pytest

try:
    import motivecount  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture(scope="session")
def bridges_q23():
    """``bridge_check_all([2, 3])``, computed once per session: the ``report``
    command runs this sweep."""
    from motivecount.oracle import bridge_check_all

    return tuple(bridge_check_all([2, 3]))


@pytest.fixture
def shared_bridges(monkeypatch, bridges_q23):
    """Serve ``report``'s ``bridge_check_all([2, 3])`` from the session's one
    run; any other q list is computed as usual.  ``oracle --check bridges``
    runs each bridge itself, so it always computes."""
    import motivecount.cli as cli

    compute = cli.bridge_check_all
    monkeypatch.setattr(cli, "bridge_check_all",
                        lambda qs: list(bridges_q23) if list(qs) == [2, 3] else compute(qs))
