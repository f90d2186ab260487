"""Settings for the tests in this directory: any warning fails the test
that raises it.  A test that expects one declares it with
``pytest.warns``.  The ``ops_run`` fixture counts the ops a call runs."""

from collections import Counter
from pathlib import Path

import pytest

from semgcn import autodiff

HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    # prepended, so a test's own filterwarnings mark still takes precedence
    for item in items:
        if HERE in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


@pytest.fixture
def ops_run(monkeypatch):
    """``ops_run(f)`` is ``f()`` and the op kinds it ran, recorded on a
    tape or not: every op passes its output through
    ``autodiff._maybe_record``."""
    def run(f):
        ran = Counter()
        record = autodiff._maybe_record
        with monkeypatch.context() as patch:
            patch.setattr(autodiff, "_maybe_record", lambda op, *rest: (
                ran.update([op]), record(op, *rest))[1])
            return f(), ran
    return run
