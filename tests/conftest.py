"""Settings for the tests in this directory: any warning fails the test
that raises it.  A test that expects one declares it with
``pytest.warns``."""

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    # prepended, so a test's own filterwarnings mark still takes precedence
    for item in items:
        if HERE in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
