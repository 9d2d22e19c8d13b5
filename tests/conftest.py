import weakref

import pytest

from pcohom import core

ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True, scope="module")
def fresh_twin_registry():
    """Each test module builds its groups in an empty twin registry, as
    each CLI process does, and leaves an empty one after it.  Groups that
    outlive a module (its globals, the `functools.cache` builders of
    `unitriangular`) keep their warm memo caches, but no group built in a
    later module, `benchmarks/` included, finds them (`core._table_group`)."""
    core._TWINS = weakref.WeakValueDictionary()
    yield
    core._TWINS = weakref.WeakValueDictionary()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
