"""Shared pytest plumbing.

Acceptance tests call record() with one line per criterion; the hook below
prints them in a block at the end of the run so the pass/fail summary is
visible without -s.
"""

import pytest

ACCEPTANCE_LINES = []


def record(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture
def fresh_pool():
    """The quadrature's one pool, dropped before and after the test.  The
    pool is sized by the usable cores at its first use, so a test that
    fakes the core count builds its own, which no later test sees."""
    from karamata_kit import quad

    pool = quad._pool  # the real one, should the test replace it
    pool.cache_clear()
    yield
    pool.cache_clear()
