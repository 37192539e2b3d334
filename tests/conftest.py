"""Shared reporting for the acceptance suite.

Each acceptance test wraps its body in `criterion(...)`, which times the
work, enforces the runtime budget, and records a single PASS/FAIL line
that is echoed at the end of the pytest run.  Every test runs with its
own default cache directory.
"""

import time

import pytest

_LINES = []


class _Scope:
    def __init__(self, number: int, title: str, budget: float | None):
        self.number = number
        self.title = title
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        shown = f"{elapsed:.2f}s" + (f"/{self.budget:.0f}s" if self.budget else "")
        if exc_type is not None:
            _LINES.append(f"C{self.number:02d} FAIL  {shown:>12}  {self.title}")
            return False
        if self.budget is not None and elapsed > self.budget:
            _LINES.append(f"C{self.number:02d} FAIL  {shown:>12}  {self.title} (over budget)")
            raise AssertionError(
                f"criterion {self.number} exceeded its budget: {elapsed:.2f}s > {self.budget}s"
            )
        _LINES.append(f"C{self.number:02d} PASS  {shown:>12}  {self.title}")
        return False


@pytest.fixture
def criterion():
    return _Scope


@pytest.fixture(autouse=True)
def _private_cache(tmp_path_factory, monkeypatch):
    """Point the default cache at a fresh directory, so no test can write
    to the user's ~/.cache/heckequot."""
    monkeypatch.setenv("HECKEQUOT_CACHE", str(tmp_path_factory.mktemp("heckequot-cache")))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_LINES):
            terminalreporter.write_line(line)
