"""Shared reporting for the acceptance suite, and the all-pairs view of
the product stream.

Each acceptance test wraps its body in `criterion(...)`, which times the
work, enforces the runtime budget, and records a single PASS/FAIL line
that is echoed at the end of the pytest run.  Every test runs with its
own default cache directory.  Hypothesis keeps its files in a temporary
directory and saves no examples, so a run writes nothing into the checkout.
"""

import tempfile
import time

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# removed when the interpreter exits
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="heckequot-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
settings.register_profile("no-database", database=None)
settings.load_profile("no-database")

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


def _streamed_pairs(hb):
    """Every W' pair (a, b) with l(a) + l(b) <= radius, mapped to its packed
    row {z: h_{a,b,z}}: the stream visits each computed row once, and
    hb._rep spreads them, h_{a,b,g(z)} = h_{x,y,z} for the row (x, y)."""
    rows = {}

    def visit(xi, yi, P):
        assert (xi, yi) not in rows, "a row visited twice"
        rows[(xi, yi)] = P

    hb._stream_products(visit)
    n, wl, pairs = len(hb.wp), hb.wp_len, {}
    for a in range(n):
        for b in range(n):
            if wl[a] + wl[b] <= hb.radius:
                key, g = hb._rep(a, b)
                pairs[(a, b)] = {g[zi]: H for zi, H in rows[key].items()}
    return pairs


@pytest.fixture
def streamed_pairs():
    """The function hb -> {(a, b): packed row} over every pair in the budget."""
    return _streamed_pairs


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_LINES):
            terminalreporter.write_line(line)
