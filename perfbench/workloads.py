"""The benchmark's two fixed workloads and their correctness gates.

A workload is a list of items run in order, once per pass.  A CLI item is
one `heckequot run ...` invocation through `cli.main`; a library item
builds a `HeckeBall` and asks for its cells.  Each item has a gate: the
sha256 of the `--format records` report (recorded in expected.json by
record.py) plus the exit code for CLI items, and recorded invariants for
library items.  A pass takes 4 to 15 s on a 2-core machine, so a run can
take the median of several passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CliItem:
    """`heckequot run <argv>`; `seeded` forwards the workload seed."""
    argv: tuple[str, ...]
    exit: int = 0
    seeded: bool = False

    def command(self, seed: int) -> list[str]:
        extra = ["--seed", str(seed)] if self.seeded else []
        return ["run", *self.argv, *extra, "--format", "records"]

    def key(self, seed: int) -> str:
        """Name of the recorded digest for this item at this seed."""
        return " ".join(self.command(seed)[1:-2])


@dataclass(frozen=True)
class PglItem:
    """HeckeBall(extended_affine_pgl(n), radius) with its cells and
    distinguished involutions; the presentation is built in set-up."""
    n: int
    radius: int
    wprime: int
    p_entries: int
    cells: tuple[tuple[int, int], ...]   # certified (size, a), sorted
    distinguished: int

    def key(self, seed: int) -> str:
        return f"pgl n={self.n} radius={self.radius}"


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple = field(default_factory=tuple)


WORKLOADS = {w.name: w for w in [
    Workload(
        "hecke-side",
        (CliItem(("so5-cells", "--radius", "12")),
         CliItem(("so5-jc1",)),
         CliItem(("so5-cells", "--radius", "16")),
         PglItem(4, 9, 589, 47273, ((4, 0), (256, 2), (272, 1), (1488, 3)), 11),
         CliItem(("infdihedral-J",), seeded=True),
         CliItem(("infdihedral-cells",)),
         CliItem(("infdihedral-P-properties",)))),
    Workload(
        "dual-side",
        (CliItem(("sl2-crossprod",), seeded=True),
         CliItem(("sl2-extquot",)),
         CliItem(("so5-extquot",)),
         CliItem(("so5-match",)),
         CliItem(("pgl-iwahori", "--n", "2")),
         CliItem(("pgl-iwahori", "--n", "3")),
         CliItem(("pgl-iwahori", "--n", "4"), exit=2),
         CliItem(("gl-match",)),
         CliItem(("gl-bernstein-point",)),
         CliItem(("lowest-cell",)))),
]}
