"""The README's examples run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from heckequot import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for code in blocks:
            exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["1 0 True", "20 1 False"]
    # t_s t_s = t_s: one gamma constant, and the row it lies in
    assert lines[2] == "1 True"
    # the unit's support names group elements, not ball indices
    assert lines[-1] == ("[<InfiniteDihedral: t(0,) f0>, <InfiniteDihedral: t(0,) f1>, "
                         "<InfiniteDihedral: t(1,) f1>]")


def test_readme_shell_examples_exit_as_documented(tmp_path):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [ln for block in blocks for ln in block.splitlines()
             if ln.startswith("heckequot run ")]
    assert len(lines) >= 5
    for line in lines:
        command, _, comment = line.partition("#")
        want = 2 if "exits 2" in comment else 0
        with contextlib.redirect_stdout(io.StringIO()):
            got = cli.main(shlex.split(command)[1:] + ["--cache-dir", str(tmp_path)])
        assert got == want, line
