"""Record the sha256 of every CLI item's `--format records` report.

    python3 perfbench/record.py

Run at a commit whose reports are the reference.  Unseeded items are
recorded once; seeded items for seeds 0..SEEDS-1.  The result replaces
perfbench/expected.json.  Any other seed falls back to the verdict gate.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from child import EXPECTED, run_cli, sha256  # noqa: E402
from workloads import WORKLOADS, CliItem  # noqa: E402

SEEDS = 16


def main() -> int:
    digests: dict[str, str] = {}
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        for item in workload.items:
            if not isinstance(item, CliItem):
                continue
            for seed in range(SEEDS if item.seeded else 1):
                with tempfile.TemporaryDirectory(dir=tmp_root) as cache:
                    code, text = run_cli(item, seed, cache)
                if code != item.exit:
                    print(f"{item.key(seed)}: exit {code}, expected {item.exit}",
                          file=sys.stderr)
                    return 1
                digests[item.key(seed)] = sha256(text)
                print(item.key(seed), digests[item.key(seed)], flush=True)
    EXPECTED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
