"""Tier-1 wall clock of two checkouts, written to BENCH_tier1.json at the
repository root.

    python3 bench/tier1.py --base OTHER_CHECKOUT --new .

Runs the repository's tier-1 suite (`python -m pytest -q
--continue-on-collection-errors --durations=5`) once in each checkout, the
base first, each in its own process with its own `src/` on PYTHONPATH, and
records the suite's own total time, the pass and fail counts, and its five
slowest tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5",
           "-p", "no:cacheprovider"]


def tier1(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, *COMMAND], cwd=checkout, env=env,
                         capture_output=True, text=True).stdout
    counts = re.search(r"^=*\s*(.*) in ([\d.]+)s", out.splitlines()[-1])
    slowest = re.findall(r"^([\d.]+)s call\s+(\S+)$", out, re.M)
    return {
        "total_s": float(counts.group(2)),
        "outcome": counts.group(1),
        "slowest": [{"test": name, "s": float(s)} for s, name in slowest],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    ap.add_argument("--new", type=Path, required=True, help="the changed checkout")
    ap.add_argument("--base-name", default="base", help="label stored for --base")
    ap.add_argument("--new-name", default="new", help="label stored for --new")
    args = ap.parse_args()
    doc = {
        "what": "tier-1 pytest wall clock and its five slowest tests, one run per checkout",
        "command": "python " + " ".join(COMMAND),
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpu": platform.machine(), "cores": os.cpu_count()},
        "base": {"name": args.base_name, **tier1(args.base.resolve())},
        "new": {"name": args.new_name, **tier1(args.new.resolve())},
    }
    (ROOT / "BENCH_tier1.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
