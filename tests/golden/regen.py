"""Regenerate the golden reference CSVs of the `cdl` subcommands.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py [CASE ...]

Each case runs one `cdl` subcommand at a fixed seed and small size (the
micro cases through option overrides, the market cases through the
population configs in tests/golden/configs/) and keeps its CSV artifacts (SVGs are convenience output and are not kept)
under tests/golden/<case>/. `tests/test_golden.py` reruns the same cases
and compares against these files. Regenerate only when an output is meant
to change, and say which reference moved and why; name the cases to
regenerate only those (default: all).
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from cdlab import cli

GOLDEN = Path(__file__).resolve().parent
CONFIGS = GOLDEN / "configs"
SEED = 3

#: case name -> `cdl` arguments (without --out).
CASES = {
    "micro-identify": ["micro-identify", "--seed", str(SEED), "--set", "market_count=16"],
    "verify-thm2": ["verify-thm2", "--seed", str(SEED), "--set", "market_count=20"],
    "fig2": ["fig2", "--seed", str(SEED), "--set", "market_count=6"],
    # 12 markets of J = 5 (invert) and J = 2 (predict, verify-thm1); invert
    # and predict draw two types, so both solve one batch per type.
    "invert": ["invert", "--config", str(CONFIGS / "invert.json")],
    "predict": ["predict", "--config", str(CONFIGS / "predict.json")],
    "verify-thm1": ["verify-thm1", "--config", str(CONFIGS / "verify-thm1.json")],
    # 12 markets of J = 3 with two types, x2 and instruments of their own.
    "simulate": ["simulate", "--config", str(CONFIGS / "simulate.json")],
    "extrapolate": ["extrapolate", "--seed", str(SEED), "--set", "n=400"],
    "prop32": ["prop32", "--seed", str(SEED)],
    "price-ccs": ["price-ccs", "--seed", str(SEED), "--set", "market_count=40"],
    "fig1": ["fig1", "--seed", str(SEED), "--set", "market_count=40",
             "--set", "curves_plotted=4"],
    # The acceptance criteria that run in about a second, at the gate's own
    # seed 0; acceptance also writes the fig1 and fig2 artifacts.
    "acceptance": ["acceptance", "--seed", "0", "--set", "criteria=[1,2,5,6,7,9]"],
}


def run_case(name: str, out: Path) -> list[Path]:
    """Run a case into `out`; return its CSV artifacts, sorted by name."""
    code = cli.main(CASES[name] + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"golden case {name!r} exited with code {code}")
    return sorted(out.glob("*.csv"))


def main(names=None) -> int:
    unknown = set(names or ()) - set(CASES)
    if unknown:
        raise SystemExit(f"unknown golden cases: {sorted(unknown)}")
    for name in names or CASES:
        dest = GOLDEN / name
        with tempfile.TemporaryDirectory() as tmp:
            csvs = run_case(name, Path(tmp))
            if dest.exists():
                shutil.rmtree(dest)
            dest.mkdir()
            for path in csvs:
                shutil.copyfile(path, dest / path.name)
        print(f"{name}: {', '.join(p.name for p in csvs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
