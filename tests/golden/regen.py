"""Regenerate the golden reference CSVs of the `cdl` subcommands.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py [CASE ...]
    PYTHONPATH=src python tests/golden/regen.py --check [CASE ...]

Each case runs one `cdl` subcommand at a fixed seed and small size (the
micro cases through option overrides, the market cases through the
population configs in tests/golden/configs/) and keeps its CSV artifacts (SVGs are convenience output and are not kept)
under tests/golden/<case>/. `tests/test_golden.py` reruns the same cases
and compares against these files. Regenerate only when an output is meant
to change, and say which reference moved and why; name the cases to
regenerate only those (default: all).

With --check nothing under tests/golden/ is written: the cases run into a
temporary directory, each reference file whose bytes differ from the fresh
output (or that the fresh run no longer writes, or does not have yet) is
printed, and the exit status is 1 if any differs. `tests/test_golden.py`
allows numeric cells to move by 1e-12; --check shows the references that
lag the code within that tolerance.
"""

from __future__ import annotations

import argparse
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


def differing(names, golden: Path) -> list[str]:
    """The reference files, as case/name.csv, of the cases `names` under
    `golden` whose bytes differ from a fresh run's, including a reference
    the run no longer writes and a fresh CSV that has no reference."""
    out = []
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            fresh = {p.name: p.read_bytes() for p in run_case(name, Path(tmp))}
        refs = {p.name: p.read_bytes() for p in (golden / name).glob("*.csv")}
        out += [f"{name}/{f}" for f in sorted(fresh.keys() | refs.keys())
                if fresh.get(f) != refs.get(f)]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; print the references that differ, exit 1 if any")
    parser.add_argument("cases", nargs="*", metavar="CASE", help="default: all")
    args = parser.parse_args(argv)
    unknown = set(args.cases) - set(CASES)
    if unknown:
        raise SystemExit(f"unknown golden cases: {sorted(unknown)}")
    names = args.cases or list(CASES)
    if args.check:
        stale = differing(names, GOLDEN)
        for path in stale:
            print(f"differs: {path}")
        print(f"{len(stale)} of the references of {len(names)} cases differ")
        return 1 if stale else 0
    for name in names:
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
    sys.exit(main())
