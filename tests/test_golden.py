"""Golden references for `cdl` subcommands.

`tests/golden/regen.py` wrote the reference CSVs; this test reruns each
case and compares cell by cell. Numeric cells agree to a relative error of
1e-12, with an absolute floor of 1e-12 for values near 0 (shares, utilities
and prices here are of unit scale, so the floor is rounding at that scale).
Text and boolean cells match exactly.
"""

import csv
import importlib.util
import math
import shutil
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12
ATOL = 1e-12

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def as_number(cell):
    """The float a numeric cell holds, or None for text and booleans."""
    try:
        return float(cell)
    except ValueError:
        return None


def cells_agree(got, ref):
    g, r = as_number(got), as_number(ref)
    if g is None or r is None:
        return got == ref
    return math.isclose(g, r, rel_tol=RTOL, abs_tol=ATOL)


@pytest.mark.parametrize("case", sorted(regen.CASES))
def test_micro_subcommand_matches_golden_reference(case, tmp_path):
    csvs = regen.run_case(case, tmp_path)
    refs = sorted((GOLDEN / case).glob("*.csv"))
    assert [p.name for p in csvs] == [p.name for p in refs]
    for path, ref_path in zip(csvs, refs):
        got, ref = read_csv(path), read_csv(ref_path)
        assert got[0] == ref[0], f"{case}/{path.name}: header"
        assert len(got) == len(ref), f"{case}/{path.name}: row count"
        for i, (row, ref_row) in enumerate(zip(got[1:], ref[1:]), start=1):
            assert len(row) == len(ref_row)
            for col, cell, ref_cell in zip(ref[0], row, ref_row):
                assert cells_agree(cell, ref_cell), (
                    f"{case}/{path.name} row {i} {col}: {cell} != {ref_cell}")


def test_cell_comparison_rules():
    assert cells_agree("1.0000000000000002", "1")
    assert not cells_agree("1.00000000001", "1")
    assert cells_agree("3e-13", "8e-13")  # below the absolute floor
    assert not cells_agree("True", "False")
    assert not cells_agree("identity", "true")
    assert cells_agree("0", "0")


def test_every_subcommand_has_a_golden_case():
    from cdlab import cli
    assert set(cli.RUNNERS) == set(regen.CASES)


def test_regen_check_names_a_reference_whose_bytes_differ(tmp_path, monkeypatch, capsys):
    """`regen.py --check` passes on a copy of a case's references and, once
    one digit of a copy moves within the cell tolerance above, names that
    file and exits 1; it writes nothing into the reference tree."""
    shutil.copytree(GOLDEN / "prop32", tmp_path / "prop32")
    monkeypatch.setattr(regen, "GOLDEN", tmp_path)
    assert regen.main(["--check", "prop32"]) == 0
    assert "differs" not in capsys.readouterr().out
    ref = tmp_path / "prop32" / "prop32_report.csv"
    corrupted = ref.read_bytes().replace(b"1.6653345369377348e-16", b"1.6653345369377349e-16")
    assert corrupted != ref.read_bytes()
    ref.write_bytes(corrupted)
    assert all(cells_agree(c, r) for c, r in zip(*(
        sum(read_csv(p), []) for p in (GOLDEN / "prop32" / ref.name, ref))))
    assert regen.main(["--check", "prop32"]) == 1
    assert "differs: prop32/prop32_report.csv" in capsys.readouterr().out.splitlines()
    assert ref.read_bytes() == corrupted
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["prop32", "prop32_report.csv"]
