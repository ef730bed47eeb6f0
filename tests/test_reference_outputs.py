"""Every reference run (tests/reference_outputs.py) writes its committed
tables, field files and report.json (its timestamp aside) byte for byte.
A mismatch names the stack the references were recorded on and the running
one, since on another numpy or BLAS the last bits may differ."""

import json
from itertools import zip_longest

import pytest

import reference_outputs as ref

CASES = ref.cases()


def _stacks() -> str:
    return f"recorded on {ref.manifest()['stack']}, running on {ref.stack()}"


def test_the_references_were_recorded_on_the_running_stack():
    assert ref.manifest()["stack"] == ref.stack(), (
        f"reference outputs {_stacks()}; regenerate them on this stack with "
        "`PYTHONPATH=src python tests/reference_outputs.py` and log what moved")


def _assert_report_matches(name, tmp_path):
    got, want = ref.run_report(tmp_path), ref.recorded_report(name)
    assert want is not None, f"{name}: no reference report.json"
    if got != want:
        moves = ref.report_moves(json.loads(got), json.loads(want)) or ["formatting"]
        pytest.fail(f"{name}/report.json moved at {', '.join(moves)} ({_stacks()})")


@pytest.mark.parametrize("name", sorted(CASES))
def test_tables_match_the_references_byte_for_byte(name, tmp_path):
    want = ref.recorded(name)
    assert want and sorted(want) == ref.manifest()["tables"][name]
    got = ref.run_tables(CASES[name], tmp_path)
    assert sorted(got) == sorted(want), f"{name}: tables {sorted(got)}, references {sorted(want)}"
    for table, body in want.items():
        if got[table] != body:
            lines = zip_longest(got[table].decode().splitlines(), body.decode().splitlines())
            line, (new, old) = next(((k, p) for k, p in enumerate(lines, 1) if p[0] != p[1]),
                                    ("end", ("", "")))
            pytest.fail(f"{name}/{table} line {line}: {new!r}, reference {old!r} ({_stacks()})")
    _assert_report_matches(name, tmp_path)


@pytest.mark.parametrize("name", sorted(ref.field_cases()))
def test_field_files_match_their_recorded_sha256(name, tmp_path):
    want = ref.manifest()["fields"].get(name, {})  # a case may write its report only
    assert ref.run_tables(ref.field_cases()[name], tmp_path) == {}
    assert ref.field_hashes(tmp_path) == want, f"{name}: field files moved ({_stacks()})"
    _assert_report_matches(name, tmp_path)


def test_column_shifts_read_the_largest_relative_change_of_each_column():
    old = b"model,i,phase_rad\ngeneral,0,2.0\ngeneral,1,-4.0\n"
    new = b"model,i,phase_rad\ngeneral,0,2.0000000000000004\ngeneral,1,-4.5\n"
    assert ref.column_shifts(new, new) == {"model": 0.0, "i": 0.0, "phase_rad": 0.0}
    assert ref.column_shifts(new, old) == {"model": 0.0, "i": 0.0, "phase_rad": 0.125}
    renamed = b"model,i,phase_rad\nnewton,0,2.0\ngeneral,1,-4.0\n"
    assert ref.column_shifts(renamed, old)["model"] == float("inf")
    assert set(ref.column_shifts(old + b"general,2,1.0\n", old).values()) == {float("inf")}


def test_report_moves_name_the_entries_that_differ():
    old = {"meta": {"seed": 0}, "result": {"rows": 3, "flags": {"a": True, "b": False}}}
    new = {"meta": {"seed": 0}, "result": {"rows": 3, "flags": {"a": True, "b": True}},
           "extra": 1}
    assert ref.report_moves(old, old) == []
    assert ref.report_moves(new, old) == ["extra", "result.flags.b"]
    # a number that moved carries its relative shift, as a table column does
    new["result"].update(rows=4, ratio=0.5000000000000001)
    old["result"]["ratio"] = 0.5
    assert ref.report_moves(new, old) == ["extra", "result.flags.b",
                                          "result.ratio 2.22e-16", "result.rows 0.333"]
