"""Every reference run (tests/reference_outputs.py) writes its committed
tables byte for byte.  A mismatch names the stack the references were
recorded on and the running one, since on another numpy or BLAS the last
bits may differ."""

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
