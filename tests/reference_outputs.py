"""Reference outputs: the CSV tables of a fixed set of runs, committed under
tests/reference/ so that any change to the bytes a run writes shows in the
test suite (tests/test_reference_outputs.py).

Regenerate them, after a change that moves an output on purpose, with

    PYTHONPATH=src python tests/reference_outputs.py

and say in CHANGES.md which tables moved and by how much.  The manifest
records the numpy version and BLAS the references were made with: on
another stack the last bits may differ.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
PRESETS = ("gie-2x2", "semiclassical-overlap", "sn-vs-full", "wide-gaussian-pair",
           "zassenhaus-t3")


def _gie(**edits) -> dict:
    from gravphase.config import get_preset

    cfg = get_preset("gie-2x2")
    del cfg["output_dir"]
    cfg.update(edits)
    return cfg


def _gie_on_grid() -> dict:
    """gie-2x2 on an N=32 grid, its sources shifted into a box of 3.0."""
    cfg = _gie(backend="grid", grid={"n": 32, "box": 3.0})
    for source in cfg["sources"].values():
        for branch in source["branches"]:
            branch["center"] = [x + s for x, s in zip(branch["center"], (0.8, 1.5, 1.5))]
    return cfg


def cases() -> dict[str, dict]:
    """Config of each reference case by name."""
    from gravphase.config import get_preset

    out = {name: get_preset(name) for name in PRESETS}
    out["gie-2x2-mc"] = _gie(backend="mc", mc_samples=20_000)
    out["gie-2x2-grid"] = _gie_on_grid()
    out["gie-2x2-time-0"] = _gie(time=0.0)
    return out


def stack() -> dict:
    """The numeric stack a run's last bits depend on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}"}


def run_tables(cfg: dict, workdir: Path) -> dict[str, bytes]:
    """The tables a `gravphase run` of `cfg` writes, by file name."""
    from gravphase.cli import main

    path, out = workdir / "cfg.json", workdir / "out"
    path.write_text(json.dumps(cfg))
    if main(["run", str(path), "--out", str(out)]) != 0:
        raise RuntimeError(f"run of {cfg['scenario']} config did not exit 0")
    return {p.name: p.read_bytes() for p in sorted((out / "tables").glob("*.csv"))}


def recorded(name: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((REFERENCE / name).glob("*.csv"))}


def manifest() -> dict:
    return json.loads((REFERENCE / "manifest.json").read_text())


def regenerate() -> None:
    tables = {}
    for name, cfg in cases().items():
        with tempfile.TemporaryDirectory() as tmp:
            got = run_tables(copy.deepcopy(cfg), Path(tmp))
        target = REFERENCE / name
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.glob("*.csv"):
            stale.unlink()
        for table, body in got.items():
            (target / table).write_bytes(body)
        tables[name] = sorted(got)
    (REFERENCE / "manifest.json").write_text(
        json.dumps({"stack": stack(), "tables": tables}, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
    print(f"wrote {REFERENCE}", file=sys.stderr)
