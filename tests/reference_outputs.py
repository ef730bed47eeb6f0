"""Reference outputs: the CSV tables of a fixed set of runs, a sha256 of
each field file they write and each run's report.json without its
`meta.generated_at` line, committed under tests/reference/ so that any
change to the bytes a run writes shows in the test suite
(tests/test_reference_outputs.py).

Regenerate them, after a change that moves an output on purpose, with

    PYTHONPATH=src python tests/reference_outputs.py

and say in CHANGES.md which tables moved and by how much.

    PYTHONPATH=src python tests/reference_outputs.py --check

reruns every case without writing anything and prints, for each table that
moved, the largest relative shift of each column (the number a CHANGES.md
entry quotes), each field file whose hash moved and the path of each
report entry that moved, with its relative shift where it is a number; it
exits 1 if anything moved.  The manifest records the numpy version and BLAS
the references were made with: on another stack the last bits may differ.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import math
import sys
import tempfile
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
PRESETS = ("gie-2x2", "semiclassical-overlap", "sn-vs-full", "wide-gaussian-pair",
           "zassenhaus-t3")
SOLVER_SEEDS = (0, 1)


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


# table-top SI numbers (Bose et al., PRL 119, 240401, 2017): masses of
# 1e-14 kg a few hundred micrometres apart, times of seconds
_SI = {"system": "si", "length_scale": 1e-4, "mass_scale": 1e-14}


def _si_gie() -> dict:
    """gie-2x2's two-branch geometry in SI on the closed form: branches
    250 um apart, sources 450 um apart, t = 2.5 s."""
    def source(x0):
        return {"type": "localized", "mass": 1e-14, "branches": [
            {"amplitude": 0.7071067811865476, "center": [x, 0.0, 0.0], "width": 1e-5}
            for x in (x0, x0 + 2.5e-4)]}

    return {"scenario": "phase-compare", "seed": 7, "constants": {**_SI}, "time": 2.5,
            "backend": "analytic", "sources": {"a": source(0.0), "b": source(4.5e-4)},
            "sigma_ladder": [1e-4, 5e-5, 2.5e-5]}


def _si_poisson() -> dict:
    """An N=16 poisson run in SI: a 1e-14 kg Gaussian of width 200 um in a
    box of 2 mm."""
    return {"scenario": "poisson", "seed": 0, "constants": {**_SI}, "grid": {"n": 16, "box": 2e-3},
            "poisson": {"profile": {"type": "gaussian", "mass": 1e-14,
                                    "center": [1e-3, 1e-3, 1e-3], "sigma": 2e-4}}}


def _si_overlap() -> dict:
    """An overlap-sweep in SI: a 1e-14 kg source in a box of 0.8 mm,
    displaced by 100 and 50 um, on N = 8 and 16, with w_start a volume in
    m^3."""
    return {"scenario": "overlap-sweep", "seed": 0, "constants": {**_SI}, "overlap": {
        "epsilon": [1e-4, 0.0, 0.0], "epsilon_scales": [1.0, 0.5], "w_start": 4e-48,
        "w_halvings": 2, "grid_sizes": [8, 16], "box": 8e-4, "mass": 1e-14, "sigma_reg": 5e-5,
        "matter_width": 1e-4}}


def _poisson_point() -> dict:
    """An N=16 poisson run of a point profile that declares no width, so
    it takes the default of POINT_SIGMA_CELLS cells."""
    return {"scenario": "poisson", "seed": 0, "grid": {"n": 16, "box": 4.0},
            "poisson": {"profile": {"type": "point", "mass": 1.0, "center": [2.0, 1.9, 2.1]}}}


def _poisson_n64() -> dict:
    """The benchmark's poisson-oracle profile on an N=64 grid at the default
    stride 4, writing no field file: its report carries the oracle's
    deviation from the spectral field and the Laplacian residual."""
    return {"scenario": "poisson", "seed": 0, "grid": {"n": 64, "box": 4.0},
            "poisson": {"profile": {"type": "gaussian", "mass": 1.0, "sigma": 0.3,
                                    "center": [2.05, 1.95, 2.0]}, "save_fields": False}}


def _overlap_default_reg() -> dict:
    """semiclassical-overlap without sigma_reg, so the source takes the
    default point width of each sweep grid, on N = 8 and 16 with 3 state
    pairs."""
    from gravphase.config import get_preset

    cfg = get_preset("semiclassical-overlap")
    del cfg["output_dir"], cfg["overlap"]["sigma_reg"]
    cfg["overlap"].update(grid_sizes=[8, 16], state_pairs=3)
    return cfg


def _negativity() -> dict:
    """Explicit 2 x 2 amplitudes, phases and non-zero dampings."""
    return {"scenario": "negativity", "seed": 0, "negativity": {
        "amplitudes_a": [0.6, [0.0, 0.8]],
        "amplitudes_b": [0.7071067811865476, -0.7071067811865476],
        "phases": [[0.0, 0.4], [0.4, 1.1]], "dampings": [[0.0, -0.05], [-0.05, -0.2]]}}


def _opalg_oblique() -> dict:
    """An opalg-verify run off the preset's arena: an oblique wavevector,
    three branches with a trace drive and a mode weight, and n_low above a
    dim of 12, so that every column of the truncated ladder is read, at 17
    times."""
    return {"scenario": "opalg-verify", "seed": 0, "opalg": {
        "kvec": [0.3, -1.1, 0.7], "dim": 12, "weight": 0.7,
        "tt_branch_amplitudes": [0.05, -0.02, 0.03],
        "trace_branch_amplitudes": [0.1, 0.0, -0.2], "hT_shift": -0.6,
        "t_start": 0.02, "t_stop": 0.2, "t_points": 17, "n_low": 16}}


def _workloads():
    """The benchmark's workload module, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location("reference_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _solver_configs(names: tuple) -> dict[str, dict]:
    """The benchmark's `solvers` configs of `names` at SOLVER_SEEDS, each
    with the seed its benchmark run sets."""
    wl = _workloads()
    make = {"phase-grid": lambda seed: wl.phase_config(seed, "grid"),
            "phase-mc": lambda seed: wl.phase_config(seed, "mc"),
            "poisson-oracle": wl.poisson_config}
    return {f"{name}-{seed}": {**make[name](seed), "seed": seed}
            for seed in SOLVER_SEEDS for name in names}


def cases() -> dict[str, dict]:
    """Config of each reference case that writes tables, by name."""
    from gravphase.config import get_preset

    out = {name: get_preset(name) for name in PRESETS}
    out["gie-2x2-mc"] = _gie(backend="mc", mc_samples=20_000)
    out["gie-2x2-grid"] = _gie_on_grid()
    out["gie-2x2-time-0"] = _gie(time=0.0)
    out["gie-2x2-si"] = _si_gie()
    out["overlap-si"] = _si_overlap()
    out["negativity-2x2"] = _negativity()
    out["overlap-default-reg"] = _overlap_default_reg()
    out["opalg-oblique"] = _opalg_oblique()
    out.update(_solver_configs(("phase-grid", "phase-mc")))
    return out


def field_cases() -> dict[str, dict]:
    """Config of each reference case that writes field files or its report
    only, by name."""
    return {**_solver_configs(("poisson-oracle",)), "poisson-si": _si_poisson(),
            "poisson-point": _poisson_point(), "poisson-n64": _poisson_n64()}


def stack() -> dict:
    """The numeric stack a run's last bits depend on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}"}


def run_tables(cfg: dict, workdir: Path) -> dict[str, bytes]:
    """The tables a `gravphase run` of `cfg` writes, by file name; the run's
    other outputs stay under workdir/out."""
    from gravphase.cli import main

    path, out = workdir / "cfg.json", workdir / "out"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):  # the run's summary line
        code = main(["run", str(path), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"run of {cfg['scenario']} config did not exit 0")
    return {p.name: p.read_bytes() for p in sorted((out / "tables").glob("*.csv"))}


def field_hashes(workdir: Path) -> dict[str, str]:
    """sha256 of each field file the run in `workdir` wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((workdir / "out" / "fields").glob("*"))}


def run_report(workdir: Path) -> bytes:
    """The report.json of the run in `workdir`, without the timestamp that
    differs between runs."""
    report = json.loads((workdir / "out" / "report.json").read_text())
    del report["meta"]["generated_at"]
    return (json.dumps(report, indent=2, allow_nan=False) + "\n").encode()


def recorded(name: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((REFERENCE / name).glob("*.csv"))}


def recorded_report(name: str) -> bytes | None:
    path = REFERENCE / name / "report.json"
    return path.read_bytes() if path.exists() else None


def manifest() -> dict:
    return json.loads((REFERENCE / "manifest.json").read_text())


def _run_all():
    """(tables, field hashes, reports) of every case, by case name."""
    tables, fields, reports = {}, {}, {}
    for name, cfg in {**cases(), **field_cases()}.items():
        with tempfile.TemporaryDirectory() as tmp:
            tables[name] = run_tables(copy.deepcopy(cfg), Path(tmp))
            fields[name] = field_hashes(Path(tmp))
            reports[name] = run_report(Path(tmp))
    return tables, fields, reports


def regenerate() -> None:
    tables, fields, reports = _run_all()
    for name, got in tables.items():
        target = REFERENCE / name
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.glob("*.csv"):
            stale.unlink()
        for table, body in got.items():
            (target / table).write_bytes(body)
        (target / "report.json").write_bytes(reports[name])
    (REFERENCE / "manifest.json").write_text(json.dumps(
        {"stack": stack(), "tables": {name: sorted(got) for name, got in tables.items() if got},
         "fields": {name: got for name, got in fields.items() if got}}, indent=2) + "\n")


def _shift(new, old) -> float:
    """|new - old| / |old| of two numeric cells or numbers, 0 for equal
    ones, inf for a number that left 0 or a text cell that changed."""
    if new == old:
        return 0.0
    try:
        a, b = float(new), float(old)
    except ValueError:
        return math.inf
    return abs(a - b) / abs(b) if b else math.inf


def column_shifts(new: bytes, old: bytes) -> dict[str, float]:
    """The largest relative shift of each column from table `old` to `new`;
    a header or row count that changed reads inf in every column."""
    new_rows = [line.split(",") for line in new.decode().splitlines()]
    old_rows = [line.split(",") for line in old.decode().splitlines()]
    header = old_rows[0]
    if new_rows[0] != header or len(new_rows) != len(old_rows):
        return dict.fromkeys(header, math.inf)
    return {col: max((_shift(n[k], o[k]) for n, o in zip(new_rows[1:], old_rows[1:])),
                     default=0.0) for k, col in enumerate(header)}


def report_moves(new, old, path: str = "") -> list[str]:
    """The dotted path of each entry that differs between two parsed
    reports, followed by its relative shift where both sides are numbers."""
    if isinstance(new, dict) and isinstance(old, dict):
        return [move for key in sorted(set(new) | set(old), key=str)
                for move in report_moves(new.get(key), old.get(key), f"{path}.{key}")]
    if new == old:
        return []
    where = path.lstrip(".") or "<root>"
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (new, old)):
        return [f"{where} {_shift(new, old):.3g}"]
    return [where]


def check() -> int:
    """Print what moved from the committed references; the count of files
    that moved."""
    tables, fields, reports = _run_all()
    want_fields = manifest().get("fields", {})
    moved = 0
    for name, got in tables.items():
        want = recorded(name)
        for table in sorted(set(got) | set(want)):
            if got.get(table) == want.get(table):
                continue
            moved += 1
            if table not in got or table not in want:
                print(f"{name}/{table}: {'not written' if table in want else 'not recorded'}")
                continue
            shifts = column_shifts(got[table], want[table])
            print(f"{name}/{table}: " + ", ".join(f"{col} {shift:.3g}"
                                                  for col, shift in shifts.items()))
        for field in sorted(set(fields[name]) | set(want_fields.get(name, {}))):
            if fields[name].get(field) != want_fields.get(name, {}).get(field):
                moved += 1
                print(f"{name}/fields/{field}: sha256 moved")
        want_report = recorded_report(name)
        if reports[name] != want_report:
            moved += 1
            moves = (report_moves(json.loads(reports[name]), json.loads(want_report))
                     if want_report else ["not recorded"])
            print(f"{name}/report.json: " + ", ".join(moves or ["formatting"]))
    if moved:
        print(f"{moved} file(s) moved; references recorded on {manifest()['stack']}, "
              f"running on {stack()}")
    return moved


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(1 if check() else 0)
    regenerate()
    print(f"wrote {REFERENCE}", file=sys.stderr)
