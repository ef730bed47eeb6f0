#!/usr/bin/env python3
"""gravphase benchmark.

    python3 perfbench/run.py --workload solvers --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Closed loop with one client: each round launches the workload's `gravphase
run` processes one after another, never two at once, and rounds repeat until
--seconds have passed (at least two rounds, so that reruns with the same seed
can be compared byte for byte).  Each process runs through `child.py`, which
records when it entered and left ``run_scenario``; peak RSS comes from
``wait4``.  BLAS/OpenMP pools are pinned through the child environment.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: `wall_s` and
`run_s` of the fastest round, `setup_s` and `peak_rss_mb` as medians over the
rounds.  --trace 1 alternates untraced and traced rounds and reports the
per-layer metrics from the traced ones.  Every process's output files are
checked (see workloads.py); a process fails if it exits non-zero, times out,
fails its check or writes other bytes than the first round did.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Results and spans are also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
DEADLINE_S = 170.0  # a run must exit within 180 s
NPROC = len(os.sched_getaffinity(0))
THREADS = 1  # see README.md: two threads make opalg slower and erratic
WORK_FIELDS = ("fft_points", "pair_evals", "samples", "bytes")
# Reported as the run's fastest round, not its median: on a shared host the
# CPU is slowed for stretches of seconds to minutes, which only ever adds
# time (see README.md, "Run-to-run noise").
FASTEST_ROUND = ("wall_s", "run_s")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GRAVPHASE_THREADS", None)  # a no-op at the defining commit
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"threads": THREADS, "nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "src_sha256": digest.hexdigest()}


def launch(op, outdir: Path, trace: bool, run_id: str, env: dict, deadline: float) -> dict:
    """Run one process to completion (killed at `deadline`)."""
    record_path = outdir.with_name(outdir.name + ".record.json")
    log_path = outdir.with_name(outdir.name + ".stderr")
    cmd = [sys.executable, str(BENCH / "child.py"), str(record_path), str(int(trace)),
           run_id, "--", *op.argv, "--out", str(outdir)]
    with open(log_path, "wb") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(max(deadline - launched, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            exited = time.monotonic()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"op": op.label, "code": proc.returncode, "launch": launched, "exit": exited,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "record": json.loads(record_path.read_text()) if record_path.exists() else {},
            "stderr": log_path.read_text(errors="replace")[-2000:]}


def snapshot(outdir: Path) -> dict:
    return {p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for sub in ("tables", "fields") for p in sorted((outdir / sub).rglob("*"))
            if p.is_file()}


def verify(op, proc: dict, outdir: Path, reference: dict | None) -> tuple[list, dict]:
    """Failures of one process and the snapshot of its output files."""
    if proc["code"] != 0:
        return [f"exit code {proc['code']}: {proc['stderr'].strip()[-500:]}"], {}
    if "exit" not in proc["record"]:
        return ["run_scenario was not reached or did not return"], {}
    fails = list(op.check(outdir))
    snap = snapshot(outdir)
    if reference is not None and snap != reference:
        fails.append("output files differ from the first run with this seed")
    return fails, snap


def round_metrics(procs: list[dict]) -> dict:
    setup = run = 0.0
    for p in procs:
        rec = p["record"]
        setup += rec.get("entry", p["exit"]) - p["launch"]
        if "exit" in rec:
            run += rec["exit"] - rec["entry"]
    return {"wall_s": procs[-1]["exit"] - procs[0]["launch"], "setup_s": setup,
            "run_s": run, "peak_rss_mb": max(p["rss_mb"] for p in procs),
            "cli.import_s": sum(p["record"].get("import_s", 0.0) for p in procs)}


def layer_metrics(procs: list[dict]) -> dict:
    """Per-layer calls, self time, distinct-input share and work counts of one
    traced round, summed over its processes, plus span coverage of run_s."""
    totals = {t: defaultdict(float) for t in tracer.TARGETS}
    covered = 0.0
    for p in procs:
        rec, spans = p["record"], p["record"].get("spans", [])
        children = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        keys = defaultdict(set)
        for s in spans:
            t = totals[s["name"]]
            t["calls"] += 1
            t["self_s"] += s["end"] - s["start"] - children[s["id"]]
            for field in WORK_FIELDS:
                t[field] += s.get(field, 0)
            if "key" in s:
                keys[s["name"]].add(s["key"])
            if s["parent"] is None and rec.get("entry", 0) <= s["start"] <= rec.get("exit", 0):
                covered += s["end"] - s["start"]
        for name, distinct in keys.items():
            totals[name]["distinct"] += len(distinct)
    out = {}
    for name, t in totals.items():
        out[f"{name}.calls"] = int(t["calls"])
        out[f"{name}.self_s"] = t["self_s"]
        out[f"{name}.distinct_frac"] = t["distinct"] / t["calls"] if t["calls"] else 0.0
        for field in WORK_FIELDS:
            out[f"{name}.{field}"] = int(t[field])
    run_s = round_metrics(procs)["run_s"]
    out["trace.coverage"] = covered / run_s if run_s else 0.0
    return out


def median_of(rounds: list[dict], name: str) -> float:
    return statistics.median(r[name] for r in rounds)


def end_to_end(rounds: list[dict], name: str) -> float:
    if name in FASTEST_ROUND:
        return min(r[name] for r in rounds)
    return median_of(rounds, name)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict,
                 deadline: float) -> dict:
    started = time.monotonic()
    workdir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = workloads.ops(workload, seed, workdir)
    rounds, traced_rounds, failures, spans = [], [], [], []
    references: dict = {}
    attempted = failed = 0
    failed_by_op: dict = defaultdict(int)
    try:
        measure_from = time.monotonic()
        last_wall = 0.0
        # a round starts only if it should end within --seconds (at least two run)
        while ((n := len(rounds) + len(traced_rounds)) < 2
               or time.monotonic() - measure_from + last_wall <= seconds):
            if time.monotonic() + last_wall > deadline:
                break
            traced = trace and len(rounds) > len(traced_rounds)
            procs = []
            for k, op in enumerate(ops):
                procs.append(launch(op, workdir / f"r{n}-p{k}", traced,
                                    f"{workload}/seed{seed}/r{n}/p{k}", env, deadline))
            for k, (op, proc) in enumerate(zip(ops, procs)):
                attempted += 1
                fails, snap = verify(op, proc, workdir / f"r{n}-p{k}", references.get(k))
                if snap and k not in references:
                    references[k] = snap
                if fails:
                    failed += 1
                    failed_by_op[op.label] += 1
                    failures.extend(f"{workload} round {n} {op.label}: {f}" for f in fails)
                shutil.rmtree(workdir / f"r{n}-p{k}", ignore_errors=True)
            metrics = round_metrics(procs)
            metrics["processes"] = {op.label: round_metrics([proc])
                                    for op, proc in zip(ops, procs)}
            last_wall = metrics["wall_s"]
            if traced:
                metrics.update(layer_metrics(procs))
                spans.extend(s for p in procs for s in p["record"].get("spans", []))
                traced_rounds.append(metrics)
            else:
                rounds.append(metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "seed": seed, "trace": trace, "rounds": rounds,
            "traced_rounds": traced_rounds, "attempted": attempted, "failed": failed,
            "failed_by_op": failed_by_op,
            "failures": failures, "spans": spans, "seconds": time.monotonic() - started}


def select_metrics(result: dict, spec: dict) -> dict:
    rounds, traced = result["rounds"], result["traced_rounds"]
    if not result["trace"]:
        return {m["name"]: {"value": end_to_end(rounds, m["name"]), "unit": m["unit"]}
                for m in spec["end_to_end"]}
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "cli.import_s":
            value = median_of(rounds + traced, name)
        elif name == "trace.overhead_s":
            value = end_to_end(traced, "run_s") - end_to_end(rounds, "run_s")
        else:
            value = median_of(traced, name)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def report(result: dict, metrics: dict, env: dict) -> None:
    rounds = result["traced_rounds"] if result["trace"] else result["rounds"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
          f"{len(result['rounds'])} untraced + {len(result['traced_rounds'])} traced rounds "
          f"in {result['seconds']:.1f} s  (threads {env['threads']}, nproc {env['nproc']})")
    for name, m in metrics.items():
        values = [r[name] for r in rounds if name in r]
        spread = (f"  range [{min(values):.6g}, {max(values):.6g}] over {len(values)} rounds"
                  if len(values) > 1 and isinstance(m["value"], float) else "")
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']:<6}{spread}")
    if not result["trace"]:
        n = len(rounds)
        for label in rounds[0]["processes"]:
            procs = [r["processes"][label] for r in rounds]
            print(f"    {label:<22}" + "".join(
                f" {name} {end_to_end(procs, name):.6g} {unit}" for name, unit in
                (("wall_s", "s"), ("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")))
                + f" fail_frac {result['failed_by_op'][label] / n:.6g} ratio")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {'fail_frac':<42} {frac:>14.6g} ratio   "
          f"({result['failed']} of {result['attempted']} processes failed)")
    print(f"  correct: {'yes' if result['failed'] == 0 else 'NO'}")
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    record = {k: v for k, v in result.items() if k != "spans"}
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({"environment": env, **record, "metrics": metrics}, indent=1))
    if result["spans"]:
        with open(RESULTS / f"spans-{stem}.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in result["spans"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "gravphase" / "__init__.py").is_file():
        print(f"run.py: no gravphase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    compileall.compile_dir(SRC, quiet=1)
    subprocess.run([sys.executable, "-m", "gravphase.cli", "presets"], cwd=ROOT,
                   env=child_env(), stdout=subprocess.DEVNULL, check=True, timeout=60)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = (time.monotonic() if len(names) > 1 else started) + DEADLINE_S
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), child_env(),
                              deadline)
        metrics = select_metrics(result, spec)
        report(result, metrics, env)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
