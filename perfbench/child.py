"""One `gravphase` CLI process under the benchmark.

    python child.py RECORD TRACE RUN_ID -- <gravphase arguments>

Runs ``gravphase.cli.main`` on the arguments and writes a JSON record to
RECORD: the time ``import gravphase.cli`` took, the ``time.monotonic`` values
at entry into and return from ``gravphase.scenarios.run_scenario``, and with
TRACE=1 the layer spans of `tracer`.  The parent compares the entry time with
its own launch time, which is why both use the machine-wide monotonic clock.
Exits with the CLI's exit code.
"""

import sys
import time


def _timed(run_scenario, record: dict):
    def timed(*args, **kwargs):
        record["entry"] = time.monotonic()
        result = run_scenario(*args, **kwargs)
        record["exit"] = time.monotonic()
        return result

    return timed


def _time_run_scenario(record: dict) -> None:
    """Wrap run_scenario when the CLI imports gravphase.scenarios, so the
    untraced process imports nothing earlier than the program itself does."""
    import importlib.abc
    import importlib.util

    class PatchOnImport(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path, target=None):
            if name != "gravphase.scenarios":
                return None
            sys.meta_path.remove(self)
            spec = importlib.util.find_spec(name)
            exec_module = spec.loader.exec_module

            def exec_and_patch(module):
                exec_module(module)
                module.run_scenario = _timed(module.run_scenario, record)

            spec.loader.exec_module = exec_and_patch
            return spec

    scenarios = sys.modules.get("gravphase.scenarios")
    if scenarios is None:
        sys.meta_path.insert(0, PatchOnImport())
    else:
        scenarios.run_scenario = _timed(scenarios.run_scenario, record)


def main() -> int:
    record_path, trace, run_id = sys.argv[1:4]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py RECORD TRACE RUN_ID -- ARGS...")
    record = {"run": run_id}
    start = time.monotonic()
    import gravphase.cli

    record["import_s"] = time.monotonic() - start
    _time_run_scenario(record)
    tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    try:
        return gravphase.cli.main(sys.argv[5:])
    finally:
        import json

        if tracer is not None:
            record["spans"] = tracer.spans
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
