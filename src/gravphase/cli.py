"""Batch command-line front end.

    gravphase run <config.json | preset:NAME> [--set path=value]... [--out DIR]
    gravphase presets [--emit NAME]
    gravphase schema

Exit codes: 0 success, 1 configuration error, 2 numerical guard violation,
3 I/O error."""

from __future__ import annotations

import argparse
import gc
import json
import sys


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gravphase",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one scenario config")
    run.add_argument("config", help="path to a JSON config, or preset:NAME")
    run.add_argument("--set", dest="sets", action="append", default=[],
                     metavar="PATH=VALUE", help="override a scalar config field "
                     "(dotted path, JSON-parsed value)")
    run.add_argument("--out", default=None, help="output directory "
                     "(defaults to the config's output_dir, else 'out')")

    presets = sub.add_parser("presets", help="list shipped presets")
    presets.add_argument("--emit", default=None, metavar="NAME",
                         help="print the named preset config as JSON")

    sub.add_parser("schema", help="print the config JSON schema")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    # numpy and the layers live until exit: import them with the cyclic
    # collector paused, then freeze them, so that neither the run's
    # collections nor the interpreter's shutdown rescan them
    collecting = gc.isenabled()
    gc.disable()
    try:
        from .config import (ConfigError, CONFIG_SCHEMA, apply_overrides,
                             get_preset, load_config, preset_names)
        if args.command == "run":
            from .scenarios import run_scenario
    finally:
        if collecting:
            gc.enable()
    gc.freeze()

    if args.command == "schema":
        print(json.dumps(CONFIG_SCHEMA, indent=2))
        return 0

    try:
        if args.command == "presets":
            if args.emit:
                print(json.dumps(get_preset(args.emit), indent=2))
            else:
                for name in preset_names():
                    print(name)
            return 0
        if args.config.startswith("preset:"):
            cfg = get_preset(args.config.split(":", 1)[1])
        else:
            cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args.sets)
        outdir = args.out or cfg.get("output_dir", "out")
        run_scenario(cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"numerical guard: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

    print(json.dumps({"scenario": cfg["scenario"], "seed": cfg["seed"],
                      "output": str(outdir)}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
