"""Batch command-line front end.

usage: gravphase run CONFIG [--set PATH=VALUE]... [--out DIR]
       gravphase presets [--emit NAME]
       gravphase schema

CONFIG is a JSON config file or preset:NAME.  --set overrides one scalar
config field (dotted PATH, JSON-parsed VALUE) and may repeat; --out names
the output directory (default: the config's output_dir, else out).  --emit
prints a preset's config as JSON.  An option takes its value as the next
argument or after "=", before or after CONFIG.

Exit codes: 0 success, 1 configuration error, 2 numerical guard violation,
3 I/O error.  A usage error (no or unknown command, no CONFIG, an option
without its value, an unknown or extra argument) prints the usage and exits
2 before a config is read or anything is run or written; -h or --help
prints this text and exits 0."""

from __future__ import annotations

import gc
import json
import sys

# the options each command takes; --set may repeat
_OPTIONS = {"run": ("--set", "--out"), "presets": ("--emit",), "schema": ()}
# the docstring's usage block, kept apart so that -OO (no docstrings) still has it
_USAGE = """usage: gravphase run CONFIG [--set PATH=VALUE]... [--out DIR]
       gravphase presets [--emit NAME]
       gravphase schema"""


def _usage_error(message: str):
    print(f"{_USAGE}\ngravphase: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: list) -> tuple[str, str | None, dict]:
    """(command, CONFIG, options) of a command line; options maps each
    option given to its last value, and --set to the list of its values."""
    if "-h" in argv or "--help" in argv:
        print(__doc__ or _USAGE)
        raise SystemExit(0)
    if not argv or argv[0] not in _OPTIONS:
        _usage_error(f"expected one of the commands {', '.join(_OPTIONS)}")
    command, args = argv[0], iter(argv[1:])
    config, options = None, {"--set": []}
    for arg in args:
        name, eq, value = arg.partition("=")
        if name in _OPTIONS[command]:
            if not eq:
                value = next(args, None)
                if value is None or value.startswith("-"):
                    _usage_error(f"{name} needs a value")
            if name == "--set":
                options["--set"].append(value)
            else:
                options[name] = value
        elif command == "run" and config is None and not arg.startswith("-"):
            config = arg
        else:
            _usage_error(f"unrecognized argument {arg!r}")
    if command == "run" and config is None:
        _usage_error("run needs a CONFIG")
    return command, config, options


def main(argv=None) -> int:
    command, config, options = _parse(sys.argv[1:] if argv is None else list(argv))

    # numpy and the layers live until exit: import them with the cyclic
    # collector paused, then freeze them, so that neither the run's
    # collections nor the interpreter's shutdown rescan them
    collecting = gc.isenabled()
    gc.disable()
    try:
        from .config import (ConfigError, CONFIG_SCHEMA, apply_overrides,
                             get_preset, load_config, preset_names)
        if command == "run":
            from .scenarios import run_scenario
    finally:
        if collecting:
            gc.enable()
    gc.freeze()

    if command == "schema":
        print(json.dumps(CONFIG_SCHEMA, indent=2))
        return 0

    try:
        if command == "presets":
            if options.get("--emit"):
                print(json.dumps(get_preset(options["--emit"]), indent=2))
            else:
                for name in preset_names():
                    print(name)
            return 0
        if config.startswith("preset:"):
            cfg = get_preset(config.split(":", 1)[1])
        else:
            cfg = load_config(config)
        cfg = apply_overrides(cfg, options["--set"])
        outdir = options.get("--out") or cfg.get("output_dir", "out")
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
