"""Command-line front end.

Two subcommands:

* ``run`` executes the Monte Carlo benchmark for a built-in example (or a
  JSON config) and writes the report tables.
* ``diag`` executes one statistical self-check and writes its JSON record.

Exit codes: 0 success, 1 validation/usage error, 2 when the replications
dropped (degenerate, escaped or non-finite) exceed the threshold.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .harness import (
    AbortedReplicationsError,
    DIAGNOSTICS,
    config_from_dict,
    emit_reports,
    load_config,
    run_diagnostics,
    run_experiment,
    usable_cpus,
)

CI_SCALE_N = 200
PAPER_SCALE_N = 1000

# The run flags stored under the name of the config field each sets;
# --rho-mode sets rho_mode and rho_values, so it is laid over them apart.
_RUN_FIELDS = ("example", "T_grid", "N", "kT_rule", "seed", "output_dir", "formats")

# Each diagnostic parameter with the type of its defaults; one --flag each.
_DIAG_PARAMS = {n: type(v) for _, dflt, _ in DIAGNOSTICS.values() for n, v in dflt.items()}


class CliError(ValueError):
    """Usage or validation problem that should exit with status 1."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad usage; route through the single
    # validation-error path instead.
    def error(self, message):
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="arh1bench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="run a benchmark experiment")
    run.add_argument("--example", type=int, choices=(1, 2, 3),
                     help="built-in model preset (may also come from --config)")
    run.add_argument("--config", metavar="FILE",
                     help="JSON config; explicit flags override its fields")
    run.add_argument("--T", dest="T_grid", metavar="T1,T2,...", type=_parse_t_grid,
                     help="comma-separated sample-size grid")
    run.add_argument("--N", type=int, help=f"replications per T (default {CI_SCALE_N})")
    run.add_argument("--kT", dest="kT_rule", metavar="RULE",
                     help="truncation rule, fixed:5 or power:4.1")
    run.add_argument("--seed", type=int, help="64-bit master seed (default 0)")
    run.add_argument("--rho-mode", metavar="MODE", type=_parse_rho_mode,
                     help="redraw | fixed | explicit:FILE (JSON array of coefficients)")
    run.add_argument("--out", dest="output_dir", metavar="DIR", help="output directory")
    run.add_argument("--format", dest="formats", metavar="FMTS",
                     help="comma subset of csv,json")
    run.add_argument("--workers", metavar="N|auto",
                     help="worker processes (env ARH1_BENCH_WORKERS, then auto)")
    run.add_argument("--paper-scale", action="store_true",
                     help=f"full-size study: N defaults to {PAPER_SCALE_N}")

    diag = sub.add_parser("diag", help="run a statistical self-check")
    diag.add_argument("kind", choices=DIAGNOSTICS)
    diag.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    diag.add_argument("--out", metavar="DIR", default="out", help="output directory")
    for name, typ in _DIAG_PARAMS.items():
        users = [kind for kind, (_, defaults, _) in DIAGNOSTICS.items() if name in defaults]
        diag.add_argument(f"--{name}", type=typ, help=f"{typ.__name__} ({', '.join(users)})")
    return parser


def _parse_t_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}") from None


def _parse_rho_mode(text: str) -> dict:
    """The config fields a --rho-mode value sets, for the model spec to check."""
    if not text.startswith("explicit:"):
        # a drawn mode drops the config file's coefficients; a bare explicit keeps them
        return {"rho_mode": text} if text == "explicit" else {"rho_mode": text, "rho_values": None}
    path = text[len("explicit:"):]
    try:
        with open(path, encoding="utf-8") as fh:
            return {"rho_mode": "explicit", "rho_values": json.load(fh)}
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise argparse.ArgumentTypeError(f"cannot read coefficient file {path}: {exc}") from exc


def _resolve_workers(value: str | None) -> int:
    source = "--workers"
    if value is None:
        source, value = "ARH1_BENCH_WORKERS", os.environ.get("ARH1_BENCH_WORKERS") or "auto"
    if value == "auto":
        return usable_cpus()
    try:
        return int(value)
    except ValueError:
        raise CliError(f"{source} expects an integer or 'auto', got {value!r}") from None


def _run_command(args) -> int:
    # later sources win: the default N, the config file, --paper-scale, flags
    flags = {name: getattr(args, name) for name in _RUN_FIELDS if getattr(args, name) is not None}
    data = {
        "N": CI_SCALE_N,
        **(load_config(args.config) if args.config else {}),
        **({"N": PAPER_SCALE_N} if args.paper_scale else {}),
        **flags,
        **(args.rho_mode or {}),
    }
    config = config_from_dict(data)
    workers = _resolve_workers(args.workers)
    # refused before the study runs: the nearest existing path must be a directory
    out = config.output_dir
    found = next((p for p in (out, *out.parents) if p.exists()), None)
    if found is not None and not found.is_dir():
        raise CliError(f"output directory {out} cannot be made: {found} is not a directory")
    reports = run_experiment(config, workers=workers)
    for path in emit_reports(reports, config.formats, config.output_dir):
        print(f"wrote {path}")
    return 0


def _diag_command(args) -> int:
    params = {n: getattr(args, n) for n in _DIAG_PARAMS if getattr(args, n) is not None}
    path = run_diagnostics(args.kind, params, args.seed, args.out)
    record = json.loads(path.read_text(encoding="utf-8"))
    verdict = record["pass"]
    label = "informational" if verdict is None else ("pass" if verdict else "FAIL")
    print(f"wrote {path} ({label})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _run_command(args)
        return _diag_command(args)
    except (RuntimeError, ValueError, OverflowError, OSError, MemoryError) as exc:
        # CliError and JSON decode errors are ValueErrors; numpy's
        # MemoryError names the array it could not allocate, a bare one nothing.
        # A message past 240 characters (a flag value thousands of digits long)
        # loses its middle: its start says what was wrong, its end Python's reason.
        text = str(exc) or "out of memory"
        if len(text) > 240:
            text = f"{text[:160]} ... {text[-75:]}"
        print(f"error: {text}", file=sys.stderr)
        return 2 if isinstance(exc, AbortedReplicationsError) else 1


def entry() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    sys.exit(main())


if __name__ == "__main__":
    entry()
