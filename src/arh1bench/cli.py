"""Command-line front end.

Two subcommands:

* ``run`` executes the Monte Carlo benchmark for a built-in example (or a
  JSON config) and writes the report tables.
* ``diag`` executes one statistical self-check and writes its JSON record.

Exit codes: 0 success, 1 validation/usage error, 2 aborted-replication
threshold exceeded.
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
)

CI_SCALE_N = 200
PAPER_SCALE_N = 1000

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
    run.add_argument("--T", metavar="T1,T2,...",
                     help="comma-separated sample-size grid")
    run.add_argument("--N", type=int, help=f"replications per T (default {CI_SCALE_N})")
    run.add_argument("--kT", metavar="RULE", help="truncation rule, fixed:5 or power:4.1")
    run.add_argument("--seed", type=int, help="64-bit master seed (default 0)")
    run.add_argument("--rho-mode", metavar="MODE",
                     help="redraw | fixed | explicit:FILE (JSON array of coefficients)")
    run.add_argument("--out", metavar="DIR", help="output directory")
    run.add_argument("--format", metavar="FMTS", help="comma subset of csv,json")
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
        raise CliError(f"--T expects comma-separated integers, got {text!r}") from None


def _parse_rho_mode(text: str) -> tuple[str, tuple[float, ...] | None]:
    if text in ("redraw", "fixed", "explicit"):
        return text, None
    if text.startswith("explicit:"):
        path = text[len("explicit:"):]
        try:
            with open(path, encoding="utf-8") as fh:
                values = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read coefficient file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"coefficient file {path} is not valid JSON: {exc}") from exc
        if not isinstance(values, list) or not values:
            raise CliError(f"coefficient file {path} must hold a nonempty JSON array")
        return "explicit", tuple(values)
    raise CliError(
        f"--rho-mode expects redraw, fixed or explicit:FILE, got {text!r}"
    )


def _resolve_workers(value: str | None) -> int:
    if value is None:
        value = os.environ.get("ARH1_BENCH_WORKERS") or "auto"
    if value == "auto":
        # the CPUs this process may run on, which taskset or a cpuset can
        # make fewer than the host's
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    try:
        n = int(value)
    except ValueError:
        raise CliError(f"--workers expects an integer or 'auto', got {value!r}") from None
    if n < 1:
        raise CliError(f"--workers must be >= 1, got {n}")
    return n


def _run_command(args) -> int:
    data = load_config(args.config) if args.config else {}
    if args.example is not None:
        data["example"] = args.example
    if args.T is not None:
        data["T_grid"] = _parse_t_grid(args.T)
    if args.kT is not None:
        data["kT_rule"] = args.kT
    if args.seed is not None:
        data["seed"] = args.seed
    if args.rho_mode is not None:
        mode, values = _parse_rho_mode(args.rho_mode)
        data["rho_mode"] = mode
        if values is not None:
            data["rho_values"] = values
    if args.out is not None:
        data["output_dir"] = args.out
    if args.format is not None:
        data["formats"] = args.format
    if args.N is not None:
        data["N"] = args.N
    elif args.paper_scale:
        data["N"] = PAPER_SCALE_N
    elif "N" not in data:
        data["N"] = CI_SCALE_N

    config = config_from_dict(data)
    workers = _resolve_workers(args.workers)
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
    except AbortedReplicationsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CliError, ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    sys.exit(main())


if __name__ == "__main__":
    entry()
