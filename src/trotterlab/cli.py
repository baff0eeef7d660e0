"""Command-line front end.

Subcommands: ``resonance``, ``localization``, ``convergence``, ``crx`` run
sweeps from a JSON config; ``figure`` runs a bundled panel recipe; ``verify``
runs the self-check suites.  Exit codes: 0 success, 1 verification failure,
2 configuration error.

Config file layout (JSON)::

    {
      "experiment": {"kind": ..., "swept": ..., "grid": [start, stop, count],
                     "fixed": {...}, "trials": ..., "master_seed": ...},
      "output":     {"path": "out.csv", "format": "csv"},
      "engine":     {"verification_mode": false}
    }

Angle-valued entries accept plain numbers or "pi" literals such as
``"pi/2"`` or ``"-pi/1.5"``.  ``--threads`` is ignored (every sweep walks
on one thread), but a count below 1 is still a configuration error.
The gate family picks the walker (single-excitation for XY, dense for
controlled-Rx); ``engine.verification_mode`` also re-walks every XY item
on both walkers as a cross-check, without changing the outputs.  Keys the
reader does not know are ignored, and no environment variable is read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .errors import ConfigurationError, TrotterlabError
from .figures import FIGURE_IDS, figure_recipe
from .model import parse_angle, parse_bool, parse_int, require_type
from .output import write_figure, write_sweep
from .sweep import ExperimentKind, GridSpec, SweepSpec, run_sweep
from .verification import run_all_suites

_SUBCOMMAND_KINDS = {
    "resonance": (ExperimentKind.RESONANCE_DISCRETE, ExperimentKind.RESONANCE_CONTINUOUS),
    "localization": (ExperimentKind.LOCALIZATION,),
    "convergence": (ExperimentKind.CONVERGENCE,),
    "crx": (ExperimentKind.CRX_RESONANCE,),
}

# JSON levels a config may nest (the top object is level 1).  Provenance headers
# echo it, and their encoder exceeds Python's recursion limit at ~990 levels.
MAX_CONFIG_DEPTH = 100


@dataclass
class RunConfig:
    """Parsed config: experiment spec plus output and engine settings."""

    spec: SweepSpec
    out_path: str = "sweep.csv"
    out_format: str = "csv"
    verification_mode: bool = False


def _parse_grid_triplet(raw) -> GridSpec:
    if isinstance(raw, str):
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"grid must be 'start:stop:count', got {raw!r}")
        raw = parts
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ConfigurationError(f"grid needs exactly (start, stop, count), got {raw!r}")
    start, stop = parse_angle(raw[0], "grid start"), parse_angle(raw[1], "grid stop")
    return GridSpec(start, stop, parse_int(raw[2], "grid count"))


def _file_path(path: str, name: str) -> str:
    """``path`` if it can name a file, else a ConfigurationError naming ``name``."""
    try:
        if path and b"\0" not in os.fsencode(path):
            return path
    except UnicodeEncodeError:
        pass
    raise ConfigurationError(f"{name} {path!r} cannot name a file")


def _check_output_dir(path: str) -> None:
    """Fail before any sweep runs when ``path`` is a directory or its directory does not exist."""
    if Path(path).is_dir():
        raise ConfigurationError(f"cannot write {path!r}: it is a directory")
    parent = Path(path).parent
    if not parent.is_dir():
        raise ConfigurationError(f"cannot write {path!r}: {str(parent)!r} is not a directory")


def load_config(path: str, default_kind: ExperimentKind) -> RunConfig:
    too_deep = f"config file {path} nests deeper than {MAX_CONFIG_DEPTH} levels"

    def finite(text: str) -> float:  # every JSON float, and NaN, Infinity and -Infinity
        number = float(text)
        if not abs(number) <= sys.float_info.max:
            raise ConfigurationError(f"config file {path} holds the non-finite number {text}")
        return number

    try:
        text = Path(_file_path(path, "config file")).read_text(encoding="utf-8")
        data = json.loads(text, parse_float=finite, parse_constant=finite)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigurationError(too_deep) from None

    level = [require_type(data, "JSON object", "the config")]
    for _ in range(MAX_CONFIG_DEPTH):  # the containers one level further down
        level = [v for c in level for v in (c.values() if isinstance(c, dict) else c)]
        level = [v for v in level if isinstance(v, (dict, list))]
    if level:
        raise ConfigurationError(too_deep)
    exp = require_type(data.get("experiment", {}), "JSON object", "experiment")
    try:
        kind = ExperimentKind(exp.get("kind", default_kind.value))
    except ValueError:
        raise ConfigurationError(f"unknown experiment kind {exp.get('kind')!r}") from None
    if "grid" not in exp:
        raise ConfigurationError("experiment.grid is required")
    trials = exp.get("trials")
    spec = SweepSpec(
        kind=kind,
        swept=require_type(exp.get("swept", "V1"), "string", "experiment.swept"),
        grid=_parse_grid_triplet(exp["grid"]),
        fixed=dict(require_type(exp.get("fixed", {}), "JSON object", "experiment.fixed")),
        trials=None if trials is None else parse_int(trials, "experiment.trials"),
        master_seed=parse_int(exp.get("master_seed", 0), "experiment.master_seed"),
    )
    out = require_type(data.get("output", {}), "JSON object", "output")
    out_format = out.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigurationError(f"output.format must be 'csv' or 'json', got {out_format!r}")
    engine = require_type(data.get("engine", {}), "JSON object", "engine")
    return RunConfig(
        spec=spec,
        out_path=_file_path(
            require_type(out.get("path", "sweep.csv"), "string", "output.path"), "output.path"
        ),
        out_format=out_format,
        verification_mode=parse_bool(
            engine.get("verification_mode", False), "engine.verification_mode"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trotterlab",
        description="Trotter circuits of the transverse-field XY chain: "
        "sweeps, localization ensembles, and reference-figure data.",
    )
    parser.add_argument("--version", action="version", version=f"trotterlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--threads", type=int, default=1, help="accepted and ignored (default 1)")

    for name in ("resonance", "localization", "convergence", "crx"):
        p = sub.add_parser(name, help=f"run a {name} sweep from a config")
        p.add_argument("--config", required=True, help="JSON config path")
        add_common(p)
        p.add_argument(
            "--grid", default=None, help="override swept grid as 'start:stop:count'"
        )

    fig = sub.add_parser("figure", help="regenerate one reference panel's data")
    fig.add_argument("figure_id", help=f"one of {', '.join(FIGURE_IDS)}")
    add_common(fig)

    sub.add_parser("verify", help="run the self-check suites and report pass/fail")
    return parser


def _run_sweep_command(command: str, args) -> int:
    default_kind = _SUBCOMMAND_KINDS[command][0]
    config = load_config(args.config, default_kind)
    if config.spec.kind not in _SUBCOMMAND_KINDS[command]:
        raise ConfigurationError(
            f"subcommand {command!r} cannot run a {config.spec.kind.value} experiment"
        )
    spec = config.spec
    if args.seed is not None:
        spec = replace(spec, master_seed=args.seed)
    if args.grid is not None:
        spec = replace(spec, grid=_parse_grid_triplet(args.grid))
    out_path = args.out if args.out is not None else config.out_path
    out_format = args.format or config.out_format
    _check_output_dir(out_path)
    result = run_sweep(spec, verification_mode=config.verification_mode)
    write_sweep(out_path, out_format, result)
    print(f"wrote {out_path}")
    return 0


def _run_figure_command(args) -> int:
    out_format = args.format or "csv"
    out_path = args.out if args.out is not None else f"figure_{args.figure_id.lower()}.{out_format}"
    _check_output_dir(out_path)
    fig = figure_recipe(args.figure_id, master_seed=args.seed if args.seed is not None else 0)
    write_figure(out_path, out_format, fig)
    print(f"wrote {out_path}")
    return 0


def _run_verify_command() -> int:
    reports = run_all_suites()
    failures = 0
    for r in reports:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status} {r.name}: {r.passed} passed, {r.failed} failed ({r.detail})")
        failures += r.failed
    total_pass = sum(r.passed for r in reports)
    print(f"verify: {total_pass} checks passed, {failures} failed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # argparse takes "-pi:pi:101" for an option
        if argv[i] == "--grid":
            argv[i : i + 2] = [f"--grid={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors
        return 0 if exc.code in (0, None) else 2
    try:
        if args.command == "verify":
            return _run_verify_command()
        if args.threads < 1:
            raise ConfigurationError(f"--threads must be >= 1, got {args.threads}")
        if args.out is not None:
            _file_path(args.out, "--out")
        if args.command == "figure":
            return _run_figure_command(args)
        return _run_sweep_command(args.command, args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except TrotterlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
