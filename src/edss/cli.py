"""Command-line front end: ``edss sweep``, ``edss check``, ``edss describe``.

Exit codes: 0 success, 1 check failure, 2 invalid input, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .channels import CHANNEL_PARAMS
from .checks import SUITES, run_checks
from .protocols import PROTOCOLS, describe
from .sweep import CHECK_NAMES, MAX_DIM_CEILING, MAX_POINTS, SweepError, SweepSpec, run_sweep

MODE_ALIASES = {
    "prob": "probabilistic",
    "probabilistic": "probabilistic",
    "det": "deterministic",
    "deterministic": "deterministic",
}

# Every sweep option is both a --flag and a config-file key.
SWEEP_OPTIONS: dict[str, dict] = {
    "protocol": {"choices": PROTOCOLS},
    "mode": {"choices": tuple(MODE_ALIASES)},
    "channel": {"choices": tuple(CHANNEL_PARAMS)},
    "d": {"type": int, "help": f"qudit dimension, 2 to {MAX_DIM_CEILING} (qudit protocol only)"},
    "param": {
        "choices": tuple(name for names in CHANNEL_PARAMS.values() for name in names),
        "help": "swept channel parameter",
    },
    "from": {"type": float, "help": "grid start"},
    "to": {"type": float, "help": "grid stop"},
    "points": {"type": int, "help": f"number of grid points (2 to {MAX_POINTS})"},
    "csv": {"help": "output CSV path"},
    "svg": {"help": "optional output SVG chart path"},
    "check": {"help": f"comma-separated subset of {','.join(CHECK_NAMES)}"},
    **{
        name: {"type": float, "help": "fixed canonical parameter"}
        for name in CHANNEL_PARAMS["canonical"]
    },
}
CONFIG_KEYS = set(SWEEP_OPTIONS)


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key-value config file: ``key = value`` lines, # comments."""
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SweepError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise SweepError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edss",
        description="Simulate entanglement distribution by separable states "
        "over noisy channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a protocol over a noise-parameter grid")
    sweep.add_argument("--config", help="flat key-value config file; flags override it")
    for key, options in SWEEP_OPTIONS.items():
        sweep.add_argument(f"--{key.replace('_', '-')}", dest=key, **options)

    check = sub.add_parser("check", help="run verification suites")
    check.add_argument("suite", choices=("all", *SUITES))

    describe = sub.add_parser("describe", help="print a protocol summary")
    describe.add_argument("protocol")
    return parser


def _merged_sweep_spec(args: argparse.Namespace) -> SweepSpec:
    merged: dict[str, str | float | int | None] = {}
    if args.config:
        merged.update(load_config(args.config))
    overrides = {key: getattr(args, key) for key in CONFIG_KEYS}
    merged.update({k: v for k, v in overrides.items() if v is not None})

    missing = [key for key in ("protocol", "channel", "param", "csv") if key not in merged]
    if missing:
        raise SweepError(f"missing required options: {', '.join(missing)}")

    mode = MODE_ALIASES.get(str(merged.get("mode", "probabilistic")))
    if mode is None:
        raise SweepError(f"unknown mode {merged['mode']!r}")

    checks: frozenset[str] = frozenset()
    if merged.get("check"):
        checks = frozenset(
            token.strip() for token in str(merged["check"]).split(",") if token.strip()
        )

    # SweepSpec fields that may be left out and keep their defaults
    optional = {"d": "d", "from": "start", "to": "stop", "points": "points"}
    try:
        values = {key: SWEEP_OPTIONS[key].get("type", str)(value) for key, value in merged.items()}
        return SweepSpec(
            protocol=values["protocol"],
            mode=mode,
            channel=values["channel"],
            param=values["param"],
            csv_path=values["csv"],
            svg_path=values.get("svg") or None,
            checks=checks,
            channel_args={
                name: values[name] for name in CHANNEL_PARAMS["canonical"] if name in values
            },
            **{field: values[key] for key, field in optional.items() if key in values},
        )
    except (TypeError, ValueError) as exc:
        raise SweepError(str(exc)) from exc


def _run_sweep_command(args: argparse.Namespace) -> int:
    spec = _merged_sweep_spec(args)
    result = run_sweep(spec)
    print(f"wrote {result.csv_path} ({len(result.rows)} rows)")
    if result.svg_path is not None:
        print(f"wrote {result.svg_path}")
    for failure in result.check_failures:
        print(f"check failure: {failure}", file=sys.stderr)
    if spec.checks:
        status = "PASS" if result.checks_passed else "FAIL"
        print(f"checks ({','.join(sorted(spec.checks))}): {status}")
    return 0 if result.checks_passed else 1


def _run_check_command(args: argparse.Namespace) -> int:
    results = run_checks(args.suite)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{res.name} max_deviation={res.max_deviation:.3e} "
            f"threshold={res.threshold:.0e} {status}"
        )
    failed = sum(1 for res in results if not res.passed)
    print(f"overall: {'PASS' if failed == 0 else 'FAIL'} "
          f"({len(results) - failed}/{len(results)} checks passed)")
    return 0 if failed == 0 else 1


def _run_describe_command(args: argparse.Namespace) -> int:
    print(describe(args.protocol), end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches the CLI contract
        return int(exc.code or 0)
    try:
        if args.command == "sweep":
            return _run_sweep_command(args)
        if args.command == "check":
            return _run_check_command(args)
        return _run_describe_command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
