"""Command-line experiment runner.

Verbs:
    sweep          one row per (arrival rate, service rate, decision rate)
    nu-invariance  paired decision-rate comparison on one shared trace
    validate       run every oracle check against one simulated point

Flag values override config-file values, and a flag's text is read as the
config-file key of the same name.  ``--lambda`` / ``--mu`` / ``--nu``
accept a single number, a comma list, or ``start:stop:step``.
"""
from __future__ import annotations

import argparse
import sys

from .errors import AudLabError
from .experiments import (
    _CONFIG_KEYS,
    build_config,
    run_nu_invariance,
    run_sweep,
    run_validation,
)


# Each flag sets the config-file key of its name, read by the same converter.
_FLAGS = {
    "lambda": "arrival rate(s)",
    "mu": "service rate(s)",
    "nu": "decision rate(s)",
    "updates": "updates to simulate per point",
    "seed": "base seed",
    "out": "output CSV path",
    "confidence": "CI confidence level",
}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for key, help_text in _FLAGS.items():
        parser.add_argument(f"--{key}", help=help_text)


def _overrides(args: argparse.Namespace) -> dict:
    """The ExperimentConfig field values of the flags that were given."""
    values = {}
    for key in _FLAGS:
        text = getattr(args, key)
        if text is not None:
            field, convert = _CONFIG_KEYS[key]
            values[field] = convert(text)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="aud-lab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("sweep", "nu-invariance", "validate"):
        _add_common_flags(sub.add_parser(verb))
    args = parser.parse_args(argv)

    try:
        config = build_config(args.config, **_overrides(args))
        if args.verb == "sweep":
            result = run_sweep(config)
            print(f"wrote {len(result.rows)} rows"
                  + (f" to {config.output_path}" if config.output_path else ""))
            return 0
        if args.verb == "nu-invariance":
            result = run_nu_invariance(config)
            for rate in sorted(result.estimates):
                est = result.estimates[rate]
                print(f"nu={rate:g}: mean age {est.mean:.6g} +/- {est.half_width:.6g}")
            if result.consistent is None:
                print("SKIP  fewer than two decision rates have an estimate")
                return 0
            print(f"worst pairwise difference {result.worst_se_ratio:.6g} standard errors "
                  f"(gate {result.z:.6g}); "
                  + ("consistent" if result.consistent else "INCONSISTENT"))
            return 0 if result.consistent else 1
        report = run_validation(config)
        print(report.summary())
        return 0 if report.passed else 1
    except AudLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
