"""Command-line experiment runner.

Verbs:
    sweep          one row per (arrival rate, service rate, decision rate)
    nu-invariance  paired decision-rate comparison on one shared trace
    validate       run every oracle check against one simulated point

Every setting of a run is a flag; an unset flag keeps the ExperimentConfig
default.  A flag is spelled in full and given at most once: an abbreviated or
repeated flag is a usage error, so the manifest's config record is what was
typed.  ``--lambda`` / ``--mu`` / ``--nu`` accept a single number, a comma
list, or ``start:stop:step``.
"""
from __future__ import annotations

import argparse
import sys

from .errors import AudLabError
from .experiments import (
    _CONFIG_KEYS,
    ExperimentConfig,
    run_nu_invariance,
    run_sweep,
    run_validation,
)


class _Once(argparse.Action):
    """Store the flag's text; a second occurrence of the flag is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"argument {option_string}: may be given only once")
        setattr(namespace, self.dest, values)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    for key, (_, _, help_text) in _CONFIG_KEYS.items():
        parser.add_argument(f"--{key}", action=_Once, help=help_text)


def _overrides(args: argparse.Namespace) -> dict:
    """The ExperimentConfig field values of the flags that were given."""
    given = vars(args)
    return {field: convert(given[key]) for key, (field, convert, _) in _CONFIG_KEYS.items()
            if given.get(key) is not None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="aud-lab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter,
                                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("sweep", "nu-invariance", "validate"):
        _add_common_flags(sub.add_parser(verb, allow_abbrev=False))
    args = parser.parse_args(argv)

    try:
        config = ExperimentConfig(**_overrides(args))
        if args.verb == "sweep":
            rows = run_sweep(config)
            print(f"wrote {len(rows)} rows"
                  + (f" to {config.output_path}" if config.output_path else ""))
            return 0
        if args.verb == "nu-invariance":
            result = run_nu_invariance(config)
            for rate in sorted(result.estimates):
                est = result.estimates[rate]
                print(f"nu={rate:g}: mean age {est.mean:.6g} +/- {est.half_width:.6g}")
            if result.consistent is None:
                print("SKIP  fewer than two distinct decision rates have an estimate")
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
