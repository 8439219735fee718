"""One benchmark job in a fresh interpreter.

    python child.py REPORT_JSON [--trace] [-- CLI_ARGS...]

Imports ``aud_lab.cli`` (from ``PYTHONPATH``), records the moment the import
finished, then, if CLI arguments follow ``--``, runs ``aud_lab.cli.main`` on
them once and records its wall time, CPU time and the process's peak RSS.
With ``--trace`` the layer tracer is installed before the call and its
per-layer metrics are added to the report.  Without it the tracer module is
never imported.  The report is written as JSON to REPORT_JSON.
"""
import sys
import time

import aud_lab.cli  # the import is what set-up time measures

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def main(argv: list[str]) -> int:
    report_path, *rest = argv
    traced = rest[:1] == ["--trace"]
    if traced:
        rest = rest[1:]
    cli_args = rest[1:] if rest[:1] == ["--"] else None
    report = {
        "imported_at": IMPORTED_AT,
        "aud_lab_file": os.path.abspath(aud_lab.cli.__file__),
    }
    if cli_args is not None:
        entry = aud_lab.cli.main
        tracer = None
        if traced:
            import layer_trace

            tracer = layer_trace.Tracer()
            entry = tracer.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        exit_code = entry(cli_args)
        run_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        report.update(
            exit_code=exit_code,
            run_s=run_s,
            cpu_s=cpu_s,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer is not None:
            report["layers"] = layer_trace.summarize(tracer.spans, run_s, cpu_s)
            report["absent"] = tracer.absent
    import numpy
    import scipy

    report["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    report["tracer_loaded"] = "layer_trace" in sys.modules
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
