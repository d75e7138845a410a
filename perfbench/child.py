"""One repetition of one CLI command, in a fresh interpreter.

    python3 perfbench/child.py RESULT_JSON [--trace] [-- divbell CLI args]

With no CLI arguments it only imports divbell (a set-up sample) and
records the library versions.  Otherwise it times
``divbell.cli.COMMANDS[cmd](args)`` (the verdict) and then
``divbell.reports.emit_report`` (the files), exactly as ``divbell.cli.main``
runs them.  Times are ``time.perf_counter`` readings, which share one
monotonic clock with the parent process.
"""

import json
import resource
import sys
import time


def _versions() -> dict:
    import importlib.util

    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "numba_present": importlib.util.find_spec("numba") is not None}


def main(argv: list[str]) -> int:
    result_path = argv[0]
    trace = "--trace" in argv[1:]
    cli_args = argv[argv.index("--") + 1:] if "--" in argv else []

    import divbell.cli
    import divbell.reports
    out = {"imported": time.perf_counter(), "divbell_file": divbell.cli.__file__}
    if not cli_args:
        out["versions"] = _versions()
    else:
        args = divbell.cli.make_parser().parse_args(cli_args)
        command = divbell.cli.COMMANDS[args.command]
        tracer = None
        if trace:
            from spans import Tracer, instrument
            tracer = Tracer()
            instrument(tracer)
        t0 = time.perf_counter()
        if tracer is None:
            summary, tables = command(args)
        else:
            summary, tables = tracer.call("cli.command", command, args)
        t1 = time.perf_counter()
        divbell.reports.emit_report(summary, tables, args.out)
        t2 = time.perf_counter()
        out.update(verdict_s=t1 - t0, wall_s=t2 - t0,
                   all_passed=summary.all_passed, checks=len(summary.checks),
                   rows={k: len(rows) for k, (_, rows) in tables.items()})
        if tracer is not None:
            out["spans"] = tracer.spans
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
