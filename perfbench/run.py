"""divbell benchmark: time-to-verdict, wall time, set-up and peak RSS of
one CLI command, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
It is a closed loop with one client: repetitions run one after another,
each in a fresh interpreter (``perfbench/child.py``), until ``--seconds``
would be exceeded; at least two run so outputs can be compared.  Every
repetition must exit 0, print only PASS lines and write byte-identical
files.  ``--trace 1`` alternates plain and traced repetitions and reports
per-layer metrics from the traced ones.

The last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  The full record -- provenance,
every sample, output digest, span summary -- goes to
``.perfbench-out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from spans import COUNT_METRICS, layer_metrics, summarize

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> (CLI arguments, summary checks, CSV rows per table, spans that
# must record at least one call in a traced repetition)
WORKLOADS = {
    "certify": (["bellman-verify", "--points", "2500"], 8, {"bellman": 10000},
                ("bellman.certify", "bellman.sample", "reports.emit")),
    "sweep": (["sweep", "--p", "4"], 10, {"sweep": 10},
              ("scenario.build", "operators.assemble", "semigroup.evolve",
               "harness.pointwise", "harness.embedding")),
    "pointwise-32": (["pointwise", "--preset", "random-accretive", "--grid", "32,32",
                      "--p", "4"], 2, {"pointwise": 97061},
                     ("semigroup.evolve", "harness.pointwise", "harness.chain_rule",
                      "reports.emit")),
    "embed-3d": (["embed", "--preset", "random-accretive", "--grid", "24,24,24",
                  "--p", "4"], 3, {"embed": 1},
                 ("operators.assemble", "semigroup.evolve", "harness.embedding")),
}

SETUP_SAMPLES = 2        # import-only children per run, besides one per repetition
MIN_REPS = 2
TIME_LIMIT_S = 170.0     # a run must end within 180 s, whatever --seconds says
# One BLAS thread: with two, the level-1 calls inside each Krylov iteration
# spread over both CPUs and wait on whichever is contended.  Measured on
# embed-3d (2 vCPUs): median 2.68 s, IQR 4% with one; 2.80 s, IQR 8% with two.
BLAS_THREADS = 1


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("DIVBELL_WORKERS", None)    # serial sweep
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def _spawn(root, env, result, timeout, cli_args=(), trace=False):
    """Run one child; return (exit code, spawn time, result dict or None).

    A child still running after ``timeout`` seconds is killed (code -9)."""
    if os.path.exists(result):
        os.remove(result)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result]
    if trace:
        cmd.append("--trace")
    if cli_args:
        cmd += ["--", *cli_args]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -9, t_spawn, None
    if code != 0 or not os.path.exists(result):
        return code or 1, t_spawn, None
    with open(result, encoding="utf-8") as fh:
        return 0, t_spawn, json.load(fh)


def _digest(outdir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _summary_failures(outdir: str, expected_checks: int) -> int:
    """FAIL lines in summary.txt, plus the checks it does not report."""
    try:
        with open(os.path.join(outdir, "summary.txt"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return expected_checks
    checks = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
    fails = sum(ln.startswith("FAIL") for ln in checks)
    return fails + max(0, expected_checks - len(checks))


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _median(values):
    return statistics.median(values) if values else 0.0


# per-layer metric units, by name suffix
UNITS = {"_s": "s", "_mb": "MB", "bytes": "B", "bytes_computed": "B",
         "iters_per_step": "iter/step", "worst_residual": "rel"}


def _unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run(workload: str, seed: int, seconds: int, trace: bool, root: str) -> tuple[dict, dict]:
    cli_args, n_checks, rows_expected, expected_spans = WORKLOADS[workload]
    env = _child_env(root)
    work = os.path.join(root, ".perfbench-out", f"{workload}-seed{seed}-trace{int(trace)}")
    outdir = os.path.join(work, "out")
    result = os.path.join(work, "child.json")
    os.makedirs(work, exist_ok=True)
    start = time.perf_counter()
    deadline = start + seconds

    def remaining():
        return start + TIME_LIMIT_S - time.perf_counter()

    # warm-up import: byte-compiles the package once, as an install would
    code, _, info = _spawn(root, env, result, remaining())
    if code != 0:
        raise SystemExit(f"importing divbell from {root}/src failed (exit {code})")
    src_dir = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(info["divbell_file"]).startswith(src_dir + os.sep):
        raise SystemExit(f"divbell was imported from {info['divbell_file']}, not {src_dir}")
    versions = info["versions"]

    setup = []
    for _ in range(SETUP_SAMPLES):
        code, t_spawn, info = _spawn(root, env, result, remaining())
        if code != 0:
            raise SystemExit(f"set-up sample failed (exit {code})")
        setup.append(info["imported"] - t_spawn)

    args = [*cli_args, "--seed", str(seed)]
    child_args = [*args, "--out", outdir, "--quiet"]
    reps, failed, attempted, digests = [], 0, 0, []
    longest = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() + longest <= deadline:
        traced = trace and len(reps) % 2 == 1
        shutil.rmtree(outdir, ignore_errors=True)
        t = time.perf_counter()
        code, t_spawn, info = _spawn(root, env, result, remaining(), child_args, traced)
        longest = max(longest, time.perf_counter() - t)
        attempted += n_checks
        rep = {"traced": traced, "exit": code}
        reps.append(rep)
        if code != 0:
            failed += 1
            print(f"repetition {len(reps)}: exit code {code}", file=sys.stderr)
            if code == -9:
                break
            continue
        setup.append(info["imported"] - t_spawn)
        rep.update(verdict_s=info["verdict_s"], wall_s=info["wall_s"],
                   peak_rss_mb=info["peak_rss_mb"], digest=_digest(outdir))
        fails = _summary_failures(outdir, n_checks)
        if not info["all_passed"] and fails == 0:
            fails = 1
        if info["rows"] != rows_expected:
            print(f"repetition {len(reps)}: CSV rows {info['rows']}, "
                  f"expected {rows_expected}", file=sys.stderr)
            fails += 1
        if digests and rep["digest"] != digests[0]:
            print(f"repetition {len(reps)}: output digest differs from the first",
                  file=sys.stderr)
            fails += 1
        digests.append(rep["digest"])
        failed += fails
        if traced:
            rep["spans"] = info["spans"]
    shutil.rmtree(outdir, ignore_errors=True)

    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cli_args": args,
        "provenance": {
            "commit": _commit(root), "source_sha256": _source_digest(root), **versions,
            "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "divbell_workers": os.environ.get("DIVBELL_WORKERS"),
            "closed_loop_clients": 1,
        },
        "digest": digests[0] if digests else None,
        "setup_s": setup,
        "repetitions": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
    }
    if not trace:
        metrics = {
            "verdict_s": (_median([r["verdict_s"] for r in plain]), "s"),
            "wall_s": (_median([r["wall_s"] for r in plain]), "s"),
            "setup_s": (_median(setup), "s"),
            "peak_rss_mb": (_median([r["peak_rss_mb"] for r in plain]), "MB"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics, missing = _traced_metrics(reps, plain, expected_spans, record)
        failed += len(missing)
    record.update(attempted=attempted, failed=failed,
                  samples={"plain": len(plain), "setup": len(setup)},
                  metrics={k: v for k, (v, _) in metrics.items()})
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return out, record


def _traced_metrics(reps, plain, expected_spans, record):
    """Per-layer metrics: medians over traced repetitions for times, the
    first traced repetition for counts, which must repeat exactly."""
    traced = [r for r in reps if r["traced"] and "spans" in r]
    per_rep = []
    for r in traced:
        summary = summarize(r["spans"])
        per_rep.append(layer_metrics(summary, r["wall_s"]))
        r["span_summary"] = summary
    missing = sorted({name for r in traced for name in expected_spans
                      if name not in r["span_summary"]})
    for name in missing:
        print(f"span {name} recorded no calls: missing", file=sys.stderr)
    unsteady = {}
    for name in COUNT_METRICS:
        values = [m[name] for m in per_rep]
        if len(set(values)) > 1:
            unsteady[name] = {"min": min(values), "max": max(values)}
    metrics = {}
    for name in (per_rep[0] if per_rep else {}):
        values = [m[name] for m in per_rep]
        value = values[0] if name in COUNT_METRICS and name not in unsteady \
            else _median(values)
        metrics[name] = (value, _unit(name))
    metrics["trace.overhead_s"] = (
        _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in plain]), "s")
    record.update(missing_spans=missing, unsteady_counts=unsteady,
                  spans=[r["span_summary"] for r in traced],
                  raw_spans=traced[0]["spans"] if traced else [])
    return metrics, missing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "divbell", "cli.py")):
        print(f"no divbell source under {root}/src: run from a checkout root",
              file=sys.stderr)
        return 2
    out, record = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    results = os.path.join(root, ".perfbench-out", "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {len(record['repetitions'])} repetitions, "
          f"digest {record['digest']}, record {os.path.relpath(path, root)}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
