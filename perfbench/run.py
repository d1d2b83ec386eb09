"""fibrum benchmark: drives the ``fibrum`` CLI in-process over one workload.

    python3 perfbench/run.py --workload verify-sphere --seed 1 --seconds 36 \
        --trace 0

Run it from the root of a checkout; it imports fibrum from ``src/``.  With
``--trace 0`` it measures the end-to-end metrics: set-up time of fresh
interpreters, then whole passes of the workload until ``--seconds`` are
used (at least one), reporting medians; pass times are also corrected to a
reference machine speed (``throughput.py``).  With ``--trace 1`` it makes one
untraced pass and two traced passes and reports the per-layer metrics.
Every pass is checked against the pinned verdicts of ``workloads.py``.
The last line of standard output is one JSON object; the lines before it
are the same results for a reader, and the report hashes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import throughput
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 7


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- one pass ----------------------------------------------------------------

def run_invocation(cli, inv, sampler) -> tuple[int, float, bytes, str]:
    """Run one CLI invocation; return exit code, seconds, report bytes and
    an error message ('' when it returned normally)."""
    inv.report.unlink(missing_ok=True)
    sink = io.StringIO()
    error = ""
    with sampler or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = cli.main(list(inv.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
            error = sink.getvalue().strip()
        except Exception as exc:  # the benchmark records it as a failed call
            code = -1
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    data = inv.report.read_bytes() if inv.report.exists() else b""
    return code, seconds, data, error


def run_pass(cli, invs, sampler=None) -> dict:
    """One pass over the workload's invocations, each checked.  With a
    sampler, the pass's time is also given at reference speed."""
    wall = 0.0
    reports, problems = {}, {}
    worst, exits = 0.0, 0
    first_chunk = len(sampler.chunks) if sampler else 0
    for inv in invs:
        code, seconds, data, error = run_invocation(cli, inv, sampler)
        wall += seconds
        reports[inv.name] = data
        if error or not data:
            problems[inv.name] = [error or "no report written"]
            continue
        tree = json.loads(data)
        found = workloads.check_report(inv, code, tree)
        if found:
            problems[inv.name] = found
        worst = max(worst, workloads.worst_tolerance_use(inv.bundle, tree))
        exits += workloads.chart_exit_rows(tree)
    result = {"wall_s": wall, "reports": reports, "problems": problems,
              "worst_tolerance_use": worst, "chart_exit_rows": exits}
    if sampler:
        chunks = sampler.chunks[first_chunk:]
        result["wall_ref_s"] = throughput.corrected(wall, chunks)
        result["chunk_us"] = 1e6 * statistics.mean(chunks)
    return result


def sha256s(reports: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in reports.items()}


# -- the two kinds of run -----------------------------------------------------

def measure_setup(invs) -> list[float]:
    """Seconds from start to exit of fresh interpreters that import fibrum,
    load the workload's configs and build their connections.  One unmeasured
    start first compiles the bytecode caches."""
    cmd = [sys.executable, str(HERE / "setup_probe.py")] + [
        inv.setup_item for inv in invs]
    times = []
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - t0)
    return times


def timed_run(cli, invs, seconds: float) -> dict:
    setup = measure_setup(invs)
    sampler = throughput.Sampler()
    passes = []
    peak_kb = 0
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, invs, sampler))
        if len(passes) == 1:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1]["wall_s"] > seconds:
            break
    return {"setup": setup, "passes": passes, "peak_rss_mb": peak_kb / 1024.0}


def traced_run(cli, invs, seed: int) -> dict:
    passes = [run_pass(cli, invs)]
    tracers = []
    for _ in range(2):
        tr = Tracer()
        tr.install()
        try:
            passes.append(run_pass(cli, invs))
        finally:
            tr.uninstall()
        tracers.append(tr)
    problems = []
    if tracers[0].counts() != tracers[1].counts():
        problems.append("counts differ between the two traced passes")

    traced_wall = statistics.mean(p["wall_s"] for p in passes[1:])
    metrics = {}
    for tr, p in zip(tracers, passes[1:]):
        for name, (value, unit) in layers.per_layer(tr, p["wall_s"],
                                                    SRC).items():
            metrics.setdefault(name, ([], unit))[0].append(value)
    metrics = {name: (statistics.mean(vals), unit)
               for name, (vals, unit) in metrics.items()}
    for name, value in layers.probes(seed).items():
        metrics[name] = (value, "us")
    metrics["trace.untraced_wall_s"] = (passes[0]["wall_s"], "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - passes[0]["wall_s"], "s")
    metrics["report.worst_tolerance_use"] = (
        passes[0]["worst_tolerance_use"], "ratio")
    metrics["report.chart_exit_rows"] = (passes[0]["chart_exit_rows"],
                                         "count")
    return {"passes": passes, "metrics": metrics, "problems": problems}


# -- entry point --------------------------------------------------------------

def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fibrum" / "__init__.py").is_file():
        print(f"fibrum sources not found under {SRC}; run from the root of "
              "a fibrum checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fibrum.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "fibrum":
        print(f"imported fibrum from {cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    invs = workloads.invocations(args.workload, args.seed, WORK)
    env = environment()
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace:
        run = traced_run(cli, invs, args.seed)
    else:
        run = timed_run(cli, invs, args.seconds)
    passes = run["passes"]
    problems = list(run.get("problems", []))
    failed = 0
    for k, p in enumerate(passes, 1):
        ref = f", {p['wall_ref_s']:.4f} s at reference speed" \
            if "wall_ref_s" in p else ""
        print(f"pass {k}: {p['wall_s']:.4f} s{ref}")
        for name, found in p["problems"].items():
            failed += 1
            problems.extend(f"pass {k} {name}: {msg}" for msg in found)
        if p["reports"] != passes[0]["reports"]:
            # in a traced run, passes 2 and 3 are the traced ones
            problems.append(f"pass {k}: report bytes differ from pass 1")
    attempted = len(passes) * len(invs)
    hashes = sha256s(passes[0]["reports"])
    for name, digest in hashes.items():
        print(f"sha256 {args.workload} seed={args.seed} {name} {digest}")
    for msg in problems:
        print(f"PROBLEM {msg}")

    if args.trace:
        metrics = run["metrics"]
        for name, (value, unit) in metrics.items():
            print(f"{name:44s} {value:.6g} {unit}")
    else:
        walls = [p["wall_s"] for p in passes]
        metrics = {
            "setup_s": (statistics.median(run["setup"]), "s"),
            "wall_ref_s": (statistics.median(p["wall_ref_s"] for p in passes),
                           "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        print(f"setup_s             {metrics['setup_s'][0]:.4f} s "
              f"(median of {len(run['setup'])} fresh interpreters)")
        print(f"wall_s              {statistics.median(walls):.4f} s "
              f"(median of {len(walls)} passes)")
        print(f"wall_ref_s          {metrics['wall_ref_s'][0]:.4f} s "
              "(the same passes at reference speed)")
        print(f"peak_rss_mb         {metrics['peak_rss_mb'][0]:.1f} MB")
        print(f"failed_share        {failed}/{attempted} = "
              f"{failed / attempted:.4g}")
        print(f"worst_tolerance_use "
              f"{passes[0]['worst_tolerance_use']:.6g}")
        print(f"chart_exit_rows     {passes[0]['chart_exit_rows']}")

    result_file = WORK / (f"result-{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    result_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "sha256": hashes, "problems": problems,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_wall_ref_s": [p.get("wall_ref_s") for p in passes],
        "pass_chunk_us": [p.get("chunk_us") for p in passes],
        "setup_s": run.get("setup"),
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
