"""Layered benchmark for stablepairs: seeded CLI workloads in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload energy-mc --seed 1 --seconds 34 --trace 0

One process runs one CLI operation at a time (``stablepairs.cli.main`` in
process, output captured), repeating the workload's operation list in passes
until ``--seconds`` would be exceeded; every operation's output is checked.
Times are per-operation medians over the passes.  The last stdout line is
the result JSON:

- ``--trace 0``: end-to-end metrics.  ``wall_s`` is one pass (the sum of
  per-operation medians), ``setup_s`` the median of cold starts of a fresh
  interpreter to the CLI imported and the inputs parsed, ``peak_rss_mb``
  the process's peak resident set;
- ``--trace 1``: per-layer metrics from wrappers installed around each
  module's public functions (see ``tracing.py``), plus per-command times.
  Untraced and traced passes alternate; ``trace.overhead_s`` is traced
  minus untraced pass time.

A provenance line (machine, versions, kernel backend, seed) precedes it.
Exit status is 0 once a result is printed, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
WORKLOADS = ("energy-mc", "descent", "exact-probe")


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in output")


def _strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def _run_pass(cli, ops, reference: dict, failures: list):
    """Run every operation once; returns (seconds per operation, check context)."""
    times = []
    ctx: dict = {}
    for op in ops:
        rc, dt, text, errtext = _run_op(cli, op)
        times.append(dt)
        error = None
        if rc != 0:
            error = f"exit code {rc}: {errtext.strip()[-400:]}"
        else:
            try:
                doc = _strict_json(text)
            except ValueError as exc:
                error = f"invalid JSON: {exc}"
            else:
                if reference.setdefault(tuple(op.argv), text) != text:
                    error = "output differs from an earlier identical run"
                else:
                    try:
                        error = op.check(doc["result"], ctx)
                    except Exception as exc:  # a broken output must not end the run
                        error = f"check raised {exc!r}"
                if error is None and op.save:
                    with open(op.save, "w") as fh:
                        json.dump(doc["result"], fh)
        if error is not None:
            failures.append(f"{' '.join(op.argv)}: {error}")
            print(f"FAILED {failures[-1]}", file=sys.stderr)
    return times, ctx


def _setup_times(src: str, inputs: str, repeats: int):
    """Cold starts: seconds to a fresh interpreter with the CLI and inputs loaded."""
    totals, imports = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), src, inputs],
            stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        totals.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or not line:
            raise RuntimeError("setup probe failed")
        imports.append(json.loads(line)["import_s"])
    return totals, imports


def _blas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def _git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy
    from stablepairs._kernels import backend_name

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": backend_name(),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "load": "closed loop, 1 process, 1 operation at a time",
    }


def _unit(name: str) -> str:
    if name.endswith("ns_per_sample_term"):
        return "ns"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("s_per_iter"):
        return "s"
    if name.endswith("stderr"):
        return "nats"
    if name.endswith("ratio") or name.endswith("_frac"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "stablepairs", "cli.py")):
        print("perfbench: src/stablepairs not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import inputs
    import tracing
    import workloads
    from stablepairs import cli

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        files = inputs.generate(os.path.join(work, "inputs"), args.seed)
        ops = workloads.build(args.workload, files, work, args.seed)
        setup, imports = _setup_times(src, os.path.join(work, "inputs"), SETUP_REPEATS)

        tracer = tracing.Tracer()
        reference: dict = {}
        failures: list = []
        plain, traced = [], []
        t_start = time.perf_counter()
        while True:
            # a traced run alternates untraced and traced passes, starting
            # untraced, so both see the same share of warm-up and drift
            tracing_on = bool(args.trace) and len(plain) > len(traced)
            if tracing_on:
                tracing.install(tracer)
                tracer.reset()
            t0 = time.perf_counter()
            try:
                times, ctx = _run_pass(cli, ops, reference, failures)
            finally:
                tracer.uninstall()
            pass_s = time.perf_counter() - t0
            by_group = defaultdict(float)
            for op, t in zip(ops, times):
                by_group[op.group] += t
            print(f"pass {len(plain) + len(traced) + 1}{' traced' if tracing_on else ''}: "
                  f"{pass_s:.3f}s "
                  + " ".join(f"{g}={t:.3f}" for g, t in by_group.items()), file=sys.stderr)
            record = {"times": times, "ctx": ctx}
            if tracing_on:
                record["layers"] = tracing.layer_metrics(tracer)
                traced.append(record)
            else:
                plain.append(record)
            elapsed = time.perf_counter() - t_start
            if elapsed + pass_s > args.seconds and (traced or not args.trace):
                break
    finally:
        shutil.rmtree(os.path.join(root, ".perfbench_work"), ignore_errors=True)

    def op_medians(records):
        return [_median([r["times"][i] for r in records]) for i in range(len(ops))]

    if args.trace:
        metrics = {}
        for key in traced[0]["layers"]:
            metrics[key] = _median([r["layers"][key] for r in traced])
        per_op = op_medians(traced)
        for group in workloads.GROUPS:
            metrics[f"cli.{group}_s"] = sum(
                (t for op, t in zip(ops, per_op) if op.group == group), 0.0)
        precision, destabilized = [], []
        for r in traced:
            stderrs = r["ctx"].get("kenergy_stderr")
            if stderrs:
                seconds = sum(t for op, t in zip(ops, r["times"]) if op.group == "kenergy")
                precision.append(sum(se ** -2 for se in stderrs) / seconds)
            found = r["ctx"].get("binary_destabilized")
            if found:
                destabilized.append(sum(found) / len(found))
        metrics["cli.mc_precision_per_s"] = _median(precision)
        metrics["cli.binary_destabilized_frac"] = _median(destabilized)
        metrics["cli.import_s"] = _median(imports)
        metrics["trace.overhead_s"] = sum(per_op) - sum(op_medians(plain))
    else:
        metrics = {
            "wall_s": sum(op_medians(plain)),
            "setup_s": _median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    attempted = len(ops) * (len(plain) + len(traced))
    print(json.dumps({"provenance": _provenance(args.workload, args.seed, args.trace)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
