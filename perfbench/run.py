"""finslergp benchmark: seeded CLI workloads timed end to end, with an
optional traced run that breaks the time down by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 40 --trace 0

Load is a closed loop with one client: each op is one `finslergp` command,
run in-process through `finslergp.cli.main(argv)` and issued only when the
previous one has returned. With --trace 0 the last stdout line holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
pass, which runs after an untraced pass of the same ops. The line before it
is a JSON record of the environment, op counts and secondary statistics.
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
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
P90_MIN_OPS = 100


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pipeline", "verify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None
    outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """SHA-256 over the package sources, which identifies the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "finslergp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _blas_threads():
    """Thread count of the OpenBLAS that numpy bundles, or None when it
    cannot be queried."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(args):
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# running ops


class Runner:
    """Runs commands in-process and records op times, failures and the
    digest of every op's output files."""

    def __init__(self, main, tracer=None):
        self.main = main
        self.tracer = tracer

    def command(self, argv):
        """One CLI command with its output captured; returns (exit code,
        stdout, seconds). An exception escaping the CLI counts as exit 1."""
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span("cli") if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                with span:
                    code = self.main(argv)
            except Exception:
                traceback.print_exc()
                code = 1
            seconds = time.perf_counter() - start
        if code != 0:
            sys.stderr.write(f"op {argv} exited {code}: {err.getvalue()[-2000:]}\n")
        return code, out.getvalue(), seconds

    def setup(self, commands):
        start = time.perf_counter()
        for argv in commands:
            code, _, _ = self.command(argv)
            if code != 0:
                raise RuntimeError(f"set-up command {argv} exited {code}")
        return time.perf_counter() - start

    def run_ops(self, ops):
        """Run the op list once; returns per-op records."""
        records = []
        for i, op in enumerate(ops):
            # a fresh directory, so a file the command failed to write
            # cannot be stood in for by one from an earlier pass
            shutil.rmtree(op.out, ignore_errors=True)
            os.makedirs(op.out)
            if self.tracer:
                self.tracer.op = i
            code, stdout, seconds = self.command(op.argv)
            if self.tracer:
                self.tracer.enabled = False
            reason = f"exit code {code}" if code != 0 else None
            if reason is None:
                try:
                    reason = op.check(op, stdout)
                except Exception as exc:  # a check that cannot read the outputs
                    reason = f"check raised {exc!r}"
            if reason is not None:
                sys.stderr.write(f"op {i} ({op.kind}) failed: {reason}\n")
            records.append({
                "kind": op.kind,
                "seconds": seconds,
                "failed": reason is not None,
                "unconverged": _unconverged(op.out),
                "digest": _digest(op.out),
            })
            if self.tracer:
                self.tracer.enabled = True
        return records


def _unconverged(out):
    path = os.path.join(out, "geo.csv")
    if not os.path.exists(path):
        return False
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    return any(line.rsplit(",", 1)[-1] == "0" for line in lines)


def _digest(out):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode())
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# statistics


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def _summary(records):
    times = [r["seconds"] for r in records]
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["seconds"])
    return {
        "ops": len(records),
        "ops_by_kind": {k: len(v) for k, v in sorted(by_kind.items())},
        "op_p50_s": _metric(statistics.median(times), "s"),
        "op_p50_s_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "op_p90_s": (_metric(_percentile(times, 90), "s") if len(times) >= P90_MIN_OPS
                     else None),
        "unconverged_ops": sum(r["unconverged"] for r in records),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------


def run(args):
    if not os.path.isdir(os.path.join(SRC, "finslergp")):
        raise SystemExit(f"error: no finslergp sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    from finslergp.cli import main

    import workloads

    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        workload = workloads.WORKLOADS[args.workload](work)
        runner = Runner(main)
        setup_cmds = workload.setup_commands(args.seed)
        repeats = 1 if args.trace else SETUP_REPEATS
        import_times = [_import_seconds() for _ in range(repeats)]
        setup_times = [runner.setup(setup_cmds) for _ in range(repeats)]
        ops = workload.ops(args.seed, args.seconds)
        records = runner.run_ops(ops)
        wall_s = sum(r["seconds"] for r in records)
        record = _environment(args)
        record["import_repeats_s"] = import_times
        record["setup_repeats_s"] = setup_times
        record.update(_summary(records))
        failed = sum(r["failed"] for r in records)
        attempted = len(records)
        if not args.trace:
            metrics = {
                "setup_s": _metric(statistics.median(import_times)
                                   + statistics.median(setup_times), "s"),
                "wall_s": _metric(wall_s, "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            identical = True
        else:
            metrics, traced = _traced_pass(ops, main, setup_cmds, wall_s, record)
            failed += sum(r["failed"] for r in traced)
            attempted += len(traced)
            identical = [r["digest"] for r in records] == [r["digest"] for r in traced]
            record["outputs_identical"] = identical
        record["failed_frac"] = _metric(failed / attempted, "ratio")
        print(json.dumps({"record": record}, sort_keys=True))
        return {
            "correct": failed == 0 and identical,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)


def _import_seconds():
    """Time of `import finslergp.cli` in a fresh interpreter, as a user's
    command pays it; the benchmark's own process has imported it already."""
    code = ("import time; start = time.perf_counter(); import finslergp.cli; "
            "print(time.perf_counter() - start)")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _traced_pass(ops, main, setup_cmds, untraced_wall_s, record):
    import tracing

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        runner = Runner(main, tracer)
        tracer.enabled = True
        tracer.op = "setup"
        runner.setup(setup_cmds)
        records = runner.run_ops(ops)
        tracer.enabled = False
    finally:
        restore()
    metrics, missing = tracing.layer_metrics(tracer)
    traced_wall_s = sum(r["seconds"] for r in records)
    metrics["trace.overhead_frac"] = _metric(traced_wall_s / untraced_wall_s - 1.0, "ratio")
    record["missing"] = missing
    record["bindings_wrapped"] = tracer.bindings
    record["spans"] = len(tracer.spans)
    record["aggregates"] = len(tracer.aggregates)
    record["work_counts"] = tracing.work_counts(metrics)
    return metrics, records


def main(argv=None):
    args = _parse_args(argv)
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
