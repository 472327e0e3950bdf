"""The steps of `.github/workflows/tier1.yml`; children get this checkout's src/.

    python3 scripts/ci.py all --base <parent commit>   # or one step by name

`all` runs every step and exits 1 if one failed that is not print-only (the
workflow's continue-on-error); without --base it skips compare-base."""

import argparse
import csv
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PY = sys.executable
STEPS = ("tests", "readme", "cli-import", "command-modules", "verify-twice", "smoke",
         "digests-twice", "compare-base", "pipeline-twice")
PRINT_ONLY = ("compare-base",)


class Failed(Exception):
    """A step's check did not hold."""


def _env(root=ROOT):
    path = os.pathsep.join(filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _check(*argv, cwd=ROOT):
    """Run argv with its output shown; fail unless it exits 0."""
    if subprocess.run(argv, cwd=cwd, env=_env()).returncode:
        raise Failed(f"{' '.join(argv)[:120]!r} exited nonzero")


def _probe(code, *argv):
    """Run code in a fresh interpreter; its last stdout line, parsed as JSON."""
    done = subprocess.run([PY, "-c", code, *argv], cwd=ROOT, env=_env(), capture_output=True,
                          text=True)
    if done.returncode:
        raise Failed(f"python -c ... {' '.join(argv)} exited {done.returncode}: "
                     f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def _twice(tmp, body, compare):
    """Run body(path) twice from one path (outputs record their own paths), and fail on
    compare's differences between the body's results, or its moved trees if None."""
    results = []
    for name in ("first", "second"):
        result = body(f"{tmp}/run")
        os.rename(f"{tmp}/run", f"{tmp}/{name}")
        results.append(f"{tmp}/{name}" if result is None else result)
    differences = compare(*results)
    if differences:
        raise Failed("the two runs differ:\n" + "\n".join(differences))
    return results[0]


def _files(root):
    return sorted(os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs)


def _diff_trees(a, b):
    """`diff -r a b`: the files only one tree has, and those whose bytes differ."""
    left, right = _files(a), _files(b)
    return ([f"only in {a}: {p}" for p in left if p not in right]
            + [f"only in {b}: {p}" for p in right if p not in left]
            + [f"differ: {p}" for p in left if p in right
               and not filecmp.cmp(f"{a}/{p}", f"{b}/{p}", shallow=False)])


def compare_digests(first, second, names=("first", "second")):
    """Compare two `op_digests.py` printouts op by op: the number of op
    indices either has and, for each index where they differ, why."""
    a, b = ({int(f[0]): f[1:] for f in map(str.split, text.splitlines()) if f and f[0] != "total"}
            for text in (first, second))
    changes = {}
    for i in sorted(a.keys() | b.keys()):
        if i not in a or i not in b:
            changes[i] = f"{(a.get(i) or b[i])[0]} only in the {names[i in b]} printout"
        elif a[i] != b[i]:
            changes[i] = f"{' '.join(a[i])[:28]} in the {names[0]}, {' '.join(b[i])[:28]}"
    return len(a.keys() | b.keys()), changes


def _digests(root, workload, work):
    """The exit code and printout of a short seeded op list's digests in the tree at root."""
    done = subprocess.run([PY, "scripts/op_digests.py", "--workload", workload, "--seed", "0",
                           "--seconds", "4", "--work", work], cwd=root, env=_env(root),
                          stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


class Steps:
    """One method per step, named as the step with `_` for `-`; each writes under tmp."""

    def __init__(self, tmp, base):
        self.tmp, self.base = tmp, base

    def tests(self):
        _check(PY, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=15")

    def readme(self):
        """README's python blocks in order, so the documented API cannot drift."""
        _check(PY, "-c", """if True:
            import re
            blocks = re.findall(r"^```python\\n(.*?)^```", open("README.md").read(), re.M | re.S)
            assert blocks, "no python block in README.md"
            exec(compile("".join(blocks), "README.md", "exec"), {})
            print(len(blocks), "README python block(s) ran")""")

    def cli_import(self):
        """`import finslergp.cli`, as each command pays it, loads neither gp nor scipy."""
        runs = [_probe("import json, sys, time; start = time.perf_counter(); import finslergp.cli; "
                       "print(json.dumps([time.perf_counter() - start, sorted(sys.modules)]))")
                for _ in range(5)]
        modules = set().union(*(names for _, names in runs))
        scipy, gp = sorted(m for m in modules if m.split(".")[0] == "scipy"), "finslergp.gp" in modules
        print(f"import finslergp.cli: median {statistics.median(s for s, _ in runs):.3f} s of 5, "
              f"{len(modules)} modules, {len(scipy)} of them scipy {scipy[:5]}, "
              f"finslergp.gp loaded: {gp}")
        if scipy or gp:
            raise Failed("import finslergp.cli loads scipy or finslergp.gp")

    def command_modules(self):
        """Each of four GP commands, fresh, loads scipy's LAPACK and BLAS modules alone."""
        tmp, model = self.tmp, ["--model", f"{self.tmp}/m.json"]
        _check(PY, "-m", "finslergp.cli", "generate", "circles", "--n", "200", "--seed", "1",
               "--out", f"{tmp}/d.csv")
        failed = []
        for name, argv in {
            "fit": ["fit", "--data", f"{tmp}/d.csv", "--out", model[1], "--steps", "10"],
            "grid-seeded geodesic": ["geodesic", *model, "--start=-0.5,-0.5", "--end=0.5,0.5",
                                     "--grid", "10", "--nc", "9", "--out", f"{tmp}/geo.csv"],
            "volume": ["volume", *model, "--grid", "48", "--k", "64", "--out", f"{tmp}/vol.csv"],
            "indicatrix": ["indicatrix", *model, "--at=0.1,-0.2", "--out", f"{tmp}/ind.csv"],
        }.items():
            start = time.perf_counter()
            rc, peak, faults, modules = _probe(
                "import json, resource, sys; from finslergp.cli import main; rc = main(sys.argv[1:]); "
                "use = resource.getrusage(resource.RUSAGE_SELF); "
                "print(json.dumps([rc, use.ru_maxrss / 1024, use.ru_minflt, sorted(sys.modules)]))",
                *argv)
            scipy = sorted(m for m in modules if m.split(".")[0] == "scipy")
            print(f"{name}: exit {rc}, {time.perf_counter() - start:.2f} s, peak RSS {peak:.1f} MB, "
                  f"{faults} minor faults, {len(scipy)} scipy modules {scipy[:5]}")
            if rc or scipy != ["scipy.linalg._fblas", "scipy.linalg._flapack"]:
                failed.append(name)
        if failed:
            raise Failed(f"failed or loaded other scipy modules: {', '.join(failed)}")

    def verify_twice(self):
        """`finslergp verify` at its defaults (dims to 1024: 1F1 at its largest), twice."""
        def run(out):
            start = time.perf_counter()
            proc = subprocess.Popen([PY, "-m", "finslergp.cli", "verify", "--out", out], env=_env())
            _, status, use = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            print(f"verification sweep: exit {proc.returncode}, "
                  f"{time.perf_counter() - start:.1f} s, peak RSS {use.ru_maxrss / 1024:.0f} MB")
            if proc.returncode:
                raise Failed("verify exited nonzero")
        first = _twice(self.tmp, run, _diff_trees)
        print(f"default-size reruns byte-identical: {len(_files(first))} files")

    def smoke(self):
        """Traced short benchmark runs pass their checks and find every layer."""
        for workload in ("pipeline", "verify"):
            done = subprocess.run([PY, "perfbench/run.py", "--workload", workload, "--seed", "0",
                                   "--seconds", "4", "--trace", "1"], cwd=ROOT, env=_env(),
                                  stdout=subprocess.PIPE, text=True)
            record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
            missing = record["record"].get("missing", ["<no missing list>"])
            print(workload, "correct:", result["correct"], "failed:", result["failed"],
                  "missing:", missing)
            print(workload, "work_counts:",
                  json.dumps(record["record"].get("work_counts"), sort_keys=True))
            if done.returncode or result["correct"] is not True or result["failed"] or missing:
                raise Failed(f"{workload}: exit {done.returncode}")

    def digests_twice(self):
        """Each op of a short op list passes its check and reruns to the same digest."""
        for workload in ("verify", "pipeline"):
            def run(work):
                rc, text = _digests(ROOT, workload, work)
                if rc:
                    raise Failed(f"op_digests.py --workload {workload} exited {rc}")
                return text
            first = _twice(f"{self.tmp}/{workload}", run, lambda a, b: [
                f"op {i}: {why}" for i, why in compare_digests(a, b)[1].items()])
            print(f"{workload}: {first.splitlines()[-1]}")

    def compare_base(self):
        """Print only: which op digests differ between --base's tree and this one."""
        base, work = f"{self.tmp}/base", f"{self.tmp}/work"
        _check("git", "worktree", "add", "--detach", base, self.base)
        try:
            for workload in ("verify", "pipeline"):
                texts = []
                for name, root in (("base", base), ("head", ROOT)):
                    shutil.rmtree(work, ignore_errors=True)
                    rc, text = _digests(root, workload, work)
                    if rc:
                        print(f"{workload}: the {name} tree's run exited {rc}")
                    texts.append(text)
                n, changes = compare_digests(*texts, names=("base", "head"))
                print(f"{workload}: {len(changes)} of {n} op digests differ from the base commit")
                for i, why in changes.items():
                    print(f"  op {i}: {why}")
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", base], cwd=ROOT)

    def pipeline_twice(self):
        """The n = 200 pinwheel script and a short verify converge and rerun identically."""
        def run(path):
            os.makedirs(path)
            _check(PY, f"{ROOT}/scripts/pinwheel_pipeline.py", "--out", "pinwheel", "--n", "200",
                   cwd=path)
            _check(PY, "-m", "finslergp.cli", "verify", "--out", "verify", "--n", "100", "--dims",
                   "2:64:dyadic", "--v-samples", "8", cwd=path)

        def compare(first, second):
            with open(f"{first}/pinwheel/geodesics.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            unconverged = [r["pair"] + " " + r["metric"] for r in rows if r["converged"] == "0"]
            print(len(rows), "geodesics, unconverged:", unconverged)
            problems = [] if rows and not unconverged else ["no geodesic, or one unconverged"]
            # reads 0 in every numeric column, or names the columns that moved
            if subprocess.run([PY, "scripts/compare_outputs.py", f"{first}/pinwheel",
                               f"{second}/pinwheel"], cwd=ROOT, env=_env()).returncode:
                problems.append("compare_outputs.py: the pinwheel trees differ")
            return problems + _diff_trees(first, second)
        print(f"reruns byte-identical: {len(_files(_twice(self.tmp, run, compare)))} files")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("step", choices=[*STEPS, "all"])
    ap.add_argument("--base", help="git revision whose op digests compare-base compares with")
    args = ap.parse_args(argv)
    if args.step == "compare-base" and args.base is None:
        ap.error("compare-base needs --base")
    sys.stdout.reconfigure(line_buffering=True)
    failed, start = [], time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ci_") as tmp:
        for name in STEPS if args.step == "all" else [args.step]:
            if args.base is None and name == "compare-base":
                print("== compare-base: skipped, no --base given")
                continue
            print(f"== {name}")
            os.makedirs(f"{tmp}/{name}")
            try:
                getattr(Steps(f"{tmp}/{name}", args.base), name.replace("-", "_"))()
            except Exception as exc:
                failed.append(name)
                print(f"== {name} FAILED: {exc}" if isinstance(exc, Failed) else traceback.format_exc())
    fatal = [name for name in failed if args.step != "all" or name not in PRINT_ONLY]
    print(f"== {time.perf_counter() - start:.0f} s; failed: {', '.join(failed) or 'none'}; "
          f"fatal: {', '.join(fatal) or 'none'}")
    return 1 if fatal else 0


if __name__ == "__main__":
    sys.exit(main())
