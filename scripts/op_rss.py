"""Peak and current resident size after each command of a benchmark workload.

    python3 scripts/op_rss.py --workload pipeline --seed 0 --seconds 40 --work /tmp/rss

Builds the seeded op list of `perfbench/workloads.py`, runs the workload's
set-up commands once and then every op in-process through this checkout's
`finslergp.cli.main`, and applies each op's output check, all with the
benchmark's own runner (`perfbench/run.py`). After each command it prints
one line: its index (`setup` for a set-up command), its kind (the command
name for a set-up command), the process's peak resident size so far
(`ru_maxrss`) in MB, how much the command raised that peak, and the
resident size after it (`/proc/self/statm`, `-` where that file does not
exist). A last line gives the peak. The benchmark's `peak_rss_mb` is the
same `ru_maxrss`, read once after three set-ups and the whole op list, so
this trace shows which command sets it.

Exits 1 if a command fails or an op fails its check, 2 if --work is not
empty.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _current_mb() -> str:
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return "-"
    return f"{pages * os.sysconf('SC_PAGE_SIZE') / 2**20:.2f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("pipeline", "verify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--work", required=True,
                    help="empty or absent directory that receives every output")
    args = ap.parse_args(argv)
    work = os.path.abspath(args.work)
    if os.path.exists(work) and os.listdir(work):
        print(f"error: --work {work} is not empty", file=sys.stderr)
        return 2
    os.makedirs(work, exist_ok=True)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from finslergp.cli import main as cli_main

    import run
    import workloads

    workload = workloads.WORKLOADS[args.workload](work)
    runner = run.Runner(cli_main)
    print("# index kind peak_rss_mb peak_rise_mb rss_mb")
    peak = _peak_mb()

    def report(index, kind):
        nonlocal peak
        before, peak = peak, _peak_mb()
        print(f"{index} {kind} {peak:.2f} {peak - before:.2f} {_current_mb()}", flush=True)

    for argv in workload.setup_commands(args.seed):
        code, _, _ = runner.command(argv)
        report("setup", argv[0])
        if code != 0:
            print(f"error: set-up command {argv} exited {code}", file=sys.stderr)
            return 1
    failed = False
    for i, op in enumerate(workload.ops(args.seed, args.seconds)):
        failed |= runner.run_ops([op])[0]["failed"]
        report(i, op.kind)
    print(f"peak {peak:.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
