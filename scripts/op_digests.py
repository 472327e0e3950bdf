"""SHA-256 digests of the output files of a benchmark workload's op list.

    python3 scripts/op_digests.py --workload verify --seed 0 --seconds 40 --work /tmp/digests

Builds the seeded op list of `perfbench/workloads.py`, runs the workload's
set-up and then every op in-process through this checkout's
`finslergp.cli.main`, and applies each op's output check, all with the
benchmark's own runner (`perfbench/run.py`). Prints one line per op (index,
kind, the runner's SHA-256 over the names and bytes of the files the op
wrote), then a total over those lines.

Sidecars record the paths a command wrote to, so two checkouts give equal
digests only when both are run with the same --work path. To show that a
change leaves every output byte-identical, run this once in each checkout
(emptying --work in between) and diff the two printouts. Exits 1 if a
command fails or an op fails its check, 2 if --work is not empty.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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

    workload, runner = workloads.WORKLOADS[args.workload](work), run.Runner(cli_main)
    try:
        runner.setup(workload.setup_commands(args.seed))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    records = runner.run_ops(workload.ops(args.seed, args.seconds))
    lines = [f"{i} {r['kind']} {r['digest']}" for i, r in enumerate(records)]
    print("\n".join(lines))
    print("total", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return 1 if any(r["failed"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
