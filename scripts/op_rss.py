"""Peak and current resident size after each command of a benchmark workload.

    python3 scripts/op_rss.py --workload pipeline --seed 0 --seconds 40 --work /tmp/rss

Builds the seeded op list of `perfbench/workloads.py`, runs the workload's
set-up commands once and then every op in-process through this checkout's
`finslergp.cli.main`, and applies each op's output check, all with the
benchmark's own runner (`perfbench/run.py`). After each command it prints
one line: its index (`setup` for a set-up command), its kind (the command
name for a set-up command), the process's peak resident size so far
(`ru_maxrss`) in MB, how much the command raised that peak, the resident
size after it (`/proc/self/statm`, `-` where that file does not exist), the
minor page faults the command took (the rise of `ru_minflt`), and the bytes
of glibc's main malloc arena in use and free after it, in MB (`mallinfo2`'s
`uordblks` and `fordblks`, `-` where the C library lacks `mallinfo2`). A
last line gives the peak. The benchmark's `peak_rss_mb` is the same
`ru_maxrss`, read once after three set-ups and the whole op list, so this
trace shows which command sets it; the arena columns show how much of the
resident size is freed heap that the allocator keeps.

Exits 1 if a command fails or an op fails its check, 2 if --work is not
empty.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import resource
import sys

from op_digests import workload_runner


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


def _mallinfo2():
    """glibc's `mallinfo2`, or None where the C library lacks it."""
    try:
        fn = ctypes.CDLL(ctypes.util.find_library("c")).mallinfo2
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = [], _Mallinfo2
    return fn


def _arena_mb(mallinfo2) -> str:
    """The main arena's in-use and free bytes in MB, or `- -`."""
    if mallinfo2 is None:
        return "- -"
    info = mallinfo2()
    return f"{info.uordblks / 2**20:.2f} {info.fordblks / 2**20:.2f}"


def _current_mb() -> str:
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return "-"
    return f"{pages * os.sysconf('SC_PAGE_SIZE') / 2**20:.2f}"


def main(argv=None) -> int:
    args, workload, runner = workload_runner(argv, __doc__)
    mallinfo2 = _mallinfo2()
    print("# index kind peak_rss_mb peak_rise_mb rss_mb minor_faults arena_used_mb arena_free_mb")
    peak, faults = _peak_mb(), _minor_faults()

    def report(index, kind):
        nonlocal peak, faults
        before, peak = peak, _peak_mb()
        faults_before, faults = faults, _minor_faults()
        print(f"{index} {kind} {peak:.2f} {peak - before:.2f} {_current_mb()} "
              f"{faults - faults_before} {_arena_mb(mallinfo2)}", flush=True)

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
