#!/usr/bin/env python3
"""Time each ntdice CLI command as a fresh process, for one or two trees.

Runs the benchmark's own ``cli`` invocations at seed 1 (``prepare_cli`` of
``perfbench/workloads.py``: verify on three n=3000 JSON files, then the
fixed gen, fib, search and realize commands), plus a bare
``import ntdice.cli``, each as a fresh ``python`` process with
``PYTHONPATH`` set to a given ``src`` root. With two roots, every command
runs once per root in turn, in alternating order, so that drift in machine
speed hits both alike. Every run's exit code and stdout SHA-256 must equal
the benchmark's expected pair, and the bare import must exit 0 and print
nothing. Prints the median and quartiles of the wall time per command and
root, then of the per-run total over the workload's commands (the bare
import excluded).

The benchmark pools every command into one ``op_ms``; this gives each
command's time on each tree side by side.

    python scripts/startup_probe.py src
    python scripts/startup_probe.py --runs 21 ../old/src src
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

IMPORT = ("import ntdice.cli",)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def cli_invocations(root, workdir):
    """The benchmark's ``cli`` invocations at seed 1, as (argv, exit code,
    stdout SHA-256), with their verify inputs written to ``workdir``.
    ``workloads.py`` imports ntdice, so ``root`` goes first on
    ``sys.path``; nothing is written beside it."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [root, str(PERFBENCH)]
    import workloads

    return workloads.prepare_cli(workloads.EXPECTED["cli"]["full"], 1, workdir)["invocations"]


def command_of(argv):
    if argv == IMPORT:
        return [sys.executable, "-c", IMPORT[0]]
    return [sys.executable, "-m", "ntdice", *argv]


def run(argv, expected, root):
    """Wall seconds of one fresh process, which must exit and print as expected."""
    env = {**os.environ, "PYTHONPATH": root}
    start = time.perf_counter()
    proc = subprocess.run(command_of(argv), capture_output=True, env=env, timeout=300)
    wall = time.perf_counter() - start
    if (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) != expected:
        sys.exit(
            f"{' '.join(argv)}: exit {proc.returncode} or stdout differs from the "
            f"benchmark's under {root}\n{proc.stderr.decode()}".rstrip()
        )
    return wall


def summary(seconds):
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return f"{median * 1e3:9.1f} {q1 * 1e3:9.1f} {q3 * 1e3:9.1f}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="+", help="one or two src directories")
    parser.add_argument("--runs", type=int, default=11, help="processes per command and root")
    args = parser.parse_args()
    if not 1 <= len(args.roots) <= 2:
        parser.error("give one or two src roots")
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    roots = [os.path.abspath(root) for root in args.roots]
    for root in roots:
        if not os.path.isfile(os.path.join(root, "ntdice", "__init__.py")):
            parser.error(f"{root} holds no ntdice package")

    with tempfile.TemporaryDirectory() as workdir:
        bare = (IMPORT, 0, hashlib.sha256(b"").hexdigest())
        plan = [bare, *cli_invocations(roots[0], workdir)]
        walls = {(argv, root): [] for argv, _, _ in plan for root in roots}
        for index in range(args.runs):
            order = roots if index % 2 == 0 else roots[::-1]
            for argv, code, digest in plan:
                for root in order:
                    walls[argv, root].append(run(argv, (code, digest), root))

    names = {root: f"root {i + 1}" for i, root in enumerate(roots)}
    for root in roots:
        print(f"{names[root]}: {root}")
    print(f"{args.runs} fresh processes per command and root; wall ms")
    print(f"{'command':<58} {'root':<7} {'median':>9} {'q1':>9} {'q3':>9}")
    for argv, _, _ in plan:
        label = " ".join(os.path.basename(part) for part in argv)
        for root in roots:
            print(f"{label[:58]:<58} {names[root]:<7} {summary(walls[argv, root])}")
    for root in roots:
        totals = map(sum, zip(*(walls[argv, root] for argv, _, _ in plan[1:])))
        print(f"{'all workload commands, per run':<58} {names[root]:<7} {summary(totals)}")


if __name__ == "__main__":
    main()
