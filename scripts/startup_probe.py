#!/usr/bin/env python3
"""Time each ntdice CLI command as a fresh process, for one or two trees.

Runs the command shapes of the benchmark's ``cli`` workload (verify on
three n=3000 JSON files and on a word, gen, fib, search and realize), plus
a bare ``import ntdice.cli``, each as a fresh ``python`` process with
``PYTHONPATH`` set to a given ``src`` root. With two roots, every command
runs once per root in turn, in alternating order, so that drift in machine
speed hits both alike. Every command must exit 0 or 1 and print the same
stdout for every root and run. Prints the median and quartiles of the wall
time per command and root, then of the per-run total over the workload's
commands (the bare import excluded).

    python scripts/startup_probe.py src
    python scripts/startup_probe.py --runs 21 ../old/src src
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

IMPORT = ("import ntdice.cli",)
FIXED = [
    ("verify", "acbbaccba"),
    ("gen", "--sides", "3000", "--dice", "3", "--format", "json"),
    ("gen", "--sides", "3000", "--dice", "4", "--format", "json"),
    ("fib", "--k", "21", "--balanced"),
    ("search", "--sides", "4", "--count"),
    ("search", "--sides", "3", "--list", "--irreducible-only"),
    ("realize", "--tournament", "1>2,2>3,3>1", "--sides", "5"),
    ("realize", "--tournament", "1>2,2>3,3>4,4>1,3>1,2>4", "--sides", "3"),
]


def command_of(shape):
    if shape == IMPORT:
        return [sys.executable, "-c", IMPORT[0]]
    return [sys.executable, "-m", "ntdice", *shape]


def run(shape, root):
    """Wall seconds of one fresh process, and its exit code and stdout."""
    env = {**os.environ, "PYTHONPATH": root}
    start = time.perf_counter()
    proc = subprocess.run(command_of(shape), capture_output=True, env=env, timeout=300)
    wall = time.perf_counter() - start
    if proc.returncode not in (0, 1):
        sys.exit(f"{' '.join(shape)} under {root}: exit {proc.returncode}\n{proc.stderr.decode()}")
    return wall, (proc.returncode, hashlib.sha256(proc.stdout).hexdigest())


def verify_inputs(root, workdir, sides):
    """The constructed 3- and 4-dice sets (as ``gen`` prints them) and a
    seeded random partition of 1..3n, written as dice documents."""
    paths = []
    for m in (3, 4):
        shape = ("gen", "--sides", str(sides), "--dice", str(m), "--format", "json")
        proc = subprocess.run(
            command_of(shape), capture_output=True, env={**os.environ, "PYTHONPATH": root},
            check=True, timeout=300,
        )
        paths.append(os.path.join(workdir, f"gen-{m}.json"))
        with open(paths[-1], "wb") as handle:
            handle.write(proc.stdout)
    labels = list(range(1, 3 * sides + 1))
    random.Random(1).shuffle(labels)
    doc = {
        "schema": "dice-set/1",
        "m": 3,
        "n": sides,
        "dice": {ch: labels[i * sides:(i + 1) * sides] for i, ch in enumerate("abc")},
    }
    paths.append(os.path.join(workdir, "random.json"))
    with open(paths[-1], "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return [("verify", path, "--format", "json") for path in paths]


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
        shapes = [IMPORT, *verify_inputs(roots[0], workdir, 3000), *FIXED]
        walls = {(shape, root): [] for shape in shapes for root in roots}
        totals = {root: [] for root in roots}
        outputs = {}
        for index in range(args.runs):
            order = roots if index % 2 == 0 else roots[::-1]
            for root in order:
                totals[root].append(0.0)
            for shape in shapes:
                for root in order:
                    wall, output = run(shape, root)
                    if outputs.setdefault(shape, output) != output:
                        sys.exit(f"{' '.join(shape)}: exit code or stdout differs under {root}")
                    walls[shape, root].append(wall)
                    if shape != IMPORT:
                        totals[root][-1] += wall

    names = {root: f"root {i + 1}" for i, root in enumerate(roots)}
    for root in roots:
        print(f"{names[root]}: {root}")
    print(f"{args.runs} fresh processes per command and root; wall ms")
    print(f"{'command':<58} {'root':<7} {'median':>9} {'q1':>9} {'q3':>9}")
    for shape in shapes:
        label = " ".join(os.path.basename(part) for part in shape)
        for root in roots:
            print(f"{label[:58]:<58} {names[root]:<7} {summary(walls[shape, root])}")
    for root in roots:
        print(f"{'all workload commands, per run':<58} {names[root]:<7} {summary(totals[root])}")


if __name__ == "__main__":
    main()
