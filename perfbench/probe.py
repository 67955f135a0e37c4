"""One fresh process doing the benchmark's set-up, for ``setup_s``.

Usage: python probe.py WORKLOAD SIZE SEED WORKDIR

Imports ``ntdice.cli`` (which loads every layer), builds the seeded inputs
of WORKLOAD and prints the seconds the import took. The parent times the
launch up to that line. ``src`` reaches ``sys.path`` through PYTHONPATH,
which ``run.py`` sets.
"""

import sys
import time


def main():
    workload, size, seed, workdir = sys.argv[1:]
    start = time.perf_counter()
    import ntdice.cli  # noqa: F401  (timed: the import is the point)

    import_s = time.perf_counter() - start
    import workloads

    prepare = workloads.WORKLOADS[workload][0]
    prepare(workloads.EXPECTED[workload][size], int(seed), workdir)
    print(import_s, flush=True)


if __name__ == "__main__":
    main()
