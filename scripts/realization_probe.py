#!/usr/bin/env python3
"""Probe which 4-vertex tournaments are realizable by small dice.

Every orientation of K3 is realizable for any n >= 3 (closed form). This
script scans all 64 orientations of K4 and reports the smallest side count
(up to --max-sides) at which each one is realized; with the default
--max-sides 3 it finds all 64 realizable with at most 3-sided dice.
"""

import argparse
import itertools
import time

from ntdice import Tournament, search_realization, word_of_dice

PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def spec_of(edges) -> str:
    return ",".join(f"{i + 1}>{j + 1}" for i, j in sorted(edges))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-sides", type=int, default=3)
    parser.add_argument("--budget", type=int, default=10 ** 8)
    args = parser.parse_args()

    unrealized = []
    start = time.perf_counter()
    for flips in itertools.product([False, True], repeat=len(PAIRS)):
        edges = frozenset(
            (j, i) if flip else (i, j) for (i, j), flip in zip(PAIRS, flips)
        )
        tournament = Tournament.from_edges(4, edges)
        witness = None
        found_n = None
        for n in range(1, args.max_sides + 1):
            witness = search_realization(tournament, n, budget=args.budget)
            if witness is not None:
                found_n = n
                break
        if witness is None:
            unrealized.append(edges)
            print(f"{spec_of(edges):<30} none up to n={args.max_sides}")
        else:
            print(
                f"{spec_of(edges):<30} n={found_n}  "
                f"word={word_of_dice(witness).letters}"
            )
    elapsed = time.perf_counter() - start
    print()
    print(
        f"{64 - len(unrealized)}/64 orientations realized with at most "
        f"{args.max_sides}-sided dice ({elapsed:.1f}s)"
    )
    if unrealized:
        print("unrealized:")
        for edges in unrealized:
            print(f"  {spec_of(edges)}")


if __name__ == "__main__":
    main()
