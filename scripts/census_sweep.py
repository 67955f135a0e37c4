#!/usr/bin/env python3
"""Tabulate the word census for growing side counts, one table per dice count.

Probes how common balanced, non-transitive, and irreducible sets are, and
whether irreducible sets keep existing as n grows. Every count, the
irreducible one included, comes from a DP that walks no words; its cost
grows with the number of DP states (one per rotation orbit). The budget flag
guards against accidental monster runs: a size ``enumerate_words`` refuses
is reported as skipped, with its refusal.
"""

import argparse
import time

from ntdice import BudgetExceeded, enumerate_words


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-sides", type=int, default=5)
    parser.add_argument("--dice", type=int, nargs="+", default=[3])
    parser.add_argument("--budget", type=int, default=10 ** 8)
    args = parser.parse_args()

    header = (
        f"{'n':>3} {'words':>18} {'balanced':>12} {'nontrans':>13} "
        f"{'bnt':>11} {'irreducible':>12} {'seconds':>8}"
    )
    for index, m in enumerate(args.dice):
        if index:
            print()
        print(f"m = {m} dice")
        print(header)
        print("-" * len(header))
        for n in range(1, args.max_sides + 1):
            start = time.perf_counter()
            try:
                census = enumerate_words(n, m, budget=args.budget)
            except BudgetExceeded as exc:
                print(f"{n:>3} skipped: {exc}")
                continue
            elapsed = time.perf_counter() - start
            print(
                f"{n:>3} {census.total_words:>18} {census.balanced:>12} "
                f"{census.nontransitive:>13} {census.balanced_nontransitive:>11} "
                f"{census.irreducible_bnt:>12} {elapsed:>8.2f}"
            )

if __name__ == "__main__":
    main()
