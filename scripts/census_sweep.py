#!/usr/bin/env python3
"""Tabulate the word census for growing side counts.

Probes how common balanced, non-transitive, and irreducible sets are, and
whether irreducible sets keep existing as n grows. Every count, the
irreducible one included, comes from a DP that walks no words; its cost
grows with the number of DP states, about a second at n=8 for three dice.
The budget flag guards against accidental monster runs.
"""

import argparse
import time

from ntdice import enumerate_words, word_count


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-sides", type=int, default=5)
    parser.add_argument("--dice", type=int, default=3)
    parser.add_argument("--budget", type=int, default=10 ** 8)
    args = parser.parse_args()

    header = (
        f"{'n':>3} {'words':>12} {'balanced':>10} {'nontrans':>10} "
        f"{'bnt':>8} {'irreducible':>12} {'seconds':>8}"
    )
    print(header)
    print("-" * len(header))
    for n in range(1, args.max_sides + 1):
        if word_count(n, args.dice) > args.budget:
            print(f"{n:>3} skipped: {word_count(n, args.dice)} words over budget")
            continue
        start = time.perf_counter()
        census = enumerate_words(n, args.dice, budget=args.budget)
        elapsed = time.perf_counter() - start
        print(
            f"{n:>3} {census.total_words:>12} {census.balanced:>10} "
            f"{census.nontransitive:>10} {census.balanced_nontransitive:>8} "
            f"{census.irreducible_bnt:>12} {elapsed:>8.2f}"
        )


if __name__ == "__main__":
    main()
