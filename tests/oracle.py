"""Brute-force reference implementations, independent of the package.

Everything here is deliberately naive: sympy's multiset permutations for
enumeration, double-loop pair counting, Fractions for probabilities. These
provide the second route for every dual-route check in the test suite and
must never import from ntdice.
"""

from fractions import Fraction
from functools import cache

from sympy.utilities.iterables import multiset_permutations

LETTERS = "abcdefgh"


def dice_from_word(word: str) -> dict[str, list[int]]:
    dice: dict[str, list[int]] = {}
    for pos, ch in enumerate(word, start=1):
        dice.setdefault(ch, []).append(pos)
    return dice


def beats(xs, ys) -> int:
    return sum(1 for u in xs for v in ys if u > v)


def prob(xs, ys) -> Fraction:
    return Fraction(beats(xs, ys), len(xs) * len(ys))


def cycle_probs(word: str, m: int) -> list[Fraction]:
    dice = dice_from_word(word)
    return [
        prob(dice[LETTERS[i]], dice[LETTERS[(i + 1) % m]]) for i in range(m)
    ]


def face_sums(word: str, m: int) -> list[int]:
    dice = dice_from_word(word)
    return [sum(dice[LETTERS[i]]) for i in range(m)]


def is_balanced(word: str, m: int) -> bool:
    probs = cycle_probs(word, m)
    return all(p == probs[0] for p in probs)


def is_nontransitive(word: str, m: int) -> bool:
    return all(p > Fraction(1, 2) for p in cycle_probs(word, m))


def is_bnt(word: str, m: int) -> bool:
    return is_balanced(word, m) and is_nontransitive(word, m)


def is_irreducible(word: str, m: int) -> bool:
    n = len(word) // m
    for j in range(1, n):
        cut = m * j
        prefix = word[:cut]
        if any(prefix.count(LETTERS[x]) != j for x in range(m)):
            continue
        if is_bnt(prefix, m) and is_bnt(word[cut:], m):
            return False
    return True


def all_words(n: int, m: int):
    """Every word with n of each of the first m letters, lexicographically."""
    for perm in multiset_permutations(sorted(LETTERS[:m] * n)):
        yield "".join(perm)


def census(n: int, m: int) -> dict[str, int]:
    total = balanced = nontransitive = bnt = irreducible = 0
    bnt_words = []
    for word in all_words(n, m):
        total += 1
        bal = is_balanced(word, m)
        nt = is_nontransitive(word, m)
        balanced += bal
        nontransitive += nt
        if bal and nt:
            bnt += 1
            bnt_words.append(word)
    irreducible = sum(1 for w in bnt_words if is_irreducible(w, m))
    return {
        "total_words": total,
        "balanced": balanced,
        "nontransitive": nontransitive,
        "balanced_nontransitive": bnt,
        "irreducible_bnt": irreducible,
    }


def full_digraph(word: str, m: int) -> frozenset[tuple[int, int]]:
    """Strict-majority edges over all ordered pairs; fair pairs give none."""
    dice = dice_from_word(word)
    n = len(word) // m
    edges = set()
    for i in range(m):
        for j in range(m):
            if i != j and 2 * beats(dice[LETTERS[i]], dice[LETTERS[j]]) > n * n:
                edges.add((i, j))
    return frozenset(edges)


@cache
def first_realizations(n: int, m: int) -> dict[frozenset[tuple[int, int]], str]:
    """The first word, in lexicographic order, of each ``full_digraph`` that
    some word with n of each of m letters has; one pass over the words.
    Cached: callers share the dict and change none of it."""
    first: dict[frozenset[tuple[int, int]], str] = {}
    for word in all_words(n, m):
        first.setdefault(full_digraph(word, m), word)
    return first


def classify(word: str, m: int) -> str:
    """Full-probability classification, mirroring the verify verdict names."""
    probs = cycle_probs(word, m)
    if any(p != probs[0] for p in probs):
        return "unbalanced"
    if probs[0] == Fraction(1, 2):
        return "balanced-fair"
    if probs[0] > Fraction(1, 2):
        return "balanced-nontransitive"
    return "balanced-reverse"
