"""Constructive procedures for balanced non-transitive dice.

Three building blocks cover every number of sides n >= 3: hard-coded
minimal examples for 3, 4 and 5 sides, word concatenation (which adds
sides while preserving balance and non-transitivity), and two Fibonacci
block constructions. A construction that would hand out more than
``MAX_LABELS`` labels is refused with ``TooManyLabels`` before anything is
built.
"""

from __future__ import annotations

from .core import (
    Classification,
    DiceSet,
    Word,
    _require_ints,
    dice_of_word,
    validate_dice,
    verify,
    word_of_dice,
)
from .errors import (
    AlphabetMismatch,
    ConstructionError,
    IndexTooSmall,
    NotOddIndex,
    SidesTooSmall,
    TooManyLabels,
    ValueOutOfRange,
)

# Most labels a construction builds: m·n for the for-all-n construction,
# 3·f(k) for the Fibonacci ones. gen --sides 1000000 and fib --k 32 fit.
MAX_LABELS = 10 ** 7

# Minimal balanced non-transitive sets, one per side count mod 3. Cycle odds:
# 5/9, 9/16, 13/25.
BASE_TRIPLES: dict[int, DiceSet] = {
    3: validate_dice([[9, 5, 1], [8, 4, 3], [7, 6, 2]]),
    4: validate_dice([[12, 10, 3, 1], [9, 8, 7, 2], [11, 6, 5, 4]]),
    5: validate_dice([[15, 11, 7, 4, 3], [14, 10, 9, 5, 2], [13, 12, 8, 6, 1]]),
}

# Four-dice counterparts. Balanced here means equal odds around the cycle
# a>b>c>d>a; the diagonal pairs are unconstrained (the 3-sided entry beats
# 5/9 around the cycle yet has face-sums 19, 20, 20, 19).
BASE_QUADS: dict[int, DiceSet] = {
    3: validate_dice([[12, 5, 2], [11, 8, 1], [10, 7, 3], [9, 6, 4]]),
    4: validate_dice([[16, 10, 7, 1], [15, 9, 6, 4], [14, 12, 5, 3], [13, 11, 8, 2]]),
    5: validate_dice(
        [
            [20, 13, 10, 6, 4],
            [19, 15, 9, 8, 3],
            [18, 16, 12, 5, 1],
            [17, 14, 11, 7, 2],
        ]
    ),
}


def base_example(n: int, m: int = 3) -> DiceSet:
    """The catalog entry with n sides and m dice (n in 3..5, m in {3, 4})."""
    _require_ints(ValueOutOfRange, n=n, m=m)
    catalog = {3: BASE_TRIPLES, 4: BASE_QUADS}.get(m)
    if catalog is None:
        raise ValueOutOfRange(f"no base catalog for {m} dice")
    if n not in catalog:
        raise ValueOutOfRange(f"no base example with {n} sides")
    return catalog[n]


def concat_words(first: Word, second: Word) -> Word:
    """Append one word to another over the same alphabet.

    Every letter of the second word outranks every label of the first, so
    each die's win count over its cycle successor becomes
    wins(first) + wins(second) + n_first * n_second, exactly. Balance and
    non-transitivity are therefore both preserved.
    """
    if first.m != second.m:
        raise AlphabetMismatch(
            f"alphabet sizes differ: {first.m} vs {second.m}"
        )
    return Word(first.letters + second.letters, first.m)


def concat_dice(first: DiceSet, second: DiceSet) -> DiceSet:
    """Concatenate two dice sets: shift the second's labels up and merge."""
    if first.m != second.m:
        raise AlphabetMismatch(f"dice counts differ: {first.m} vs {second.m}")
    return dice_of_word(concat_words(word_of_dice(first), word_of_dice(second)))


def _check_labels(n: int, m: int) -> None:
    """Refuse m dice of n sides with TooManyLabels when m·n passes MAX_LABELS."""
    _require_ints(ValueOutOfRange, n=n, m=m)
    if m * n > MAX_LABELS:
        raise TooManyLabels(
            f"n={n}, m={m} needs {m * n} labels, over the limit of {MAX_LABELS}"
        )


def construct_balanced_nontransitive(n: int, m: int = 3) -> DiceSet:
    """A balanced non-transitive set with n sides and m dice, for any n >= 3.

    Picks the base example matching n mod 3 and appends the 3-sided base
    (n - base) / 3 times, as one concatenation with that many copies of it
    in a row, so the cost stays linear in n.
    """
    _require_ints(ValueOutOfRange, n=n, m=m)
    if n < 3:
        raise SidesTooSmall(f"need at least 3 sides, got {n}")
    _check_labels(n, m)
    base_n = {0: 3, 1: 4, 2: 5}[n % 3]
    filler = word_of_dice(base_example(3, m)).letters
    padding = Word(filler * ((n - base_n) // 3), m)
    return dice_of_word(concat_words(word_of_dice(base_example(base_n, m)), padding))


def _fib_blocks(k: int) -> tuple[int, int, int]:
    """(f(k-2), f(k-1), f(k)) with f(1) = f(2) = 1, for k >= 2.

    Refuses with TooManyLabels as soon as 3·f(k) would pass MAX_LABELS, so
    a huge k costs a few dozen steps.
    """
    a, b, c = 0, 1, 1
    for _ in range(k - 2):
        a, b, c = b, c, b + c
        if 3 * c > MAX_LABELS:
            raise TooManyLabels(
                f"k={k} needs more labels than the limit of {MAX_LABELS}"
            )
    return a, b, c


def fibonacci_savage(k: int) -> DiceSet:
    """Non-transitive dice from consecutive descending Fibonacci blocks.

    Labels 3*f(k) down to 1 are dealt out in blocks of sizes
    f(k-2), f(k-1), f(k), f(k-1), f(k-2) to dice a, b, c, a, b. The result
    is non-transitive for every k >= 4 but never balanced. Each row comes
    out descending and the rows hold every label once, so they form a
    ``DiceSet`` as they stand, with no ``validate_dice`` pass.
    """
    _require_ints(ValueOutOfRange, k=k)
    if k < 4:
        raise IndexTooSmall(f"need k >= 4 so every block is nonempty, got {k}")
    f_k2, f_k1, f_k = _fib_blocks(k)
    owners = (0, 1, 2, 0, 1)
    rows: list[list[int]] = [[], [], []]
    label = 3 * f_k
    for size, owner in zip((f_k2, f_k1, f_k, f_k1, f_k2), owners):
        rows[owner] += range(label, label - size, -1)
        label -= size
    return DiceSet(tuple(map(tuple, rows)))


def fibonacci_boundary_swap(k: int) -> DiceSet:
    """The block-construction dice with the first block boundary pair swapped.

    Exchanges label 3*f(k) - f(k-2) + 1 (the smallest in die a's top block)
    with 3*f(k) - f(k-2) (the largest on die b). The swap only evens out the
    face-sums for odd k >= 5; k = 4 gives (13, 17, 15) and k = 8 gives
    (670, 674, 672). ``fibonacci_balanced`` applies the gate. Each label
    keeps its place in its die's descending order (a's next label lies in
    its lower block, b's top label stays its largest), so the rows still
    form a ``DiceSet`` as they stand.
    """
    base = fibonacci_savage(k)
    top_b = base.dice[1][0]
    rows = [list(row) for row in base.dice]
    rows[0][rows[0].index(top_b + 1)] = top_b
    rows[1][rows[1].index(top_b)] = top_b + 1
    return DiceSet(tuple(map(tuple, rows)))


def fibonacci_balanced(k: int) -> DiceSet:
    """Balanced non-transitive dice from the swapped Fibonacci construction.

    Only odd indices k >= 5 work. Oddness of the Fibonacci *value* is not
    the right condition: f(4) = 3 and f(8) = 21 are odd yet their swapped
    sets have unequal face-sums, while k = 9 succeeds with the even value
    f(9) = 34. Every output is re-verified before being returned.
    """
    _require_ints(ValueOutOfRange, k=k)
    if k < 5:
        raise IndexTooSmall(f"need k >= 5, got {k}")
    if k % 2 == 0:
        raise NotOddIndex(
            f"k must be odd: the boundary swap leaves unequal face-sums at "
            f"even indices (k=4 gives (13, 17, 15), k=8 gives (670, 674, 672) "
            f"even though f(4)=3 and f(8)=21 are odd Fibonacci values); got k={k}"
        )
    dice = fibonacci_boundary_swap(k)
    verdict = verify(dice)
    if verdict.classification is not Classification.BALANCED_NONTRANSITIVE:
        raise ConstructionError(
            f"boundary swap at k={k} verified as {verdict.classification.value}"
        )
    return dice
