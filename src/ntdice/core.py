"""Dice sets, their word encoding, and exact win-probability machinery.

A set of dice is ``m`` pairwise-disjoint ``n``-element label sets
partitioning ``{1, ..., m*n}``; each die rolls its labels uniformly and the
higher number wins. The word of a dice set lists, for each label ``1..m*n``
in increasing order, the letter of the die carrying that label, so relative
die strength is encoded purely by letter positions. Every probability here
is an exact pair of integers (wins out of ``n*n`` ordered rolls); floating
point never enters.

A finished word's cycle wins are counted in one place, ``_cycle_pass``: one
left-to-right sweep in which placing a letter of die x adds the letters of
die succ x placed so far to x's wins. ``cycle_beat_counts``,
``balance_summary`` and ``search.is_irreducible`` read its states; a single
pair is counted by bisect in ``beat_count``.

The value records here and in ``search`` are plain classes on ``_Record``,
not frozen data classes. Every CLI command is a fresh process that imports
the whole package, and its work is often a few milliseconds; data classes
would make each of those processes import the standard library's
``dataclasses`` and the ``inspect`` it loads, and build each class at
import time. ``test_cli_import_skips_dataclasses_inspect_and_typing``
checks that the CLI imports neither.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterator
from enum import Enum
from math import gcd

from .errors import (
    DuplicateLabel,
    FewerThanTwoDice,
    IndexOutOfRange,
    LabelOutOfRange,
    MalformedWord,
    PositionOutOfRange,
    SameDie,
    TooManyDice,
    ValueOutOfRange,
    WrongSideCount,
)

ALPHABET = "abcdefghijklmnopqrstuvwxyz"

# An integer as typed in a dice row, a tournament edge or a CLI option:
# ASCII digits with an optional sign. int() alone also takes underscores
# ('1_0') and non-ASCII digits ('١').
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _is_plain_int(value: object) -> bool:
    """True when ``value`` is an int and no subclass of it.

    The one test behind every integer a caller hands in: die labels, win
    counts, tournament vertices and their count, a JSON document's ``m``
    and ``n``, and the sizes n, m and k of a search or a construction
    (``_require_ints``). Every int subclass is refused, ``bool`` and
    ``IntEnum`` members alike: JSON and the text grammars never produce
    one, and a subclass may print as something other than its number.
    """
    return type(value) is int


def _require_ints(error: type[Exception], **values: object) -> None:
    """Raise ``error`` for the first of ``values`` that is not a plain int,
    as ``n=3.5 is not an integer``."""
    for name, value in values.items():
        if not _is_plain_int(value):
            raise error(f"{name}={value!r} is not an integer")


def integer(token: str) -> int:
    """The int an integer token spells: ASCII digits with an optional sign.

    Raises ``ValueError``, as ``int()`` does, for any other text and for
    more digits than ``int()`` reads (4,300 by default). The one reader of
    integers typed as text, with three doors: the CLI options (argparse's
    ``type=``, whose refusal names the reader, ``invalid integer value``),
    a dice row's labels (``cli._parse_rows``) and a tournament's vertices
    (``Tournament.from_text``).
    """
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"invalid integer: {token!r}")
    return int(token)


class _Record:
    """Base of the immutable value records, in place of frozen data classes.

    A subclass lists its fields as annotations, in order; a class-level
    value is that field's default, and every default follows every required
    field. The subclass gets an ``__init__`` with those parameters (which
    calls ``__post_init__`` when the class has one), value equality only
    with instances of the same class, a hash over the field values, and
    the data-class ``repr`` text. Setting or deleting an attribute raises
    ``AttributeError``. The fields live in the instance ``__dict__``, so
    ``copy`` and ``pickle`` work unchanged.
    """

    def __init_subclass__(cls) -> None:
        names = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = tuple(cls.__dict__[x] for x in names if x in cls.__dict__)
        for x in names[: len(names) - len(defaults)]:
            if x in cls.__dict__:
                raise TypeError(f"field {x!r} has a default but a later field has none")
        # Generated source, as data classes do: named parameters and one dict
        # store per field cost what a hand-written __init__ does, half of a
        # generic *args one, and the scan builds thousands of records.
        lines = [f"def __init__(self, {', '.join(names)}):", "    __d = self.__dict__"]
        lines += [f"    __d[{x!r}] = {x}" for x in names]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        namespace: dict = {}
        exec("\n".join(lines), namespace)
        init = namespace["__init__"]
        init.__defaults__ = defaults
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Word(_Record):
    """A sequence over the first ``m`` letters, each appearing ``n`` times.

    Direct construction is trusted; ``from_string`` validates.
    """

    letters: str
    m: int

    @property
    def n(self) -> int:
        return len(self.letters) // self.m

    @classmethod
    def from_string(cls, text: str, m: int | None = None) -> "Word":
        """Validate ``text`` as a word; infer the alphabet size when omitted."""
        if m is None:
            m = len(set(text))
            if m == 0:
                raise MalformedWord("cannot infer alphabet size from an empty word")
        _require_ints(MalformedWord, m=m)
        if m < 2 or m > len(ALPHABET):
            raise MalformedWord(f"alphabet size {m} outside 2..{len(ALPHABET)}")
        allowed = ALPHABET[:m]
        for pos, ch in enumerate(text, start=1):
            if ch not in allowed:
                raise MalformedWord(
                    f"letter {ch!r} at position {pos} not in alphabet {allowed!r}"
                )
        if len(text) % m != 0:
            raise MalformedWord(f"length {len(text)} is not a multiple of m={m}")
        n = len(text) // m
        for x, ch in enumerate(allowed):
            count = text.count(ch)
            if count != n:
                raise MalformedWord(
                    f"letter {ch!r} occurs {count} times, expected {n}"
                )
        return cls(text, m)

    @classmethod
    def empty(cls, m: int) -> "Word":
        """The length-zero word, the identity of concatenation."""
        return cls("", m)

    def __str__(self) -> str:
        return self.letters


class DiceSet(_Record):
    """``m`` disjoint ``n``-sets of labels partitioning ``{1..m*n}``.

    Labels within a die are stored strictly descending; dice are indexed
    0..m-1 and written as letters a, b, c, ... in messages and formats.
    Use ``validate_dice`` to build one from untrusted input.
    """

    dice: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.dice)

    @property
    def n(self) -> int:
        return len(self.dice[0])


class WinOdds(_Record):
    """Exact win count out of ``trials`` ordered rolls; never a float.

    Equality is cross-multiplicative (5/9 == 10/18) but the raw counts are
    kept unreduced so ``trials`` always remains n*n.
    """

    wins: int
    trials: int

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not _is_plain_int(value):
                raise ValueOutOfRange(f"{name} {value!r} is not an integer")
        if self.trials < 1:
            raise ValueOutOfRange(f"need at least 1 trial, got {self.trials}")
        if not 0 <= self.wins <= self.trials:
            raise ValueOutOfRange(f"wins {self.wins} outside 0..{self.trials}")

    @property
    def display(self) -> str:
        return f"{self.wins}/{self.trials}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WinOdds):
            return NotImplemented
        return self.wins * other.trials == other.wins * self.trials

    def __hash__(self) -> int:
        g = gcd(self.wins, self.trials) or 1
        return hash((self.wins // g, self.trials // g))

    def __str__(self) -> str:
        return self.display


class BalanceSummary(_Record):
    """Per-die prior-occurrence sums and face-sums of a word.

    For each die: ``qplus_sums`` totals prior letters of the die it beats
    around the cycle, ``qminus_sums`` prior letters of the die beating it,
    ``qsame_sums`` prior letters of the same die. ``qplus_sums`` is the
    cycle-win count of ``_cycle_pass``; the rest follow from it by identity.
    """

    m: int
    n: int
    qplus_sums: tuple[int, ...]
    qminus_sums: tuple[int, ...]
    qsame_sums: tuple[int, ...]
    face_sums: tuple[int, ...]


class Classification(Enum):
    BALANCED_NONTRANSITIVE = "balanced-nontransitive"
    BALANCED_FAIR = "balanced-fair"
    BALANCED_REVERSE = "balanced-reverse"
    UNBALANCED = "unbalanced"


class Verdict(_Record):
    """Outcome of ``verify``.

    ``suggested_relabeling`` is present exactly for BALANCED_REVERSE and
    gives the die order that turns the set balanced non-transitive.
    ``method`` records the route taken: "face-sum" for the three-dice
    screen, "cycle" for the general fallback.
    """

    classification: Classification
    witness_odds: WinOdds | None = None
    suggested_relabeling: tuple[int, ...] | None = None
    method: str = "face-sum"


def validate_dice(rows) -> DiceSet:
    """Normalize raw label rows into a DiceSet, checking every invariant."""
    dice = [tuple(row) for row in rows]
    m = len(dice)
    if m < 2:
        raise FewerThanTwoDice(f"need at least 2 dice, got {m}")
    if m > len(ALPHABET):
        raise TooManyDice(f"at most {len(ALPHABET)} dice, got {m}")
    n = len(dice[0])
    for i, row in enumerate(dice):
        if len(row) != len(dice[0]):
            raise WrongSideCount(
                f"die {ALPHABET[i]} has {len(row)} sides, expected {len(dice[0])}"
            )
    if n < 1:
        raise WrongSideCount("dice need at least one side")
    owner: dict[int, str] = {}
    top = m * n
    for i, row in enumerate(dice):
        letter = ALPHABET[i]
        for label in row:
            if not _is_plain_int(label):
                raise LabelOutOfRange(f"label {label!r} on die {letter} is not an integer")
            if label < 1 or label > top:
                raise LabelOutOfRange(f"label {label!r} on die {letter} outside 1..{top}")
            if label in owner:
                raise DuplicateLabel(
                    f"label {label} appears on die {owner[label]} and die {letter}"
                )
            owner[label] = letter
    return DiceSet(tuple(tuple(sorted(row, reverse=True)) for row in dice))


def word_of_dice(dice_set: DiceSet) -> Word:
    """Encode a dice set as its word: position i carries label i's die letter."""
    letters = [""] * (dice_set.m * dice_set.n)
    for i, row in enumerate(dice_set.dice):
        ch = ALPHABET[i]
        for label in row:
            letters[label - 1] = ch
    return Word("".join(letters), dice_set.m)


def dice_of_word(word: Word) -> DiceSet:
    """Decode a word back into the unique dice set it encodes."""
    rows: list[list[int]] = [[] for _ in range(word.m)]
    for pos, ch in enumerate(word.letters, start=1):
        rows[ord(ch) - 97].append(pos)
    return DiceSet(tuple(tuple(reversed(row)) for row in rows))


def _count_before(word: Word, position: int, offset: int) -> int:
    """Earlier occurrences of the letter ``offset`` steps round the die cycle
    from the one at ``position`` (1-based)."""
    letters = word.letters
    if not 1 <= position <= len(letters):
        raise PositionOutOfRange(f"position {position} outside 1..{len(letters)}")
    other = ALPHABET[(ord(letters[position - 1]) - 97 + offset) % word.m]
    return letters.count(other, 0, position - 1)


def q_plus(word: Word, position: int) -> int:
    """Earlier occurrences of the letter this position's die beats in cycle."""
    return _count_before(word, position, 1)


def q_minus(word: Word, position: int) -> int:
    """Earlier occurrences of the letter whose die beats this one in cycle."""
    return _count_before(word, position, -1)


def q_same(word: Word, position: int) -> int:
    """Earlier occurrences of this position's own letter."""
    return _count_before(word, position, 0)


def _cycle_pass(word: Word) -> Iterator[tuple[list[int], list[int]]]:
    """The one sweep that counts a word's cycle wins.

    Placing a letter of die x adds ``placed[succ x]`` to ``cyc[x]``: the new
    label beats every label of the next die placed so far. Yields the live
    ``(placed, cyc)`` lists before the first letter and after each block of
    m letters, so the last state holds the final cycle wins, even for the
    empty word. The search engines inline this step in their hot loops.
    """
    m = word.m
    succ = [(x + 1) % m for x in range(m)]
    placed = [0] * m
    cyc = [0] * m
    state = (placed, cyc)
    yield state
    letters = word.letters
    for start in range(0, len(letters), m):
        for ch in letters[start : start + m]:
            x = ord(ch) - 97
            cyc[x] += placed[succ[x]]
            placed[x] += 1
        yield state


def balance_summary(word: Word) -> BalanceSummary:
    """All per-die q-sums and face-sums of a word.

    ``qplus_sums`` is the final state of ``_cycle_pass``; the rest are
    identities. ``qminus[x]`` counts the rolls die x wins against pred x,
    and labels are distinct, so it is ``n² - qplus[pred x]``. A die's own
    letters see 0, 1, ..., n-1 earlier ones, so ``qsame = n(n-1)/2``.
    """
    m, n = word.m, word.n
    *_, (_, qplus) = _cycle_pass(word)
    return BalanceSummary(
        m=m,
        n=n,
        qplus_sums=tuple(qplus),
        qminus_sums=tuple(n * n - qplus[x - 1] for x in range(m)),
        qsame_sums=(n * (n - 1) // 2,) * m,
        face_sums=face_sums(dice_of_word(word)),
    )


def _check_pair(dice_set: DiceSet, x: int, y: int) -> None:
    for index in (x, y):
        if not 0 <= index < dice_set.m:
            raise IndexOutOfRange(f"die index {index} outside 0..{dice_set.m - 1}")
    if x == y:
        raise SameDie(f"die {ALPHABET[x]} cannot play itself")


def beat_count(dice_set: DiceSet, x: int, y: int) -> int:
    """Number of ordered rolls in which die x shows higher than die y.

    Labels are distinct so there are no ties and
    beat_count(x, y) + beat_count(y, x) == n*n.
    """
    _check_pair(dice_set, x, y)
    ascending = dice_set.dice[y][::-1]
    return sum(bisect_left(ascending, u) for u in dice_set.dice[x])


def win_probability(dice_set: DiceSet, x: int, y: int) -> WinOdds:
    """Exact probability that die x beats die y, as wins out of n*n."""
    return WinOdds(beat_count(dice_set, x, y), dice_set.n * dice_set.n)


def face_sums(dice_set: DiceSet) -> tuple[int, ...]:
    """Sum of each die's labels; the total is always m*n*(m*n+1)/2."""
    return tuple(sum(row) for row in dice_set.dice)


def cycle_beat_counts(dice_set: DiceSet) -> tuple[int, ...]:
    """Win counts around the die cycle a>b, b>c, ..., last>a."""
    *_, (_, cyc) = _cycle_pass(word_of_dice(dice_set))
    return tuple(cyc)


def cycle_odds(dice_set: DiceSet) -> tuple[WinOdds, ...]:
    """Exact odds around the die cycle."""
    n2 = dice_set.n * dice_set.n
    return tuple(WinOdds(w, n2) for w in cycle_beat_counts(dice_set))


def is_balanced(dice_set: DiceSet) -> bool:
    """True when every win probability around the cycle is the same."""
    wins = cycle_beat_counts(dice_set)
    return all(w == wins[0] for w in wins)


def is_nontransitive(dice_set: DiceSet) -> bool:
    """True when every die beats its cycle successor strictly more than half."""
    n2 = dice_set.n * dice_set.n
    return all(2 * w > n2 for w in cycle_beat_counts(dice_set))


def reorder_dice(dice_set: DiceSet, order: tuple[int, ...]) -> DiceSet:
    """Relabel dice: new die i is old die order[i]."""
    if sorted(order) != list(range(dice_set.m)):
        raise IndexOutOfRange(f"{order} is not a permutation of 0..{dice_set.m - 1}")
    return DiceSet(tuple(dice_set.dice[i] for i in order))


def verify(dice_set: DiceSet) -> Verdict:
    """Classify a dice set with at most one pairwise comparison for m=3.

    Three dice are balanced exactly when their face-sums agree, so the
    check is one O(n) sum pass followed by a single pair count; anything
    with a different die count falls back to computing the full cycle
    (``method`` records which route ran). A below-half result on a
    balanced set means the cycle runs backwards: reordering the dice as
    ``suggested_relabeling`` yields a balanced non-transitive set.
    """
    n2 = dice_set.n * dice_set.n
    if dice_set.m == 3:
        method = "face-sum"
        sums = face_sums(dice_set)
        if any(s != sums[0] for s in sums):
            return Verdict(Classification.UNBALANCED, method=method)
        wins = beat_count(dice_set, 0, 1)
    else:
        method = "cycle"
        cycle = cycle_beat_counts(dice_set)
        if any(w != cycle[0] for w in cycle):
            return Verdict(Classification.UNBALANCED, method=method)
        wins = cycle[0]
    odds = WinOdds(wins, n2)
    if 2 * wins == n2:
        return Verdict(Classification.BALANCED_FAIR, odds, method=method)
    if 2 * wins > n2:
        return Verdict(Classification.BALANCED_NONTRANSITIVE, odds, method=method)
    reversal = (0,) + tuple(range(dice_set.m - 1, 0, -1))
    return Verdict(Classification.BALANCED_REVERSE, odds, reversal, method)
