"""Enumeration, census, irreducibility, and tournament realization."""

import collections
import functools
import gc
import hashlib
import itertools
import math
import random
import re
import sys
import time
import tracemalloc
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import records
from ntdice import (
    ALPHABET,
    BASE_QUADS,
    BudgetExceeded,
    Census,
    DiceError,
    NotBalancedNontransitive,
    SearchSizeError,
    SidesTooSmall,
    TooManyLabels,
    Tournament,
    TournamentSpecError,
    Word,
    balanced_nontransitive_words,
    cycle_beat_counts,
    dice_of_word,
    enumerate_words,
    is_irreducible,
    iter_words,
    majority_digraph,
    realize_k3,
    search_realization,
    validate_dice,
    verify,
    word_count,
    word_of_dice,
)
from ntdice import construct, search
from ntdice.search import (
    _TAIL_WORDS,
    _backtrack,
    _bnt_rule,
    _census_layers,
    _edge_rule,
    _tail_length,
)

# An int subclass other than bool.
V = IntEnum("V", "A B C", start=0)

# Frozen from the brute-force oracle (sympy enumeration + Fraction odds).
ORACLE_CENSUS = {
    (1, 3): (6, 0, 0, 0, 0),
    (2, 3): (90, 6, 0, 0, 0),
    (3, 3): (1680, 12, 15, 6, 6),
    (4, 3): (34650, 192, 39, 18, 18),
    (5, 3): (756756, 1830, 5196, 915, 915),
    (2, 4): (2520, 72, 0, 0, 0),
    (3, 4): (369600, 296, 680, 148, 148),
}

BNT3 = [
    "acbbaccba",
    "acbcbabac",
    "bacacbcba",
    "baccbaacb",
    "cbaacbbac",
    "cbabacacb",
]

# Lex-first witness for each of the 8 orientations of K3 at n=3, frozen from
# the oracle scan. Edges (i, j) mean vertex i beats vertex j.
FIRST_REALIZATIONS = {
    frozenset({(0, 1), (0, 2), (1, 2)}): "abccbacba",
    frozenset({(0, 1), (0, 2), (2, 1)}): "abbbccaca",
    frozenset({(0, 1), (1, 2), (2, 0)}): "acbbaccba",
    frozenset({(0, 1), (2, 0), (2, 1)}): "abbabaccc",
    frozenset({(0, 2), (1, 0), (1, 2)}): "abccabcab",
    frozenset({(0, 2), (1, 0), (2, 1)}): "abbccacab",
    frozenset({(1, 0), (1, 2), (2, 0)}): "aaabccbcb",
    frozenset({(1, 0), (2, 0), (2, 1)}): "aaabbbccc",
}

ALL_K3 = sorted(FIRST_REALIZATIONS, key=sorted)


def census_tuple(c: Census) -> tuple[int, int, int, int, int]:
    return (
        c.total_words,
        c.balanced,
        c.nontransitive,
        c.balanced_nontransitive,
        c.irreducible_bnt,
    )


def stream_digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def count_pushes(monkeypatch, name):
    """Wrap the walk rule ``search.<name>`` so that every walk built from it
    counts its ``push`` calls, the prefixes it tests, in the returned list's
    one entry."""
    calls = [0]
    rule = getattr(search, name)

    def counted_rule(*args):
        push, *rest = rule(*args)

        def counted_push(x):
            calls[0] += 1
            return push(x)

        return (counted_push, *rest)

    monkeypatch.setattr(search, name, counted_rule)
    return calls


# -- enumeration -------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,m,total",
    [(1, 3, 6), (2, 3, 90), (3, 3, 1680), (4, 3, 34650), (2, 4, 2520), (3, 4, 369600)],
)
def test_word_count_formula(n, m, total):
    assert word_count(n, m) == total


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (2, 4)])
def test_iter_words_matches_oracle_order(n, m):
    assert list(iter_words(n, m)) == list(oracle.all_words(n, m))


def test_iter_words_is_lexicographic():
    stream = list(iter_words(2, 3))
    assert stream == sorted(stream)
    assert stream[0] == "aabbcc"
    assert stream[-1] == "ccbbaa"


def test_iter_words_budget_is_eager():
    with pytest.raises(BudgetExceeded) as exc:
        iter_words(8, 3, budget=1000)
    assert exc.value.total_words == word_count(8, 3)


# SHA-256 of each full word stream, lines joined by "\n", frozen from the
# walk before it memoized its tail.
WORD_STREAMS = {
    (5, 3): "8ac74e6ca6223861d4ff24b95f20061c28865090b782e1615ed476a350b9c460",
    (3, 4): "d3675cb7c28395e8e426a6443904fa777278b31572aa7323f4527f44d9307322",
    (2, 5): "0808ebbc2f5bf20d4f4a9348ba02a537294ef1fbbd6fc092b405fa4c31e7650f",
}


@pytest.mark.parametrize("n,m", sorted(WORD_STREAMS))
def test_iter_word_stream_is_pinned(n, m):
    words = list(iter_words(n, m, budget=word_count(n, m)))
    assert (len(words), stream_digest(words)) == (word_count(n, m), WORD_STREAMS[(n, m)])


def test_iter_words_streams_in_bounded_memory():
    # Eleven one-sided dice: a tail of t letters would hold t! suffixes, so
    # the tail must shrink as the alphabet grows.
    tracemalloc.start()
    try:
        for _ in itertools.islice(iter_words(1, 11), 200_000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_tail_lists_have_a_fixed_bound():
    # A tail of t letters has at most m^t completions.
    for m in range(2, len(ALPHABET) + 1):
        t = _tail_length(10 ** 6, m)
        assert m ** t <= _TAIL_WORDS < m ** (t + 1)
        for n in (1, 2):
            assert _tail_length(n, m) == min(t, m * n - 1)


def record_tail_lengths(monkeypatch):
    """Wrap ``search._tail`` so that every call, the walk's and its own,
    appends the ``left`` it is asked for to the returned list."""
    lefts = []
    tail = search._tail

    def recorded(*args):
        lefts.append(args[-1])
        return tail(*args)

    monkeypatch.setattr(search, "_tail", recorded)
    return lefts


@pytest.mark.parametrize(
    "walk,n,m",
    [(iter_words, 5, 3), (iter_words, 1, 11), (balanced_nontransitive_words, 6, 3)],
    ids=["words-5-3", "words-1-11", "bnt-6-3"],
)
def test_memoized_walks_start_their_tail_at_its_length(monkeypatch, walk, n, m):
    # The digests cannot see where the tail starts; the deepest tail is it.
    lefts = record_tail_lengths(monkeypatch)
    assert sum(1 for _ in itertools.islice(walk(n, m), 10_000)) > 0
    assert max(lefts) == _tail_length(n, m)


def test_realization_walks_every_letter(monkeypatch):
    lefts = record_tail_lengths(monkeypatch)
    t = Tournament.from_edges(4, majority_digraph(BASE_QUADS[3]))
    assert search_realization(t, 3) is not None
    assert lefts and max(lefts) == 0


@pytest.mark.parametrize(
    "n,m", [(3000, 3), (10 ** 9, 3), (10 ** 400, 2)], ids=["n3000", "n1e9", "n1e400"]
)
def test_budget_refuses_huge_spaces_from_an_estimate(n, m):
    with pytest.raises(BudgetExceeded) as exc:
        iter_words(n, m)
    assert exc.value.total_words is None
    size = str(exc.value).split(" words at ")[0]
    if n == 3000:  # small enough to check the estimate against the exact count
        assert size == f"about 10^{round(math.log10(word_count(n, m)))}"
    else:
        assert size.startswith(("about 10^", "over 10^"))


@pytest.mark.parametrize("n,m", [(8, 3), (16, 3), (30, 3), (9, 6)])
def test_budget_is_decided_by_the_exact_count_near_it(n, m):
    total = word_count(n, m)
    assert list(itertools.islice(iter_words(n, m, budget=total), 1)) != []
    for budget in (total - 1, total // 2, 0):
        with pytest.raises(BudgetExceeded) as exc:
            iter_words(n, m, budget=budget)
        # Zero is more than ten times below a space past 10^30: estimated.
        exact = total < 10 ** 30 or budget > 0
        assert exc.value.total_words == (total if exact else None)
        if total < 10 ** 30:
            assert str(exc.value).startswith(f"{total} words at n={n}, m={m} ")


# -- census -------------------------------------------------------------------------

@pytest.mark.parametrize("n,m", [(1, 3), (2, 3), (3, 3), (2, 4)])
def test_census_matches_live_oracle(n, m):
    got = enumerate_words(n, m)
    expected = oracle.census(n, m)
    assert census_tuple(got) == (
        expected["total_words"],
        expected["balanced"],
        expected["nontransitive"],
        expected["balanced_nontransitive"],
        expected["irreducible_bnt"],
    )


@pytest.mark.parametrize("n,m", sorted(ORACLE_CENSUS))
def test_census_matches_frozen_oracle(n, m):
    assert census_tuple(enumerate_words(n, m)) == ORACLE_CENSUS[(n, m)]


@pytest.mark.parametrize("n,m", sorted(ORACLE_CENSUS))
def test_census_count_ordering_invariant(n, m):
    c = enumerate_words(n, m)
    assert (
        c.irreducible_bnt
        <= c.balanced_nontransitive
        <= min(c.balanced, c.nontransitive)
        <= c.total_words
        == word_count(n, m)
    )


@pytest.mark.parametrize("jobs", [2, 3])
def test_census_is_deterministic_across_jobs(jobs):
    assert enumerate_words(4, 3, jobs=jobs) == enumerate_words(4, 3, jobs=1)


def test_census_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        enumerate_words(8, 3, budget=10 ** 6)


def test_census_rotation_divisibility():
    c3 = enumerate_words(3, 3)
    for count in (c3.balanced, c3.nontransitive, c3.balanced_nontransitive):
        assert count % 3 == 0
    c4 = enumerate_words(3, 4)
    for count in (c4.balanced, c4.nontransitive, c4.balanced_nontransitive):
        assert count % 4 == 0


@pytest.mark.parametrize("n,m", [(3, 3), (6, 3), (3, 4), (4, 4), (3, 5)])
def test_census_irreducible_rotation_divisibility(n, m):
    # Rotating the letters maps irreducible words onto irreducible words.
    assert enumerate_words(n, m, budget=word_count(n, m)).irreducible_bnt % m == 0


def _rotate(letters: str, m: int) -> str:
    return "".join("abcd"[(ord(ch) - 97 + 1) % m] for ch in letters)


@pytest.mark.parametrize("n", [3, 4])
def test_bnt_set_closed_under_letter_rotation(n):
    bnt = set(balanced_nontransitive_words(n, 3))
    assert {_rotate(w, 3) for w in bnt} == bnt


# -- DP census vs independent routes -------------------------------------------------

def cycle_wins_by_hand(letters: str, m: int) -> list[int]:
    """Each die's wins over its cycle successor, counted here."""
    seen = [0] * m
    wins = [0] * m
    for ch in letters:
        x = ord(ch) - 97
        wins[x] += seen[(x + 1) % m]
        seen[x] += 1
    return wins


def brute_census(n: int, m: int) -> tuple[int, int, int, int]:
    """(total, balanced, non-transitive, BNT) from every word of iter_words,
    with cycle wins counted per word here rather than by the package.

    The counts alone cannot tell a die's wins over its successor from its
    wins over its predecessor, since the letter reflection makes as many
    words unbalanced one way as the other, so a few words spread over the
    word order have their win vector checked against ``oracle.beats``."""
    nsq = n * n
    counts = [0, 0, 0, 0]
    total = word_count(n, m)
    step = max(1, total // 5)
    for index, letters in enumerate(iter_words(n, m, budget=total)):
        wins = cycle_wins_by_hand(letters, m)
        if index % step == 0:
            dice = oracle.dice_from_word(letters)
            assert wins == [
                oracle.beats(dice[ALPHABET[x]], dice[ALPHABET[(x + 1) % m]])
                for x in range(m)
            ], letters
        low, high = min(wins), max(wins)
        counts[0] += 1
        counts[1] += low == high
        counts[2] += 2 * low > nsq
        counts[3] += low == high and 2 * low > nsq
    return tuple(counts)


# Every size with at most 4×10⁵ words: m >= 10, or n > 10 at m = 2, exceeds it.
BRUTE_SIZES = [
    pytest.param(n, m, marks=[pytest.mark.slow] if word_count(n, m) > 10 ** 5 else [])
    for m in range(2, 10)
    for n in range(1, 11)
    if word_count(n, m) <= 4 * 10 ** 5
]


@pytest.mark.parametrize("n,m", BRUTE_SIZES)
def test_census_matches_brute_force(n, m):
    c = enumerate_words(n, m)
    got = (c.total_words, c.balanced, c.nontransitive, c.balanced_nontransitive)
    assert got == brute_census(n, m)


@functools.cache
def final_cycle_wins(n: int, m: int, prune: bool = False) -> dict[tuple[int, ...], int]:
    """Words by their cycle wins per die, from a layered DP over every state
    (letters placed per die, cycle wins per die), written here: it keeps
    each rotation of a state apart, and returns the last layer as {cycle
    wins: word count}. Cached, so callers share the dict and must not
    change it.

    With ``prune`` it drops a state once the die just placed cannot reach
    n²//2 + 1 cycle wins even if each of its letters still to come beats
    all n letters of the next die. Such a state cannot end non-transitive,
    and in a full word the bound is the die's final count, so the words
    kept are exactly the non-transitive ones. Without it nothing is pruned.
    """
    need = n * n // 2 + 1
    layer = {(0,) * (2 * m): 1}
    for _ in range(m * n):
        following: dict[tuple[int, ...], int] = {}
        for state, ways in layer.items():
            for x in range(m):
                if state[x] == n:
                    continue
                nxt = list(state)
                nxt[m + x] += state[(x + 1) % m]
                nxt[x] += 1
                if prune and nxt[m + x] + (n - nxt[x]) * n < need:
                    continue
                key = tuple(nxt)
                following[key] = following.get(key, 0) + ways
        layer = following
    return {state[m:]: ways for state, ways in layer.items()}


def plain_dp_census(n: int, m: int) -> tuple[int, int, int]:
    """(balanced, non-transitive, BNT) from the unpruned reference DP."""
    nsq = n * n
    balanced = nontransitive = bnt = 0
    for wins, ways in final_cycle_wins(n, m).items():
        low, high = min(wins), max(wins)
        balanced += ways * (low == high)
        nontransitive += ways * (2 * low > nsq)
        bnt += ways * (low == high and 2 * low > nsq)
    return balanced, nontransitive, bnt


def plain_dp_balanced_spectrum(n: int, m: int) -> dict[int, int]:
    """Balanced words by their common cycle win count W, from the unpruned
    reference DP: the whole spectrum, W < n²/2 included."""
    spectrum: dict[int, int] = {}
    for wins, ways in final_cycle_wins(n, m).items():
        if min(wins) == max(wins):
            spectrum[wins[0]] = spectrum.get(wins[0], 0) + ways
    return spectrum


@pytest.mark.parametrize(
    "n,m", [(4, 3), (6, 3), (2, 6), pytest.param(4, 4, marks=pytest.mark.slow)]
)
def test_census_balanced_is_twice_bnt_plus_fair(n, m):
    # The census DP counts only W >= n²/2 and doubles the part above it; a
    # DP over the whole spectrum shows it mirrored about n²/2.
    nsq = n * n
    spectrum = plain_dp_balanced_spectrum(n, m)
    assert all(spectrum.get(nsq - w) == ways for w, ways in spectrum.items())
    bnt = sum(ways for w, ways in spectrum.items() if 2 * w > nsq)
    fair = sum(ways for w, ways in spectrum.items() if 2 * w == nsq)
    c = enumerate_words(n, m, budget=word_count(n, m))
    assert (c.balanced, c.balanced_nontransitive) == (sum(spectrum.values()), bnt)
    assert c.balanced == 2 * bnt + fair


# Past the brute-force limit; at m = 4 and 6 some states repeat under a
# shorter rotation than m, so their orbits have fewer than m members.
@pytest.mark.parametrize(
    "n,m",
    [(6, 3), (2, 6), pytest.param(4, 4, marks=pytest.mark.slow), pytest.param(3, 5, marks=pytest.mark.slow)],
)
def test_census_matches_plain_dp(n, m):
    c = enumerate_words(n, m, budget=word_count(n, m))
    got = (c.balanced, c.nontransitive, c.balanced_nontransitive)
    assert got == plain_dp_census(n, m)


def pruned_dp_nontransitive(n: int, m: int) -> int:
    """Non-transitive words from the reference DP with its prune."""
    return sum(final_cycle_wins(n, m, prune=True).values())


# Sizes past the plain DP's reach, where only the census DP and this route
# count non-transitive words.
@pytest.mark.parametrize(
    "n,m,count",
    [
        (7, 3, 2093199),
        (8, 3, 19618353),
        (5, 4, 13969444),
        (4, 5, 4203700),
        (3, 6, 9751680),
        pytest.param(9, 3, 960165789, marks=pytest.mark.slow),
        pytest.param(3, 7, 2644957462, marks=pytest.mark.slow),
    ],
)
def test_census_nontransitive_matches_pruned_dp(n, m, count):
    census = enumerate_words(n, m, budget=word_count(n, m))
    assert census.nontransitive == pruned_dp_nontransitive(n, m) == count


def equal_face_sum_partitions(n: int) -> int:
    """Ordered splits of 1..3n into three n-label dice with equal face-sums,
    counted by a DP over labels that never looks at a word."""
    target = n * (3 * n + 1) // 2
    # (labels on a, sum of a, labels on b, sum of b) -> ways; c takes the rest
    states = {(0, 0, 0, 0): 1}
    for label in range(1, 3 * n + 1):
        following: dict[tuple[int, int, int, int], int] = {}
        for (ka, sa, kb, sb), ways in states.items():
            for key in (
                (ka + 1, sa + label, kb, sb),
                (ka, sa, kb + 1, sb + label),
                (ka, sa, kb, sb),
            ):
                if key[0] > n or key[1] > target or key[2] > n or key[3] > target:
                    continue
                if label - key[0] - key[2] > n:
                    continue
                following[key] = following.get(key, 0) + ways
        states = following
    return states.get((n, target, n, target), 0)


@pytest.mark.parametrize(
    "n,balanced",
    [
        (1, 0),
        (2, 6),
        (3, 12),
        (4, 192),
        (5, 1830),
        (6, 25986),
        (7, 379566),
        pytest.param(8, 6150678, marks=pytest.mark.slow),
        pytest.param(9, 104972070, marks=pytest.mark.slow),
    ],
    ids=["1", "2", "3", "4", "5", "6", "7", "8", "9"],
)
def test_census_balanced_matches_face_sum_partitions(n, balanced):
    census = enumerate_words(n, 3, budget=word_count(n, 3))
    assert census.balanced == equal_face_sum_partitions(n) == balanced
    if n % 2:
        # No word is fair at odd n, so the face-sum route checks BNT too.
        assert census.balanced == 2 * census.balanced_nontransitive


@pytest.mark.parametrize(
    "n,m,states", [(8, 3, 28488), (5, 4, 7223), (4, 5, 9756), (5, 3, 591), (3, 4, 89)]
)
def test_census_dp_states_are_pinned(n, m, states):
    # Every layer's states, start layer excluded. Fewer merges keep every
    # count and show only here; a change that merges more or fewer states
    # updates the pin on purpose. (5, 3) and (3, 4) are the benchmark's
    # census sizes, so their work is a count that no machine changes.
    assert sum(len(layer) for layer in _census_layers(n, m)) == states


@pytest.mark.parametrize("n,m", [(4, 2), (5, 3), (3, 4), (4, 4), (3, 5)])
def test_census_dp_carries_each_states_extremes(n, m):
    # An unmarked state carries its least upper end and its greatest lower
    # end, floored at half, exactly. A marked one keeps every end within its
    # cap, and its carried upper end answers the one question it is asked,
    # whether some end has fallen below need. Every key holds its 2m pair
    # entries and the mark, and its pairs are the least of their m rotations.
    need, half = n * n // 2 + 1, (n * n + 1) // 2
    marked = 0
    for layer in _census_layers(n, m):
        for state, (mass, high, low) in layer.items():
            placed, ends = state[0:2 * m:2], state[1:2 * m:2]
            succ = placed[1:] + placed[:1]
            lows = [e - (n - a) * (n - b) for e, a, b in zip(ends, placed, succ)]
            assert mass > 0
            pairs = state[:2 * m]
            assert len(state) == 2 * m + 1 and pairs == min(
                pairs[k:] + pairs[:k] for k in range(0, 2 * m, 2)
            )
            if state[-1]:
                assert (high, low) == (min(ends), max(half, *lows))
            else:
                marked += 1
                caps = [need + (n - a) * (n - b) for a, b in zip(placed, succ)]
                assert all(e <= cap for e, cap in zip(ends, caps))
                assert min(ends) >= need and high >= need
    # At m = 2 each die's upper end is n² less the other's lower end, so no
    # state is both marked and kept; every other size here keeps some.
    assert bool(marked) == (m > 2)


def test_bnt_walk_pushes_are_pinned(monkeypatch):
    pushes = count_pushes(monkeypatch, "_bnt_rule")
    assert sum(1 for _ in balanced_nontransitive_words(6, 3)) == 5730
    assert pushes == [25968]


@pytest.mark.parametrize("n,m,count", [(6, 3, 5730), (4, 4, 1976)])
def test_bnt_walk_matches_census_dp(n, m, count):
    words = list(balanced_nontransitive_words(n, m))
    assert len(words) == enumerate_words(n, m).balanced_nontransitive == count
    assert words == sorted(words)


def is_bnt_by_hand(letters: str, m: int) -> bool:
    """Balanced non-transitive test with cycle wins counted here; a cut's
    halves must also hold n letters of every die."""
    n = len(letters) // m
    wins = cycle_wins_by_hand(letters, m)
    return (
        min(wins) == max(wins)
        and 2 * wins[0] > n * n
        and all(letters.count(ALPHABET[x]) == n for x in range(m))
    )


def irreducible_by_hand(letters: str, m: int) -> bool:
    """No cut after j letters of every die leaves two BNT halves."""
    n = len(letters) // m
    return not any(
        is_bnt_by_hand(letters[: m * j], m) and is_bnt_by_hand(letters[m * j :], m)
        for j in range(1, n)
    )


@pytest.mark.parametrize(
    "n,m,count",
    [(3, 3, 6), (4, 3, 18), (5, 3, 915), (6, 3, 5694), (3, 4, 148), (4, 4, 1976), (3, 5, 8680)],
)
def test_census_irreducible_matches_cut_check(n, m, count):
    budget = word_count(n, m)
    walked = sum(
        irreducible_by_hand(letters, m)
        for letters in balanced_nontransitive_words(n, m, budget)
    )
    assert enumerate_words(n, m, budget=budget).irreducible_bnt == walked == count


@pytest.mark.parametrize("n,m", [(6, 3), (4, 4)])
def test_is_irreducible_matches_cut_check(n, m):
    for letters in balanced_nontransitive_words(n, m):
        assert is_irreducible(Word(letters, m)) == irreducible_by_hand(letters, m), letters


def test_census_n7_pinned():
    # Second routes: the closed form for the total, the face-sum partition
    # count for balanced, the slow BNT walk below for BNT and irreducible;
    # non-transitive is pinned against the pruned DP above.
    c = enumerate_words(7, 3, budget=10 ** 9)
    assert (c.total_words, c.balanced, c.balanced_nontransitive, c.irreducible_bnt) == (
        399072960,
        379566,
        189783,
        189567,
    )


@pytest.mark.slow
def test_bnt_walk_n7_pinned():
    words = irreducible = 0
    for letters in balanced_nontransitive_words(7, 3, budget=word_count(7, 3)):
        words += 1
        irreducible += irreducible_by_hand(letters, 3)
    assert (words, irreducible) == (189783, 189567)


@pytest.mark.slow
def test_bnt_walk_n8_matches_census_dp():
    budget = word_count(8, 3)
    words = sum(1 for _ in balanced_nontransitive_words(8, 3, budget=budget))
    assert words == enumerate_words(8, 3, budget=budget).balanced_nontransitive == 1813326


# -- balanced-only scan ----------------------------------------------------------------

def test_bnt_words_n3_pinned():
    assert list(balanced_nontransitive_words(3, 3)) == BNT3


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bnt_scan_agrees_with_census(n):
    words = list(balanced_nontransitive_words(n, 3))
    assert len(words) == ORACLE_CENSUS[(n, 3)][3]
    assert words == sorted(words)


def test_bnt_scan_agrees_with_full_filter():
    expected = [w for w in oracle.all_words(4, 3) if oracle.is_bnt(w, 3)]
    assert list(balanced_nontransitive_words(4, 3)) == expected


@pytest.mark.parametrize("n,m,count", [(2, 4, 0), (3, 4, 148)])
def test_bnt_scan_four_dice(n, m, count):
    assert len(list(balanced_nontransitive_words(n, m))) == count


def scratch_intervals(placed, cyc, n):
    """Each die's final cycle-win interval, from scratch: die x still places
    n - placed[x] letters, each winning at least placed[succ x] and at most
    n of its rolls against succ x."""
    m = len(placed)
    lo = [cyc[x] + (n - placed[x]) * placed[(x + 1) % m] for x in range(m)]
    hi = [cyc[x] + (n - placed[x]) * n for x in range(m)]
    return lo, hi


@st.composite
def words_of_any_size(draw):
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, 5))
    letters = draw(st.permutations([x for x in range(m) for _ in range(n)]))
    return n, m, letters


@given(words_of_any_size())
@settings(max_examples=200)
def test_bnt_rule_steps_the_from_scratch_intervals(case):
    # m = 2 is drawn too: there pred x = succ x, and both moved ends belong
    # to that one other die.
    n, m, letters = case
    need = n * n // 2 + 1
    placed = [0] * m
    push, pop, hi, lo = _bnt_rule(n, m, placed)
    cyc = [0] * m
    seen = []
    for x in letters:
        cyc[x] += placed[(x + 1) % m]
        placed[x] += 1
        dead = push(x)
        expected = scratch_intervals(placed, cyc, n)
        assert (lo, hi) == expected
        assert [hi[z] - (n - placed[z]) * n for z in range(m)] == cyc
        assert dead == (max(max(expected[0]), need) > min(expected[1]))
        seen.append(expected)
    for x in reversed(letters):
        assert (lo, hi) == seen.pop()
        placed[x] -= 1
        pop(x)
    assert (lo, hi) == scratch_intervals(placed, [0] * m, n)


@st.composite
def tournaments_and_words(draw):
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, 4))
    edges = [
        (x, y) if draw(st.booleans()) else (y, x)
        for x in range(m)
        for y in range(x + 1, m)
    ]
    letters = draw(st.permutations([x for x in range(m) for _ in range(n)]))
    return n, Tournament.from_edges(m, edges), letters


@given(tournaments_and_words())
@settings(max_examples=200)
def test_edge_rule_steps_each_required_end(case):
    # Each required edge x -> y keeps the upper end of x's final wins over
    # y: its wins so far, counted here, plus n for each letter x still places.
    n, tournament, letters = case
    m = tournament.m
    need = n * n // 2 + 1
    placed = [0] * m
    push, pop, ends, hi = _edge_rule(tournament, n, placed)
    assert ends is None
    wins = [[0] * m for _ in range(m)]

    def expected_ends():
        return {(x, y): wins[x][y] + (n - placed[x]) * n for x, y in tournament.edges}

    def rule_ends():
        return {(x, y): hi[x][y] for x, y in tournament.edges}

    seen = []
    alive = True
    for x in letters:
        for y in range(m):
            wins[x][y] += placed[y]
        placed[x] += 1
        dead = push(x)
        expected = expected_ends()
        assert rule_ends() == expected
        # Only the placed die's ends moved, so the answer reads those; the
        # walker pushes only onto live prefixes, where that is every end.
        assert dead == any(end < need for (z, _), end in expected.items() if z == x)
        if alive:
            assert dead == any(end < need for end in expected.values())
        alive = alive and not dead
        seen.append(expected)
    for x in reversed(letters):
        assert rule_ends() == seen.pop()
        placed[x] -= 1
        for y in range(m):
            wins[x][y] -= placed[y]
        pop(x)
    assert rule_ends() == expected_ends() == dict.fromkeys(tournament.edges, n * n)


def test_bnt_scan_budget_is_eager():
    with pytest.raises(BudgetExceeded):
        balanced_nontransitive_words(8, 3, budget=1000)


def test_bnt_scan_streams_its_first_word():
    # 60 letters: only one tail list is built before the first word.
    start = time.perf_counter()
    first = next(balanced_nontransitive_words(20, 3, budget=10 ** 40))
    assert time.perf_counter() - start < 1
    assert first == "aaaaaaaaababbbbbbbbcccccccccccbccccccccbbbbbbbbbbacaaaaaaaaa"


def test_bnt_scan_frees_its_memo_without_gc():
    # The tail memo must hold no reference cycle, or each listing's memo
    # would stay alive until a full collection.
    gc.disable()
    tracemalloc.start()
    try:
        sizes = []
        for _ in range(3):
            for _ in balanced_nontransitive_words(6, 3):
                pass
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        gc.enable()
    assert abs(sizes[2] - sizes[0]) < 2 ** 19


# SHA-256 of each balanced non-transitive word stream, lines joined by "\n".
# Frozen so that any rewrite of the walker must keep its output
# byte-identical; (6, 3) and (3, 4) are also pinned by the benchmark.
BNT_STREAMS = {
    (5, 3): (915, "dd42c17400b27cd26be3d4e6d1eccc807397aa06306a4821c52748f0946b6d12"),
    (6, 3): (5730, "776edd5a307501bde0166063062c064b18fae0b3c711b596e944ae375c99b7c1"),
    (7, 3): (189783, "3a2102de756b35dee77b3bb42ae65413f7f3976215b89febf6dfb3b2d3696aea"),
    (3, 4): (148, "f9a18327f02faea2fb0e8c67d5317567378fbb7acc30ce44160260aa8eb08456"),
    (4, 4): (1976, "c67c450044ffe2a4879462f6bf0a19a717b8fb53b87924ed8c72be9bbbe8a277"),
    (3, 5): (8680, "842d1ace41dca5ef6c8a460fdb66451e6bc2b289d6805e0524ad600d9f8d9a0b"),
    (2, 6): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (4, 2): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize(
    "n,m",
    [
        pytest.param(n, m, marks=[pytest.mark.slow] if n == 7 else [])
        for n, m in sorted(BNT_STREAMS)
    ],
)
def test_bnt_word_stream_is_pinned(n, m):
    words = list(balanced_nontransitive_words(n, m, budget=word_count(n, m)))
    assert (len(words), stream_digest(words)) == BNT_STREAMS[(n, m)]


def reflect(letters, m):
    """sigma(rev w) with sigma(x) = -x mod m: reverse the word, then map each
    die x to die -x, so die sigma(x) gets the cycle wins of die pred x."""
    return "".join(ALPHABET[-ALPHABET.index(ch) % m] for ch in reversed(letters))


@pytest.mark.parametrize(
    "n,m,fixed", [(5, 3, 9), (6, 3, 52), (3, 4, 0), (4, 4, 52), (3, 5, 44)]
)
def test_bnt_scan_is_closed_under_reflection(n, m, fixed):
    # An independent check of the scan: the reflection maps balanced
    # non-transitive words to balanced non-transitive words, a cut at j to a
    # cut at n - j (so irreducibility is kept), and fixes exactly the pinned
    # number of words.
    words = list(balanced_nontransitive_words(n, m, budget=word_count(n, m)))
    images = [reflect(w, m) for w in words]
    assert sorted(images) == words
    for w, image in zip(words, images):
        assert is_irreducible(Word(image, m)) == is_irreducible(Word(w, m))
    assert sum(w == image for w, image in zip(words, images)) == fixed


@st.composite
def words_up_to_six_sides(draw):
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, 6))
    letters = draw(st.permutations([ALPHABET[x] for x in range(m) for _ in range(n)]))
    return "".join(letters), m


@given(words_up_to_six_sides())
@settings(max_examples=200)
def test_reflection_keeps_verdict_and_cycle_wins(case):
    # On any word, not only balanced non-transitive ones: the reflection
    # permutes the cycle wins among the dice, so the verdict is kept.
    letters, m = case
    dice, image = (dice_of_word(Word(w, m)) for w in (letters, reflect(letters, m)))
    verdict, mirrored = verify(dice), verify(image)
    assert mirrored.classification is verdict.classification
    assert mirrored.witness_odds == verdict.witness_odds
    assert sorted(cycle_beat_counts(image)) == sorted(cycle_beat_counts(dice))


@given(words_up_to_six_sides())
@settings(max_examples=200)
def test_letter_reflection_mirrors_the_cycle_wins(case):
    # The lemma behind the census's balanced = 2·BNT + fair: mapping each
    # die x to die -x mod m, word order kept, gives die y the wins
    # n² - c[-y-1], so balanced words at W go to balanced words at n² - W.
    letters, m = case
    n = len(letters) // m
    image = "".join(ALPHABET[-ALPHABET.index(ch) % m] for ch in letters)
    c = cycle_wins_by_hand(letters, m)
    assert cycle_wins_by_hand(image, m) == [n * n - c[(-y - 1) % m] for y in range(m)]


# -- irreducibility ----------------------------------------------------------------------

def test_classic_word_is_irreducible():
    assert is_irreducible(Word.from_string("acbbaccba"))


def test_doubled_word_is_reducible():
    assert not is_irreducible(Word.from_string("acbbaccbaacbbaccba"))


def test_four_sided_base_word_is_irreducible():
    assert is_irreducible(Word.from_string("abacccbbbaca"))


def test_is_irreducible_requires_bnt():
    with pytest.raises(NotBalancedNontransitive):
        is_irreducible(Word.from_string("abcabc"))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_is_irreducible_rejects_empty_word(m):
    with pytest.raises(NotBalancedNontransitive):
        is_irreducible(Word.empty(m))


@given(st.sampled_from(BNT3), st.sampled_from(BNT3))
@settings(max_examples=36)
def test_concatenations_of_bnt_words_are_reducible(s, t):
    assert not is_irreducible(Word(s + t, 3))


@given(st.sampled_from(BNT3))
def test_irreducibility_matches_oracle(w):
    assert is_irreducible(Word(w, 3)) == oracle.is_irreducible(w, 3)


# -- tournaments ----------------------------------------------------------------------------

def test_tournament_from_text_cycle():
    t = Tournament.from_text("1>2,2>3,3>1")
    assert t.m == 3
    assert t.edges == frozenset({(0, 1), (1, 2), (2, 0)})
    assert t.beats(0, 1) and not t.beats(1, 0)
    # Empty tokens are skipped.
    assert Tournament.from_text("1>2,,2>3, 3>1,") == t


def test_tournament_needs_two_vertices():
    with pytest.raises(TournamentSpecError, match="need at least 2 vertices, got 1"):
        Tournament.from_edges(1, [])
    for text in ("", " , "):
        with pytest.raises(TournamentSpecError, match="empty tournament specification"):
            Tournament.from_text(text)


def test_tournament_from_text_incomplete():
    with pytest.raises(TournamentSpecError, match="missing direction"):
        Tournament.from_text("1>2,2>3")


def test_tournament_from_text_contradictory():
    with pytest.raises(TournamentSpecError, match="contradictory"):
        Tournament.from_text("1>2,2>1,1>3,2>3")


def test_tournament_from_text_bad_token():
    with pytest.raises(TournamentSpecError):
        Tournament.from_text("1-2,2>3,3>1")
    with pytest.raises(TournamentSpecError, match="vertices are numbered from 1: '0>1'"):
        Tournament.from_text("0>1,1>2,2>0")


def test_tournament_from_edges_rejects_self_loop():
    with pytest.raises(TournamentSpecError, match=r"^bad edge \(0, 0\) for 3 vertices$"):
        Tournament.from_edges(3, {(0, 0), (0, 1), (0, 2), (1, 2)})


@pytest.mark.parametrize(
    "m, edges",
    [
        (3, [(0.0, 1), (1, 2), (2, 0)]),
        (3, [(0, 1), (True, 2), (2, 0)]),
        (3.0, [(0, 1), (1, 2), (2, 0)]),
        (3, [(0, 1, 2)]),
        (3, [0]),
        (3, [[0, 1], [1, 2], [2, 0]]),
        # An int subclass is refused as a label and a win count are.
        (3, [(V.A, V.B), (1, 2), (2, 0)]),
        (V.C, [(0, 1)]),
    ],
    ids=[
        "float-vertex", "bool-vertex", "float-count", "triple-edge", "int-edge", "list-edges",
        "intenum-vertex", "intenum-count",
    ],
)
def test_tournament_from_edges_rejects_non_integer_vertices(m, edges):
    with pytest.raises(TournamentSpecError, match="^(bad edge|vertex count) "):
        Tournament.from_edges(m, edges)


CYCLE_3 = Tournament.from_text("1>2,2>3,3>1")
CYCLE_4 = Tournament.from_text("1>2,2>3,3>4,4>1,3>1,2>4")


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: construct.construct_balanced_nontransitive(3.5), "n=3.5"),
        (lambda: construct.construct_balanced_nontransitive(6.0), "n=6.0"),
        (lambda: realize_k3(CYCLE_3, 3.0), "n=3.0"),
        (lambda: enumerate_words(2.5), "n=2.5"),
        (lambda: enumerate_words(True, 3), "n=True"),
        (lambda: iter_words(2.0), "n=2.0"),
        (lambda: balanced_nontransitive_words(3, V.C), "m=<V.C: 2>"),
        (lambda: search_realization(CYCLE_4, 3.0), "n=3.0"),
        (lambda: search_realization(CYCLE_4, 2.0), "n=2.0"),
        (lambda: construct.fibonacci_savage(7.0), "k=7.0"),
        (lambda: construct.fibonacci_balanced(7.0), "k=7.0"),
        (lambda: Word.from_string("abc", 3.0), "m=3.0"),
        (lambda: construct.base_example(3.0), "n=3.0"),
        (lambda: construct.base_example(3, 3.0), "m=3.0"),
        (lambda: word_count(2.5, 3), "n=2.5"),
        (lambda: word_count(True, 3), "n=True"),
        (lambda: construct.construct_balanced_nontransitive("3"), "n='3'"),
        (lambda: construct.construct_balanced_nontransitive(None), "n=None"),
        (lambda: construct.fibonacci_savage("5"), "k='5'"),
        (lambda: construct.fibonacci_balanced("5"), "k='5'"),
        (lambda: construct.fibonacci_boundary_swap("5"), "k='5'"),
        (lambda: realize_k3(CYCLE_3, "3"), "n='3'"),
        (lambda: search_realization(CYCLE_4, "3"), "n='3'"),
        (lambda: search_realization(CYCLE_4, None), "n=None"),
        (lambda: iter_words(3, 3, budget="x"), "budget='x'"),
        (lambda: enumerate_words(3, 3, budget=None), "budget=None"),
    ],
    ids=[
        "construct-half", "construct-float", "realize-k3", "census", "census-bool",
        "words", "bnt-intenum", "realization", "realization-few-sides", "fib-savage",
        "fib-balanced", "word", "base-example", "base-example-dice", "word-count",
        "word-count-bool", "construct-str", "construct-none", "fib-savage-str",
        "fib-balanced-str", "fib-swap-str", "realize-k3-str", "realization-str",
        "realization-none", "words-budget-str", "census-budget-none",
    ],
)
def test_sizes_must_be_plain_ints(call, value):
    # Without the gate these raised KeyError or TypeError, or, for True,
    # returned a Census with n=True; a string or None met a comparison
    # before the gate and raised a bare TypeError.
    with pytest.raises(DiceError, match=f"^{re.escape(value)} is not an integer$"):
        call()


def test_majority_digraph_quad_examples():
    # 3-sided quad: full cycle plus both diagonals decided
    assert majority_digraph(BASE_QUADS[3]) == frozenset(
        {(0, 1), (1, 2), (2, 3), (3, 0), (2, 0), (1, 3)}
    )
    # 4-sided quad: both diagonals are exactly fair, so no diagonal edges
    assert majority_digraph(BASE_QUADS[4]) == frozenset(
        {(0, 1), (1, 2), (2, 3), (3, 0)}
    )


@given(st.sampled_from(list("abc")))
def test_majority_digraph_matches_oracle_on_bases(_):
    for dice_set in (BASE_QUADS[3], BASE_QUADS[5]):
        word = word_of_dice(dice_set).letters
        assert majority_digraph(dice_set) == oracle.full_digraph(word, 4)


# -- realization -------------------------------------------------------------------------------

@pytest.mark.parametrize("edges", ALL_K3, ids=lambda e: ",".join(map(str, sorted(e))))
@pytest.mark.parametrize("n", [3, 4, 5])
def test_realize_k3_reproduces_every_orientation(edges, n):
    t = Tournament.from_edges(3, edges)
    d = realize_k3(t, n)
    assert d.n == n
    assert majority_digraph(d) == edges


def test_realize_k3_cycle_is_the_base_example():
    t = Tournament.from_text("1>2,2>3,3>1")
    assert realize_k3(t, 3) == validate_dice([[9, 5, 1], [8, 4, 3], [7, 6, 2]])


def test_realize_k3_reverse_cycle_swaps_two_dice():
    t = Tournament.from_text("1>3,3>2,2>1")
    assert realize_k3(t, 3) == validate_dice([[9, 5, 1], [7, 6, 2], [8, 4, 3]])


def test_realize_k3_acyclic_blocks():
    t = Tournament.from_text("1>2,1>3,2>3")
    d = realize_k3(t, 2)
    assert d.dice == ((6, 5), (4, 3), (2, 1))


@pytest.mark.parametrize("n", [1, 2])
def test_realize_k3_acyclic_allows_tiny_dice(n):
    t = Tournament.from_text("2>1,2>3,3>1")
    assert majority_digraph(realize_k3(t, n)) == t.edges


def test_realize_k3_cyclic_needs_three_sides():
    t = Tournament.from_text("1>2,2>3,3>1")
    with pytest.raises(SidesTooSmall):
        realize_k3(t, 2)


def test_realize_k3_refuses_more_than_max_labels(monkeypatch):
    monkeypatch.setattr(construct, "MAX_LABELS", 30)
    assert realize_k3(Tournament.from_text("1>2,2>3,1>3"), 10).n == 10
    for text in ("1>2,2>3,1>3", "1>2,2>3,3>1"):
        with pytest.raises(TooManyLabels, match="n=11, m=3 needs 33 labels, over the limit of 30"):
            realize_k3(Tournament.from_text(text), 11)


def test_realize_k3_rejects_other_sizes():
    with pytest.raises(ValueError):
        realize_k3(Tournament.from_text("1>2"), 3)


@pytest.mark.parametrize("edges", ALL_K3, ids=lambda e: ",".join(map(str, sorted(e))))
def test_search_realization_first_word_pinned(edges):
    t = Tournament.from_edges(3, edges)
    found = search_realization(t, 3)
    assert word_of_dice(found).letters == FIRST_REALIZATIONS[edges]


def test_search_realization_four_dice_quad_digraph():
    target = majority_digraph(BASE_QUADS[3])
    t = Tournament.from_edges(4, target)
    found = search_realization(t, 3)
    assert found is not None
    assert majority_digraph(found) == target


def test_search_realization_exhausts_without_witness():
    # one-sided dice are totally ordered, so no cyclic component is realizable
    t = Tournament.from_text("1>2,2>3,3>1,1>4,2>4,3>4")
    assert search_realization(t, 1) is None


def test_regular_five_vertex_tournament_is_walked_to_exhaustion(monkeypatch):
    # x beats x+1 and x+2 mod 5. At n = 4 the walk itself runs out of words,
    # since the check for one or two sides does not apply there. Its pushes
    # are pinned: a weaker prune keeps the answer and tests more prefixes.
    t = Tournament.from_edges(5, [(x, (x + d) % 5) for x in range(5) for d in (1, 2)])
    pushes = count_pushes(monkeypatch, "_edge_rule")
    assert search_realization(t, 4, budget=word_count(4, 5)) is None
    assert pushes == [635585]
    found = search_realization(t, 3, budget=word_count(3, 5))
    assert word_of_dice(found).letters == "adbeccbaededcba"


def is_acyclic(edges, m):
    """True when repeatedly removing the vertices with no edge into them
    from the rest empties the digraph."""
    left = set(range(m))
    while left:
        sources = {v for v in left if not any((u, v) in edges for u in left)}
        if not sources:
            return False
        left -= sources
    return True


@pytest.mark.parametrize("m", [4, 5])
def test_walk_realizes_one_or_two_sides_exactly_for_transitive_tournaments(m):
    # The walk alone, without search_realization's check for n <= 2, finds a
    # word exactly when the tournament is acyclic, for all m! of them.
    wrong = []
    for n in (1, 2):
        found = 0
        for mask in range(1 << (m * (m - 1) // 2)):
            t = tournament_of_mask(m, mask)
            walk = _backtrack(
                n, m, word_count(n, m), lambda placed: _edge_rule(t, n, placed)[:3]
            )
            realized = next(walk, None) is not None
            found += realized
            if realized != is_acyclic(t.edges, m):
                wrong.append((n, mask))
        assert found == math.factorial(m)
    assert wrong == []


@pytest.mark.parametrize("n,m,count", [(1, 3, 6), (1, 4, 24), (2, 3, 90), (2, 4, 2520)])
def test_dice_with_one_or_two_sides_have_acyclic_majority_digraphs(n, m, count):
    # Independent of ntdice: no word with n <= 2 has a cycle of strict wins.
    words = list(oracle.all_words(n, m))
    assert len(words) == count
    assert [w for w in words if not is_acyclic(oracle.full_digraph(w, m), m)] == []


def test_search_realization_matches_oracle():
    # Every 4-vertex tournament at n = 1 and 2: search_realization must give
    # the oracle's first realizing word, or None exactly when it does. The
    # transitive ones are walked; the others get None from the n <= 2 check.
    mismatches = []
    for n in (1, 2):
        for mask in range(1 << 6):
            tournament = tournament_of_mask(4, mask)
            found = search_realization(tournament, n)
            got = None if found is None else word_of_dice(found).letters
            if got != oracle.first_realizations(n, 4).get(tournament.edges):
                mismatches.append((n, mask, got))
    assert mismatches == []


def tournament_of_mask(m, mask):
    """The m-vertex tournament whose k-th pair (i, j), in combinations
    order, points i -> j when bit k of ``mask`` is set and j -> i otherwise."""
    pairs = itertools.combinations(range(m), 2)
    return Tournament.from_edges(
        m, [(i, j) if mask >> k & 1 else (j, i) for k, (i, j) in enumerate(pairs)]
    )


def first_realization_line(m, mask, n):
    found = search_realization(tournament_of_mask(m, mask), n, budget=word_count(n, m))
    return f"{mask}:{n}:{'none' if found is None else word_of_dice(found).letters}"


def test_smallest_realization_witnesses_are_pinned():
    # For each of the 1,024 five-vertex tournaments, by edge mask, the least
    # n <= 3 that realizes it and the walk's first witness there, as
    # "mask:n:word" lines in mask order; the benchmark pins the same digest.
    lines = []
    for mask in range(1 << 10):
        tournament = tournament_of_mask(5, mask)
        for n in (1, 2, 3):
            found = search_realization(tournament, n, budget=word_count(n, 5))
            if found is not None:
                break
        lines.append(f"{mask}:{n}:{word_of_dice(found).letters}")
    assert stream_digest(lines) == (
        "8ffd9b10eee737df8b8a2ad962d3d1c645b7faa519c1498ce1fe086107c19dcc"
    )


def test_realization_witnesses_beyond_five_vertices_are_pinned():
    # The first witness, or "none", as "mask:n:word" lines, for every
    # 4-vertex tournament at n = 3 and 4 and for 30 seeded 6-vertex ones at
    # n = 2 and 3. No 6-vertex case here is transitive, so each n = 2 line
    # is "none" from search_realization's check for n <= 2, without a walk;
    # test_regular_five_vertex_tournament_is_walked_to_exhaustion pins a walk
    # that runs out of words.
    four = [first_realization_line(4, mask, n) for n in (3, 4) for mask in range(64)]
    # Every 4-vertex tournament is realized at n = 3 and at n = 4.
    assert [line for line in four if line.endswith(":none")] == []
    assert stream_digest(four) == (
        "cb9f69644376e6cffc36dd285323cf3d3f166f1ab2f237c5522b5063eaa93b45"
    )
    rng = random.Random(6)
    masks = [rng.getrandbits(15) for _ in range(30)]
    six = [first_realization_line(6, mask, n) for mask in masks for n in (2, 3)]
    assert stream_digest(six) == (
        "11cc6ad558a923a70ec9c9dace3c3c99573246fa339d71e0a285ed82c0201013"
    )


def test_search_realization_budget():
    t = Tournament.from_text("1>2,2>3,3>1")
    with pytest.raises(BudgetExceeded):
        search_realization(t, 9, budget=1000)
    # The check for n <= 2 answers only sizes the budget admits.
    with pytest.raises(BudgetExceeded):
        search_realization(t, 2, budget=89)
    with pytest.raises(SearchSizeError):
        search_realization(t, 0)


TRANSITIVE_4 = Tournament.from_text("1>2,1>3,1>4,2>3,2>4,3>4")


def test_walks_longer_than_the_recursion_limit_answer():
    # The walk is a loop, so a word of 1,200 or 12,000 letters needs no
    # stack of its own; only the budget bounds the word length.
    for n in (300, 3000):
        found = search_realization(TRANSITIVE_4, n, budget=10 ** 30000)
        assert majority_digraph(found) == TRANSITIVE_4.edges
    first = next(iter_words(400, 3, budget=10 ** 3000))
    assert first == "a" * 400 + "b" * 400 + "c" * 400


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    return depth


def recursion_depth() -> int:
    """The caller's depth as the interpreter counts it, which, unlike
    ``stack_depth``, includes C-level calls such as pytest's hook objects:
    the least recursion limit accepted here, less two."""
    limit, least = sys.getrecursionlimit(), stack_depth()
    while True:
        try:
            sys.setrecursionlimit(least)
            break
        except RecursionError:
            least += 1
    sys.setrecursionlimit(limit)
    return least - 2


def called_at_depth(depth: int, call, frames: int | None = None):
    """``call()``, run at recursion depth ``depth`` as the interpreter
    counts it (``recursion_depth``). The stack is measured once, so a call
    costs one frame per level."""
    if frames is None:
        frames = depth - recursion_depth() - 1
    return call() if frames <= 0 else called_at_depth(depth, call, frames - 1)


def overflows_at_depth(depth: int, call) -> bool:
    """Whether ``call()``, run at recursion depth ``depth``, overflows the
    stack. Only the answer leaves: the exception's traceback holds the
    walk's dead frames until it is dropped."""
    try:
        called_at_depth(depth, call)
    except RecursionError:
        return True
    return False


def deepest_answer(make_call) -> int:
    """The greatest recursion depth at which a call that ``make_call()``
    makes at the caller's own depth answers, found by bisection below the
    recursion limit. A fresh call is made for each try, so a listing is
    made at the caller's depth and only consumed deep."""
    low, high = recursion_depth() + 1, sys.getrecursionlimit()
    assert not overflows_at_depth(low, make_call())
    while low < high:
        mid = (low + high + 1) // 2
        if overflows_at_depth(mid, make_call()):
            high = mid - 1
        else:
            low = mid
    return low


def test_walk_depth_counts_the_callers_frames():
    # The walk is a loop, so the stack it needs below its caller does not
    # grow with the word: a realization of 500 letters and one of 12,000
    # answer equally deep, a few frames under the recursion limit (995 of
    # 1000, measured), and so do listings of 500 and 12,000 letters, whose
    # memoized tail recurses once per tail letter (987).
    assert sys.getrecursionlimit() == 1000
    for make_walk in (
        lambda n: functools.partial(search_realization, TRANSITIVE_4, n, budget=10 ** 30000),
        lambda n: functools.partial(next, iter_words(n, 4, budget=10 ** 30000)),
    ):
        short, long = (deepest_answer(lambda: make_walk(n)) for n in (125, 3000))
        assert short == long > 950


def test_listing_consumed_deeper_than_created_is_refused_in_one_line():
    # The stack that counts is the one that consumes a listing, not the one
    # that made it. The recursive walk refused a 500-letter listing consumed
    # about 600 deep, in one line; the loop answers it wherever its tail's
    # few frames fit, and one level deeper the interpreter's RecursionError
    # ends it.
    deepest = deepest_answer(lambda: functools.partial(next, iter_words(125, 4, budget=10 ** 3000)))
    assert deepest > 950
    words = iter_words(125, 4, budget=10 ** 3000)
    first = called_at_depth(deepest, functools.partial(next, words))
    assert first == "".join(x * 125 for x in "abcd")
    assert next(words) == "".join(x * 125 for x in "ab") + "c" * 124 + "dc" + "d" * 124
    words = iter_words(125, 4, budget=10 ** 3000)
    assert overflows_at_depth(deepest + 1, functools.partial(next, words))
    assert next(words, None) is None


def test_refused_walk_frees_a_filled_memo_without_gc(monkeypatch):
    # The first word, drawn at the test's own depth, fills the memo with its
    # tail lists. The rest, consumed just deep enough, reuses them and then
    # overflows inside a later build, seen as a _tail call shorter than the
    # tail, so the RecursionError drops a filled memo and lists half built.
    # The depth is searched for, down from one whose overflow comes before
    # any build. The peak, mostly the memo and the walk's path, shows what
    # had to be freed.
    lefts = record_tail_lengths(monkeypatch)
    t = _tail_length(60, 3)

    def refused_in_a_build(depth: int) -> bool:
        words = iter_words(60, 3, budget=10 ** 3000)
        next(words)
        lefts.clear()

        def consume():
            collections.deque(itertools.islice(words, 10 ** 5), 0)

        return overflows_at_depth(depth, consume) and min(lefts, default=t) < t

    depth = sys.getrecursionlimit() - 1
    assert not refused_in_a_build(depth)
    while not refused_in_a_build(depth):
        depth -= 1
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(3):
            assert refused_in_a_build(depth)
            # An overflow whose exception outlives it would keep the memo.
            assert tracemalloc.get_traced_memory()[0] < 2 ** 15
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak > 2 ** 17


def test_refused_walk_frees_a_memo_of_large_lists_without_gc():
    # 2,000 words into iter_words(4, 3) the memo holds tail lists of up to
    # 560 suffixes. The rest is drawn with three frames of stack to spare,
    # so the first resume that needs a new list overflows in the tail's
    # recursion, and the RecursionError, which ends the walk while the test
    # still holds it, must drop those lists with the walk.
    limit = sys.getrecursionlimit()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(3):
            words = iter_words(4, 3)
            collections.deque(itertools.islice(words, 2000), 0)
            filled = tracemalloc.get_traced_memory()[0]
            overflowed = False
            sys.setrecursionlimit(recursion_depth() + 3)
            try:
                collections.deque(words, 0)
            except RecursionError:
                overflowed = True
            finally:
                sys.setrecursionlimit(limit)
            assert overflowed
            assert next(words, None) is None
            assert filled > 2 ** 17
            assert tracemalloc.get_traced_memory()[0] < 2 ** 15
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.mark.parametrize(
    "walk, drawn",
    [
        (lambda: iter_words(4, 3), 2000),
        (lambda: iter_words(10 ** 4, 3, budget=10 ** 15000), 1),
    ],
    ids=["large-lists", "long-path"],
)
def test_abandoned_walk_frees_its_memo_without_gc(walk, drawn):
    # 2,000 words into iter_words(4, 3) the memo holds tail lists of up to
    # 560 suffixes; at the first word of 30,000 letters the walk's path and
    # prefix hold one entry per letter. Dropping the walk, with no
    # collection, must free both: the walk holds no reference cycle.
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(3):
            words = walk()
            collections.deque(itertools.islice(words, drawn), 0)
            filled = tracemalloc.get_traced_memory()[0]
            del words
            assert filled > 2 ** 17
            assert tracemalloc.get_traced_memory()[0] < 2 ** 15
    finally:
        tracemalloc.stop()
        gc.enable()


# -- value records -------------------------------------------------------------------------------

@pytest.mark.parametrize(
    "cls, names, values, text",
    [
        (
            Census,
            (
                "n",
                "m",
                "total_words",
                "balanced",
                "nontransitive",
                "balanced_nontransitive",
                "irreducible_bnt",
            ),
            (3, 3, 1680, 12, 15, 6, 6),
            "Census(n=3, m=3, total_words=1680, balanced=12, nontransitive=15, "
            "balanced_nontransitive=6, irreducible_bnt=6)",
        ),
        (
            Tournament,
            ("m", "edges"),
            (2, frozenset({(1, 0)})),
            "Tournament(m=2, edges=frozenset({(1, 0)}))",
        ),
    ],
    ids=["Census", "Tournament"],
)
def test_value_record_contract(cls, names, values, text):
    records.check_value_record(cls, names, values, text)


def test_search_records_equal_their_computed_twins():
    assert enumerate_words(3, 3) == Census(3, 3, 1680, 12, 15, 6, 6)
    cycle = Tournament.from_text("1>2,2>3,3>1")
    assert cycle == Tournament(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    assert hash(cycle) == hash(Tournament.from_edges(3, [(2, 0), (1, 2), (0, 1)]))
    assert len({cycle, Tournament.from_text("3>1,2>3,1>2")}) == 1
