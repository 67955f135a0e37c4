"""Enumeration, census, irreducibility, and tournament realization."""

import functools
import gc
import hashlib
import itertools
import math
import random
import time
import tracemalloc

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
    NotBalancedNontransitive,
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
from ntdice import construct
from ntdice.search import _TAIL_WORDS, _bnt_rule, _edge_rule, _tail_length

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
    with cycle wins counted per word here rather than by the package."""
    nsq = n * n
    counts = [0, 0, 0, 0]
    for letters in iter_words(n, m, budget=word_count(n, m)):
        wins = cycle_wins_by_hand(letters, m)
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


@pytest.mark.parametrize("n", range(1, 7))
def test_census_balanced_matches_face_sum_partitions(n):
    assert enumerate_words(n, 3).balanced == equal_face_sum_partitions(n)


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


def test_face_sum_partitions_n7():
    assert equal_face_sum_partitions(7) == 379566


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


def test_tournament_from_text_incomplete():
    with pytest.raises(TournamentSpecError, match="missing direction"):
        Tournament.from_text("1>2,2>3")


def test_tournament_from_text_contradictory():
    with pytest.raises(TournamentSpecError, match="contradictory"):
        Tournament.from_text("1>2,2>1,1>3,2>3")


def test_tournament_from_text_bad_token():
    with pytest.raises(TournamentSpecError):
        Tournament.from_text("1-2,2>3,3>1")


def test_tournament_from_edges_rejects_self_loop():
    with pytest.raises(TournamentSpecError):
        Tournament.from_edges(3, {(0, 0), (0, 1), (0, 2), (1, 2)})


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


def test_search_realization_matches_oracle():
    # Every 4-vertex tournament at n = 1 and 2: the walker's leaf rule must
    # give the oracle's first realizing word, or None exactly when it does.
    pairs = list(itertools.combinations(range(4), 2))
    mismatches = []
    for n in (1, 2):
        for flips in itertools.product((False, True), repeat=len(pairs)):
            edges = frozenset((j, i) if f else (i, j) for (i, j), f in zip(pairs, flips))
            found = search_realization(Tournament.from_edges(4, edges), n)
            got = None if found is None else word_of_dice(found).letters
            if got != oracle.first_realization(edges, n, 4):
                mismatches.append((n, sorted(edges), got))
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
    # n = 2 and 3 (no 6-vertex case here is realized at n = 2, so those
    # lines pin the pruned search running to exhaustion).
    four = [first_realization_line(4, mask, n) for n in (3, 4) for mask in range(64)]
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
