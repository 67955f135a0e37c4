"""Catalog bases, concatenation, the for-all-n construction, and Fibonacci."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from ntdice import construct
from ntdice import (
    BASE_QUADS,
    BASE_TRIPLES,
    AlphabetMismatch,
    Classification,
    IndexTooSmall,
    NotOddIndex,
    SidesTooSmall,
    TooManyLabels,
    WinOdds,
    Word,
    balance_summary,
    base_example,
    concat_dice,
    concat_words,
    construct_balanced_nontransitive,
    cycle_odds,
    dice_of_word,
    face_sums,
    fibonacci_balanced,
    fibonacci_boundary_swap,
    fibonacci_savage,
    is_balanced,
    is_nontransitive,
    validate_dice,
    verify,
    word_of_dice,
)


@st.composite
def words(draw, ms=(3,), max_n=4):
    m = draw(st.sampled_from(ms))
    n = draw(st.integers(0, max_n))
    letters = draw(st.permutations(list("abcdefgh"[:m] * n)))
    return Word("".join(letters), m)


# -- catalog --------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5])
def test_triple_bases_verify(n):
    v = verify(BASE_TRIPLES[n])
    assert v.classification is Classification.BALANCED_NONTRANSITIVE


@pytest.mark.parametrize("n", [3, 4, 5])
def test_quad_bases_pass_cycle_check(n):
    quad = BASE_QUADS[n]
    assert is_balanced(quad) and is_nontransitive(quad)


def test_base_example_lookup_errors():
    with pytest.raises(ValueError):
        base_example(6, 3)
    with pytest.raises(ValueError):
        base_example(3, 5)


# -- concatenation ----------------------------------------------------------------

def test_concat_words_doubled_base():
    w = word_of_dice(BASE_TRIPLES[3])
    doubled = concat_words(w, w)
    assert doubled.letters == w.letters * 2
    summary = balance_summary(doubled)
    assert summary.qplus_sums == (19, 19, 19)
    assert cycle_odds(dice_of_word(doubled)) == (WinOdds(19, 36),) * 3


def test_concat_with_empty_word_is_identity():
    w = word_of_dice(BASE_TRIPLES[4])
    assert concat_words(w, Word.empty(3)) == w
    assert concat_words(Word.empty(3), w) == w


def test_concat_mixed_bases():
    combined = concat_words(
        word_of_dice(BASE_TRIPLES[4]), word_of_dice(BASE_TRIPLES[3])
    )
    d = dice_of_word(combined)
    assert d.n == 7
    assert cycle_odds(d) == (WinOdds(26, 49),) * 3  # 9 + 5 + 4*3


def test_concat_words_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        concat_words(word_of_dice(BASE_TRIPLES[3]), word_of_dice(BASE_QUADS[3]))
    with pytest.raises(AlphabetMismatch, match="dice counts differ: 3 vs 4"):
        concat_dice(BASE_TRIPLES[3], BASE_QUADS[3])


def test_concat_dice_matches_label_shift():
    d1, d2 = BASE_TRIPLES[3], BASE_TRIPLES[4]
    combined = concat_dice(d1, d2)
    shift = d1.m * d1.n
    expected = tuple(
        tuple(sorted(row1 + tuple(v + shift for v in row2), reverse=True))
        for row1, row2 in zip(d1.dice, d2.dice)
    )
    assert combined.dice == expected


@given(words(), words())
def test_concat_win_sum_identity(s, t):
    # per letter: wins(st) = wins(s) + wins(t) + n_s * n_t, exactly
    combined = concat_words(s, t)
    qs = balance_summary(s).qplus_sums
    qt = balance_summary(t).qplus_sums
    qc = balance_summary(combined).qplus_sums
    for x in range(3):
        assert qc[x] == qs[x] + qt[x] + s.n * t.n


@given(words(ms=(4,), max_n=3), words(ms=(4,), max_n=3))
def test_concat_win_sum_identity_four_dice(s, t):
    combined = concat_words(s, t)
    qs = balance_summary(s).qplus_sums
    qt = balance_summary(t).qplus_sums
    qc = balance_summary(combined).qplus_sums
    for x in range(4):
        assert qc[x] == qs[x] + qt[x] + s.n * t.n


@functools.cache
def _oracle_pool(keep, sizes):
    """Every 3-letter word with n in ``sizes`` that the oracle's ``keep``
    accepts, built on first use rather than when the file is collected."""
    return [w for n in sizes for w in oracle.all_words(n, 3) if keep(w, 3)]


BALANCED_POOL = st.deferred(
    lambda: st.sampled_from(_oracle_pool(oracle.is_balanced, (2, 3, 4)))
)
NONTRANSITIVE_POOL = st.deferred(
    lambda: st.sampled_from(_oracle_pool(oracle.is_nontransitive, (3, 4)))
)


@given(BALANCED_POOL, BALANCED_POOL)
@settings(max_examples=100)
def test_balanced_closed_under_concat(s, t):
    combined = concat_words(Word(s, 3), Word(t, 3))
    assert is_balanced(dice_of_word(combined))


@given(NONTRANSITIVE_POOL, NONTRANSITIVE_POOL)
@settings(max_examples=100)
def test_nontransitive_closed_under_concat(s, t):
    combined = concat_words(Word(s, 3), Word(t, 3))
    assert is_nontransitive(dice_of_word(combined))


def test_balanced_fair_concat_is_balanced_but_not_nontransitive():
    fair = word_of_dice(validate_dice([[1, 6], [2, 5], [3, 4]]))
    combined = dice_of_word(concat_words(fair, fair))
    assert is_balanced(combined)
    assert not is_nontransitive(combined)


# -- for-all-n construction --------------------------------------------------------

def test_construct_three_sides_is_the_base():
    assert construct_balanced_nontransitive(3, 3) == BASE_TRIPLES[3]


def test_construct_six_sides_gives_doubled_odds():
    d = construct_balanced_nontransitive(6, 3)
    assert cycle_odds(d) == (WinOdds(19, 36),) * 3


def test_construct_ten_sides():
    d = construct_balanced_nontransitive(10, 3)
    assert d.n == 10
    assert verify(d).classification is Classification.BALANCED_NONTRANSITIVE


def test_construct_rejects_small_n():
    with pytest.raises(SidesTooSmall):
        construct_balanced_nontransitive(2, 3)


def test_construct_rejects_unknown_m():
    with pytest.raises(ValueError):
        construct_balanced_nontransitive(6, 5)


@pytest.mark.parametrize("n", range(3, 13))
def test_construct_sweep_three_dice(n):
    d = construct_balanced_nontransitive(n, 3)
    assert d.n == n
    assert verify(d).classification is Classification.BALANCED_NONTRANSITIVE
    assert face_sums(d) == (n * (3 * n + 1) // 2,) * 3


@pytest.mark.parametrize("n", range(3, 13))
def test_construct_sweep_four_dice(n):
    d = construct_balanced_nontransitive(n, 4)
    assert d.n == n and d.m == 4
    assert is_balanced(d) and is_nontransitive(d)


def concat_fold(n, m):
    """The construction as one concat_words call per 3-sided block."""
    base_n = {0: 3, 1: 4, 2: 5}[n % 3]
    word = word_of_dice(base_example(base_n, m))
    for _ in range((n - base_n) // 3):
        word = concat_words(word, word_of_dice(base_example(3, m)))
    return dice_of_word(word)


@pytest.mark.parametrize("m", [3, 4])
def test_construct_equals_the_concat_fold(m):
    for n in range(3, 41):
        assert construct_balanced_nontransitive(n, m) == concat_fold(n, m)


def test_construct_refuses_more_than_max_labels(monkeypatch):
    with pytest.raises(TooManyLabels, match="n=3333334, m=3 needs 10000002 labels"):
        construct_balanced_nontransitive(3_333_334, 3)
    monkeypatch.setattr(construct, "MAX_LABELS", 30)
    assert construct_balanced_nontransitive(10, 3).n == 10
    with pytest.raises(TooManyLabels, match="n=11, m=3 needs 33 labels, over the limit of 30"):
        construct_balanced_nontransitive(11, 3)
    with pytest.raises(TooManyLabels, match="n=8, m=4 needs 32 labels"):
        construct_balanced_nontransitive(8, 4)


# -- Fibonacci constructions --------------------------------------------------------

def test_savage_k4_rows():
    d = fibonacci_savage(4)
    assert d.dice == ((9, 3, 2), (8, 7, 1), (6, 5, 4))
    assert cycle_odds(d) == (WinOdds(5, 9), WinOdds(6, 9), WinOdds(6, 9))


def test_savage_k5_rows():
    d = fibonacci_savage(5)
    assert d.dice == ((15, 14, 5, 4, 3), (13, 12, 11, 2, 1), (10, 9, 8, 7, 6))
    assert cycle_odds(d) == (WinOdds(16, 25), WinOdds(15, 25), WinOdds(15, 25))
    assert face_sums(d) == (41, 39, 40)


def test_savage_rejects_small_index():
    with pytest.raises(IndexTooSmall):
        fibonacci_savage(3)


@pytest.mark.parametrize("k", range(4, 13))
def test_savage_nontransitive_never_balanced(k):
    d = fibonacci_savage(k)
    assert is_nontransitive(d)
    assert not is_balanced(d)


def test_boundary_swap_k5():
    d = fibonacci_boundary_swap(5)
    assert d.dice == ((15, 13, 5, 4, 3), (14, 12, 11, 2, 1), (10, 9, 8, 7, 6))


@pytest.mark.parametrize(
    "k,expected_sums", [(4, (13, 17, 15)), (8, (670, 674, 672))]
)
def test_boundary_swap_fails_at_even_indices(k, expected_sums):
    # the documented counterexamples: odd Fibonacci *values* are not enough
    assert face_sums(fibonacci_boundary_swap(k)) == expected_sums


def test_fibonacci_rows_are_valid_dice_sets():
    # Both constructions build their DiceSet without validate_dice, so their
    # rows must already be what validate_dice would return.
    for k in range(4, 26):
        for d in (fibonacci_savage(k), fibonacci_boundary_swap(k)):
            assert validate_dice(d.dice) == d, k


def test_fibonacci_balanced_k5():
    d = fibonacci_balanced(5)
    assert face_sums(d) == (40, 40, 40)
    assert cycle_odds(d) == (WinOdds(15, 25),) * 3


def test_fibonacci_balanced_k7_face_sums():
    assert face_sums(fibonacci_balanced(7)) == (260, 260, 260)


@pytest.mark.parametrize("k", [5, 7, 9, 11])
def test_fibonacci_balanced_verifies(k):
    d = fibonacci_balanced(k)
    assert verify(d).classification is Classification.BALANCED_NONTRANSITIVE
    f_k = d.n
    assert face_sums(d) == (f_k * (3 * f_k + 1) // 2,) * 3


def test_fibonacci_balanced_rejects_small_index():
    with pytest.raises(IndexTooSmall):
        fibonacci_balanced(4)


@pytest.mark.parametrize("k", [6, 8, 10])
def test_fibonacci_balanced_rejects_even_index(k):
    with pytest.raises(NotOddIndex, match="f\\(4\\)=3 and f\\(8\\)=21"):
        fibonacci_balanced(k)


def test_fibonacci_refuses_more_than_max_labels(monkeypatch):
    # k = 32 is the last index whose 3·f(k) labels fit the default limit.
    assert construct._fib_blocks(32) == (832040, 1346269, 2178309)
    for k in (33, 201, 10 ** 9 + 1):
        with pytest.raises(TooManyLabels, match=f"k={k} needs more labels"):
            fibonacci_balanced(k)
    monkeypatch.setattr(construct, "MAX_LABELS", 3 * 55)
    assert fibonacci_savage(10).n == 55
    with pytest.raises(TooManyLabels, match="k=11 needs more labels than the limit of 165"):
        fibonacci_savage(11)


def test_savage_odds_match_brute_force():
    rng = random.Random(7)
    for k in rng.sample(range(4, 10), 3):
        d = fibonacci_savage(k)
        word = word_of_dice(d).letters
        assert [o.wins for o in cycle_odds(d)] == [
            p.numerator * (d.n * d.n) // p.denominator
            for p in oracle.cycle_probs(word, 3)
        ]
