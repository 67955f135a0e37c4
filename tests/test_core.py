"""Core types, word encoding, exact odds, and the verification verdicts."""

from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import records
from ntdice import (
    BalanceSummary,
    Classification,
    DiceError,
    DiceSet,
    DuplicateLabel,
    FewerThanTwoDice,
    IndexOutOfRange,
    LabelOutOfRange,
    MalformedWord,
    PositionOutOfRange,
    SameDie,
    TooManyDice,
    Tournament,
    ValueOutOfRange,
    Verdict,
    WinOdds,
    Word,
    WrongSideCount,
    balance_summary,
    base_example,
    beat_count,
    cycle_beat_counts,
    cycle_odds,
    dice_of_word,
    face_sums,
    is_balanced,
    is_nontransitive,
    q_minus,
    q_plus,
    q_same,
    realize_k3,
    reorder_dice,
    validate_dice,
    verify,
    win_probability,
    word_of_dice,
)

EX3 = [[9, 5, 1], [8, 4, 3], [7, 6, 2]]
EX4 = [[12, 10, 3, 1], [9, 8, 7, 2], [11, 6, 5, 4]]
EX5 = [[15, 11, 7, 4, 3], [14, 10, 9, 5, 2], [13, 12, 8, 6, 1]]
QUAD3 = [[12, 5, 2], [11, 8, 1], [10, 7, 3], [9, 6, 4]]
EX3_WORD = "acbbaccba"

# An int subclass other than bool: refused wherever a plain int is asked for.
V = IntEnum("V", "A B C", start=0)


@st.composite
def dice_sets(draw, ms=(2, 3, 4), max_n=5):
    m = draw(st.sampled_from(ms))
    n = draw(st.integers(1, max_n))
    labels = draw(st.permutations(list(range(1, m * n + 1))))
    return validate_dice([labels[i * n:(i + 1) * n] for i in range(m)])


@st.composite
def words(draw, ms=(3,), max_n=5):
    m = draw(st.sampled_from(ms))
    n = draw(st.integers(1, max_n))
    letters = draw(st.permutations(list("abcdefgh"[:m] * n)))
    return Word.from_string("".join(letters), m=m)


# -- validation ----------------------------------------------------------------

def test_validate_classic_example():
    d = validate_dice(EX3)
    assert d.m == 3 and d.n == 3
    assert d.dice == ((9, 5, 1), (8, 4, 3), (7, 6, 2))


def test_validate_normalizes_to_descending():
    d = validate_dice([[1, 5, 9], [3, 4, 8], [2, 7, 6]])
    assert d.dice == ((9, 5, 1), (8, 4, 3), (7, 6, 2))


def test_validate_smallest_legal_input():
    d = validate_dice([[1], [2], [3]])
    assert d.m == 3 and d.n == 1


def test_validate_duplicate_label():
    with pytest.raises(DuplicateLabel, match="label 1"):
        validate_dice([[9, 5, 1], [8, 4, 3], [7, 6, 1]])


def test_validate_label_out_of_range():
    with pytest.raises(LabelOutOfRange, match="10"):
        validate_dice([[1, 2], [3, 10], [5, 6]])
    with pytest.raises(LabelOutOfRange, match="0"):
        validate_dice([[0, 2], [3, 4], [5, 6]])


def test_validate_rejects_bool_label():
    with pytest.raises(LabelOutOfRange, match="True"):
        validate_dice([[True, 2], [3, 4]])
    # Any other int subclass too, as WinOdds and Tournament.from_edges do.
    with pytest.raises(LabelOutOfRange, match="^label <V.B: 1> on die a is not an integer$"):
        validate_dice([[V.B, 2], [3, 4]])


def test_validate_wrong_side_count():
    with pytest.raises(WrongSideCount, match="die b"):
        validate_dice([[1, 2], [3], [4, 5, 6]])


def test_validate_fewer_than_two_dice():
    with pytest.raises(FewerThanTwoDice):
        validate_dice([[1, 2, 3]])


def test_validate_too_many_dice():
    validate_dice([[i + 1] for i in range(26)])
    with pytest.raises(TooManyDice, match="at most 26 dice, got 27"):
        validate_dice([[i + 1] for i in range(27)])
    assert issubclass(TooManyDice, DiceError)


@pytest.mark.parametrize(
    "call",
    [
        lambda: WinOdds(10, 9),
        lambda: base_example(6),
        lambda: base_example(3, 5),
        lambda: realize_k3(Tournament.from_text("1>2"), 3),
    ],
    ids=["win-odds", "base-sides", "base-dice", "realize-k3-size"],
)
def test_out_of_range_arguments_raise_dice_errors(call):
    # A DiceError like every deliberate error, and a ValueError as before.
    with pytest.raises(DiceError) as caught:
        call()
    assert isinstance(caught.value, ValueError)


def test_validate_empty_dice():
    with pytest.raises(WrongSideCount):
        validate_dice([[], [], []])


def test_word_from_string_rejects_bad_letter():
    with pytest.raises(MalformedWord, match="position 3"):
        Word.from_string("abxabc", m=3)


def test_word_from_string_rejects_uneven_counts():
    with pytest.raises(MalformedWord, match="'b' occurs 3"):
        Word.from_string("aabbbc", m=3)
    with pytest.raises(MalformedWord, match="length 3 is not a multiple of m=2"):
        Word.from_string("aab", 2)


def test_word_from_string_infers_alphabet():
    w = Word.from_string(EX3_WORD)
    assert w.m == 3 and w.n == 3 and str(w) == EX3_WORD
    with pytest.raises(MalformedWord, match="cannot infer alphabet size from an empty word"):
        Word.from_string("")
    with pytest.raises(MalformedWord, match="alphabet size 1 outside 2..26"):
        Word.from_string("aaa")


# -- word <-> dice correspondence -----------------------------------------------

def test_word_of_dice_classic_example():
    assert word_of_dice(validate_dice(EX3)).letters == EX3_WORD


def test_word_of_dice_single_sided():
    assert word_of_dice(validate_dice([[3], [2], [1]])).letters == "cba"


def test_word_of_dice_four_sided():
    assert word_of_dice(validate_dice(EX4)).letters == "abacccbbbaca"


def test_dice_of_word_classic_example():
    d = dice_of_word(Word.from_string(EX3_WORD))
    assert d.dice == ((9, 5, 1), (8, 4, 3), (7, 6, 2))


def test_dice_of_word_trivial():
    d = dice_of_word(Word.from_string("abc"))
    assert d.dice == ((1,), (2,), (3,))


def test_dice_of_word_doubled():
    d = dice_of_word(Word.from_string(EX3_WORD + EX3_WORD))
    assert d.dice[0] == (18, 14, 10, 9, 5, 1)
    assert d.dice[1] == (17, 13, 12, 8, 4, 3)
    assert d.dice[2] == (16, 15, 11, 7, 6, 2)


@given(dice_sets())
def test_round_trip_dice_word_dice(d):
    assert dice_of_word(word_of_dice(d)) == d


@given(words(ms=(3, 4)))
def test_round_trip_word_dice_word(w):
    assert word_of_dice(dice_of_word(w)) == w


# -- q functions ----------------------------------------------------------------

@pytest.mark.parametrize(
    "position,expected", [(5, 2), (1, 0), (9, 3)]
)
def test_q_plus_hand_counts(position, expected):
    assert q_plus(Word.from_string(EX3_WORD), position) == expected


@pytest.mark.parametrize("position,expected", [(5, 1), (1, 0)])
def test_q_minus_hand_counts(position, expected):
    assert q_minus(Word.from_string(EX3_WORD), position) == expected


def test_q_minus_counts_prior_beating_letters():
    assert q_minus(Word.from_string("cba"), 3) == 1


@pytest.mark.parametrize("position,expected", [(4, 1), (1, 0)])
def test_q_same_hand_counts(position, expected):
    assert q_same(Word.from_string(EX3_WORD), position) == expected


@pytest.mark.parametrize("position", [0, 10, -1])
def test_q_functions_position_out_of_range(position):
    w = Word.from_string(EX3_WORD)
    for fn in (q_plus, q_minus, q_same):
        with pytest.raises(PositionOutOfRange):
            fn(w, position)


@given(words(ms=(3,)))
def test_positional_identity_three_dice(w):
    for i in range(1, len(w.letters) + 1):
        assert i == q_plus(w, i) + q_minus(w, i) + q_same(w, i) + 1


@given(words(ms=(4,), max_n=3))
def test_positional_identity_general(w):
    # i - 1 equals prior occurrences of every other letter plus q_same;
    # q_plus/q_minus cover the cycle neighbours, the rest is counted raw.
    for i in range(1, len(w.letters) + 1):
        ch = w.letters[i - 1]
        others = sum(
            w.letters.count(other, 0, i - 1)
            for other in "abcd"
            if other != ch
        )
        assert i - 1 == others + q_same(w, i)
        x = ord(ch) - 97
        neighbours = {(x + 1) % 4, (x - 1) % 4}
        diagonal = next(iter({0, 1, 2, 3} - neighbours - {x}))
        assert i - 1 == (
            q_plus(w, i)
            + q_minus(w, i)
            + q_same(w, i)
            + w.letters.count("abcd"[diagonal], 0, i - 1)
        )


@given(words(ms=(3, 4)))
def test_q_same_sums(w):
    summary = balance_summary(w)
    n = w.n
    assert all(s == n * (n - 1) // 2 for s in summary.qsame_sums)


# -- pair counting and odds ------------------------------------------------------

def test_beat_count_classic_example():
    assert beat_count(validate_dice(EX3), 0, 1) == 5


def test_beat_count_four_sided():
    assert beat_count(validate_dice(EX4), 0, 1) == 9


def test_beat_count_same_die():
    with pytest.raises(SameDie):
        beat_count(validate_dice(EX3), 1, 1)


def test_beat_count_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        beat_count(validate_dice(EX3), 0, 3)


@given(dice_sets())
def test_beat_count_no_ties(d):
    n2 = d.n * d.n
    for x in range(d.m):
        for y in range(d.m):
            if x != y:
                assert beat_count(d, x, y) + beat_count(d, y, x) == n2


@given(dice_sets())
def test_beat_count_matches_brute_force(d):
    for x in range(d.m):
        for y in range(d.m):
            if x != y:
                assert beat_count(d, x, y) == oracle.beats(d.dice[x], d.dice[y])


@given(dice_sets(ms=(3, 4)))
def test_word_route_equals_set_route(d):
    summary = balance_summary(word_of_dice(d))
    for x in range(d.m):
        assert summary.qplus_sums[x] == beat_count(d, x, (x + 1) % d.m)


@given(dice_sets(ms=(2, 3, 4, 5, 6)))
def test_cycle_pass_equals_pair_counts(d):
    assert cycle_beat_counts(d) == tuple(
        beat_count(d, x, (x + 1) % d.m) for x in range(d.m)
    )


@given(words(ms=(2, 3, 4, 5)))
def test_balance_summary_equals_positional_sums(w):
    # q_plus/q_minus/q_same count with str.count, independent of the pass
    # and of the identities balance_summary derives qminus and qsame from.
    s = balance_summary(w)
    routes = ((q_plus, s.qplus_sums), (q_minus, s.qminus_sums), (q_same, s.qsame_sums))
    for q, sums in routes:
        by_die = [0] * w.m
        for i, ch in enumerate(w.letters, start=1):
            by_die[ord(ch) - 97] += q(w, i)
        assert tuple(by_die) == sums


def test_balance_summary_of_empty_word():
    s = balance_summary(Word.empty(3))
    assert (s.m, s.n) == (3, 0)
    assert s.qplus_sums == s.qminus_sums == s.qsame_sums == s.face_sums == (0, 0, 0)


@given(words(ms=(3,)))
def test_opposing_sums_cover_all_pairs(w):
    s = balance_summary(w)
    n2 = w.n * w.n
    a_plus, b_plus, c_plus = s.qplus_sums
    a_minus, b_minus, c_minus = s.qminus_sums
    assert a_plus + b_minus == b_plus + c_minus == c_plus + a_minus == n2


@given(words(ms=(3,)))
def test_face_sum_identity_three_dice(w):
    s = balance_summary(w)
    for x in range(3):
        assert s.face_sums[x] == (
            s.qplus_sums[x] + s.qminus_sums[x] + s.qsame_sums[x] + w.n
        )


def test_win_probability_classic_example():
    assert win_probability(validate_dice(EX3), 0, 1) == WinOdds(5, 9)


def test_win_probability_five_sided():
    assert win_probability(validate_dice(EX5), 0, 1) == WinOdds(13, 25)


def test_win_probability_dominant_single_label():
    assert win_probability(validate_dice([[2], [1]]), 0, 1) == WinOdds(1, 1)


def test_win_odds_cross_multiplicative_equality():
    assert WinOdds(5, 9) == WinOdds(10, 18)
    assert WinOdds(5, 9) != WinOdds(4, 9)
    assert hash(WinOdds(5, 9)) == hash(WinOdds(10, 18))
    assert WinOdds(19, 36).display == "19/36"


def test_win_odds_rejects_impossible_counts():
    with pytest.raises(ValueError):
        WinOdds(10, 9)


# -- face sums and predicates -----------------------------------------------------

def test_face_sums_examples():
    assert face_sums(validate_dice(EX3)) == (15, 15, 15)
    assert face_sums(validate_dice(EX5)) == (40, 40, 40)
    assert face_sums(validate_dice(QUAD3)) == (19, 20, 20, 19)


@given(dice_sets())
def test_face_sums_total(d):
    mn = d.m * d.n
    assert sum(face_sums(d)) == mn * (mn + 1) // 2


def test_is_balanced_examples():
    assert is_balanced(validate_dice(EX3))
    assert not is_balanced(validate_dice([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
    # balanced around the cycle despite unequal face-sums
    assert is_balanced(validate_dice(QUAD3))


def test_is_nontransitive_examples():
    assert is_nontransitive(validate_dice(EX3))
    assert not is_nontransitive(validate_dice([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))


@given(words(ms=(3,), max_n=4))
def test_predicates_match_oracle(w):
    d = dice_of_word(w)
    assert is_balanced(d) == oracle.is_balanced(w.letters, 3)
    assert is_nontransitive(d) == oracle.is_nontransitive(w.letters, 3)


# -- verify -----------------------------------------------------------------------

def test_verify_classic_example():
    v = verify(validate_dice(EX3))
    assert v.classification is Classification.BALANCED_NONTRANSITIVE
    assert v.witness_odds == WinOdds(5, 9)
    assert v.suggested_relabeling is None
    assert v.method == "face-sum"


def test_verify_unbalanced():
    v = verify(validate_dice([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
    assert v.classification is Classification.UNBALANCED
    assert v.witness_odds is None


def test_verify_balanced_fair():
    v = verify(validate_dice([[1, 6], [2, 5], [3, 4]]))
    assert v.classification is Classification.BALANCED_FAIR
    assert v.witness_odds == WinOdds(2, 4)


def test_verify_balanced_reverse_suggests_swap():
    reversed_example = validate_dice([[9, 5, 1], [7, 6, 2], [8, 4, 3]])
    v = verify(reversed_example)
    assert v.classification is Classification.BALANCED_REVERSE
    assert v.suggested_relabeling == (0, 2, 1)
    fixed = reorder_dice(reversed_example, v.suggested_relabeling)
    assert verify(fixed).classification is Classification.BALANCED_NONTRANSITIVE


def test_verify_four_dice_uses_cycle_route():
    v = verify(validate_dice(QUAD3))
    assert v.classification is Classification.BALANCED_NONTRANSITIVE
    assert v.method == "cycle"
    assert v.witness_odds == WinOdds(5, 9)


def test_verify_four_dice_reverse():
    quad = validate_dice(QUAD3)
    backwards = reorder_dice(quad, (0, 3, 2, 1))
    v = verify(backwards)
    assert v.classification is Classification.BALANCED_REVERSE
    assert v.suggested_relabeling == (0, 3, 2, 1)
    assert (
        verify(reorder_dice(backwards, v.suggested_relabeling)).classification
        is Classification.BALANCED_NONTRANSITIVE
    )


@given(dice_sets(ms=(3,), max_n=4))
@settings(max_examples=200)
def test_verify_matches_full_computation(d):
    v = verify(d)
    assert v.classification.value == oracle.classify(word_of_dice(d).letters, 3)
    has_suggestion = v.suggested_relabeling is not None
    assert has_suggestion == (v.classification is Classification.BALANCED_REVERSE)


def test_reorder_dice_rejects_non_permutation():
    with pytest.raises(IndexOutOfRange):
        reorder_dice(validate_dice(EX3), (0, 1, 1))


def test_cycle_odds_classic_example():
    assert cycle_odds(validate_dice(EX3)) == (WinOdds(5, 9),) * 3


def test_balance_summary_type():
    s = balance_summary(Word.from_string(EX3_WORD))
    assert isinstance(s, BalanceSummary)
    assert s.m == 3 and s.n == 3
    assert s.face_sums == (15, 15, 15)
    assert s.qplus_sums == (5, 5, 5)


def test_dice_set_is_immutable():
    d = validate_dice(EX3)
    with pytest.raises(AttributeError):
        d.dice = ()


# -- value records -----------------------------------------------------------------

RECORDS = [
    (Word, ("letters", "m"), (EX3_WORD, 3), "Word(letters='acbbaccba', m=3)"),
    (
        DiceSet,
        ("dice",),
        (((9, 5, 1), (8, 4, 3), (7, 6, 2)),),
        "DiceSet(dice=((9, 5, 1), (8, 4, 3), (7, 6, 2)))",
    ),
    (WinOdds, ("wins", "trials"), (5, 9), "WinOdds(wins=5, trials=9)"),
    (
        BalanceSummary,
        ("m", "n", "qplus_sums", "qminus_sums", "qsame_sums", "face_sums"),
        (3, 3, (5, 5, 5), (4, 4, 4), (3, 3, 3), (15, 15, 15)),
        "BalanceSummary(m=3, n=3, qplus_sums=(5, 5, 5), qminus_sums=(4, 4, 4), "
        "qsame_sums=(3, 3, 3), face_sums=(15, 15, 15))",
    ),
    (
        Verdict,
        ("classification", "witness_odds", "suggested_relabeling", "method"),
        (Classification.BALANCED_REVERSE, WinOdds(4, 9), (0, 2, 1), "cycle"),
        "Verdict(classification=<Classification.BALANCED_REVERSE: 'balanced-reverse'>, "
        "witness_odds=WinOdds(wins=4, trials=9), suggested_relabeling=(0, 2, 1), "
        "method='cycle')",
    ),
]


@pytest.mark.parametrize(
    "cls, names, values, text", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)
def test_value_record_contract(cls, names, values, text):
    records.check_value_record(cls, names, values, text)


def test_verdict_defaults():
    verdict = Verdict(Classification.UNBALANCED)
    assert verdict.witness_odds is None
    assert verdict.suggested_relabeling is None
    assert verdict.method == "face-sum"
    assert verdict == Verdict(Classification.UNBALANCED, None, None, "face-sum")
    assert Verdict(Classification.UNBALANCED, method="cycle").method == "cycle"
    assert repr(verdict) == (
        "Verdict(classification=<Classification.UNBALANCED: 'unbalanced'>, "
        "witness_odds=None, suggested_relabeling=None, method='face-sum')"
    )


def test_win_odds_keeps_its_own_equality_and_range_check():
    assert WinOdds(5, 9) == WinOdds(10, 18) and str(WinOdds(10, 18)) == "10/18"
    assert hash(WinOdds(5, 9)) == hash(WinOdds(10, 18))
    assert WinOdds(0, 9).wins == 0 and WinOdds(9, 9).wins == 9
    for wins in (-1, 10):
        with pytest.raises(ValueError, match=f"wins {wins} outside 0..9"):
            WinOdds(wins, 9)
    with pytest.raises(ValueError):
        WinOdds(wins=10, trials=9)
    # Zero trials would equal every odds by cross-multiplication.
    for trials in (0, -1):
        with pytest.raises(ValueError, match=f"at least 1 trial, got {trials}"):
            WinOdds(0, trials)
    # Counts are ints, as labels are: 1.5/9 would print, then fail to hash.
    for wins, trials, bad in [
        (1.5, 9, "wins 1.5"),
        ("1", 9, "wins '1'"),
        (True, 9, "wins True"),
        (1, 9.0, "trials 9.0"),
        (0, False, "trials False"),
        (V.B, 9, "wins <V.B: 1>"),
    ]:
        with pytest.raises(ValueOutOfRange, match=f"^{bad} is not an integer$"):
            WinOdds(wins, trials)
