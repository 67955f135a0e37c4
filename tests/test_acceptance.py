"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass. Timing bounds are asserted on the minimum over a few repeats so a
loaded machine does not flip a deterministic result.
"""

import random
import time

from ntdice import (
    BASE_QUADS,
    BASE_TRIPLES,
    Classification,
    WinOdds,
    Word,
    balance_summary,
    balanced_nontransitive_words,
    concat_words,
    construct_balanced_nontransitive,
    cycle_odds,
    dice_of_word,
    enumerate_words,
    face_sums,
    fibonacci_balanced,
    fibonacci_boundary_swap,
    fibonacci_savage,
    is_balanced,
    is_nontransitive,
    majority_digraph,
    realize_k3,
    validate_dice,
    verify,
    word_of_dice,
)
from ntdice.search import Tournament, iter_words


def best_seconds(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def report(number, text):
    print(f"criterion {number}: PASS - {text}")


def brute_beats(xs, ys):
    return sum(1 for u in xs for v in ys if u > v)


def test_criterion_1_classic_example_reproduction():
    dice = validate_dice([[9, 5, 1], [8, 4, 3], [7, 6, 2]])
    verdict = verify(dice)
    assert verdict.classification is Classification.BALANCED_NONTRANSITIVE
    assert cycle_odds(dice) == (WinOdds(5, 9), WinOdds(5, 9), WinOdds(5, 9))
    elapsed = best_seconds(lambda: verify(dice))
    assert elapsed < 1e-3
    report(1, f"verdict balanced-nontransitive, odds 5/9 x3, {elapsed * 1e6:.0f}us")


def test_criterion_2_doubled_base_gives_19_of_36():
    base = word_of_dice(BASE_TRIPLES[3])

    def build():
        return dice_of_word(concat_words(base, base))

    doubled = build()
    assert doubled.n == 6
    assert cycle_odds(doubled) == (WinOdds(19, 36),) * 3
    elapsed = best_seconds(lambda: cycle_odds(build()))
    assert elapsed < 1e-3
    report(2, f"6-sided concatenation, odds 19/36 x3, {elapsed * 1e6:.0f}us")


def test_criterion_3_face_sum_theorem_exhaustive():
    start = time.perf_counter()
    exceptions = 0
    checked = 0
    for n in (3, 4):
        nsq = n * n
        for letters in iter_words(n, 3):
            rows = ([], [], [])
            for pos, ch in enumerate(letters, 1):
                rows[ord(ch) - 97].append(pos)
            wins = [brute_beats(rows[i], rows[(i + 1) % 3]) for i in range(3)]
            balanced = wins[0] == wins[1] == wins[2]
            sums_equal = sum(rows[0]) == sum(rows[1]) == sum(rows[2])
            if balanced != sums_equal:
                exceptions += 1
            if not balanced:
                expected = Classification.UNBALANCED
            elif 2 * wins[0] == nsq:
                expected = Classification.BALANCED_FAIR
            elif 2 * wins[0] > nsq:
                expected = Classification.BALANCED_NONTRANSITIVE
            else:
                expected = Classification.BALANCED_REVERSE
            assert verify(dice_of_word(Word(letters, 3))).classification is expected
            checked += 1
    elapsed = time.perf_counter() - start
    assert exceptions == 0
    assert checked == 1680 + 34650
    assert elapsed < 2.0
    report(3, f"{checked} words, 0 exceptions, verify agrees, {elapsed:.2f}s")


def test_criterion_4_existence_sweep():
    start = time.perf_counter()
    for n in range(3, 31):
        triple = construct_balanced_nontransitive(n, 3)
        assert triple.n == n
        assert verify(triple).classification is Classification.BALANCED_NONTRANSITIVE
        assert face_sums(triple) == (n * (3 * n + 1) // 2,) * 3
        quad = construct_balanced_nontransitive(n, 4)
        assert quad.n == n and quad.m == 4
        assert is_balanced(quad) and is_nontransitive(quad)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, f"n=3..30 for 3 and 4 dice, face-sums n(3n+1)/2, {elapsed:.2f}s")


def test_criterion_5_concatenation_lemmas():
    pool = []
    for n in (3, 4, 5):
        pool.extend(Word(w, 3) for w in balanced_nontransitive_words(n, 3))
    assert len(pool) == 6 + 18 + 915
    rng = random.Random(20260810)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(200)]
    start = time.perf_counter()
    for s, t in pairs:
        combined = concat_words(s, t)
        d = dice_of_word(combined)
        assert is_balanced(d) and is_nontransitive(d)
        qs = balance_summary(s).qplus_sums
        qt = balance_summary(t).qplus_sums
        qc = balance_summary(combined).qplus_sums
        for x in range(3):
            assert qc[x] == qs[x] + qt[x] + s.n * t.n
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(5, f"200 pairs stay balanced non-transitive, win-sum identity exact, {elapsed:.2f}s")


def test_criterion_6_fibonacci_constructions():
    start = time.perf_counter()
    for k in range(4, 13):
        dice = fibonacci_savage(k)
        assert is_nontransitive(dice)
        assert not is_balanced(dice)
    for k in (5, 7, 9, 11):
        verdict = verify(fibonacci_balanced(k))
        assert verdict.classification is Classification.BALANCED_NONTRANSITIVE
    # the documented failures of the literal swap at odd Fibonacci *values*
    assert face_sums(fibonacci_boundary_swap(4)) == (13, 17, 15)
    assert face_sums(fibonacci_boundary_swap(8)) == (670, 674, 672)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(6, f"savage k=4..12 unbalanced non-transitive, swaps verify at odd k, {elapsed:.2f}s")


def test_criterion_7_desk_scale_census():
    census = enumerate_words(3, 3)
    assert census.balanced == 12
    assert census.balanced_nontransitive == 6
    assert census.irreducible_bnt == 6
    # cross-check by hand: exactly two equal-sum triple partitions of [9]
    # ({1,5,9},{2,6,7},{3,4,8} and {1,6,8},{2,4,9},{3,5,7}), each giving
    # three cyclic assignments
    assert enumerate_words(1, 3).balanced_nontransitive == 0
    assert enumerate_words(2, 3).balanced_nontransitive == 0
    report(7, "census(3,3) = 12 balanced / 6 bnt / 6 irreducible; none at n=1,2")


def test_criterion_8_k3_realizations():
    import itertools

    start = time.perf_counter()
    realized = 0
    for flips in itertools.product([False, True], repeat=3):
        edges = frozenset(
            (j, i) if flip else (i, j)
            for (i, j), flip in zip([(0, 1), (0, 2), (1, 2)], flips)
        )
        tournament = Tournament.from_edges(3, edges)
        for n in (3, 5, 8):
            dice = realize_k3(tournament, n)
            assert majority_digraph(dice) == edges
            realized += 1
    elapsed = time.perf_counter() - start
    assert realized == 24
    assert elapsed < 1.0
    report(8, f"all 8 orientations realized at n=3,5,8, digraphs exact, {elapsed:.2f}s")


def test_criterion_9_four_dice_examples():
    expected_odds = {3: WinOdds(5, 9), 4: WinOdds(9, 16), 5: WinOdds(13, 25)}
    for n, odds in expected_odds.items():
        quad = BASE_QUADS[n]
        assert cycle_odds(quad) == (odds,) * 4
        assert is_balanced(quad) and is_nontransitive(quad)
    assert face_sums(BASE_QUADS[3]) == (19, 20, 20, 19)
    report(9, "quad cycle odds 5/9, 9/16, 13/25; 3-sided quad balanced with unequal face-sums")


def test_criterion_10a_verify_large_set_is_fast():
    rng = random.Random(3000)
    labels = list(range(1, 9001))
    rng.shuffle(labels)
    random_set = validate_dice([labels[0:3000], labels[3000:6000], labels[6000:9000]])
    random_elapsed = best_seconds(lambda: verify(random_set), repeats=3)
    assert random_elapsed < 2.0
    # a balanced set cannot shortcut at the face-sum screen, so this path
    # exercises the full pairwise comparison
    balanced_set = construct_balanced_nontransitive(3000, 3)
    balanced_elapsed = best_seconds(lambda: verify(balanced_set), repeats=3)
    assert verify(balanced_set).classification is Classification.BALANCED_NONTRANSITIVE
    assert balanced_elapsed < 2.0
    report(
        10,
        f"verify n=3000: random {random_elapsed * 1e3:.1f}ms, "
        f"balanced {balanced_elapsed * 1e3:.1f}ms",
    )


def test_criterion_10b_census_n6_under_budget_and_deterministic():
    start = time.perf_counter()
    serial = enumerate_words(6, 3, jobs=1)
    serial_elapsed = time.perf_counter() - start
    assert serial_elapsed < 300.0

    start = time.perf_counter()
    parallel = enumerate_words(6, 3, jobs=2)
    parallel_elapsed = time.perf_counter() - start
    assert parallel_elapsed < 300.0

    assert serial == parallel
    assert serial.total_words == 17153136
    # every reducible word at n=6 is a concatenation of two of the six
    # 3-sided balanced non-transitive words
    assert serial.balanced_nontransitive - serial.irreducible_bnt == 36
    report(
        10,
        f"census(6,3): {serial.total_words} words, serial {serial_elapsed:.0f}s, "
        f"2 jobs {parallel_elapsed:.0f}s, counts identical",
    )
