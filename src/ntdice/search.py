"""Word enumeration, census, and tournament realization.

The census lists no words. Its total is the closed form, and whether a word
is balanced or non-transitive depends only on its final cycle-win vector,
so a layered transfer-matrix DP over (letters placed, upper win end) per
die counts those classes (``_census_layers``). Whether a balanced
non-transitive word is irreducible depends only on that vector and on the
cycle wins at each cut where every die has placed the same number of
letters, so the same DP, carrying one threshold per state
(``_cut_threshold``), counts the irreducible words too. Each DP layer keeps
one state per orbit of the letter rotation x -> succ x, about m times fewer
states than one per rotation, and ``_census_layers`` shows why stepping one
representative per orbit is exact.

The census, the balanced non-transitive scan and realization search all
prune with one bound and carry one state for it: ``placed``, each die's
count of letters, plus ``hi``, the upper end of the wins a die can still
end with over a die y it must beat (its cycle successor for the census and
the scan, each die it beats in the tournament for realization). A letter
beats every letter already placed, so each of the n - placed[x] letters x
still places wins between placed[y] and n of its rolls against y, and

    hi = wins so far + (n - placed[x])·n.

Placing a letter of x wins it placed[y] rolls of the n the end allowed, so
hi drops by n - placed[y] and no other die's end moves; once x's n letters
are down, hi is its final win count, so a test that prunes a prefix on hi
decides a full word exactly. The lower end needs no state of its own:

    lo = hi - (n - placed[x])·(n - placed[y]).

It stays put when x places a letter (the letter won exactly what the end
counted on) and rises by n - placed[w] for the die w that must beat x
(each of w's letters still to come now beats one more letter of x). The
scan wants every cycle win to meet at one W with 2W > n², the census at
one W >= ceil(n²/2) (below), so from a state's extremes and the two ends a
letter moves, the DP tests each successor and the scan steps hi and lo in
place. Realization wants each required end to stay at n²//2 + 1 or above
and needs no lower end; it walks nothing at n <= 2 for a tournament that
is not transitive (``search_realization``).

The census DP needs only the upper half of the balanced spectrum. The
letter reflection sigma: x -> -x mod m maps a word's cycle-win vector c to

    c'[y] = n² - c[-y-1],

since die y of the image holds the letters of die -y, its successor those
of die -y-1, and each of the n² rolls of two dice is won by exactly one of
them. So sigma maps the balanced words with common win count W one-to-one
onto those with n² - W, and

    balanced = 2·(balanced non-transitive) + fair,

where a fair word has 2W = n², which needs n even. The DP therefore asks
only whether the intervals can still meet at some W >= ceil(n²/2), and
keeps a state that no longer can, marked, for the non-transitive count
alone (``_census_layers``).

Listing words, the balanced non-transitive scan and realization search
share one backtracker, ``_backtrack``: one loop (``_walk``) that visits
words in lexicographic order and owns the walk. Each caller brings only
its rule, and the two listings share suffixes through a memoized tail
built by the same loop one letter at a time.
Nothing runs in parallel, so results never depend on ``jobs``, which is
accepted and ignored.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from operator import itemgetter

from .construct import _check_labels, construct_balanced_nontransitive
from .core import (
    ALPHABET,
    DiceSet,
    Word,
    _Record,
    _cycle_pass,
    _is_plain_int,
    _require_ints,
    beat_count,
    dice_of_word,
    integer,
    reorder_dice,
)
from .errors import (
    BudgetExceeded,
    ConstructionError,
    NotBalancedNontransitive,
    SearchSizeError,
    SidesTooSmall,
    TournamentSpecError,
    ValueOutOfRange,
)

DEFAULT_BUDGET = 10 ** 8

# Most suffixes one memoized tail list of ``_backtrack`` may hold.
_TAIL_WORDS = 10 ** 4

# Most digits of a word count that a budget error names exactly.
_EXACT_DIGITS = 30


class Census(_Record):
    """Aggregate counts over every word of one size."""

    n: int
    m: int
    total_words: int
    balanced: int
    nontransitive: int
    balanced_nontransitive: int
    irreducible_bnt: int


class Tournament(_Record):
    """An orientation of the complete graph: (i, j) in edges means i beats j."""

    m: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edges(cls, m: int, edges) -> "Tournament":
        if not _is_plain_int(m):
            raise TournamentSpecError(f"vertex count {m!r} is not an integer")
        if m < 2:
            raise TournamentSpecError(f"need at least 2 vertices, got {m}")
        chosen = set()
        for edge in edges:
            # Only a 2-tuple is an edge; anything else fails as (None, None).
            i, j = edge if isinstance(edge, tuple) and len(edge) == 2 else (None, None)
            plain = _is_plain_int(i) and _is_plain_int(j)
            if not (plain and i != j and 0 <= i < m and 0 <= j < m):
                raise TournamentSpecError(f"bad edge {edge!r} for {m} vertices")
            chosen.add(edge)
        for i in range(m):
            for j in range(i + 1, m):
                forward, backward = (i, j) in chosen, (j, i) in chosen
                if forward and backward:
                    raise TournamentSpecError(
                        f"contradictory directions for pair {i + 1},{j + 1}"
                    )
                if not forward and not backward:
                    raise TournamentSpecError(
                        f"missing direction for pair {i + 1},{j + 1}"
                    )
        return cls(m, frozenset(chosen))

    @classmethod
    def from_text(cls, text: str) -> "Tournament":
        """Parse a comma-separated edge list like ``1>2,2>3,3>1`` (1-based)."""
        edges = set()
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                i, j = [integer(part.strip()) for part in token.split(">")]
            except ValueError:  # not two integers
                i = j = None
            if i is None or i == j:
                raise TournamentSpecError(f"cannot parse edge {token!r}")
            if i < 1 or j < 1:
                raise TournamentSpecError(f"vertices are numbered from 1: {token!r}")
            edges.add((i - 1, j - 1))
        if not edges:
            raise TournamentSpecError("empty tournament specification")
        return cls.from_edges(1 + max(map(max, edges)), edges)

    def beats(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def out_degrees(self) -> tuple[int, ...]:
        degrees = [0] * self.m
        for i, _ in self.edges:
            degrees[i] += 1
        return tuple(degrees)


def word_count(n: int, m: int) -> int:
    """Number of distinct words: (m*n)! / (n!)^m."""
    _require_ints(SearchSizeError, n=n, m=m)
    return math.factorial(m * n) // math.factorial(n) ** m


def _check_budget(n: int, m: int, budget: int) -> int:
    """The exact word count, or BudgetExceeded when it is over ``budget``.

    The count's decimal digits are estimated first from log-gamma. A space
    estimated past both 10^_EXACT_DIGITS and ten times the budget is refused
    from the estimate alone, as about 10^k words with ``total_words`` None,
    so a huge n costs neither (mn)! nor a number too long to print. In
    every other case the exact count decides, and it names itself in the
    error when it has at most _EXACT_DIGITS digits.
    """
    _require_ints(SearchSizeError, n=n, m=m, budget=budget)
    if n < 1:
        raise SearchSizeError(f"need at least one side, got n={n}")
    if not 2 <= m <= len(ALPHABET):
        raise SearchSizeError(f"alphabet size {m} outside 2..{len(ALPHABET)}")
    try:
        digits = (math.lgamma(m * n + 1) - m * math.lgamma(n + 1)) / math.log(10)
    except OverflowError:  # m·n past the float range
        digits = math.inf
    total = None
    if digits <= max(_EXACT_DIGITS, math.log10(max(budget, 1)) + 1):
        total = word_count(n, m)
        if total <= budget:
            return total
    if digits <= _EXACT_DIGITS:
        size = str(total)
    else:
        size = f"about 10^{digits:.0f}" if digits < math.inf else "over 10^308"
    raise BudgetExceeded(f"{size} words at n={n}, m={m} exceed budget {budget}", total)


def _cut_threshold(j: int, n: int, wins: int) -> int:
    """Least final cycle-win count W at which a cut splits off a balanced
    non-transitive suffix, for a balanced non-transitive prefix of j letters
    per die with cycle wins ``wins``.

    Each suffix letter of die x beats all j prefix letters of succ x, so the
    suffix's cycle wins are W - wins - j(n - j): balanced whenever the whole
    word is, and non-transitive once they pass (n - j)²/2.
    """
    return wins + j * (n - j) + (n - j) ** 2 // 2 + 1


def is_irreducible(word: Word) -> bool:
    """True when no cut splits the word into two balanced non-transitive words.

    One pass of ``core._cycle_pass``: at each cut where every die has placed
    j letters with equal cycle wins Wp and 2·Wp > j², the word would split
    once its final wins W reach ``_cut_threshold(j, n, Wp)``; ``thr`` keeps
    the least of these.
    """
    m, n = word.m, word.n
    thr = n * n + 1
    for j, (placed, cyc) in enumerate(_cycle_pass(word)):
        wins = cyc[0]
        if j < n and 2 * wins > j * j and placed == [j] * m and cyc == [wins] * m:
            thr = min(thr, _cut_threshold(j, n, wins))
    if cyc != [wins] * m or 2 * wins <= n * n:
        raise NotBalancedNontransitive(
            f"{word.letters!r} is not balanced non-transitive"
        )
    return wins < thr


def _tail_length(n: int, m: int) -> int:
    """Letters the memoized tail of a walk with ends covers: the largest t
    with m^t <= _TAIL_WORDS, and at most mn - 1 (``_backtrack`` says why)."""
    t = 0
    while m ** (t + 1) <= _TAIL_WORDS:
        t += 1
    return min(t, m * n - 1)


def _tail(walk: tuple, left: int) -> list[str]:
    """Every completion of the current prefix, ``left`` letters long, in
    lexicographic order, memoized per state ``placed`` + ``ends``
    (``_backtrack``): a ``_walk`` that places one letter and appends each
    completion one letter shorter. A full word's one completion is the
    empty suffix, returned before ``ends`` is read, so a walk with no ends
    calls it too.

    A plain function, not a closure, so ``memo`` is freed by reference
    counting as soon as the walk that owns it ends. It recurses, through
    ``_walk``, once per tail letter, so its depth is bounded by the tail's
    length, not the word's.
    """
    if not left:
        return [""]
    memo, placed, n, push, pop, ends = walk
    state = tuple(placed) + tuple(ends)
    found = memo.get(state)
    if found is None:
        found = memo[state] = list(_walk(walk, left, left - 1))
    return found


def _walk(walk: tuple, left: int, t: int) -> Iterator[str]:
    """Every live completion of the current prefix, ``left`` letters long,
    in lexicographic order (``_backtrack``), for t < left. ``walk`` is the
    run's constants, ``(memo, placed, n, push, pop, ends)``.

    One loop, depth first: ``path`` holds the letters placed below the
    start, ``prefix`` spells them, and x is the next letter to try after
    them. A live letter that leaves more than t letters to place goes onto
    ``path``; one that leaves t is followed by each of ``_tail``'s
    completions and undone. When every letter has been tried, the last
    letter of ``path`` is undone and its next one tried, so the loop's
    memory is linear in ``left``.
    """
    _, placed, n, push, pop, _ = walk
    m = len(placed)
    inner = left - t - 1  # letters on ``path`` when the next one is the last
    path: list[int] = []
    prefix = ""
    x = 0
    while True:
        if x < m:
            count = placed[x]
            if count < n:
                placed[x] = count + 1
                if not push(x):
                    if len(path) < inner:
                        path.append(x)
                        prefix += ALPHABET[x]
                        x = 0
                        continue
                    head = prefix + ALPHABET[x]
                    for suffix in _tail(walk, t):
                        yield head + suffix
                placed[x] = count
                pop(x)
            x += 1
        elif path:
            x = path.pop()
            placed[x] -= 1
            pop(x)
            prefix = prefix[:-1]
            x += 1
        else:
            return


def _backtrack(
    n: int, m: int, budget: int, rule: Callable[[list[int]], tuple]
) -> Iterator[str]:
    """Walk every word with n of each of m letters in lexicographic order.

    Not a generator itself: it refuses a size out of range or over
    ``budget`` (``_check_budget``) as soon as it is called, then returns
    the walk, the ``_walk`` generator. The walk is a loop, not a
    recursion, so it answers at any depth of the caller's stack and for
    any word length the budget admits.

    The walk owns ``placed``, the prefix's count of each letter.
    ``rule(placed)`` is called once, after the check, so a caller builds
    its m-sized state only for sizes the budget admits; it returns the
    caller's ``(push, pop, ends)``. After each placement of letter x, the
    one that completes a word included, the walk counts it in ``placed``
    and calls ``push(x)``, which reads ``placed``, steps the caller's ends
    (the bound of the module docstring) and answers whether the prefix is
    dead; before undoing a placement it uncounts it and calls ``pop(x)``,
    which undoes the step. A true answer cuts the subtree below an inner
    node and drops a full word, so ``push`` is the one leaf rule.

    The walk stops t letters short of a word and yields each live prefix
    followed by each of its completions from ``_tail``. A caller
    whose ``push`` answers depend only on ``placed`` and on the list
    ``ends`` (``hi`` for the scan, an empty list for ``iter_words``)
    passes that list to memoize the tail: a prefix's completions then
    depend only on ``placed`` + ``ends``, so ``_tail`` builds each state's
    list once, the first time the state is reached. The tail is
    t = ``_tail_length(n, m)`` letters long: at most m^t <= _TAIL_WORDS
    suffixes have t letters, so no list outgrows that, and t < mn, so the
    walk places at least the first letter itself and even a space that
    fits one list streams one first letter at a time. Under a fixed prefix
    the suffix order is the word order, so the stream is the plain walk's.
    The memo belongs to the walk and goes when the walk ends.

    ``ends`` None gives the plain walk: t = 0, so every word is walked to
    its last letter, with the caller's state at that leaf when it is
    yielded. Realization passes None: it wants only the first word, and a
    memoized walk builds the first list whole before its first word comes
    out.
    """
    _check_budget(n, m, budget)
    placed = [0] * m
    push, pop, ends = rule(placed)
    t = 0 if ends is None else _tail_length(n, m)
    return _walk(({}, placed, n, push, pop, ends), m * n, t)


def iter_words(n: int, m: int = 3, budget: int = DEFAULT_BUDGET) -> Iterator[str]:
    """Yield every word with n of each of the first m letters, lexicographically."""
    no_rule = (lambda x: False, lambda x: None, [])
    return _backtrack(n, m, budget, lambda placed: no_rule)


def _census_layers(n: int, m: int) -> Iterator[dict[tuple[int, ...], list[int]]]:
    """The census DP's layers as built, one per letter, each a dict from
    state to ``[mass, high, low]``; ``enumerate_words`` tallies the last one.

    A layered transfer-matrix DP over states (placed[x], hi[x]) per die x,
    kept as the flat pairs placed[0], hi[0], ..., placed[m-1], hi[m-1],
    plus ``thr``. hi[x] starts at n² and is x's upper cycle-win end over
    succ x, stepped by the bound of the module docstring, which reads
    nothing but the state, so prefixes that share a state share their
    completions. The DP counts only the balanced words whose common win
    count W is at least half = ceil(n²/2), and the tally gives balanced =
    2·bnt + fair, with fair the words at 2W = n², by the letter reflection
    of the module docstring. A state is dropped once its cycle-win
    intervals show it can end neither balanced at such a W nor
    non-transitive (they cannot meet at or above half, and some upper end
    is short of need = n²//2 + 1), which is why the total comes from the
    closed form. Each state carries its extremes with its mass: ``high``,
    the least upper end, and ``low``, the greatest lower end (each die's
    lower end derived from its hi) floored at half. A letter of x moves
    only x's hi, down, and pred x's lower end, up (module docstring), so
    the successor's extremes are the parent's with those two ends folded
    in, ``top`` and ``bottom``: the step tests the successor from them and
    stores them with it when its key is first reached, and a later prefix
    reaching that key adds only its mass. For an unmarked state both are
    exact: its parent was unmarked too, so no end on its way was clamped,
    and the start state's are n² and half. A marked state's ``low`` is
    never read, since its mark stays 0 whatever it is, and its ``high`` is
    read only against need; every cap below is at least need, so clamping
    an end never changes whether it is below need, and ``high`` answers
    that question for the clamped state as for the unclamped one. In the
    last layer every die has placed n letters, so hi is the cycle-win
    vector, and an unmarked state's ends all equal one W >= half: it is
    balanced with no test, balanced non-transitive when 2W > n² and fair
    otherwise.

    A successor whose intervals cannot meet at or above half can no longer
    end balanced there. It survives only if every upper end still reaches
    need, and it is stored marked, with ``thr`` = 0 (a real threshold is at
    least 1). The mark is permanent, since upper ends only fall and lower
    ends only rise. In a marked state the one question left for each die is
    whether it ends at need or above, and a die whose lower end has reached
    need answers it whatever follows. So its upper end is clamped at the cap

        need + (n - placed[x])·(n - placed[succ x]),

    the least upper end whose lower end is need: hi[x] exceeds the cap
    exactly when x's lower end exceeds need. The clamped end's lower end,
    need, never falls afterwards, so the final test gives the same answer,
    and states that differ only in such ends merge. A successor that this
    step marks is clamped on every die. In a marked parent every end is
    already within its cap, and a letter of x lowers x's end and x's cap by
    the same n - placed[succ x]. The only other cap that moves is pred x's,
    which falls by as much as pred x's lower end rises, so only that end
    is re-clamped, when that lower end passes need: O(1), not m clamps.
    A marked state keeps ``thr`` = 0, so its successors stay marked;
    it is dropped as soon as some upper end falls below need, skips the
    cut rule, and is tallied as non-transitive only: its clamped ends may
    look equal, so it is never tested for balance.

    Irreducibility is decided by the state too, by the rule of
    ``is_irreducible``: ``thr`` starts at n² + 1 and, at each cut where
    every die has placed j letters and the prefix is balanced non-transitive
    with wins Wp = hi - (n - j)·n, drops to ``_cut_threshold(j, n, Wp)`` if
    that is lower. A balanced non-transitive word is irreducible when its
    final wins W < thr.

    Each layer keeps one state per orbit of the letter rotation
    rho: x -> succ x, keyed by the least rotation of its pairs, and stores
    the orbit's total mass: the number of prefixes that reach any of its
    states. The step commutes with rotation, step(rho s, rho x) =
    rho step(s, x), so the states of one orbit are reached equally often and
    the successors of a rotated state are the rotated successors. Stepping
    the representative alone by every letter, carrying the orbit's total
    mass, therefore adds exactly the right mass to each successor orbit.
    The prune, the cut rule and the final tally see only rotation-invariant
    facts (extremes over all dice, all dice equal), the mark is one such
    fact and each die's cap reads only its own and its successor's counts,
    so marking and clamping commute with rotation too. No mass is ever
    divided by an orbit's size, so orbits shorter than m (the start state,
    balanced cuts, periodic states when m is composite) need no special
    case.

    The step is die-major: for each die x in turn it steps every state of
    the layer by a letter of x. Each state's ``thr``, lowered on a cut
    layer, is computed once, before the die loops, into a row with its mass
    and extremes. A letter of x first lowers x's hi, and a successor whose
    hi is below half is dropped at once: every stored state has low >= half,
    so the successor's bottom would exceed its top and its top would be
    below need. The later test would drop it too; at odd n, where half =
    need, this test makes every drop. A kept successor is built in its own
    list ``ends``, a copy of the state with its ``thr`` slot: the step
    writes x's new count, its upper end ``hi`` and the mark, clamps it in
    place, and takes the tuple. A marked state's carried ``high`` and
    ``low`` are those of whichever parent reaches it first, in this
    die-major order. Which one does not matter: only ``high`` is read, and
    only against need, and every stored marked state has every end and
    ``high`` at need or above, so each of its parents answers that question
    alike. Each rotation by k pairs is one ``itemgetter`` gather, built once
    per call, that rotates the pairs and keeps the mark last, so a key is
    its least rotation followed by the mark and keys order exactly as the
    pairs with the mark appended did.
    """
    nsq = n * n
    need = nsq // 2 + 1
    half = (nsq + 1) // 2
    width = 2 * m
    # Each die's count and upper-end indices, its successor's count index,
    # and its predecessor's count and upper-end indices.
    dice = [
        (2 * x, 2 * x + 1, 2 * ((x + 1) % m), 2 * ((x - 1) % m), 2 * ((x - 1) % m) + 1)
        for x in range(m)
    ]
    # Each rotation by k pairs, as one gather that keeps the mark last.
    turns = [
        (k, itemgetter(*range(k, width), *range(k), width)) for k in range(2, width, 2)
    ]
    layer = {(0, nsq) * m + (nsq + 1,): [1, nsq, half]}
    for depth in range(m * n):
        j = depth // m
        cut = j and depth == m * j
        rows = []
        for state, (mass, high, low) in layer.items():
            thr = state[width]
            if thr and cut:
                wins = state[1] - (n - j) * n
                if 2 * wins > j * j and state[:width] == (j, state[1]) * m:
                    thr = min(thr, _cut_threshold(j, n, wins))
            rows.append((state, mass, high, low, thr))
        following: dict[tuple[int, ...], list[int]] = {}
        stored = following.get
        for at, up, s, p, pu in dice:
            for state, mass, high, low, thr in rows:
                count = state[at]
                if count == n:
                    continue
                # The two ends a letter of this die moves, ``hi`` and its
                # predecessor's ``lo``, give the successor's extremes.
                hi = state[up] - n + state[s]
                if hi < half:
                    continue  # below low >= half: unbalanced, and hi < need
                top = hi if hi < high else high
                lo = state[pu] - (n - state[p]) * (n - count - 1)
                bottom = lo if lo > low else low
                # 0 once it can no longer end balanced at W >= half.
                mark = thr if bottom <= top else 0
                if not mark and top < need:
                    continue
                ends = list(state)
                ends[at] = count + 1
                ends[up] = hi
                ends[width] = mark
                if not mark:
                    if thr:
                        # Marked by this step: clamp every die's upper end.
                        for a, u, b, _, _ in dice:
                            cap = need + (n - ends[a]) * (n - ends[b])
                            if ends[u] > cap:
                                ends[u] = cap
                    elif lo > need:
                        # Marked before: only pred x's cap fell below its end.
                        ends[pu] = need + (n - state[p]) * (n - count - 1)
                src = tuple(ends)
                key = src
                for k, turn in turns:
                    if src[k] <= key[0]:  # else this rotation sorts later
                        turned = turn(src)
                        if turned < key:
                            key = turned
                entry = stored(key)
                if entry is None:
                    following[key] = [mass, top, bottom]
                else:
                    entry[0] += mass
        layer = following
        yield layer


def enumerate_words(
    n: int, m: int = 3, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Census:
    """Census of every valid word.

    No word is walked to count it: the total is the closed form and the
    balanced, non-transitive, balanced non-transitive and irreducible
    counts all come from the last layer of the DP in ``_census_layers``,
    tallied here, which counts the balanced words as
    2·(balanced non-transitive) + fair by the letter reflection of the
    module docstring. ``jobs`` is accepted for compatibility and ignored.
    """
    total = _check_budget(n, m, budget)
    for layer in _census_layers(n, m):  # to the last, one layer alive at a time
        pass
    fair = nontransitive = bnt = irreducible = 0
    for state, (mass, _, _) in layer.items():
        thr = state[-1]
        if not thr:
            # Marked: non-transitive only, never tested for balance.
            nontransitive += mass
            continue
        # Unmarked: every end is the common final W, and W >= half.
        wins = state[1]
        if 2 * wins > n * n:
            nontransitive += mass
            bnt += mass
            if wins < thr:
                irreducible += mass
        else:
            fair += mass
    return Census(
        n=n,
        m=m,
        total_words=total,
        balanced=2 * bnt + fair,
        nontransitive=nontransitive,
        balanced_nontransitive=bnt,
        irreducible_bnt=irreducible,
    )


def balanced_nontransitive_words(
    n: int, m: int = 3, budget: int = DEFAULT_BUDGET
) -> Iterator[str]:
    """Yield every balanced non-transitive word in lexicographic order.

    One pruned walk for any number of dice: a prefix is cut as soon as the
    dice's cycle-win intervals cannot meet at one W with 2W > n². For three
    dice the balance half of this bound is exactly the face-sum
    reachability cut (die x's extreme face-sums are the ends of the
    intervals of x and of its predecessor), so no separate face-sum test is
    needed. At a full word nothing is left to place, every interval is the
    die's final cycle-win count, and the same test passes exactly the
    balanced non-transitive words, so the walk yields nothing else.

    The rule is ``_bnt_rule``; its upper ends are the walk's state, so the
    walk memoizes its tail (``_backtrack``).
    """
    return _backtrack(n, m, budget, lambda placed: _bnt_rule(n, m, placed)[:3])


def _bnt_rule(n: int, m: int, placed: list[int]):
    """The scan's rule for ``_backtrack``, and the intervals it steps:
    (push, pop, hi, lo).

    hi[x] and lo[x] are the ends of die x's final cycle-win interval,
    stepped as the module docstring derives: a letter moves two ends, so
    ``push`` steps those and answers whether the extremes can no longer
    meet at one W with 2W > n². ``hi`` alone, with ``placed``, is the walk's
    state, so it is the rule's ``ends``. ``lo`` follows from ``hi`` and
    ``placed`` and needs no state of its own, but it is stepped all the
    same: deriving it in each ``push`` measured +18% on the (6, 3) and
    (3, 4) listings.
    """
    need = n * n // 2 + 1
    succ = [(x + 1) % m for x in range(m)]
    hi = [n * n] * m
    lo = [0] * m

    # The two interval ends a letter of x moves, and their inverse;
    # lo[-1] is the predecessor of die 0.
    def push(x: int) -> bool:
        hi[x] -= n - placed[succ[x]]
        lo[x - 1] += n - placed[x - 1]
        return max(max(lo), need) > min(hi)

    def pop(x: int) -> None:
        hi[x] += n - placed[succ[x]]
        lo[x - 1] -= n - placed[x - 1]

    return push, pop, hi, lo


def majority_digraph(dice_set: DiceSet) -> frozenset[tuple[int, int]]:
    """Directed edge (i, j) whenever die i beats die j strictly more than half.

    Fair pairs contribute no edge, so the result is a tournament exactly
    when no pair is fair.
    """
    n2 = dice_set.n * dice_set.n
    edges = set()
    for i in range(dice_set.m):
        for j in range(i + 1, dice_set.m):
            wins = beat_count(dice_set, i, j)
            if 2 * wins > n2:
                edges.add((i, j))
            elif 2 * wins < n2:
                edges.add((j, i))
    return frozenset(edges)


def realize_k3(tournament: Tournament, n: int) -> DiceSet:
    """Closed-form realization of any 3-vertex tournament by n-sided dice.

    A directed 3-cycle maps onto the constructed balanced non-transitive
    set (n >= 3); an acyclic orientation is a total order, realized by
    consecutive label blocks for any n >= 1. Either way 3·n labels past
    ``construct.MAX_LABELS`` are refused before anything is built.
    """
    if tournament.m != 3:
        raise ValueOutOfRange(f"closed form covers 3 vertices, got {tournament.m}")
    _check_labels(n, 3)
    if n < 1:
        raise SidesTooSmall(f"need at least one side, got n={n}")
    degrees = tournament.out_degrees()
    if sorted(degrees) == [1, 1, 1]:
        if n < 3:
            raise SidesTooSmall(f"a cyclic tournament needs at least 3 sides, got {n}")
        # The base set's cycle is a > b > c > a; the other 3-cycle swaps b and c.
        result = construct_balanced_nontransitive(n, 3)
        if not tournament.beats(0, 1):
            result = reorder_dice(result, (0, 2, 1))
    else:
        # Total order: the block word, weakest vertex (out-degree 0) first.
        blocks = "".join(ALPHABET[degrees.index(d)] * n for d in range(3))
        result = dice_of_word(Word(blocks, 3))
    if majority_digraph(result) != tournament.edges:
        raise ConstructionError("realization does not reproduce the tournament")
    return result


def search_realization(
    tournament: Tournament, n: int, budget: int = DEFAULT_BUDGET
) -> DiceSet | None:
    """Lexicographically first dice set whose full majority digraph equals
    the tournament, or None when no n-sided realization exists.

    Backtracking over words with one upper end hi[x][y] per required edge
    x -> y (``_edge_rule``), the bound of the module docstring with y as
    the beaten die: a prefix is dead once some end falls below ``need`` =
    n²//2 + 1. That test is exact on a full word, so every word the walk
    yields realizes the tournament and the first one is the answer.

    No bound on a required loss is needed: it could never prune. For an
    edge y -> x, x's final wins over y must stay at most n² - ``need``. Its
    lower end there is wins[x][y] + (n - placed[x])·placed[y], and as the
    two dice's wins over each other sum to placed[x]·placed[y], that lower
    end is n² - hi[y][x]. So the loss bound fails exactly when y's own end
    falls below ``need``. That end moves only when y places a letter, and
    y's push then tests it, so a live prefix never breaks the loss bound.

    Dice with one or two sides realize only transitive tournaments, those
    whose out-degrees are 0, 1, ..., m - 1, so for any other tournament at
    such n the answer is None without a walk, once the budget has admitted
    the size. At n = 1 the higher label wins. At n = 2, with x1 > x2 and
    y1 > y2, x wins at least 3 of the 4 rolls exactly when x1 > y1 and
    x2 > y2: if y1 > x1, y1 beats both of x's labels, and if y2 > x2, x2
    loses to both of y's. So "beats" is a dominance order, which is
    transitive. Seen another way, a tournament that is not transitive has
    a 3-cycle u -> v -> w -> u, and the joint bound on it holds already
    with nothing placed: any three letters, one per die, meet at most two
    of the three cyclic "later than" relations, so the cycle's three win
    counts sum to at most 2n², while each needs n²//2 + 1, and
    3·(n²//2 + 1) <= 2n² fails exactly when n is 1 or 2. Transitive
    tournaments at those n, and every tournament at n >= 3, are walked.
    """
    m = tournament.m
    _require_ints(SearchSizeError, n=n)
    if n <= 2 and sorted(tournament.out_degrees()) != list(range(m)):
        _check_budget(n, m, budget)
        return None
    walk = _backtrack(n, m, budget, lambda placed: _edge_rule(tournament, n, placed)[:3])
    word = next(walk, None)
    return None if word is None else dice_of_word(Word(word, m))


def _edge_rule(tournament: Tournament, n: int, placed: list[int]):
    """Realization's rule for ``_backtrack``, and the ends it steps:
    (push, pop, None, hi).

    hi[x][y], for each edge x -> y of the tournament, is the upper end of
    x's final wins over y; ``push`` answers whether an end of the placed
    die fell below n²//2 + 1. The walk pushes only onto live prefixes,
    and no other end moved, so that is whether any end did. Its ends are
    None, so the walk is not memoized (``_backtrack`` says why).
    """
    m = tournament.m
    need = n * n // 2 + 1
    beaten: list[list[int]] = [[] for _ in range(m)]
    for x, y in sorted(tournament.edges):
        beaten[x].append(y)
    hi = [[n * n] * m for _ in range(m)]

    def push(x: int) -> bool:
        row = hi[x]
        dead = False
        for y in beaten[x]:
            row[y] -= n - placed[y]
            if row[y] < need:
                dead = True
        return dead

    def pop(x: int) -> None:
        row = hi[x]
        for y in beaten[x]:
            row[y] += n - placed[y]

    return push, pop, None, hi
