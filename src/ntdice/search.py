"""Word enumeration, census, and tournament realization.

The census lists no words. Its total is the closed form, and whether a word
is balanced or non-transitive depends only on its final cycle-win vector,
so a layered transfer-matrix DP over (letters placed, upper win end) per
die counts those classes. Whether a balanced non-transitive word is
irreducible depends only on that vector and on the cycle wins at each cut
where every die has placed the same number of letters, so the same DP,
carrying one threshold per state, counts the irreducible words too.
Rotating the letters (x -> succ x) maps the cycle of dice onto itself, so
each DP layer keeps one state per rotation orbit with the orbit's total
prefix count, about m times fewer states than one per rotation.

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
place. Realization wants each
required end to stay at n²//2 + 1 or above and needs no lower end.

The census DP needs only the upper half of the balanced spectrum. The
letter reflection sigma: x -> -x mod m maps a word's cycle-win vector c to

    c'[y] = n² - c[-y-1],

since die y of the image holds the letters of die -y, its successor those
of die -y-1, and each of the n² rolls of two dice is won by exactly one of
them. So sigma maps the balanced words with common win count W one-to-one
onto those with n² - W, and

    balanced = 2·(balanced non-transitive) + fair,

where a fair word has 2W = n², which needs n even. The DP therefore asks
only whether the intervals can still meet at some W >= ceil(n²/2).

It also forgets what can no longer change its counts. A state whose
intervals cannot meet at such a W can end balanced only below n²/2 or not
at all, and stays so, since upper ends only fall and lower ends only rise;
the DP marks it and keeps it only for the non-transitive count. For a
marked state the one question left is whether each die ends at n²//2 + 1
or above, and a die whose lower end has reached that answers it whatever
follows. Its upper end is clamped at the end whose lower end is exactly
n²//2 + 1, so states that will finish the same way merge. A letter of x
moves x's end and x's cap together, so after the first clamp only the
predecessor's end needs it. Both the mark and the cap read only a die's
and its successor's counts, so they commute with the rotation quotient.
An unmarked state in the last layer is then a balanced word with W at or
above ceil(n²/2), so the final tally needs no balance test.

Listing words, the balanced non-transitive scan and realization search
share one iterative backtracker, ``_backtrack``, that visits words in
lexicographic order. It owns the walk: it refuses an oversized space
before returning its generator, keeps ``placed`` and spells the words it
yields. Each caller brings only its rule: ``push``, run after every
placement, steps the caller's ends and answers whether the prefix is dead,
and ``pop`` undoes that step. The answer prunes inner nodes with the bound
above and, with nothing left to place, is exact, so it also decides which
full words are yielded.

The listings share suffixes the way the census shares states. A rule
names its ``ends``, the list it steps (``hi`` for the scan, an empty list
for ``iter_words``), so that a prefix's completions depend only on
``placed`` plus those ends. The walker then stops a few letters short of a
word, at a depth fixed by (n, m), and yields the prefix followed by each
completion of its state, a list built once per state and bounded in size.
Realization names no ends: it wants only the first word, and a list is
built whole before its first word comes out, so it walks every letter.
Nothing runs in parallel, so results never depend on ``jobs``, which is
accepted and ignored.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator

from .construct import _check_labels, construct_balanced_nontransitive
from .core import (
    ALPHABET,
    DiceSet,
    Word,
    _INTEGER,
    _Record,
    _cycle_pass,
    beat_count,
    dice_of_word,
    reorder_dice,
)
from .errors import (
    BudgetExceeded,
    ConstructionError,
    NotBalancedNontransitive,
    SearchSizeError,
    SidesTooSmall,
    TournamentSpecError,
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
        if m < 2:
            raise TournamentSpecError(f"need at least 2 vertices, got {m}")
        chosen = frozenset(edges)
        for i, j in chosen:
            if i == j or not (0 <= i < m and 0 <= j < m):
                raise TournamentSpecError(f"bad edge ({i}, {j}) for {m} vertices")
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
        return cls(m, chosen)

    @classmethod
    def from_text(cls, text: str) -> "Tournament":
        """Parse a comma-separated edge list like ``1>2,2>3,3>1`` (1-based)."""
        edges = set()
        vertices: set[int] = set()
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            parts = [part.strip() for part in token.split(">")]
            try:
                if len(parts) != 2 or not all(map(_INTEGER.fullmatch, parts)):
                    raise ValueError(token)
                i, j = int(parts[0]), int(parts[1])  # ValueError past 4,300 digits
            except ValueError:
                raise TournamentSpecError(f"cannot parse edge {token!r}") from None
            if i < 1 or j < 1:
                raise TournamentSpecError(f"vertices are numbered from 1: {token!r}")
            vertices.update((i, j))
            edges.add((i - 1, j - 1))
        if not edges:
            raise TournamentSpecError("empty tournament specification")
        return cls.from_edges(max(vertices), edges)

    def beats(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def out_degrees(self) -> tuple[int, ...]:
        degrees = [0] * self.m
        for i, _ in self.edges:
            degrees[i] += 1
        return tuple(degrees)


def word_count(n: int, m: int) -> int:
    """Number of distinct words: (m*n)! / (n!)^m."""
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
    with m^t <= _TAIL_WORDS, so no tail list holds more than _TAIL_WORDS
    suffixes, and at most mn - 1, so the top walk places a letter first."""
    t = 0
    while m ** (t + 1) <= _TAIL_WORDS:
        t += 1
    return min(t, m * n - 1)


def _tail(
    memo: dict, placed: list[int], n: int, push, pop, ends: list[int], left: int
) -> list[str]:
    """Every completion of the current prefix, ``left`` letters long, in
    lexicographic order, built once per state ``placed`` + ``ends``.

    A plain recursive function, not a closure, so ``memo`` is freed by
    reference counting as soon as the walk that owns it ends.
    """
    state = tuple(placed) + tuple(ends)
    found = memo.get(state)
    if found is None:
        found = []
        left -= 1
        for x, count in enumerate(placed):
            if count == n:
                continue
            placed[x] = count + 1
            if not push(x):
                if left:
                    head = ALPHABET[x]
                    below = _tail(memo, placed, n, push, pop, ends, left)
                    found += [head + suffix for suffix in below]
                else:
                    found.append(ALPHABET[x])
            placed[x] = count
            pop(x)
        memo[state] = found
    return found


def _backtrack(
    n: int, m: int, budget: int, rule: Callable[[list[int]], tuple]
) -> Iterator[str]:
    """Walk every word with n of each of m letters in lexicographic order.

    Not a generator itself: it refuses a size out of range or over
    ``budget`` (``_check_budget``) as soon as it is called, then returns
    the walk. The walker owns ``placed``, the prefix's count of each
    letter, and only it changes them. ``rule(placed)`` is called once,
    after the check, so a caller builds its m-sized state only for sizes
    the gate admits; it returns the caller's ``(push, pop, ends)``.
    ``push`` and ``pop`` read ``placed`` and step the caller's ends (module
    docstring). After each placement of letter x, the one that completes a
    word included, the walker counts it in ``placed`` and calls
    ``push(x)``, which steps the ends and answers whether the prefix is
    dead; before undoing a placement it uncounts it and calls ``pop(x)``.
    A true answer cuts the subtree below an inner node and drops a full
    word, so ``push`` is the one leaf rule: only full words where it is
    false are yielded, spelled as strings.

    ``ends`` None gives the plain walk: every word is walked to its last
    letter, with the caller's state at that leaf when it is yielded. A
    caller whose ``push`` answers depend only on ``placed`` and on the list
    ``ends`` passes that list to memoize the tail: a prefix's completions
    then depend only on ``placed`` + ``ends``. The walk stops at depth
    top = mn - ``_tail_length(n, m)`` and yields the prefix followed by
    each suffix of that state's completion list, which ``_tail`` builds
    once, with the lists of the states below it, the first time the state
    is reached. Under a fixed prefix the suffix order is the word order, so
    the stream is the plain walk's. The memo belongs to the walk and goes
    when the walk ends. A caller that wants only the first word gains
    nothing from it, since the first list is built whole before the first
    word comes out, so realization passes no ends.
    """
    _check_budget(n, m, budget)
    placed = [0] * m
    push, pop, ends = rule(placed)
    mn = m * n
    top = mn if ends is None else mn - _tail_length(n, m)

    def walk() -> Iterator[str]:
        memo: dict = {}
        word = [0] * mn
        depth = 0
        letter = 0
        while True:
            while letter < m and placed[letter] == n:
                letter += 1
            if letter == m:
                if depth == 0:
                    return
                depth -= 1
                letter = word[depth]
                placed[letter] -= 1
                pop(letter)
                letter += 1
                continue
            word[depth] = letter
            placed[letter] += 1
            depth += 1
            if not push(letter):
                if depth != top:
                    letter = 0
                    continue
                if ends is None:
                    yield "".join([ALPHABET[x] for x in word])
                else:
                    prefix = "".join([ALPHABET[x] for x in word[:top]])
                    for suffix in _tail(memo, placed, n, push, pop, ends, mn - top):
                        yield prefix + suffix
            depth -= 1
            placed[letter] -= 1
            pop(letter)
            letter += 1

    return walk()


def iter_words(n: int, m: int = 3, budget: int = DEFAULT_BUDGET) -> Iterator[str]:
    """Yield every word with n of each of the first m letters, lexicographically."""
    no_rule = (lambda x: False, lambda x: None, [])
    return _backtrack(n, m, budget, lambda placed: no_rule)


def _census_counts(n: int, m: int) -> tuple[int, int, int, int]:
    """(balanced, non-transitive, balanced non-transitive, irreducible) counts.

    A layered transfer-matrix DP over states (placed[x], hi[x]) per die x,
    kept as the flat pairs placed[0], hi[0], ..., placed[m-1], hi[m-1],
    plus ``thr``; hi[x] starts at n² and is x's upper cycle-win end (module
    docstring). Placing a letter of die x lowers hi[x] by n - placed[succ x]
    and depends on nothing else, so prefixes that share a state share their
    completions. The DP counts only the upper half of the balanced words,
    those whose common win count W is at least half = ceil(n²/2): the
    letter reflection maps the balanced words at W one-to-one onto those at
    n² - W (module docstring), so the lower half mirrors the balanced
    non-transitive words and

        balanced = 2·bnt + fair,

    with fair the words at 2W = n². A state is dropped once its cycle-win
    intervals show it can end neither balanced at such a W nor
    non-transitive (they cannot meet at or above half, and some upper end
    is short of need = n²//2 + 1), which is why the total comes from the
    closed form. Each stored state's extremes are read once, the least
    upper end and the greatest lower end, each die's lower end derived from
    its hi, and the greatest lower end starts at half; a successor by die x
    differs from them in two ends only, x's upper end and pred x's lower
    end, so each successor is tested from those two. In the last layer
    every die has placed n letters, so hi is the cycle-win vector, and an
    unmarked state's ends all equal one W >= half: it is balanced with no
    test, balanced non-transitive when 2W > n² and fair otherwise.

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
    and states that differ only in such ends merge. A state is clamped on
    every die when it is first marked. After that, a letter of x lowers
    x's upper end and x's cap by the same n - placed[succ x] and raises
    only pred x's lower end, so only pred x's end is clamped. A marked
    state is dropped as soon as some upper end falls below need, skips the
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
    """
    nsq = n * n
    need = nsq // 2 + 1
    half = (nsq + 1) // 2
    width = 2 * m
    # Each die's pair index, its successor's and its predecessor's.
    dice = [(2 * x, 2 * ((x + 1) % m), 2 * ((x - 1) % m)) for x in range(m)]
    turns = range(2, width, 2)
    layer = {(0, nsq) * m + (nsq + 1,): 1}
    for depth in range(m * n):
        j = depth // m
        cut = j and depth == m * j
        following: dict[tuple[int, ...], int] = {}
        for state, mass in layer.items():
            thr = state[width]
            if thr:
                if cut:
                    wins = state[1] - (n - j) * n
                    if 2 * wins > j * j and state[:width] == (j, state[1]) * m:
                        thr = min(thr, _cut_threshold(j, n, wins))
                low = half  # the greatest lower end, and at least ⌈n²/2⌉
                high = nsq  # the least upper end
                for at, s, _ in dice:
                    end = state[at + 1]
                    if end < high:
                        high = end
                    end -= (n - state[at]) * (n - state[s])
                    if end > low:
                        low = end
            else:
                high = min(state[1:width:2])
            for at, s, p in dice:
                count = state[at]
                if count == n:
                    continue
                # A letter of this die moves two ends only: its own upper end
                # drops to ``hi`` and its predecessor's lower end rises to
                # ``lo``, so the successor's extremes are ``top`` and ``bottom``.
                hi = state[at + 1] - n + state[s]
                top = hi if hi < high else high
                mark = thr
                if thr:
                    lo = state[p + 1] - (n - state[p]) * (n - count - 1)
                    bottom = lo if lo > low else low
                    if bottom > top:
                        mark = 0  # it can no longer end balanced at W >= half
                if not mark and top < need:
                    continue
                pairs = state[:at] + (count + 1, hi) + state[at + 2:width]
                if not thr:
                    # Marked already: only pred x's lower end rose, so only
                    # its upper end can have passed its cap.
                    cap = need + (n - state[p]) * (n - count - 1)
                    if state[p + 1] > cap:
                        pairs = pairs[:p + 1] + (cap,) + pairs[p + 2:]
                elif not mark:
                    # Marked just now: clamp every die's upper end.
                    ends = list(pairs)
                    for a, b, _ in dice:
                        cap = need + (n - ends[a]) * (n - ends[b])
                        if ends[a + 1] > cap:
                            ends[a + 1] = cap
                    pairs = tuple(ends)
                key = pairs
                for k in turns:
                    if pairs[k] <= key[0]:  # else this rotation sorts later
                        turned = pairs[k:] + pairs[:k]
                        if turned < key:
                            key = turned
                key += (mark,)
                following[key] = following.get(key, 0) + mass
        layer = following
    fair = nontransitive = bnt = irreducible = 0
    for state, mass in layer.items():
        thr = state[-1]
        if not thr:
            # Marked: its last step found every end at need or above. Its
            # clamped ends may look equal, so it is never tested for balance.
            nontransitive += mass
            continue
        # Unmarked: every end is the common final W, and W >= half.
        wins = state[1]
        if 2 * wins > nsq:
            nontransitive += mass
            bnt += mass
            if wins < thr:
                irreducible += mass
        else:
            fair += mass
    return 2 * bnt + fair, nontransitive, bnt, irreducible


def enumerate_words(
    n: int, m: int = 3, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> Census:
    """Census of every valid word.

    No word is walked to count it: the total is the closed form and the
    balanced, non-transitive, balanced non-transitive and irreducible
    counts all come from the DP in ``_census_counts``. The balanced count
    is 2·(balanced non-transitive) + fair: the letter reflection
    x -> -x mod m pairs each balanced word at common win count W with one
    at n² - W, so the DP counts only W >= ceil(n²/2). ``jobs`` is accepted
    for compatibility and ignored.
    """
    total = _check_budget(n, m, budget)
    balanced, nontransitive, bnt, irreducible = _census_counts(n, m)
    return Census(
        n=n,
        m=m,
        total_words=total,
        balanced=balanced,
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

    The rule (``_bnt_rule``) keeps each die's interval ends and steps them
    with every placement: the placed die's upper end drops and its
    predecessor's lower end rises (module docstring), so a push touches two
    ends and compares the extremes. The upper ends are the walk's state.
    """
    return _backtrack(n, m, budget, lambda placed: _bnt_rule(n, m, placed)[:3])


def _bnt_rule(n: int, m: int, placed: list[int]):
    """The scan's rule for ``_backtrack``, and the intervals it steps:
    (push, pop, hi, lo).

    hi[x] and lo[x] are the ends of die x's final cycle-win interval,
    stepped as ``placed`` changes, and ``push`` answers whether they can no
    longer meet at one W with 2W > n². ``hi`` alone, with ``placed``, is
    the walk's state, so it is the rule's ``ends``.
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
        raise ValueError(f"closed form covers 3 vertices, got {tournament.m}")
    if n < 1:
        raise SidesTooSmall(f"need at least one side, got n={n}")
    _check_labels(n, 3)
    degrees = tournament.out_degrees()
    if sorted(degrees) == [1, 1, 1]:
        if n < 3:
            raise SidesTooSmall(
                f"a cyclic tournament needs at least 3 sides, got {n}"
            )
        # The base set's cycle is a > b > c > a; the other 3-cycle swaps b and c.
        result = construct_balanced_nontransitive(n, 3)
        if not tournament.beats(0, 1):
            result = reorder_dice(result, (0, 2, 1))
    else:
        # Total order: out-degree ranks strength; strongest takes the top block.
        rows = []
        for vertex in range(3):
            low = degrees[vertex] * n
            rows.append(tuple(range(low + n, low, -1)))
        result = DiceSet(tuple(rows))
    if majority_digraph(result) != tournament.edges:
        raise ConstructionError("realization does not reproduce the tournament")
    return result


def search_realization(
    tournament: Tournament, n: int, budget: int = DEFAULT_BUDGET
) -> DiceSet | None:
    """Lexicographically first dice set whose full majority digraph equals
    the tournament, or None when no n-sided realization exists.

    Backtracking over words with one upper end per required edge x -> y
    (``_edge_rule``): hi[x][y] = wins[x][y] + (n - placed[x])·n, the most
    wins x can still end with over y. Placing a letter of x lowers it by
    n - placed[y] and moves no other end, and the prefix is dead once some
    end falls below ``need`` = n²//2 + 1. After x's last letter its ends
    are its final wins, so every word the walk yields realizes the
    tournament and the first one is the answer.

    No bound on a required loss is needed: it could never prune. For an
    edge y -> x, x's final wins over y must stay at most n² - ``need``. Its
    lower end there is wins[x][y] + (n - placed[x])·placed[y], and as the
    two dice's wins over each other sum to placed[x]·placed[y], that lower
    end is n² - hi[y][x]. So the loss bound fails exactly when y's own end
    falls below ``need``. That end moves only when y places a letter, and
    y's push then tests it, so a live prefix never breaks the loss bound.
    """
    m = tournament.m
    walk = _backtrack(n, m, budget, lambda placed: _edge_rule(tournament, n, placed)[:3])
    word = next(walk, None)
    return None if word is None else dice_of_word(Word(word, m))


def _edge_rule(tournament: Tournament, n: int, placed: list[int]):
    """Realization's rule for ``_backtrack``, and the ends it steps:
    (push, pop, None, hi).

    hi[x][y], for each edge x -> y of the tournament, is the upper end of
    x's final wins over y; ``push`` answers whether an end of the placed
    die fell below n²//2 + 1. The walker pushes only onto live prefixes,
    and no other end moved, so that is whether any end did. The rule's
    ends are None: realization wants only the first word, so its walk is
    not memoized.
    """
    m = tournament.m
    need = n * n // 2 + 1
    beaten = [[y for y in range(m) if tournament.beats(x, y)] for x in range(m)]
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
