"""Exact-arithmetic toolkit for balanced non-transitive dice.

Construct, verify, and exhaustively search sets of dice whose labels
partition {1, ..., m*n}, where every win probability is an exact integer
pair and "beats" runs in a cycle with no best die.
"""

from .core import (
    ALPHABET,
    BalanceSummary,
    Classification,
    DiceSet,
    Verdict,
    WinOdds,
    Word,
    balance_summary,
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
    reorder_dice,
    validate_dice,
    verify,
    win_probability,
    word_of_dice,
)
from .construct import (
    BASE_QUADS,
    BASE_TRIPLES,
    base_example,
    concat_dice,
    concat_words,
    construct_balanced_nontransitive,
    fibonacci_balanced,
    fibonacci_boundary_swap,
    fibonacci_savage,
)
from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    ConstructionError,
    DiceError,
    DuplicateLabel,
    FewerThanTwoDice,
    IndexOutOfRange,
    IndexTooSmall,
    LabelOutOfRange,
    MalformedWord,
    NotBalancedNontransitive,
    NotOddIndex,
    PositionOutOfRange,
    SameDie,
    SearchSizeError,
    SidesTooSmall,
    TooManyDice,
    TooManyLabels,
    TournamentSpecError,
    ValueOutOfRange,
    WrongSideCount,
)
from .search import (
    Census,
    Tournament,
    balanced_nontransitive_words,
    enumerate_words,
    is_irreducible,
    iter_words,
    majority_digraph,
    realize_k3,
    search_realization,
    word_count,
)

__version__ = "0.1.0"
