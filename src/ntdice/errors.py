"""Exception types for dice validation, construction, and search."""


class DiceError(Exception):
    """Base class for every deliberate error in this package."""


# -- input validation ---------------------------------------------------------

class DuplicateLabel(DiceError):
    """A label appears on more than one die."""


class LabelOutOfRange(DiceError):
    """A label is not a plain integer, or falls outside 1..m*n."""


class WrongSideCount(DiceError):
    """A die has the wrong number of sides."""


class FewerThanTwoDice(DiceError):
    """A dice set needs at least two dice."""


class TooManyDice(DiceError):
    """A dice set has at most 26 dice, one per letter a..z."""


class MalformedWord(DiceError):
    """A letter sequence is not a valid word (bad letter or uneven counts)."""


class PositionOutOfRange(DiceError):
    """A word position outside 1..m*n."""


class SameDie(DiceError):
    """A pairwise comparison needs two distinct dice."""


class IndexOutOfRange(DiceError):
    """A die index outside 0..m-1."""


class ValueOutOfRange(DiceError, ValueError):
    """An argument outside what its function covers: a win count past its
    trials, a size with no catalog entry, a closed form's vertex count."""


# -- construction -------------------------------------------------------------

class AlphabetMismatch(DiceError):
    """Concatenation requires words over the same alphabet."""


class SidesTooSmall(DiceError):
    """No balanced non-transitive set exists below three sides."""


class IndexTooSmall(DiceError):
    """Fibonacci constructions need a large enough sequence index."""


class NotOddIndex(DiceError):
    """The balancing swap only evens out face-sums at odd sequence indices."""


class TooManyLabels(DiceError):
    """A construction would build more labels than ``MAX_LABELS``."""


class ConstructionError(DiceError):
    """A construction's self-check failed; indicates a bug."""


# -- search -------------------------------------------------------------------

class SearchSizeError(DiceError, ValueError):
    """A search needs at least one side and 2..26 dice."""


class BudgetExceeded(DiceError):
    """An exhaustive scan would visit more words than allowed."""

    def __init__(self, message: str, total_words: int | None = None):
        super().__init__(message)
        self.total_words = total_words


class NotBalancedNontransitive(DiceError):
    """Irreducibility is only defined for balanced non-transitive words."""


class TournamentSpecError(DiceError):
    """A tournament description is incomplete or contradictory."""
