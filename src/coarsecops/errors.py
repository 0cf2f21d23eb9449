"""Exception hierarchy shared by all coarsecops modules."""


class CoarseCopsError(Exception):
    """Base class for every error raised by this package."""


class SearchBudgetExceeded(CoarseCopsError):
    """A BFS expanded, or would have to expand, more vertices than the
    oracle's expansion budget.

    Signals a misconfigured generator (or a query that should never be
    asked of an infinite graph), not a recoverable condition.
    """


class DisconnectedAnnulusError(CoarseCopsError):
    """No path exists between two vertices inside the requested annulus."""


class UnsupportedGeneratorError(CoarseCopsError):
    """Unknown generator id, or an operation the generator cannot support."""


class NoThickEndWitnessError(CoarseCopsError):
    """The end witness cannot supply the requested number of disjoint rays.

    Raised by thin-end generators when the evasion strategy asks for more
    disjoint rays than the witnessed end contains.
    """


class BrokenWitnessError(CoarseCopsError):
    """The end witness claimed a thick end but its rays fail downstream
    (rays that meet or turn back, annuli that never connect, ...)."""


class ImpossibleStateError(CoarseCopsError):
    """A state the evasion strategy's counting arguments rule out.

    Reaching this is an engine/strategy assertion failure, never a normal
    game outcome.
    """


class IllegalMoveError(CoarseCopsError):
    """A strategy produced a move that violates the game rules.

    Distinct from capture: capture is a legal outcome, an illegal move is
    a bug in the offending strategy.  The message names the round.
    """

    def __init__(self, offender: str, round: int, message: str):
        super().__init__(f"round {round}: illegal move by {offender}: {message}")
        self.offender = offender


class NegotiationError(CoarseCopsError):
    """Invalid parameter commitments (e.g. R <= rho, zero cops)."""


class ConfigError(CoarseCopsError):
    """Experiment configuration could not be parsed or validated."""
