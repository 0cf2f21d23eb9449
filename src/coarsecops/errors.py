"""Exception hierarchy shared by all coarsecops modules."""


class CoarseCopsError(Exception):
    """Base class for every error raised by this package."""


class SearchBudgetExceeded(CoarseCopsError):
    """A BFS expanded more vertices than the oracle's expansion budget.

    Signals a misconfigured generator (or a query that should never be
    asked of an infinite graph), not a recoverable condition.
    """


class DisconnectedAnnulusError(CoarseCopsError):
    """No path exists between two vertices inside the requested annulus."""


class UnsupportedGeneratorError(CoarseCopsError):
    """Unknown generator id, or an operation the generator cannot support."""


class RayContractError(CoarseCopsError):
    """A ray is not monotone: it does not cross a sphere where a monotone
    ray from its source would."""


class NoThickEndWitnessError(CoarseCopsError):
    """The ray system cannot supply the requested number of disjoint rays.

    Raised by thin-end generators when the evasion strategy asks for more
    disjoint rays than the witnessed end contains.
    """


class BrokenWitnessError(CoarseCopsError):
    """The ray system claimed a thick end but its data fails downstream
    (empty crossing sets, annuli that never connect, ...)."""


class ImpossibleStateError(CoarseCopsError):
    """A state the evasion strategy's counting arguments rule out.

    Reaching this is an engine/strategy assertion failure, never a normal
    game outcome.
    """


class IllegalMoveError(CoarseCopsError):
    """A strategy produced a move that violates the game rules.

    Distinct from capture: capture is a legal outcome, an illegal move is
    a bug in the offending strategy.
    """

    def __init__(self, offender: str, message: str):
        super().__init__(f"illegal move by {offender}: {message}")
        self.offender = offender


class NegotiationError(CoarseCopsError):
    """Invalid parameter commitments (e.g. R <= rho, zero cops)."""


class ConfigError(CoarseCopsError):
    """Experiment configuration could not be parsed or validated."""
