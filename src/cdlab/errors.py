"""Exception types shared across the package."""


class CdlabError(Exception):
    """Base class for all package errors."""


class SimplexViolation(CdlabError):
    """A share vector leaves the open interior of the simplex."""


class IntegrationFailure(CdlabError):
    """Quadrature or Monte Carlo integration produced non-finite values."""


class NoConvergence(CdlabError):
    """An iterative solver exhausted its iteration budget.

    Signals either a non-invertible configuration or a tolerance that is
    too tight for the problem at hand.
    """

    def __init__(self, iterations, residual, market=None):
        self.iterations = iterations
        self.residual = residual
        self.market = market
        where = "" if market is None else f"market {market}: "
        super().__init__(
            f"{where}no convergence after {iterations} iterations (residual {residual:.3e})"
        )


class InversionFailure(CdlabError):
    """An outcome transformation could not be inverted at the given point."""


class RootNotBracketed(CdlabError):
    """A monotone 1-D root could not be bracketed within the search range."""


class InsufficientData(CdlabError):
    """Not enough observations to run the requested diagnostic."""


class NonUnique(CdlabError):
    """A moment system admits multiple solutions (failed uniqueness premise)."""

    def __init__(self, message, candidates=None):
        self.candidates = candidates
        super().__init__(message)


class NotIdentified(CdlabError):
    """Two candidates fit equally well but differ by more than a vertical shift."""

    def __init__(self, message, candidates=None):
        self.candidates = candidates
        super().__init__(message)


class ConfigError(CdlabError):
    """Invalid or unrecognized configuration input."""
