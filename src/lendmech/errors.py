"""Exception types shared across the package."""


class MechanismError(Exception):
    """Base class for all lendmech errors."""


class NonFiniteScore(MechanismError):
    """A logarithmic score was requested on a zero-probability branch."""


class TruncatedRegion(MechanismError):
    """A truncated rule was queried at a report inside its no-score region."""


class ArityMismatch(MechanismError):
    """A report column does not match the aggregator's arity."""


class ShapeMismatch(MechanismError):
    """A belief/report matrix does not have the instance's (n, m) shape."""


class EmptyHistory(MechanismError):
    """Outcome-based weighting was requested with no observed loans."""


class AllNonPositiveContribution(MechanismError):
    """Every recommender's accuracy contribution is <= 0; no weights defined."""


class ZeroWeightRecommender(MechanismError):
    """A marginal funding threshold was requested for a zero-weight recommender."""


class MissingOutcome(MechanismError):
    """Settlement requires an outcome for every funded borrower."""


class OutcomeForUnfundedBorrower(MechanismError):
    """An outcome was supplied for a borrower that received no loan."""


class ReserveRecommenderHasNoPayment(MechanismError):
    """Payments were requested for the internal reserve recommender."""


class ReproductionMismatch(MechanismError):
    """A computed value disagrees with a bundled reference value."""


class ScenarioError(MechanismError):
    """A scenario file failed validation; message carries field context."""


class LedgerError(MechanismError):
    """A ledger file failed validation; message carries path, line and field."""
