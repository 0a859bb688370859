"""Belief aggregation: weighted linear pooling and outcome-based weights.

The lender turns a column of reports on one borrower into a single belief
with an aggregator. Weighted linear pooling is the workhorse; a custom
monotone aggregator hook exists for anything nondecreasing per coordinate.

Weights can be learned from past funded loans: each recommender's weight is
proportional to how much their reports improved the crowd's calibration on
realized outcomes (their accuracy contribution), with non-contributors
floored at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import AllNonPositiveContribution, ArityMismatch, EmptyHistory
from .mechanism import left_sum, linear_scores

WEIGHT_SUM_TOL = 1e-9

# Calibration score anchors: per-loan squared error of 2 maps to 0 and a
# perfect crowd maps to 100.
QUALITY_OFFSET = 100.0
QUALITY_SCALE = -50.0


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative per-recommender weights summing to 1 (tol 1e-9)."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("weight vector must be non-empty")
        if not all(math.isfinite(w) and w >= 0.0 for w in self.weights):
            raise ValueError(f"weights must be finite and nonnegative, got {self.weights}")
        total = left_sum(self.weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total}")

    @classmethod
    def equal(cls, n: int) -> "WeightVector":
        if n < 1:
            raise ValueError("need at least one recommender")
        return cls(tuple(1.0 / n for _ in range(n)))

    @property
    def max_weight(self) -> float:
        return max(self.weights)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class WeightedLinear:
    """Linear pool: column (p_1, ..., p_n) maps to sum_i w_i p_i."""

    weights: WeightVector

    @property
    def arity(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class MonotoneCustom:
    """User-supplied aggregator, weakly nondecreasing in every coordinate."""

    fn: Callable[[Sequence[float]], float]
    arity: int


Aggregator = Union[WeightedLinear, MonotoneCustom]


def aggregate_columns(agg: Aggregator, reports) -> np.ndarray:
    """Lender belief for every column of `reports`.

    The recommender axis is the second to last and any leading axes are
    batches, as in `linear_scores`, which a linear pool calls once; a
    custom aggregator is called on each column in turn.
    """
    arr = np.asarray(reports, dtype=float)
    if arr.ndim < 2 or arr.shape[-2] != agg.arity:
        raise ArityMismatch(f"aggregator expects {agg.arity} report rows, got shape {arr.shape}")
    if isinstance(agg, WeightedLinear):
        return linear_scores(agg.weights.weights, arr)
    return np.apply_along_axis(lambda column: float(agg.fn(tuple(column))), -2, arr)


def aggregate(agg: Aggregator, report_column: Sequence[float]) -> float:
    """Lender belief for one borrower from the column of reports on them."""
    for value in report_column:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"reports must lie in [0, 1], got {value}")
    return float(aggregate_columns(agg, np.reshape(report_column, (-1, 1)))[0])


@dataclass(frozen=True)
class ObservedLoan:
    """One funded borrower from a past round: report column plus outcome.

    `reports[i]` is None for a recommender who did not participate in that
    round; means are taken over present recommenders only.
    """

    reports: tuple[Optional[float], ...]
    outcome: int

    def __post_init__(self) -> None:
        if self.outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {self.outcome}")
        if all(r is None for r in self.reports):
            raise ValueError("a funded loan must carry at least one report")
        for r in self.reports:
            if r is not None and not 0.0 <= r <= 1.0:
                raise ValueError(f"reports must lie in [0, 1], got {r}")


@dataclass(frozen=True)
class RoundHistory:
    """Funded loans with observed outcomes, accumulated across rounds."""

    n: int
    loans: tuple[ObservedLoan, ...]

    def __post_init__(self) -> None:
        for loan in self.loans:
            if len(loan.reports) != self.n:
                raise ArityMismatch(
                    f"loan has {len(loan.reports)} report slots, history has n={self.n}"
                )

    def window(self, size: Optional[int]) -> "RoundHistory":
        """Last `size` loans (None keeps the full history)."""
        if size is not None and size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        if size is None or size >= len(self.loans):
            return self
        return RoundHistory(self.n, self.loans[-size:])


def _loan_squared_error(loan: ObservedLoan, exclude: Optional[int]) -> Optional[float]:
    included = [
        r for i, r in enumerate(loan.reports) if r is not None and i != exclude
    ]
    if not included:
        return None
    mean_repay = left_sum(included) / len(included)
    # Two-sided Brier term over the repay/default cells; both cells carry
    # the same squared deviation.
    err = (loan.outcome - mean_repay) ** 2 + ((1 - loan.outcome) - (1 - mean_repay)) ** 2
    return err


def budescu_quality(history: RoundHistory, exclude: Optional[int] = None) -> float:
    """Crowd calibration score in [0, 100]; 100 iff the mean report always
    matched the outcome.

    With `exclude`, the per-loan mean report drops that recommender, which
    is the counterfactual used to price their contribution.
    """
    if not history.loans:
        raise EmptyHistory("no funded loans with observed outcomes")
    errors = []
    for loan in history.loans:
        err = _loan_squared_error(loan, exclude)
        if err is not None:
            errors.append(err)
    if not errors:
        raise EmptyHistory(
            f"excluding recommender {exclude} leaves no reports on any funded loan"
        )
    return QUALITY_OFFSET + QUALITY_SCALE * (left_sum(errors) / len(errors))


def accuracy_contributions(history: RoundHistory) -> tuple[float, ...]:
    """Per-recommender contribution (Q - Q_without_them) / number of loans."""
    q_all = budescu_quality(history)
    count = len(history.loans)
    return tuple((q_all - budescu_quality(history, i)) / count for i in range(history.n))


def budescu_weights(history: RoundHistory) -> WeightVector:
    """Weights proportional to positive accuracy contributions, zero otherwise.

    Raises AllNonPositiveContribution when nobody contributed positively;
    callers usually fall back to equal weights.
    """
    contributions = accuracy_contributions(history)
    positive_total = left_sum(c for c in contributions if c > 0.0)
    if positive_total <= 0.0:
        raise AllNonPositiveContribution(
            f"no recommender has positive contribution: {contributions}"
        )
    return WeightVector(
        tuple(c / positive_total if c > 0.0 else 0.0 for c in contributions)
    )
