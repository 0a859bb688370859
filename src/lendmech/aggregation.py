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
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import AllNonPositiveContribution, ArityMismatch, EmptyHistory
from .mechanism import left_sum, left_sums, linear_scores

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


def _squared_error(reports: Sequence[float], outcome: int) -> Optional[float]:
    """The squared error of the mean of `reports` on a loan with this 0/1
    outcome; None when there is no report."""
    if not reports:
        return None
    return _brier(left_sum(reports) / len(reports), outcome)


def _brier(mean_repay: float, outcome: int) -> float:
    """The two-sided Brier term of a mean report on a loan with this 0/1
    outcome, over the repay and default cells, which carry the same squared
    deviation. Squared by Python's `**`, which is libm's pow(x, 2): on some
    platforms that rounds differently from x * x, numpy's square."""
    return (outcome - mean_repay) ** 2 + ((1 - outcome) - (1 - mean_repay)) ** 2


def _loan_squared_error(loan: ObservedLoan, exclude: Optional[int]) -> Optional[float]:
    included = [r for i, r in enumerate(loan.reports) if r is not None and i != exclude]
    return _squared_error(included, loan.outcome)


def _loan_errors(loan: ObservedLoan) -> tuple[Optional[float], ...]:
    """The loan's squared error for the whole crowd, then with each
    recommender left out in turn; None where leaving them out leaves no
    report."""
    return tuple(
        _loan_squared_error(loan, exclude) for exclude in (None, *range(len(loan.reports)))
    )


def _column_errors(column: list[float], outcome: int) -> tuple[Optional[float], ...]:
    """`_loan_errors` of a loan on which every recommender reported: its
    column of reports, a list, and its outcome. The oracle a campaign's
    stack-wide path (`column_means`, `BudescuAccumulator.add_means`) is
    held to."""
    return (
        _squared_error(column, outcome),
        *(_squared_error(column[:i] + column[i + 1 :], outcome) for i in range(len(column))),
    )


def column_means(reports: np.ndarray) -> np.ndarray:
    """Every column's mean report, (..., m, n + 1), of an (..., n, m) stack
    of report matrices: the whole crowd's mean, then the mean with each
    recommender left out in turn; with one recommender, only the crowd's,
    (..., m, 1). Each is numpy adds from 0.0 over the recommenders, left to
    right, then one division: bit for bit the `left_sum(column) /
    len(column)` of `_squared_error`."""
    n = reports.shape[-2]
    shape = reports.shape[:-2] + reports.shape[-1:]

    def mean(kept: list[int]) -> np.ndarray:
        return left_sums((reports[..., j, :] for j in kept), shape) / len(kept)

    groups = [list(range(n))] + [[j for j in range(n) if j != i] for i in range(n) if n > 1]
    return np.stack([mean(kept) for kept in groups], axis=-1)


def _mean_errors(means: list[float], outcome: int, n: int) -> tuple[Optional[float], ...]:
    """`_column_errors` of a column of n reports from its `column_means`,
    a list: each mean's Brier term, and None for the mean that leaving out
    the only recommender does not have."""
    errors = tuple(_brier(mean, outcome) for mean in means)
    return errors if n > 1 else errors + (None,)


def _quality(total: float, count: int, exclude: Optional[int]) -> float:
    """Calibration score from `count` summed squared errors."""
    if not count:
        if exclude is None:
            raise EmptyHistory("no funded loans with observed outcomes")
        raise EmptyHistory(
            f"excluding recommender {exclude} leaves no reports on any funded loan"
        )
    return QUALITY_OFFSET + QUALITY_SCALE * (total / count)


def budescu_quality(history: RoundHistory, exclude: Optional[int] = None) -> float:
    """Crowd calibration score in [0, 100]; 100 iff the mean report always
    matched the outcome.

    With `exclude`, the per-loan mean report drops that recommender, which
    is the counterfactual used to price their contribution.
    """
    errors = [_loan_squared_error(loan, exclude) for loan in history.loans]
    errors = [err for err in errors if err is not None]
    return _quality(left_sum(errors), len(errors), exclude)


def _error_sums(errors, n: int) -> tuple[list[float], list[int]]:
    """Per position of the `_loan_errors` tuples of n recommenders, the
    errors present added left to right, and their count."""
    totals = [left_sum(e[k] for e in errors if e[k] is not None) for k in range(n + 1)]
    counts = [sum(e[k] is not None for e in errors) for k in range(n + 1)]
    return totals, counts


def _contributions(totals: Sequence[float], counts: Sequence[int]) -> tuple[float, ...]:
    """Per-recommender contribution (Q - Q_without_them) / number of loans,
    from squared errors summed per position of `_loan_errors`: `totals[k]`
    over `counts[k]` loans. Every loan carries a report, so `counts[0]` is
    the number of loans."""
    q_all = _quality(totals[0], counts[0], None)
    return tuple(
        (q_all - _quality(totals[1 + i], counts[1 + i], i)) / counts[0]
        for i in range(len(totals) - 1)
    )


def weights_from_sums(totals: Sequence[float], counts: Sequence[int]) -> WeightVector:
    """Weights proportional to positive accuracy contributions, zero
    otherwise, from summed squared errors as `_contributions` takes them.

    Raises EmptyHistory when there is no loan, or leaving a recommender out
    leaves no report; AllNonPositiveContribution when nobody contributed
    positively. Callers usually fall back to equal weights.
    """
    contributions = _contributions(totals, counts)
    positive_total = left_sum(c for c in contributions if c > 0.0)
    if positive_total <= 0.0:
        raise AllNonPositiveContribution(
            f"no recommender has positive contribution: {contributions}"
        )
    return WeightVector(
        tuple(c / positive_total if c > 0.0 else 0.0 for c in contributions)
    )


def _history_sums(history: RoundHistory) -> tuple[list[float], list[int]]:
    """`_error_sums` of the history, every loan scored afresh."""
    return _error_sums([_loan_errors(loan) for loan in history.loans], history.n)


def accuracy_contributions(history: RoundHistory) -> tuple[float, ...]:
    """Per-recommender contribution (Q - Q_without_them) / number of loans."""
    return _contributions(*_history_sums(history))


def budescu_weights(history: RoundHistory) -> WeightVector:
    """Weights proportional to positive accuracy contributions, zero otherwise.

    Every loan is scored afresh: this is the oracle `BudescuAccumulator`
    is held to. Raises as `weights_from_sums` does.
    """
    return weights_from_sums(*_history_sums(history))


class BudescuAccumulator:
    """Budescu weights of a growing history, one funded loan at a time.

    Each loan's `_loan_errors` are computed once, when it is added: from an
    `ObservedLoan` (`add`), or from the means of its column of reports and
    its outcome (`add_means`, a campaign's path, which builds no loan).
    Without a window the per-column sums run on in loan order: `left_sum`
    adds from 0.0 left to right, so they are bit for bit the sums
    `budescu_weights` takes over the whole history, and `weights()` costs
    O(n). With a window the last `window` loans' errors are kept and summed
    again on each call, O(window * n) additions and no error recomputed,
    which is again exactly what `budescu_weights` does on
    `RoundHistory.window(window)`.
    """

    def __init__(self, n: int, window: Optional[int] = None) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window size must be >= 1, got {window}")
        self.n = n
        self._window: Optional[deque] = deque(maxlen=window) if window is not None else None
        self._totals = [0.0] * (n + 1)
        self._counts = [0] * (n + 1)

    def add(self, loans: Iterable[ObservedLoan]) -> None:
        """Score newly observed loans, in the order they were funded."""
        for loan in loans:
            if len(loan.reports) != self.n:
                raise ArityMismatch(
                    f"loan has {len(loan.reports)} report slots, accumulator has n={self.n}"
                )
            self._add(_loan_errors(loan))

    def add_means(self, means: list[float], outcome: int) -> None:
        """Score one newly observed loan on which all n recommenders
        reported, from its column's means (`column_means`, as a list) and
        its 0/1 outcome, neither checked again: only the Brier terms are
        left to compute. The errors are `_column_errors` of the column."""
        self._add(_mean_errors(means, outcome, self.n))

    def _add(self, errors: tuple[Optional[float], ...]) -> None:
        if self._window is not None:
            self._window.append(errors)
            return
        for k, err in enumerate(errors):
            if err is not None:
                self._totals[k] += err
                self._counts[k] += 1

    def weights(self) -> WeightVector:
        """Weights of the loans so far (the window's, with one); equal
        weights when there is none or nobody has contributed positively."""
        if self._window is not None:
            sums = _error_sums(self._window, self.n)
        else:
            sums = (self._totals, self._counts)
        try:
            return weights_from_sums(*sums)
        except (EmptyHistory, AllNonPositiveContribution):
            return WeightVector.equal(self.n)
