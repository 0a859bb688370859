"""Truncated Winkler elicitation for lending without a liquidity cap.

Each borrower is funded iff the aggregated report beats the lender's profit
threshold (strictly). There is no immediate payment; for every funded
borrower, each recommender is paid a log-based Winkler score whose zero
point sits at their marginal funding threshold, i.e. the report at which
they would have swung that borrower's decision given everyone else's
reports. All evaluation here is pure.

An optional liquidity cap funds only the top-`cap` eligible borrowers but
keeps the uncapped thresholds. That variant is not a recommended mechanism:
the cap breaks the thresholds' meaning and with them truthfulness, and it
exists so the audits can demonstrate that failure (the bundled Table 1
counterexample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .aggregation import Aggregator, WeightedLinear, aggregate
from .errors import ZeroWeightRecommender
from .mechanism import Allocation, Settlement, check_outcomes, check_reports

BISECTION_STEPS = 60


@dataclass(frozen=True)
class WinklerInstance:
    """n recommenders, m borrowers, profit threshold, aggregator, and an
    optional liquidity cap (the capped demo variant; None for none)."""

    n: int
    m: int
    threshold: float
    aggregator: Aggregator
    cap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got ({self.n}, {self.m})")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(
                f"profit threshold must lie strictly inside (0, 1), got {self.threshold}"
            )
        if self.aggregator.arity != self.n:
            raise ValueError(
                f"aggregator arity {self.aggregator.arity} does not match n={self.n}"
            )
        if self.cap is not None and not 1 <= self.cap <= self.m:
            raise ValueError(f"need 1 <= cap <= m, got cap={self.cap}, m={self.m}")

    # The mechanism interface (see lendmech.mechanism); each method calls
    # the module-level function of the same name.

    def allocate(self, reports) -> Allocation:
        return Allocation(allocate(self, reports))

    def settle(self, reports, outcomes: Mapping[int, int]) -> Settlement:
        return settle(self, reports, outcomes)

    def expost_utility(self, reports, i: int, belief_row: Sequence[float]) -> float:
        return expost_utility(self, reports, i, belief_row)

    def engine(self, i: int, others: np.ndarray) -> Optional["ColumnEngine"]:
        """The vectorized engine; None under a cap or a nonlinear aggregator."""
        if self.cap is None and isinstance(self.aggregator, WeightedLinear):
            return ColumnEngine(self, i, others)
        return None

    @property
    def weights_in_force(self) -> tuple[float, ...]:
        if isinstance(self.aggregator, WeightedLinear):
            return self.aggregator.weights.weights
        return (math.nan,) * self.n


def allocate(inst: WinklerInstance, reports) -> tuple[int, ...]:
    """Funding vector: borrower q gets a loan iff aggregate(column q) > c.

    Under a cap only the top-`cap` such borrowers by aggregate are funded,
    ties going to the lower index.
    """
    arr = check_reports(reports, (inst.n, inst.m))
    scores = [aggregate(inst.aggregator, tuple(arr[:, q])) for q in range(inst.m)]
    eligible = sorted(
        (q for q in range(inst.m) if scores[q] > inst.threshold),
        key=lambda q: (-scores[q], q),
    )
    funded = set(eligible[: inst.cap])
    return tuple(1 if q in funded else 0 for q in range(inst.m))


def _bisect_threshold(inst: WinklerInstance, column: np.ndarray, i: int) -> float:
    """Infimum report by i that funds the borrower, approached from above."""

    def funds(value: float) -> bool:
        col = column.copy()
        col[i] = value
        return aggregate(inst.aggregator, tuple(col)) > inst.threshold

    if not funds(1.0):
        return 1.0
    if funds(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if funds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def marginal_thresholds(inst: WinklerInstance, reports) -> np.ndarray:
    """Per-(recommender, borrower) minimum report that funds the borrower.

    Linear aggregators use the closed form clamped to [0, 1]; custom
    monotone aggregators are bisected. Zero-weight recommenders can never
    swing a decision and get the sentinel +inf (their payment is zero).
    """
    arr = check_reports(reports, (inst.n, inst.m))
    if isinstance(inst.aggregator, WeightedLinear):
        w = np.asarray(inst.aggregator.weights.weights)
        totals = w @ arr
        out = np.empty((inst.n, inst.m))
        for i in range(inst.n):
            if w[i] == 0.0:
                out[i, :] = np.inf
                continue
            others = totals - w[i] * arr[i, :]
            out[i, :] = np.clip((inst.threshold - others) / w[i], 0.0, 1.0)
        return out
    out = np.empty((inst.n, inst.m))
    for q in range(inst.m):
        for i in range(inst.n):
            out[i, q] = _bisect_threshold(inst, arr[:, q].copy(), i)
    return out


def marginal_threshold(inst: WinklerInstance, reports, i: int, q: int) -> float:
    """Scalar accessor; raises for a recommender whose weight is zero."""
    if isinstance(inst.aggregator, WeightedLinear) and inst.aggregator.weights.weights[i] == 0.0:
        raise ZeroWeightRecommender(
            f"recommender {i} has zero weight and no finite funding threshold"
        )
    return float(marginal_thresholds(inst, reports)[i, q])


def winkler_log_score(report: float, threshold: float, outcome: int) -> float:
    """Log-based Winkler score with the zero point at `threshold`.

    `threshold` may be 0 here (the decision was already forced by others'
    reports); the limiting rule pays 1 on repayment and 0 on default.
    Returns -inf instead of raising when the report put zero mass on the
    realized outcome, since settlement and audits treat that as an
    unboundedly bad score rather than an invalid query.
    """
    if threshold == 0.0:
        if report == 0.0:
            return 0.0
        return 1.0 if outcome == 1 else 0.0
    if outcome == 1:
        numerator = (math.log(report) if report > 0.0 else -math.inf) - math.log(threshold)
    else:
        numerator = (math.log1p(-report) if report < 1.0 else -math.inf) - math.log1p(
            -threshold
        )
    denom = -math.log(threshold) if report > threshold else -math.log1p(-threshold)
    return numerator / denom


def expected_winkler_log(belief: float, report: float, threshold: float) -> float:
    """Expectation of winkler_log_score over o ~ Bernoulli(belief)."""
    total = 0.0
    if belief > 0.0:
        total += belief * winkler_log_score(report, threshold, 1)
    if belief < 1.0:
        total += (1.0 - belief) * winkler_log_score(report, threshold, 0)
    return total


def settle(
    inst: WinklerInstance, reports, outcomes: Mapping[int, int]
) -> Settlement:
    """Outcome-contingent payments for every funded borrower.

    `outcomes` must cover exactly the funded borrowers. Recommenders who
    reported at or below their marginal threshold on a borrower that was
    funded anyway are paid through the Winkler rule's lower branch. Under a
    cap the thresholds stay the uncapped ones.
    """
    arr = check_reports(reports, (inst.n, inst.m))
    alloc = Allocation(allocate(inst, arr))
    check_outcomes(alloc.funded_real, outcomes)

    thresholds = marginal_thresholds(inst, arr)
    contingent: dict[tuple[int, int], float] = {}
    for q in alloc.funded_real:
        for i in range(inst.n):
            t = thresholds[i, q]
            if math.isinf(t):
                contingent[(i, q)] = 0.0
            else:
                contingent[(i, q)] = winkler_log_score(float(arr[i, q]), float(t), outcomes[q])
    return Settlement(
        allocation=alloc,
        immediate=tuple(0.0 for _ in range(inst.n)),
        contingent=contingent,
    )


def expost_utility(inst: WinklerInstance, reports, i: int, belief_row: Sequence[float]) -> float:
    """Recommender i's utility given everyone's reports, in expectation over
    their own beliefs about funded borrowers (outcomes not yet observed)."""
    arr = check_reports(reports, (inst.n, inst.m))
    funded = allocate(inst, arr)
    thresholds = marginal_thresholds(inst, arr)
    total = 0.0
    for q in range(inst.m):
        if not funded[q]:
            continue
        t = thresholds[i, q]
        if math.isinf(t):
            continue
        total += expected_winkler_log(float(belief_row[q]), float(arr[i, q]), float(t))
    return total


class ColumnEngine:
    """Vectorized per-borrower interim machinery for one recommender.

    Precomputes, for a fixed batch of sampled co-reports, each column's
    funding threshold for recommender i's report and the induced Winkler
    anchor. A candidate report's per-sample payoff contribution on one
    borrower is then a handful of vector operations, which is what makes
    grid-misreport searches at 1e5 samples tractable. Linear aggregators
    and uncapped instances only.
    """

    def __init__(self, inst: WinklerInstance, i: int, others: np.ndarray) -> None:
        if not isinstance(inst.aggregator, WeightedLinear):
            raise ValueError("vectorized interim evaluation requires a linear aggregator")
        w = np.asarray(inst.aggregator.weights.weights)
        self.w_i = float(w[i])
        w_others = np.delete(w, i)
        # others: (samples, n-1, m) -> per-column aggregate of co-reports
        others_sum = np.einsum("j,sjm->sm", w_others, others)
        if self.w_i == 0.0:
            # i never swings a decision and is never paid (the +inf sentinel
            # of marginal_thresholds), so every contribution is 0.
            self.swing = np.full_like(others_sum, np.inf)
        else:
            self.swing = (inst.threshold - others_sum) / self.w_i
        self.anchor = np.clip(self.swing, 0.0, 1.0)
        self.anchor_zero = self.anchor == 0.0
        safe = np.where(self.anchor_zero | (self.anchor == 1.0), 0.5, self.anchor)
        self.log_anchor = np.log(safe)
        self.log_1m_anchor = np.log1p(-safe)
        self.samples = others.shape[0]
        self.m = inst.m

    def column_contribution(self, q: int, belief: float, report: float) -> np.ndarray:
        """Per-sample expected payoff on borrower q for a scalar report."""
        funded = report > self.swing[:, q]
        if not funded.any():
            return np.zeros(self.samples)
        log_a = self.log_anchor[:, q]
        log_1ma = self.log_1m_anchor[:, q]
        # own-report log terms (scalar; -inf allowed at the boundary reports)
        own = 0.0
        if belief > 0.0:
            own += belief * (math.log(report) if report > 0.0 else -math.inf)
        if belief < 1.0:
            own += (1.0 - belief) * (math.log1p(-report) if report < 1.0 else -math.inf)
        numerator = own - (belief * log_a + (1.0 - belief) * log_1ma)
        upper = report > self.anchor[:, q]
        denom = np.where(upper, -log_a, -log_1ma)
        value = numerator / denom
        # forced decisions (anchor 0): limiting constant rule pays on repayment
        value = np.where(self.anchor_zero[:, q], belief if report > 0.0 else 0.0, value)
        return np.where(funded, value, 0.0)

    def _contributions(self, belief_row, report_row) -> list[np.ndarray]:
        return [
            self.column_contribution(q, float(belief_row[q]), float(report_row[q]))
            for q in range(self.m)
        ]

    def utilities(self, belief_row: Sequence[float], report_row: Sequence[float]) -> np.ndarray:
        return np.sum(self._contributions(belief_row, report_row), axis=0)

    def column(self, true_row: Sequence[float], q: int) -> Callable[[float], np.ndarray]:
        """Scorer for reports equal to `true_row` except in coordinate q.

        Beliefs are `true_row`. Only column q depends on the report, so each
        call recomputes that column alone on top of the others' truth.
        """
        truth = self._contributions(true_row, true_row)
        rest = np.sum(truth, axis=0) - truth[q]
        belief = float(true_row[q])
        return lambda report: rest + self.column_contribution(q, belief, report)

