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

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .aggregation import Aggregator, WeightedLinear, aggregate, aggregate_columns
from .errors import ZeroWeightRecommender
from .mechanism import Allocation, Engine, FundingTest, Grid, Moments, Payments, SampleEngine
from .mechanism import Settlement, check_reports, check_rounds, elementwise_moments, left_sum
from .mechanism import linear_scores, masked, one_round, others_scores, stack_loans

BELOW_ONE = 1.0 - 2.0**-53  # the float just below 1


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

    # The mechanism interface (see lendmech.mechanism). `allocate` and
    # `settle` forward to the module-level functions of the same name,
    # looked up at each call: perfbench/tracer.py times them by patching
    # the module.

    def allocate(self, reports) -> Allocation:
        return allocate(self, reports)

    def select(self, scores: Sequence[float]) -> Allocation:
        """`allocate`'s rule applied to the borrowers' aggregate scores, a
        list of floats: fund q iff its score is above c, and under a cap
        only the top-`cap` such borrowers, ties going to the lower index."""
        eligible = sorted(
            (q for q, s in enumerate(scores) if s > self.threshold),
            key=lambda q: (-scores[q], q),
        )
        funded = set(eligible[: self.cap])
        return Allocation(tuple(1 if q in funded else 0 for q in range(self.m)))

    def settle(
        self, reports, outcomes: Mapping[int, int], allocation: Optional[Allocation] = None
    ) -> Settlement:
        return settle(self, reports, outcomes, allocation)

    def allocate_rounds(self, weights, reports) -> list[Allocation]:
        """Allocate a stack of rounds on this instance: round r's reports,
        (R, n, m), under a linear pool of weights `weights[r]`, (R, n), as a
        campaign's rounds differ in their weights; a custom pool reads no
        weights (pass its `weights_in_force`) and plays every round. The
        stack is checked once and each round is `allocate`'s."""
        w, arr = check_rounds(self, weights, reports, weighted=self._linear)
        return _allocate_rounds(self, w, arr)

    def settle_rounds(
        self,
        weights,
        reports,
        outcomes: Sequence[Mapping[int, int]],
        allocations: Optional[Sequence[Allocation]] = None,
    ) -> Payments:
        """Settle a stack of rounds in one pass: round r's reports,
        (R, n, m), under weights `weights[r]` (as `allocate_rounds`), its
        outcomes, and its allocation (`allocations` None: allocate every
        round).

        Every recommender is paid on each funded borrower through
        `WinklerPayment`, anchored at their marginal threshold: a funded
        report lies above it (in exact arithmetic), so that is the Winkler
        rule's upper branch, or the limit rule where the others fund the
        borrower alone. Under a cap the thresholds stay the uncapped ones.
        Linear pools take every round's thresholds from one
        `funding_thresholds` call, and every funded borrower of the stack
        is paid by one `WinklerPayment`: elementwise arithmetic, so each
        payment is the one its round gets when settled alone, bit for bit.
        There is no charge or rebate; a round's payments are summed
        borrower by borrower.
        """
        w, arr = check_rounds(self, weights, reports, outcomes, allocations, weighted=self._linear)
        return _settle(self, w, arr, outcomes, allocations)

    def expost_utility(self, reports, i: int, belief_row: Sequence[float]) -> float:
        """Recommender i's utility given everyone's reports, in expectation
        over their own beliefs about funded borrowers (outcomes not yet
        observed)."""
        w, arr = one_round(self, reports)
        funded = _allocate(self, arr[0]).funded_real
        paid = WinklerPayment(_thresholds(self, w, arr)[0, i])(belief_row, arr[0, i])
        return left_sum(float(paid[q]) for q in funded)

    def engine(self, i: int, others: np.ndarray) -> Union["ColumnEngine", SampleEngine]:
        """The vectorized `ColumnEngine`; `SampleEngine` under a cap or a
        custom pool, which `ColumnEngine` does not model."""
        if self.cap is None and self._linear:
            return ColumnEngine(self, i, others)
        return SampleEngine(self, i, others)

    @property
    def weights_in_force(self) -> tuple[float, ...]:
        if self._linear:
            return self.aggregator.weights.weights
        return (math.nan,) * self.n

    @property
    def _linear(self) -> bool:
        return isinstance(self.aggregator, WeightedLinear)


def allocate(inst: WinklerInstance, reports) -> Allocation:
    """Funding vector: borrower q gets a loan iff aggregate(column q) > c.

    Under a cap only the top-`cap` such borrowers by aggregate are funded,
    ties going to the lower index.
    """
    return _allocate(inst, check_reports(reports, (inst.n, inst.m)))


def _allocate(inst: WinklerInstance, arr: np.ndarray) -> Allocation:
    """`allocate` of an already checked report matrix."""
    return inst.select(aggregate_columns(inst.aggregator, arr).tolist())


def _allocate_rounds(inst: WinklerInstance, w: np.ndarray, arr: np.ndarray) -> list[Allocation]:
    """`allocate_rounds` of a checked stack: a linear pool scores every
    round in one `linear_scores` pass, each round's weights broadcast
    against its row; a custom pool is called round by round."""
    if not inst._linear:
        return [_allocate(inst, matrix) for matrix in arr]
    return [inst.select(row) for row in linear_scores(w.T[:, :, np.newaxis], arr).tolist()]


def _bisect_threshold(inst: WinklerInstance, column: np.ndarray, i: int) -> float:
    """The largest report by i that leaves the borrower unfunded under the
    allocation's own test, with the closed form's two end rules: 0 if a
    report of 0 funds the borrower or leaves the score exactly at the
    threshold, 1 if no report below 1 funds it.

    The aggregator never falls as i's report rises, so this is a bisection
    over the bit patterns of the floats in [0, 1], which are ordered as the
    floats are; it ends with the borrower unfunded at `lo` and funded one
    float above it.
    """

    def score(bits: int) -> float:
        value = float(np.int64(bits).view(np.float64))
        return aggregate(inst.aggregator, tuple(column[:i]) + (value,) + tuple(column[i + 1 :]))

    lo, hi = 0, int(np.float64(1.0).view(np.int64)) - 1  # 0 and the float below 1
    if score(lo) >= inst.threshold:
        return 0.0
    if score(hi) <= inst.threshold:
        return 1.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if score(mid) > inst.threshold:
            hi = mid
        else:
            lo = mid
    return float(np.int64(lo).view(np.float64))


def funding_thresholds(c: float, weights, reports: np.ndarray) -> np.ndarray:
    """Every recommender's marginal funding thresholds under the linear pool
    `weights`, for an (n, m) report matrix: the report at which each
    recommender swings each column. A stack of rounds, (R, n, m) reports
    under (R, n) weights, gives every round's thresholds, each bit for bit
    its own call's.

    The closed form (c - others' score) / w_i, clipped to [0, 1], every
    others' score from one `others_scores` pass; it depends only on the
    others' reports. Where it lands above 0 and below 1, a report of the
    float below 1 is scored by the allocation's own test, all such
    reports of the stack in one `linear_scores` pass, and the threshold is
    1 (the idle rule, which pays 0) where that leaves the column unfunded.
    These are `_bisect_threshold`'s end rules, the 0 rule first. A
    zero-weight recommender never swings a decision and gets the sentinel
    +inf (their payment is zero).
    """
    w = np.asarray(weights, dtype=float)
    arr = np.asarray(reports, dtype=float)
    if arr.ndim == 2:
        return funding_thresholds(c, w[np.newaxis], arr[np.newaxis])[0]
    w_i = w[:, :, np.newaxis]
    # w_i = 0 is replaced below; a tiny w_i may overflow, which the clip caps at 1.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        swing = np.clip((c - others_scores(w, arr)) / w_i, 0.0, 1.0)
    anchor = np.where(w_i == 0.0, np.inf, swing)
    near = (anchor > 0.0) & (anchor < 1.0)  # an anchor of 0 keeps the 0 rule
    if near.any():
        r, i, q = np.nonzero(near)
        columns = arr[r, :, q]  # (near, n), a copy, with i's report at the float below 1
        columns[np.arange(len(r)), i] = BELOW_ONE
        idle = linear_scores(w[r].T[:, :, np.newaxis], columns[:, :, np.newaxis])[:, 0] <= c
        anchor[r[idle], i[idle], q[idle]] = 1.0
    return anchor


def marginal_thresholds(inst: WinklerInstance, reports) -> np.ndarray:
    """Per-(recommender, borrower) marginal threshold: the report at which
    the recommender swings the borrower's funding, each payment's anchor.

    Linear aggregators use `funding_thresholds`: the closed form on the
    others' linear scores, with its end rules. For a custom monotone
    aggregator the threshold is exactly the largest report that leaves the
    borrower unfunded under the allocation's own test, with the same end
    rules (0 if a report of 0 funds it or leaves the score exactly at the
    threshold, 1 if no report below 1 does; `_bisect_threshold`), so a
    funded report lies above it, or at an anchor of 1, which pays nothing.
    """
    return _thresholds(inst, *one_round(inst, reports))[0]


def _thresholds(inst: WinklerInstance, w: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """`marginal_thresholds` of a checked stack of report matrices,
    (R, n, m), matrix r under weights `w[r]`: one `funding_thresholds` call
    for a linear pool, else each threshold bisected under the custom pool."""
    if inst._linear:
        return funding_thresholds(inst.threshold, w, arr)
    n, m = arr.shape[1:]
    return np.array(
        [[[_bisect_threshold(inst, matrix[:, q], i) for q in range(m)] for i in range(n)]
         for matrix in arr]
    )


def marginal_threshold(inst: WinklerInstance, reports, i: int, q: int) -> float:
    """Scalar accessor; raises for a recommender whose weight is zero."""
    if isinstance(inst.aggregator, WeightedLinear) and inst.aggregator.weights.weights[i] == 0.0:
        raise ZeroWeightRecommender(
            f"recommender {i} has zero weight and no finite funding threshold"
        )
    return float(marginal_thresholds(inst, reports)[i, q])


class WinklerPayment:
    """The log-based Winkler payment, anchored at marginal thresholds.

    Built once per array of anchors (thresholds), which also builds their
    logs. Calling it with beliefs and reports, each a scalar or an array
    that broadcasts against the anchors, gives the expected payment over
    o ~ Bernoulli(belief); a realized outcome o is belief o. It is only
    paid on a funded borrower, where the report lies above the anchor, so
    it is always the Winkler rule's upper branch: the log score's gain over
    the anchor's, divided by -log(anchor). (A linear pool's closed-form
    anchor may sit a few ulps above the funding test's exact bound; a
    funded report in between is paid by the same formula, within rounding
    of zero.) The payment is zero at the anchor, and -inf for a report
    that put zero mass on an outcome the belief allows. Two anchors take
    fixed rules:
    - 0 (the others fund the borrower alone): the limit rule, which pays 1
      on repayment and 0 on default for any positive report, and 0 for a
      report of 0;
    - 1 or more: 0. A report reaches an anchor of 1 only as a report of 1
      where no report below 1 funds, which is the zero point, and never
      the +inf of a zero-weight recommender.

    The anchors are fixed, so the anchors under each rule are found once,
    as indices (the selection rule is `mechanism.masked`'s). A scalar
    belief and report, as the interim engines score, take the log-score
    formula on every anchor and then each rule's constant by index
    assignment, with no per-sample select: bit for bit the array path's
    `np.where`, which arrays of beliefs or reports (a settlement) keep.
    The last scalar belief's `offset` is kept, as a search scores every
    report of a column at its one true belief.
    """

    def __init__(self, anchor) -> None:
        # The anchors themselves are not kept: an engine holds one payment
        # per column for the whole search.
        anchor = np.asarray(anchor, dtype=float)
        self.limit = anchor == 0.0
        self.idle = anchor >= 1.0
        self.limit_at, self.idle_at = np.flatnonzero(self.limit), np.flatnonzero(self.idle)
        safe = anchor.copy()
        self.put_rules(safe, 0.5, 0.5)
        # -log(a), the upper branch's divisor, and -log(1 - a), which only
        # enters the numerator (`offset`); both positive
        self.neg_log_a = -np.log(safe)
        self.neg_log_1ma = -np.log1p(-safe)
        self._kept_offset: tuple = (None, None)  # (scalar belief, its offset)

    @staticmethod
    def own(belief, report) -> np.ndarray:
        """The belief-weighted log score b log r + (1 - b) log(1 - r), the
        part of the payment that depends on the report."""
        belief = np.asarray(belief, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(belief > 0.0, belief * np.log(report), 0.0) + np.where(
                belief < 1.0, (1.0 - belief) * np.log1p(-report), 0.0
            )

    def offset(self, belief) -> np.ndarray:
        """What the payment's numerator adds to `own`: minus own at the anchor."""
        belief = np.asarray(belief, dtype=float)
        return belief * self.neg_log_a + (1.0 - belief) * self.neg_log_1ma

    def __call__(self, belief, report) -> np.ndarray:
        if np.ndim(belief) == 0 and np.ndim(report) == 0:
            return self._scalar(float(belief), float(report))
        belief = np.asarray(belief, dtype=float)
        # The divisor is positive; an infinite log score stays infinite.
        value = (self.own(belief, report) + self.offset(belief)) / self.neg_log_a
        value = np.where(self.limit, belief * (report > 0.0), value)
        return np.where(self.idle, 0.0, value)

    def _scalar(self, belief: float, report: float) -> np.ndarray:
        """`__call__` of one belief and one report, bit for bit: the same
        formula, and each rule's value put at its precomputed indices."""
        if self._kept_offset[0] != belief:
            self._kept_offset = (belief, self.offset(belief))
        value = np.asarray((self.own(belief, report) + self._kept_offset[1]) / self.neg_log_a)
        self.put_rules(value, belief * (report > 0.0), 0.0)
        return value

    def put_rules(self, values: np.ndarray, at_limit: float, at_idle: float) -> None:
        """Set `values`, an array of the anchors' shape, to `at_limit` at
        the limit anchors and `at_idle` at the idle ones, by index."""
        flat = values.reshape(-1)  # a view: `values` is contiguous
        flat[self.limit_at] = at_limit
        flat[self.idle_at] = at_idle


def settle(
    inst: WinklerInstance,
    reports,
    outcomes: Mapping[int, int],
    allocation: Optional[Allocation] = None,
) -> Settlement:
    """Outcome-contingent payments for every funded borrower:
    `WinklerInstance.settle_rounds` of this one round. `outcomes` must
    cover exactly the funded borrowers; `allocation`, when given, must be
    `inst.allocate(reports)`, and saves allocating again."""
    w, arr = one_round(inst, reports)
    allocations = None if allocation is None else [allocation]
    return _settle(inst, w, arr, [outcomes], allocations).settlement(0)


def _settle(
    inst: WinklerInstance, w: np.ndarray, arr: np.ndarray, outcomes, allocations
) -> Payments:
    """`WinklerInstance.settle_rounds` of a checked stack."""
    allocs = _allocate_rounds(inst, w, arr) if allocations is None else list(allocations)
    r, q, outcome = stack_loans(allocs, outcomes)
    paid = WinklerPayment(_thresholds(inst, w, arr)[r, :, q])(outcome[:, np.newaxis], arr[r, :, q])
    return Payments(allocs, np.zeros(w.shape), None, paid, recommender_major=False)


class ColumnEngine(Engine):
    """Vectorized per-borrower interim machinery for one recommender.

    Precomputes, for a fixed batch of sampled co-reports, each column's
    `FundingTest` against the profit threshold, which funds each sample as
    the allocation does, and its `WinklerPayment`, anchored at the funding
    threshold of i's report. The anchors come from the tests' closed forms,
    and each test's `funds` of the float below 1 gives the idle rule near 1
    (exact only within its margin), with no second pass over the
    co-reports; they equal each sample's `marginal_thresholds` bit for bit.
    Linear aggregators and uncapped instances only.

    `utilities` scores a full report row, column by column, a few vector
    operations over the samples each; it is the reference. `column` scores
    a whole grid of reports on one coordinate through `mechanism.Grid`, the
    block model VCG's engine shares (see there and `WinklerColumn`), which
    is what makes grid-misreport searches at 1e5 samples cheap.
    """

    def __init__(self, inst: WinklerInstance, i: int, others: np.ndarray) -> None:
        if not isinstance(inst.aggregator, WeightedLinear):
            raise ValueError("vectorized interim evaluation requires a linear aggregator")
        w = inst.aggregator.weights.weights
        # Each test keeps a view of its column of `others`, (samples, n-1, m),
        # not a copy: contiguous rows of a drawn block, which lies item-major.
        self.funding = [FundingTest(w, i, others[:, :, q].T, inst.threshold) for q in range(inst.m)]
        # A test's seed is (c - B) / w_i capped at 2, or -inf where B > c:
        # clipped to [0, 1], and raised to 1 where it is above 0 and a report
        # of the float below 1 does not fund (decided exactly only within
        # the test's margin), it is each sample's `funding_thresholds` bit
        # for bit; with w_i = 0 every anchor is +inf.
        self.payments = []
        for test in self.funding:
            anchor = np.clip(test.seed, 0.0, 1.0)
            np.maximum(anchor, masked(1.0, (anchor > 0.0) & ~test.funds(BELOW_ONE)), out=anchor)
            self.payments.append(WinklerPayment(anchor if w[i] != 0.0 else anchor + np.inf))
        self.m = inst.m
        self._kept = [((), None)] * inst.m  # per column: (belief, report), its payoffs

    def column_contribution(self, q: int, belief: float, report: float) -> np.ndarray:
        """Per-sample expected payoff on borrower q for a scalar report: the
        payment where the report funds, else 0.0, picked by `masked`, so a
        report of 0 or 1, whose payment may be -inf, takes the same select.
        Each column's last payoffs are kept, so the truth's, scored first
        in a block by `utilities`, are not scored again by its column;
        callers only read them."""
        if self._kept[q][0] != (belief, report):
            payoffs = masked(self.payments[q](belief, report), self.funding[q].funds(report))
            self._kept[q] = ((belief, report), payoffs)
        return self._kept[q][1]

    def utilities(self, belief_row: Sequence[float], report_row: Sequence[float]) -> np.ndarray:
        contributions = [
            self.column_contribution(q, float(belief_row[q]), float(report_row[q]))
            for q in range(self.m)
        ]
        return np.sum(contributions, axis=0)

    def column(self, true_row: Sequence[float], q: int, reports) -> "WinklerColumn":
        return WinklerColumn(true_row, q, reports)


class WinklerColumn:
    """Truth minus each report on coordinate q of a `ColumnEngine`, over a
    search's blocks (see `mechanism.Engine`).

    The reports replace `true_row[q]`; beliefs are `true_row`. Only column
    q depends on the report, so on a sample truth minus report r is
    `column_contribution(q, b, b) - column_contribution(q, b, r)`,
    b = `true_row[q]`. Reports at 0 or 1, and every report when the truth
    is at 0 or 1, are scored that way, elementwise, so the log score's
    infinities follow `Moments`' rule.

    The rest go through a `Grid` in O(samples + reports * blocks), with
    the level blocks of column q's `FundingTest`, and equal that
    difference's `mean_se` up to rounding. A funded sample pays
    u + alpha * (own(r) - own(truth)): u is the truth's payment and alpha
    1 / -log(anchor), or 0 at a limit or idle anchor, whose payment does
    not depend on a report in (0, 1). That is the payment itself
    (`WinklerPayment` always divides by -log(anchor)), so it holds on every
    funded sample, reports an ulp past the funding bound included; the gain
    is own(truth) - own(r). The split, the gains and the levels' edges are
    set once per search, not per block.
    """

    def __init__(self, true_row: Sequence[float], q: int, reports) -> None:
        reports = np.asarray(reports, dtype=float)
        self.q, self.belief = q, float(true_row[q])
        self.edge = (reports == 0.0) | (reports == 1.0) | (self.belief in (0.0, 1.0))
        self.edge_reports, self.parts = reports[self.edge], []
        own_truth = float(WinklerPayment.own(self.belief, self.belief))
        gain = own_truth - WinklerPayment.own(self.belief, reports[~self.edge])
        self.grid = Grid(self.belief, reports[~self.edge], gain)

    def add(self, engine: ColumnEngine, truth_values: np.ndarray) -> None:
        """Reduce one block; the truth's utilities are not needed here."""
        q, belief = self.q, self.belief
        if len(self.edge_reports):
            truth = engine.column_contribution(q, belief, belief)
            score = functools.partial(engine.column_contribution, q, belief)
            self.parts.append(elementwise_moments(score, truth, self.edge_reports))
        if len(self.grid.reports):
            pay = engine.payments[q]
            alpha = 1.0 / pay.neg_log_a
            pay.put_rules(alpha, 0.0, 0.0)
            self.grid.add(self.grid.blocks(engine.funding[q]), pay(belief, belief), alpha)

    def stats(self) -> tuple[np.ndarray, np.ndarray]:
        mean, se = np.empty(len(self.edge)), np.empty(len(self.edge))
        if len(self.edge_reports):
            mean[self.edge], se[self.edge] = Moments.merge(self.parts).stats()
        if len(self.grid.reports):
            mean[~self.edge], se[~self.edge] = self.grid.stats()
        return mean, se
