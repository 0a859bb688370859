"""Truncated Winkler mechanism tests."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lendmech import audit, mechanism, winkler
from lendmech.aggregation import MonotoneCustom, WeightVector, WeightedLinear
from lendmech.errors import (
    MissingOutcome,
    OutcomeForUnfundedBorrower,
    ShapeMismatch,
    ZeroWeightRecommender,
)
from funding_oracle import report_bounds
from lendmech.mechanism import SampleEngine, left_sum, linear_scores, mean_se
from lendmech.priors import DegenerateAt, ProductGrid, UniformIID, sample_others
from lendmech.winkler import WinklerInstance
from stats_helpers import assert_stats_close, utility_scale, with_report

BELIEFS = [[0.7, 0.4], [0.4, 0.85], [0.6, 0.4]]
EIGHTHS = [k / 8 for k in range(9)]
NON_DYADIC_WEIGHTS = [(1 / 3, 1 / 3, 1 / 3), (1 / 7, 2 / 7, 4 / 7), (0.1, 0.3, 0.6)]
# Profit thresholds for the tie tests: at several of them, eighth-grid
# columns under those weights fund a report that sits at or a few ulps below
# its closed-form anchor.
TIE_THRESHOLDS = [0.125, 0.25, 0.3, 0.5, 0.625, 0.7]
# Under weights (0.1, 0.3, 0.6) and c = 0.3, recommender 0's report 0.75 on
# this column funds the borrower, yet lies a few ulps below the closed-form
# anchor (0.3 - 0.225) / 0.1.
TIE_COLUMN = (0.75, 0.25, 0.25)


def gate(inst, i, others, q):
    """Per sample, the largest report by i that leaves column q unfunded:
    the exact bound, from the bisection oracle."""
    return report_bounds(inst.aggregator.weights.weights, i, others[:, :, q].T, inst.threshold)


def anchors(inst, i, others, q):
    """Per sample, column q's payment anchor: the marginal threshold of the
    sample's report matrix (i's own report, here 0, does not move it)."""
    w = inst.aggregator.weights.weights
    matrices = [np.insert(co, i, 0.0, axis=0) for co in others]
    return np.array([winkler.funding_thresholds(inst.threshold, w, a)[i, q] for a in matrices])


def upper_branch(anchor, belief, report):
    """The Winkler payment on a funded borrower, written out: the limit rule
    at anchor 0, nothing at anchor 1, else the log score's gain over the
    anchor's divided by -log(anchor), whichever side of the anchor the
    report is on."""
    if anchor == 0.0:
        return belief * (report > 0.0)
    if anchor >= 1.0:
        return 0.0
    with np.errstate(divide="ignore"):  # a report of 0 or 1 scores -inf
        own = (belief * np.log(report) if belief > 0.0 else 0.0) + (
            (1.0 - belief) * np.log1p(-report) if belief < 1.0 else 0.0
        )
    offset = belief * -np.log(anchor) + (1.0 - belief) * -np.log1p(-anchor)
    return (own + offset) / -np.log(anchor)


def make_instance(n=3, m=2, c=0.5, weights=None, cap=None):
    wv = WeightVector(weights) if weights is not None else WeightVector.equal(n)
    return WinklerInstance(n=n, m=m, threshold=c, aggregator=WeightedLinear(wv), cap=cap)


class TestAllocate:
    def test_both_borrowers_funded_without_cap(self):
        # aggregates 0.5667 and 0.55 both clear c = 0.5
        assert winkler.allocate(make_instance(), BELIEFS).real == (1, 1)

    def test_all_zero_reports(self):
        assert winkler.allocate(make_instance(), np.zeros((3, 2))).real == (0, 0)

    def test_boundary_report_not_funded(self):
        inst = make_instance(n=1, m=1, c=0.5)
        assert winkler.allocate(inst, [[0.5]]).real == (0,)
        assert winkler.allocate(inst, [[0.5 + 1e-9]]).real == (1,)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            winkler.allocate(make_instance(), [[0.5, 0.5]])

    def test_rejects_nan_report(self):
        reports = np.array(BELIEFS)
        reports[2, 1] = np.nan
        with pytest.raises(ValueError, match="reports must be finite"):
            winkler.allocate(make_instance(), reports)


class TestCap:
    def test_funds_top_cap_by_aggregate(self):
        # aggregates 0.5667 and 0.55 both clear c = 0.5; the cap keeps one
        inst = make_instance(cap=1)
        assert winkler.allocate(inst, BELIEFS).real == (1, 0)
        assert inst.allocate(BELIEFS).funded_real == (0,)

    def test_settle_rejects_outcome_outside_zero_one(self):
        inst = make_instance(cap=1)
        with pytest.raises(ValueError, match="must be 0 or 1"):
            inst.settle(BELIEFS, {0: 2})

    def test_extra_report_columns_rejected(self):
        inst = make_instance(cap=1)
        with pytest.raises(ShapeMismatch):
            inst.allocate(np.full((3, 3), 0.6))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda m: st.tuples(
        st.lists(st.sampled_from(EIGHTHS), min_size=m, max_size=m),
        st.none() | st.integers(1, m),
    )), st.sampled_from(TIE_THRESHOLDS))
    def test_select_funds_the_top_cap_above_c(self, case, c):
        # Ties on the eighth grid: at c itself (unfunded) and between
        # borrowers, where the lower index goes first under a cap.
        scores, cap = case
        inst = WinklerInstance(3, len(scores), c, WeightedLinear(WeightVector.equal(3)), cap=cap)
        ranked = sorted((-s, q) for q, s in enumerate(scores) if s > c)
        funded = {q for _, q in ranked[: len(scores) if cap is None else cap]}
        assert inst.select(scores).real == tuple(int(q in funded) for q in range(len(scores)))

    def test_cap_out_of_range(self):
        for cap in (0, 3):
            with pytest.raises(ValueError, match="cap"):
                make_instance(cap=cap)

    def test_capped_instance_has_no_vectorized_engine(self):
        # ColumnEngine knows no cap; a capped instance's engine is the
        # exact per-sample one
        inst = make_instance(cap=1)
        assert type(inst.engine(0, np.full((4, 2, 2), 0.5))) is SampleEngine
        assert type(make_instance().engine(0, np.full((4, 2, 2), 0.5))) is winkler.ColumnEngine


def weight_rows(insts):
    """The (R, n) weights under which a stack of rounds on `insts[0]`
    plays round r as `insts[r]`, which differs from it only in its pool's
    weights (NaN for a custom pool, which reads none)."""
    return np.array([inst.weights_in_force for inst in insts])


def settled_rounds(payments):
    """Every round of a settled stack as its `Settlement`."""
    return [payments.settlement(r) for r in range(len(payments.allocations))]


@st.composite
def allocation_batches(draw):
    """A stack of 1 to 4 rounds of one Winkler setting: n from 1 to 4, m
    from 1 to 8, c among the tie thresholds, no cap or a cap from 1 to m.
    Each round has its own linear pool, with weights from drawn shares
    (zeros and non-dyadic shares included), or every round the stack's one
    custom pool. Reports are on the eighth grid (ties among borrowers and
    with c) or uniform."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    c = draw(st.sampled_from(TIE_THRESHOLDS))
    cap = draw(st.none() | st.integers(1, m))
    custom = None
    insts, reports = [], []
    for _ in range(draw(st.integers(1, 4))):
        shares = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
        shares[draw(st.integers(0, n - 1))] += 1  # not every share 0
        weights = tuple(k / sum(shares) for k in shares)
        if not insts and draw(st.integers(0, 4)) == 0:
            custom = MonotoneCustom(
                fn=lambda col, w=weights: left_sum(a * p for a, p in zip(w, col)), arity=n
            )
        pool = custom or WeightedLinear(WeightVector(weights))
        insts.append(WinklerInstance(n=n, m=m, threshold=c, aggregator=pool, cap=cap))
        unit = st.sampled_from(EIGHTHS) if draw(st.booleans()) else st.floats(0.0, 1.0)
        reports.append(draw(st.lists(st.lists(unit, min_size=m, max_size=m), min_size=n,
                                     max_size=n)))
    return insts, np.array(reports, dtype=float)


class TestAllocateRounds:
    @settings(max_examples=250, deadline=None)
    @given(allocation_batches())
    @example(  # non-dyadic weights; 0.3 ties the first column's score
        ([make_instance(m=3, c=0.3, weights=(0.1, 0.3, 0.6))] * 2,
         np.array([[[0.75, 0.5, 0.0], [0.25, 0.5, 1.0], [0.25, 0.5, 0.0]]] * 2)),
    )
    @example(  # a cap of 1 with three tied borrowers
        ([make_instance(m=3, c=0.25, cap=1)], np.array([[[0.5, 0.5, 0.5]] * 3])),
    )
    @example(  # a cap of m
        ([make_instance(m=3, c=0.25, cap=3)], np.array([[[0.5, 0.25, 0.75]] * 3])),
    )
    def test_equals_allocate_row_by_row(self, batch):
        # One `allocate_rounds` call checks the stack once; each allocation
        # is the round's own instance's `allocate`, types included.
        insts, reports = batch
        alone = [inst.allocate(matrix) for inst, matrix in zip(insts, reports)]
        together = insts[0].allocate_rounds(weight_rows(insts), reports)
        assert together == alone
        assert repr(together) == repr(alone)

    def test_checks_the_stack(self):
        with pytest.raises(ShapeMismatch):
            make_instance().allocate_rounds([(1 / 3,) * 3] * 2, [BELIEFS])
        with pytest.raises(ValueError, match="reports must be finite"):
            make_instance().allocate_rounds([(1 / 3,) * 3], [[[0.5, np.inf]] * 3])


class TestMarginalThresholds:
    def test_worked_matrix(self):
        got = winkler.marginal_thresholds(make_instance(), BELIEFS)
        expected = [[0.5, 0.25], [0.2, 0.7], [0.4, 0.25]]
        assert np.allclose(got, expected, atol=1e-12)

    def test_single_recommender_reduces_to_lender_threshold(self):
        inst = make_instance(n=1, m=3, c=0.42)
        got = winkler.marginal_thresholds(inst, [[0.9, 0.1, 0.5]])
        assert np.allclose(got, 0.42)

    def test_zero_weight_sentinel(self):
        inst = make_instance(n=2, m=1, weights=(1.0, 0.0))
        got = winkler.marginal_thresholds(inst, [[0.9], [0.3]])
        assert math.isinf(got[1, 0])
        with pytest.raises(ZeroWeightRecommender):
            winkler.marginal_threshold(inst, [[0.9], [0.3]], 1, 0)

    def test_clamped_to_unit_interval(self):
        inst = make_instance(n=2, m=2, c=0.6)
        got = winkler.marginal_thresholds(inst, [[1.0, 0.0], [1.0, 0.0]])
        assert got[0, 0] == pytest.approx(0.2, abs=1e-12)  # (0.6 - 0.5) * 2
        assert got[0, 1] == 1.0  # cannot fund alone

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_row_depends_only_on_the_others(self, seed):
        # recommender i's thresholds come from the others' reports alone
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        w = rng.random(n) + 1e-3
        inst = make_instance(n=n, m=m, c=float(rng.uniform(0.05, 0.95)), weights=tuple(w / w.sum()))
        profile = rng.random((n, m))
        i = int(rng.integers(0, n))
        moved = profile.copy()
        moved[i] = rng.random(m)
        before = winkler.marginal_thresholds(inst, profile)
        after = winkler.marginal_thresholds(inst, moved)
        assert np.array_equal(before[i], after[i])

    def test_bisection_agrees_with_closed_form(self):
        linear = make_instance()
        w = (1 / 3, 1 / 3, 1 / 3)
        custom = WinklerInstance(
            n=3,
            m=2,
            threshold=0.5,
            aggregator=MonotoneCustom(
                fn=lambda col: sum(wi * p for wi, p in zip(w, col)), arity=3
            ),
        )
        a = winkler.marginal_thresholds(linear, BELIEFS)
        b = winkler.marginal_thresholds(custom, BELIEFS)
        assert np.allclose(a, b, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(NON_DYADIC_WEIGHTS),
        st.sampled_from(TIE_THRESHOLDS),
        st.lists(st.tuples(*[st.sampled_from(EIGHTHS)] * 3), min_size=1, max_size=2),
    )
    def test_custom_threshold_is_the_last_unfunded_report(self, weights, c, columns):
        # A custom pool that adds left to right, as linear_scores does: the
        # bisected threshold leaves the borrower unfunded and the next float
        # up funds it, so a funded report lies above its anchor. The ends
        # take the closed form's rules: 0 where a report of 0 funds or
        # leaves the score exactly at c, 1 where no report below 1 funds
        # (a report of 1 may, and is paid nothing).
        pool = MonotoneCustom(fn=lambda col: left_sum(w * p for w, p in zip(weights, col)), arity=3)
        inst = WinklerInstance(n=3, m=len(columns), threshold=c, aggregator=pool)
        reports = np.array(columns, dtype=float).T
        thresholds = winkler.marginal_thresholds(inst, reports)
        for i in range(3):
            others = np.delete(reports, i, axis=0)
            bound = report_bounds(weights, i, others, c)
            at_zero = linear_scores(weights, np.insert(others, i, 0.0, axis=0))
            want = np.where(bound >= np.nextafter(1.0, 0.0), 1.0, np.maximum(bound, 0.0))
            assert np.array_equal(thresholds[i], np.where(at_zero >= c, 0.0, want))
            for q in range(inst.m):

                def funds(value):
                    moved = reports.copy()
                    moved[i, q] = value
                    return winkler.allocate(inst, moved).real[q] == 1

                t = float(thresholds[i, q])
                if 0.0 < t < 1.0:
                    assert not funds(t)
                    assert funds(float(np.nextafter(t, 2.0)))
                elif t == 1.0:
                    assert not funds(float(np.nextafter(1.0, 0.0)))

    def test_custom_anchor_is_1_where_only_a_report_of_1_funds(self):
        # The score is the report and c the float below 1: a report of 1
        # funds, and none below it does. The anchor is 1, so the payment
        # is the idle rule's 0, not the log rule's -inf on default.
        pool = MonotoneCustom(fn=lambda col: col[0], arity=1)
        below_one = float(np.nextafter(1.0, 0.0))
        inst = WinklerInstance(n=1, m=1, threshold=below_one, aggregator=pool)
        assert winkler.marginal_thresholds(inst, [[1.0]]).tolist() == [[1.0]]
        assert winkler.settle(inst, [[1.0]], {0: 0}).contingent == {(0, 0): 0.0}

    def test_linear_anchor_is_1_where_only_a_report_of_1_funds(self):
        # The linear pool's twin of the case above. The closed form gives
        # (c - 0) / 1, the float below 1, but a report of it leaves the
        # score at c. The anchor is 1, in settlement and in the engine, so
        # a default pays 0, not the log rule's -inf.
        below_one = float(np.nextafter(1.0, 0.0))
        inst = make_instance(n=1, m=1, c=below_one, weights=(1.0,))
        assert winkler.marginal_thresholds(inst, [[1.0]]).tolist() == [[1.0]]
        assert winkler.settle(inst, [[1.0]], {0: 0}).contingent == {(0, 0): 0.0}
        engine = winkler.ColumnEngine(inst, 0, np.zeros((2, 0, 1)))
        assert engine.utilities((0.0,), (1.0,)).tolist() == [0.0, 0.0]

    def test_linear_anchor_keeps_the_0_rule_under_a_tiny_weight(self):
        # Recommender 1's weight is too small to move the score off c, so
        # no report funds; but a report of 0 leaves the score exactly at c,
        # and the 0 rule comes first, as in the custom pool: anchor 0, in
        # settlement's thresholds and in the engine.
        weights, reports = (1.0, 1e-300), [[0.5], [0.5]]
        linear = make_instance(n=2, m=1, c=0.5, weights=weights)
        pool = MonotoneCustom(fn=lambda col: left_sum(w * p for w, p in zip(weights, col)), arity=2)
        custom = WinklerInstance(n=2, m=1, threshold=0.5, aggregator=pool)
        want = winkler.marginal_thresholds(custom, reports)
        assert want[1, 0] == 0.0
        assert np.array_equal(winkler.marginal_thresholds(linear, reports), want)
        engine = winkler.ColumnEngine(linear, 1, np.array([[[0.5]]]))
        assert engine.payments[0].limit.tolist() == [True]

    @pytest.mark.parametrize("weights", NON_DYADIC_WEIGHTS)
    @pytest.mark.parametrize("c", [0.125, 0.25])
    def test_custom_pool_takes_the_linear_pools_end_anchors(self, weights, c):
        # Every funded eighth-grid column: a custom pool that adds the linear
        # pool's terms in the same order anchors at 0 and at 1 exactly where
        # the linear pool does, and elsewhere within a few ulps of it (the
        # exact bound against the closed form). So no default pays 0 under
        # one pool (the limit rule) and -inf under the other (the log rule
        # at a tiny anchor, for a report of 1).
        grid = np.array(list(itertools.product(EIGHTHS, repeat=3))).T
        linear = make_instance(n=3, m=grid.shape[1], c=c, weights=weights)
        reports = grid[:, np.array(linear.allocate(grid).real, dtype=bool)]
        linear = make_instance(n=3, m=reports.shape[1], c=c, weights=weights)
        pool = MonotoneCustom(fn=lambda col: left_sum(w * p for w, p in zip(weights, col)), arity=3)
        custom = WinklerInstance(n=3, m=reports.shape[1], threshold=c, aggregator=pool)
        a_linear = winkler.marginal_thresholds(linear, reports)
        a_custom = winkler.marginal_thresholds(custom, reports)
        for end in (0.0, 1.0):
            assert np.array_equal(a_linear == end, a_custom == end)
        assert np.all(np.abs(a_linear - a_custom) <= 8 * np.finfo(float).eps)
        defaults = {q: 0 for q in range(reports.shape[1])}
        paid_linear = linear.settle(reports, defaults).contingent
        paid_custom = custom.settle(reports, defaults).contingent
        split = [k for k in paid_linear if {paid_linear[k], paid_custom[k]} == {0.0, -np.inf}]
        assert not split


class TestSettle:
    def test_zero_immediate_payments(self):
        settlement = winkler.settle(make_instance(), BELIEFS, {0: 1, 1: 0})
        assert settlement.immediate == (0.0, 0.0, 0.0)

    def test_zero_point_primitive(self):
        # the anchored rule pays exactly zero at the anchor, either outcome
        for outcome in (0, 1):
            assert winkler.WinklerPayment(0.3)(outcome, 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_forced_loan_pays_limit_rule(self):
        # others fund the borrower alone: the anchor clamps to 0 and the
        # payment degenerates to 1 on repayment, 0 on default
        inst = make_instance(n=3, m=1, c=0.5)
        reports = [[0.4], [0.9], [0.9]]
        repaid = winkler.settle(inst, reports, {0: 1})
        defaulted = winkler.settle(inst, reports, {0: 0})
        assert repaid.contingent[(0, 0)] == 1.0
        assert defaulted.contingent[(0, 0)] == 0.0

    def test_outcome_coverage_validated(self):
        inst = make_instance()
        with pytest.raises(MissingOutcome):
            winkler.settle(inst, BELIEFS, {0: 1})
        with pytest.raises(OutcomeForUnfundedBorrower):
            winkler.settle(inst, np.zeros((3, 2)), {0: 1})

    def test_zero_weight_recommender_paid_nothing(self):
        inst = make_instance(n=2, m=1, weights=(1.0, 0.0))
        settlement = winkler.settle(inst, [[0.9], [0.2]], {0: 1})
        assert settlement.contingent[(1, 0)] == 0.0

    def test_realized_utility_sums_contingent(self):
        settlement = winkler.settle(make_instance(), BELIEFS, {0: 1, 1: 1})
        expected = settlement.contingent[(0, 0)] + settlement.contingent[(0, 1)]
        assert settlement.realized_utility(0) == pytest.approx(expected)

    @pytest.mark.parametrize("kind", ["linear", "capped", "custom"])
    def test_rounds_settled_together_equal_rounds_settled_alone(self, kind):
        # Each round under its own weights, some zero and non-dyadic, on
        # eighth-grid reports that sit at thresholds, and some rounds with no
        # funded borrower. A custom pool reads no weights, and its
        # thresholds are bisected round by round.
        rng = np.random.default_rng(23)
        weight_list = NON_DYADIC_WEIGHTS + [(0.5, 0.0, 0.5), (1.0, 0.0, 0.0)]
        cap = 2 if kind == "capped" else None
        insts = [make_instance(n=3, m=4, c=0.3, weights=w, cap=cap) for w in weight_list]
        if kind == "custom":
            pool = MonotoneCustom(fn=lambda col: left_sum(p / 3 for p in col), arity=3)
            insts = [WinklerInstance(n=3, m=4, threshold=0.3, aggregator=pool)] * len(weight_list)
        reports = rng.choice(EIGHTHS, size=(len(insts), 3, 4))
        reports[-1] = 0.0
        outcomes = []
        for inst, matrix in zip(insts, reports):
            funded = inst.allocate(matrix).funded_real
            outcomes.append({q: int(rng.integers(0, 2)) for q in funded})
        payments = insts[0].settle_rounds(weight_rows(insts), reports, outcomes)
        assert payments.tcomp is None and not payments.immediate.any()
        together = settled_rounds(payments)
        alone = [winkler.settle(*args) for args in zip(insts, reports, outcomes)]
        assert together == alone
        for a, b in zip(together, alone):  # -0.0 and 0.0 are equal; bits are not
            assert [np.float64(v).tobytes() for v in a.contingent.values()] == [
                np.float64(v).tobytes() for v in b.contingent.values()
            ]

    def test_rounds_must_share_all_but_their_weights(self):
        # The rounds of a stack share one instance; their weights are one
        # row per round, (R, n), finite and nonnegative for a linear pool.
        inst = make_instance()
        with pytest.raises(ShapeMismatch, match=r"weights shape \(2, 2\) != \(R, 3\)"):
            inst.settle_rounds([(0.5, 0.5)] * 2, [BELIEFS] * 2, [{0: 1, 1: 0}] * 2)
        with pytest.raises(ShapeMismatch, match=r"weights shape \(3,\) != \(R, 3\)"):
            inst.allocate_rounds((1 / 3,) * 3, [BELIEFS] * 3)
        with pytest.raises(ShapeMismatch, match=r"reports shape \(2, 3, 2\) != \(3, 3, 2\)"):
            inst.allocate_rounds([(1 / 3,) * 3] * 3, [BELIEFS] * 2)
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            inst.allocate_rounds([(0.5, math.nan, 0.5)], [BELIEFS])
        with pytest.raises(ValueError, match="one entry per round"):
            inst.settle_rounds([(1 / 3,) * 3] * 2, [BELIEFS] * 2, [{0: 1, 1: 0}])

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(NON_DYADIC_WEIGHTS),
        st.sampled_from(TIE_THRESHOLDS),
        st.lists(st.tuples(*[st.sampled_from(EIGHTHS)] * 3), min_size=1, max_size=2),
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
    )
    @example((0.1, 0.3, 0.6), 0.3, [TIE_COLUMN, TIE_COLUMN], (0, 1))
    def test_funded_pairs_pay_the_upper_branch_at_ties(self, weights, c, columns, outcomes):
        # Eighth-grid columns under non-dyadic weights fund borrowers whose
        # reports sit at or an ulp off their closed-form anchors.
        m = len(columns)
        inst = make_instance(n=3, m=m, c=c, weights=weights)
        reports = np.array(columns, dtype=float).T
        realized = {q: outcomes[q] for q in inst.allocate(reports).funded_real}
        anchors = winkler.marginal_thresholds(inst, reports)
        settlement = inst.settle(reports, realized)
        assert len(settlement.contingent) == 3 * len(realized)
        for (i, q), paid in settlement.contingent.items():
            assert paid == upper_branch(anchors[i, q], realized[q], reports[i, q])
        # A one-sample engine on the same column pays what the mechanism does.
        belief_row = np.array(outcomes[:m], dtype=float)
        for i in range(3):
            engine = winkler.ColumnEngine(inst, i, np.delete(reports, i, axis=0)[np.newaxis])
            got = engine.utilities(belief_row, reports[i])
            assert got.tolist() == [inst.expost_utility(reports, i, belief_row)]


class TestExpostUtility:
    @pytest.mark.parametrize("custom", [False, True])
    def test_reports_are_checked_once(self, monkeypatch, custom):
        # `expost_utility`, and `settle` when it allocates, check the
        # reports once (`mechanism.one_round`) and allocate from the checked
        # array.
        inst = make_instance()
        if custom:
            pool = MonotoneCustom(fn=lambda col: left_sum(p / 3 for p in col), arity=3)
            inst = WinklerInstance(n=3, m=2, threshold=0.5, aggregator=pool)
        checks, check = [], mechanism.check_reports

        def counting(*args, **kwargs):
            checks.append(args[1])
            return check(*args, **kwargs)

        monkeypatch.setattr(mechanism, "check_reports", counting)
        monkeypatch.setattr(winkler, "check_reports", counting)
        inst.expost_utility(BELIEFS, 1, BELIEFS[1])
        assert checks == [(3, 2)]
        checks.clear()
        winkler.settle(inst, BELIEFS, {0: 1, 1: 0})
        assert checks == [(3, 2)]

    def test_truthful_expected_utilities_on_worked_instance(self):
        # both borrowers funded; recommender 1's utility adds the two columns
        inst = make_instance()
        arr = np.asarray(BELIEFS)
        got = inst.expost_utility(arr, 1, arr[1])
        col0 = winkler.WinklerPayment(0.2)(0.4, 0.4)
        col1 = winkler.WinklerPayment(0.7)(0.85, 0.85)
        assert got == pytest.approx(col0 + col1, abs=1e-12)

    def test_misreport_defunds_and_pays_on_other_column(self):
        inst = make_instance()
        deviated = np.asarray(BELIEFS, dtype=float)
        deviated[1, 0] = 0.0  # borrower 0 drops to 0.4333, unfunded
        got = inst.expost_utility(deviated, 1, np.asarray(BELIEFS)[1])
        assert got == pytest.approx(0.1711937892708008, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_truthful_utility_nonnegative(self, seed):
        # ex post participation rationality under truthful reporting
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        w = rng.random(n) + 1e-3
        inst = make_instance(n=n, m=m, c=float(rng.uniform(0.05, 0.95)), weights=tuple(w / w.sum()))
        profile = rng.random((n, m))
        for i in range(n):
            assert inst.expost_utility(profile, i, profile[i]) >= -1e-12


class TestThresholdDecisiveness:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_crossing_the_threshold_swings_funding(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        w = rng.random(n) + 1e-3
        inst = make_instance(n=n, m=m, c=float(rng.uniform(0.2, 0.8)), weights=tuple(w / w.sum()))
        profile = rng.random((n, m))
        thresholds = winkler.marginal_thresholds(inst, profile)
        i = int(rng.integers(0, n))
        q = int(rng.integers(0, m))
        t = thresholds[i, q]
        above = profile.copy()
        below = profile.copy()
        if t < 1.0:
            above[i, q] = min(1.0, t + 1e-6)
            assert winkler.allocate(inst, above).real[q] == 1
        if 0.0 < t:
            below[i, q] = max(0.0, t - 1e-6)
            assert winkler.allocate(inst, below).real[q] == 0


class TestInterimUtility:
    def test_single_recommender_degenerate_matches_closed_form(self):
        from lendmech.scoring import truthful_mechanism_utility

        inst = make_instance(n=1, m=1, c=0.3)
        mean, se = audit.interim_utility(
            inst, 0, (0.5,), (0.5,), DegenerateAt(((0.5,),)), samples=1, seed=0
        )
        assert se == 0.0
        assert mean == pytest.approx(
            truthful_mechanism_utility(0.3, 0.5, "trunc-winkler-log"), abs=1e-12
        )

    def test_deterministic_per_seed(self):
        inst = make_instance(n=3, m=2)
        a = audit.interim_utility(inst, 0, (0.6, 0.4), (0.6, 0.4), UniformIID(), 5000, 42)
        b = audit.interim_utility(inst, 0, (0.6, 0.4), (0.6, 0.4), UniformIID(), 5000, 42)
        c = audit.interim_utility(inst, 0, (0.6, 0.4), (0.6, 0.4), UniformIID(), 5000, 43)
        assert a == b
        assert a != c

    def test_zero_weight_recommender_is_zero(self):
        inst = make_instance(n=2, m=2, weights=(1.0, 0.0))
        assert audit.interim_utility(
            inst, 1, (0.6, 0.4), (0.9, 0.1), UniformIID(), 2000, 3
        ) == (0.0, 0.0)

    def test_sample_count_validated(self):
        inst = make_instance(n=2, m=1)
        with pytest.raises(ValueError):
            audit.interim_utility(inst, 0, (0.5,), (0.5,), UniformIID(), 0, 1)

    def test_engine_matches_slow_path(self):
        inst = make_instance(n=3, m=2)
        rng = np.random.default_rng(7)
        others = sample_others(UniformIID(), 3, 2, 1, 64, rng)
        engine = winkler.ColumnEngine(inst, 1, others)
        belief, report = (0.55, 0.25), (0.7, 0.1)
        fast = engine.utilities(belief, report)
        slow = SampleEngine(inst, 1, others).utilities(belief, report)
        assert np.allclose(fast, slow, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(NON_DYADIC_WEIGHTS),
        st.sampled_from([0.25, 0.5, 0.7]),
        st.integers(0, 2),
        st.lists(st.sampled_from(EIGHTHS), min_size=1, max_size=2),
        st.integers(0, 2**32 - 1),
    )
    def test_engine_matches_slow_path_on_eighth_grid_ties(self, weights, c, i, true_row, seed):
        # Eighth-grid co-reports under non-dyadic weights fund borrowers
        # exactly at c and put reports exactly at their thresholds.
        m = len(true_row)
        inst = make_instance(n=3, m=m, c=c, weights=weights)
        prior = ProductGrid(tuple(tuple(tuple(EIGHTHS) for _ in range(m)) for _ in range(3)))
        others = sample_others(prior, 3, m, i, 32, np.random.default_rng(seed))
        engine = winkler.ColumnEngine(inst, i, others)
        slow = SampleEngine(inst, i, others)
        true_row = tuple(true_row)
        for q in range(m):
            for value in EIGHTHS:
                row = with_report(true_row, q, value)
                expected = slow.utilities(true_row, row)
                np.testing.assert_allclose(
                    engine.utilities(true_row, row), expected, rtol=0, atol=1e-12
                )

    def test_full_confidence_report_with_default_mass_is_neg_inf(self):
        inst = make_instance(n=3, m=1)
        prior = DegenerateAt(((0.5,), (0.5,), (0.5,)))
        mean, _ = audit.interim_utility(inst, 0, (0.5,), (1.0,), prior, 1, 0)
        assert mean == -math.inf

    def test_zero_report_on_forced_loan_pays_limit_rule(self):
        # others fund the borrower regardless; the anchor degenerates to 0 and
        # a zero report sits exactly at the anchor, paying nothing either way
        inst = make_instance(n=3, m=1)
        prior = DegenerateAt(((0.9,), (0.9,), (0.9,)))
        mean, _ = audit.interim_utility(inst, 0, (0.5,), (0.0,), prior, 1, 0)
        assert mean == 0.0
        # any positive report on a forced loan pays the constant limit rule
        mean, _ = audit.interim_utility(inst, 0, (0.5,), (0.4,), prior, 1, 0)
        assert mean == pytest.approx(0.5, abs=1e-12)


def per_recommender_thresholds(inst, reports):
    """marginal_thresholds as one `linear_scores` call per recommender, with
    the idle rule checked on every entry: 1 wherever a report of the float
    below 1 leaves the column unfunded by the allocation's own test."""
    w = inst.aggregator.weights.weights
    arr = np.asarray(reports, dtype=float)
    below_one = float(np.nextafter(1.0, 0.0))
    out = np.full((inst.n, inst.m), np.inf)
    for i in np.flatnonzero(w):
        others_score = linear_scores(w[:i] + w[i + 1 :], np.delete(arr, i, axis=0))
        closed = np.clip((inst.threshold - others_score) / w[i], 0.0, 1.0)
        moved = arr.copy()
        moved[i] = below_one
        idle = linear_scores(w, moved) <= inst.threshold
        out[i] = np.where(idle, 1.0, closed)
    return out


class TestBatchedThresholds:
    @settings(max_examples=100, deadline=None)
    @given(
        # Four or more recommenders make the others' sum order-dependent.
        st.sampled_from(
            NON_DYADIC_WEIGHTS
            + [(0.1, 0.2, 0.3, 0.4), (1 / 7, 1 / 7, 2 / 7, 3 / 7), (0.1, 0.15, 0.2, 0.25, 0.3)]
            + [(1.0,), (0.0, 1.0), (0.5, 0.0, 0.5)]
        ),
        st.sampled_from([0.25, 0.5, 0.7]),
        st.integers(1, 4),
        st.data(),
    )
    def test_one_stacked_call_equals_the_per_recommender_loop(self, weights, c, m, data):
        # Eighth grids put reports exactly at their thresholds, and the
        # non-dyadic weights make the sums round.
        n = len(weights)
        inst = make_instance(n=n, m=m, c=c, weights=weights)
        cells = st.sampled_from(EIGHTHS)
        reports = np.array(
            data.draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n, max_size=n))
        )
        got = winkler.marginal_thresholds(inst, reports)
        assert np.array_equal(got, per_recommender_thresholds(inst, reports))


    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.sampled_from(TIE_THRESHOLDS), st.data())
    def test_a_stack_of_rounds_equals_each_rounds_own_call(self, n, m, c, data):
        # Every round under its own weights, zero and non-dyadic ones
        # included, on eighth-grid reports that sit at their thresholds or
        # on uniform ones: the stack's thresholds are each round's own,
        # bit for bit.
        weight = st.sampled_from([0.0, 1 / 3, 1 / 7, 0.1, 0.25, 1.0]) | st.floats(0.0, 1.0)
        unit = st.sampled_from(EIGHTHS) | st.floats(0.0, 1.0)
        rounds = data.draw(st.integers(1, 5))
        weights = data.draw(
            st.lists(st.lists(weight, min_size=n, max_size=n), min_size=rounds, max_size=rounds)
        )
        matrix = st.lists(st.lists(unit, min_size=m, max_size=m), min_size=n, max_size=n)
        reports = np.array(data.draw(st.lists(matrix, min_size=rounds, max_size=rounds)))
        stacked = winkler.funding_thresholds(c, weights, reports)
        assert stacked.shape == (rounds, n, m)
        for w, matrix, got in zip(weights, reports, stacked):
            assert got.tobytes() == winkler.funding_thresholds(c, w, matrix).tobytes()

    def test_a_stack_keeps_each_rounds_end_rules(self):
        # n = 1 at c the float below 1: the closed form gives the float below
        # 1, a report of which leaves the score at c, so the anchor is 1 (the
        # idle rule); a zero weight gives +inf.
        below_one = float(np.nextafter(1.0, 0.0))
        weights = [(1.0,), (0.0,), (0.5,)]
        stacked = winkler.funding_thresholds(below_one, weights, np.array([[[1.0]], [[0.3]], [[0.5]]]))
        assert stacked.tolist() == [[[1.0]], [[np.inf]], [[1.0]]]
        # The 1e-300 weight keeps the 0 rule (a report of 0 leaves the score
        # at c) beside rounds whose anchors are regular or +inf.
        weights = [(1.0, 1e-300), (0.5, 0.5), (0.0, 1.0)]
        reports = np.full((3, 2, 1), 0.5)
        stacked = winkler.funding_thresholds(0.5, weights, reports)
        assert stacked[:, :, 0].tolist() == [[0.5, 0.0], [0.5, 0.5], [np.inf, 0.5]]
        for w, matrix, got in zip(weights, reports, stacked):
            assert got.tobytes() == winkler.funding_thresholds(0.5, w, matrix).tobytes()
        # Under weight 1e-4 the closed form lands about 1e3 ulps below 1, yet
        # a report of the float below 1 leaves the score at or below c: the
        # anchor is 1, which only that round's own, wider margin sends to the
        # exact test. Round 0's margin is a few ulps.
        weights = [(0.5, 0.5), (1.0, 1e-4)]
        reports = np.array([[[0.4999], [0.5]]] * 2)
        stacked = winkler.funding_thresholds(0.5, weights, reports)
        assert stacked[1, 1, 0] == 1.0
        for w, matrix, got in zip(weights, reports, stacked):
            assert got.tobytes() == winkler.funding_thresholds(0.5, w, matrix).tobytes()


def engine_case(draw):
    """(instance, recommender, co-report sample, true row, reports) built to
    hit the sorted path's edges."""
    kind = draw(st.sampled_from(["non-dyadic", "single", "zero-weight", "random"]))
    if kind == "non-dyadic":
        weights = draw(st.sampled_from(NON_DYADIC_WEIGHTS))
    elif kind == "single":
        weights = (1.0,)
    elif kind == "zero-weight":
        weights = draw(st.sampled_from([(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (1.0, 0.0)]))
    else:
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4))
        weights = tuple(w / sum(raw) for w in raw)
    n = len(weights)
    m = draw(st.integers(1, 3))
    # Low thresholds let the others fund alone: limit anchors.
    c = draw(st.sampled_from([0.125, 0.25, 0.5, 0.7]))
    i = draw(st.integers(0, n - 1))
    inst = make_instance(n=n, m=m, c=c, weights=weights)
    if draw(st.booleans()):
        prior = ProductGrid(tuple(tuple(tuple(EIGHTHS) for _ in range(m)) for _ in range(n)))
    else:
        prior = UniformIID()
    seed = draw(st.integers(0, 2**32 - 1))
    others = sample_others(prior, n, m, i, draw(st.integers(1, 40)), np.random.default_rng(seed))
    unit = st.sampled_from(EIGHTHS) | st.floats(0.0, 1.0)
    true_row = tuple(draw(st.lists(unit, min_size=m, max_size=m)))
    return inst, i, others, true_row


@st.composite
def column_stats_cases(draw):
    inst, i, others, true_row = engine_case(draw)
    engine = winkler.ColumnEngine(inst, i, others)
    q = draw(st.integers(0, inst.m - 1))
    # Reports at a gate or an anchor, one ulp either side of one, 0, 1 and
    # the eighth grid.
    edges = np.concatenate([gate(inst, i, others, q), anchors(inst, i, others, q)])
    edges = sorted(set(edges[(edges > 0.0) & (edges < 1.0)].tolist()))
    picked = draw(st.lists(st.sampled_from(edges), max_size=6)) if edges else []
    near = [float(np.nextafter(v, side)) for v in picked for side in (0.0, 1.0)]
    extra = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    reports = np.array(EIGHTHS + picked + near + extra)
    return inst, i, others, engine, true_row, q, reports


class TestEngineAnchors:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_payments_are_anchored_at_each_samples_marginal_thresholds(self, data):
        # The engine anchors each column's payment at its funding test's
        # seed, clipped, with the idle rule near 1 from the test's own
        # funding; that must be bit for bit each sample's
        # `marginal_thresholds`, the zero-weight +inf sentinel included.
        inst, i, others, _ = engine_case(data.draw)
        with mock.patch.object(winkler, "WinklerPayment", wraps=winkler.WinklerPayment) as spy:
            winkler.ColumnEngine(inst, i, others)
        matrices = [np.insert(co, i, 0.0, axis=0) for co in others]
        assert spy.call_count == inst.m
        for q, call in enumerate(spy.call_args_list):
            want = np.array([winkler.marginal_thresholds(inst, a)[i, q] for a in matrices])
            got = np.asarray(call.args[0])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestColumnStats:
    @settings(max_examples=150, deadline=None)
    @given(column_stats_cases())
    def test_sorted_path_matches_elementwise_oracles(self, case):
        inst, i, others, engine, true_row, q, reports = case
        truth_values = engine.utilities(true_row, true_row)
        got = engine.column_stats(true_row, q, reports)
        values = [engine.utilities(true_row, with_report(true_row, q, float(r))) for r in reports]
        scale = utility_scale(truth_values, values)
        per_report = [mean_se(truth_values - v) for v in values]
        assert_stats_close(got, tuple(np.array(v) for v in zip(*per_report)), scale)

        slow = SampleEngine(inst, i, others)
        assert_stats_close(got, slow.column_stats(true_row, q, reports), scale)

    def test_report_between_gate_and_anchor_pays_the_upper_branch(self):
        # On these eighth-grid co-reports the closed-form anchor sits one or
        # more ulps above the gate, so the reports in (gate, anchor] are
        # funded at or below their anchor. They are paid the upper branch,
        # which the block model scores like any other funded sample.
        grid = np.array([(a, b) for a in EIGHTHS for b in EIGHTHS])[:, :, np.newaxis]
        below_anchor = 0
        for weights, c, i in [((0.1, 0.3, 0.6), 0.3, 0), ((1 / 3,) * 3, 0.3, 1)]:
            inst = make_instance(n=3, m=1, c=c, weights=weights)
            gates, anchor_of = gate(inst, i, grid, 0), anchors(inst, i, grid, 0)
            for s in np.flatnonzero((0.0 < gates) & (gates < anchor_of) & (anchor_of < 1.0)):
                single = winkler.ColumnEngine(inst, i, grid[s : s + 1])
                anchor = float(anchor_of[s])
                report = float(np.nextafter(gates[s], 1.0))
                while report <= anchor:
                    below_anchor += report < anchor
                    for belief in (0.3, 0.6, 0.9):
                        value = single.utilities((belief,), (report,))
                        assert value.tolist() == [upper_branch(anchor, belief, report)]
                        truth_values = single.utilities((belief,), (belief,))
                        got = single.column_stats((belief,), 0, [report])
                        want = mean_se(truth_values - value)
                        scale = utility_scale(truth_values, [value])
                        assert_stats_close(got, tuple(np.array([v]) for v in want), scale)
                    report = float(np.nextafter(report, 1.0))
        assert below_anchor > 10

    def test_report_at_its_gate_is_not_funded(self):
        # The others' score is exactly c, so the anchor is 0 (limit rule:
        # any positive report that funds is paid the belief) and the gate is
        # the tiny largest report that still leaves the score at c.
        inst = make_instance(n=2, m=1, c=0.25, weights=(0.5, 0.5))
        others = np.full((3, 1, 1), 0.5)
        engine = winkler.ColumnEngine(inst, 0, others)
        bound = float(gate(inst, 0, others, 0)[0])
        assert 0.0 < bound < 1e-15 and np.all(engine.payments[0].limit)
        reports = [bound, float(np.nextafter(bound, 1.0)), 0.5]
        mean, se = engine.column_stats((0.6,), 0, reports)
        assert mean.tolist() == [0.6, 0.0, 0.0]
        assert se.tolist() == [0.0, 0.0, 0.0]


class TestScalarPayment:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, 1.5, np.inf, 5e-324, 1e-300, 0.25, 0.5])
                    | st.floats(0.0, 1.0), min_size=1, max_size=12),
           st.lists(st.sampled_from([0.0, 1.0]) | st.sampled_from(EIGHTHS) | st.floats(0.0, 1.0),
                    min_size=1, max_size=4),
           st.lists(st.sampled_from([0.0, 1.0, 5e-324]) | st.sampled_from(EIGHTHS)
                    | st.floats(0.0, 1.0), min_size=1, max_size=4))
    def test_scalar_path_is_the_array_path(self, anchors, beliefs, reports):
        # Anchors at 0 (the limit rule), at 1 or more (idle), +inf (a
        # zero-weight recommender) and inside; reports at 0 and 1, whose
        # log score is -inf. One payment scores every pair in turn, so its
        # kept offset is reused and replaced; the array path (a belief
        # array) is the reference, bit for bit.
        anchors = np.array(anchors)
        pay = winkler.WinklerPayment(anchors)
        for belief in beliefs:
            for report in reports:
                got = pay(belief, report)
                want = winkler.WinklerPayment(anchors)(np.array([belief]), report)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestColumnContribution:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_is_the_where_form(self, data):
        # Each report's payment where it funds, else +0.0, at reports 0 and
        # 1 (payments of -inf) and on the eighth grid, bit for bit.
        inst, i, others, true_row = engine_case(data.draw)
        engine = winkler.ColumnEngine(inst, i, others)
        for q in range(inst.m):
            belief = float(true_row[q])
            for report in [0.0, 1.0, belief, *EIGHTHS]:
                got = engine.column_contribution(q, belief, report)
                pay = engine.payments[q](np.array([belief]), report)
                want = np.where(engine.funding[q].funds(report), pay, 0.0)
                assert got.tobytes() == want.tobytes()
