"""VCG scoring mechanism tests."""

import dataclasses
import itertools
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lendmech import audit, mechanism, vcg
from lendmech.errors import (
    MissingOutcome,
    OutcomeForUnfundedBorrower,
    ReserveRecommenderHasNoPayment,
    ShapeMismatch,
)
from funding_oracle import report_bounds
from lendmech.mechanism import SampleEngine, left_sum, linear_scores, mean_se, scores_with
from lendmech.priors import ProductGrid, UniformIID, sample_others
from lendmech.vcg import VcgInstance
from stats_helpers import assert_stats_close, utility_scale, with_report
from vcg_oracle import _charges

BELIEFS = [[0.7, 0.4], [0.4, 0.85], [0.6, 0.4]]


def table_instance(**kwargs):
    defaults = dict(n=3, m=2, K=1, reserve_threshold=0.5, weights=(1 / 3, 1 / 3, 1 / 3))
    defaults.update(kwargs)
    return VcgInstance(**defaults)


def brute_force_best(inst, reports):
    scores = vcg.aggregate_scores(inst, reports)
    items = [float(s) for s in scores] + [inst.reserve_threshold] * inst.n_reserves
    best = 0.0
    for size in range(min(inst.K, len(items)) + 1):
        for combo in itertools.combinations(range(len(items)), size):
            best = max(best, sum(items[j] for j in combo))
    return best


def _tcomp_by_enumeration(inst, others_reports, i):
    """Exhaustive oracle for tcomp: i reports 1 on every set of at most K
    borrowers and 0 elsewhere, and the mechanism's allocation worst for
    others' welfare counts."""
    if inst.weights[i] == 0.0:
        return 0.0
    others = np.asarray(others_reports, dtype=float)
    base = linear_scores(inst.weights[:i] + inst.weights[i + 1 :], others)
    c, n_res, K = inst.reserve_threshold, inst.n_reserves, inst.K
    without_i = vcg._welfare(base, c, vcg._select(base, c, n_res, K))
    worst = without_i
    for size in range(min(K, inst.m) + 1):
        for boost in itertools.combinations(range(inst.m), size):
            row = np.zeros(inst.m)
            row[list(boost)] = 1.0
            alloc = vcg.allocate(inst, np.insert(others, i, row, axis=0))
            worst = min(worst, vcg._welfare(base, c, alloc))
    return inst.alpha * (without_i - worst)


QUARTERS = [0.0, 0.25, 0.5, 0.75, 1.0]
# Weights whose products with quarter-grid reports round, so the order of
# summation decides ties among borrowers and with c.
NON_DYADIC_WEIGHTS = [(1 / 3, 1 / 3, 1 / 3), (1 / 7, 2 / 7, 4 / 7), (0.1, 0.3, 0.6)]


@st.composite
def tcomp_cases(draw):
    """Instances with m + reserves <= 12. Quantized draws make borrowers tie
    with each other and exactly with c, also under non-dyadic weights;
    weights may be zero."""
    quantized = draw(st.booleans())
    unit = st.sampled_from(QUARTERS) if quantized else st.floats(0.0, 1.0)
    c = draw(st.sampled_from(QUARTERS[:-1]) if quantized else st.floats(0.0, 0.95))
    if quantized and draw(st.booleans()):
        weights = draw(st.sampled_from(NON_DYADIC_WEIGHTS))
        n = len(weights)
    else:
        n = draw(st.integers(1, 4))
        weights = tuple(draw(st.lists(unit, min_size=n, max_size=n)))
    m = draw(st.integers(1, 12 if c == 0.0 else 11))
    K = draw(st.integers(1, m if c == 0.0 else min(m, 12 - m)))
    rows = st.lists(unit, min_size=m, max_size=m)
    reports = np.array(draw(st.lists(rows, min_size=n, max_size=n)), dtype=float)
    return VcgInstance(n=n, m=m, K=K, reserve_threshold=c, weights=weights), reports


class TestAllocate:
    def test_best_real_borrower_beats_reserve(self):
        alloc = vcg.allocate(table_instance(), BELIEFS)
        assert alloc.real == (1, 0)
        assert alloc.reserves_funded == 0

    def test_zero_reports_fund_only_reserves(self):
        alloc = vcg.allocate(table_instance(K=2, m=2), np.zeros((3, 2)))
        assert alloc.real == (0, 0)
        assert alloc.reserves_funded == 2

    def test_no_reserve_and_slack_cap_funds_everyone(self):
        inst = table_instance(reserve_threshold=0.0, K=2, m=2)
        alloc = vcg.allocate(inst, np.zeros((3, 2)))
        assert alloc.real == (1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            vcg.allocate(table_instance(), [[0.5], [0.5], [0.5]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            table_instance(weights=(bad, 0.5, 0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_rejects_alpha_that_is_not_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            table_instance(alpha=bad)

    def test_rejects_nan_report(self):
        reports = np.array(BELIEFS)
        reports[1, 0] = np.nan
        with pytest.raises(ValueError, match="reports must be finite"):
            vcg.allocate(table_instance(), reports)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_brute_force_welfare(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        K = int(rng.integers(1, m + 1))
        c = float(rng.uniform(0, 0.9)) if rng.random() < 0.7 else 0.0
        w = rng.random(n)
        w = w / w.sum()
        inst = VcgInstance(n=n, m=m, K=K, reserve_threshold=c, weights=tuple(w))
        reports = rng.random((n, m))
        alloc = vcg.allocate(inst, reports)
        scores = vcg.aggregate_scores(inst, reports)
        achieved = sum(float(scores[q]) for q in alloc.funded_real)
        achieved += alloc.reserves_funded * c
        assert achieved == pytest.approx(brute_force_best(inst, reports), abs=1e-12)

    def test_alpha_does_not_change_allocation(self):
        rng = np.random.default_rng(3)
        reports = rng.random((3, 2))
        for alpha in (0.01, 0.5, 1.0, 7.0):
            assert vcg.allocate(table_instance(alpha=alpha), reports) == vcg.allocate(
                table_instance(), reports
            )


class TestPivotPayment:
    def test_worked_pivot(self):
        # without recommender 1 the reserve (0.5) beats borrower 0 (0.4333)
        t = vcg.pivot_payment(table_instance(), BELIEFS, 1)
        assert t == pytest.approx(0.5 - (0.7 + 0.6) / 3, abs=1e-12)

    def test_identical_reports_no_reserve_gives_zero_pivots(self):
        inst = table_instance(reserve_threshold=0.0)
        reports = [[0.6, 0.3]] * 3
        for i in range(3):
            assert vcg.pivot_payment(inst, reports, i) == pytest.approx(0.0, abs=1e-12)

    def test_single_recommender_pays_reserve_value(self):
        inst = VcgInstance(n=1, m=1, K=1, reserve_threshold=0.5, weights=(1.0,))
        assert vcg.pivot_payment(inst, [[0.8]], 0) == pytest.approx(0.5, abs=1e-12)

    def test_reserve_recommender_not_addressable(self):
        with pytest.raises(ReserveRecommenderHasNoPayment):
            vcg.pivot_payment(table_instance(), BELIEFS, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_pivot_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        K = int(rng.integers(1, m + 1))
        c = float(rng.uniform(0, 0.9))
        w = rng.random(n)
        w = w / w.sum()
        inst = VcgInstance(n=n, m=m, K=K, reserve_threshold=c, weights=tuple(w))
        reports = rng.random((n, m))
        for i in range(n):
            assert vcg.pivot_payment(inst, reports, i) >= -1e-12


class TestTcomp:
    def test_worked_worst_case(self):
        # forcing borrower 1 in is the most damaging achievable swing
        others = np.delete(np.asarray(BELIEFS), 1, axis=0)
        got = vcg.tcomp(table_instance(), others, 1)
        assert got == pytest.approx(0.5 - (0.4 + 0.4) / 3, abs=1e-12)

    def test_zero_weight_recommender(self):
        inst = table_instance(weights=(0.5, 0.0, 0.5))
        others = np.delete(np.asarray(BELIEFS), 1, axis=0)
        assert vcg.tcomp(inst, others, 1) == 0.0

    def test_single_recommender_worst_case_is_reserve(self):
        inst = VcgInstance(n=1, m=1, K=1, reserve_threshold=0.5, weights=(1.0,))
        assert vcg.tcomp(inst, np.empty((0, 1)), 0) == pytest.approx(0.5, abs=1e-12)

    def test_dominates_every_grid_report_pivot(self):
        rng = np.random.default_rng(11)
        inst = table_instance(K=2, reserve_threshold=0.35)
        reports = rng.random((3, 2))
        others = np.delete(reports, 0, axis=0)
        bound = vcg.tcomp(inst, others, 0)
        for r0 in np.linspace(0, 1, 21):
            for r1 in np.linspace(0, 1, 21):
                trial = reports.copy()
                trial[0] = (r0, r1)
                assert vcg.pivot_payment(inst, trial, 0) <= bound + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(tcomp_cases())
    @example(  # ties with c = 0.5 and a zero-weight recommender
        (
            VcgInstance(n=3, m=4, K=2, reserve_threshold=0.5, weights=(0.5, 0.5, 0.0)),
            np.array([[1.0, 1.0, 0.5, 0.0], [1.0, 1.0, 0.5, 0.0], [0.25, 1.0, 0.0, 0.5]]),
        )
    )
    @example(  # c = 0 and K = m
        (
            VcgInstance(n=2, m=3, K=3, reserve_threshold=0.0, weights=(0.25, 0.75)),
            np.array([[0.5, 0.5, 0.0], [0.25, 1.0, 0.75]]),
        )
    )
    def test_matches_enumeration(self, case):
        inst, reports = case
        for i in range(inst.n):
            others = np.delete(reports, i, axis=0)
            assert vcg.tcomp(inst, others, i) == pytest.approx(
                _tcomp_by_enumeration(inst, others, i), abs=1e-12
            )

    def test_exact_past_former_enumeration_limit(self):
        # m + reserves = 21: the reduced boost family once used at this size
        # returned 0.437 here, below the exact worst-case pivot of 0.468.
        inst = VcgInstance(n=3, m=14, K=7, reserve_threshold=0.4, weights=(0.5, 0.3, 0.2))
        reports = np.array(
            [
                [0.64, 0.27, 0.04, 0.02, 0.81, 0.91, 0.61, 0.73, 0.54, 0.94, 0.82, 0.0, 0.86, 0.03],
                [0.73, 0.18, 0.86, 0.54, 0.3, 0.42, 0.03, 0.12, 0.67, 0.65, 0.62, 0.38, 1.0, 0.98],
                [0.69, 0.65, 0.69, 0.39, 0.14, 0.72, 0.53, 0.31, 0.49, 0.89, 0.93, 0.36, 0.57, 0.32],
            ]
        )
        others = np.delete(reports, 1, axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = vcg.tcomp(inst, others, 1)
        assert got == pytest.approx(_tcomp_by_enumeration(inst, others, 1), abs=1e-12)
        assert got == pytest.approx(0.468, abs=1e-12)

    def test_rejects_nan_co_report(self):
        others = [[np.nan, 0.4], [0.6, 0.4]]
        with pytest.raises(ValueError, match="others_reports must be finite"):
            vcg.tcomp(table_instance(), others, 1)

    def test_rejects_out_of_range_co_report(self):
        with pytest.raises(ValueError, match="others_reports .* lie in \\[0, 1\\]"):
            vcg.tcomp(table_instance(), [[5, -3], [0.6, 0.4]], 1)


@st.composite
def settle_cases(draw):
    """Instances with n <= 5, m <= 10 and every K <= m; c is 0 (no
    reserves), a quarter or random; weights are non-dyadic, zero or random;
    quarter-grid reports tie borrowers with each other and with c."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 10))
    weight = st.sampled_from([0.0, 1 / 3, 1 / 7, 0.1, 0.25]) | st.floats(0.0, 1.0)
    inst = VcgInstance(
        n=n,
        m=m,
        K=draw(st.integers(1, m)),
        reserve_threshold=draw(st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 0.95)),
        weights=tuple(draw(st.lists(weight, min_size=n, max_size=n))),
        alpha=draw(st.sampled_from([1.0, 0.3, 2.5])),
        tcomp_enabled=draw(st.booleans()),
    )
    rows = st.lists(st.sampled_from(QUARTERS), min_size=m, max_size=m)
    return inst, np.array(draw(st.lists(rows, min_size=n, max_size=n)), dtype=float)


def _bits(x):
    return np.float64(x).tobytes()


class TestSettle:
    @settings(max_examples=300, deadline=None)
    @given(settle_cases(), st.booleans())
    def test_equals_the_public_loop_bit_for_bit(self, case, pass_allocation):
        # The ledger writes -0.0 and 0.0 differently, so bits, not ==. The
        # pivot is also checked against its definition on np.delete's rows.
        inst, reports = case
        alloc = vcg.allocate(inst, reports)
        outcomes = {q: q % 2 for q in alloc.funded_real}
        got = vcg.settle(inst, reports, outcomes, alloc if pass_allocation else None)
        assert got.allocation == alloc
        assert (got.tcomp is None) == (not inst.tcomp_enabled)
        c, n_res, K = inst.reserve_threshold, inst.n_reserves, inst.K
        for i in range(inst.n):
            others = np.delete(reports, i, axis=0)
            base = linear_scores(inst.weights[:i] + inst.weights[i + 1 :], others)
            without_i = vcg._welfare(base, c, vcg._select(base, c, n_res, K))
            pivot = inst.alpha * (without_i - vcg._welfare(base, c, alloc))
            assert _bits(got.immediate[i]) == _bits(vcg.pivot_payment(inst, reports, i))
            assert _bits(got.immediate[i]) == _bits(pivot)
            if inst.tcomp_enabled:
                assert _bits(got.tcomp[i]) == _bits(vcg.tcomp(inst, others, i))

    def test_one_scoring_pass(self, monkeypatch):
        # Handed its allocation, an n = 3 settlement with rebates makes two
        # weighted-sum passes, each the size of its reports: every row's
        # others' scores, then every row's boosted scores. A stack of rounds
        # makes the same two passes over the whole stack.
        insts = [table_instance(tcomp_enabled=True, weights=w) for w in NON_DYADIC_WEIGHTS]
        allocs = [vcg.allocate(inst, BELIEFS) for inst in insts]
        outcomes = [dict.fromkeys(alloc.funded_real, 1) for alloc in allocs]
        calls, weighted_sum = [], mechanism._weighted_sum

        def counting(weights, term, shape):
            calls.append(shape)
            return weighted_sum(weights, term, shape)

        monkeypatch.setattr(mechanism, "_weighted_sum", counting)
        vcg.settle(insts[0], BELIEFS, outcomes[0], allocs[0])
        assert calls == [(1, 3, 2), (1, 3, 2)]
        calls.clear()
        insts[0].settle_rounds(weight_rows(insts), [BELIEFS] * 3, outcomes, allocs)
        assert calls == [(3, 3, 2), (3, 3, 2)]

    def test_realized_utility_on_repayment(self):
        settlement = vcg.settle(table_instance(), BELIEFS, {0: 1})
        assert settlement.realized_utility(1) == pytest.approx(1 / 3 - 0.0667, abs=5e-5)

    def test_outcomes_must_cover_funded_real(self):
        with pytest.raises(MissingOutcome):
            vcg.settle(table_instance(), BELIEFS, {})
        with pytest.raises(OutcomeForUnfundedBorrower):
            vcg.settle(table_instance(), BELIEFS, {0: 1, 1: 1})

    def test_reserve_rows_generate_no_payments(self):
        settlement = vcg.settle(table_instance(), np.zeros((3, 2)), {})
        assert settlement.allocation.reserves_funded == 1
        assert settlement.contingent == {}
        assert vcg.deficit(settlement) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_scales_all_payments(self):
        base = vcg.settle(table_instance(tcomp_enabled=True), BELIEFS, {0: 1})
        scaled = vcg.settle(
            table_instance(alpha=0.01, tcomp_enabled=True), BELIEFS, {0: 1}
        )
        for i in range(3):
            assert scaled.immediate[i] == pytest.approx(0.01 * base.immediate[i], rel=1e-12)
            assert scaled.tcomp[i] == pytest.approx(0.01 * base.tcomp[i], rel=1e-12)
        for key, value in base.contingent.items():
            assert scaled.contingent[key] == pytest.approx(0.01 * value, rel=1e-12)

    def test_rebate_makes_every_outcome_nonnegative(self):
        inst = table_instance(tcomp_enabled=True)
        for outcome in (0, 1):
            settlement = vcg.settle(inst, BELIEFS, {0: outcome})
            for i in range(3):
                assert settlement.realized_utility(i) >= -1e-12


def weight_rows(insts):
    """The (R, n) weights under which a stack of rounds on `insts[0]`
    plays round r as `insts[r]`, which differs from it only in its weights."""
    return np.array([inst.weights_in_force for inst in insts])


def settled_rounds(payments):
    """Every round of a settled stack as its `Settlement`."""
    return [payments.settlement(r) for r in range(len(payments.allocations))]


@st.composite
def pricing_batches(draw):
    """A stack of 1 to 4 rounds of one VCG setting, each round with its own
    weights and reports: n from 1 to 5, m from 1 to 10, K from 1 to m, c on
    the quarter grid (0 included), alpha 1 or 0.7; weights zero, non-dyadic
    or uniform; each round's reports on the quarter grid (ties among
    borrowers and with c) or uniform."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 10))
    K = draw(st.integers(1, m))
    c = draw(st.sampled_from(QUARTERS[:-1]))
    alpha = draw(st.sampled_from([1.0, 0.7]))
    weight = st.sampled_from([0.0, 1 / 3, 1 / 7, 0.1, 0.25]) | st.floats(0.0, 1.0)
    insts, reports = [], []
    for _ in range(draw(st.integers(1, 4))):
        weights = tuple(draw(st.lists(weight, min_size=n, max_size=n)))
        insts.append(
            VcgInstance(
                n=n, m=m, K=K, reserve_threshold=c, weights=weights, alpha=alpha,
                tcomp_enabled=True,
            )
        )
        unit = st.sampled_from(QUARTERS) if draw(st.booleans()) else st.floats(0.0, 1.0)
        rows = st.lists(unit, min_size=m, max_size=m)
        reports.append(draw(st.lists(rows, min_size=n, max_size=n)))
    return insts, np.array(reports, dtype=float)


class TestBatchedPricing:
    @settings(max_examples=250, deadline=None)
    @given(pricing_batches())
    @example(  # ties with c = 0.5, and a zero weight in one round of two
        (
            [
                VcgInstance(
                    n=3, m=4, K=2, reserve_threshold=0.5, weights=w, tcomp_enabled=True
                )
                for w in [(0.5, 0.5, 0.0), (1 / 7, 2 / 7, 4 / 7)]
            ],
            np.array(
                [[[1.0, 1.0, 0.5, 0.0], [1.0, 1.0, 0.5, 0.0], [0.25, 1.0, 0.0, 0.5]]] * 2
            ),
        )
    )
    def test_pivots_and_rebates_equal_the_oracle_row_by_row(self, batch):
        # One `settle_rounds` call prices every recommender of every round;
        # each pivot and rebate has the bits of the per-recommender sweep,
        # whose scores come from `linear_scores` on np.delete's rows and on
        # the matrix with row i at 1.
        insts, reports = batch
        allocs = [vcg.allocate(inst, matrix) for inst, matrix in zip(insts, reports)]
        outcomes = [dict.fromkeys(alloc.funded_real, 1) for alloc in allocs]
        payments = insts[0].settle_rounds(weight_rows(insts), reports, outcomes, allocs)
        settled = settled_rounds(payments)
        for inst, matrix, alloc, got in zip(insts, reports, allocs, settled):
            assert got.allocation == alloc
            for i in range(inst.n):
                base = linear_scores(
                    inst.weights[:i] + inst.weights[i + 1 :], np.delete(matrix, i, axis=0)
                )
                at_one = matrix.copy()
                at_one[i] = 1.0
                boosted = linear_scores(inst.weights, at_one)
                pivot, rebate = _charges(inst, base, alloc, boosted)
                assert _bits(got.immediate[i]) == _bits(pivot)
                assert _bits(got.tcomp[i]) == _bits(rebate)

    def test_rounds_settled_together_equal_rounds_settled_alone(self):
        rng = np.random.default_rng(17)
        insts = [
            table_instance(m=5, K=3, weights=w, tcomp_enabled=True)
            for w in NON_DYADIC_WEIGHTS + [(0.0, 0.5, 0.5)]
        ]
        reports = rng.random((len(insts), 3, 5))
        outcomes = []
        for inst, matrix in zip(insts, reports):
            funded = vcg.allocate(inst, matrix).funded_real
            outcomes.append({q: int(rng.integers(0, 2)) for q in funded})
        together = settled_rounds(insts[0].settle_rounds(weight_rows(insts), reports, outcomes))
        assert together == [vcg.settle(*args) for args in zip(insts, reports, outcomes)]

    def test_rounds_must_share_all_but_their_weights(self):
        # The rounds of a stack share one instance; their weights are one
        # row per round, (R, n), finite and nonnegative.
        inst = table_instance()
        with pytest.raises(ShapeMismatch, match=r"weights shape \(2, 2\) != \(R, 3\)"):
            inst.settle_rounds([(0.5, 0.5)] * 2, [BELIEFS] * 2, [{0: 1}] * 2)
        with pytest.raises(ShapeMismatch, match=r"weights shape \(1, 2, 3\) != \(R, 3\)"):
            inst.allocate_rounds([[(1 / 3,) * 3] * 2], [BELIEFS] * 2)
        with pytest.raises(ShapeMismatch, match=r"reports shape \(1, 3, 2\) != \(2, 3, 2\)"):
            inst.allocate_rounds([(1 / 3,) * 3] * 2, [BELIEFS])
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            inst.settle_rounds([(0.5, -0.25, 0.75)], [BELIEFS], [{0: 1}])


class TestAllocateRounds:
    @settings(max_examples=250, deadline=None)
    @given(pricing_batches())
    @example(  # quarter-grid ties among borrowers and with c, K = m, a zero weight
        (
            [
                VcgInstance(n=3, m=4, K=4, reserve_threshold=0.5, weights=w)
                for w in [(0.5, 0.5, 0.0), (1 / 7, 2 / 7, 4 / 7)]
            ],
            np.array(
                [[[1.0, 1.0, 0.5, 0.0], [1.0, 1.0, 0.5, 0.0], [0.25, 1.0, 0.0, 0.5]]] * 2
            ),
        )
    )
    @example(  # c = 0: no reserves, every score ties
        (
            [VcgInstance(n=2, m=3, K=2, reserve_threshold=0.0, weights=(0.1, 0.3))],
            np.zeros((1, 2, 3)),
        )
    )
    def test_equals_allocate_row_by_row(self, batch):
        # One `allocate_rounds` call selects every round of the stack by
        # rank counts; each allocation is `_select`'s sort of its round.
        # The reprs also pin the types: Python ints, not numpy scalars.
        insts, reports = batch
        alone = [vcg.allocate(inst, matrix) for inst, matrix in zip(insts, reports)]
        together = insts[0].allocate_rounds(weight_rows(insts), reports)
        assert together == alone
        assert repr(together) == repr(alone)
        fixed = insts[0].allocate_rounds(weight_rows([insts[0]] * len(reports)), reports)
        assert fixed == [vcg.allocate(insts[0], matrix) for matrix in reports]

    def test_checks_the_stack(self):
        inst = table_instance()
        with pytest.raises(ShapeMismatch):
            inst.allocate_rounds([inst.weights] * 2, [BELIEFS])
        with pytest.raises(ValueError, match="reports must be finite"):
            inst.allocate_rounds([inst.weights], [[[0.5, np.nan]] * 3])
        with pytest.raises(ValueError, match="need at least one round"):
            inst.allocate_rounds(np.zeros((0, 3)), np.zeros((0, 3, 2)))


class TestDeficit:
    def test_no_repayments_without_rebate_is_surplus(self):
        settlement = vcg.settle(table_instance(), BELIEFS, {0: 0})
        assert vcg.deficit(settlement) == pytest.approx(-sum(settlement.immediate), abs=1e-12)

    def test_all_repay_equal_weights_zero_pivots(self):
        # identical reports, no reserve: deficit is alpha * K
        inst = table_instance(reserve_threshold=0.0, K=2, alpha=0.25)
        reports = [[0.9, 0.8]] * 3
        settlement = vcg.settle(inst, reports, {0: 1, 1: 1})
        assert vcg.deficit(settlement) == pytest.approx(0.25 * 2, abs=1e-12)

    def test_halving_alpha_halves_deficit_exactly(self):
        rng = np.random.default_rng(9)
        reports = rng.random((3, 2))
        alloc = vcg.allocate(table_instance(), reports)
        outcomes = {q: 1 for q in alloc.funded_real}
        full = vcg.deficit(vcg.settle(table_instance(alpha=1.0, tcomp_enabled=True), reports, outcomes))
        half = vcg.deficit(vcg.settle(table_instance(alpha=0.5, tcomp_enabled=True), reports, outcomes))
        assert half == 0.5 * full


class TestExpostUtility:
    def test_matches_value_minus_pivot(self):
        inst = table_instance()
        arr = np.asarray(BELIEFS)
        got = inst.expost_utility(arr, 1, arr[1])
        assert got == pytest.approx((1 / 3) * 0.4 - vcg.pivot_payment(inst, arr, 1), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_truthful_utility_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        K = int(rng.integers(1, m + 1))
        c = float(rng.uniform(0, 0.9))
        w = rng.random(n)
        w = w / w.sum()
        inst = VcgInstance(n=n, m=m, K=K, reserve_threshold=c, weights=tuple(w))
        profile = rng.random((n, m))
        for i in range(n):
            assert inst.expost_utility(profile, i, profile[i]) >= -1e-12


@st.composite
def tie_interim_cases(draw):
    """Quarter-grid instances built to tie among borrowers and with c.
    Dyadic weights make every score an exact binary fraction, so each tie
    is a real one that the tie-break decides; the non-dyadic ones tie only
    if the engine adds up scores as the mechanism does."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        dyadic = st.sampled_from([0.125, 0.25, 0.5])
        weights = tuple(draw(st.lists(dyadic, min_size=n, max_size=n)))
    else:
        weights = draw(st.sampled_from(NON_DYADIC_WEIGHTS))
        n = len(weights)
    m = draw(st.integers(1, 4))
    K = draw(st.integers(1, m))
    c = draw(st.sampled_from([0.0, 0.25, 0.5]))
    i = draw(st.integers(0, n - 1))
    true_row = tuple(draw(st.lists(st.sampled_from(QUARTERS), min_size=m, max_size=m)))
    seed = draw(st.integers(0, 2**32 - 1))
    inst = VcgInstance(n=n, m=m, K=K, reserve_threshold=c, weights=weights)
    return inst, i, true_row, seed


def funding_bound(engine, others, true_row, q):
    """Per sample, the largest report on q that leaves q unfunded: the exact
    bound, from the bisection oracle on the keys of the engine's funding
    test (-inf where q is funded whatever i reports)."""
    funding = engine._column_parts(true_row, q)[0]
    return report_bounds(engine.inst.weights, engine.i, others[:, :, q].T, funding.key)


@st.composite
def column_stats_cases(draw):
    """A tie case with 1, 24 or 3000 sampled co-reports, a coordinate and
    reports on it: the quarter grid (0 and 1 included), the truth, sampled
    funding bounds and one ulp either side of them, and uniform floats.
    Some cases give i zero weight, some fund every item whatever i reports
    (K = m, c = 0)."""
    inst, i, true_row, seed = draw(tie_interim_cases())
    variant = draw(st.sampled_from(["as drawn", "zero weight", "funds all"]))
    if variant == "zero weight":
        inst = dataclasses.replace(inst, weights=inst.weights[:i] + (0.0,) + inst.weights[i + 1 :])
    elif variant == "funds all":
        inst = dataclasses.replace(inst, K=inst.m, reserve_threshold=0.0)
    n, m = inst.n, inst.m
    prior = ProductGrid(tuple(tuple(tuple(QUARTERS) for _ in range(m)) for _ in range(n)))
    samples = draw(st.sampled_from([1, 24, 3000]))
    others = sample_others(prior, n, m, i, samples, np.random.default_rng(seed))
    engine = vcg.InterimEngine(inst, i, others)
    q = draw(st.integers(0, m - 1))
    bound = funding_bound(engine, others, true_row, q)
    edges = sorted(set(bound[(bound >= 0.0) & (bound <= 1.0)].tolist()))
    picked = draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    near = [float(np.nextafter(v, side)) for v in picked for side in (0.0, 1.0)]
    extra = draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    reports = np.array(QUARTERS + [true_row[q]] + picked + near + extra)
    return inst, i, others, engine, true_row, q, reports


@st.composite
def welfare_cases(draw):
    """An instance with m from 1 to 10, any K, c on the quarter grid below 1
    and quarter-grid or non-dyadic weights; a recommender; and 1 to 6
    samples of quarter-grid co-reports."""
    m = draw(st.integers(1, 10))
    K = draw(st.integers(1, m))
    c = draw(st.sampled_from(QUARTERS[:-1]))
    if draw(st.booleans()):
        weights = draw(st.sampled_from(NON_DYADIC_WEIGHTS))
    else:
        n = draw(st.integers(1, 4))
        weights = tuple(draw(st.lists(st.sampled_from(QUARTERS), min_size=n, max_size=n)))
    n = len(weights)
    i = draw(st.integers(0, n - 1))
    samples = draw(st.integers(1, 6))
    cells = st.lists(st.sampled_from(QUARTERS), min_size=m, max_size=m)
    rows = draw(st.lists(cells, min_size=samples * (n - 1), max_size=samples * (n - 1)))
    others = np.reshape(np.array(rows, dtype=float), (samples, n - 1, m))
    return VcgInstance(n=n, m=m, K=K, reserve_threshold=c, weights=weights), i, others


@st.composite
def utility_cases(draw):
    """A `welfare_cases` instance, with alpha 1 or 0.7, whose co-reports
    stay on the quarter grid or are redrawn uniform; beliefs; and a report
    row that is the quarter grid or uniform, with entries at 0 and 1."""
    inst, i, others = draw(welfare_cases())
    inst = dataclasses.replace(inst, alpha=draw(st.sampled_from([1.0, 0.7])))
    m = inst.m
    if draw(st.booleans()):
        cells = st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)
        rows = draw(st.lists(cells, min_size=others.size // m, max_size=others.size // m))
        others = np.reshape(np.array(rows, dtype=float), others.shape)
    belief = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    unit = st.sampled_from(QUARTERS) | st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    report = draw(st.lists(unit, min_size=m, max_size=m))
    return inst, i, others, belief, report


class TestInterimEngine:
    @settings(max_examples=80, deadline=None)
    @given(tie_interim_cases())
    def test_utilities_match_exact_mechanism_on_ties(self, case):
        inst, i, true_row, seed = case
        n, m = inst.n, inst.m
        prior = ProductGrid(tuple(tuple(tuple(QUARTERS) for _ in range(m)) for _ in range(n)))
        others = sample_others(prior, n, m, i, 24, np.random.default_rng(seed))
        engine = vcg.InterimEngine(inst, i, others)
        slow = SampleEngine(inst, i, others)
        for q in range(m):
            for value in QUARTERS:
                row = true_row[:q] + (value,) + true_row[q + 1 :]
                fast = engine.utilities(true_row, row)
                assert np.max(np.abs(fast - slow.utilities(true_row, row))) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(tie_interim_cases(), st.data())
    def test_truth_minus_a_report_is_the_funding_gap_times_u_in_minus_u_out(self, case, data):
        # `column_stats` scores VCG through a `Grid` with u = u_in - u_out
        # and alpha 0; that model is exact on every sample.
        inst, i, true_row, seed = case
        n, m = inst.n, inst.m
        prior = ProductGrid(tuple(tuple(tuple(QUARTERS) for _ in range(m)) for _ in range(n)))
        others = sample_others(prior, n, m, i, 24, np.random.default_rng(seed))
        engine = vcg.InterimEngine(inst, i, others)
        truth_values = engine.utilities(true_row, true_row)
        q = data.draw(st.integers(0, m - 1))
        u = engine._column_parts(true_row, q)[1]  # u_in - u_out
        bound = funding_bound(engine, others, true_row, q)
        f_truth = (true_row[q] > bound).astype(float)
        for report in QUARTERS:
            f_report = (report > bound).astype(float)
            gap = truth_values - engine.utilities(true_row, with_report(true_row, q, report))
            assert gap.tolist() == ((f_truth - f_report) * u).tolist()

    @settings(max_examples=120, deadline=None)
    @given(column_stats_cases())
    def test_column_stats_match_per_sample_oracles(self, case):
        inst, i, others, engine, true_row, q, reports = case
        truth_values = engine.utilities(true_row, true_row)
        mean, se = engine.column_stats(true_row, q, reports)
        values = [engine.utilities(true_row, with_report(true_row, q, float(r))) for r in reports]
        scale = utility_scale(truth_values, values)
        want = tuple(np.array(v) for v in zip(*(mean_se(truth_values - v) for v in values)))
        assert_stats_close((mean, se), want, scale)
        if len(others) <= 24:
            slow = SampleEngine(inst, i, others)
            assert_stats_close((mean, se), slow.column_stats(true_row, q, reports), scale)
        if len(others) == 1:  # one sample is one block: exact
            assert mean.tolist() == want[0].tolist()
            assert se.tolist() == [0.0] * len(reports)
        # A report that funds q on exactly the samples the truth funds it
        # differs from the truth on no sample.
        bound = funding_bound(engine, others, true_row, q)
        same = [np.array_equal(r > bound, true_row[q] > bound) for r in reports]
        assert mean[same].tolist() == [0.0] * sum(same)
        assert se[same].tolist() == [0.0] * sum(same)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 4), st.sampled_from(QUARTERS[:-1]), st.data())
    def test_one_order_gives_the_top_k_minus_one_top_k_and_kth_item(self, m, n_res, c, data):
        # `_column_parts` takes the others' top K-1 and top K, and the item
        # between them, from one set of `_order` positions.
        total = m + n_res
        k = data.draw(st.integers(1, total))
        cells = st.lists(st.sampled_from(QUARTERS), min_size=m, max_size=m)
        scores = np.array(data.draw(st.lists(cells, min_size=1, max_size=8)))
        pos, ahead = vcg._order(scores.T, c, n_res)
        # Every item's position: the real borrowers', then reserve slot r's.
        items = np.concatenate([pos.T, ahead[:, np.newaxis] + np.arange(n_res)], axis=1)
        top_less = vcg.select_batch(scores, c, n_res, k - 1)
        top = vcg.select_batch(scores, c, n_res, k)
        for at, less, full in zip(items, top_less, top):
            assert sorted(at.tolist()) == list(range(total))
            assert np.flatnonzero(at < k - 1).tolist() == np.flatnonzero(less).tolist()
            assert np.flatnonzero(at < k).tolist() == np.flatnonzero(full).tolist()
        assert np.array_equal((items == k - 1).argmax(axis=1), (top & ~top_less).argmax(axis=1))
        for row, less, full in zip(scores, top_less, top):
            for mask, size in ((less, k - 1), (full, k)):
                alloc = vcg._select(row, c, n_res, size)
                assert mask[:m].tolist() == [bool(f) for f in alloc.real]
                assert mask[m:].tolist() == [r < alloc.reserves_funded for r in range(n_res)]
        # Leaving borrower q out gives the others' positions among themselves.
        for q in range(m):
            skipped, ahead_skipped = vcg._order(scores.T, c, n_res, skip=q)
            want, want_ahead = vcg._order(np.delete(scores, q, axis=1).T, c, n_res)
            assert np.array_equal(np.delete(skipped, q, axis=0), want)
            assert np.array_equal(ahead_skipped, want_ahead)

    @settings(max_examples=150, deadline=None)
    @given(welfare_cases())
    @example(  # numpy's pairwise row sum gives 3.9749999999999996 here, not 3.975
        (
            VcgInstance(n=3, m=8, K=8, reserve_threshold=0.0, weights=(0.1, 0.3, 0.6)),
            0,
            np.array(
                [
                    [
                        [1.0, 0.0, 0.5, 0.75, 1.0, 0.5, 0.25, 0.25],
                        [0.5, 0.5, 0.75, 1.0, 0.0, 1.0, 0.5, 0.25],
                    ]
                ]
            ),
        )
    )
    def test_best_without_i_is_the_scalar_welfare(self, case):
        # The engine adds the funded scores by index, left to right in
        # column order, so it equals `_welfare` bit for bit at every m,
        # also from 8 borrowers on, where numpy's row sum goes pairwise.
        inst, i, others = case
        engine = vcg.InterimEngine(inst, i, others)
        c, n_res = inst.reserve_threshold, inst.n_reserves
        scores_others = linear_scores(inst.weights[:i] + inst.weights[i + 1 :], others)
        for s, scores in enumerate(scores_others):
            alloc = vcg._select(scores, c, n_res, inst.K)
            assert engine.best_without_i[s] == vcg._welfare(scores, c, alloc)

    @settings(max_examples=150, deadline=None)
    @given(utility_cases())
    def test_utilities_equal_the_scalar_mechanism(self, case):
        # Per sample, i's value on `_select`'s funded real borrowers plus
        # the others' welfare at that set, less their best without i: the
        # engine adds the same floats in the same order, so `==`.
        inst, i, others, belief, report = case
        engine = vcg.InterimEngine(inst, i, others)
        c, n_res, K = inst.reserve_threshold, inst.n_reserves, inst.K
        want = []
        for co in others:
            chosen = vcg._select(scores_with(inst.weights, co, i, report), c, n_res, K)
            base = linear_scores(inst.weights[:i] + inst.weights[i + 1 :], co)
            best = vcg._welfare(base, c, vcg._select(base, c, n_res, K))
            value = left_sum(inst.weights[i] * belief[q] for q in chosen.funded_real)
            want.append(inst.alpha * (value + vcg._welfare(base, c, chosen) - best))
        assert engine.utilities(belief, report).tolist() == want

    def test_column_stats_score_without_copies_or_rescoring(self, monkeypatch):
        # The engine scores a report row among the co-reports it holds
        # without inserting it into a copy of them, and hands its funding
        # test the others' score it holds, so the test does not score them.
        inst = VcgInstance(n=4, m=2, K=1, reserve_threshold=0.5, weights=(0.25,) * 4)
        others = sample_others(UniformIID(), 4, 2, 1, 2000, np.random.default_rng(3))
        engine = vcg.InterimEngine(inst, 1, others)
        calls = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                frame = sys._getframe(1)
                owner = type(frame.f_locals.get("self")).__name__
                calls.append((name, owner, frame.f_code.co_name))
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np, "insert", counted("insert", np.insert))
        for module in (vcg, mechanism):
            monkeypatch.setattr(module, "linear_scores", counted("linear_scores", linear_scores))
        engine.column_stats((0.3, 0.6), 0, np.linspace(0.0, 1.0, 21))
        # No `np.insert` (in `_scores` or elsewhere) and no `linear_scores`
        # pass from the engine's own methods, and none in the test's build.
        assert not [call for call in calls if call[1] == "InterimEngine"]
        assert ("linear_scores", "FundingTest", "__init__") not in calls

    def test_search_places_each_coordinate_once(self, monkeypatch):
        # The funding margin is set by the pool and i's weight alone, so a
        # search of 7 blocks places each coordinate's levels once, at its
        # first block, and every later block reuses them.
        inst = VcgInstance(n=4, m=2, K=1, reserve_threshold=0.5, weights=(0.25,) * 4)
        samples = 6 * mechanism.COLUMN_CHUNK + 1696
        assert len(mechanism.sample_blocks(samples)) == 7
        built = []

        class Counted(mechanism.LevelEdges):
            def __init__(self, levels, margin):
                built.append(margin)
                super().__init__(levels, margin)

        monkeypatch.setattr(mechanism, "LevelEdges", Counted)
        strategies = [audit.SingleCoordinateGrid(11), audit.EqualShift((0.05,))]
        verdict = audit.best_response_search(
            inst, 0, (0.35, 0.65), UniformIID(), strategies, samples, seed=4
        )
        assert verdict.counts.candidates == 23  # 11 grid points on each coordinate, 1 shift
        assert len(built) == inst.m and len(set(built)) == 1

    def test_matches_scalar_path(self):
        inst = table_instance(K=2, reserve_threshold=0.3)
        rng = np.random.default_rng(21)
        others = sample_others(UniformIID(), 3, 2, 2, 32, rng)
        engine = vcg.InterimEngine(inst, 2, others)
        belief, report = (0.7, 0.2), (0.5, 0.45)
        fast = engine.utilities(belief, report)
        slow = np.array(
            [
                inst.expost_utility(np.insert(others[s], 2, report, axis=0), 2, belief)
                for s in range(32)
            ]
        )
        assert np.allclose(fast, slow, atol=1e-12)

    def test_interim_utility_deterministic(self):
        inst = table_instance()
        a = audit.interim_utility(inst, 0, (0.6, 0.4), (0.6, 0.4), UniformIID(), 4000, 5)
        b = audit.interim_utility(inst, 0, (0.6, 0.4), (0.6, 0.4), UniformIID(), 4000, 5)
        assert a == b


# ── branch-free kernels against their np.where forms ─────────────────

EIGHTHS = [k / 8 for k in range(9)]


def _where_funded_sum(terms, funded):
    """`_funded_sum` as it was written with `np.where`."""
    total = np.where(funded[0], terms[0], 0.0)
    for term, mask in zip(terms[1:], funded[1:]):
        total += np.where(mask, term, 0.0)
    return total


def _int64_order(scores, c, n_reserves, skip=None):
    """`_order` as it was written: int64 positions, and the real borrowers
    below c counted on a copy of their rows."""
    below = scores < c
    pos = n_reserves * below
    real = [q for q in range(len(scores)) if q != skip]
    for p, q in itertools.combinations(real, 2):
        first = scores[p] >= scores[q]
        pos[q] += first
        pos[p] += ~first
    return pos, len(real) - np.count_nonzero(below[real], axis=0)


def _where_below_unless(keys, exact):
    return np.where(exact, keys, np.nextafter(keys, -np.inf))


# Scores a sum of products of weights and reports can take, +0.0 and
# subnormals included.
SCORE_POOL = EIGHTHS + [5e-324, 1e-310, 2.0**-1022, 1 / 3, 0.1 + 0.2, 2.5]


@st.composite
def eighth_grid_cases(draw):
    """Eighth-grid scores, (m, samples) with m <= 8, so ties among
    borrowers and at c are common; K <= m, reserves 0..K and c on the
    eighth grid below 1."""
    m = draw(st.integers(1, 8))
    K = draw(st.integers(1, m))
    n_res = draw(st.integers(0, K))
    c = draw(st.sampled_from(EIGHTHS[:-1]))
    samples = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(EIGHTHS, (m, samples)), c, n_res, K


class TestBranchFreeKernels:
    """Each per-sample select rewritten without `np.where` gives its
    `np.where` form's bits, signs of zero included (`tobytes`)."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 40), st.sampled_from(["none", "all", "random"]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_funded_sum(self, m, samples, funded_kind, per_borrower, seed):
        rng = np.random.default_rng(seed)
        shape = (m,) if per_borrower else (m, samples)
        terms = rng.choice(SCORE_POOL, shape)
        if funded_kind == "random":
            funded = rng.random((m, samples)) < 0.5
        else:
            funded = np.full((m, samples), funded_kind == "all")
        got = vcg._funded_sum(terms, funded)
        want = _where_funded_sum(terms, funded)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(eighth_grid_cases())
    def test_order_with_every_skip(self, case):
        scores, c, n_res, _ = case
        for skip in [None, *range(len(scores))]:
            pos, ahead = vcg._order(scores, c, n_res, skip)
            want_pos, want_ahead = _int64_order(scores, c, n_res, skip)
            assert pos.tolist() == want_pos.tolist()
            assert ahead.dtype == want_ahead.dtype and ahead.tobytes() == want_ahead.tobytes()
        # The batch selection reads the positions as `_select`'s funded set.
        want_pos, want_ahead = _int64_order(scores, c, n_res)
        for K in range(1, len(scores) + 1):
            assert vcg.select_batch(scores.T, c, n_res, K).tolist() == np.concatenate(
                [(want_pos < K).T, np.arange(n_res) < np.clip(K - want_ahead, 0, n_res)[:, None]],
                axis=1,
            ).tolist()

    def test_order_past_one_byte(self):
        # 200 borrowers and 100 reserves: positions up to 299 need two bytes.
        scores = np.random.default_rng(7).choice(EIGHTHS, (200, 3))
        for skip in (None, 0, 150):
            pos, ahead = vcg._order(scores, 0.5, 100, skip)
            want_pos, want_ahead = _int64_order(scores, 0.5, 100, skip)
            assert pos.max() > 255 and pos.tolist() == want_pos.tolist()
            assert ahead.tolist() == want_ahead.tolist()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_column_parts(self, data):
        # Eighth-grid co-reports and truth under dyadic weights tie scores
        # with each other and with c; every coordinate is q in turn.
        n = data.draw(st.integers(2, 4))
        weights = tuple(data.draw(st.lists(st.sampled_from([0.125, 0.25, 0.5]), min_size=n,
                                           max_size=n)))
        m = data.draw(st.integers(1, 8))
        K = data.draw(st.integers(1, m))
        c = data.draw(st.sampled_from(EIGHTHS[:-1]))
        i = data.draw(st.integers(0, n - 1))
        inst = VcgInstance(n=n, m=m, K=K, reserve_threshold=c, weights=weights)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        others = rng.choice(EIGHTHS, (data.draw(st.integers(1, 30)), n - 1, m))
        true_row = tuple(rng.choice(EIGHTHS, m).tolist())
        engine = vcg.InterimEngine(inst, i, others)
        scores = engine._scores(true_row)
        for q in range(m):
            funding, u = engine._column_parts(true_row, q)
            with mock.patch.object(vcg, "_funded_sum", _where_funded_sum), \
                    mock.patch.object(vcg, "_order", _int64_order), \
                    mock.patch.object(vcg, "_below_unless", _where_below_unless):
                want_funding, want_u = engine._column_parts(true_row, q)
            assert u.tobytes() == want_u.tobytes()
            if K >= m + inst.n_reserves:
                assert funding.key.tolist() == [-np.inf] * len(others)
                continue
            pos, _ = _int64_order(scores, c, inst.n_reserves, skip=q)
            kth = pos == K - 1
            kth[q] = False
            kth_key = np.where(kth.any(axis=0), np.where(kth, scores, 0.0).sum(axis=0), c)
            key = np.where(kth[:q].any(axis=0), kth_key, np.nextafter(kth_key, -np.inf))
            assert funding.key.tobytes() == key.tobytes() == want_funding.key.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(SCORE_POOL + [np.inf, np.finfo(float).max, 0.125 + 2**-52]),
                    min_size=1, max_size=20),
           st.integers(0, 2**32 - 1))
    def test_below_unless(self, keys, seed):
        # 0.0 (a zero score at c = 0) takes np.nextafter; every other key,
        # subnormals and +inf included, the decrement of its bit pattern.
        keys = np.array(keys)
        exact = np.random.default_rng(seed).random(len(keys)) < 0.5
        got = vcg._below_unless(keys, exact)
        assert got.tobytes() == _where_below_unless(keys, exact).tobytes()
