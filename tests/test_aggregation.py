"""Aggregation tests: linear pooling, outcome-based weights, history edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lendmech.aggregation import (
    MonotoneCustom,
    ObservedLoan,
    RoundHistory,
    WeightVector,
    WeightedLinear,
    accuracy_contributions,
    aggregate,
    aggregate_columns,
    budescu_quality,
    budescu_weights,
)
from lendmech.errors import AllNonPositiveContribution, ArityMismatch, EmptyHistory
from lendmech.mechanism import linear_scores


def equal_linear(n):
    return WeightedLinear(WeightVector.equal(n))


class TestWeightVector:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WeightVector((0.5, 0.4))
        WeightVector((0.5, 0.5 + 1e-10))  # within tolerance

    def test_zero_weights_allowed(self):
        wv = WeightVector((1.0, 0.0))
        assert wv.max_weight == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WeightVector((1.2, -0.2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            WeightVector((bad, 0.5, 0.5))


class TestAggregate:
    def test_worked_columns(self):
        agg = equal_linear(3)
        assert aggregate(agg, (0.7, 0.4, 0.6)) == pytest.approx(0.5667, abs=5e-5)
        assert aggregate(agg, (0.4, 0.85, 0.4)) == pytest.approx(0.55, abs=1e-12)

    def test_zero_column(self):
        assert aggregate(WeightedLinear(WeightVector((0.2, 0.8))), (0.0, 0.0)) == 0.0

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            aggregate(equal_linear(3), (0.5, 0.5))

    def test_monotone_custom(self):
        agg = MonotoneCustom(fn=lambda col: min(1.0, max(col)), arity=2)
        assert aggregate(agg, (0.2, 0.9)) == 0.9

    @settings(max_examples=200, deadline=None)
    @given(
        col=st.lists(st.floats(0, 1), min_size=3, max_size=3),
        idx=st.integers(0, 2),
        bump=st.floats(0.0, 1.0),
    )
    def test_linear_monotone_in_each_coordinate(self, col, idx, bump):
        agg = equal_linear(3)
        raised = list(col)
        raised[idx] = min(1.0, raised[idx] + bump)
        assert aggregate(agg, raised) >= aggregate(agg, col) - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_linear_pool_is_linear_scores(self, seed):
        # Python 3.12's sum() compensates, so the pool must not use it.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        w = rng.random(n) + 1e-3
        agg = WeightedLinear(WeightVector(tuple(float(v) for v in w / w.sum())))
        column = tuple(float(v) for v in rng.random(n))
        expected = linear_scores(agg.weights.weights, np.array(column)[:, np.newaxis])[0]
        assert aggregate(agg, column) == expected


class TestAggregateColumns:
    def test_linear_pool_scores_every_column_of_a_batch(self):
        agg = WeightedLinear(WeightVector((0.1, 0.3, 0.6)))
        batch = np.random.default_rng(3).random((4, 3, 5))
        assert np.array_equal(aggregate_columns(agg, batch), linear_scores((0.1, 0.3, 0.6), batch))

    def test_custom_aggregator_sees_each_column(self):
        agg = MonotoneCustom(fn=max, arity=2)
        batch = np.random.default_rng(4).random((3, 2, 4))
        assert np.array_equal(aggregate_columns(agg, batch), batch.max(axis=1))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            aggregate_columns(equal_linear(3), np.zeros((2, 4)))


def two_rec_history():
    # one funded borrower, reports (0.8, 0.6), repaid
    return RoundHistory(n=2, loans=(ObservedLoan(reports=(0.8, 0.6), outcome=1),))


class TestBudescuQuality:
    def test_worked_example(self):
        history = two_rec_history()
        assert budescu_quality(history) == pytest.approx(91.0, abs=1e-12)
        assert budescu_quality(history, exclude=0) == pytest.approx(84.0, abs=1e-12)
        assert budescu_quality(history, exclude=1) == pytest.approx(96.0, abs=1e-12)

    def test_perfect_consensus_scores_100(self):
        history = RoundHistory(
            n=2,
            loans=(
                ObservedLoan(reports=(1.0, 1.0), outcome=1),
                ObservedLoan(reports=(0.0, 0.0), outcome=0),
            ),
        )
        assert budescu_quality(history) == 100.0

    def test_empty_history(self):
        with pytest.raises(EmptyHistory):
            budescu_quality(RoundHistory(n=2, loans=()))

    def test_exclusion_leaving_nobody(self):
        history = RoundHistory(n=2, loans=(ObservedLoan(reports=(0.7, None), outcome=1),))
        with pytest.raises(EmptyHistory):
            budescu_quality(history, exclude=0)

    @settings(max_examples=150, deadline=None)
    @given(
        reports=st.lists(st.floats(0, 1), min_size=2, max_size=4),
        outcome=st.integers(0, 1),
    )
    def test_quality_range(self, reports, outcome):
        history = RoundHistory(
            n=len(reports), loans=(ObservedLoan(reports=tuple(reports), outcome=outcome),)
        )
        assert 0.0 <= budescu_quality(history) <= 100.0

    def test_consensus_member_contributes_nothing(self):
        # recommender 1 reports exactly the mean of the others
        history = RoundHistory(
            n=3,
            loans=(ObservedLoan(reports=(0.4, 0.5, 0.6), outcome=1),),
        )
        q_all = budescu_quality(history)
        assert budescu_quality(history, exclude=1) == pytest.approx(q_all, abs=1e-12)


class TestBudescuWeights:
    def test_worked_example(self):
        history = two_rec_history()
        contributions = accuracy_contributions(history)
        assert contributions[0] == pytest.approx(7.0, abs=1e-12)
        assert contributions[1] == pytest.approx(-5.0, abs=1e-12)
        assert budescu_weights(history).weights == (1.0, 0.0)

    def test_identical_recommenders_split_evenly(self):
        history = RoundHistory(
            n=2,
            loans=(
                ObservedLoan(reports=(0.9, 0.9), outcome=1),
                ObservedLoan(reports=(0.2, 0.2), outcome=0),
            ),
        )
        # both contributions are zero: dropping a twin leaves the mean as-is
        with pytest.raises(AllNonPositiveContribution):
            budescu_weights(history)

    def test_proportional_normalization(self):
        # engineered contributions (2, 1, -1) -> weights (2/3, 1/3, 0)
        weights = _weights_from_contributions((2.0, 1.0, -1.0))
        assert weights == pytest.approx((2 / 3, 1 / 3, 0.0))

    def test_all_nonpositive_raises(self):
        history = RoundHistory(
            n=2,
            loans=(ObservedLoan(reports=(0.5, 0.5), outcome=1),),
        )
        with pytest.raises(AllNonPositiveContribution):
            budescu_weights(history)

    def test_permutation_equivariance(self):
        loans = (
            ObservedLoan(reports=(0.9, 0.4, 0.6), outcome=1),
            ObservedLoan(reports=(0.1, 0.6, 0.3), outcome=0),
        )
        base = budescu_weights(RoundHistory(n=3, loans=loans)).weights
        swapped = budescu_weights(
            RoundHistory(
                n=3,
                loans=tuple(
                    ObservedLoan(
                        reports=(l.reports[1], l.reports[0], l.reports[2]), outcome=l.outcome
                    )
                    for l in loans
                ),
            )
        ).weights
        assert swapped == (base[1], base[0], base[2])

    def test_weights_sum_to_one(self):
        history = RoundHistory(
            n=3,
            loans=(
                ObservedLoan(reports=(0.9, 0.4, 0.6), outcome=1),
                ObservedLoan(reports=(0.1, 0.6, 0.3), outcome=0),
            ),
        )
        assert sum(budescu_weights(history).weights) == pytest.approx(1.0, abs=1e-12)


def _weights_from_contributions(contribs):
    positive = sum(c for c in contribs if c > 0)
    return tuple(c / positive if c > 0 else 0.0 for c in contribs)


class TestHistory:
    def test_window(self):
        loans = tuple(ObservedLoan(reports=(0.5, 0.6), outcome=1) for _ in range(5))
        history = RoundHistory(n=2, loans=loans)
        assert len(history.window(2).loans) == 2
        assert len(history.window(None).loans) == 5
        assert len(history.window(10).loans) == 5

    @pytest.mark.parametrize("size", [0, -5])
    def test_window_rejects_non_positive_size(self, size):
        # loans[-size:] would be the whole history for 0 and loans[5:] for -5
        loans = tuple(ObservedLoan(reports=(0.5, 0.6), outcome=1) for _ in range(10))
        with pytest.raises(ValueError, match="window size must be >= 1"):
            RoundHistory(n=2, loans=loans).window(size)

    def test_shape_validated(self):
        with pytest.raises(ArityMismatch):
            RoundHistory(n=3, loans=(ObservedLoan(reports=(0.5, 0.6), outcome=1),))

    def test_missing_reports_use_present_mean(self):
        history = RoundHistory(
            n=3,
            loans=(ObservedLoan(reports=(0.8, None, 0.6), outcome=1),),
        )
        # mean over the two present reports is 0.7 -> same as the 2-rec example
        assert budescu_quality(history) == pytest.approx(91.0, abs=1e-12)
