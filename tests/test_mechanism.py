"""The shared linear score, funding test and grid scorer both interim
engines use."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funding_oracle import report_bounds
from lendmech import audit, mechanism
from lendmech.aggregation import MonotoneCustom, WeightVector, WeightedLinear
from lendmech.mechanism import Allocation, FundingTest, Grid, Moments, RowsColumn, SampleEngine
from lendmech.mechanism import Settlement, deficit, left_sum, linear_scores, mean_se
from lendmech.mechanism import LevelEdges, others_scores, place, scores_with
from lendmech.priors import DegenerateAt
from lendmech.vcg import InterimEngine, VcgInstance
from lendmech.winkler import ColumnEngine, WinklerInstance
from stats_helpers import assert_stats_close, utility_scale, with_report

EIGHTHS = [k / 8 for k in range(9)]
NON_DYADIC_WEIGHTS = [(1 / 3, 1 / 3, 1 / 3), (1 / 7, 2 / 7, 4 / 7), (0.1, 0.3, 0.6)]


def random_weights(rng, n):
    w = rng.random(n) + 1e-3
    return tuple(float(v) for v in w / w.sum())


class TestLinearScores:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_adds_left_to_right_with_batch_axes(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        weights = random_weights(rng, n)
        batch = rng.random((5, n, m))
        got = linear_scores(weights, batch)
        for s in range(5):
            for q in range(m):
                total = 0.0
                for w, r in zip(weights, batch[s, :, q]):
                    total += w * float(r)
                assert got[s, q] == total
            assert np.array_equal(got[s], linear_scores(weights, batch[s]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_zero_report_leaves_the_others_score(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        weights = random_weights(rng, n)
        reports = rng.random((n, m))
        i = int(rng.integers(0, n))
        reports[i] = 0.0
        others = linear_scores(weights[:i] + weights[i + 1 :], np.delete(reports, i, axis=0))
        assert np.array_equal(linear_scores(weights, reports), others)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_others_scores_equal_one_call_per_recommender(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        weights = tuple(float(w) for w in rng.choice([0.0, 1 / 3, 1 / 7, 0.1, 0.6], n))
        reports = rng.choice(EIGHTHS, (n, m))
        got = others_scores(weights, reports)
        assert got.shape == (n, m)
        for i in range(n):
            alone = linear_scores(weights[:i] + weights[i + 1 :], np.delete(reports, i, axis=0))
            assert got[i].tobytes() == alone.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000), st.booleans())
    def test_scores_with_equal_the_inserted_matrix(self, seed, scalar):
        # Every recommender slot, with zero and non-dyadic weights, a report
        # row or a scalar, and batch axes: the same bytes as scoring the
        # matrix with i's report inserted.
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        weights = tuple(float(w) for w in rng.choice([0.0, 1 / 3, 1 / 7, 0.1, 0.6], n))
        co_reports = rng.choice(EIGHTHS + [0.3, 0.7], (7, n - 1, m))
        report = float(rng.random()) if scalar else rng.choice(EIGHTHS + [0.3], m)
        for i in range(n):
            want = linear_scores(weights, np.insert(co_reports, i, report, axis=1))
            got = scores_with(weights, co_reports, i, report)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            one = scores_with(weights, co_reports[0], i, report)
            assert one.tobytes() == want[0].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_batched_weights_equal_one_call_per_batch(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        weights = np.array([random_weights(rng, n) for _ in range(4)])
        reports = rng.random((4, n, m))
        got = linear_scores(weights.T[:, :, np.newaxis], reports)
        for b in range(4):
            assert np.array_equal(got[b], linear_scores(tuple(weights[b]), reports[b]))


class TestMasked:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                    | st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324]),
                    min_size=1, max_size=30),
           st.integers(0, 2**32 - 1))
    def test_is_the_where_form_for_every_float(self, values, seed):
        # Signs of zero, infinities, NaN payloads and subnormals all keep
        # their bits, and an unpicked sample is +0.0.
        values = np.array(values)
        mask = np.random.default_rng(seed).random(len(values)) < 0.5
        for picked in (mask, ~mask, np.zeros_like(mask), np.ones_like(mask)):
            want = np.where(picked, values, 0.0)
            assert mechanism.masked(values, picked).tobytes() == want.tobytes()
            for value in (values[0], float(values[-1])):  # a scalar broadcasts
                want = np.where(picked, value, 0.0)
                assert mechanism.masked(value, picked).tobytes() == want.tobytes()


class TestMeanSe:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 70))
    def test_rows_reduce_as_one_dimensional_arrays(self, seed, samples):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((6, samples)) * 10.0 ** rng.integers(-8, 8, (6, 1))
        values[1, 0], values[2, -1], values[3, 0], values[3, -1] = np.inf, -np.inf, np.inf, -np.inf
        mean, se = mean_se(values)
        for row in range(6):
            mean_row, se_row = mean_se(values[row])
            assert (mean[row], se[row]) == (mean_row, se_row)
        assert mean[0] == values[0].mean()
        assert se[0] == (values[0].std(ddof=1) / np.sqrt(samples) if samples > 1 else 0.0)
        assert (mean[1], se[1]) == (np.inf, 0.0)
        assert (mean[2], se[2]) == (mean[3], se[3]) == (-np.inf, 0.0)


@st.composite
def block_slices(draw, samples):
    """Nonempty consecutive blocks that cover `samples` samples, as a search
    draws them: one block, uneven cuts, or every sample a block of its own."""
    kind = draw(st.sampled_from(["one", "cuts", "singles"]))
    if kind == "one" or samples == 1:
        cuts = []
    elif kind == "singles":
        cuts = list(range(1, samples))
    else:
        cuts = sorted(draw(st.sets(st.integers(1, samples - 1), min_size=1, max_size=8)))
    edges = [0, *cuts, samples]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


class TestMomentsMerge:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_blocks_merge_to_the_one_block_statistics(self, seed, data):
        # Rows: wide-ranging normals, eighth-grid ties, one +inf, and -inf
        # with +inf, which `mean_se` reports as -inf with SE 0.
        rng = np.random.default_rng(seed)
        samples = data.draw(st.integers(1, 80))
        values = np.vstack([
            rng.standard_normal(samples) * 10.0 ** rng.integers(-8, 8),
            rng.choice(EIGHTHS, samples),
            rng.standard_normal(samples),
            rng.standard_normal(samples),
        ])
        values[2, rng.integers(samples)] = np.inf
        values[3, rng.integers(samples)] = np.inf
        values[3, rng.integers(samples)] = -np.inf
        blocks = data.draw(block_slices(samples))
        merged = Moments.merge([Moments.of(values[:, b]) for b in blocks])
        assert merged.count == samples
        got, want = merged.stats(), mean_se(values)
        finite = np.where(np.isfinite(values), np.abs(values), 0.0)
        assert_stats_close(got, want, np.maximum(1.0, finite.max(axis=1)))
        if len(blocks) == 1:  # one block is `mean_se` bit for bit
            assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
        assert (got[0][3], got[1][3]) == (-np.inf, 0.0)


class TestLeftSum:
    # Python 3.12's sum() gives 1.0 here: it compensates.
    def test_adds_left_to_right_as_python_3_11_sum_does(self):
        assert left_sum([0.1] * 10) == 0.9999999999999999
        assert left_sum([]) == 0.0
        assert left_sum([1e100, 1.0, -1e100]) == 0.0

    def test_deficit_of_ten_payments(self):
        settlement = Settlement(
            allocation=Allocation(real=(1,) * 10),
            immediate=(0.0,),
            contingent={(0, q): 0.1 for q in range(10)},
        )
        assert deficit(settlement) == 0.9999999999999999
        assert settlement.realized_utility(0) == 0.9999999999999999


class TestAllocation:
    def test_funded_real_is_computed_once_and_is_not_a_field(self):
        # The first read keeps the tuple; equality, hashing, repr, the
        # field list and copies see only `real` and `reserves_funded`.
        alloc, fresh = Allocation((0, 1, 1, 0, 1), 2), Allocation((0, 1, 1, 0, 1), 2)
        text, key = repr(alloc), hash(alloc)
        assert alloc.funded_real == (1, 2, 4)
        assert alloc.funded_real is alloc.funded_real
        assert [f.name for f in dataclasses.fields(Allocation)] == ["real", "reserves_funded"]
        assert (alloc == fresh, hash(alloc), repr(alloc)) == (True, key, text)
        assert hash(fresh) == key
        assert repr(alloc) == "Allocation(real=(0, 1, 1, 0, 1), reserves_funded=2)"
        assert dataclasses.astuple(alloc) == ((0, 1, 1, 0, 1), 2)
        assert dataclasses.replace(alloc, reserves_funded=0).funded_real == (1, 2, 4)
        assert pickle.loads(pickle.dumps(alloc)) == fresh
        assert Allocation((0, 0)).funded_real == ()


CONTRACT_WEIGHTS = (0.1, 0.3, 0.6)
CONTRACT_POOL = WeightedLinear(WeightVector(CONTRACT_WEIGHTS))
# The same pool as a custom aggregator, which no vectorized engine models.
CONTRACT_CUSTOM = MonotoneCustom(
    fn=lambda col: left_sum(w * r for w, r in zip(CONTRACT_WEIGHTS, col)), arity=3
)
CONTRACT_INSTANCES = [
    pytest.param(WinklerInstance(3, 3, 0.3, CONTRACT_POOL), ColumnEngine, id="winkler"),
    pytest.param(WinklerInstance(3, 3, 0.3, CONTRACT_POOL, cap=1), SampleEngine, id="capped"),
    pytest.param(WinklerInstance(3, 3, 0.3, CONTRACT_CUSTOM), SampleEngine, id="custom"),
    pytest.param(VcgInstance(3, 3, 2, 0.3, CONTRACT_WEIGHTS), InterimEngine, id="vcg"),
]
# The recommender whose engine is checked: the middle one, so a report row
# inserted anywhere but its own place is caught.
CONTRACT_I = 1
CONTRACT_TRUTH = (0.75, 0.5, 0.25)
# Reports at 0 and 1, and the truth, whose first entry puts column 0
# exactly at c = 0.3 where the others report 0.75 and 0.
CONTRACT_REPORTS = [CONTRACT_TRUTH, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 0.5, 1.0)]


def contract_others():
    """Recommender 1's co-reports, (24, 2, 3): eighth-grid samples, entries
    at 0 and 1 included. Sample 0 puts the truth's column 0 on c, and
    sample 1 ties every borrower under a report row that is constant."""
    others = np.random.default_rng(5).choice(EIGHTHS, size=(24, 2, 3))
    others[0, :, 0] = (0.75, 0.0)
    others[1] = 0.5
    return others


class TestEngineContract:
    @pytest.mark.parametrize("inst, kind", CONTRACT_INSTANCES)
    def test_every_instance_has_an_engine(self, inst, kind):
        engine = inst.engine(CONTRACT_I, contract_others())
        assert engine is not None and type(engine) is kind
        assert callable(engine.utilities) and callable(engine.column_stats)

    @pytest.mark.parametrize("inst, kind", CONTRACT_INSTANCES)
    def test_engines_score_each_profile_as_expost_utility(self, inst, kind):
        # The per-sample engine is `expost_utility` on each profile with
        # row i inserted, bit for bit; the instance's own engine agrees.
        i, others = CONTRACT_I, contract_others()
        slow, engine = SampleEngine(inst, i, others), inst.engine(i, others)
        for report in CONTRACT_REPORTS:
            want = [
                inst.expost_utility(np.insert(co, i, report, axis=0), i, CONTRACT_TRUTH)
                for co in others
            ]
            assert slow.utilities(CONTRACT_TRUTH, report).tolist() == want
            got = engine.utilities(CONTRACT_TRUTH, report)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("inst, kind", CONTRACT_INSTANCES)
    def test_point_prior_interim_utility_is_expost_utility(self, inst, kind):
        i = CONTRACT_I
        profile = np.insert(contract_others()[0], i, CONTRACT_TRUTH, axis=0)
        prior = DegenerateAt(tuple(tuple(row) for row in profile.tolist()))
        for report in CONTRACT_REPORTS:
            deviated = profile.copy()
            deviated[i] = report
            want = inst.expost_utility(deviated, i, CONTRACT_TRUTH)
            got = audit.interim_utility(inst, i, CONTRACT_TRUTH, report, prior, 1, 0)
            assert got == (want, 0.0)


def score_with(weights, i, co_reports, report):
    return linear_scores(weights, np.insert(co_reports, i, report, axis=0))


@st.composite
def bound_cases(draw):
    """Grid co-reports and keys, so the score often ties the key exactly."""
    if draw(st.booleans()):
        weights = draw(st.sampled_from(NON_DYADIC_WEIGHTS))
    else:
        n = draw(st.integers(1, 4))
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        weights = tuple(raw)
    n = len(weights)
    i = draw(st.integers(0, n - 1))
    columns = draw(st.integers(1, 20))
    co_reports = np.array(
        draw(st.lists(st.sampled_from(EIGHTHS), min_size=(n - 1) * columns,
                      max_size=(n - 1) * columns)),
        dtype=float,
    ).reshape(n - 1, columns)
    keys = st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0])
    if draw(st.booleans()):
        key = draw(keys)
    else:
        key = np.array(draw(st.lists(keys, min_size=columns, max_size=columns)))
    return weights, i, co_reports, key


class TestReportBounds:
    @settings(max_examples=200, deadline=None)
    @given(bound_cases())
    def test_bound_is_the_last_report_at_or_below_the_key(self, case):
        weights, i, co_reports, key = case
        bound = report_bounds(weights, i, co_reports, key)
        key = np.broadcast_to(key, bound.shape)
        at_zero = score_with(weights, i, co_reports, 0.0)
        at_one = score_with(weights, i, co_reports, 1.0)
        assert np.array_equal(bound == -np.inf, at_zero > key)
        assert np.array_equal(bound == 1.0, at_one <= key)
        inside = (bound > -np.inf) & (bound < 1.0)
        at_bound = score_with(weights, i, co_reports, np.where(inside, bound, 0.0))
        above = score_with(weights, i, co_reports, np.where(inside, np.nextafter(bound, 2.0), 0.0))
        assert np.all(at_bound[inside] <= key[inside])
        assert np.all(above[inside] > key[inside])


@st.composite
def funding_cases(draw):
    """Weights (non-dyadic, equal, dyadic, random, with zeros, n from 1 to
    5, sometimes a tiny w_i), co-reports on the quarter, eighth or 1/100
    grid or uniform, a scalar or per-sample key (among them VCG's
    nextafter(k/8, -inf) keys and -inf, which funds every sample), and
    ascending levels: exact bounds of some samples and one ulp either side,
    0, 1, the eighth grid and uniform floats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["non-dyadic", "equal", "dyadic", "random", "zeros"]))
    if kind == "non-dyadic":
        weights = rng.choice([1 / 3, 1 / 7, 2 / 7, 0.1, 0.3, 0.6], n)
    elif kind == "equal":
        weights = np.full(n, 1 / n)
    elif kind == "dyadic":
        weights = rng.choice([0.125, 0.25, 0.5], n)
    else:
        weights = rng.random(n) * (rng.random(n) < 0.6 if kind == "zeros" else 1.0)
    i = draw(st.integers(0, n - 1))
    # A tiny w_i: a margin past the level gaps, past 4, or an overflow.
    weights[i] = draw(st.sampled_from([weights[i]] * 4 + [1e-17, 1e-300, 5e-324]))
    weights = tuple(float(w) for w in weights)
    samples = draw(st.sampled_from([1, 9, 400]))
    grid = draw(st.sampled_from([4, 8, 100, None]))
    if grid is None:
        co_reports = rng.random((n - 1, samples))
    else:
        co_reports = rng.integers(0, grid + 1, (n - 1, samples)) / grid
    key_kind = draw(st.sampled_from(["scalar", "eighths", "nextafter", "uniform", "-inf"]))
    if key_kind == "scalar":
        key = draw(st.sampled_from([0.0, 0.25, 0.3, 0.5, 0.7, 1.0]))
    elif key_kind == "eighths":
        key = rng.integers(0, 9, samples) / 8
    elif key_kind == "nextafter":
        key = np.nextafter(rng.integers(0, 9, samples) / 8, -np.inf)
    elif key_kind == "uniform":
        key = rng.random(samples)
    else:
        key = -np.inf
    bound = report_bounds(weights, i, co_reports, key)
    inside = bound[(bound >= 0.0) & (bound <= 1.0)]
    picked = rng.choice(inside, min(len(inside), 6)) if len(inside) else np.empty(0)
    near = np.concatenate([picked, np.nextafter(picked, -1.0), np.nextafter(picked, 2.0)])
    pool = np.concatenate([near, [0.0, 1.0], np.arange(9) / 8, rng.random(3)])
    pool = pool[(pool >= 0.0) & (pool <= 1.0)]
    levels = np.unique(rng.choice(pool, draw(st.integers(1, 24))))
    return weights, i, co_reports, key, bound, levels


@st.composite
def pool_key_cases(draw):
    """Dyadic, non-dyadic or equal weights, n from 1 to 4, sometimes with
    one weight raised without renormalizing, as `weight_monotonicity_check`
    raises it; i at every position, m from 1 to 5 and K from 1 to m, c at
    0 or an eighth, and eighth-grid co-reports and truth, which tie scores
    with each other, with c and with the sum of weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["dyadic", "non-dyadic", "equal"]))
    if kind == "dyadic":
        weights = rng.choice([0.125, 0.25, 0.5], n)
    elif kind == "non-dyadic":
        weights = rng.choice([1 / 3, 1 / 7, 2 / 7, 0.1, 0.3, 0.6], n)
    else:
        weights = np.full(n, 1 / n)
    if draw(st.booleans()):
        weights[draw(st.integers(0, n - 1))] += draw(st.sampled_from([0.1, 0.35, 1.0]))
    i = draw(st.integers(0, n - 1))
    m = draw(st.integers(1, 5))
    K = draw(st.integers(1, m))
    c = draw(st.sampled_from(EIGHTHS[:-1]))
    others = rng.choice(EIGHTHS, (draw(st.sampled_from([1, 16, 200])), n - 1, m))
    true_row = tuple(rng.choice(EIGHTHS, m).tolist())
    return tuple(float(w) for w in weights), i, m, K, c, others, true_row


class TestFundingTest:
    @settings(max_examples=400, deadline=None)
    @given(funding_cases())
    def test_blocks_and_funds_match_the_exact_bounds(self, case):
        weights, i, co_reports, key, bound, levels = case
        funding = FundingTest(weights, i, co_reports, key)
        want = np.searchsorted(levels, bound, side="right")
        edges = LevelEdges(levels, funding.margin)
        assert funding.blocks(edges).tolist() == want.tolist()
        # Levels placed against another margin are refused, not placed again.
        with pytest.raises(ValueError, match="placed against margin"):
            funding.blocks(LevelEdges(levels, funding.margin + 1.0))
        reports = levels[:: max(1, len(levels) // 4)]
        for report in reports:
            assert funding.funds(float(report)).tolist() == (report > bound).tolist()
        # Handed the others' score B, as VCG's engine hands the one it
        # holds, the test is the one that scores B itself.
        base = linear_scores(weights[:i] + weights[i + 1 :], co_reports)
        handed = FundingTest(weights, i, co_reports, key, base)
        assert handed.seed.tobytes() == funding.seed.tobytes()
        assert handed.margin == funding.margin
        assert handed.blocks(edges).tolist() == want.tolist()
        for report in reports:
            assert handed.funds(float(report)).tolist() == (report > bound).tolist()

    @settings(max_examples=300, deadline=None)
    @given(funding_cases(), st.booleans())
    def test_seed_is_the_where_form(self, case, some_keys_neg_inf):
        # The seed caps (key - B) / w_i at 2, or at -inf where B > key, by
        # index, not by `np.where`: the same bits, with -inf keys and tiny
        # weights whose quotient overflows.
        weights, i, co_reports, key, _, _ = case
        if some_keys_neg_inf:
            key = np.where(np.arange(co_reports.shape[1]) % 3 == 0, -np.inf, key)
        funding = FundingTest(weights, i, co_reports, key)
        base = linear_scores(weights[:i] + weights[i + 1 :], co_reports)
        funded = base > key
        if weights[i] == 0.0:
            want = np.where(funded, -np.inf, 1.0)
        else:
            with np.errstate(over="ignore"):
                want = np.where(funded, -np.inf, np.minimum((key - base) / weights[i], 2.0))
        assert funding.seed.dtype == want.dtype and funding.seed.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(funding_cases())
    def test_margin_covers_the_proven_error_bound(self, case):
        # The exact comparisons above cannot reach the worst case with n <= 5,
        # so the margin is held to the bound its docstring derives:
        # (3 gamma_{n+2} (W + K) + n s) / w_i + s, or capped at 4, or 0 with
        # w_i = 0 (where the seed is the exact bound).
        weights, i, co_reports, key, bound, levels = case
        funding = FundingTest(weights, i, co_reports, key)
        if weights[i] == 0.0:
            assert funding.margin == 0.0
            assert funding.seed.tolist() == bound.tolist()
            return
        n, u, s = len(weights), 2.0**-53, 2.0**-1074
        gamma = (n + 2) * u / (1.0 - (n + 2) * u)
        scale = sum(weights) + max(float(np.max(key)), 0.0)
        needed = (3.0 * gamma * scale + n * s) / weights[i] + s  # inf for 5e-324
        assert funding.margin == 4.0 or funding.margin >= needed
        assert funding.margin <= 4.0

    def test_refuses_a_key_above_the_pool_bound(self):
        # Keys reach max(sum of weights, 1) and no further: the margin is
        # derived for that bound, one per pool and weight.
        co_reports = np.array([[0.5, 1.0]])
        for weights in [(0.5, 0.5), (0.25, 0.5), (0.75, 0.5)]:
            bound = max(left_sum(weights), 1.0)
            FundingTest(weights, 0, co_reports, np.array([bound, -np.inf]))
            with pytest.raises(ValueError, match="funding key above"):
                FundingTest(weights, 0, co_reports, np.nextafter(bound, 2.0))

    @settings(max_examples=150, deadline=None)
    @given(pool_key_cases())
    def test_engine_keys_lie_within_the_pool_bound(self, case):
        # Every key VCG's `_column_parts` and Winkler's `ColumnEngine` hand a
        # `FundingTest` is at most max(sum of weights, 1), the bound its
        # margin is derived for: VCG's keys are scores (each at most the
        # sum of weights), c, or a score one ulp lower; Winkler's is c.
        weights, i, m, K, c, others, true_row = case
        vcg_inst = VcgInstance(len(weights), m, K, c, weights)
        engine = InterimEngine(vcg_inst, i, others)
        bound = max(left_sum(weights), 1.0)
        for q in range(m):
            assert engine._column_parts(true_row, q)[0].key.max() <= bound
        total = left_sum(weights)
        pool = WeightedLinear(WeightVector(tuple(w / total for w in weights)))
        pool_bound = max(left_sum(pool.weights.weights), 1.0)
        for threshold in EIGHTHS[1:-1]:
            winkler = ColumnEngine(WinklerInstance(len(weights), m, threshold, pool), i, others)
            assert all(test.key.max() <= pool_bound for test in winkler.funding)


@st.composite
def place_cases(draw):
    """Ascending edges, levels in [0, 1] less and plus a margin from 0 to
    4, and seeds at -inf, at 2, at and one ulp below cell starts, at and one
    ulp either side of edges, uniform in [0, 2], and outside [0, 2]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = np.unique(np.concatenate([
        rng.choice(EIGHTHS, draw(st.integers(0, 9))),
        rng.integers(0, 101, draw(st.integers(0, 30))) / 100,
        rng.random(draw(st.integers(0, 5))),
    ]))
    margin = draw(st.sampled_from([0.0, 5e-324, 2.0**-40, 1.8e-14, 1e-3, 0.3, 1.0, 4.0]))
    edges = np.sort(np.concatenate([levels - margin, levels + margin]))
    cell = 2.0 / mechanism.PLACE_CELLS
    starts = rng.integers(0, mechanism.PLACE_CELLS + 2, 40) * cell
    starts = np.concatenate([starts, np.floor(edges / cell) * cell, np.ceil(edges / cell) * cell])
    pool = np.concatenate([
        [-np.inf, 2.0, 0.0, -0.0, np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0)],
        starts, np.nextafter(starts, -np.inf),
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        rng.random(40) * 2.0,
        [-1.0, -1e-300, -cell, 2.0 + cell / 2, 3.0, 5.0, np.inf],
    ])
    seeds = rng.choice(pool, draw(st.integers(1, 300)))
    return edges, seeds


class TestPlace:
    @settings(max_examples=300, deadline=None)
    @given(place_cases())
    def test_equals_searchsorted(self, case):
        edges, seeds = case
        want = np.searchsorted(edges, seeds, side="right")
        assert place(edges, seeds).tolist() == want.tolist()


def grid_stats(blocks, u, alpha, truth: float, reports, gain):
    """`Grid`'s statistics of one block of samples: `blocks(levels)` gives
    each sample's level block."""
    grid = Grid(truth, reports, gain)
    grid.add(blocks(grid.levels), u, alpha)
    return grid.stats()


def explicit_grid_stats(bound, u, alpha, truth, reports, gain):
    """`grid_stats` by brute force: each report's per-sample differences
    (ft - fr) * u + fr * gain * alpha, written out, through `mean_se`."""
    f_truth = (truth > bound).astype(float)
    diffs = []
    for report, g in zip(reports, gain):
        f_report = (report > bound).astype(float)
        diffs.append((f_truth - f_report) * u + (f_report * g) * alpha)
    return mean_se(np.array(diffs))


@st.composite
def grid_cases(draw):
    """Per-sample bounds at a level, one ulp either side of one, at +-inf
    and uniform; 1 to 200 samples, sometimes all in one block; reports
    that sometimes include the truth."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = draw(st.sampled_from([1, 2, 7, 200]))
    reports = rng.choice(EIGHTHS, draw(st.integers(1, 12)))
    reports = np.concatenate([reports, rng.random(draw(st.integers(0, 4)))])
    truth = float(draw(st.sampled_from(reports.tolist())) if draw(st.booleans()) else rng.random())
    levels = np.append(reports, truth)
    near = np.concatenate([levels, np.nextafter(levels, -1.0), np.nextafter(levels, 2.0)])
    pool = np.concatenate([near, [-np.inf, np.inf], rng.random(4)])
    if draw(st.booleans()):  # every sample in one block
        bound = np.full(samples, rng.choice(pool))
    else:
        bound = rng.choice(pool, samples)
    u = rng.standard_normal(samples) * 10.0 ** rng.integers(-3, 3)
    alpha = rng.standard_normal(samples) * draw(st.sampled_from([0.0, 1.0]))
    gain = rng.standard_normal(len(reports)) * 10.0 ** rng.integers(-3, 3)
    return bound, u, alpha, truth, reports, gain


class TestGridStats:
    @settings(max_examples=300, deadline=None)
    @given(grid_cases())
    def test_matches_the_explicit_differences(self, case):
        bound, u, alpha, truth, reports, gain = case

        def blocks(levels):
            return np.searchsorted(levels, bound, side="right")

        got = grid_stats(blocks, u, alpha, truth, reports, gain)
        want = explicit_grid_stats(*case)
        scale = np.maximum(1.0, np.abs(u).max() + np.abs(gain) * np.abs(alpha).max())
        assert_stats_close(got, want, scale)
        if len(bound) == 1:  # one sample is one block: exact
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tolist() == [0.0] * len(reports)
        if not alpha.any():
            # VCG's model: a report differs from the truth only on samples
            # where one of them funds and the other does not.
            same = [np.array_equal(r > bound, truth > bound) for r in reports]
            assert got[0][same].tolist() == got[1][same].tolist() == [0.0] * sum(same)


class TestGridMerge:
    @settings(max_examples=300, deadline=None)
    @given(grid_cases(), st.data())
    def test_blocks_merge_to_the_one_block_statistics(self, case, data):
        bound, u, alpha, truth, reports, gain = case
        blocks = data.draw(block_slices(len(bound)))
        grid = Grid(truth, reports, gain)
        for b in blocks:
            grid.add(np.searchsorted(grid.levels, bound[b], side="right"), u[b], alpha[b])
        got = grid.stats()

        def one_block(levels):
            return np.searchsorted(levels, bound, side="right")

        scale = np.maximum(1.0, np.abs(u).max() + np.abs(gain) * np.abs(alpha).max())
        assert_stats_close(got, grid_stats(one_block, u, alpha, truth, reports, gain), scale)
        assert_stats_close(got, explicit_grid_stats(*case), scale)


# (instance, samples at most): each kind of engine, the per-sample one on
# fewer samples.
BLOCK_INSTANCES = [
    (WinklerInstance(3, 3, 0.3, CONTRACT_POOL), 40),
    (VcgInstance(3, 3, 2, 0.3, CONTRACT_WEIGHTS), 40),
    (WinklerInstance(3, 3, 0.3, CONTRACT_POOL, cap=1), 8),
]


class TestColumnsOverBlocks:
    @settings(max_examples=90, deadline=None)
    @given(st.integers(0, len(BLOCK_INSTANCES) - 1), st.integers(0, 2**32 - 1), st.data())
    def test_blocks_merge_to_the_one_block_statistics(self, which, seed, data):
        # Eighth-grid co-reports, truths and reports: ties at c and between
        # borrowers, and Winkler's reports and truths at 0 and 1 (log scores
        # of -inf, so differences of +-inf).
        inst, most = BLOCK_INSTANCES[which]
        rng = np.random.default_rng(seed)
        samples = data.draw(st.integers(1, most))
        others = rng.choice(EIGHTHS, (samples, inst.n - 1, inst.m))
        true_row = tuple(rng.choice(EIGHTHS, inst.m).tolist())
        q = int(rng.integers(inst.m))
        reports = np.concatenate([rng.choice(EIGHTHS, 5), rng.random(2), [0.0, 1.0]])
        blocks = data.draw(block_slices(samples))
        whole = inst.engine(CONTRACT_I, others)
        column = whole.column(true_row, q, reports)
        for b in blocks:
            engine = inst.engine(CONTRACT_I, others[b])
            column.add(engine, engine.utilities(true_row, true_row))
        truth_values = whole.utilities(true_row, true_row)
        values = [whole.utilities(true_row, with_report(true_row, q, r)) for r in reports]
        want = whole.column_stats(true_row, q, reports)
        assert_stats_close(column.stats(), want, utility_scale(truth_values, values))

        # Full rows: each block hands over its truth's utilities.
        rows = [tuple(rng.choice(EIGHTHS, inst.m).tolist()) for _ in range(3)]
        rows += [(0.0,) * inst.m, (1.0,) * inst.m]
        blocked, one = RowsColumn(true_row, rows), RowsColumn(true_row, rows)
        for b in blocks:
            engine = inst.engine(CONTRACT_I, others[b])
            blocked.add(engine, engine.utilities(true_row, true_row))
        one.add(whole, truth_values)
        scale = utility_scale(truth_values, [whole.utilities(true_row, r) for r in rows])
        assert_stats_close(blocked.stats(), one.stats(), scale)
