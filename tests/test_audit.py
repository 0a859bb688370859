"""Audit engine tests: strategies, verdict logic, oracle agreement."""

import dataclasses
import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from lendmech import audit, mechanism, scenario, vcg, winkler
from lendmech.aggregation import MonotoneCustom, WeightVector, WeightedLinear
from lendmech.errors import ReproductionMismatch, ShapeMismatch
from lendmech.mechanism import RowsColumn, SampleEngine
from lendmech.priors import BetaIID, DegenerateAt, ProductGrid, UniformIID, enumerate_others
from lendmech.priors import sample_others, sample_profiles
from lendmech.scenario import bundled_path
from lendmech.vcg import VcgInstance
from lendmech.winkler import WinklerInstance
from audit_oracle import assemble_verdict
from stats_helpers import assert_stats_close, with_report

BELIEFS = ((0.7, 0.4), (0.4, 0.85), (0.6, 0.4))


def winkler_instance(n=3, m=2, c=0.5, cap=None):
    return WinklerInstance(
        n=n, m=m, threshold=c, aggregator=WeightedLinear(WeightVector.equal(n)), cap=cap
    )


def capped_instance():
    return winkler_instance(cap=1)


class TestStrategies:
    def test_equal_shift_detection(self):
        assert audit.is_equal_shift((0.3, 0.5), (0.4, 0.6))
        assert not audit.is_equal_shift((0.3, 0.5), (0.4, 0.61))
        assert audit.is_equal_shift((0.3,), (0.9,))  # one coordinate is always a shift

    def test_grid_excludes_truth(self):
        rng = np.random.default_rng(0)
        candidates = audit.generate_misreports(
            (0.5, 0.25), audit.SingleCoordinateGrid(101), rng
        )
        assert len(candidates) == 200  # 0.5 and 0.25 sit on the grid
        assert all(c.row != (0.5, 0.25) for c in candidates)
        assert all(c.coordinate in (0, 1) for c in candidates)

    def test_equal_shift_clamping_flagged(self):
        rng = np.random.default_rng(0)
        candidates = audit.generate_misreports(
            (0.95, 0.5), audit.EqualShift((0.1,)), rng
        )
        assert len(candidates) == 1
        assert candidates[0].clamped
        assert not candidates[0].equal_shift  # clamping broke the pure shift

    def test_random_rows_seeded(self):
        a = audit.generate_misreports((0.5,), audit.FullRowRandom(5), np.random.default_rng(3))
        b = audit.generate_misreports((0.5,), audit.FullRowRandom(5), np.random.default_rng(3))
        assert [c.row for c in a] == [c.row for c in b]

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: audit.SingleCoordinateGrid(0), "SingleCoordinateGrid.points"),
            (lambda: audit.SingleCoordinateGrid(True), "SingleCoordinateGrid.points"),
            (lambda: audit.SingleCoordinateGrid(11.0), "SingleCoordinateGrid.points"),
            (lambda: audit.FullRowRandom(-1), "FullRowRandom.count"),
            (lambda: audit.FullRowRandom(False), "FullRowRandom.count"),
            (lambda: audit.EqualShift((0.1, math.nan)), "EqualShift.deltas"),
            (lambda: audit.EqualShift((-math.inf,)), "EqualShift.deltas"),
            (lambda: BetaIID(math.nan, 1.0), "BetaIID.a"),
            (lambda: BetaIID(2.0, math.inf), "BetaIID.b"),
        ],
    )
    def test_out_of_model_parameters_are_rejected_naming_the_field(self, build, field):
        with pytest.raises(ValueError, match=field.replace(".", r"\.")):
            build()

    def test_strategy_config_parsing(self):
        data = json.loads(bundled_path("table1").read_text())
        data["audit"]["strict-iic"] = {
            "single_coordinate_grid": 11, "equal_shift": [0.1], "targeted": [[0.0, 1.0]]
        }
        strategies = scenario.loads(json.dumps(data)).audit["strict-iic"].strategies
        kinds = {type(s) for s in strategies}
        assert kinds == {audit.SingleCoordinateGrid, audit.EqualShift, audit.Targeted}


def reference_misreports(true_row, strategies, rng):
    """generate_misreports one row at a time, as a plain loop."""
    if not isinstance(strategies, (list, tuple)):
        strategies = (strategies,)
    truth = tuple(float(v) for v in true_row)
    m = len(truth)
    out = []

    def push(row, kind, coordinate, clamped):
        if max(abs(r - t) for r, t in zip(row, truth)) <= 1e-12:
            return
        out.append(
            audit.Candidate(
                row=row,
                kind=kind,
                coordinate=coordinate,
                equal_shift=audit.is_equal_shift(truth, row),
                clamped=clamped,
            )
        )

    for strategy in strategies:
        if isinstance(strategy, audit.SingleCoordinateGrid):
            for q in range(m):
                for value in np.linspace(0.0, 1.0, strategy.points):
                    if abs(value - truth[q]) <= 1e-12:
                        continue
                    row = truth[:q] + (float(value),) + truth[q + 1 :]
                    push(row, "single-coordinate", q, False)
        elif isinstance(strategy, audit.FullRowRandom):
            for r in rng.random((strategy.count, m)):
                push(tuple(float(v) for v in r), "random-row", None, False)
        elif isinstance(strategy, audit.EqualShift):
            for delta in strategy.deltas:
                shifted = [min(1.0, max(0.0, t + delta)) for t in truth]
                clamped = any(abs((s - t) - delta) > 1e-12 for s, t in zip(shifted, truth))
                push(tuple(shifted), "equal-shift", None, clamped)
        else:
            for r in strategy.rows:
                push(tuple(float(v) for v in r), "targeted", None, False)
    return out


@st.composite
def misreport_cases(draw):
    """True rows on grid points, at 0 and 1, or anywhere; every strategy."""
    m = draw(st.integers(1, 4))
    points = draw(st.sampled_from([2, 5, 11, 101]))
    on_grid = st.integers(0, points - 1).map(lambda k: float(np.linspace(0.0, 1.0, points)[k]))
    cell = on_grid | st.sampled_from([0.0, 1.0, 1e-13, 1.0 - 1e-13]) | st.floats(0.0, 1.0)
    true_row = tuple(draw(st.lists(cell, min_size=m, max_size=m)))
    deltas = st.sampled_from([-0.2, -0.05, -1e-13, 1e-10, 0.05, 0.3]) | st.floats(-1.0, 1.0)
    rows = st.lists(st.lists(cell, min_size=m, max_size=m).map(tuple), max_size=4)
    strategies = [
        audit.SingleCoordinateGrid(points),
        audit.FullRowRandom(draw(st.integers(1, 5))),
        audit.EqualShift(tuple(draw(st.lists(deltas, max_size=6)))),
        audit.Targeted(tuple(draw(rows)) + (true_row,)),
    ]
    picked = draw(st.lists(st.sampled_from(strategies), min_size=1, max_size=4))
    return true_row, picked, draw(st.integers(0, 2**32 - 1))


class TestVectorizedMisreports:
    @settings(max_examples=300, deadline=None)
    @given(misreport_cases())
    def test_equals_the_row_by_row_reference(self, case):
        true_row, strategies, seed = case
        got = audit.generate_misreports(true_row, strategies, np.random.default_rng(seed))
        want = reference_misreports(true_row, strategies, np.random.default_rng(seed))
        assert got == want
        for a, b in zip(got, want):
            assert [type(v) for v in a.row] == [type(v) for v in b.row]
            assert type(a.equal_shift) is type(b.equal_shift) is bool
            assert type(a.clamped) is type(b.clamped) is bool


@st.composite
def verdict_cases(draw):
    """A pattern of (truth-minus-misreport difference, its SE, equal shift)
    and how often it repeats: differences at, just inside and just beyond
    +-tol and +-2 SE, infinite and NaN ones. Repeats make several wins share
    the largest gain, and the longest run past DETAILS_LIMIT. Kept small, so
    a failing case prints and shrinks fast."""
    tol = draw(st.sampled_from([None, audit.EXACT_TOL, audit.GAIN_TOL]))
    se_values = st.sampled_from([0.0, 1e-10, 0.05, math.inf, math.nan]) | st.floats(0.0, 1.0)
    fixed = st.sampled_from([0.0, -0.0, 0.3, -0.3, math.inf, -math.inf, math.nan]) | st.floats()
    pattern = []
    for _ in range(draw(st.integers(0, 8))):
        e = draw(se_values)
        sign = draw(st.sampled_from([1.0, -1.0]))
        at = {"tol": sign * (tol or audit.EXACT_TOL), "2se": sign * audit.SE_MULTIPLIER * e}
        d = at.get(draw(st.sampled_from(["tol", "2se", "fixed"])), None)
        d = draw(fixed) if d is None else d
        nudge = draw(st.integers(-1, 1))
        d = float(np.nextafter(d, math.inf * nudge)) if nudge else d
        pattern.append((d, e, draw(st.booleans())))
    copies = draw(st.sampled_from([1, 2, audit.DETAILS_LIMIT // 2]))
    desideratum = draw(st.sampled_from(["weak-epic", "strict-epic", "strict-iic"]))
    return desideratum, pattern, copies, tol


class TestVerdictAssembly:
    # Hypothesis' explain phase reruns a failing case for minutes here; a
    # shrunk case alone is reported.
    @settings(
        max_examples=300, deadline=None, phases=[p for p in Phase if p is not Phase.explain]
    )
    @given(verdict_cases())
    def test_equals_the_outcome_by_outcome_oracle(self, case):
        desideratum, pattern, copies, tol = case
        cells = pattern * copies
        candidates = [
            audit.Candidate(row=(k / len(cells),), kind="targeted", equal_shift=shift)
            for k, (_, _, shift) in enumerate(cells)
        ]
        mean_diff, se = np.array([c[0] for c in cells]), np.array([c[1] for c in cells])
        args = (desideratum, candidates, mean_diff, se, tol, 0.25, 0.01, 1000, 7, ("a note",))
        got, want = audit._assemble_verdict(*args), assemble_verdict(*args)
        # NaN != NaN, so compare reprs: a float's repr is exact.
        assert repr(got) == repr(want)

    def test_witness_is_the_first_largest_win_and_details_are_cut(self):
        size = audit.DETAILS_LIMIT + 8
        candidates = [audit.Candidate(row=(k / size,), kind="targeted") for k in range(size)]
        # Cycle: a loss, a tie, then two wins of the same largest gain.
        mean_diff = np.resize([1.0, 0.0, -0.5, -0.5], size)
        verdict = audit._assemble_verdict(
            "strict-iic", candidates, mean_diff, np.zeros(size), audit.EXACT_TOL, 0.0, 0.0, 1, 0
        )
        assert verdict.witness.candidate is candidates[2]
        assert len(verdict.details) == audit.DETAILS_LIMIT
        labels = [o.classification for o in verdict.details]
        wins, ties = verdict.counts.wins, verdict.counts.ties
        assert labels == ["wins"] * wins + ["ties"] * ties + ["loses"] * (len(labels) - wins - ties)


class TestInterimOracleAgreement:
    def test_monte_carlo_matches_exact_enumeration(self):
        # finite-support prior: enumerate the exact interim expectation and
        # require the Monte Carlo estimate to land within 3 standard errors
        support_cell = (0.1, 0.3, 0.5, 0.7, 0.9)
        n, m = 3, 2
        prior = ProductGrid(tuple(tuple(support_cell for _ in range(m)) for _ in range(n)))
        inst = winkler_instance(n=n, m=m)
        true_row, report_row = (0.62, 0.34), (0.5, 0.4)
        profiles, probs = enumerate_others(prior, n, m, 0, )
        engine = winkler.ColumnEngine(inst, 0, profiles)
        exact = float(engine.utilities(true_row, report_row) @ probs)
        mean, se = audit.interim_utility(
            inst, 0, true_row, report_row, prior, samples=1_000_000, seed=77
        )
        assert abs(mean - exact) <= 3 * se

    def test_degenerate_prior_is_noise_free(self):
        inst = capped_instance()
        mean, se = audit.interim_utility(
            inst, 1, BELIEFS[1], BELIEFS[1], DegenerateAt(BELIEFS), samples=999, seed=1
        )
        assert se == 0.0
        assert mean == pytest.approx(0.0650224702328767, abs=1e-9)

    def test_misreport_value_on_worked_example(self):
        inst = capped_instance()
        mean, se = audit.interim_utility(
            inst, 1, BELIEFS[1], (0.0, 0.85), DegenerateAt(BELIEFS), samples=1, seed=1
        )
        assert se == 0.0
        assert mean == pytest.approx(0.1711937892708008, abs=1e-9)


# Rows outside the model for m = 2: NaN, above 1, and too short or long.
BAD_ROWS = [
    pytest.param((math.nan, 0.5), ValueError, id="nan"),
    pytest.param((1.5, 0.5), ValueError, id="above-one"),
    pytest.param((0.5,), ShapeMismatch, id="short"),
    pytest.param((0.5, 0.5, 0.5), ShapeMismatch, id="long"),
]
MECHANISMS = [
    pytest.param(winkler_instance(), id="winkler"),
    pytest.param(
        VcgInstance(n=3, m=2, K=1, reserve_threshold=0.5, weights=(1 / 3,) * 3), id="vcg"
    ),
]
# Point-prior profiles of the wrong shape for n = 3, m = 2.
BAD_PROFILES = [
    pytest.param(BELIEFS + ((0.5, 0.5),), id="extra-row"),
    pytest.param(tuple(row + (0.5,) for row in BELIEFS), id="extra-column"),
    pytest.param(((0.7, 0.4), (0.4, 0.85, 0.2), (0.6, 0.4)), id="ragged"),
]


class TestBoundary:
    @pytest.mark.parametrize("inst", MECHANISMS)
    @pytest.mark.parametrize("row, error", BAD_ROWS)
    def test_out_of_model_rows_are_rejected(self, inst, row, error):
        grid, fine = audit.SingleCoordinateGrid(11), (0.5, 0.5)
        with pytest.raises(error, match="true_row"):
            audit.best_response_search(inst, 0, row, UniformIID(), grid, samples=100, seed=0)
        for prior in (UniformIID(), DegenerateAt(BELIEFS)):
            with pytest.raises(error, match="true_row"):
                audit.interim_utility(inst, 0, row, fine, prior, 100, 0)
            with pytest.raises(error, match="report_row"):
                audit.interim_utility(inst, 0, fine, row, prior, 100, 0)

    @pytest.mark.parametrize(
        "inst", MECHANISMS + [pytest.param(capped_instance(), id="capped-winkler")]
    )
    @pytest.mark.parametrize("profile", BAD_PROFILES)
    def test_point_prior_of_the_wrong_shape_is_rejected(self, inst, profile):
        prior, row = DegenerateAt(profile), (0.5, 0.4)
        with pytest.raises(ShapeMismatch, match="prior profile"):
            audit.interim_utility(inst, 0, row, row, prior, samples=1, seed=0)
        with pytest.raises(ShapeMismatch, match="prior profile"):
            audit.best_response_search(
                inst, 0, row, prior, audit.SingleCoordinateGrid(11), samples=1, seed=0
            )

    @pytest.mark.parametrize("inst", MECHANISMS)
    @pytest.mark.parametrize("row, error", BAD_ROWS)
    def test_out_of_model_targeted_rows_are_rejected(self, inst, row, error):
        # Alone, and after a valid row: a wrong length there makes the rows ragged.
        for rows in ((row,), ((0.25, 0.75), row)):
            with pytest.raises(error, match="targeted rows"):
                audit.best_response_search(
                    inst, 0, (0.5, 0.4), UniformIID(), audit.Targeted(rows), samples=100, seed=0
                )


class TestBestResponseSearch:
    def test_capped_winkler_weak_epic_violation(self):
        verdict = audit.best_response_search(
            capped_instance(),
            1,
            BELIEFS[1],
            DegenerateAt(BELIEFS),
            (audit.SingleCoordinateGrid(101), audit.Targeted(((0.0, 0.85),))),
            samples=1,
            seed=0,
            desideratum="weak-epic",
        )
        assert verdict.verdict == "violation"
        assert verdict.witness.candidate.row[0] == 0.0
        assert verdict.witness.mean_gain == pytest.approx(0.1062, abs=5e-4)

    def test_uncapped_winkler_weak_epic_passes_same_profile(self):
        verdict = audit.best_response_search(
            winkler_instance(),
            1,
            BELIEFS[1],
            DegenerateAt(BELIEFS),
            audit.SingleCoordinateGrid(101),
            samples=1,
            seed=0,
            desideratum="weak-epic",
        )
        assert verdict.verdict == "pass"

    def test_winkler_strict_epic_above_anchor(self):
        # others fixed, own beliefs comfortably above both anchors: truth is
        # the unique grid maximizer on every coordinate
        verdict = audit.best_response_search(
            winkler_instance(),
            0,
            (0.73, 0.81),
            DegenerateAt(((0.73, 0.81), (0.5, 0.55), (0.65, 0.5))),
            audit.SingleCoordinateGrid(101),
            samples=1,
            seed=0,
            desideratum="strict-epic",
        )
        assert verdict.verdict == "pass"

    def test_vcg_weak_epic_exact(self):
        inst = VcgInstance(n=3, m=2, K=1, reserve_threshold=0.5, weights=(1 / 3,) * 3)
        verdict = audit.best_response_search(
            inst,
            1,
            BELIEFS[1],
            DegenerateAt(BELIEFS),
            audit.SingleCoordinateGrid(101),
            samples=1,
            seed=0,
            desideratum="weak-epic",
        )
        assert verdict.verdict == "pass"
        assert verdict.counts.wins == 0

    def test_equal_shift_ties_without_reserve(self):
        inst = VcgInstance(n=3, m=2, K=1, reserve_threshold=0.0, weights=(1 / 3,) * 3)
        verdict = audit.best_response_search(
            inst,
            0,
            (0.6, 0.35),
            UniformIID(),
            audit.EqualShift((-0.1, 0.1)),
            samples=20_000,
            seed=5,
        )
        assert verdict.counts.equal_shift_candidates == 2
        assert verdict.counts.equal_shift_ties == 2
        assert verdict.verdict == "inconclusive"  # nothing but shifts searched

    def test_half_weight_precondition_matters_at_boundary(self):
        # max weight 1/2 (two equal recommenders): at the dictatorial belief
        # row the audit finds ties that are not equal shifts; a third
        # recommender restores strictness on the same row
        strategy = audit.SingleCoordinateGrid(101)
        two = VcgInstance(n=2, m=2, K=1, reserve_threshold=0.0, weights=(0.5, 0.5))
        verdict = audit.best_response_search(
            two, 0, (1.0, 0.0), UniformIID(), strategy, samples=100_000, seed=42
        )
        assert verdict.verdict == "inconclusive"
        assert verdict.counts.ties > 0 and verdict.counts.equal_shift_ties == 0

        three = VcgInstance(n=3, m=2, K=1, reserve_threshold=0.0, weights=(1 / 3,) * 3)
        verdict = audit.best_response_search(
            three, 0, (1.0, 0.0), UniformIID(), strategy, samples=100_000, seed=42
        )
        assert verdict.verdict == "pass"

    def test_determinism(self):
        inst = winkler_instance(n=4)
        args = (inst, 0, (0.6, 0.3), UniformIID(), audit.SingleCoordinateGrid(21), 5000, 9)
        assert audit.best_response_search(*args) == audit.best_response_search(*args)

    def test_vcg_column_path_matches_full_row_oracle(self, monkeypatch):
        inst = VcgInstance(n=4, m=3, K=2, reserve_threshold=0.3, weights=(0.25,) * 4)
        args = (inst, 1, (0.6, 0.3, 0.45), UniformIID(), audit.SingleCoordinateGrid(21), 3000, 4)
        fast = audit.best_response_search(*args)

        # Score each coordinate's reports as full rows through the engine's
        # `utilities`, as `SampleEngine` does; count the columns built so a
        # patch the search no longer reaches cannot pass.
        built = []

        def full_row_column(engine, true_row, q, reports):
            built.append(q)
            column = SampleEngine.column(engine, true_row, q, reports)
            assert type(column) is RowsColumn
            return column

        monkeypatch.setattr(vcg.InterimEngine, "column", full_row_column)
        slow = audit.best_response_search(*args)
        assert built == [0, 1, 2]
        # The block-moment statistics round differently from the per-sample
        # ones; everything the verdict rests on must agree exactly.
        assert dataclasses.replace(fast, details=(), witness=None) == dataclasses.replace(
            slow, details=(), witness=None
        )
        assert (fast.witness is None) == (slow.witness is None)
        assert [(o.candidate, o.classification) for o in fast.details] == [
            (o.candidate, o.classification) for o in slow.details
        ]
        stats = [np.array([(-o.mean_gain, o.std_error) for o in v.details]).T for v in (fast, slow)]
        assert_stats_close(*stats, np.ones(len(fast.details)))

    def test_sample_engine_search_scores_the_truth_once_per_block(self, monkeypatch):
        # A capped search scores through `SampleEngine`. Every column of a
        # block is handed the block's truth utilities: one truth call, and
        # one per candidate row (10 + 11 grid reports; 0.3 is on the grid).
        inst = winkler_instance(n=3, m=2, cap=1)
        calls = []
        original = SampleEngine.utilities

        def counted(engine, belief_row, report_row):
            calls.append(tuple(report_row))
            return original(engine, belief_row, report_row)

        monkeypatch.setattr(SampleEngine, "utilities", counted)
        verdict = audit.best_response_search(
            inst, 0, (0.3, 0.55), UniformIID(), audit.SingleCoordinateGrid(11), 100, 5
        )
        assert verdict.counts.candidates == 21
        assert len(calls) == 22
        assert calls.count((0.3, 0.55)) == 1


@st.composite
def block_draw_cases(draw):
    """A prior, a shape, a recommender, a sample count and a block size;
    product grids of one to three points per cell."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["uniform", "beta", "grid"]))
    if kind == "uniform":
        prior = UniformIID()
    elif kind == "beta":
        prior = BetaIID(float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 5.0)))
    else:
        support = [[tuple(rng.choice(9, rng.integers(1, 4), replace=False) / 8) for _ in range(m)]
                   for _ in range(n)]
        prior = ProductGrid(tuple(tuple(row) for row in support))
    chunk = draw(st.integers(1, 40))
    samples = draw(st.integers(1, chunk if kind == "grid" else 150))
    return prior, n, m, draw(st.integers(0, n - 1)), samples, chunk, draw(st.integers(0, 2**32))


class TestSampleBlocks:
    @settings(max_examples=200, deadline=None)
    @given(block_draw_cases())
    def test_blocked_draw_is_the_one_shot_draw(self, case):
        # Uniform and beta blocks of any size, split anywhere, are the one
        # draw of all the samples, row for row; a product grid draws cell by
        # cell, so it is the one draw only up to one block.
        prior, n, m, i, samples, chunk, seed = case
        inst = VcgInstance(n=n, m=m, K=1, reserve_threshold=0.0, weights=(1.0 / n,) * n)
        with mock.patch.object(mechanism, "COLUMN_CHUNK", chunk):
            sizes = mechanism.sample_blocks(samples)
            blocks = list(audit._draws(inst, i, prior, samples, np.random.default_rng(seed)))
        assert sum(sizes) == samples and max(sizes) <= chunk
        assert sizes[:-1] == [chunk] * (len(sizes) - 1)
        assert [len(b) for b in blocks] == sizes
        once = sample_others(prior, n, m, i, samples, np.random.default_rng(seed))
        assert np.concatenate(blocks).tobytes() == once.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(block_draw_cases())
    def test_draw_lands_item_major(self, case):
        # `sample_others` holds `np.delete(profiles, i, axis=1)`'s values as
        # a view of one C-contiguous (n-1, m, count) copy, m = 1 included,
        # which the interim engines read without copying it again.
        prior, n, m, i, samples, _, seed = case
        once = sample_others(prior, n, m, i, samples, np.random.default_rng(seed))
        profiles = sample_profiles(prior, n, m, samples, np.random.default_rng(seed))
        assert once.shape == (samples, n - 1, m)
        assert once.tobytes() == np.delete(profiles, i, axis=1).tobytes()
        assert once.transpose(1, 2, 0).flags.c_contiguous

    def test_point_prior_is_one_exact_block(self):
        prior = DegenerateAt(BELIEFS)
        blocks = list(audit._draws(winkler_instance(), 1, prior, 10**6, None))
        assert len(blocks) == 1
        assert blocks[0].tolist() == [[list(BELIEFS[0]), list(BELIEFS[2])]]


def _without_stats(verdict):
    """The verdict with every mean and SE left out: what must not move."""
    outcomes = ([verdict.witness] if verdict.witness else []) + list(verdict.details)
    kept = [(o.candidate, o.classification) for o in outcomes]
    return dataclasses.replace(verdict, truth_mean=0.0, truth_std_error=0.0, witness=None,
                               details=()), kept


def _stats(verdict):
    outcomes = ([verdict.witness] if verdict.witness else []) + list(verdict.details)
    rows = [(verdict.truth_mean, verdict.truth_std_error)] + [
        (-o.mean_gain, o.std_error) for o in outcomes
    ]
    return tuple(np.array(v) for v in zip(*rows))


class TestStreamedSearch:
    @pytest.mark.parametrize(
        "inst, samples",
        [
            (VcgInstance(n=4, m=3, K=2, reserve_threshold=0.3, weights=(0.25,) * 4), 400),
            (winkler_instance(n=4), 400),
            (capped_instance(), 100),
        ],
        ids=["vcg", "winkler", "capped"],
    )
    @pytest.mark.parametrize("chunk", [1, 37])
    def test_blocks_give_the_one_block_verdict(self, inst, samples, chunk):
        # Single-sample and uneven blocks against one block: the same
        # verdict, counts, witness and details, and statistics within
        # rounding. The grid holds reports at 0 and 1, so Winkler's
        # infinities merge too.
        true_row = (0.625, 0.3, 0.45)[: inst.m]
        strategy = [
            audit.SingleCoordinateGrid(9), audit.FullRowRandom(3), audit.EqualShift((-0.1, 0.1)),
        ]
        args = (inst, 1, true_row, UniformIID(), strategy, samples, 11)
        one = audit.best_response_search(*args)
        with mock.patch.object(mechanism, "COLUMN_CHUNK", chunk):
            blocked = audit.best_response_search(*args)
            utility = audit.interim_utility(inst, 1, true_row, (0.5,) * inst.m, UniformIID(),
                                            samples, 3)
        assert blocked.samples == samples
        assert _without_stats(blocked) == _without_stats(one)
        assert_stats_close(_stats(blocked), _stats(one), np.ones(len(_stats(one)[0])))
        want = audit.interim_utility(inst, 1, true_row, (0.5,) * inst.m, UniformIID(), samples, 3)
        assert_stats_close(tuple(np.array([v]) for v in utility),
                           tuple(np.array([v]) for v in want), np.ones(1))

    def test_grain_counts_are_the_one_block_counts(self):
        inst = winkler_instance(n=3, c=0.5)
        with mock.patch.object(mechanism, "COLUMN_CHUNK", 333):
            blocked = audit.grain_of_no_veto(inst, UniformIID(), 5000, 4)
        assert blocked == audit.grain_of_no_veto(inst, UniformIID(), 5000, 4)


class TestStreamedMemory:
    @pytest.mark.parametrize(
        "inst",
        [VcgInstance(n=4, m=2, K=1, reserve_threshold=0.5, weights=(0.25,) * 4),
         winkler_instance(n=4)],
        ids=["vcg", "winkler"],
    )
    def test_peak_does_not_grow_with_samples(self, inst):
        # A search holds one block of samples at a time: ten times the
        # samples may not take ten times the memory.
        def peak(samples):
            tracemalloc.start()
            try:
                audit.best_response_search(
                    inst, 0, (0.305, 0.695), UniformIID(), audit.SingleCoordinateGrid(11),
                    samples, 1,
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10**6) <= 1.5 * peak(10**5)


class TestGrainOfNoVeto:
    def test_two_recommenders_high_threshold_impossible(self):
        report = audit.grain_of_no_veto(
            winkler_instance(n=2, c=0.6), UniformIID(), 5000, 1
        )
        assert not report.all_positive
        assert len(report.zero_pairs) == 4

    def test_three_recommenders_moderate_threshold_possible(self):
        report = audit.grain_of_no_veto(
            winkler_instance(n=3, c=0.5), UniformIID(), 5000, 1
        )
        assert report.all_positive
        # analytic oracle: P[(p1+p2)/3 > 1/2] = P[p1+p2 > 1.5] = 0.125
        assert report.estimates[0][0] == pytest.approx(0.125, abs=0.02)

    def test_lopsided_weights(self):
        inst = WinklerInstance(
            n=2,
            m=1,
            threshold=0.5,
            aggregator=WeightedLinear(WeightVector((0.9, 0.1))),
        )
        report = audit.grain_of_no_veto(inst, UniformIID(), 5000, 2)
        assert report.estimates[0][0] == 0.0  # others' weight 0.1 < 0.5
        assert report.estimates[1][0] > 0.0  # others' weight 0.9 > 0.5

    def test_minimum_sample_size_enforced(self):
        with pytest.raises(ValueError):
            audit.grain_of_no_veto(winkler_instance(), UniformIID(), 10, 0)

    @pytest.mark.parametrize("weights", [(1 / 3, 1 / 3, 1 / 3), (0.1, 0.3, 0.6)])
    @pytest.mark.parametrize("c", [0.25, 0.5])
    def test_left_to_right_custom_pool_matches_the_linear_pool(self, weights, c):
        def pool(column):
            total = 0.0
            for w, r in zip(weights, column):
                total += w * r
            return total

        linear = WinklerInstance(
            n=3, m=2, threshold=c, aggregator=WeightedLinear(WeightVector(weights))
        )
        custom = dataclasses.replace(linear, aggregator=MonotoneCustom(fn=pool, arity=3))
        # Eighth grids put many columns exactly at the threshold.
        eighths = tuple(k / 8 for k in range(9))
        prior = ProductGrid(((eighths,) * 2,) * 3)
        for profile in sample_profiles(prior, 3, 2, 300, np.random.default_rng(7)):
            assert winkler.allocate(custom, profile) == winkler.allocate(linear, profile)
        assert audit.grain_of_no_veto(custom, prior, 2000, 5) == audit.grain_of_no_veto(
            linear, prior, 2000, 5
        )


class TestChecks:
    def test_efficiency_on_worked_instance(self):
        inst = VcgInstance(n=3, m=2, K=1, reserve_threshold=0.5, weights=(1 / 3,) * 3)
        assert audit.allocative_efficiency_check(inst, np.asarray(BELIEFS))

    def test_ex_post_ir(self):
        inst = VcgInstance(n=3, m=2, K=1, reserve_threshold=0.5, weights=(1 / 3,) * 3)
        ok, worst, _ = audit.ex_post_ir_check(inst, np.asarray(BELIEFS))
        assert ok and worst >= 0.0

    def test_strong_ir_needs_rebate(self):
        base = VcgInstance(n=3, m=2, K=2, reserve_threshold=0.3, weights=(0.6, 0.3, 0.1))
        profile = np.asarray(((0.9, 0.2), (0.4, 0.8), (0.5, 0.6)))
        without = audit.strong_ex_post_ir_check(base, profile)
        with_rebate = audit.strong_ex_post_ir_check(
            dataclasses.replace(base, tcomp_enabled=True), profile
        )
        assert with_rebate[0]
        assert with_rebate[1] >= 0.0
        # the all-default outcome charges the pivot with no contingent income
        assert without[1] <= with_rebate[1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.booleans())
    def test_strong_ir_equals_settling_every_outcome_vector(self, seed, rebate):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        K = int(rng.integers(1, min(m, 4) + 1))
        c = float(rng.uniform(0, 0.9)) if rng.random() < 0.7 else 0.0
        w = rng.random(n)
        inst = VcgInstance(
            n=n, m=m, K=K, reserve_threshold=c, weights=tuple(w / w.sum()), tcomp_enabled=rebate
        )
        profile = rng.random((n, m))
        if rng.random() < 0.3:
            profile = np.round(profile * 4) / 4  # quarter grid: ties
        funded = vcg.allocate(inst, profile).funded_real
        worst, witness = math.inf, None
        for bits in itertools.product((0, 1), repeat=len(funded)):
            settlement = vcg.settle(inst, profile, dict(zip(funded, bits)))
            for i in range(n):
                if settlement.realized_utility(i) < worst:
                    worst, witness = settlement.realized_utility(i), (i, bits)
        assert audit.strong_ex_post_ir_check(inst, profile) == (
            worst >= -audit.EXACT_TOL, worst, witness
        )

    def test_strong_ir_when_only_reserves_are_funded(self):
        # No real borrower funded: the single empty outcome vector is checked.
        inst = VcgInstance(n=2, m=2, K=1, reserve_threshold=0.9, weights=(0.5, 0.5))
        profile = np.asarray(((0.1, 0.2), (0.3, 0.5)))
        assert vcg.allocate(inst, profile).reserves_funded == 1
        assert vcg.allocate(inst, profile).funded_real == ()
        assert audit.strong_ex_post_ir_check(inst, profile) == (True, 0.0, (0, ()))


class TestWeightMonotonicity:
    def test_worked_example(self):
        inst = VcgInstance(n=3, m=2, K=1, reserve_threshold=0.5, weights=(1 / 3,) * 3)
        verdict = audit.weight_monotonicity_check(
            inst, 1, w_low=1 / 3, w_high=0.5, reports=BELIEFS
        )
        assert verdict.verdict == "pass"
        assert verdict.counts.losses == 1  # "loses" means the raise strictly helped

    def test_zero_value_profiles_skipped(self):
        inst = VcgInstance(n=2, m=1, K=1, reserve_threshold=0.5, weights=(0.5, 0.5))
        verdict = audit.weight_monotonicity_check(
            inst, 0, 0.5, 0.9, reports=((0.0,), (0.0,))
        )
        assert verdict.counts.candidates == 0
        assert "skipped 1" in verdict.notes[0]
        # No candidate left: the array verdict agrees with the oracle's.
        assert verdict == assemble_verdict(
            "weight-monotonicity", [], [], [], audit.GAIN_TOL, 0.0, 0.0, 1, 0, verdict.notes
        )

    def test_random_instances_all_improve(self):
        inst = VcgInstance(n=3, m=3, K=2, reserve_threshold=0.4, weights=(1 / 3,) * 3)
        verdict = audit.weight_monotonicity_check(
            inst, 0, 1 / 3, 0.5, trials=50, seed=4
        )
        assert verdict.verdict == "pass"
        assert verdict.counts.losses == verdict.counts.candidates


class TestReproduction:
    def test_reproduce_table1(self):
        report = audit.reproduce_table1()
        assert report.honest_funded == 0
        assert report.misreport_funded == 1
        assert report.max_abs_error < 0.005

    def test_mismatch_raises_with_cell_context(self):
        fixture = json.loads(bundled_path("table1").read_text())
        fixture["reference"]["honest_utilities"] = [0.12, 0.2, 0.09]
        with pytest.raises(ReproductionMismatch, match="honest utility"):
            audit.reproduce_reference(scenario.loads(json.dumps(fixture)))

    def test_threshold_mismatch_names_its_cell(self):
        fixture = json.loads(bundled_path("table1").read_text())
        fixture["reference"]["thresholds"][1][0] = 0.3
        cell = r"threshold\[1\]\[0\]: computed 0.2, reference 0.3, tolerance 0.005"
        with pytest.raises(ReproductionMismatch, match=cell):
            audit.reproduce_reference(scenario.loads(json.dumps(fixture)))

    def test_funded_mismatch_names_its_cell(self):
        fixture = json.loads(bundled_path("table1").read_text())
        fixture["reference"]["misreport_funded"] = 0
        cell = "misreport funded borrower: computed 1, reference 0, tolerance 0"
        with pytest.raises(ReproductionMismatch, match=cell):
            audit.reproduce_reference(scenario.loads(json.dumps(fixture)))
