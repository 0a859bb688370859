"""Simulator tests: replay, causality, accounting, weight evolution."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lendmech import rounds
from lendmech.aggregation import BudescuAccumulator, ObservedLoan, WeightVector, WeightedLinear
from lendmech.aggregation import _column_errors, _loan_errors, _mean_errors, column_means
from lendmech.errors import LedgerError
from lendmech.priors import BetaIID, DegenerateAt, ProductGrid, UniformIID
from lendmech.mechanism import Allocation, accounts, left_sum
from lendmech.rounds import CampaignConfig, CampaignSummary, RoundLedger, RoundRecord, WorldModel
from lendmech.scenario import build_campaign_config, load_bundled
from lendmech.vcg import VcgInstance
from lendmech.winkler import WinklerInstance
from rounds_oracle import oracle_round, sample_world, scanned_accounts


def winkler_instance(n=3, m=4, c=0.5, weights=None):
    wv = WeightVector(weights) if weights else WeightVector.equal(n)
    return WinklerInstance(n=n, m=m, threshold=c, aggregator=WeightedLinear(wv))


def vcg_instance(**kwargs):
    defaults = dict(
        n=3, m=4, K=2, reserve_threshold=0.4, weights=(1 / 3,) * 3, tcomp_enabled=True
    )
    defaults.update(kwargs)
    return VcgInstance(**defaults)


WORLD = WorldModel(mixing=(0.9, 0.5, 0.1))


class TestRunRound:
    def test_replay_is_bit_exact(self):
        inst = winkler_instance()
        a = rounds.run_round(inst, WORLD, seed=123, round_id=7, scenario_hash="h")
        b = rounds.run_round(inst, WORLD, seed=123, round_id=7, scenario_hash="h")
        assert a == b
        assert rounds.record_to_json(a) == rounds.record_to_json(b)

    def test_different_seeds_differ(self):
        inst = winkler_instance()
        a = rounds.run_round(inst, WORLD, seed=1)
        b = rounds.run_round(inst, WORLD, seed=2)
        assert a != b

    def test_certain_repayment_world(self):
        world = WorldModel(
            mixing=(1.0, 1.0, 1.0),
            truth_prior=DegenerateAt(((1.0, 1.0, 1.0, 1.0),)),
        )
        record = rounds.run_round(winkler_instance(), world, seed=3)
        assert record.funded_real == (0, 1, 2, 3)
        assert all(o == 1 for _, o in record.outcomes)
        assert record.deficit == pytest.approx(
            sum(v for _, _, v in record.contingent), abs=1e-12
        )

    def test_certain_default_world_funds_nothing_under_reserve(self):
        world = WorldModel(
            mixing=(1.0, 1.0, 1.0),
            truth_prior=DegenerateAt(((0.0, 0.0, 0.0, 0.0),)),
        )
        record = rounds.run_round(vcg_instance(), world, seed=3)
        assert record.funded_real == ()
        assert record.reserves_funded == 2

    def test_deviation_strategy_applied(self):
        inst = winkler_instance()
        zeroed = rounds.run_round(
            inst, WORLD, seed=5, deviation=lambda beliefs: np.zeros_like(beliefs)
        )
        assert zeroed.funded_real == ()

    @pytest.mark.parametrize("inst", [winkler_instance(), vcg_instance()])
    @pytest.mark.parametrize(
        "deviation", [None, lambda b: 1.5 * b - 0.2, lambda b: (1.0 - b).tolist()]
    )
    def test_equals_the_round_played_alone(self, inst, deviation):
        # `run_round` is a campaign of one round: the record, to its bytes,
        # of drawing the outcomes after the allocation. The deviations
        # leave [0, 1], so the clip comes after them.
        for seed in range(6):
            got = rounds.run_round(inst, WORLD, seed, 4, "h", deviation)
            want = oracle_round(inst, WORLD, seed, 4, "h", deviation)
            assert rounds.record_to_json(got) == rounds.record_to_json(want)
            assert got == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(1, 8), st.data())
    def test_a_prefix_of_m_uniforms_is_a_draw_of_k(self, seed, before, m, data):
        # A round draws m outcome uniforms with its world and its k funded
        # borrowers read the first k: on one generator, continued after any
        # earlier draws, those are the k uniforms a draw of k would give.
        k = data.draw(st.integers(0, m))
        ahead, alone = np.random.default_rng(seed), np.random.default_rng(seed)
        ahead.random(before)
        alone.random(before)
        assert ahead.random(out=np.empty(m))[:k].tolist() == alone.random(k).tolist()

    def test_settle_with_the_allocation_equals_settle_alone(self):
        rng = np.random.default_rng(8)
        for inst in (winkler_instance(), vcg_instance()):
            for _ in range(20):
                reports = rng.random((3, 4))
                allocation = inst.allocate(reports)
                outcomes = {q: int(rng.integers(0, 2)) for q in allocation.funded_real}
                assert inst.settle(reports, outcomes, allocation) == inst.settle(reports, outcomes)


def seed_prior(kind: str, rows: int):
    """A rows x 4 prior of each kind, with ties and the ends 0 and 1."""
    if kind == "uniform":
        return UniformIID()
    if kind == "beta":
        return BetaIID(2.0, 0.5)
    if kind == "degenerate":
        return DegenerateAt(((0.25, 1.0, 0.0, 0.5), (0.75, 0.5, 0.5, 0.0))[:rows])
    return ProductGrid((((0.0, 0.25), (0.5,), (0.1, 0.2, 0.9), (1.0, 0.75)),) * rows)


class TestRoundGenerators:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(0)
    @example(2**32 - 1)
    def test_state_is_default_rngs(self, seed):
        (state,) = rounds.pcg64_states([seed])
        assert state == np.random.default_rng(seed).bit_generator.state

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**32 - 1), max_size=40))
    def test_a_stack_of_seeds_is_each_seed_alone(self, seeds):
        # One pass over the stack; numpy integers are seeds too.
        states = rounds.pcg64_states(np.array(seeds, dtype=np.uint32))
        assert states == [np.random.default_rng(seed).bit_generator.state for seed in seeds]

    @pytest.mark.parametrize("seed", [-1, 2**32, 2**64])
    def test_seed_outside_uint32_is_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*32\)"):
            rounds.run_round(winkler_instance(), WORLD, seed=seed)
        with pytest.raises(TypeError):
            rounds.run_round(winkler_instance(), WORLD, seed=1.5)

    @pytest.mark.parametrize("mixing", [True, False])
    @pytest.mark.parametrize("kind", ["uniform", "beta", "degenerate", "grid"])
    def test_stack_draws_are_each_rounds_default_rng_draws(self, kind, mixing):
        # A stack's truths, beliefs and uniforms are, bit for bit, each
        # round's draws from its own `default_rng`: the world first, then
        # one uniform per borrower.
        n, m, seeds = 2, 4, [0, 7, 2**32 - 1, 123, 5, 5]
        truth_prior = seed_prior(kind, 1)
        if mixing:
            world = WorldModel(mixing=(0.75, 0.3), truth_prior=truth_prior)
        else:
            world = WorldModel(truth_prior=truth_prior, belief_prior=seed_prior(kind, n))
        truths, beliefs, uniforms = rounds._draw(world, n, m, seeds)
        for r, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            want_truths, want_beliefs = sample_world(world, n, m, rng)
            assert truths[r].tobytes() == want_truths.tobytes()
            assert beliefs[r].tobytes() == want_beliefs.tobytes()
            assert uniforms[r].tobytes() == rng.random(m).tobytes()


class TestLedger:
    def test_jsonl_round_trip(self, tmp_path):
        inst = vcg_instance()
        ledger = RoundLedger()
        for r in range(3):
            ledger.append(rounds.run_round(inst, WORLD, seed=r, round_id=r))
        path = tmp_path / "ledger.jsonl"
        ledger.write_jsonl(path)
        loaded = RoundLedger.read_jsonl(path)
        assert loaded.records == ledger.records

    def test_history_collects_funded_loans(self):
        record = RoundRecord(
            round_id=0,
            scenario_hash="",
            weights=(0.5, 0.5),
            truths=(0.9,),
            reports=((0.8,), (0.6,)),
            funded_real=(0,),
            reserves_funded=0,
            outcomes=((0, 1),),
            immediate=(0.0, 0.0),
            contingent=(),
            tcomp=None,
            deficit=0.0,
            realized_utilities=(0.0, 0.0),
        )
        ledger = RoundLedger()
        ledger.append(record)
        history = ledger.history(2)
        assert len(history.loans) == 1
        assert history.loans[0].reports == (0.8, 0.6)
        assert history.loans[0].outcome == 1


# A record on the edges the codec must keep: no funded borrower, no rebate,
# a -0.0 deficit and a -inf utility (a boundary report's log score).
EDGE_RECORD = RoundRecord(
    round_id=0,
    scenario_hash="",
    weights=(1.0, 0.0),
    truths=(0.0,),
    reports=((1.0,), (0.0,)),
    funded_real=(),
    reserves_funded=1,
    outcomes=(),
    immediate=(-0.0, 0.0),
    contingent=(),
    tcomp=None,
    deficit=-0.0,
    realized_utilities=(-math.inf, 0.0),
)

UNIT = st.floats(0.0, 1.0)
# Every float a record can carry: JSON has no NaN.
ANY = st.floats(allow_nan=False)


@st.composite
def round_records(draw) -> RoundRecord:
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    funded = tuple(sorted(draw(st.sets(st.integers(0, m - 1)))))
    return RoundRecord(
        round_id=draw(st.integers(0, 10**6)),
        scenario_hash=draw(st.text(max_size=16)),
        weights=tuple(draw(UNIT) for _ in range(n)),
        truths=tuple(draw(UNIT) for _ in range(m)),
        reports=tuple(tuple(draw(UNIT) for _ in range(m)) for _ in range(n)),
        funded_real=funded,
        reserves_funded=draw(st.integers(0, m)),
        outcomes=tuple((q, draw(st.integers(0, 1))) for q in funded),
        immediate=tuple(draw(ANY) for _ in range(n)),
        # sorted by (recommender, borrower), as the writer keeps them
        contingent=tuple((i, q, draw(ANY)) for i in range(n) for q in funded),
        tcomp=draw(st.none() | st.tuples(*[ANY] * n)),
        deficit=draw(ANY),
        realized_utilities=tuple(draw(ANY) for _ in range(n)),
    )


# Schema-1 ledgers of bundled campaigns, written by the codec that listed
# the fields by hand: (scenario, rounds, seed).
SCHEMA_1_LEDGERS = [("campaign-vcg", 4, 1), ("campaign-budescu", 6, 1)]


def ledger_line(**changes) -> str:
    """A valid ledger line with some fields replaced (None: removed)."""
    data = json.loads(rounds.record_to_json(rounds.run_round(vcg_instance(), WORLD, seed=1)))
    data.update(changes)
    return json.dumps({k: v for k, v in data.items() if v is not None})


def repeated(field: str) -> str:
    """A valid ledger line whose list field `field` holds its first entry
    twice."""
    values = json.loads(ledger_line())[field]
    return ledger_line(**{field: values[:1] + values})


class TestLedgerFormat:
    @settings(max_examples=200, deadline=None)
    @given(round_records())
    @example(EDGE_RECORD)
    @example(dataclasses.replace(EDGE_RECORD, tcomp=(0.25, -0.0)))
    def test_record_round_trips(self, record):
        line = rounds.record_to_json(record)
        assert rounds.record_from_json(line) == record
        # Equality cannot see the sign of a zero; the bytes can.
        assert rounds.record_to_json(rounds.record_from_json(line)) == line

    def test_json_keys_are_the_record_fields(self):
        keys = json.loads(rounds.record_to_json(EDGE_RECORD))
        assert list(keys) == sorted(f.name for f in dataclasses.fields(RoundRecord))

    @pytest.mark.parametrize("name, n_rounds, seed", SCHEMA_1_LEDGERS)
    def test_schema_1_ledger_reads_back_and_rewrites_its_bytes(
        self, name, n_rounds, seed, tmp_path
    ):
        path = Path(__file__).parent / "data" / f"ledger-{name}-s{seed}-r{n_rounds}.jsonl"
        loaded = RoundLedger.read_jsonl(path)
        _, fresh = rounds.campaign(n_rounds, build_campaign_config(load_bundled(name)), seed)
        assert loaded.records == fresh.records
        loaded.write_jsonl(tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", "line 2: expected a JSON object, got list"),
            (ledger_line(schema=2), "line 2: field 'schema': unsupported version 2"),
            (ledger_line(deficit=None), "line 2: field 'deficit': required"),
            (ledger_line(seed=7), "line 2: field 'seed': unknown field"),
            (ledger_line(weights=0.5), "line 2: field 'weights': expected a list"),
            (ledger_line(truths=[]), "line 2: field 'truths': expected a list"),
            (
                ledger_line(reports=[[0.5, 2.0]] * 3),
                "line 2: field 'reports': expected 3 rows of 4 numbers",
            ),
            (
                ledger_line(reports=[[0.5] * 4, [0.5], [0.5] * 4]),
                "line 2: field 'reports': expected 3 rows of 4 numbers",
            ),
            # Numeric strings and booleans are not numbers, though a float
            # conversion would take them.
            (
                ledger_line(reports=[["0.5"] * 4] * 3),
                "line 2: field 'reports': expected a number, got '0.5'",
            ),
            (
                ledger_line(weights=[True, False, False]),
                "line 2: field 'weights': expected a number, got True",
            ),
            (
                ledger_line(truths=["0.5"] * 4),
                "line 2: field 'truths': expected a number, got '0.5'",
            ),
            (ledger_line(outcomes=[[1, True], [3, 1]]), "line 2: field 'outcomes': expected"),
            (ledger_line(schema=True), "line 2: field 'schema': expected an integer, got True"),
            (ledger_line(funded_real=[9]), "line 2: field 'funded_real': must be <= 3, got 9"),
            (ledger_line(outcomes=[]), "line 2: field 'outcomes': no outcome supplied"),
            (ledger_line(deficit="abc"), "line 2: field 'deficit': expected a number"),
            (ledger_line(deficit=10**400), "line 2: field 'deficit': expected a number, got 1000"),
            (ledger_line(tcomp=5), "line 2: field 'tcomp': expected a list of 3 numbers"),
            (ledger_line(round_id=-1), "line 2: field 'round_id': must be >= 0, got -1"),
            (ledger_line(reserves_funded=True), "line 2: field 'reserves_funded': expected"),
            (ledger_line(scenario_hash=3), "line 2: field 'scenario_hash': expected a string"),
            (ledger_line(immediate=[0.0]), "line 2: field 'immediate': expected a list of 3"),
            (
                ledger_line(realized_utilities=[0.0, float("nan"), 0.0]),
                "line 2: field 'realized_utilities': expected a number, got nan",
            ),
            (ledger_line(contingent=[[0, 9, 1.0]]), "line 2: field 'contingent': expected"),
            # The order the writer keeps: a borrower, an outcome or a
            # contingent payment listed twice, or out of order, is an error.
            (repeated("funded_real"), "line 2: field 'funded_real': borrowers must be strictly"),
            (
                ledger_line(funded_real=[3, 1], outcomes=[[3, 1], [1, 1]]),
                "line 2: field 'funded_real': borrowers must be strictly ascending, got [3, 1]",
            ),
            (repeated("outcomes"), "line 2: field 'outcomes': expected one outcome per funded"),
            (
                ledger_line(outcomes=[[3, 1], [1, 1]]),
                "line 2: field 'outcomes': expected one outcome per funded borrower",
            ),
            (repeated("contingent"), "line 2: field 'contingent': expected (recommender, funded"),
            (
                ledger_line(contingent=[[1, 1, 0.5], [0, 1, 0.5]]),
                "line 2: field 'contingent': expected (recommender, funded borrower) keys strictly",
            ),
            # A scalar where a list belongs.
            (ledger_line(funded_real=1), "line 2: field 'funded_real': expected a list of"),
            (ledger_line(outcomes=1), "line 2: field 'outcomes': expected [borrower, outcome]"),
            (ledger_line(contingent=1), "line 2: field 'contingent': expected [recommender,"),
            # A pair of the wrong length.
            (ledger_line(outcomes=[[1, 1, 0], [3, 1]]), "line 2: field 'outcomes': expected ["),
        ],
    )
    def test_bad_line_names_path_line_and_field(self, line, message, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(ledger_line() + "\n" + line + "\n")
        with pytest.raises(LedgerError) as err:
            RoundLedger.read_jsonl(path)
        assert str(err.value).startswith(f"{path}: {message}")


class TestEvolveWeights:
    def test_single_observed_loan_worked_example(self):
        ledger = RoundLedger()
        ledger.append(
            RoundRecord(
                round_id=0,
                scenario_hash="",
                weights=(0.5, 0.5),
                truths=(0.9,),
                reports=((0.8,), (0.6,)),
                funded_real=(0,),
                reserves_funded=0,
                outcomes=((0, 1),),
                immediate=(0.0, 0.0),
                contingent=(),
                tcomp=None,
                deficit=0.0,
                realized_utilities=(0.0, 0.0),
            )
        )
        assert rounds.evolve_weights(ledger, 2).weights == (1.0, 0.0)

    def test_empty_ledger_falls_back_to_equal(self):
        assert rounds.evolve_weights(RoundLedger(), 3).weights == (1 / 3,) * 3


def loan_record(reports, outcomes, round_id=0) -> RoundRecord:
    """A round funding exactly the borrowers in `outcomes` ({q: outcome});
    only the fields the weights read carry information."""
    n, m = len(reports), len(reports[0])
    return RoundRecord(
        round_id=round_id,
        scenario_hash="",
        weights=(1 / n,) * n,
        truths=(0.5,) * m,
        reports=reports,
        funded_real=tuple(sorted(outcomes)),
        reserves_funded=0,
        outcomes=tuple(sorted(outcomes.items())),
        immediate=(0.0,) * n,
        contingent=(),
        tcomp=None,
        deficit=0.0,
        realized_utilities=(0.0,) * n,
    )


# A coarse grid makes ties between reports, and between contributions, common.
GRID = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
EIGHTHS = st.sampled_from([k / 8 for k in range(9)])


@st.composite
def weight_histories(draw):
    """(n, records, window): rounds with grid or arbitrary reports, possibly
    identical rows (every contribution 0) and rounds that fund nobody; the
    window runs from 1 to one past the number of funded loans."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = GRID | UNIT
    identical_rows = draw(st.booleans())
    records = []
    for r in range(draw(st.integers(0, 6))):
        rows = [tuple(draw(values) for _ in range(m)) for _ in range(1 if identical_rows else n)]
        reports = tuple(rows * n) if identical_rows else tuple(rows)
        funded = draw(st.sets(st.integers(0, m - 1)))
        records.append(loan_record(reports, {q: draw(st.integers(0, 1)) for q in funded}, r))
    loans = sum(len(record.funded_real) for record in records)
    return n, records, draw(st.none() | st.integers(1, loans + 1))


class TestBudescuAccumulator:
    @settings(max_examples=400, deadline=None)
    @given(weight_histories())
    # One recommender: leaving them out leaves no report, so equal weights.
    @example((1, [loan_record(((0.8, 0.3),), {0: 1, 1: 0})], None))
    # Identical rows: nobody contributes, so equal weights.
    @example((2, [loan_record(((0.9,), (0.9,)), {0: 1})] * 3, 2))
    # A round funding nobody between two that fund.
    @example((2, [
        loan_record(((0.8,), (0.6,)), {0: 1}), loan_record(((0.8,), (0.6,)), {}),
        loan_record(((0.2,), (0.7,)), {0: 0}),
    ], 1))
    def test_equals_evolve_weights_on_every_prefix(self, history):
        n, records, window = history
        scores, prefix = BudescuAccumulator(n, window), RoundLedger()
        for record in records:
            assert scores.weights() == rounds.evolve_weights(prefix, n, window)
            scores.add(rounds.funded_loans(record, n))
            prefix.append(record)
        assert scores.weights() == rounds.evolve_weights(prefix, n, window)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(st.lists(EIGHTHS, min_size=n, max_size=n), st.integers(0, 1)),
        min_size=1, max_size=12,
    )), st.none() | st.integers(1, 5))
    def test_a_column_is_scored_as_its_loan(self, loans, window):
        # The campaign feeds the accumulator a column's means and an
        # outcome; each loan's error row is `_loan_errors` of the same loan
        # as an `ObservedLoan`, and the weights follow, with a window too.
        n = len(loans[0][0])
        by_column, by_loan = BudescuAccumulator(n, window), BudescuAccumulator(n, window)
        for column, outcome in loans:
            loan = ObservedLoan(reports=tuple(column), outcome=outcome)
            assert _column_errors(column, outcome) == _loan_errors(loan)
            by_column.add_means(column_means(np.array([column]).T)[0].tolist(), outcome)
            by_loan.add([loan])
            assert by_column.weights() == by_loan.weights()

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 4)).flatmap(
            lambda shape: st.lists(
                EIGHTHS | UNIT, min_size=shape[0] * shape[1] * shape[2],
                max_size=shape[0] * shape[1] * shape[2],
            ).map(lambda values: np.reshape(values, shape))
        ),
        st.integers(0, 1),
    )
    def test_stack_means_give_each_columns_errors(self, reports, outcome):
        # A campaign computes every column's means for its whole stack at
        # once; each column's errors from them are `_column_errors` of the
        # column, bit for bit, one recommender included.
        n_rounds, n, m = reports.shape
        means = column_means(reports)
        assert means.shape == (n_rounds, m, n + 1 if n > 1 else 1)
        for r in range(n_rounds):
            for q in range(m):
                column = reports[r, :, q].tolist()
                want = _column_errors(column, outcome)
                assert _mean_errors(means[r, q].tolist(), outcome, n) == want

    def test_squares_as_python_does_where_numpy_would_not(self):
        # Python's `**` is libm's pow(x, 2), which on some platforms rounds
        # differently from x * x, numpy's square. Search random columns for
        # means on which the two differ on this platform: on those, the
        # stack-wide path must still give `_column_errors`' values, and
        # squaring the means as one array would not.
        rng = np.random.default_rng(2015)
        found = []
        for n in (2, 3, 4):
            reports = rng.random((4000, n, 1))
            outcomes = rng.integers(0, 2, len(reports)).tolist()
            rows = column_means(reports)[:, 0].tolist()
            for column, row, o in zip(reports[:, :, 0].tolist(), rows, outcomes):
                if any((o - mean) ** 2 != (o - mean) * (o - mean) for mean in row):
                    found.append((column, row, o))
        if not found:
            pytest.skip("pow(x, 2) rounds as x * x on every mean searched on this platform")
        vectorized = []
        for column, row, o in found:
            want = _column_errors(column, o)
            assert _mean_errors(row, o, len(column)) == want
            squares = (o - np.array(row)) ** 2 + ((1 - o) - (1 - np.array(row))) ** 2
            vectorized.append(tuple(squares.tolist()) == want)
        assert not all(vectorized)

    @pytest.mark.parametrize("window", [0, -3])
    def test_rejects_non_positive_window(self, window):
        with pytest.raises(ValueError, match="window size must be >= 1"):
            BudescuAccumulator(2, window)


class TestConfigHash:
    BASE = CampaignConfig(
        mechanism="winkler", n=3, m=4, threshold=0.5, world=WORLD, weight_mode="budescu"
    )

    def test_same_config_same_hash(self):
        again = dataclasses.replace(self.BASE, world=WorldModel(mixing=(0.9, 0.5, 0.1)))
        assert rounds.config_hash(again, 1, 0) == rounds.config_hash(self.BASE, 1, 0)

    @pytest.mark.parametrize(
        "change",
        [
            {"world": WorldModel(mixing=(0.9, 0.5, 0.2))},
            {"world": WorldModel(mixing=(0.9, 0.5, 0.1), truth_prior=BetaIID(2.0, 2.0))},
            {"world": WorldModel(belief_prior=UniformIID())},
            {"initial_weights": (0.5, 0.25, 0.25)},
            {"history_window": 10},
        ],
    )
    def test_each_field_changes_hash(self, change):
        changed = dataclasses.replace(self.BASE, **change)
        assert rounds.config_hash(changed, 1, 0) != rounds.config_hash(self.BASE, 1, 0)

    def test_seed_and_round_change_hash(self):
        h = rounds.config_hash(self.BASE, 1, 0)
        assert rounds.config_hash(self.BASE, 2, 0) != h
        assert rounds.config_hash(self.BASE, 1, 1) != h

    def test_ledger_carries_the_hash(self):
        _, ledger = rounds.campaign(2, self.BASE, seed=4)
        assert [r.scenario_hash for r in ledger.records] == [
            rounds.config_hash(self.BASE, 4, r) for r in range(2)
        ]


def written(ledger: RoundLedger) -> bytes:
    """The bytes `ledger.write_jsonl` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.jsonl"
        ledger.write_jsonl(path)
        return path.read_bytes()


def jsonl(records) -> bytes:
    """The ledger file of `records`: each one's `record_to_json` line."""
    return "".join(rounds.record_to_json(record) + "\n" for record in records).encode()


def per_round_campaign(n_rounds, config, seed):
    """`rounds.campaign` as a loop of the oracle's rounds, each drawn,
    allocated and settled alone under the weights `rounds.evolve_weights`
    gives from the rounds before it, every past loan scored afresh: no
    `BudescuAccumulator`, which the campaign keeps."""
    round_seeds = np.random.SeedSequence(seed).generate_state(n_rounds)
    weights = (
        WeightVector(config.initial_weights)
        if config.initial_weights is not None
        else WeightVector.equal(config.n)
    )
    budescu = config.weight_mode == "budescu"
    hashes = rounds.round_hashes(config, seed)
    records, played = [], RoundLedger()
    for r in range(n_rounds):
        if budescu and r > 0:
            weights = rounds.evolve_weights(played, config.n, config.history_window)
        inst = rounds.build_instance(
            config.mechanism, config.n, config.m, config.threshold, weights.weights,
            config.K, config.alpha, config.tcomp_enabled,
        )
        records.append(oracle_round(inst, config.world, int(round_seeds[r]), r, hashes(r)))
        played.append(records[-1])
    if budescu:
        weights = rounds.evolve_weights(played, config.n, config.history_window)
    funded = sum(len(rec.funded_real) for rec in records)
    repaid = sum(o for rec in records for _, o in rec.outcomes)
    summary = CampaignSummary(
        rounds=n_rounds,
        funded=funded,
        repaid=repaid,
        repayment_rate=repaid / funded if funded else float("nan"),
        base_rate=left_sum(left_sum(rec.truths) for rec in records) / (n_rounds * config.m),
        cumulative_deficit=left_sum(rec.deficit for rec in records),
        recommender_utilities=tuple(
            left_sum(column) for column in zip(*(rec.realized_utilities for rec in records))
        ),
        weight_trajectory=tuple(rec.weights for rec in records),
        final_weights=weights.weights,
    )
    return summary, records


QUARTER = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


def world_priors(draw, rows: int, m: int):
    """A rows x m prior of any kind: uniform, beta, degenerate (on the
    quarter grid, so rows and borrowers tie) or a product grid."""
    kind = draw(st.sampled_from(["uniform", "beta", "degenerate", "grid"]))
    if kind == "uniform":
        return UniformIID()
    if kind == "beta":
        return BetaIID(draw(st.sampled_from([0.5, 2.0])), draw(st.sampled_from([0.5, 3.0])))
    if kind == "degenerate":
        return DegenerateAt(tuple(tuple(draw(QUARTER) for _ in range(m)) for _ in range(rows)))
    cell = st.lists(QUARTER | UNIT, min_size=1, max_size=3).map(tuple)
    return ProductGrid(tuple(tuple(draw(cell) for _ in range(m)) for _ in range(rows)))


@st.composite
def campaign_cases(draw):
    """(rounds, config, seed): either mechanism, n from 1 to 4, m from 1 to 8;
    VCG with K from 1 to m and c on a grid with 0, Winkler with or without
    a cap from 1 to m; fixed or Budescu weights (a window of 7 or none),
    equal or drawn, zeros and non-dyadic shares included; a world with
    `mixing` over any truth prior, or beliefs from any prior."""
    mechanism = draw(st.sampled_from(["winkler", "vcg"]))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    if mechanism == "vcg":
        K, c = draw(st.integers(1, m)), draw(st.sampled_from([0.0, 0.25, 0.4, 0.5]))
    else:
        K, c = draw(st.none() | st.integers(1, m)), draw(st.sampled_from([0.25, 0.4, 0.5, 0.7]))
    truth_prior = world_priors(draw, 1, m)
    if draw(st.booleans()):
        world = WorldModel(mixing=tuple(draw(QUARTER | UNIT) for _ in range(n)),
                           truth_prior=truth_prior)
    else:
        world = WorldModel(truth_prior=truth_prior, belief_prior=world_priors(draw, n, m))
    shares = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    shares[draw(st.integers(0, n - 1))] += 1  # not every share 0
    config = CampaignConfig(
        mechanism, n, m, c, world, K=K,
        alpha=draw(st.sampled_from([1.0, 0.7])),
        tcomp_enabled=draw(st.booleans()),
        weight_mode=draw(st.sampled_from(["fixed", "budescu"])),
        initial_weights=draw(st.none() | st.just(tuple(k / sum(shares) for k in shares))),
        history_window=draw(st.sampled_from([None, 7])),
    )
    return draw(st.integers(1, 6)), config, draw(st.integers(0, 2**32 - 1))


# Every truth is 0 and every belief the truth, so no real borrower's score
# clears c: Winkler funds nobody, VCG only reserves.
NOBODY = WorldModel(mixing=(1.0, 1.0), truth_prior=DegenerateAt(((0.0, 0.0, 0.0),)))

# Recommender 0 reports 1 on a borrower who always defaults: its log score
# is -inf, which the ledger writes as JSON's -Infinity.
BOUNDARY = WorldModel(
    truth_prior=DegenerateAt(((0.0,),)), belief_prior=DegenerateAt(((1.0,), (0.0,)))
)

VCG_WORLD = WorldModel(mixing=(0.8, 0.6, 0.4))
SETTLED_TOGETHER = {
    "winkler fixed": CampaignConfig("winkler", 3, 6, 0.5, WORLD),
    "winkler budescu": CampaignConfig("winkler", 3, 6, 0.5, WORLD, weight_mode="budescu"),
    "winkler budescu window 7": CampaignConfig(
        "winkler", 3, 6, 0.5, WORLD, weight_mode="budescu", history_window=7
    ),
    "winkler capped budescu": CampaignConfig(
        "winkler", 3, 6, 0.5, WORLD, K=2, weight_mode="budescu"
    ),
    "vcg fixed rebates": CampaignConfig("vcg", 3, 8, 0.4, VCG_WORLD, K=3, tcomp_enabled=True),
    "vcg fixed no rebates": CampaignConfig("vcg", 3, 8, 0.4, VCG_WORLD, K=3),
    "vcg budescu rebates": CampaignConfig(
        "vcg", 3, 8, 0.4, VCG_WORLD, K=3, tcomp_enabled=True, weight_mode="budescu"
    ),
    "vcg budescu window 7 no rebates": CampaignConfig(
        "vcg", 3, 8, 0.4, VCG_WORLD, K=3, alpha=0.7, weight_mode="budescu", history_window=7
    ),
    "vcg c = 0 budescu rebates": CampaignConfig(
        "vcg", 3, 8, 0.0, VCG_WORLD, K=3, tcomp_enabled=True, weight_mode="budescu"
    ),
}


# (mechanism, n, m, K, rebates): both mechanisms, rebates on and off, a
# capped Winkler and n = 1.
STACKS = [
    ("winkler", 3, 4, None, False),
    ("winkler", 3, 4, 2, False),
    ("winkler", 1, 3, None, False),
    ("vcg", 3, 5, 2, True),
    ("vcg", 3, 5, 3, False),
    ("vcg", 1, 3, 2, True),
]


@st.composite
def settled_stacks(draw):
    """A settled stack of 1 to 8 rounds on one instance: Winkler uncapped
    or capped, or VCG with or without rebates; n from 1 to 4, m from 1 to
    5; each round under its own weight row, zero weights included;
    quarter-grid or arbitrary reports, so borrowers tie with each other and
    with c; and, when drawn, a last round of zero reports, which funds no
    real borrower."""
    mechanism = draw(st.sampled_from(["winkler", "vcg"]))
    n, m, n_rounds = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 8))
    K = draw(st.integers(1, m)) if mechanism == "vcg" else draw(st.none() | st.integers(1, m))
    rebates, c = draw(st.booleans()), draw(st.sampled_from([0.25, 0.4, 0.5]))
    rows = []
    for _ in range(n_rounds):
        shares = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        shares[draw(st.integers(0, n - 1))] += 1  # not every share 0
        rows.append([k / sum(shares) for k in shares])
    weights = np.array(rows)
    values = st.lists(QUARTER | UNIT, min_size=n_rounds * n * m, max_size=n_rounds * n * m)
    reports = np.array(draw(values)).reshape(n_rounds, n, m)
    if draw(st.booleans()):
        reports[-1] = 0.0
    inst = rounds.build_instance(mechanism, n, m, c, tuple(rows[0]), K, 0.7, rebates)
    allocations = inst.allocate_rounds(weights, reports)
    outcomes = [{q: draw(st.integers(0, 1)) for q in alloc.funded_real} for alloc in allocations]
    return inst.settle_rounds(weights, reports, outcomes, allocations)


class TestStackedSettlement:
    @settings(max_examples=200, deadline=None)
    @given(settled_stacks())
    def test_stack_accounts_equal_each_rounds_accounts(self, payments):
        # Every round's utilities and deficit, summed for the whole stack at
        # once, are `mechanism.accounts` of its own cells, in its
        # mechanism's order, to the bit (the reprs show a zero's sign).
        utilities, deficits = payments.accounts()
        assert utilities.shape == payments.immediate.shape
        for r, (_, cells, immediate, tcomp) in enumerate(payments.rounds()):
            want = accounts(cells, immediate, tcomp)
            assert repr((tuple(utilities[r].tolist()), deficits[r].item())) == repr(want)

    @pytest.mark.parametrize("mechanism, n, m, K, rebates", STACKS)
    def test_accounts_equal_the_scanned_oracle(self, mechanism, n, m, K, rebates):
        # Each record of a settled stack, built from its arrays, carries the
        # utilities and deficit that scanning its round's own `settle`
        # gives, to the bytes of its ledger line (the sign of a zero
        # counts). Rounds take turns at weight rows with a zero weight and
        # non-dyadic ones; quarter-grid reports tie borrowers with each
        # other and with c, and the last round's zero reports fund no real
        # borrower.
        rng = np.random.default_rng(31)
        rows = [(1.0,)] if n == 1 else [(0.0, 0.5, 0.5), (0.1, 0.3, 0.6), (1 / 3,) * 3]
        weights = np.array([rows[r % len(rows)] for r in range(12)])
        reports = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(12, n, m))
        reports[-1] = 0.0
        insts = [
            rounds.build_instance(mechanism, n, m, 0.5, tuple(row), K, 0.7, rebates)
            for row in weights.tolist()
        ]
        allocations = [inst.allocate(matrix) for inst, matrix in zip(insts, reports)]
        outcomes = [
            {q: int(rng.integers(0, 2)) for q in alloc.funded_real} for alloc in allocations
        ]
        assert any(outcomes) and not outcomes[-1]
        records = rounds._records(
            insts[0], weights, np.zeros((12, m)).tolist(), reports, allocations, outcomes,
            range(12), [""] * 12,
        )
        for inst, matrix, alloc, realized, record in zip(
            insts, reports, allocations, outcomes, records
        ):
            settlement = inst.settle(matrix, realized, alloc)
            # Winkler's payments are listed borrower by borrower, VCG's
            # recommender by recommender, and summed in that order.
            by_borrower = [(i, q) for q in alloc.funded_real for i in range(n)]
            assert list(settlement.contingent) == (
                sorted(by_borrower) if mechanism == "vcg" else by_borrower
            )
            utilities, deficit = scanned_accounts(settlement, n)
            want = dataclasses.replace(
                record,
                immediate=settlement.immediate,
                contingent=tuple(sorted((i, q, v) for (i, q), v in settlement.contingent.items())),
                tcomp=settlement.tcomp,
                realized_utilities=utilities,
                deficit=deficit,
            )
            assert rounds.record_to_json(record) == rounds.record_to_json(want)
            assert (record.tcomp is not None) == rebates


class TestCampaign:
    @pytest.mark.parametrize("name", SETTLED_TOGETHER)
    def test_rounds_settled_together_equal_the_per_round_loop(self, name):
        # A campaign draws its worlds up front and allocates and settles in
        # stacks; its written ledger, records and summary are those of
        # playing and settling each round alone, to the bytes of every line.
        config = SETTLED_TOGETHER[name]
        summary, ledger = rounds.campaign(30, config, seed=3)
        want_summary, want_records = per_round_campaign(30, config, seed=3)
        assert written(ledger) == jsonl(want_records)
        assert ledger.records == tuple(want_records)
        lines = [rounds.record_to_json(record) for record in ledger.records]
        assert lines == [rounds.record_to_json(record) for record in want_records]
        assert summary == want_summary
        if config.weight_mode == "budescu":
            assert len(set(summary.weight_trajectory)) > 1  # the weights moved

    @settings(max_examples=150, deadline=None)
    @given(campaign_cases())
    @example((3, CampaignConfig("winkler", 2, 3, 0.4, NOBODY, weight_mode="budescu"), 1))
    @example((3, CampaignConfig("vcg", 2, 3, 0.4, NOBODY, K=2, tcomp_enabled=True), 1))
    @example((3, CampaignConfig("winkler", 2, 1, 0.4, BOUNDARY, weight_mode="budescu"), 1))
    @example(
        (4, CampaignConfig("vcg", 3, 8, 0.0, VCG_WORLD, K=8, tcomp_enabled=True,
                           weight_mode="budescu", history_window=7), 2)
    )
    def test_equals_the_oracle_loop(self, case):
        # Drawing every world up front, allocating fixed-weight rounds in
        # one call and rendering the ledger from the stacked arrays gives
        # the file, records, ledger lines and summary of playing each round
        # alone.
        n_rounds, config, seed = case
        summary, ledger = rounds.campaign(n_rounds, config, seed)
        want_summary, want_records = per_round_campaign(n_rounds, config, seed)
        assert written(ledger) == jsonl(want_records)
        assert ledger.records == tuple(want_records)
        lines = [rounds.record_to_json(record) for record in ledger.records]
        assert lines == [rounds.record_to_json(record) for record in want_records]
        # A campaign that funds nobody has a NaN repayment rate, which `==`
        # does not equal; the reprs are the floats' exact digits.
        assert repr(summary) == repr(want_summary)

    @pytest.mark.parametrize("mechanism, K", [("winkler", None), ("winkler", 2), ("vcg", 2)])
    @pytest.mark.parametrize("tied", [False, True])
    def test_budescu_rounds_allocate_as_allocate(self, mechanism, K, tied):
        # A Budescu round is allocated by `select` of one `linear_scores`
        # call; each is `inst.allocate` of the round's reports under the
        # round's weights. Quarter-grid beliefs tie reports and scores.
        world = WORLD
        if tied:
            quarters = tuple(tuple((0.0, 0.25, 0.5, 0.75, 1.0) for _ in range(6)) for _ in range(3))
            world = WorldModel(belief_prior=ProductGrid(quarters))
        config = CampaignConfig(mechanism, 3, 6, 0.5, world, K=K, weight_mode="budescu")
        _, ledger = rounds.campaign(60, config, seed=5)
        assert len({record.weights for record in ledger.records}) > 1
        for record in ledger.records:
            inst = rounds.build_instance(mechanism, 3, 6, 0.5, record.weights, K)
            real = tuple(int(q in record.funded_real) for q in range(6))
            assert inst.allocate(np.array(record.reports)) == Allocation(real, record.reserves_funded)

    def test_deterministic(self):
        config = CampaignConfig(
            mechanism="winkler", n=3, m=4, threshold=0.5, world=WORLD, weight_mode="budescu"
        )
        a = rounds.campaign(10, config, seed=2)[0]
        b = rounds.campaign(10, config, seed=2)[0]
        assert a == b

    def test_deficit_identity(self):
        config = CampaignConfig(
            mechanism="vcg", n=3, m=4, K=2, threshold=0.4, world=WORLD, tcomp_enabled=True
        )
        summary, ledger = rounds.campaign(8, config, seed=4)
        assert summary.cumulative_deficit == pytest.approx(
            sum(rec.deficit for rec in ledger.records), abs=1e-12
        )

    def test_single_round_summary_matches_record(self):
        config = CampaignConfig(
            mechanism="vcg", n=3, m=4, K=2, threshold=0.4, world=WORLD
        )
        summary, ledger = rounds.campaign(1, config, seed=6)
        record = ledger.records[0]
        assert summary.funded == len(record.funded_real)
        assert summary.cumulative_deficit == pytest.approx(record.deficit, abs=1e-12)
        assert summary.recommender_utilities == pytest.approx(record.realized_utilities)

    @pytest.mark.parametrize("window", [None, 2])
    def test_weights_causality(self, window):
        # weights applied in round r must be recomputable, bit for bit, from rounds < r
        config = CampaignConfig(
            mechanism="winkler", n=3, m=4, threshold=0.5, world=WORLD, weight_mode="budescu",
            history_window=window,
        )
        summary, ledger = rounds.campaign(6, config, seed=9)
        for r in range(6):
            prefix = RoundLedger()
            for rec in ledger.records[:r]:
                prefix.append(rec)
            expected = (
                rounds.evolve_weights(prefix, 3, window).weights if r > 0 else (1 / 3,) * 3
            )
            assert summary.weight_trajectory[r] == expected
            assert ledger.records[r].weights == expected
        assert summary.final_weights == rounds.evolve_weights(ledger, 3, window).weights

    def test_halving_alpha_halves_deficit_and_keeps_allocations(self):
        base = CampaignConfig(
            mechanism="vcg", n=3, m=4, K=2, threshold=0.4, world=WORLD,
            alpha=1.0, tcomp_enabled=True,
        )
        half = dataclasses.replace(base, alpha=0.5)
        s1, l1 = rounds.campaign(6, base, seed=11)
        s2, l2 = rounds.campaign(6, half, seed=11)
        assert s2.cumulative_deficit == 0.5 * s1.cumulative_deficit
        for r1, r2 in zip(l1.records, l2.records):
            assert r1.funded_real == r2.funded_real
            assert r1.outcomes == r2.outcomes

    def test_strong_ir_campaign_never_negative(self):
        config = CampaignConfig(
            mechanism="vcg", n=3, m=5, K=3, threshold=0.3, world=WORLD,
            tcomp_enabled=True,
        )
        _, ledger = rounds.campaign(12, config, seed=13)
        for record in ledger.records:
            assert all(u >= -1e-9 for u in record.realized_utilities)

    def test_winkler_cap_limits_funding_per_round(self):
        config = CampaignConfig(
            mechanism="winkler", n=3, m=4, threshold=0.5, world=WORLD, K=1
        )
        _, ledger = rounds.campaign(20, config, seed=5)
        funded = [len(record.funded_real) for record in ledger.records]
        assert max(funded) == 1

    def test_budescu_campaign_rewards_informed_recommender(self):
        config = CampaignConfig(
            mechanism="winkler", n=3, m=6, threshold=0.5,
            world=WorldModel(mixing=(0.9, 0.5, 0.1)), weight_mode="budescu",
        )
        wins = 0
        for seed in range(10):
            summary, _ = rounds.campaign(50, config, seed=seed)
            if int(np.argmax(summary.final_weights)) == 0:
                wins += 1
        assert wins >= 9

    def test_selection_effect_beats_base_rate(self):
        config = CampaignConfig(
            mechanism="winkler", n=3, m=6, threshold=0.7,
            world=WorldModel(mixing=(0.9, 0.8, 0.8)),
        )
        summary, _ = rounds.campaign(60, config, seed=21)
        assert summary.funded > 0
        assert summary.repayment_rate > summary.base_rate
