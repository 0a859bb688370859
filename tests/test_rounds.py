"""Simulator tests: replay, causality, accounting, weight evolution."""

import dataclasses

import numpy as np
import pytest

from lendmech import rounds
from lendmech.aggregation import WeightVector, WeightedLinear
from lendmech.priors import BetaIID, DegenerateAt, UniformIID
from lendmech.rounds import CampaignConfig, RoundLedger, RoundRecord, WorldModel
from lendmech.vcg import VcgInstance
from lendmech.winkler import WinklerInstance


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


class TestCampaign:
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

    def test_weights_causality(self):
        # weights applied in round r must be recomputable from rounds < r
        config = CampaignConfig(
            mechanism="winkler", n=3, m=4, threshold=0.5, world=WORLD, weight_mode="budescu"
        )
        summary, ledger = rounds.campaign(6, config, seed=9)
        for r in range(6):
            prefix = RoundLedger()
            for rec in ledger.records[:r]:
                prefix.append(rec)
            expected = (
                rounds.evolve_weights(prefix, 3).weights if r > 0 else (1 / 3,) * 3
            )
            assert summary.weight_trajectory[r] == pytest.approx(expected, abs=1e-12)
            assert ledger.records[r].weights == pytest.approx(expected, abs=1e-12)

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
