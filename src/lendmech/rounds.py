"""Multi-round lending simulator with an append-only, replayable ledger.

Each round samples fresh borrowers' true repayment probabilities, derives
recommender beliefs through a per-recommender signal model, runs the
configured mechanism, samples repayments for funded borrowers, settles,
and appends one record. Weights used in round r come only from rounds
before r; with outcome-adaptive weighting they are recomputed from the
accumulated funded-loan history each round.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .aggregation import (
    ObservedLoan,
    RoundHistory,
    WeightVector,
    WeightedLinear,
    budescu_weights,
)
from .errors import AllNonPositiveContribution, EmptyHistory
from .mechanism import Instance, deficit
from .priors import PriorSpec, UniformIID, sample_profiles
from .vcg import VcgInstance
from .winkler import WinklerInstance

LEDGER_SCHEMA = 1


@dataclass(frozen=True)
class WorldModel:
    """Generative model behind simulated rounds.

    True repayment probabilities are drawn per borrower from `truth_prior`
    (a 1 x m profile prior; degenerate priors give fixed truths). With
    `mixing` set, recommender i's belief on borrower q is
    mixing[i] * truth_q + (1 - mixing[i]) * independent uniform noise, so
    high-mixing recommenders are better informed. Without it, beliefs come
    straight from `belief_prior` and ignore the truth.
    """

    mixing: Optional[tuple[float, ...]] = None
    truth_prior: PriorSpec = field(default_factory=UniformIID)
    belief_prior: Optional[PriorSpec] = None

    def __post_init__(self) -> None:
        if self.mixing is not None:
            for lam in self.mixing:
                if not 0.0 <= lam <= 1.0:
                    raise ValueError(f"mixing coefficients must lie in [0, 1], got {lam}")
        if self.mixing is None and self.belief_prior is None:
            raise ValueError("need either a signal model (mixing) or a belief prior")


def sample_world(
    world: WorldModel, n: int, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (truths, beliefs) for one round."""
    truths = sample_profiles(world.truth_prior, 1, m, 1, rng)[0, 0, :]
    if world.mixing is not None:
        if len(world.mixing) != n:
            raise ValueError(f"need {n} mixing coefficients, got {len(world.mixing)}")
        lam = np.asarray(world.mixing)[:, np.newaxis]
        noise = rng.random((n, m))
        beliefs = lam * truths[np.newaxis, :] + (1.0 - lam) * noise
    else:
        beliefs = sample_profiles(world.belief_prior, n, m, 1, rng)[0]
    return truths, beliefs


@dataclass(frozen=True)
class RoundRecord:
    round_id: int
    scenario_hash: str
    weights: tuple[float, ...]
    truths: tuple[float, ...]
    reports: tuple[tuple[float, ...], ...]
    funded_real: tuple[int, ...]
    reserves_funded: int
    outcomes: tuple[tuple[int, int], ...]  # (borrower, outcome), sorted
    immediate: tuple[float, ...]
    contingent: tuple[tuple[int, int, float], ...]  # (recommender, borrower, paid)
    tcomp: Optional[tuple[float, ...]]
    deficit: float
    realized_utilities: tuple[float, ...]
    schema: int = LEDGER_SCHEMA


def record_to_json(record: RoundRecord) -> str:
    payload = {
        "schema": record.schema,
        "round_id": record.round_id,
        "scenario_hash": record.scenario_hash,
        "weights": list(record.weights),
        "truths": list(record.truths),
        "reports": [list(row) for row in record.reports],
        "funded_real": list(record.funded_real),
        "reserves_funded": record.reserves_funded,
        "outcomes": [list(pair) for pair in record.outcomes],
        "immediate": list(record.immediate),
        "contingent": [list(entry) for entry in record.contingent],
        "tcomp": list(record.tcomp) if record.tcomp is not None else None,
        "deficit": record.deficit,
        "realized_utilities": list(record.realized_utilities),
    }
    return json.dumps(payload, sort_keys=True)


def record_from_json(line: str) -> RoundRecord:
    data = json.loads(line)
    return RoundRecord(
        round_id=int(data["round_id"]),
        scenario_hash=data["scenario_hash"],
        weights=tuple(data["weights"]),
        truths=tuple(data["truths"]),
        reports=tuple(tuple(row) for row in data["reports"]),
        funded_real=tuple(int(q) for q in data["funded_real"]),
        reserves_funded=int(data["reserves_funded"]),
        outcomes=tuple((int(q), int(o)) for q, o in data["outcomes"]),
        immediate=tuple(data["immediate"]),
        contingent=tuple((int(i), int(q), float(v)) for i, q, v in data["contingent"]),
        tcomp=tuple(data["tcomp"]) if data["tcomp"] is not None else None,
        deficit=float(data["deficit"]),
        realized_utilities=tuple(data["realized_utilities"]),
        schema=int(data["schema"]),
    )


class RoundLedger:
    """Append-only sequence of round records."""

    def __init__(self) -> None:
        self._records: list[RoundRecord] = []

    def append(self, record: RoundRecord) -> None:
        self._records.append(record)

    @property
    def records(self) -> tuple[RoundRecord, ...]:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def history(self, n: int, window: Optional[int] = None) -> RoundHistory:
        """Funded loans with observed outcomes, as aggregation input."""
        loans = []
        for record in self._records:
            outcomes = dict(record.outcomes)
            for q in record.funded_real:
                column = tuple(record.reports[i][q] for i in range(n))
                loans.append(ObservedLoan(reports=column, outcome=outcomes[q]))
        return RoundHistory(n=n, loans=tuple(loans)).window(window)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for record in self._records:
                fh.write(record_to_json(record) + "\n")

    @classmethod
    def read_jsonl(cls, path) -> "RoundLedger":
        ledger = cls()
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    ledger.append(record_from_json(line))
        return ledger


def _describe(value):
    """JSON-able form of a config value; dataclasses carry their class name."""
    if dataclasses.is_dataclass(value):
        fields = {f.name: _describe(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return {"type": type(value).__name__, **fields}
    if isinstance(value, (tuple, list)):
        return [_describe(v) for v in value]
    return value


def config_hash(config: "CampaignConfig", seed: int, round_id: int) -> str:
    """Digest of every config field (world model and priors included), the
    campaign seed and the round."""
    payload = {"config": _describe(config), "seed": seed, "round_id": round_id}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def run_round(
    inst: Instance,
    world: WorldModel,
    seed: int,
    round_id: int = 0,
    scenario_hash: str = "",
    deviation: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> RoundRecord:
    """Sample one round, run the mechanism, settle, return the record.

    Reports are the sampled beliefs unless a deviation strategy rewrites
    them (stress testing). Identical (inst, world, seed) reproduce the
    record bit for bit.
    """
    rng = np.random.default_rng(seed)
    n, m = inst.n, inst.m
    truths, beliefs = sample_world(world, n, m, rng)
    reports = deviation(beliefs) if deviation is not None else beliefs
    reports = np.clip(np.asarray(reports, dtype=float), 0.0, 1.0)

    funded_real = inst.allocate(reports).funded_real
    draws = rng.random(len(funded_real))
    outcomes = {q: int(draws[k] < truths[q]) for k, q in enumerate(funded_real)}
    settlement = inst.settle(reports, outcomes)

    return RoundRecord(
        round_id=round_id,
        scenario_hash=scenario_hash,
        weights=tuple(float(w) for w in inst.weights_in_force),
        truths=tuple(float(t) for t in truths),
        reports=tuple(tuple(float(v) for v in row) for row in reports),
        funded_real=funded_real,
        reserves_funded=settlement.allocation.reserves_funded,
        outcomes=tuple(sorted(outcomes.items())),
        immediate=settlement.immediate,
        contingent=tuple(
            (i, q, float(v)) for (i, q), v in sorted(settlement.contingent.items())
        ),
        tcomp=settlement.tcomp,
        deficit=deficit(settlement),
        realized_utilities=tuple(settlement.realized_utility(i) for i in range(n)),
    )


def evolve_weights(
    ledger: RoundLedger, n: int, window: Optional[int] = None
) -> WeightVector:
    """Outcome-based weights from the ledger; equal weights when the
    history is empty or nobody has contributed positively yet."""
    try:
        history = ledger.history(n, window)
        return budescu_weights(history)
    except (EmptyHistory, AllNonPositiveContribution):
        return WeightVector.equal(n)


@dataclass(frozen=True)
class CampaignConfig:
    mechanism: str  # "winkler" | "vcg"
    n: int
    m: int
    threshold: float
    world: WorldModel
    K: Optional[int] = None
    alpha: float = 1.0
    tcomp_enabled: bool = False
    weight_mode: str = "fixed"  # "fixed" | "budescu"
    initial_weights: Optional[tuple[float, ...]] = None
    history_window: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mechanism not in ("winkler", "vcg"):
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if self.weight_mode not in ("fixed", "budescu"):
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")
        if self.mechanism == "vcg" and self.K is None:
            raise ValueError("vcg campaigns need a liquidity cap K")


def _build_instance(config: CampaignConfig, weights: WeightVector) -> Instance:
    if config.mechanism == "winkler":
        return WinklerInstance(
            n=config.n,
            m=config.m,
            threshold=config.threshold,
            aggregator=WeightedLinear(weights),
            cap=config.K,
        )
    return VcgInstance(
        n=config.n,
        m=config.m,
        K=config.K,
        reserve_threshold=config.threshold,
        weights=weights.weights,
        alpha=config.alpha,
        tcomp_enabled=config.tcomp_enabled,
    )


@dataclass(frozen=True)
class CampaignSummary:
    rounds: int
    funded: int
    repaid: int
    repayment_rate: float
    base_rate: float
    cumulative_deficit: float
    recommender_utilities: tuple[float, ...]
    weight_trajectory: tuple[tuple[float, ...], ...]
    final_weights: tuple[float, ...]


def campaign(
    rounds: int, config: CampaignConfig, seed: int
) -> tuple[CampaignSummary, RoundLedger]:
    """Run sequential rounds with (optionally) evolving weights."""
    if rounds < 1:
        raise ValueError(f"need rounds >= 1, got {rounds}")
    round_seeds = np.random.SeedSequence(seed).generate_state(rounds)
    weights = (
        WeightVector(config.initial_weights)
        if config.initial_weights is not None
        else WeightVector.equal(config.n)
    )
    ledger = RoundLedger()
    trajectory = []
    truth_total, truth_count = 0.0, 0
    utilities = np.zeros(config.n)

    for r in range(rounds):
        if config.weight_mode == "budescu" and r > 0:
            weights = evolve_weights(ledger, config.n, config.history_window)
        trajectory.append(weights.weights)
        inst = _build_instance(config, weights)
        record = run_round(
            inst,
            config.world,
            seed=int(round_seeds[r]),
            round_id=r,
            scenario_hash=config_hash(config, seed, r),
        )
        ledger.append(record)
        truth_total += sum(record.truths)
        truth_count += config.m
        utilities += np.asarray(record.realized_utilities)

    final_weights = (
        evolve_weights(ledger, config.n, config.history_window)
        if config.weight_mode == "budescu"
        else weights
    )
    funded = sum(len(rec.funded_real) for rec in ledger.records)
    repaid = sum(o for rec in ledger.records for _, o in rec.outcomes)
    summary = CampaignSummary(
        rounds=rounds,
        funded=funded,
        repaid=repaid,
        repayment_rate=repaid / funded if funded else float("nan"),
        base_rate=truth_total / truth_count,
        cumulative_deficit=float(sum(rec.deficit for rec in ledger.records)),
        recommender_utilities=tuple(float(u) for u in utilities),
        weight_trajectory=tuple(trajectory),
        final_weights=final_weights.weights,
    )
    return summary, ledger
