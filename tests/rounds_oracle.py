"""A campaign played one round at a time: each round's world drawn from its
own generator as the round is played, the round allocated alone, its
outcomes drawn after the allocation, and the round settled and recorded
alone. The oracle `rounds.campaign` and `rounds.run_round` are tested
against: they draw every round's world up front, allocate a stack of
rounds in one call and build the records from the stacked arrays."""

from typing import Callable, Optional

import numpy as np

from lendmech.mechanism import Instance, Settlement, left_sum
from lendmech.priors import sample_profiles
from lendmech.rounds import RoundRecord, WorldModel


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


def play_round(
    inst: Instance,
    world: WorldModel,
    seed: int,
    deviation: Optional[Callable[[np.ndarray], np.ndarray]] = None,
):
    """Sample one round, allocate it and draw the funded borrowers'
    outcomes, one uniform each, after the allocation: (truths, reports,
    allocation, outcomes)."""
    rng = np.random.default_rng(seed)
    truths, beliefs = sample_world(world, inst.n, inst.m, rng)
    reports = deviation(beliefs) if deviation is not None else beliefs
    reports = np.clip(np.asarray(reports, dtype=float), 0.0, 1.0)
    allocation = inst.allocate(reports)
    funded_real = allocation.funded_real
    draws = rng.random(len(funded_real))
    outcomes = {q: int(draws[k] < truths[q]) for k, q in enumerate(funded_real)}
    return truths, reports, allocation, outcomes


def scanned_accounts(settlement: Settlement, n: int) -> tuple[tuple[float, ...], float]:
    """`Settlement.accounts` written out: each recommender's paid sum
    scanned from the contingent payments in their order, plus rebate minus
    charge, and the deficit as the payments' `left_sum` plus the rebates'
    minus the charges'."""
    rebates = settlement.tcomp if settlement.tcomp is not None else (0.0,) * n
    utilities = tuple(
        settlement.paid(i) + rebates[i] - settlement.immediate[i] for i in range(n)
    )
    out = left_sum(settlement.contingent.values())
    if settlement.tcomp is not None:
        out += left_sum(settlement.tcomp)
    return utilities, float(out - left_sum(settlement.immediate))


def oracle_round(
    inst: Instance,
    world: WorldModel,
    seed: int,
    round_id: int = 0,
    scenario_hash: str = "",
    deviation: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> RoundRecord:
    """`rounds.run_round`, played by `play_round`, settled by `inst.settle`
    and recorded one cell at a time, its utilities and deficit scanned
    (`scanned_accounts`)."""
    truths, reports, allocation, outcomes = play_round(inst, world, seed, deviation)
    settlement = inst.settle(reports, outcomes, allocation)
    utilities, round_deficit = scanned_accounts(settlement, inst.n)
    return RoundRecord(
        round_id=round_id,
        scenario_hash=scenario_hash,
        weights=tuple(float(w) for w in inst.weights_in_force),
        truths=tuple(float(t) for t in truths),
        reports=tuple(tuple(float(v) for v in row) for row in reports),
        funded_real=allocation.funded_real,
        reserves_funded=allocation.reserves_funded,
        outcomes=tuple(sorted(outcomes.items())),
        immediate=settlement.immediate,
        contingent=tuple(
            (i, q, float(v)) for (i, q), v in sorted(settlement.contingent.items())
        ),
        tcomp=settlement.tcomp,
        deficit=round_deficit,
        realized_utilities=utilities,
    )

