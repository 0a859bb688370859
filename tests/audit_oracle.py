"""An audit verdict judged one `MisreportOutcome` at a time: every candidate
labelled, wrapped in an outcome and the lists filtered, the oracle the
mechanism's array verdict (`audit._assemble_verdict`) is tested against."""

from typing import Optional

import numpy as np

from lendmech.audit import (
    DETAILS_LIMIT,
    SE_MULTIPLIER,
    AuditVerdict,
    MisreportOutcome,
    SearchCounts,
)


def _classify(mean_diff: np.ndarray, se: np.ndarray, tol: Optional[float]) -> list[str]:
    """Truth-minus-misreport differences -> misreport classifications: beyond
    `tol` when exact, else beyond SE_MULTIPLIER standard errors."""
    if tol is not None:
        loses, wins = mean_diff > tol, mean_diff < -tol
    else:
        margin = SE_MULTIPLIER * se
        loses = (mean_diff > margin) & (mean_diff > 0.0)
        wins = (mean_diff < -margin) & (mean_diff < 0.0)
    return np.where(loses, "loses", np.where(wins, "wins", "ties")).tolist()


def _assemble_verdict(
    desideratum: str,
    outcomes: list[MisreportOutcome],
    truth_mean: float,
    truth_se: float,
    samples: int,
    seed: Optional[int],
    notes: tuple[str, ...] = (),
) -> AuditVerdict:
    wins = [o for o in outcomes if o.classification == "wins"]
    losses = [o for o in outcomes if o.classification == "loses"]
    ties = [o for o in outcomes if o.classification == "ties"]
    es = [o for o in outcomes if o.candidate.equal_shift]
    counts = SearchCounts(
        candidates=len(outcomes),
        wins=len(wins),
        losses=len(losses),
        ties=len(ties),
        equal_shift_candidates=len(es),
        equal_shift_wins=sum(1 for o in es if o.classification == "wins"),
        equal_shift_losses=sum(1 for o in es if o.classification == "loses"),
        equal_shift_ties=sum(1 for o in es if o.classification == "ties"),
    )
    non_es_ties = counts.ties - counts.equal_shift_ties

    if counts.wins > 0:
        verdict = "violation"
        witness = max(wins, key=lambda o: o.mean_gain)
    elif desideratum == "weak-epic":
        verdict = "pass"
        witness = None
    elif non_es_ties == 0 and counts.candidates > counts.equal_shift_candidates:
        # strict truthfulness up to equal shifts: every genuine deviation lost
        verdict = "pass"
        witness = None
    else:
        verdict = "inconclusive"
        witness = None

    interesting = wins + ties
    shown = interesting + losses[: max(0, DETAILS_LIMIT - len(interesting))]
    return AuditVerdict(
        desideratum=desideratum,
        verdict=verdict,
        truth_mean=truth_mean,
        truth_std_error=truth_se,
        samples=samples,
        seed=seed,
        counts=counts,
        witness=witness,
        details=tuple(shown[:DETAILS_LIMIT]),
        notes=notes,
    )


def assemble_verdict(
    desideratum: str,
    candidates,
    mean_diff,
    se,
    tol: Optional[float],
    truth_mean: float,
    truth_se: float,
    samples: int,
    seed: Optional[int],
    notes: tuple[str, ...] = (),
) -> AuditVerdict:
    """`audit._assemble_verdict`'s arguments, judged outcome by outcome."""
    mean_diff, se = np.asarray(mean_diff, dtype=float), np.asarray(se, dtype=float)
    outcomes = [
        MisreportOutcome(candidate=c, mean_gain=-d, std_error=e, classification=label)
        for c, d, e, label in zip(
            candidates, mean_diff.tolist(), se.tolist(), _classify(mean_diff, se, tol)
        )
    ]
    return _assemble_verdict(desideratum, outcomes, truth_mean, truth_se, samples, seed, notes)
