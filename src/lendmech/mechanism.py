"""What the two mechanisms share: allocation and settlement records, and
the checks every report matrix and outcome map passes.

`WinklerInstance` and `VcgInstance` expose one interface, which is all that
rounds, the CLI and the audits call: `allocate(reports) -> Allocation`,
`settle(reports, outcomes) -> Settlement`, `expost_utility(reports, i,
belief_row)`, `engine(i, others)` (a vectorized interim engine, or None)
and `weights_in_force`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Union

import numpy as np

from .errors import MissingOutcome, OutcomeForUnfundedBorrower, ShapeMismatch

if TYPE_CHECKING:
    from .vcg import VcgInstance
    from .winkler import WinklerInstance

Instance = Union["WinklerInstance", "VcgInstance"]


@dataclass(frozen=True)
class Allocation:
    """Funding decision over real borrowers plus reserve slots."""

    real: tuple[int, ...]
    reserves_funded: int = 0

    @property
    def funded_real(self) -> tuple[int, ...]:
        return tuple(q for q, f in enumerate(self.real) if f)


@dataclass(frozen=True)
class Settlement:
    """Immediate charges, outcome-contingent payments and optional rebates.

    `contingent` maps (recommender, funded borrower) to the payment;
    `tcomp` is None when the mechanism pays no rebate.
    """

    allocation: Allocation
    immediate: tuple[float, ...]
    contingent: dict[tuple[int, int], float]
    tcomp: Optional[tuple[float, ...]] = None

    def realized_utility(self, i: int) -> float:
        paid = sum(v for (j, _), v in self.contingent.items() if j == i)
        rebate = self.tcomp[i] if self.tcomp is not None else 0.0
        return paid + rebate - self.immediate[i]


def deficit(settlement: Settlement) -> float:
    """Net payment out of the mechanism this round (negative = surplus)."""
    out = sum(settlement.contingent.values())
    if settlement.tcomp is not None:
        out += sum(settlement.tcomp)
    return float(out - sum(settlement.immediate))


def check_reports(reports, shape: tuple[int, int], field: str = "reports") -> np.ndarray:
    """`reports` as a float matrix of `shape` with every entry in [0, 1]."""
    arr = np.asarray(reports, dtype=float)
    if arr.shape != shape:
        raise ShapeMismatch(f"{field} shape {arr.shape} != {shape}")
    # NaN fails both comparisons, so this also rejects non-finite entries.
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"{field} must be finite and lie in [0, 1]")
    return arr


def check_outcomes(funded: Iterable[int], outcomes: Mapping[int, int]) -> None:
    """`outcomes` must give a 0/1 outcome for exactly the funded borrowers."""
    funded = set(funded)
    for q in outcomes:
        if q not in funded:
            raise OutcomeForUnfundedBorrower(f"borrower {q} received no loan")
    for q in funded:
        if q not in outcomes:
            raise MissingOutcome(f"no outcome supplied for funded borrower {q}")
    for q, o in outcomes.items():
        if o not in (0, 1):
            raise ValueError(f"outcome for borrower {q} must be 0 or 1, got {o}")
