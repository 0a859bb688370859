"""VCG pivots and rebates priced one recommender at a time, by a Python
sweep over one ranked order: the oracle the mechanism's batched pricing
(`vcg._pivots_and_rebates`) is tested against."""

from typing import Optional

import numpy as np

from lendmech.mechanism import Allocation, left_sum
from lendmech.vcg import VcgInstance, _ranked, _welfare


def _items_welfare(scores: list[float], c: float, items: list[tuple[float, int, int]]) -> float:
    """`_welfare` of funding `items` (`_ranked` keys), added as it adds:
    the real borrowers in ascending index, then the reserves' count times c."""
    real = sorted(q for _, is_reserve, q in items if not is_reserve)
    return left_sum(scores[q] for q in real) + (len(items) - len(real)) * c


def _charges(
    inst: VcgInstance, base: np.ndarray, chosen: Optional[Allocation], boosted
) -> tuple[float, float]:
    """Recommender i's pivot at the `chosen` allocation and i's rebate, each
    0.0 when `chosen` or `boosted` is None, from one ranked order of `base`,
    i's others' scores. `boosted` holds the scores with i reporting 1 on
    every borrower. Both subtract from the others' best welfare without i,
    the welfare of that order's top k.

    The rebate is the worst-case pivot. i's report moves only which set S
    of k = min(K, m + reserves) items gets funded, and S is reachable iff a
    report of 1 on S's real borrowers and 0 elsewhere makes S the top k. A
    reachable S that leaves something unfunded has exactly one best
    outsider o, the item at some position p < k of the unboosted order; S
    holds every item ranked above o and the k - p lowest-ranked real
    borrowers below o whose boosted key beats o's. The minimum over p costs
    O(m log m + K*m), each S's welfare summed from plain floats.
    """
    c = inst.reserve_threshold
    base = base.tolist()
    order = _ranked(base, c, inst.n_reserves)
    k = min(inst.K, len(order))
    without_i = _items_welfare(base, c, order[:k])
    pivot = 0.0 if chosen is None else inst.alpha * (without_i - _welfare(base, c, chosen))
    if boosted is None:
        return pivot, 0.0
    boosted = boosted.tolist()
    worst = without_i
    for p, outsider in enumerate(order[:k]):
        # Same float and key comparison `_select` makes on boosted scores.
        lifted = [
            (score, is_reserve, q)
            for score, is_reserve, q in order[p + 1 :]
            if not is_reserve and (-boosted[q], 0, q) < outsider
        ]
        if len(lifted) < k - p:
            continue
        # `lifted` keeps ranked order, so its tail has the lowest scores.
        funded = order[:p] + lifted[len(lifted) - (k - p) :]
        worst = min(worst, _items_welfare(base, c, funded))
    return pivot, inst.alpha * (without_i - worst)
