"""VCG scoring mechanism for lending under a liquidity cap.

Outcome-contingent payments use a constant rule (alpha * w_i on repayment,
nothing on default), which gives every recommender a value for funding
borrower q proportional to their reported belief. Funding then maximizes
total reported value subject to the cap. A profit threshold c > 0 is
encoded by K imaginary reserve borrowers backed by an internal reserve
recommender of weight 1 who values reserves at c and real borrowers at 0;
the reserve recommender is counted in welfare but never paid or charged.
On top sit standard pivot payments, and optionally a report-independent
rebate equal to each recommender's worst-case pivot, which makes realized
utility nonnegative for every outcome. The rebate is computed exactly for
every m and K by a sweep over the best unfunded item. Settlement prices a
stack of rounds at once (`VcgInstance.settle_rounds`; `settle` is a stack
of one): every recommender's others' scores in one pass, ranked once by
rank counts, give each pivot and the rebate sweep, which runs once per
position p < K for every recommender of every round together
(`_pivots_and_rebates`). All payments scale linearly in alpha; the
allocation does not depend on it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ReserveRecommenderHasNoPayment
# `deficit` is re-exported: callers use vcg.deficit.
from .mechanism import Allocation, Engine, FundingTest, Grid, Payments, Settlement, check_reports
from .mechanism import check_rounds, deficit, left_sum, linear_scores, masked, one_round
from .mechanism import others_scores, scores_with, stack_loans


@dataclass(frozen=True)
class VcgInstance:
    """n recommenders, m borrowers, cap K, reserve threshold c in [0, 1).

    c = 0 disables the reserve construction entirely. Weights are not
    required to sum to 1 at this level: the mechanism is well defined for
    any nonnegative weights, and the weight-incentive audit deliberately
    raises a single weight without renormalizing. Scenario files do enforce
    the sum-to-1 convention.
    """

    n: int
    m: int
    K: int
    reserve_threshold: float
    weights: tuple[float, ...]
    alpha: float = 1.0
    tcomp_enabled: bool = False

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got ({self.n}, {self.m})")
        if not 1 <= self.K <= self.m:
            raise ValueError(f"need 1 <= K <= m, got K={self.K}, m={self.m}")
        if not 0.0 <= self.reserve_threshold < 1.0:
            raise ValueError(
                f"reserve threshold must lie in [0, 1), got {self.reserve_threshold}"
            )
        if len(self.weights) != self.n:
            raise ValueError(f"need {self.n} weights, got {len(self.weights)}")
        if not all(math.isfinite(w) and w >= 0.0 for w in self.weights):
            raise ValueError(f"weights must be finite and nonnegative, got {self.weights}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")

    @property
    def n_reserves(self) -> int:
        return self.K if self.reserve_threshold > 0.0 else 0

    # The mechanism interface (see lendmech.mechanism). `allocate` and
    # `settle` forward to the module-level functions of the same name,
    # looked up at each call: perfbench/tracer.py times them by patching
    # the module.

    def allocate(self, reports) -> Allocation:
        return allocate(self, reports)

    def select(self, scores: Sequence[float]) -> Allocation:
        """`allocate`'s rule (`_select`) applied to the borrowers' pooled
        scores, a list of floats."""
        return _select(scores, self.reserve_threshold, self.n_reserves, self.K)

    def settle(
        self, reports, outcomes: Mapping[int, int], allocation: Optional[Allocation] = None
    ) -> Settlement:
        return settle(self, reports, outcomes, allocation)

    def allocate_rounds(self, weights, reports) -> list[Allocation]:
        """Allocate a stack of rounds on this instance in one pass: round
        r's reports, (R, n, m), under weights `weights[r]`, (R, n), as a
        campaign's rounds differ in their weights.

        Every round's scores come from one `linear_scores` pass, each
        round's weights broadcast against its row, and `select_batch`
        selects every round's top K by rank counts, with no sort. Each
        allocation is `allocate`'s for its round, ties included.
        """
        w, arr = check_rounds(self, weights, reports)
        return _allocate_rounds(self, w, arr)

    def settle_rounds(
        self,
        weights,
        reports,
        outcomes: Sequence[Mapping[int, int]],
        allocations: Optional[Sequence[Allocation]] = None,
    ) -> Payments:
        """Settle a stack of rounds in one pass: round r's reports,
        (R, n, m), under weights `weights[r]` (as `allocate_rounds`), its
        outcomes, and its allocation (`allocations` None: allocate every
        round).

        Reserve slots are bookkeeping rows with no outcomes. Every pivot and
        rebate of the stack comes from one `_pivots_and_rebates` call,
        against each round's allocation as its one chosen set, and every
        funded loan's constant-rule payments (`contingent_payments`) from
        one product, under its round's weights; each is the value its round
        gets when settled alone, bit for bit. A round's payments are summed
        recommender by recommender.
        """
        w, arr = check_rounds(self, weights, reports, outcomes, allocations)
        return _settle(self, w, arr, outcomes, allocations)

    def expost_utility(self, reports, i: int, belief_row: Sequence[float]) -> float:
        """i's utility at these reports, expectation over own repayment
        beliefs.

        Excludes the tcomp rebate: the rebate is report-independent, so it
        shifts utilities without affecting any incentive comparison. The
        pivot is priced against this utility's own allocation, selected
        once.
        """
        _check_real_recommender(self, i)
        arr = check_reports(reports, (self.n, self.m))
        alloc = _allocate(self, arr)
        value = self.alpha * left_sum(
            self.weights[i] * float(belief_row[q]) for q in alloc.funded_real
        )
        pivots, _ = _pivots_and_rebates(self, [self.weights], arr[np.newaxis], [alloc], False)
        return value - float(pivots[0, i])

    def engine(self, i: int, others: np.ndarray) -> "InterimEngine":
        return InterimEngine(self, i, others)

    @property
    def weights_in_force(self) -> tuple[float, ...]:
        return self.weights


def _ranked(scores: Sequence[float], c: float, n_reserves: int) -> list[tuple[float, int, int]]:
    """Real borrowers and reserve slots as (-score, is_reserve, index) keys,
    sorted: score descending, then real before reserve, then lower index."""
    items = [(-float(s), 0, q) for q, s in enumerate(scores)]
    items += [(-c, 1, r) for r in range(n_reserves)]
    items.sort()
    return items


def _select(scores: Sequence[float], c: float, n_reserves: int, K: int) -> Allocation:
    """Welfare-maximizing feasible allocation with a deterministic tie-break.

    Funds the first min(K, available) items in `_ranked` order. All scores
    are nonnegative, so funding up to the cap is always weakly optimal.
    """
    funded = _ranked(scores, c, n_reserves)[:K]
    real = {q for _, is_reserve, q in funded if not is_reserve}
    return Allocation(tuple(int(q in real) for q in range(len(scores))), len(funded) - len(real))


def _welfare(scores: Sequence[float], c: float, alloc: Allocation) -> float:
    return left_sum(float(scores[q]) for q in alloc.funded_real) + alloc.reserves_funded * c


def aggregate_scores(inst: VcgInstance, reports) -> np.ndarray:
    """Per-borrower total weighted reports (the welfare coefficient)."""
    return linear_scores(inst.weights, check_reports(reports, (inst.n, inst.m)))


def allocate(inst: VcgInstance, reports) -> Allocation:
    """Fund the top-K entries among real borrowers and reserve slots."""
    return _allocate(inst, check_reports(reports, (inst.n, inst.m)))


def _allocate(inst: VcgInstance, arr: np.ndarray) -> Allocation:
    """`allocate` of an already checked report matrix."""
    return inst.select(linear_scores(inst.weights, arr).tolist())


def _allocate_rounds(inst: VcgInstance, w: np.ndarray, arr: np.ndarray) -> list[Allocation]:
    """`allocate_rounds` of a checked stack."""
    scores = linear_scores(w.T[:, :, np.newaxis], arr)
    funded = select_batch(scores, inst.reserve_threshold, inst.n_reserves, inst.K)
    reserves = np.count_nonzero(funded[:, inst.m :], axis=1).tolist()
    real = funded[:, : inst.m].astype(int).tolist()
    return [Allocation(tuple(row), count) for row, count in zip(real, reserves)]


def _check_real_recommender(inst: VcgInstance, i: int) -> None:
    if i == inst.n:
        raise ReserveRecommenderHasNoPayment(
            "the internal reserve recommender is never paid or charged"
        )
    if not 0 <= i < inst.n:
        raise ValueError(f"recommender index {i} out of range for n={inst.n}")


def pivot_payment(inst: VcgInstance, reports, i: int) -> float:
    """Charge to i: others' best welfare without i minus their welfare at
    the chosen allocation. Nonnegative; alpha-scaled like every payment.

    Priced by `_pivots_and_rebates` on this one round, against
    `allocate`'s set, as `settle` prices every recommender.
    """
    _check_real_recommender(inst, i)
    arr = check_reports(reports, (inst.n, inst.m))
    chosen = [_allocate(inst, arr)]
    pivots, _ = _pivots_and_rebates(inst, [inst.weights], arr[np.newaxis], chosen, False)
    return float(pivots[0, i])


def tcomp(inst: VcgInstance, others_reports, i: int) -> float:
    """Worst-case pivot payment of i over all reports, given others' reports.

    Exact for every m, K: `_pivots_and_rebates`' rebate on this one round,
    with i's report (which the rebate does not read) at 0, as `settle`
    takes each rebate.
    """
    _check_real_recommender(inst, i)
    arr = check_reports(others_reports, (inst.n - 1, inst.m), "others_reports")
    reports = np.insert(arr, i, 0.0, axis=0)
    _, rebates = _pivots_and_rebates(inst, [inst.weights], reports[np.newaxis], None, True)
    return float(rebates[0, i])


def _pivots_and_rebates(inst: VcgInstance, weights, arr: np.ndarray, chosen, rebates: bool):
    """Every recommender's pivot and rebate in every round of a stack of
    checked reports, (R, n, m), round r under `weights[r]` and with
    `inst`'s other settings, as two (R, n) arrays: the pivots at the
    `chosen` allocations (None: no pivots), and the rebates if `rebates`
    (else None).

    Rows are (round, recommender) pairs, one column each of item-major
    scores, (m, R * n): the others' scores, from one `others_scores` pass
    over the stack, ranked once by `_order`'s rank counts, as the interim
    engine ranks its samples. Both charges subtract from the others' best
    welfare without i, their top k = min(K, m + reserves); `_funded_sum`
    adds every welfare as `_welfare` adds it, the funded real borrowers
    left to right and then the reserves' count times c.

    The rebate is the worst-case pivot, exact for every m, K. Others'
    welfare is what i's report can damage, and i's report moves only which
    set S of k items gets funded. S is reachable iff a report of 1 on S's
    real borrowers and 0 elsewhere makes S the top k: scores never fall as
    a report rises, so if any report funds S, this one only widens S's lead
    over every outsider. A report of 0 leaves a borrower at the others'
    score exactly, and 1 lifts it to its boosted score, the score with i's
    row at 1 (`others_scores` with `own` 1, one more pass). A reachable S
    that leaves something unfunded has exactly one best outsider o, the
    item at some position p < k of the unboosted order. S then holds every
    item ranked above o, and its other k - p members are real borrowers
    ranked below o whose boosted key beats o's, as `_select` compares keys:
    a higher boosted score, or an equal one at a lower index (every real
    borrower's against a reserve's). The cheapest such S takes the k - p
    lowest-ranked of them; S with no outsider is the unboosted top k. The
    sweep runs once per position p < k for every row at once, O(k m) work
    per row. A zero weight adds +0.0 at 1, so its boosted score is its
    others' score bit for bit, nothing is lifted, and its rebate is 0.0.
    """
    rounds, n, m = arr.shape
    c, n_res = inst.reserve_threshold, inst.n_reserves
    k = inst.K

    def item_major(scores: np.ndarray) -> np.ndarray:
        return scores.transpose(2, 0, 1).reshape(m, rounds * n)

    base = item_major(others_scores(weights, arr))
    pos, ahead = _order(base, c, n_res)
    without_i = _funded_sum(base, pos < k) + np.clip(k - ahead, 0, n_res) * c
    pivots = rebate = None
    if chosen is not None:
        real = np.repeat(np.array([alloc.real for alloc in chosen], dtype=bool), n, axis=0).T
        reserves = np.repeat([alloc.reserves_funded for alloc in chosen], n)
        chosen_welfare = _funded_sum(base, real) + reserves * c
        pivots = (inst.alpha * (without_i - chosen_welfare)).reshape(rounds, n)
    if rebates:
        boosted = item_major(others_scores(weights, arr, own=1.0))
        rows, index = np.arange(rounds * n), np.arange(m)[:, np.newaxis]
        # The real borrower at each position of a row's order; m at a reserve.
        at = np.full((m + n_res, rounds * n), m)
        np.put_along_axis(at, pos, index, axis=0)
        worst = without_i
        for p in range(k):
            outsider = at[p]
            key = np.where(outsider < m, base[np.minimum(outsider, m - 1), rows], c)
            beats = (boosted > key) | ((boosted == key) & (index < outsider))
            lifted = (pos > p) & beats
            # How many lifted borrowers rank at or below each position.
            ranked = np.take_along_axis(np.vstack([lifted, np.zeros(len(rows), bool)]), at, 0)
            from_bottom = np.cumsum(ranked[::-1], axis=0)[::-1]
            kept = lifted & (np.take_along_axis(from_bottom, pos, 0) <= k - p)
            welfare = _funded_sum(base, (pos < p) | kept) + np.clip(p - ahead, 0, n_res) * c
            reachable = np.count_nonzero(lifted, axis=0) >= k - p
            worst = np.where(reachable, np.minimum(worst, welfare), worst)
        rebate = (inst.alpha * (without_i - worst)).reshape(rounds, n)
    return pivots, rebate


def settle(
    inst: VcgInstance,
    reports,
    outcomes: Mapping[int, int],
    allocation: Optional[Allocation] = None,
) -> Settlement:
    """Pivot charges plus realized constant-rule payments (and rebates):
    `VcgInstance.settle_rounds` of this one round. `outcomes` must cover
    exactly the funded real borrowers; `allocation`, when given, must be
    `allocate(inst, reports)`, and saves allocating again."""
    w, arr = one_round(inst, reports)
    allocations = None if allocation is None else [allocation]
    return _settle(inst, w, arr, [outcomes], allocations).settlement(0)


def _settle(
    inst: VcgInstance, w: np.ndarray, arr: np.ndarray, outcomes, allocations
) -> Payments:
    """`VcgInstance.settle_rounds` of a checked stack."""
    allocs = _allocate_rounds(inst, w, arr) if allocations is None else list(allocations)
    r, _, outcome = stack_loans(allocs, outcomes)
    pivots, rebates = _pivots_and_rebates(inst, w, arr, allocs, inst.tcomp_enabled)
    paid = inst.alpha * w[r] * outcome[:, np.newaxis]
    return Payments(allocs, pivots, rebates, paid, recommender_major=True)


def contingent_payments(
    inst: VcgInstance, funded: Sequence[int], outcomes: Mapping[int, int]
) -> dict[tuple[int, int], float]:
    """The constant rule's realized payments, (recommender, funded borrower)
    -> alpha * w_i on repayment and 0 on default. The only part of a
    settlement that depends on the outcomes."""
    return {
        (i, q): inst.alpha * inst.weights[i] * outcomes[q] for i in range(inst.n) for q in funded
    }


def select_batch(scores: np.ndarray, c: float, n_reserves: int, K: int) -> np.ndarray:
    """Row-wise top-K over real scores plus constant reserve slots.

    Returns a boolean mask of shape (rows, m + n_reserves), True at the
    items `_select` funds on each row of `scores`: the real borrowers by
    index, then the reserve slots. It is the interim engine's selection of
    the transposed scores (`_order`'s positions below K, and the reserve
    slots that fit) as one mask, the batch form of `_select`, and how
    `VcgInstance.allocate_rounds` selects a stack of rounds.
    """
    pos, ahead = _order(scores.T, c, n_reserves)
    reserves = np.clip(K - ahead, 0, n_reserves)[:, np.newaxis]
    return np.concatenate([(pos < K).T, np.arange(n_reserves) < reserves], axis=1)


def _order(scores: np.ndarray, c: float, n_reserves: int, skip: Optional[int] = None):
    """`_select`'s order of item-major scores, (m, rows), without a sort:
    each real borrower's position (0 is first), and how many real
    borrowers come before the reserve slots, whose positions follow on.

    A borrower's position counts the borrowers that beat it (a higher
    score, or an equal one at a lower index), plus `n_reserves` if c is
    above its score. `skip` leaves one borrower out: the others' positions
    are then among themselves, and its own means nothing.

    Positions stay below m + `n_reserves`, so they are counted in place in
    the narrowest unsigned dtype that holds that; the count of real
    borrowers ahead is an int64 (intp).
    """
    m = len(scores)
    below = scores < c
    pos = np.multiply(below, n_reserves, dtype=np.min_scalar_type(m + n_reserves))
    real = [q for q in range(m) if q != skip]
    for p, q in itertools.combinations(real, 2):
        first = scores[p] >= scores[q]  # p < q, so p wins a tie
        pos[q] += first
        pos[p] += ~first
    ahead = len(real) - np.count_nonzero(below, axis=0)
    if skip is not None:
        ahead += below[skip]
    return pos, ahead


def _funded_sum(terms, funded: np.ndarray) -> np.ndarray:
    """Per sample, 0.0 plus each funded real borrower's term (a row of
    `terms`, or one value per borrower) in column order: `left_sum` of the
    funded terms bit for bit, as every term is at least +0.0. Each term is
    picked by `masked` (see there for the selection rule and its costs):
    `np.where(mask, term, 0.0)` bit for bit, with no per-sample branch. On
    (2, 16384) terms this took 45-55 us a call, where `np.where` took
    175-206 us."""
    total = masked(terms[0], funded[0])
    for term, mask in zip(terms[1:], funded[1:]):
        total += masked(term, mask)
    return total


def _below_unless(keys: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Each key where `exact`, else the float just below it:
    `np.where(exact, keys, np.nextafter(keys, -np.inf))` bit for bit.

    Below a positive float, even a subnormal or +inf, lies its bit pattern
    minus 1 as an int64, so where every key is positive (the keys are
    scores and c, never below +0.0) the patterns drop by `~exact` with no
    per-sample branch: 15-23 us over 16,384 samples (as `masked` is
    measured), where `np.nextafter` takes 122-190 us and the select 63-114
    us more. Below a key of +0.0 (a zero score with c = 0) lies -5e-324,
    which no decrement gives: such a block keeps `np.nextafter`.
    """
    if keys.min(initial=np.inf) > 0.0:
        return (keys.view(np.int64) - ~exact).view(np.float64)
    return np.where(exact, keys, np.nextafter(keys, -np.inf))


class InterimEngine(Engine):
    """Vectorized interim utility for one recommender over sampled others.

    Every score adds i's report in its place among the co-reports, as the
    mechanism's `linear_scores` does (`scores_with`, which copies no
    co-report), so funding agrees with the exact mechanism on every
    sample, ties included. The engine keeps the co-report sample for that,
    item-major, (n-1, m, samples), so every item's samples are contiguous:
    a drawn block already lies so in memory (`priors.sample_others`) and is
    kept as it is; other co-reports are copied once. A search builds
    one engine per block of at most COLUMN_CHUNK samples, which bounds its
    arrays whatever the sample count; each score is an (m, samples) array.
    The last report row's scores are kept, so the truth, scored first in a
    block, is scored once for `utilities` and every coordinate's column.

    The funded set comes from rank counts, with no sort (`_order`): real
    borrower q is funded iff fewer than K items beat it, and the reserves
    fill what the real borrowers at or above c leave of K. Welfare and i's
    value add each real borrower's term where it is funded, left to right
    in column order, and then the reserves' count times c, as `_welfare`
    adds them.

    `utilities` scores any report row and is the reference. `column`
    scores reports that differ from the true row in a single coordinate q,
    which is most of what a grid audit tries. With the other coordinates
    held at the true row, the other items (real borrowers and reserve
    slots) keep one order whatever i reports on q, so the funded set is q
    plus their top K-1, or else their top K; one set of positions gives
    both. q's score never falls as i's report rises, so on each sample the
    reports that fund q form an upper range: q's score must beat the key of
    the item a funded q displaces, which a `FundingTest` decides as the
    allocation does. `_column_parts` finds the keys and both utilities once
    per sample, from the expressions `utilities` uses, so a report's
    per-sample utility is `utilities`' for its row bit for bit, and keeps
    only their difference.
    On a sample, truth minus a report is exactly 0 where both or neither
    fund q, and otherwise +-(u_in - u_out), + where only the truth funds q.
    So `VcgColumn` scores the coordinate's whole grid through a
    `mechanism.Grid`, the block model Winkler's engine uses, with
    u = u_in - u_out and alpha 0, in O(samples + reports * blocks); it
    agrees with the per-sample path up to rounding, and exactly on a single
    sample.
    """

    def __init__(self, inst: VcgInstance, i: int, others: np.ndarray) -> None:
        _check_real_recommender(inst, i)
        self.inst = inst
        self.i = i
        self.w_i = float(inst.weights[i])
        self.samples = others.shape[0]
        # (n-1, m, samples): a view of a drawn block, else a copy.
        self.others = np.ascontiguousarray(np.transpose(others, (1, 2, 0)), dtype=float)
        w_others = inst.weights[:i] + inst.weights[i + 1 :]
        self.scores_others = linear_scores(w_others, self.others.transpose(1, 0, 2))
        self.best_without_i = self._others_welfare(*self._funded(self.scores_others))
        self._kept: tuple = ((), None)  # (report row, its scores)

    def _scores(self, report_row) -> np.ndarray:
        """The mechanism's scores, (m, samples), when i reports `report_row`:
        `scores_with` adds it as term i among the held co-reports, as
        `linear_scores` adds the inserted matrix, without copying them.
        The last row's scores are kept; callers only read them."""
        row = tuple(float(v) for v in report_row)
        if self._kept[0] != row:
            co_reports = self.others.transpose(1, 0, 2)
            column = np.array(row)[:, np.newaxis]
            self._kept = (row, scores_with(self.inst.weights, co_reports, self.i, column))
        return self._kept[1]

    def _funded(self, scores: np.ndarray):
        """`_select`'s top K of scores, (m, samples): whether each real
        borrower is funded, (m, samples), and the reserve slots funded per
        sample."""
        n_res = self.inst.n_reserves
        pos, ahead = _order(scores, self.inst.reserve_threshold, n_res)
        return pos < self.inst.K, np.clip(self.inst.K - ahead, 0, n_res)

    def _others_welfare(self, funded: np.ndarray, reserves: np.ndarray):
        """The others' welfare on each sample when the real borrowers
        `funded` and `reserves` reserve slots are funded."""
        real = _funded_sum(self.scores_others, funded)
        return real + reserves * self.inst.reserve_threshold

    def _utility(self, funded, reserves, values: np.ndarray) -> np.ndarray:
        """Utility of funding `funded` and `reserves` on each sample;
        `values` is w_i * beliefs (a reserve slot is worth 0 to i).

        Every term is summed within its own sample, so a sample's utility
        does not depend on which other samples share the engine.
        """
        value = _funded_sum(values, funded)
        welfare_others = self._others_welfare(funded, reserves)
        return self.inst.alpha * (value + welfare_others - self.best_without_i)

    def utilities(self, belief_row: Sequence[float], report_row: Sequence[float]) -> np.ndarray:
        """Per-sample utility of reporting `report_row` with beliefs
        `belief_row` (rebate excluded; it cancels in comparisons)."""
        values = self.w_i * np.asarray(belief_row, dtype=float)
        return self._utility(*self._funded(self._scores(report_row)), values)

    def _column_parts(self, true_row: Sequence[float], q: int):
        """The `FundingTest` of a report on q, and per sample u = u_in - u_out,
        i's utility with q funded minus that with q unfunded (u_in where
        every report funds q)."""
        inst = self.inst
        m, c, n_res = inst.m, inst.reserve_threshold, inst.n_reserves
        k = inst.K
        # Beliefs are the true row.
        w_true = self.w_i * np.asarray(true_row, dtype=float)
        scores = self._scores(true_row)
        # The other items' positions among themselves. Funded, q joins
        # their top K-1; unfunded, their top K is funded.
        pos, ahead = _order(scores, c, n_res, skip=q)
        with_q = pos < k - 1
        with_q[q] = True
        u = self._utility(with_q, np.clip(k - 1 - ahead, 0, n_res), w_true)
        key = np.full(self.samples, -np.inf)  # -inf: every report funds q
        if k < m + n_res:  # else q is funded whatever it reports
            top = pos < k
            top[q] = False
            u -= self._utility(top, np.clip(k - ahead, 0, n_res), w_true)
            # q is funded iff its score beats the key of the one item in the
            # others' top K but not in their top K-1: the real borrower at
            # position K-1, else a reserve. At most one term of each sum is
            # not 0.0, so the key is that score, or c, exactly.
            kth = pos == k - 1
            kth[q] = False
            kth_key = masked(scores, kth).sum(axis=0) + masked(c, ~kth.any(axis=0))
            # q wins a tie iff that item is a real borrower with a higher
            # index than q, or a reserve; then its score need only reach
            # the float just below the key.
            key = _below_unless(kth_key, kth[:q].any(axis=0))
        # The others' score is held since the build.
        return FundingTest(inst.weights, self.i, self.others[:, q], key, self.scores_others[q]), u

    def column(self, true_row: Sequence[float], q: int, reports) -> "VcgColumn":
        return VcgColumn(true_row, q, reports)


class VcgColumn:
    """Truth minus each report on coordinate q of an `InterimEngine`, over a
    search's blocks: `_column_parts`' u, with alpha 0 and no gain, through a
    `mechanism.Grid` (see `InterimEngine`)."""

    def __init__(self, true_row: Sequence[float], q: int, reports) -> None:
        self.true_row, self.q = true_row, q
        self.grid = Grid(float(true_row[q]), reports, np.zeros(len(reports)))

    def add(self, engine: InterimEngine, truth_values: np.ndarray) -> None:
        """Reduce one block; the truth's utilities are not needed here."""
        funding, u = engine._column_parts(self.true_row, self.q)
        self.grid.add(self.grid.blocks(funding), u, np.zeros(len(u)))

    def stats(self) -> tuple[np.ndarray, np.ndarray]:
        return self.grid.stats()
