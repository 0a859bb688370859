"""What the two mechanisms share: the linear score and the funding bound,
allocation and settlement records, and the checks every report matrix and
outcome map passes.

`WinklerInstance` and `VcgInstance` expose one interface, which is all that
rounds, the CLI and the audits call: `allocate(reports) -> Allocation`,
`settle(reports, outcomes, allocation=None) -> Settlement` (handed the
allocation of those reports, it does not allocate again),
`expost_utility(reports, i, belief_row)`, `engine(i, others)` (a
vectorized interim engine, or None) and `weights_in_force`.

`left_sum` is how the package adds a sequence of floats: left to right,
as Python 3.11's `sum()` does, so results do not change with the Python
version (3.12's `sum()` compensates). `linear_scores` is the one weighted
sum of reports in the package, added in the same order. Both
allocations, Winkler's settlement thresholds, VCG's pivots and rebates,
both interim engines and the audits score through it, so they round alike.
`report_bounds` inverts it exactly: the largest report that keeps a score
at or below a key, which is how the interim engines fund a borrower just
as the allocation does, ties included. Both interim engines score a
coordinate's grid of reports through one block model, `grid_stats`: on
each sample, truth minus a report is affine in per-sample quantities u and
alpha, with coefficients set by whether the truth and the report fund the
coordinate. Winkler's payment gives u and alpha; VCG's two utilities give
u, with alpha 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import MissingOutcome, OutcomeForUnfundedBorrower, ShapeMismatch

# Samples per block while an interim engine builds its per-sample arrays;
# bounds the block's temporaries whatever the sample count.
COLUMN_CHUNK = 16_384
# Half-width of report_bounds' first bracket around the closed form, in
# epsilons of the score scale sum(weights) / w_i. The closed form was off by
# at most 1.2 of them over 6e5 sampled columns (n from 3 to 5); a bracket
# that misses costs iterations, never exactness.
_BRACKET_EPS = 2
_ONE_BITS = int(np.float64(1.0).view(np.int64))

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

    def paid(self, i: int) -> float:
        """The sum of recommender i's outcome-contingent payments."""
        return left_sum(v for (j, _), v in self.contingent.items() if j == i)

    def realized_utility(self, i: int) -> float:
        rebate = self.tcomp[i] if self.tcomp is not None else 0.0
        return self.paid(i) + rebate - self.immediate[i]


def deficit(settlement: Settlement) -> float:
    """Net payment out of the mechanism this round (negative = surplus)."""
    out = left_sum(settlement.contingent.values())
    if settlement.tcomp is not None:
        out += left_sum(settlement.tcomp)
    return float(out - left_sum(settlement.immediate))


def left_sum(values: Iterable[float]) -> float:
    """0.0 plus each value in turn, left to right: bit for bit what
    Python 3.11's `sum()` gives on floats, on every Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


def linear_scores(weights: Sequence, reports) -> np.ndarray:
    """The linear pool sum_j w_j r_j of every column of `reports`.

    The recommender axis is the second to last and any leading axes are
    batches, so an (n, m) report matrix gives m scores and an (S, n, m)
    sample gives (S, m). A weight is a float, or an array that broadcasts
    against the scores, to give each batch its own weights. Terms are added
    left to right in recommender order. A recommender's others' score is
    this sum over the others only, never the total minus their own term; so
    with their report at 0 the score is bit for bit the others' score.
    """
    arr = np.asarray(reports, dtype=float)
    total = np.zeros(arr.shape[:-2] + arr.shape[-1:])
    for j, w in enumerate(weights):
        total += w * arr[..., j, :]
    return total


def mean_se(values) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of per-sample values, samples on the last axis.

    An infinite sample (a log score of -inf, or a difference against one)
    decides its row's mean outright, which is reported with SE 0: -inf if
    any sample is -inf, else +inf. A row is reduced as a 1-D array of its
    own would be, so batching rows does not move a bit.
    """
    values = np.asarray(values, dtype=float)
    samples = values.shape[-1]
    with np.errstate(invalid="ignore"):  # inf - inf in rows replaced below
        mean = values.mean(axis=-1)
        if samples > 1:
            se = values.std(axis=-1, ddof=1) / math.sqrt(samples)
        else:
            se = np.zeros(mean.shape)
    infinite = np.isinf(values).any(axis=-1)
    if infinite.any():
        mean = np.where(np.isneginf(values).any(axis=-1), -np.inf, np.where(infinite, np.inf, mean))
        se = np.where(infinite, 0.0, se)
    return mean, se


def elementwise_column_stats(
    column: Callable[[float], np.ndarray], truth_values: np.ndarray, reports
) -> tuple[np.ndarray, np.ndarray]:
    """`mean_se(truth_values - column(r))` for each report r, bit for bit.

    `column` maps one report to per-sample values. Reports are scored in
    blocks of as many as fit in COLUMN_CHUNK sample values (at least one
    report), so a block's temporaries stay bounded while single-sample
    searches make one reduction per block instead of one per report.
    """
    reports = np.asarray(reports, dtype=float)
    mean, se = np.empty(len(reports)), np.empty(len(reports))
    step = max(1, COLUMN_CHUNK // len(truth_values))
    diffs = np.empty((min(step, len(reports)), len(truth_values)))
    for start in range(0, len(reports), step):
        block = reports[start : start + step]
        for k, report in enumerate(block):
            np.subtract(truth_values, column(float(report)), out=diffs[k])
        mean[start : start + step], se[start : start + step] = mean_se(diffs[: len(block)])
    return mean, se


def merge_moments(counts: np.ndarray, means: np.ndarray, m2: np.ndarray):
    """Merge blocks into one by the Chan-Golub-LeVeque pairwise update,
    pairing neighbours until one block is left: the mean and centered sum
    of squares of each row. `counts` holds one positive count per block
    (column of `means` and `m2`)."""
    while len(counts) > 1:
        if len(counts) % 2:  # an empty block evens the pairs
            counts = np.append(counts, 0.0)
            means, m2 = np.pad(means, ((0, 0), (0, 1))), np.pad(m2, ((0, 0), (0, 1)))
        n_a, n_b = counts[0::2], counts[1::2]
        counts = n_a + n_b
        delta = means[:, 1::2] - means[:, 0::2]
        means = means[:, 0::2] + delta * (n_b / counts)
        m2 = m2[:, 0::2] + m2[:, 1::2] + delta * delta * (n_a * n_b / counts)
    return means[:, 0], m2[:, 0]


def grid_stats(bound, u, alpha, truth: float, reports, gain) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of truth minus each report on one coordinate,
    from per-block moments, in O(samples + reports * blocks).

    On a sample, a report funds the coordinate iff it exceeds the sample's
    `bound`, and truth minus report r is (ft - fr) * u + fr * gain_r * alpha,
    where ft and fr are 1 if the truth and r fund it and 0 if not: `u` and
    `alpha` hold a value per sample, `gain` one per report. The levels (the
    reports and the truth) cut the samples by bound into blocks that the
    same levels fund. One pass reduces each block to its count, the means
    of u and alpha and their three centered co-moments; each (report,
    block) pair then has a closed-form mean and centered sum of squares,
    and `merge_moments` merges the blocks, never through
    sum(d^2) - S * mean^2, which cancels. Reports go in chunks of at most
    COLUMN_CHUNK // blocks (at least one), so a chunk's temporaries stay
    bounded.
    """
    levels = np.unique(np.append(reports, truth))  # the block edges, ascending
    # A sample's block: how many of the levels do not fund it.
    block = np.searchsorted(levels, bound, side="right")
    blocks = len(levels) + 1
    count = np.bincount(block, minlength=blocks).astype(float)
    kept = count > 0
    safe = np.where(kept, count, 1.0)
    mean_alpha, mean_u = (np.bincount(block, v, blocks) / safe for v in (alpha, u))
    dev_alpha, dev_u = alpha - mean_alpha[block], u - mean_u[block]
    m_aa, m_au, m_uu = (
        np.bincount(block, a * b, blocks)[kept]
        for a, b in ((dev_alpha, dev_alpha), (dev_alpha, dev_u), (dev_u, dev_u))
    )
    # The nonempty blocks; the level at position p funds blocks 0 to p.
    index, count = np.flatnonzero(kept), count[kept]
    mean_alpha, mean_u = mean_alpha[kept], mean_u[kept]
    f_truth = (index <= np.searchsorted(levels, truth)).astype(float)
    mean, m2 = np.empty(len(reports)), np.empty(len(reports))
    step = max(1, COLUMN_CHUNK // len(count))
    for start in range(0, len(reports), step):
        rows = slice(start, start + step)
        f_report = (index <= np.searchsorted(levels, reports[rows])[:, np.newaxis]).astype(float)
        c_u = f_truth - f_report
        c_alpha = f_report * gain[rows, np.newaxis]
        means = c_u * mean_u + c_alpha * mean_alpha
        sq = c_alpha * c_alpha * m_aa + 2.0 * c_alpha * c_u * m_au + c_u * c_u * m_uu
        mean[rows], m2[rows] = merge_moments(count, means, np.maximum(sq, 0.0))
    if len(bound) == 1:
        return mean, np.zeros(len(mean))
    return mean, np.sqrt(m2 / (len(bound) - 1)) / math.sqrt(len(bound))


def chunks(samples: int):
    """Slices of at most COLUMN_CHUNK samples that cover `samples`."""
    return (slice(s, s + COLUMN_CHUNK) for s in range(0, samples, COLUMN_CHUNK))


def report_bounds(weights: Sequence[float], i: int, co_reports: np.ndarray, key) -> np.ndarray:
    """Per column, the largest report of recommender i that keeps the linear
    score at or below `key`: -inf when a report of 0 already beats `key`,
    1 when no report in [0, 1] does. So the score beats `key` iff i reports
    above the bound.

    `co_reports` holds the others' reports, (n-1, columns); `key` is a
    scalar or one per column. The score never falls as i's report rises,
    so the bound is found by bisection over the bit patterns of the floats
    in [0, 1], which are ordered as the floats are. It starts from a bracket
    around the closed form (key - others' score) / w_i, checks both ends,
    and keeps iterating only on the columns not yet settled; so it is exact
    whether or not the bracket holds.
    """
    w_i = weights[i]
    # With i's report at 0 the score is the others' score exactly.
    base = linear_scores(weights[:i] + weights[i + 1 :], co_reports)
    key = np.broadcast_to(key, base.shape)
    bound = np.full(base.shape, -np.inf)
    todo = np.flatnonzero(base <= key)
    if w_i == 0.0:  # i's report never moves the score
        bound[todo] = 1.0
        return bound
    column, key = np.insert(co_reports[:, todo], i, 0.0, axis=0), key[todo]  # a slot for i

    def beats(column, key, report) -> np.ndarray:
        column[i] = report
        return linear_scores(weights, column) > key

    # Bit patterns, at most the key at lo and above it at hi; hi starts one
    # past 1.0, which is never evaluated. A settled column (hi = lo + 1) has
    # mid = lo, so further steps leave it as it is.
    lo = np.zeros(len(todo), dtype=np.int64)
    hi = np.full(len(todo), _ONE_BITS + 1)
    with np.errstate(over="ignore"):  # a tiny w_i sends both past 1; clipped below
        seed = (key - base[todo]) / w_i
        slack = _BRACKET_EPS * np.finfo(float).eps * left_sum(weights) / w_i
    for end in (np.clip(seed - slack, 0.0, 1.0), np.clip(seed + slack, 0.0, 1.0)):
        hit = beats(column, key, end)
        bits = end.view(np.int64)
        hi = np.where(hit, np.minimum(hi, bits), hi)
        lo = np.where(hit, lo, np.maximum(lo, bits))
    while True:
        gap = hi - lo
        live = gap > 1
        if 2 * np.count_nonzero(live) <= len(live):
            # Drop the settled columns once they are half of those left.
            bound[todo[~live]] = lo[~live].view(float)
            if not live.any():
                return bound
            todo, lo, hi, gap, key = todo[live], lo[live], hi[live], gap[live], key[live]
            column = column[:, live]
        mid = lo + (gap >> 1)
        hit = beats(column, key, mid.view(float))
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid)


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
