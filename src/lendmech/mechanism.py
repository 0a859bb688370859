"""What the two mechanisms share: the linear score and the funding test,
allocation and settlement records, and the checks every report matrix and
outcome map passes.

`WinklerInstance` and `VcgInstance` expose one interface, which is all that
rounds, the CLI and the audits call: `allocate(reports) -> Allocation`,
`select(scores) -> Allocation` (the same rule applied to the borrowers'
pooled scores, a list of floats; `allocate` is `select` of its reports'
pool), `settle(reports, outcomes, allocation=None) -> Settlement` (handed
the allocation of those reports, it does not allocate again),
`expost_utility(reports, i, belief_row)`, `engine(i, others)` and
`weights_in_force`. Two methods play a stack of rounds on one instance:
(R, n, m) reports, round r under weights `weights[r]` of an (R, n) array,
as a campaign's rounds differ only in their weights (`check_rounds`).
`allocate_rounds(weights, reports)` gives one `Allocation` per round, each
`allocate`'s for its round under its weights. `settle_rounds(weights,
reports, outcomes, allocations=None)` prices the stack in one pass and
gives its `Payments`: the charges, the rebates and every funded loan's
payments as arrays, from which each round's realized utilities and
deficit follow (`accounts`; `Payments.accounts` gives every round's at
once, to the same bits). It is each mechanism's one settlement;
`settle` is a stack of one round, given back as a `Settlement`.

`engine(i, others)` gives an interim engine for recommender i over
co-reports `others`, (samples, n-1, m): the mechanism's vectorized one, or
where it has none (capped Winkler, custom pools) `SampleEngine`, which
scores each sample through `expost_utility`. Every engine is an `Engine`.
`utilities(belief_row, report_row)` gives i's utility on each sample.
`column_stats(true_row, q, reports)` gives, for each report on coordinate
q, with the others at `true_row` and beliefs `true_row`, the mean and
standard error of truth minus that report over the samples; `column`
gives the same over many blocks (below).

`left_sum` is how the package adds a sequence of floats: left to right,
as Python 3.11's `sum()` does, so results do not change with the Python
version (3.12's `sum()` compensates). `linear_scores` is the one weighted
sum of reports in the package, added in the same order; `scores_with`
runs its loop with i's report among the others' without copying them, and
`others_scores` runs it for every recommender's row at once. Both
allocations, Winkler's settlement thresholds, VCG's pivots and rebates,
both interim engines and the audits score through that loop, so they
round alike. `others_scores` gives every recommender's others' score of
one report matrix, or of a stack of rounds, in one pass; both settlements
use it, and VCG's rebates take the scores with each row at 1 from it too.
`FundingTest` is how the interim engines fund a borrower just as the
allocation does, ties included: it places each sample among a grid of
report levels by the closed form where a proven margin decides, and by
the allocation's own test where a level lies nearer. Both interim engines
score a coordinate's grid of reports through one block model, `Grid`: on
each sample, truth minus a report is affine in per-sample quantities u and
alpha, with coefficients set by whether the truth and the report fund the
coordinate. Winkler's payment gives u and alpha; VCG's two utilities give
u, with alpha 0.

A Monte Carlo audit draws its samples in blocks of at most COLUMN_CHUNK
and builds one engine per block, so it never holds them all. Each block
reduces to moments: `Moments`, the count, mean and centered sum of squares
of per-sample values, and `GridMoments`, a coordinate's per level-block
moments. The blocks merge by the pairwise update of Chan, Golub and
LeVeque (Algorithms for Computing the Sample Variance, 1983). A column,
`engine.column(true_row, q, reports)`, holds what one coordinate's grid
needs across a search's blocks: `add(engine, truth_values)` reduces a
block, handed the block's utilities of the truth, and
`stats()` merges the blocks and gives each report's mean and standard
error once. `column_stats` is one block's column.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import MissingOutcome, OutcomeForUnfundedBorrower, ShapeMismatch

# Samples per block: a Monte Carlo audit draws, scores and reduces this
# many at a time, which bounds its arrays whatever the sample count.
COLUMN_CHUNK = 16_384
# Cells of `place`'s table over [0, 2]; a power of two.
PLACE_CELLS = 4096

if TYPE_CHECKING:
    from .vcg import VcgInstance
    from .winkler import WinklerInstance

Instance = Union["WinklerInstance", "VcgInstance"]


@dataclass(frozen=True)
class Allocation:
    """Funding decision over real borrowers plus reserve slots.

    `funded_real`, the funded real borrowers in index order, is computed at
    construction and kept in the instance's `__dict__`, not in a field, so
    equality, hashing and `repr` see only `real` and `reserves_funded`.
    """

    real: tuple[int, ...]
    reserves_funded: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "funded_real", tuple(q for q, f in enumerate(self.real) if f))


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
        return self.accounts()[0][i]

    def accounts(self) -> tuple[tuple[float, ...], float]:
        """`accounts` of the contingent payments in the dict's own order."""
        cells = ((i, q, v) for (i, q), v in self.contingent.items())
        return accounts(cells, self.immediate, self.tcomp)


def accounts(
    cells: Iterable[tuple[int, int, float]], immediate: Sequence[float], tcomp
) -> tuple[tuple[float, ...], float]:
    """Every recommender's realized utility, paid(i) + rebate - charge, and
    the round's deficit, from one pass over its contingent payments `cells`,
    (recommender, borrower, paid) triples. Both sums run in the cells'
    order, as `Settlement.paid` and `left_sum` take it: for a Winkler round
    borrower by borrower, for a VCG round recommender by recommender
    (`Payments.rounds`), not the sorted order a ledger line lists; the
    order moves the deficit's rounding. `tcomp` is None without rebates."""
    paid, out = [0.0] * len(immediate), 0.0
    for i, _, v in cells:
        paid[i] += v
        out += v
    rebates = tcomp if tcomp is not None else (0.0,) * len(paid)
    utilities = tuple(p + rebate - c for p, rebate, c in zip(paid, rebates, immediate))
    if tcomp is not None:
        out += left_sum(tcomp)
    return utilities, float(out - left_sum(immediate))


def deficit(settlement: Settlement) -> float:
    """Net payment out of the mechanism this round (negative = surplus)."""
    return settlement.accounts()[1]


@dataclass(frozen=True, eq=False)  # arrays have no single truth value
class Payments:
    """A settled stack of R rounds, as arrays: each round's allocation, the
    charges `immediate` and the rebates `tcomp`, (R, n) (None when the
    mechanism pays no rebate), and `paid`, one row per funded loan,
    (loans, n): every recommender's outcome-contingent payment on it. The
    loans go round by round, each round's borrowers in index order.

    `recommender_major` is the order in which a round's payments are summed
    (`accounts`) and listed in its `Settlement`: recommender by recommender
    (VCG), else borrower by borrower (Winkler).
    """

    allocations: Sequence[Allocation]
    immediate: np.ndarray
    tcomp: Optional[np.ndarray]
    paid: np.ndarray
    recommender_major: bool

    def rounds(self) -> Iterator[tuple[Allocation, list, tuple, Optional[tuple]]]:
        """Each round's allocation, its contingent payments as (recommender,
        borrower, paid) cells in the summation order, its charges and its
        rebates (None without), every number a Python float."""
        paid = self.paid.tolist()
        charges = map(tuple, self.immediate.tolist())
        rebates = repeat(None) if self.tcomp is None else map(tuple, self.tcomp.tolist())
        n, start = self.immediate.shape[1], 0
        for alloc, immediate, tcomp in zip(self.allocations, charges, rebates):
            funded = alloc.funded_real
            rows = paid[start : start + len(funded)]
            start += len(funded)
            if self.recommender_major:
                cells = [(i, q, row[i]) for i in range(n) for q, row in zip(funded, rows)]
            else:
                cells = [(i, q, v) for q, row in zip(funded, rows) for i, v in enumerate(row)]
            yield alloc, cells, immediate, tcomp

    def accounts(self) -> tuple[np.ndarray, np.ndarray]:
        """Every round's `accounts` at once, as the realized utilities (R, n)
        and the deficits (R,), bit for bit, from numpy adds over the whole
        stack in `accounts`' order.

        The loans are laid out by position, (R, most loans in a round, n),
        with +0.0 where a round has no loan at that position. Each sum then
        takes one loan position at a time over every round, in the
        summation order (`recommender_major`). A padded +0.0 moves no sum:
        a sum that starts at +0.0 is never -0.0 under round-to-nearest, and
        x + 0.0 is x for every other x, infinities and NaN included.
        """
        rounds, n = self.immediate.shape
        counts = np.array([len(alloc.funded_real) for alloc in self.allocations], dtype=np.intp)
        by_round = np.zeros((rounds, counts.max(initial=0), n))
        round_of = np.repeat(np.arange(rounds), counts)
        position = np.arange(len(round_of)) - (np.cumsum(counts) - counts)[round_of]
        by_round[round_of, position] = self.paid
        positions = range(by_round.shape[1])
        paid = left_sums((by_round[:, k] for k in positions), (rounds, n))
        if self.recommender_major:
            cells = (by_round[:, k, i] for i in range(n) for k in positions)
        else:
            cells = (by_round[:, k, i] for k in positions for i in range(n))
        out = left_sums(cells, rounds)
        rebates = np.zeros((rounds, n))
        if self.tcomp is not None:
            rebates = self.tcomp
            out += left_sums(self.tcomp.T, rounds)
        return paid + rebates - self.immediate, out - left_sums(self.immediate.T, rounds)

    def settlement(self, r: int) -> Settlement:
        """Round r's `Settlement`, its contingent payments in summation order."""
        alloc, cells, immediate, tcomp = next(islice(self.rounds(), r, None))
        return Settlement(alloc, immediate, {(i, q): v for i, q, v in cells}, tcomp)


def left_sum(values: Iterable[float]) -> float:
    """0.0 plus each value in turn, left to right: bit for bit what
    Python 3.11's `sum()` gives on floats, on every Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


def left_sums(terms: Iterable[np.ndarray], shape) -> np.ndarray:
    """`left_sum` of every position of the `terms` at once, arrays of
    `shape`: 0.0 plus each term in turn, elementwise."""
    total = np.zeros(shape)
    for term in terms:
        total += term
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
    return _weighted_sum(weights, lambda j: arr[..., j, :], arr.shape[:-2] + arr.shape[-1:])


def scores_with(weights: Sequence[float], co_reports, i: int, report) -> np.ndarray:
    """`linear_scores(weights, np.insert(co_reports, i, report, axis=-2))`
    bit for bit without the copy: the same terms in the same order, i's
    report (a row or a scalar) as term i."""
    co, row = np.asarray(co_reports, dtype=float), np.asarray(report, dtype=float)
    shape = co.shape[:-2] + co.shape[-1:]
    return _weighted_sum(weights, lambda j: row if j == i else co[..., j - (j > i), :], shape)


def _weighted_sum(weights, term: Callable[[int], np.ndarray], shape: tuple) -> np.ndarray:
    """The loop `linear_scores` and `scores_with` share: 0.0 plus each
    w_j * term(j) in turn."""
    total = np.zeros(shape)
    for j, w in enumerate(weights):
        total += w * term(j)
    return total


def masked(values, mask) -> np.ndarray:
    """`np.where(mask, values, 0.0)` bit for bit, for any float64 values
    (-0.0, infinities and NaN included), with no per-sample branch: the
    values' bit patterns times the mask, as integers, and 0 is the pattern
    of +0.0. `values` is an array or a scalar that broadcasts against the
    boolean `mask`.

    The interim engines pick a value or 0.0 on each sample this way. The
    selection rule: a value-or-0.0 pick is this multiply; a mask fixed for a
    whole search is applied by precomputed indices (`WinklerPayment`); a
    pick between two values takes its value by index (`FundingTest`'s
    seed); `np.where` is left to arrays of beliefs and reports (a
    settlement) and to rare fallbacks. Over 16,384 samples with a mask no
    branch predictor learns (2-core Xeon under KVM, numpy 2.4.6, whose
    speed drifts by tens of percent), `np.where` took 63-114 us, a
    boolean-mask assignment 88-128 us, `np.putmask` 77-107 us and `np.put`
    46-64 us; this multiply takes 16-20 us, as a float multiply does (18-26
    us), and an index assignment 14-26 us. A float multiply would be exact
    only for finite values of at least +0.0 (-inf * 0 is NaN, -1 * 0 is
    -0.0); the integer one has no such condition.
    """
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return (bits * mask).view(np.float64)


def others_scores(weights, reports, own: float = 0.0) -> np.ndarray:
    """Row i: the linear score of every column with recommender i's report
    replaced by `own`, for an (n, m) report matrix under n weights, or for
    a stack of them, (..., n, m) under (..., n) weights, each matrix under
    its own weight row.

    At the default `own` of 0 row i is i's others' score: term i adds
    w_i * 0 = +0.0 to a sum that is at least +0.0, which leaves it as it
    is, so the row equals `linear_scores` of `np.delete(reports, i, 0)`
    bit for bit. At 1 it is the score of the matrix with row i at 1.
    One `_weighted_sum` pass adds every row's terms at once: term j is
    report row j on every row but row j, which holds `own`. No (n, n, m)
    stack is built; each term is the size of the reports.
    """
    arr = np.asarray(reports, dtype=float)
    w = np.asarray(weights, dtype=float)
    on_row = np.arange(arr.shape[-2])[:, np.newaxis]
    w_j = np.moveaxis(w, -1, 0)[..., np.newaxis, np.newaxis]  # (n, ..., 1, 1)
    return _weighted_sum(
        w_j, lambda j: np.where(on_row == j, own, arr[..., j, np.newaxis, :]), arr.shape
    )


def mean_se(values) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of per-sample values, samples on the last
    axis: `Moments.of(values).stats()`."""
    return Moments.of(values).stats()


@dataclass(frozen=True)
class Moments:
    """What a block of per-sample values reduces to, per row: the count, the
    mean, the centered sum of squares m2, and whether any value is -inf or
    +inf. Blocks merge (`merge`) into the moments of all their samples."""

    count: int
    mean: np.ndarray
    m2: np.ndarray
    neginf: np.ndarray
    posinf: np.ndarray

    @classmethod
    def of(cls, values) -> "Moments":
        """The moments of `values`, samples on the last axis. The mean and m2
        are the sums `np.mean` and `np.std` take, so one block's `stats` is
        theirs bit for bit; a row is reduced as a 1-D array of its own would
        be, so batching rows does not move a bit."""
        values = np.asarray(values, dtype=float)
        with np.errstate(invalid="ignore"):  # inf - inf in rows `stats` replaces
            mean = values.mean(axis=-1)
            m2 = np.square(values - mean[..., np.newaxis]).sum(axis=-1)
        return cls(
            values.shape[-1], mean, m2,
            np.isneginf(values).any(axis=-1), np.isposinf(values).any(axis=-1),
        )

    @classmethod
    def merge(cls, parts: Sequence["Moments"]) -> "Moments":
        """The moments of every block in `parts` together (`merge_moments`)."""
        shape, blocks = np.shape(parts[0].mean), len(parts)

        def stacked(name: str) -> np.ndarray:
            return np.stack([getattr(p, name) for p in parts], axis=-1).reshape(-1, blocks)

        counts = np.array([p.count for p in parts], dtype=float)
        with np.errstate(invalid="ignore"):
            mean, m2 = merge_moments(counts, stacked("mean"), stacked("m2"))
        return cls(
            sum(p.count for p in parts), mean.reshape(shape), m2.reshape(shape),
            stacked("neginf").any(axis=-1).reshape(shape),
            stacked("posinf").any(axis=-1).reshape(shape),
        )

    def stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard error. An infinite sample (a log score of -inf,
        or a difference against one) decides its row's mean outright, which
        is reported with SE 0: -inf if any sample is -inf, else +inf."""
        samples = self.count
        with np.errstate(invalid="ignore"):
            if samples > 1:
                se = np.sqrt(self.m2 / (samples - 1)) / math.sqrt(samples)
            else:
                se = np.zeros(np.shape(self.mean))
        infinite = self.neginf | self.posinf
        mean = np.where(self.neginf, -np.inf, np.where(self.posinf, np.inf, self.mean))
        return mean, np.where(infinite, 0.0, se)


def elementwise_moments(
    score: Callable[[float], np.ndarray], truth_values: np.ndarray, reports
) -> Moments:
    """`Moments.of(truth_values - score(r))` for each report r, one row each:
    one reduction per report, bit for bit what a batch of the same rows
    gives. `score` maps one report to per-sample values."""
    parts = [Moments.of(truth_values - score(r)) for r in np.asarray(reports, float).tolist()]
    return Moments(
        len(truth_values),
        *(np.array([getattr(p, f) for p in parts], dtype=float) for f in ("mean", "m2")),
        *(np.array([getattr(p, f) for p in parts], dtype=bool) for f in ("neginf", "posinf")),
    )


class Engine:
    """What every interim engine shares. A subclass gives `utilities` and
    `column`; `column_stats` is the column of its one block of samples."""

    def column_stats(self, true_row, q: int, reports) -> tuple[np.ndarray, np.ndarray]:
        column = self.column(true_row, q, reports)
        column.add(self, self.utilities(true_row, true_row))
        return column.stats()


class RowsColumn:
    """Truth minus each of some full report rows, over a search's blocks:
    each block scores every row through the engine's `utilities` and reduces
    it to `Moments`, merged once by `stats`. How `SampleEngine` scores a
    coordinate, and how a search scores its full-row candidates."""

    def __init__(self, true_row, rows) -> None:
        self.truth = tuple(float(v) for v in true_row)
        self.rows = [tuple(float(v) for v in row) for row in rows]
        self.parts: list[Moments] = []

    def add(self, engine, truth_values: np.ndarray) -> None:
        """Reduce one block; `truth_values` are the engine's utilities of the
        truth, scored once per block for every column."""
        score = functools.partial(engine.utilities, self.truth)
        self.parts.append(elementwise_moments(score, truth_values, self.rows))

    def stats(self) -> tuple[np.ndarray, np.ndarray]:
        return Moments.merge(self.parts).stats()


class SampleEngine(Engine):
    """The interim engine of an instance with no vectorized one (capped
    Winkler, custom pools), and the oracle the vectorized engines are
    tested against: on each sample, i's report row goes in among the
    co-reports and `inst.expost_utility` scores the profile."""

    def __init__(self, inst: Instance, i: int, others: np.ndarray) -> None:
        self.inst, self.i, self.others = inst, i, others

    def utilities(self, belief_row, report_row) -> np.ndarray:
        row = np.asarray(report_row, dtype=float)
        return np.array(
            [
                self.inst.expost_utility(np.insert(co, self.i, row, axis=0), self.i, belief_row)
                for co in self.others
            ]
        )

    def column(self, true_row, q: int, reports) -> RowsColumn:
        """Each report's full row, the truth with coordinate q replaced."""
        truth = tuple(float(v) for v in true_row)
        return RowsColumn(truth, [truth[:q] + (r,) + truth[q + 1 :] for r in reports])


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


@dataclass(frozen=True)
class GridMoments:
    """What one block of samples reduces to in `Grid`'s model, per block of
    the levels: the count, the means of u and alpha, and the triangular
    factor R = [[r_uu, r_ua], [0, r_aa]] of the centered (u, alpha)
    columns, so R^T R is their scatter matrix."""

    count: np.ndarray
    mean_u: np.ndarray
    mean_alpha: np.ndarray
    r_uu: np.ndarray
    r_ua: np.ndarray
    r_aa: np.ndarray

    @classmethod
    def of(cls, block: np.ndarray, n_blocks: int, u, alpha) -> "GridMoments":
        """Each sample's level block `block`, and its u and alpha."""
        count = np.bincount(block, minlength=n_blocks).astype(float)
        safe = np.where(count > 0, count, 1.0)
        mean_alpha, mean_u = (np.bincount(block, v, n_blocks) / safe for v in (alpha, u))
        factor = _block_factor(block, n_blocks, u - mean_u[block], alpha - mean_alpha[block])
        return cls(count, mean_u, mean_alpha, *factor)

    @classmethod
    def merge(cls, parts: Sequence["GridMoments"]) -> "GridMoments":
        """The moments of every block in `parts` together, neighbours paired
        until one is left."""
        while len(parts) > 1:
            pairs = [a._merged(b) for a, b in zip(parts[0::2], parts[1::2])]
            parts = pairs + list(parts[2 * len(pairs) :])
        return parts[0]

    def _merged(self, other: "GridMoments") -> "GridMoments":
        """Chan-Golub-LeVeque's update of the means, and R by one
        Gram-Schmidt step over the stacked rows [R_a; R_b; s delta],
        s = sqrt(n_a n_b / n), as `_block_factor` takes it over samples;
        no Gram matrix is formed."""
        a, b = self, other
        count = a.count + b.count
        safe = np.where(count > 0, count, 1.0)
        d_u, d_alpha = b.mean_u - a.mean_u, b.mean_alpha - a.mean_alpha
        s = np.sqrt(a.count * b.count / safe)
        col_u = np.array([a.r_uu, b.r_uu, s * d_u])
        col_alpha = np.array([a.r_ua, b.r_ua, s * d_alpha])  # beside col_u
        r_uu = np.sqrt(np.square(col_u).sum(axis=0))
        r_safe = np.where(r_uu > 0.0, r_uu, 1.0)
        r_ua = (col_u * col_alpha).sum(axis=0) / r_safe
        rest = col_alpha - (r_ua / r_safe) * col_u
        # a's and b's r_aa rows have no u part; they join the rest as they are.
        r_aa = np.sqrt(np.square(rest).sum(axis=0) + np.square(a.r_aa) + np.square(b.r_aa))
        mean_u = a.mean_u + d_u * (b.count / safe)
        mean_alpha = a.mean_alpha + d_alpha * (b.count / safe)
        return GridMoments(count, mean_u, mean_alpha, r_uu, r_ua, r_aa)


class Grid:
    """Mean and standard error of truth minus each report on one coordinate,
    from per-block moments, in O(samples + reports * blocks), over any
    number of blocks of samples.

    The levels (the reports and the truth, ascending) cut the samples into
    level blocks that the same levels fund: each sample's level block is
    the number of levels that do not fund it (`FundingTest.blocks`). On a
    sample, truth minus report r is (ft - fr) * u + fr * gain_r * alpha,
    where ft and fr are 1 if the truth and r fund it and 0 if not: `u` and
    `alpha` hold a value per sample, `gain` one per report. `add` reduces a
    block of samples to each level block's `GridMoments`, and `stats`
    merges them and runs the closed form once: each (report, level block)
    pair has a closed-form mean and centered sum of squares,
    |R (c_u, c_alpha)|^2, a sum of two squares, and `merge_moments` merges
    the level blocks. Neither step goes through sum(d^2) - S * mean^2, or
    expands the square into co-moments, which cancel where a report's
    differences barely vary. Reports go in chunks of at most
    COLUMN_CHUNK // level blocks (at least one), so a chunk's temporaries
    stay bounded.
    """

    def __init__(self, truth: float, reports, gain) -> None:
        self.truth, self.reports, self.gain = truth, np.asarray(reports, dtype=float), gain
        self.levels = np.unique(np.append(self.reports, truth))  # the block edges, ascending
        self.edges: Optional[LevelEdges] = None  # placed at the first block
        self.parts: list[GridMoments] = []

    def blocks(self, funding: "FundingTest") -> np.ndarray:
        """Each sample's level block under `funding`; the levels are placed
        against the first block's margin, which every block of a search shares."""
        self.edges = self.edges or LevelEdges(self.levels, funding.margin)
        return funding.blocks(self.edges)

    def add(self, block: np.ndarray, u, alpha) -> None:
        """Reduce one block of samples: each sample's level block, u and alpha."""
        self.parts.append(GridMoments.of(block, len(self.levels) + 1, u, alpha))

    def stats(self) -> tuple[np.ndarray, np.ndarray]:
        moments = GridMoments.merge(self.parts)
        kept = moments.count > 0
        # The nonempty blocks; the level at position p funds blocks 0 to p.
        index, count = np.flatnonzero(kept), moments.count[kept]
        mean_u, mean_alpha = moments.mean_u[kept], moments.mean_alpha[kept]
        r_uu, r_ua, r_aa = moments.r_uu[kept], moments.r_ua[kept], moments.r_aa[kept]
        levels, reports, gain = self.levels, self.reports, self.gain
        f_truth = (index <= np.searchsorted(levels, self.truth)).astype(float)
        mean, m2 = np.empty(len(reports)), np.empty(len(reports))
        step = max(1, COLUMN_CHUNK // len(count))
        for start in range(0, len(reports), step):
            rows = slice(start, start + step)
            at = np.searchsorted(levels, reports[rows])[:, np.newaxis]
            f_report = (index <= at).astype(float)
            c_u = f_truth - f_report
            c_alpha = f_report * gain[rows, np.newaxis]
            means = c_u * mean_u + c_alpha * mean_alpha
            along = c_u * r_uu + c_alpha * r_ua
            across = c_alpha * r_aa
            mean[rows], m2[rows] = merge_moments(count, means, along * along + across * across)
        samples = int(count.sum())
        if samples == 1:
            return mean, np.zeros(len(mean))
        return mean, np.sqrt(m2 / (samples - 1)) / math.sqrt(samples)


def _block_factor(block: np.ndarray, n_blocks: int, dev_u: np.ndarray, dev_alpha: np.ndarray):
    """Per block, R = [[r_uu, r_ua], [0, r_aa]] with the block's centered
    columns (dev_u, dev_alpha) = (q r_uu, q r_ua + rest): one Gram-Schmidt
    step, q a unit vector (0 where dev_u is) and rest orthogonal to it.
    `dev_alpha` becomes rest; one more per-sample array is used."""
    work = np.square(dev_u)
    r_uu = np.sqrt(np.bincount(block, work, n_blocks))
    r_safe = np.where(r_uu > 0.0, r_uu, 1.0)
    r_ua = np.bincount(block, np.multiply(dev_u, dev_alpha, out=work), n_blocks) / r_safe
    np.take(r_ua / r_safe, block, out=work, mode="clip")  # clip: unbuffered
    dev_alpha -= np.multiply(work, dev_u, out=work)
    return r_uu, r_ua, np.sqrt(np.bincount(block, np.square(dev_alpha, out=work), n_blocks))


def sample_blocks(samples: int) -> list[int]:
    """The sizes of the blocks a search of `samples` samples draws: COLUMN_CHUNK
    each, and the remainder last."""
    return [min(COLUMN_CHUNK, samples - s) for s in range(0, samples, COLUMN_CHUNK)]


def place(edges: np.ndarray, seeds: np.ndarray, table: Optional[np.ndarray] = None) -> np.ndarray:
    """`np.searchsorted(edges, seeds, side="right")` for ascending `edges`,
    from a table of PLACE_CELLS equal cells over [0, 2] and one from 2:
    `place_table(edges)`, built here unless given.

    A seed's cell is its product with PLACE_CELLS / 2, exact, rounded down
    (an offset added first would round a seed one ulp below a cell into
    it). A seed in a cell no edge lies strictly inside takes the rank of
    the cell's start, and -inf that of -inf; the rest are searched.
    """
    if table is None:
        table = place_table(edges)
    scaled = np.fmin(np.fmax(seeds * (PLACE_CELLS / 2.0), -1.0), PLACE_CELLS + 1.0)
    rank = table[np.floor(scaled).astype(np.intp)]
    rank[np.flatnonzero(np.isneginf(seeds))] = np.searchsorted(edges, -np.inf, side="right")
    todo = np.flatnonzero(rank < 0)
    rank[todo] = np.searchsorted(edges, seeds[todo], side="right")
    return rank


def place_table(edges: np.ndarray) -> np.ndarray:
    """`place`'s table: per cell, the rank of its start, or -1 (search) where
    an edge lies strictly inside. The last slot takes seeds past the cells
    and, as index -1, negative seeds and NaN."""
    starts = np.arange(PLACE_CELLS + 2) / (PLACE_CELLS / 2.0)
    at_start = np.searchsorted(edges, starts, side="right")
    split = np.searchsorted(edges, starts[1:], side="left") > at_start[:-1]
    return np.append(np.where(split, -1, at_start[:-1]), -1)


class LevelEdges:
    """Ascending report levels placed against a `FundingTest` margin M: the
    edges L - M and L + M sorted, with `place`'s table of them, and for
    each count of sorted edges at or below a seed how many levels cannot
    fund (L + M <= seed) and how many might (L - M <= seed). Both are
    prefixes of the levels; the levels between are near. Built once, it
    serves every block of samples whose test has margin M."""

    def __init__(self, levels, margin: float) -> None:
        self.levels, self.margin = np.asarray(levels, dtype=float), margin
        edges = np.concatenate([self.levels - margin, self.levels + margin])
        order = np.argsort(edges, kind="stable")
        self.below = np.concatenate([[0], np.cumsum(order >= len(self.levels))])
        self.maybe = np.concatenate([[0], np.cumsum(order < len(self.levels))])
        self.sorted = edges[order]
        self.table = place_table(self.sorted)


def funding_margin(weights: Sequence[float], w_i: float) -> float:
    """`FundingTest`'s margin M for a positive weight w_i:
    min((4 gamma_{n+2} (W + K) + n s) / w_i + 16u, 4), W = `left_sum(weights)`
    and K = max(W, 1), derived there. It falls as w_i rises."""
    n, u = len(weights), 2.0**-53
    gamma = (n + 2) * u / (1.0 - (n + 2) * u)
    total = left_sum(weights)
    scale = total + max(total, 1.0)
    tiny = n * 2.0**-1074  # n times the smallest subnormal
    return min((4.0 * gamma * scale + tiny) / w_i + 16 * u, 4.0)


class FundingTest:
    """Whether recommender i's report funds a column, on each sample: the
    allocation's own test, linear score > `key`, ties included.

    `co_reports` holds the others' reports, (n-1, samples), and is kept as
    given (a view is not copied); `key` is a scalar or one per sample, at
    most K = max(sum(weights), 1) (a larger one raises `ValueError`), and
    -inf funds every sample; `base`, if given, is the others' score B,
    which the test otherwise computes. The score never falls as i's report
    rises, so on each sample the reports that fund form an upper range.
    `blocks` places every sample among ascending report levels in [0, 1]
    (`LevelEdges`), and `funds` answers for one report.

    Each sample holds the closed form t = (key - B) / w_i, B the others'
    score, which is the score with i's report at 0 bit for bit; a sample
    with B > key is funded by every report (t = -inf), and t is clipped
    above at 2. The seed is min(t, cap) with each sample's cap, 2 or -inf,
    taken by index (`np.take`): the select `np.where(B > key, -inf,
    min(t, 2))` bit for bit, at about a third of its cost (see `masked`).
    One margin M, set by the pool and w_i, decides every level L with
    |L - t| >= M by the closed form (`place` ranks t among the L +- M);
    nearer levels are scored exactly, one `scores_with` pass each.

    The margin. Write W = sum(w), K = max(W, 1), u = 2**-53 and
    gamma_k = k u / (1 - k u). The engines' keys are at most K: Winkler's
    is c < 1; VCG's is -inf, c, or a score at most one ulp lower, and a
    score is at most W, as rounding is monotone and w_j r_j <= w_j. A
    left-to-right dot product of n terms with reports in [0, 1] is within
    gamma_n W of its exact value (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, 3.1), plus 2**-1075 per product that
    underflows. So the score at L is within (gamma_n + gamma_{n-1}) W + n s
    of B + w_i L, with s = 2**-1074 the smallest subnormal. Where
    B <= key, d = key - B lies in [0, K], and t is within
    gamma_2 d / w_i + s of d / w_i. Together: a level L <= t - M leaves the
    score at or below the key, and a level L > t + M lifts it above,
    whenever M >= (3 gamma_{n+2} (W + K) + n s) / w_i + s. The test takes
    M = (4 gamma_{n+2} (W + K) + n s) / w_i + 16u (`funding_margin`); the
    spare terms cover the rounding of M itself and of L +- M, for |t| <= 2,
    M <= 4.
    Above 4 (a tiny w_i; an overflow gives inf) M is capped at 4, which
    leaves every level in [0, 1] to the exact pass, as a larger margin
    would. With w_i = 0 the score is B whatever i reports, bit for bit, so
    t is the exact bound, 1 where B <= key, and M = 0.
    """

    def __init__(
        self, weights: Sequence[float], i: int, co_reports: np.ndarray, key, base=None
    ) -> None:
        self.weights, self.i, self.co_reports = weights, i, co_reports
        w_i = weights[i]
        if base is None:
            base = linear_scores(weights[:i] + weights[i + 1 :], co_reports)
        if np.max(key, initial=-np.inf) > max(left_sum(weights), 1.0):
            raise ValueError(f"a funding key above max(sum of weights, 1): {np.max(key)}")
        self.key = np.broadcast_to(np.asarray(key, dtype=float), base.shape)
        funded = base > self.key  # at a report of 0, so at every report
        if w_i == 0.0:  # the seed is the exact bound
            self.seed, self.margin = np.take([1.0, -np.inf], funded), 0.0
            return
        with np.errstate(over="ignore"):  # a tiny w_i; clipped
            self.seed = np.minimum((self.key - base) / w_i, np.take([2.0, -np.inf], funded))
        self.margin = funding_margin(weights, w_i)

    def blocks(self, edges: LevelEdges) -> np.ndarray:
        """For each sample, how many of the ascending levels of `edges` do
        not fund it. `edges` must be placed against this test's margin."""
        if edges.margin != self.margin:
            raise ValueError(f"levels placed against margin {edges.margin}, not {self.margin}")
        rank = place(edges.sorted, self.seed, edges.table)
        near = np.flatnonzero((edges.maybe > edges.below)[rank])
        stop = edges.maybe[rank[near]]
        block = edges.below[rank]
        while len(near):  # test each near sample's lowest level not yet settled
            unfunded = self._unfunded(near, edges.levels[block[near]])
            block[near] += unfunded
            live = unfunded & (block[near] < stop)
            near, stop = near[live], stop[live]
        return block

    def funds(self, report: float) -> np.ndarray:
        """Per sample, whether `report` funds it: `blocks` of the one level
        `report` is 0, from two comparisons per sample instead of a search."""
        unfunded = self.seed >= report + self.margin
        near = np.flatnonzero(~unfunded & (self.seed >= report - self.margin))
        if len(near):
            unfunded[near] = self._unfunded(near, report)
        return ~unfunded

    def _unfunded(self, near: np.ndarray, report) -> np.ndarray:
        """Whether `report` (a scalar, or one per sample) leaves each of the
        samples `near` unfunded, by the allocation's own test."""
        scores = scores_with(self.weights, self.co_reports[:, near], self.i, report)
        return scores <= self.key[near]


def check_rounds(inst, weights, reports, *per_round: Optional[Sequence], weighted: bool = True):
    """`weights` and `reports` checked as a stack of rounds on `inst`, which
    allocate or settle in one call: (R, n) weights, round r's under
    `weights[r]`, finite and nonnegative unless the instance reads none
    (`weighted` false: a custom pool, whose `weights_in_force` is NaN), and
    (R, n, m) reports, as two float arrays. Each of `per_round` that is not
    None must hold one entry per round."""
    try:
        w = np.asarray(weights, dtype=float)
    except (TypeError, ValueError):
        raise ShapeMismatch(f"weights is not an (R, {inst.n}) array of numbers") from None
    if w.ndim != 2 or w.shape[1] != inst.n:
        raise ShapeMismatch(f"weights shape {w.shape} != (R, {inst.n})")
    if not len(w):
        raise ValueError("need at least one round")
    if weighted and not np.all(np.isfinite(w) & (w >= 0.0)):
        raise ValueError("weights must be finite and nonnegative")
    if any(values is not None and len(values) != len(w) for values in per_round):
        raise ValueError(f"need one entry per round for each of the {len(w)} rounds")
    return w, check_reports(reports, (len(w), inst.n, inst.m))


def one_round(inst, reports) -> tuple[np.ndarray, np.ndarray]:
    """`reports`, checked as an (n, m) matrix, as a stack of one round under
    the instance's own weights (`weights_in_force`): (1, n) and (1, n, m)."""
    arr = check_reports(reports, (inst.n, inst.m))
    return np.array([inst.weights_in_force], dtype=float), arr[np.newaxis]


def stack_loans(allocations: Sequence[Allocation], outcomes: Sequence[Mapping[int, int]]):
    """Every funded loan of a stack, round by round and each round's
    borrowers in index order: its round, borrower and outcome, as three int
    arrays. Each round's outcomes are checked against its allocation
    (`check_outcomes`) first; both settlements start here."""
    for alloc, realized in zip(allocations, outcomes):
        check_outcomes(alloc.funded_real, realized)
    loans = [
        (r, q, outcomes[r][q]) for r, alloc in enumerate(allocations) for q in alloc.funded_real
    ]
    return np.array(loans, dtype=int).reshape(-1, 3).T


def check_reports(reports, shape: tuple[int, int], field: str = "reports") -> np.ndarray:
    """`reports` as a float matrix of `shape` with every entry in [0, 1]."""
    try:
        arr = np.asarray(reports, dtype=float)
    except (TypeError, ValueError):
        raise ShapeMismatch(f"{field} is not a {shape} array of numbers") from None
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
