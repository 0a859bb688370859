"""Empirical verification of the mechanisms' incentive claims.

Every desideratum (efficiency, weak/strict ex post truthfulness, strict
interim truthfulness, participation rationality) is an executable check.
Ex post checks fix the co-reports and use exact expectations over the
recommender's own beliefs, so they are noise-free. Interim checks are
seeded Monte Carlo over a prior on co-reports; truth and each misreport
are evaluated on the same sampled co-reports, and the decision statistic
is the paired per-sample difference with its standard error. Verdicts are
pass / violation / inconclusive, never coerced: a violation always carries
a replayable witness, and statistical ties are surfaced as inconclusive.
"""

from __future__ import annotations

import dataclasses
import itertools as it
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from . import vcg as vcg_mod
from . import winkler as winkler_mod
from .aggregation import aggregate_columns
from .errors import ReproductionMismatch, ScenarioError
from .mechanism import Instance, Moments, RowsColumn, check_reports, left_sum, linear_scores
from .mechanism import sample_blocks
from .priors import PriorSpec, is_degenerate, sample_others, sample_profiles
from .rounds import build_instance
from .vcg import VcgInstance
from .winkler import WinklerInstance

if TYPE_CHECKING:
    from .scenario import Scenario

EXACT_TOL = 1e-9
EQUAL_SHIFT_TOL = 1e-9
# How far the chosen allocation's welfare may sit from the brute-force
# best, and a raised weight's utility gain from 0, and still count as equal.
WELFARE_TOL = 1e-12
GAIN_TOL = 1e-12
SE_MULTIPLIER = 2.0
# The most misreport outcomes a verdict keeps in its details: every win
# and tie first, then losses.
DETAILS_LIMIT = 512
# The fewest Monte Carlo samples a verdict rests on: a best-response search,
# and a grain-of-no-veto estimate. Scenario blocks and CLI flags are held to
# these too.
MIN_SEARCH_SAMPLES = 100
MIN_GRAIN_SAMPLES = 1000


# ── misreport strategies ──────────────────────────────────────────────


def _check_count(field: str, value) -> None:
    """A strategy's count must be an integer >= 1; a bool is not one."""
    if not isinstance(value, numbers.Integral) or isinstance(value, (bool, np.bool_)) or value < 1:
        raise ValueError(f"{field} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class SingleCoordinateGrid:
    """Deviate one borrower coordinate at a time over an evenly spaced grid."""

    points: int = 101

    def __post_init__(self) -> None:
        _check_count("SingleCoordinateGrid.points", self.points)


@dataclass(frozen=True)
class FullRowRandom:
    """Uniformly random full report rows."""

    count: int = 200

    def __post_init__(self) -> None:
        _check_count("FullRowRandom.count", self.count)


@dataclass(frozen=True)
class EqualShift:
    """Shift every coordinate by the same delta, clamped into [0, 1].

    A clamped shift is no longer a pure equal shift and is flagged as such.
    """

    deltas: tuple[float, ...] = (-0.2, -0.1, -0.05, 0.05, 0.1, 0.2)

    def __post_init__(self) -> None:
        if not all(math.isfinite(delta) for delta in self.deltas):
            raise ValueError(f"EqualShift.deltas must be finite, got {self.deltas!r}")


@dataclass(frozen=True)
class Targeted:
    """Explicit misreport rows, e.g. witness profiles from known failures."""

    rows: tuple[tuple[float, ...], ...]


MisreportStrategy = Union[SingleCoordinateGrid, FullRowRandom, EqualShift, Targeted]


def is_equal_shift(true_row: Sequence[float], row: Sequence[float]) -> bool:
    """True when the row sits at a constant offset from the truth."""
    offsets = [r - t for r, t in zip(row, true_row)]
    return max(offsets) - min(offsets) <= EQUAL_SHIFT_TOL


@dataclass(frozen=True)
class Candidate:
    row: tuple[float, ...]
    kind: str
    coordinate: Optional[int] = None
    equal_shift: bool = False
    clamped: bool = False


def generate_misreports(
    true_row: Sequence[float],
    strategies: Union[MisreportStrategy, Sequence[MisreportStrategy]],
    rng: np.random.Generator,
) -> list[Candidate]:
    """Expand strategies into concrete misreport rows (truth excluded).

    A row within 1e-12 of the truth in every coordinate is not a misreport
    and is dropped; `equal_shift` is `is_equal_shift` of the row. Each
    strategy's rows are built and judged as one array.
    """
    if not isinstance(strategies, (list, tuple)):
        strategies = (strategies,)
    truth = np.array([float(v) for v in true_row])
    m = len(truth)
    out: list[Candidate] = []

    def push(rows: np.ndarray, kind: str, coordinate: Optional[int], clamped) -> None:
        offsets = rows - truth
        keep = np.abs(offsets).max(axis=1) > 1e-12
        shift = offsets.max(axis=1) - offsets.min(axis=1) <= EQUAL_SHIFT_TOL
        clamped = np.broadcast_to(clamped, keep.shape)
        out.extend(
            Candidate(row=tuple(row), kind=kind, coordinate=coordinate, equal_shift=es, clamped=cl)
            for row, es, cl in zip(
                rows[keep].tolist(), shift[keep].tolist(), clamped[keep].tolist()
            )
        )

    for strategy in strategies:
        if isinstance(strategy, SingleCoordinateGrid):
            grid = np.linspace(0.0, 1.0, strategy.points)
            for q in range(m):
                rows = np.tile(truth, (len(grid), 1))
                rows[:, q] = grid
                push(rows, "single-coordinate", q, False)
        elif isinstance(strategy, FullRowRandom):
            push(rng.random((strategy.count, m)), "random-row", None, False)
        elif isinstance(strategy, EqualShift):
            deltas = np.asarray(strategy.deltas, dtype=float)[:, np.newaxis]
            shifted = np.minimum(1.0, np.maximum(0.0, truth + deltas))
            clamped = (np.abs((shifted - truth) - deltas) > 1e-12).any(axis=1)
            push(shifted, "equal-shift", None, clamped)
        elif isinstance(strategy, Targeted):
            shape = (len(strategy.rows), m)
            rows = strategy.rows if len(strategy.rows) else np.empty(shape)
            push(check_reports(rows, shape, "targeted rows"), "targeted", None, False)
        else:
            raise TypeError(f"unknown misreport strategy {strategy!r}")
    return out


# ── verdicts ──────────────────────────────────────────────────────────


@dataclass(frozen=True)
class MisreportOutcome:
    candidate: Candidate
    mean_gain: float  # misreport mean minus truthful mean
    std_error: float  # of the paired per-sample difference
    classification: str  # "loses" | "ties" | "wins"


@dataclass(frozen=True)
class SearchCounts:
    candidates: int = 0
    wins: int = 0
    losses: int = 0
    ties: int = 0
    equal_shift_candidates: int = 0
    equal_shift_wins: int = 0
    equal_shift_losses: int = 0
    equal_shift_ties: int = 0


@dataclass(frozen=True)
class AuditVerdict:
    desideratum: str
    verdict: str  # "pass" | "violation" | "inconclusive"
    truth_mean: float
    truth_std_error: float
    samples: int
    seed: Optional[int]
    counts: SearchCounts
    witness: Optional[MisreportOutcome]
    details: tuple[MisreportOutcome, ...]
    notes: tuple[str, ...] = ()


def _assemble_verdict(
    desideratum: str,
    candidates: Sequence[Candidate],
    mean_diff,
    se,
    tol: Optional[float],
    truth_mean: float,
    truth_se: float,
    samples: int,
    seed: Optional[int],
    notes: tuple[str, ...] = (),
) -> AuditVerdict:
    """Judge `desideratum` from each candidate's truth-minus-misreport mean
    difference and the standard error of that difference.

    A candidate loses when its difference exceeds the margin and wins when
    it falls below minus the margin. The margin is the exact tolerance
    `tol`, or for Monte Carlo (`tol` None) SE_MULTIPLIER standard errors,
    which are never negative. Anything else ties, NaN included. The witness
    is the first win with the largest gain. Outcomes are built only for it
    and for the details: wins, then ties, then losses, each in candidate
    order, at most DETAILS_LIMIT.
    """
    mean_diff, se = np.asarray(mean_diff, dtype=float), np.asarray(se, dtype=float)
    margin = SE_MULTIPLIER * se if tol is None else tol
    loses, wins = mean_diff > margin, mean_diff < -margin
    ties = ~(loses | wins)
    shift = np.array([c.equal_shift for c in candidates], dtype=bool)
    masks = (wins, loses, ties, shift, wins & shift, loses & shift, ties & shift)
    counts = SearchCounts(len(candidates), *np.count_nonzero(masks, axis=1).tolist())

    def outcome(k: int, classification: str) -> MisreportOutcome:
        return MisreportOutcome(candidates[k], -float(mean_diff[k]), float(se[k]), classification)

    witness = None
    if counts.wins > 0:
        verdict = "violation"
        witness = outcome(np.flatnonzero(wins)[np.argmax(-mean_diff[wins])], "wins")
    elif desideratum == "weak-epic" or (
        # strict truthfulness up to equal shifts: every genuine deviation lost
        counts.ties == counts.equal_shift_ties
        and counts.candidates > counts.equal_shift_candidates
    ):
        verdict = "pass"
    else:
        verdict = "inconclusive"
    groups = (("wins", wins), ("ties", ties), ("loses", loses))
    details = (outcome(k, label) for label, mask in groups for k in np.flatnonzero(mask))
    return AuditVerdict(
        desideratum=desideratum,
        verdict=verdict,
        truth_mean=truth_mean,
        truth_std_error=truth_se,
        samples=samples,
        seed=seed,
        counts=counts,
        witness=witness,
        details=tuple(it.islice(details, DETAILS_LIMIT)),
        notes=notes,
    )


# ── interim utility and best-response search ──────────────────────────


def _draws(inst: Instance, i: int, prior: PriorSpec, samples: int, rng: np.random.Generator):
    """The co-reports an interim check scores, one block at a time, each
    (count, n-1, m): a point prior's profile without row i as one exact
    block, or else `sample_blocks(samples)` draws from `rng` in turn. For
    uniform and beta priors the blocks are, row for row, the one draw of
    all the samples; a product grid draws each block cell by cell."""
    if is_degenerate(prior):
        profile = check_reports(prior.profile, (inst.n, inst.m), "prior profile")
        yield np.delete(profile, i, axis=0)[np.newaxis]
        return
    for count in sample_blocks(samples):
        yield sample_others(prior, inst.n, inst.m, i, count, rng)


def interim_utility(
    inst: Instance,
    i: int,
    true_row: Sequence[float],
    report_row: Sequence[float],
    prior: PriorSpec,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """(mean, standard error) of interim utility; exact for point priors.

    Co-recommenders report truthfully with beliefs drawn from the prior;
    the expectation over repayment outcomes uses recommender i's own
    beliefs. Deterministic per seed; the samples are drawn and reduced a
    block at a time (`_draws`).
    """
    check_reports([true_row], (1, inst.m), "true_row")
    check_reports([report_row], (1, inst.m), "report_row")
    if is_degenerate(prior):
        profile = check_reports(prior.profile, (inst.n, inst.m), "prior profile").copy()
        profile[i] = report_row
        return inst.expost_utility(profile, i, true_row), 0.0
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    draws = _draws(inst, i, prior, samples, np.random.default_rng(seed))
    parts = [Moments.of(inst.engine(i, o).utilities(true_row, report_row)) for o in draws]
    mean, se = Moments.merge(parts).stats()
    return float(mean), float(se)


def best_response_search(
    inst: Instance,
    i: int,
    true_row: Sequence[float],
    prior: PriorSpec,
    strategy: Union[MisreportStrategy, Sequence[MisreportStrategy]],
    samples: int,
    seed: int,
    desideratum: str = "strict-iic",
) -> AuditVerdict:
    """Search misreports for recommender i and judge the desideratum.

    Point priors make this an exact ex post check (no sampling noise, the
    1e-9 tolerance decides); otherwise truth and every candidate share the
    same seeded co-report samples and each comparison uses the paired
    difference and its standard error. The samples are drawn, scored and
    reduced one block at a time (`_draws`), one engine per block, and never
    held together. Candidates that move one coordinate are scored through
    one `column` per coordinate; full-row candidates through a
    `RowsColumn`. Each block scores the truth once, hands its utilities to
    every column as it adds the block's moments, and they merge once.
    """
    check_reports([true_row], (1, inst.m), "true_row")
    seq = np.random.SeedSequence(seed)
    rng_samples, rng_candidates = (np.random.default_rng(s) for s in seq.spawn(2))
    candidates = generate_misreports(true_row, strategy, rng_candidates)
    exact = is_degenerate(prior)
    if not exact and samples < MIN_SEARCH_SAMPLES:
        raise ValueError(
            f"need samples >= {MIN_SEARCH_SAMPLES} for a Monte Carlo verdict, got {samples}"
        )

    groups: dict[Optional[int], list[int]] = {}
    for k, candidate in enumerate(candidates):
        groups.setdefault(candidate.coordinate, []).append(k)
    rows = groups.pop(None, [])  # the full-row candidates
    full = RowsColumn(true_row, [candidates[k].row for k in rows])
    columns, truth = None, []
    for others in _draws(inst, i, prior, samples, rng_samples):
        engine = inst.engine(i, others)
        del others  # the engine keeps what it needs from the samples
        if columns is None:  # what each coordinate's grid needs, set once
            columns = {
                q: engine.column(true_row, q, [candidates[k].row[q] for k in members])
                for q, members in groups.items()
            }
        truth_values = engine.utilities(true_row, true_row)
        truth.append(Moments.of(truth_values))
        for column in [*columns.values(), full]:
            column.add(engine, truth_values)
        del engine, truth_values  # one block's engine at a time
    truth_moments = Moments.merge(truth)
    mean_diff, se = np.empty(len(candidates)), np.empty(len(candidates))
    for q, members in groups.items():
        mean_diff[members], se[members] = columns[q].stats()
    mean_diff[rows], se[rows] = full.stats()
    truth_mean, truth_se = (float(v) for v in truth_moments.stats())
    notes = ("point prior: exact ex post evaluation, no sampling noise",) if exact else ()
    return _assemble_verdict(
        desideratum, candidates, mean_diff, se, EXACT_TOL if exact else None,
        truth_mean, truth_se, truth_moments.count, seed, notes,
    )


# ── grain of no veto ──────────────────────────────────────────────────


@dataclass(frozen=True)
class GrainReport:
    """Estimated probability that others' reports alone fund a borrower."""

    estimates: tuple[tuple[float, ...], ...]
    zero_pairs: tuple[tuple[int, int], ...]
    samples: int
    seed: int

    @property
    def all_positive(self) -> bool:
        return not self.zero_pairs


def grain_of_no_veto(
    inst: WinklerInstance, prior: PriorSpec, samples: int, seed: int
) -> GrainReport:
    """Per (recommender, borrower): P[aggregate with their report at 0 > c],
    counted over profiles drawn a block at a time (`sample_blocks`)."""
    if samples < MIN_GRAIN_SAMPLES and not is_degenerate(prior):
        raise ValueError(
            f"need samples >= {MIN_GRAIN_SAMPLES} for a stable estimate, got {samples}"
        )
    rng = np.random.default_rng(seed)
    funded = np.zeros((inst.n, inst.m), dtype=np.int64)
    for count in sample_blocks(samples):
        profiles = sample_profiles(prior, inst.n, inst.m, count, rng)
        for i in range(inst.n):
            vetoed = profiles.copy()
            vetoed[:, i, :] = 0.0
            scores = aggregate_columns(inst.aggregator, vetoed)
            funded[i] += np.count_nonzero(scores > inst.threshold, axis=0)
    estimates = funded / samples
    zero_pairs = tuple(
        (i, q) for i in range(inst.n) for q in range(inst.m) if estimates[i, q] == 0.0
    )
    return GrainReport(
        estimates=tuple(tuple(float(v) for v in row) for row in estimates),
        zero_pairs=zero_pairs,
        samples=samples,
        seed=seed,
    )


# ── efficiency and participation checks ───────────────────────────────


def check_profiles(n: int, m: int, reports, trials: int, seed: int) -> list[np.ndarray]:
    """The profiles a per-profile check runs on: `reports`, when given, then
    `trials` uniform random n x m profiles drawn from `seed`."""
    rng = np.random.default_rng(seed)
    profiles = [np.asarray(reports, dtype=float)] if reports is not None else []
    return profiles + [rng.random((n, m)) for _ in range(trials)]


def brute_force_welfare(inst: VcgInstance, reports) -> float:
    """Best feasible welfare by enumerating every funding set (small m only)."""
    scores = vcg_mod.aggregate_scores(inst, reports)
    c, n_res = inst.reserve_threshold, inst.n_reserves
    items = [float(s) for s in scores] + [c] * n_res
    best = 0.0
    for size in range(min(inst.K, len(items)) + 1):
        for combo in it.combinations(range(len(items)), size):
            best = max(best, left_sum(items[j] for j in combo))
    return best


def allocative_efficiency_check(inst: VcgInstance, reports) -> bool:
    """Chosen allocation achieves the brute-force maximum welfare."""
    scores = vcg_mod.aggregate_scores(inst, reports)
    achieved = vcg_mod._welfare(scores, inst.reserve_threshold, vcg_mod.allocate(inst, reports))
    return abs(achieved - brute_force_welfare(inst, reports)) <= WELFARE_TOL


def ex_post_ir_check(inst: Instance, profile) -> tuple[bool, float, Optional[int]]:
    """Truthful expected utility is nonnegative for every recommender.

    Returns (ok, worst utility, worst recommender).
    """
    arr = np.asarray(profile, dtype=float)
    worst, worst_i = math.inf, None
    for i in range(inst.n):
        value = inst.expost_utility(arr, i, arr[i])
        if value < worst:
            worst, worst_i = value, i
    return worst >= -EXACT_TOL, worst, worst_i


def strong_ex_post_ir_check(
    inst: VcgInstance, reports
) -> tuple[bool, float, Optional[tuple[int, tuple[int, ...]]]]:
    """Realized utility >= 0 for every recommender and every outcome vector.

    Enumerates all 2^(funded) outcome vectors, so keep K small. Requires
    the rebate to be enabled on the instance to have any chance of passing.
    Allocates and settles once: per outcome vector only the contingent
    payments change.
    """
    arr = np.asarray(reports, dtype=float)
    alloc = vcg_mod.allocate(inst, arr)
    funded = alloc.funded_real
    settled = vcg_mod.settle(inst, arr, dict.fromkeys(funded, 0), allocation=alloc)
    worst, witness = math.inf, None
    for bits in it.product((0, 1), repeat=len(funded)):
        contingent = vcg_mod.contingent_payments(inst, funded, dict(zip(funded, bits)))
        settlement = dataclasses.replace(settled, contingent=contingent)
        for i in range(inst.n):
            value = settlement.realized_utility(i)
            if value < worst:
                worst, witness = value, (i, bits)
    return worst >= -EXACT_TOL, worst, witness


# ── weight incentive check ────────────────────────────────────────────


def weight_monotonicity_check(
    inst: VcgInstance,
    i: int,
    w_low: float,
    w_high: float,
    reports=None,
    trials: int = 0,
    seed: int = 0,
) -> AuditVerdict:
    """Raising recommender i's weight (no renormalization) must strictly
    raise their truthful utility whenever they value the funded set.

    Checks the supplied report profile and `trials` uniform random ones.
    Profiles where i's value on the low-weight allocation is zero are the
    documented edge case and are skipped (counted in the notes).
    """
    if not 0.0 < w_low < w_high:
        raise ValueError(f"need 0 < w_low < w_high, got {w_low}, {w_high}")
    profiles = check_profiles(inst.n, inst.m, reports, trials, seed)
    low = dataclasses.replace(inst, weights=inst.weights[:i] + (w_low,) + inst.weights[i + 1 :])
    high = dataclasses.replace(inst, weights=inst.weights[:i] + (w_high,) + inst.weights[i + 1 :])
    skipped = 0
    candidates, gains = [], []
    for profile in profiles:
        alloc_low = vcg_mod.allocate(low, profile)
        value_low = left_sum(float(profile[i, q]) for q in alloc_low.funded_real)
        if value_low <= 0.0:
            skipped += 1
            continue
        u_low = low.expost_utility(profile, i, profile[i])
        u_high = high.expost_utility(profile, i, profile[i])
        candidates.append(Candidate(row=tuple(profile[i]), kind="weight-raise"))
        gains.append(u_high - u_low)

    notes = (f"skipped {skipped} profiles with zero value on the funded set",)
    return _assemble_verdict(
        "weight-monotonicity", candidates, gains, np.zeros(len(gains)), GAIN_TOL, 0.0, 0.0,
        len(profiles), seed, notes,
    )


# ── bundled counterexample reproduction ───────────────────────────────


@dataclass(frozen=True)
class Reference:
    """Reference values of the capped-Winkler counterexample; the misreport
    is the first `targeted` row of the `audit.weak-epic` block."""

    tolerance: float
    aggregates: tuple[float, ...]
    thresholds: tuple[tuple[float, ...], ...]
    honest_utilities: tuple[float, ...]
    misreport_utilities: tuple[float, ...]
    honest_funded: int
    misreport_funded: int


# (Reference field, the cell a mismatch names) for every compared field;
# a borrower index must match exactly, a number within the tolerance.
_CELLS = (
    ("aggregates", "aggregate"),
    ("thresholds", "threshold"),
    ("honest_utilities", "honest utility"),
    ("misreport_utilities", "misreport utility"),
    ("honest_funded", "honest funded borrower"),
    ("misreport_funded", "misreport funded borrower"),
)


@dataclass(frozen=True)
class Table1Report(Reference):
    """Computed values for the bundled capped-Winkler fixture, with the
    reference they were checked against."""

    misreporter: int
    expected: Reference
    max_abs_error: float


def _cells(value, index: str = ""):
    """(index, number) for every number of a field, e.g. ('[1][0]', 0.2)."""
    if isinstance(value, tuple):
        for k, item in enumerate(value):
            yield from _cells(item, f"{index}[{k}]")
    else:
        yield index, value


def reproduce_table1() -> Table1Report:
    """Recompute the bundled capped-Winkler counterexample from first
    principles and compare every cell against its reference value.

    Raises ReproductionMismatch naming the first offending cell.
    """
    from .scenario import load_bundled  # scenario imports this module

    return reproduce_reference(load_bundled("table1"))


def reproduce_reference(sc: Scenario) -> Table1Report:
    """Verify a scenario's reference block against freshly computed values."""
    expected = sc.reference
    if expected is None:
        raise ScenarioError(f"{sc.source}: scenario has no reference block")
    inst = build_instance(sc.mechanism, sc.n, sc.m, sc.threshold, sc.weights, sc.cap)
    beliefs = np.asarray(sc.beliefs, dtype=float)
    misreporter = sc.audit["weak-epic"].recommender
    deviated = beliefs.copy()
    deviated[misreporter] = sc.audit["weak-epic"].targeted[0]

    def utilities(reports: np.ndarray) -> tuple[float, ...]:
        """Each recommender's utility for `reports`, under their own beliefs."""
        return tuple(inst.expost_utility(reports, i, beliefs[i]) for i in range(inst.n))

    report = Table1Report(
        tolerance=expected.tolerance,
        aggregates=tuple(linear_scores(inst.weights_in_force, beliefs).tolist()),
        thresholds=tuple(map(tuple, winkler_mod.marginal_thresholds(inst, beliefs).tolist())),
        honest_utilities=utilities(beliefs),
        misreport_utilities=utilities(deviated),
        honest_funded=winkler_mod.allocate(inst, beliefs).funded_real[0],
        misreport_funded=winkler_mod.allocate(inst, deviated).funded_real[0],
        misreporter=misreporter,
        expected=expected,
        max_abs_error=0.0,
    )
    max_err = 0.0
    for field, label in _CELLS:
        cells = zip(_cells(getattr(report, field)), _cells(getattr(expected, field)))
        for (index, a), (_, b) in cells:
            tolerance = expected.tolerance if isinstance(b, float) else 0
            max_err = max(max_err, abs(a - b))
            if abs(a - b) > tolerance:
                raise ReproductionMismatch(
                    f"{label}{index}: computed {a:.6g}, reference {b}, tolerance {tolerance}"
                )
    return dataclasses.replace(report, max_abs_error=max_err)
