"""Multi-round lending simulator with an append-only, replayable ledger.

A campaign is one stack of rounds, played by one mechanism instance, and
runs in three stages over the whole stack. It draws every round's world
first: from `np.random.default_rng` of the round's own seed, fresh
borrowers' true repayment probabilities, recommender beliefs through a
per-recommender signal model, and one uniform per borrower for the
outcomes. Those generators are not built one by one: one vectorized pass
over the round seeds gives every round's generator state
(`pcg64_states`), which each round sets on one shared `Generator`. It then
allocates under the configured mechanism, round r under row r of an
(R, n) weights array, and draws the funded borrowers' outcomes from those
uniforms. Under fixed weights every round is allocated in one call of the
instance's `allocate_rounds`; with outcome-adaptive weights, round r's
weights come only from the reports and outcomes of funded loans in rounds
before r, so each such round is allocated alone once they are known: its
scores are one `linear_scores` call under its weights, and its funded set
is the instance's own `select` of those scores, the rule `allocate`
applies, which reads no weights. Nothing a later round reads depends on
the settlement, so last, one call of the instance's `settle_rounds`
prices every round and checks the stack's reports.

The campaign's ledger keeps the settled stack as one block
(`SettledRounds`): its arrays, allocations, outcomes, hashes and
`Payments`. Every round's realized utilities and deficit are computed once
for the whole stack, with numpy adds in each mechanism's summation order
(`Payments.accounts`), bit for bit `mechanism.accounts` of each round;
the summary comes from the same arrays. `RoundLedger.write_jsonl` renders
each line straight from one `tolist()` per array, and the records are
built only when read, by `_records`, which settles the stack again and
sums each round's payments alone (`mechanism.accounts`): the oracle the
rendered lines are held to. `run_round` is a campaign of one round
through `_records`.

With outcome-adaptive weighting, a `BudescuAccumulator` scores each funded
loan once, when its round is allocated, and keeps running sums: a round's
weight update costs O(n) per newly funded loan, plus O(window * n) under
a history window, instead of a rescan of every past loan. Every column's
means, the whole crowd's and each with one recommender left out, are
computed once for the stack (`column_means`); a funded loan then adds only
its Brier terms, squared by Python's `**`, as `_column_errors` squares
them. No `ObservedLoan` is built on that path; `evolve_weights`, which
rescans a ledger's loans, is its oracle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .aggregation import (
    BudescuAccumulator,
    ObservedLoan,
    RoundHistory,
    WeightVector,
    WeightedLinear,
    budescu_weights,
    column_means,
)
from .errors import AllNonPositiveContribution, EmptyHistory, LedgerError, MechanismError
from .fields import Fields
from .mechanism import (
    Allocation, Instance, accounts, check_outcomes, left_sum, left_sums, linear_scores,
)
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


# numpy's `SeedSequence` hash (`mix_entropy`, `generate_state`) and PCG64's
# seeding multiplier; see `pcg64_states`.
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_MIX_INIT, _MIX_MULT, _STATE_INIT, _STATE_MULT = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_LEFT, _MIX_RIGHT = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG64_STATE = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}


def _hash_steps(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """The constants of `count` steps of a `SeedSequence` hash, (c_k,
    c_{k+1}) for step k: c_0 = `init`, and c_{k+1} = c_k * `mult` mod 2**32."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return [(np.uint32(a), np.uint32(b)) for a, b in zip(consts, consts[1:])]


def _hash(words: np.ndarray, step: tuple[np.uint32, np.uint32]) -> np.ndarray:
    """One hash step over uint32 words: x -> `_fold`((x ^ c_k) * c_{k+1})."""
    xor, times = step
    return _fold((words ^ xor) * times)


def _fold(words: np.ndarray) -> np.ndarray:
    """x -> x ^ (x >> 16) over uint32 words."""
    return words ^ (words >> np.uint32(16))


def pcg64_states(seeds: Sequence[int]) -> list[dict]:
    """`np.random.default_rng(seed).bit_generator.state` for every seed in
    [0, 2**32), from one pass of uint32 arithmetic over all of them.

    `default_rng(s)` is `PCG64(SeedSequence(s))`. The sequence's entropy is
    the one word s; its pool of four words holds s and then three zeros,
    each hashed, and is cross-mixed (`mix_entropy`), one hash step after
    another. `generate_state(4, uint64)` hashes the pool's words in turn,
    twice round, into eight words, read in pairs as little-endian uint64:
    the 128-bit initial state and the 128-bit stream, high word first.
    PCG64 takes inc = 2 * stream + 1, and the state two LCG steps from 0,
    the initial state added between them (`pcg_setseq_128_srandom_r` in
    O'Neill, PCG: A Family of Simple Fast Space-Efficient Statistically
    Good Algorithms for Random Number Generation, 2014). Raises ValueError
    naming `seed` outside that range.
    """
    values = [operator.index(seed) for seed in seeds]
    for seed in values:
        if not 0 <= seed <= _MASK32:
            raise ValueError(f"seed must lie in [0, 2**32), got {seed}")
    words = np.array(values, dtype=np.uint32)
    mix = iter(_hash_steps(_MIX_INIT, _MIX_MULT, 16))
    pool = [_hash(words, next(mix))] + [_hash(np.zeros_like(words), next(mix)) for _ in range(3)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed = _hash(pool[src], next(mix))
                pool[dst] = _fold(np.uint32(_MIX_LEFT) * pool[dst] - np.uint32(_MIX_RIGHT) * hashed)
    steps = _hash_steps(_STATE_INIT, _STATE_MULT, 8)
    state = [_hash(pool[k % 4], step) for k, step in enumerate(steps)]
    halves = np.stack(state, axis=1).astype(np.uint64)
    states = []
    for high, low, stream_high, stream_low in (halves[:, 0::2] | halves[:, 1::2] << 32).tolist():
        inc = ((stream_high << 64 | stream_low) << 1 | 1) & _MASK128
        state = ((inc + (high << 64 | low)) * _PCG64_MULT + inc) & _MASK128
        states.append(dict(_PCG64_STATE, state={"state": state, "inc": inc}))
    return states


def _draw(
    world: WorldModel, n: int, m: int, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every round's world, drawn before any round is allocated: truths
    (R, m), beliefs (R, n, m) and m outcome uniforms per round (R, m).

    Round r draws from `np.random.default_rng(seeds[r])`, in this order:
    the truths, then the signal noise (with `mixing`) or the beliefs (from
    `belief_prior`), then m uniforms. That generator is built once for the
    whole stack: `pcg64_states` gives every round's PCG64 state, bit for
    bit `default_rng`'s, in one pass over the seeds, and each round sets
    its state on one `Generator` before it draws. Seeds must lie in
    [0, 2**32), as a campaign's round seeds do. A round that funds k
    borrowers reads the first k uniforms, one per funded borrower in index
    order: a generator's doubles come in sequence, so they are the k a draw
    of k would give. With `mixing`, recommender i's beliefs are
    mixing[i] * truth + (1 - mixing[i]) * noise, mixed for the whole stack
    at once.
    """
    if world.mixing is not None and len(world.mixing) != n:
        raise ValueError(f"need {n} mixing coefficients, got {len(world.mixing)}")
    truths, uniforms = np.empty((len(seeds), m)), np.empty((len(seeds), m))
    beliefs = np.empty((len(seeds), n, m))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for r, state in enumerate(pcg64_states(seeds)):
        bit_generator.state = state
        truths[r] = sample_profiles(world.truth_prior, 1, m, 1, rng)[0, 0]
        if world.mixing is not None:
            rng.random(out=beliefs[r])
        else:
            beliefs[r] = sample_profiles(world.belief_prior, n, m, 1, rng)[0]
        rng.random(out=uniforms[r])
    if world.mixing is not None:
        lam = np.asarray(world.mixing)[:, np.newaxis]
        beliefs = lam * truths[:, np.newaxis, :] + (1.0 - lam) * beliefs
    return truths, beliefs, uniforms


def _outcomes(
    funded: Sequence[int], truths: Sequence[float], uniforms: Sequence[float]
) -> dict[int, int]:
    """One round's outcomes, {borrower: 0 or 1}: the k-th funded borrower q
    repays iff the round's k-th uniform is below its truth."""
    return {q: int(u < truths[q]) for u, q in zip(uniforms, funded)}


@dataclass(frozen=True, kw_only=True)
class RoundRecord:
    """One settled round, and one line of the ledger: a JSON object whose
    keys are these fields, tuples written as lists (`record_from_json`
    reads one back). The number of weights is n, the number of truths m."""

    schema: int = LEDGER_SCHEMA
    round_id: int
    scenario_hash: str
    weights: tuple[float, ...]
    truths: tuple[float, ...]
    reports: tuple[tuple[float, ...], ...]
    funded_real: tuple[int, ...]  # ascending
    reserves_funded: int
    # (borrower, outcome), in the order of funded_real
    outcomes: tuple[tuple[int, int], ...]
    immediate: tuple[float, ...]
    # (recommender, borrower, paid), sorted
    contingent: tuple[tuple[int, int, float], ...]
    tcomp: Optional[tuple[float, ...]]
    deficit: float
    realized_utilities: tuple[float, ...]


_FIELDS = dataclasses.fields(RoundRecord)
_NAMES = tuple(f.name for f in _FIELDS)


# The ledger's encoder, one for every line: a record's fields go in as a
# dict built in sorted key order, so it writes the bytes of
# `json.dumps(..., sort_keys=True)` without sorting each line's keys. A
# record's values are tuples of numbers and strings, which cannot contain
# themselves, so the encoder does not check for cycles.
_SORTED_NAMES = tuple(sorted(_NAMES))
_SORTED_VALUES = operator.attrgetter(*_SORTED_NAMES)
_ENCODER = json.JSONEncoder(check_circular=False)


def record_to_json(record: RoundRecord) -> str:
    return _ENCODER.encode(dict(zip(_SORTED_NAMES, _SORTED_VALUES(record))))


def _ascending(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def record_from_json(line: str) -> RoundRecord:
    """The record a ledger line holds. Every field is read by the typed
    reader scenario files share (`lendmech.fields`), after the fields its
    check depends on: n and m are the numbers of weights and truths. The
    order the writer keeps is required: borrowers strictly ascending, one
    outcome per funded borrower in that order, and contingent payments
    sorted by (recommender, borrower). Raises LedgerError naming the field
    it rejects."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LedgerError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise LedgerError(f"expected a JSON object, got {type(data).__name__}")
    read = Fields(data, known=_NAMES, error=LedgerError, finite=False)
    schema = read.integer("schema")
    if schema != LEDGER_SCHEMA:
        raise read.fail("schema", f"unsupported version {schema}; expected {LEDGER_SCHEMA}")
    round_id = read.integer("round_id", lo=0)
    reserves_funded = read.integer("reserves_funded", lo=0)
    scenario_hash = read.string("scenario_hash")
    weights = read.numbers("weights", lo=0.0, hi=1.0)
    truths = read.numbers("truths", lo=0.0, hi=1.0)
    n, m = len(weights), len(truths)
    reports = read.matrix("reports", n, m, lo=0.0, hi=1.0)
    funded = read.points("funded_real", 1, "expected a list of borrowers", read.leaf(int, 0, m - 1))
    if not _ascending(funded):
        raise read.fail("funded_real", f"borrowers must be strictly ascending, got {list(funded)}")
    index = read.leaf(int, 0)
    outcomes = read.points("outcomes", 2, "expected [borrower, outcome] pairs", (index, index))
    try:
        check_outcomes(funded, dict(outcomes))
    except (MechanismError, ValueError) as exc:
        raise read.fail("outcomes", str(exc)) from None
    if tuple(q for q, _ in outcomes) != funded:
        raise read.fail("outcomes", "expected one outcome per funded borrower, in their order")
    columns = (read.leaf(int, 0, n - 1), index, read.leaf(float))
    shape = "expected [recommender, borrower, paid] triples"
    contingent = read.points("contingent", 2, shape, columns)
    keys = [entry[:2] for entry in contingent]
    if not _ascending(keys) or any(q not in funded for _, q in keys):
        raise read.fail(
            "contingent",
            f"expected (recommender, funded borrower) keys strictly ascending, got {keys}",
        )
    return RoundRecord(
        schema=schema,
        round_id=round_id,
        scenario_hash=scenario_hash,
        weights=weights,
        truths=truths,
        reports=reports,
        funded_real=funded,
        reserves_funded=reserves_funded,
        outcomes=outcomes,
        immediate=read.numbers("immediate", length=n),
        contingent=contingent,
        tcomp=read.numbers("tcomp", length=n, default=None),
        deficit=read.number("deficit"),
        realized_utilities=read.numbers("realized_utilities", length=n),
    )


class RoundLedger:
    """Append-only sequence of round records.

    A campaign's ledger holds its settled stack as one block
    (`SettledRounds`): `write_jsonl` renders its lines straight from the
    stack's arrays, and its records are built only when they are read. An
    append turns the block into records first."""

    def __init__(self, settled: Optional["SettledRounds"] = None) -> None:
        self._settled = settled
        self._records: Optional[list[RoundRecord]] = None if settled is not None else []

    def _built(self) -> list[RoundRecord]:
        if self._records is None:
            self._records = self._settled.records()
        return self._records

    def append(self, record: RoundRecord) -> None:
        self._built().append(record)
        self._settled = None

    @property
    def records(self) -> tuple[RoundRecord, ...]:
        return tuple(self._built())

    def __len__(self) -> int:
        return len(self._settled) if self._settled is not None else len(self._records)

    def history(self, n: int, window: Optional[int] = None) -> RoundHistory:
        """Funded loans with observed outcomes, as aggregation input."""
        loans = tuple(loan for record in self._built() for loan in funded_loans(record, n))
        return RoundHistory(n=n, loans=loans).window(window)

    def write_jsonl(self, path) -> None:
        if self._settled is not None:
            lines = self._settled.lines()
        else:
            lines = [record_to_json(record) + "\n" for record in self._records]
        with open(path, "w") as fh:
            fh.writelines(lines)

    @classmethod
    def read_jsonl(cls, path) -> "RoundLedger":
        """The ledger a file holds; LedgerError names the path, the line
        and, where there is one, the field it rejects."""
        ledger, number = cls(), 0
        try:
            with open(path) as fh:
                for number, line in enumerate(fh, 1):
                    if line.strip():
                        ledger.append(record_from_json(line))
        except (OSError, UnicodeDecodeError) as exc:
            raise LedgerError(f"{path}: cannot read ledger: {exc}") from None
        except LedgerError as exc:
            raise LedgerError(f"{path}: line {number}: {exc}") from None
        return ledger


def funded_loans(record: RoundRecord, n: int) -> list[ObservedLoan]:
    """The round's funded borrowers in index order, each as the first n
    recommenders' reports on it and its outcome."""
    outcomes = dict(record.outcomes)
    return [
        ObservedLoan(reports=tuple(record.reports[i][q] for i in range(n)), outcome=outcomes[q])
        for q in record.funded_real
    ]


def _describe(value):
    """JSON-able form of a config value; dataclasses carry their class name."""
    if dataclasses.is_dataclass(value):
        fields = {f.name: _describe(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return {"type": type(value).__name__, **fields}
    if isinstance(value, (tuple, list)):
        return [_describe(v) for v in value]
    return value


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def config_hash(config: "CampaignConfig", seed: int, round_id: int) -> str:
    """Digest of every config field (world model and priors included), the
    campaign seed and the round."""
    payload = {"config": _describe(config), "seed": seed, "round_id": round_id}
    return _digest(json.dumps(payload, sort_keys=True))


def round_hashes(config: "CampaignConfig", seed: int) -> Callable[[int], str]:
    """`config_hash(config, seed, round_id)` as a function of the round.

    The payload is encoded once with a null round; each call writes only
    the round into that text, as the decimal digits JSON gives an integer.
    Keys are sorted, so the top-level "round_id" is the last one the text
    holds, just before "seed".
    """
    payload = {"config": _describe(config), "seed": seed, "round_id": None}
    head, tail = json.dumps(payload, sort_keys=True).rsplit('"round_id": null', 1)
    return lambda round_id: _digest(f'{head}"round_id": {round_id:d}{tail}')


def _allocate(inst: Instance, weights: np.ndarray, truths, reports: np.ndarray, uniforms):
    """Allocations and outcomes of a stack of rounds whose weights are known
    before any round is played (fixed weights): one call of the instance's
    `allocate_rounds`; `truths` holds the rounds' rows."""
    allocations = inst.allocate_rounds(weights, reports)
    outcomes = [
        _outcomes(alloc.funded_real, row, draws)
        for alloc, row, draws in zip(allocations, truths, uniforms.tolist())
    ]
    return allocations, outcomes


def _records(
    inst: Instance,
    weights: np.ndarray,
    truths: Sequence[Sequence[float]],
    reports: np.ndarray,
    allocations: Sequence[Allocation],
    outcomes: Sequence[dict[int, int]],
    round_ids: Sequence[int],
    hashes: Sequence[str],
) -> list[RoundRecord]:
    """The records of a stack of allocated rounds on `inst`, all priced by
    one call of its `settle_rounds`: round k is `round_ids[k]`, played
    under weights `weights[k]`, with truth row `truths[k]` and reports
    `reports[k]`, whose scenario hash is `hashes[k]`. Each record is built
    straight from the stack's arrays, its realized utilities and deficit
    from one pass over its payments (`mechanism.accounts`)."""
    payments = inst.settle_rounds(weights, reports, outcomes, allocations)
    rows = zip(
        round_ids, hashes, weights.tolist(), truths, reports.tolist(), outcomes, payments.rounds()
    )
    records = []
    for round_id, scenario_hash, weight_row, truth_row, matrix, realized, settled in rows:
        allocation, cells, immediate, tcomp = settled
        utilities, round_deficit = accounts(cells, immediate, tcomp)
        records.append(RoundRecord(
            round_id=round_id,
            scenario_hash=scenario_hash,
            weights=tuple(weight_row),
            truths=tuple(truth_row),
            reports=tuple(map(tuple, matrix)),
            funded_real=allocation.funded_real,
            reserves_funded=allocation.reserves_funded,
            outcomes=tuple(sorted(realized.items())),
            immediate=immediate,
            contingent=tuple(sorted(cells)),
            tcomp=tcomp,
            deficit=round_deficit,
            realized_utilities=utilities,
        ))
    return records


class SettledRounds:
    """A campaign's settled stack of R rounds, kept as the arrays it was
    played from: round r, played on `inst` under weights `weights[r]`
    (R, n), with truths `truths[r]` (R, m), reports `reports[r]`
    (R, n, m), outcomes `outcomes[r]` and scenario hash `hashes[r]`,
    priced as `payments`. Every round's realized utilities (R, n) and
    deficit (R,) are computed once for the whole stack
    (`Payments.accounts`)."""

    def __init__(
        self, inst: Instance, weights, truths, reports, outcomes, hashes, payments
    ) -> None:
        self.inst, self.weights, self.truths, self.reports = inst, weights, truths, reports
        self.outcomes, self.hashes, self.payments = outcomes, hashes, payments
        self.utilities, self.deficits = payments.accounts()

    def __len__(self) -> int:
        return len(self.weights)

    def records(self) -> list[RoundRecord]:
        """Every round's `RoundRecord`, by `_records`, which settles the
        stack again and sums each round's payments alone: the oracle
        `lines` is held to."""
        return _records(
            self.inst, self.weights, self.truths.tolist(), self.reports,
            self.payments.allocations, self.outcomes, range(len(self)), self.hashes,
        )

    def lines(self) -> list[str]:
        """Every round's ledger line, `record_to_json` of its record and a
        newline, rendered from one `tolist()` per array with no record
        built. A list of Python floats or ints prints as JSON writes it
        (`float.__repr__` joined by ", "), and the round hashes are hex
        digests, which JSON writes as they are. JSON writes a non-finite
        float as NaN or Infinity, which `repr` does not: a stack with one
        (a boundary report's log score) is written from its records."""
        pay = self.payments
        # A non-finite charge, rebate or payment makes its recommender's
        # utility non-finite, so these two arrays tell.
        if not (np.isfinite(self.utilities).all() and np.isfinite(self.deficits).all()):
            return [record_to_json(record) + "\n" for record in self.records()]
        columns = pay.paid.T.tolist()  # recommender i's payment on each loan of the stack
        rebates = repeat("null") if pay.tcomp is None else pay.tcomp.tolist()
        rows = zip(
            pay.allocations, self.outcomes, self.hashes, self.weights.tolist(),
            self.truths.tolist(), self.reports.tolist(), pay.immediate.tolist(), rebates,
            self.utilities.tolist(), self.deficits.tolist(),
        )
        lines, start = [], 0
        for round_id, (
            alloc, realized, scenario_hash, weights, truths, reports, immediate, tcomp,
            utilities, deficit,
        ) in enumerate(rows):
            funded, stop = alloc.funded_real, start + len(alloc.funded_real)
            # sorted: recommender by recommender, each one's borrowers ascending
            contingent = ", ".join([
                f"[{i}, {q}, {v!r}]" for i, column in enumerate(columns)
                for q, v in zip(funded, column[start:stop])
            ])
            outcomes = ", ".join([f"[{q}, {realized[q]}]" for q in funded])
            start = stop
            lines.append(
                f'{{"contingent": [{contingent}], "deficit": {deficit!r}, '
                f'"funded_real": {list(funded)}, "immediate": {immediate}, '
                f'"outcomes": [{outcomes}], "realized_utilities": {utilities}, '
                f'"reports": {reports}, "reserves_funded": {alloc.reserves_funded}, '
                f'"round_id": {round_id}, "scenario_hash": "{scenario_hash}", '
                f'"schema": {LEDGER_SCHEMA}, "tcomp": {tcomp}, "truths": {truths}, '
                f'"weights": {weights}}}\n'
            )
        return lines


def run_round(
    inst: Instance,
    world: WorldModel,
    seed: int,
    round_id: int = 0,
    scenario_hash: str = "",
    deviation: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> RoundRecord:
    """Play one round and settle it: a campaign of this one round, through
    the campaign's own draw, allocation and records.

    Reports are the drawn beliefs unless a deviation strategy rewrites
    them (stress testing), before they are clipped to [0, 1]. Identical
    (inst, world, seed) reproduce the record bit for bit; the seed must lie
    in [0, 2**32) (`_draw`).
    """
    truths, beliefs, uniforms = _draw(world, inst.n, inst.m, [seed])
    if deviation is not None:
        beliefs = np.asarray(deviation(beliefs[0]), dtype=float)[np.newaxis]
    reports = np.clip(beliefs, 0.0, 1.0)
    weights, truth_rows = np.array([inst.weights_in_force]), truths.tolist()
    allocations, outcomes = _allocate(inst, weights, truth_rows, reports, uniforms)
    (record,) = _records(
        inst, weights, truth_rows, reports, allocations, outcomes, [round_id], [scenario_hash]
    )
    return record


def evolve_weights(
    ledger: RoundLedger, n: int, window: Optional[int] = None
) -> WeightVector:
    """Outcome-based weights from the ledger, every past loan scored afresh;
    equal weights when the history is empty or nobody has contributed
    positively yet. `campaign` keeps a `BudescuAccumulator` instead; this is
    its oracle, and `lendmech weights`' path."""
    try:
        history = ledger.history(n, window)
        return budescu_weights(history)
    except (EmptyHistory, AllNonPositiveContribution):
        return WeightVector.equal(n)


def build_instance(
    mechanism: str,
    n: int,
    m: int,
    threshold: float,
    weights: tuple[float, ...],
    K: Optional[int] = None,
    alpha: float = 1.0,
    tcomp: bool = False,
) -> Instance:
    """The mechanism instance of a scenario or a campaign round.

    `K` is VCG's liquidity cap; on Winkler it gives the capped demo
    variant. `alpha` and `tcomp` apply to VCG only.
    """
    if mechanism == "winkler":
        aggregator = WeightedLinear(WeightVector(weights))
        return WinklerInstance(n=n, m=m, threshold=threshold, aggregator=aggregator, cap=K)
    return VcgInstance(
        n=n, m=m, K=K, reserve_threshold=threshold, weights=weights, alpha=alpha,
        tcomp_enabled=tcomp,
    )


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
    """Run sequential rounds with (optionally) evolving weights: draw every
    round's world, allocate the rounds (all in one call under fixed
    weights, else in order, each under the weights of the rounds before
    it), then settle them all in one call."""
    if rounds < 1:
        raise ValueError(f"need rounds >= 1, got {rounds}")
    n, m = config.n, config.m
    round_seeds = np.random.SeedSequence(seed).generate_state(rounds).tolist()
    truths, beliefs, uniforms = _draw(config.world, n, m, round_seeds)
    reports = np.clip(beliefs, 0.0, 1.0)
    truth_rows = truths.tolist()
    weights = (
        WeightVector(config.initial_weights)
        if config.initial_weights is not None
        else WeightVector.equal(n)
    )
    # One instance plays every round; round r's weights are row r.
    inst = build_instance(
        config.mechanism, n, m, config.threshold, weights.weights,
        config.K, config.alpha, config.tcomp_enabled,
    )
    weight_rows = np.tile(weights.weights, (rounds, 1))
    if config.weight_mode == "fixed":
        allocations, outcomes = _allocate(inst, weight_rows, truth_rows, reports, uniforms)
    else:
        # Round r's weights come from the outcomes of rounds before r, so
        # each round is allocated alone, once its weights are known: one
        # `linear_scores` call and the instance's `select`, which reads no
        # weights. Its funded borrowers' columns feed the weights, through
        # their means, computed for the whole stack at once.
        budescu = BudescuAccumulator(n, config.history_window)
        means = column_means(reports).tolist()  # [round][borrower]: n + 1 means
        allocations, outcomes = [], []
        for r, draws in enumerate(uniforms.tolist()):
            if r > 0:
                weights = budescu.weights()
                weight_rows[r] = weights.weights
            allocation = inst.select(linear_scores(weights.weights, reports[r]).tolist())
            realized = _outcomes(allocation.funded_real, truth_rows[r], draws)
            for q, outcome in realized.items():
                budescu.add_means(means[r][q], outcome)
            allocations.append(allocation)
            outcomes.append(realized)
        weights = budescu.weights()  # after the last round
    hashes = list(map(round_hashes(config, seed), range(rounds)))
    payments = inst.settle_rounds(weight_rows, reports, outcomes, allocations)
    settled = SettledRounds(inst, weight_rows, truths, reports, outcomes, hashes, payments)
    funded = len(payments.paid)
    repaid = sum(o for realized in outcomes for o in realized.values())
    summary = CampaignSummary(
        rounds=rounds,
        funded=funded,
        repaid=repaid,
        repayment_rate=repaid / funded if funded else float("nan"),
        base_rate=left_sum(left_sums(truths.T, rounds).tolist()) / (rounds * config.m),
        cumulative_deficit=left_sum(settled.deficits.tolist()),
        recommender_utilities=tuple(map(left_sum, settled.utilities.T.tolist())),
        weight_trajectory=tuple(map(tuple, weight_rows.tolist())),
        final_weights=weights.weights,
    )
    return summary, RoundLedger(settled)
