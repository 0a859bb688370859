"""Scenario files: JSON fixtures describing an instance, inputs, and audits.

A scenario is a small versioned JSON document, diff-able and bundled as a
test fixture. kind "mechanism" describes an instance plus optional beliefs,
prior, outcomes, audit parameters, campaign parameters and reference
values; kind "curve" describes a utility-curve emission.

`loads` is the only reader of the JSON, through the typed reader of
`lendmech.fields`, which ledger lines share. It checks every field, those of
the `audit`, `reference` and `campaign` blocks included, rejects a field
that the top level or a block does not define, and names a field it
rejects by its path, e.g. 'audit.strict-iic.samples'. A field set to null
is the same as a field left out.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Any, Optional

from .aggregation import WEIGHT_SUM_TOL
from .audit import EqualShift, FullRowRandom, MisreportStrategy, SingleCoordinateGrid, Targeted
from .audit import MIN_GRAIN_SAMPLES, MIN_SEARCH_SAMPLES, Reference
from .errors import ScenarioError
from .fields import REQUIRED, Fields
from .mechanism import Instance, left_sum
from .priors import PriorSpec, UniformIID
from .rounds import CampaignConfig, WorldModel, build_instance as _build

SCHEMA_VERSION = 1
# The most recommenders (n) and borrowers (m) a scenario may declare: both
# are read before anything is sized by them, so a huge value is a field
# error, not a weight vector or key list of that length.
MAX_SIZE = 10_000
CURVE_VARIANTS = (
    "trunc-quadratic",
    "trunc-quadratic-raw",
    "trunc-winkler-log",
    "winkler-log-score",
)
DESIDERATA = (
    "alloc-eff",
    "weak-epic",
    "strict-epic",
    "strict-iic",
    "ex-post-ir",
    "strong-ex-post-ir",
    "grain-of-no-veto",
    "weight-monotonicity",
)

# desideratum -> (the only mechanism it applies to, the error otherwise)
_MECHANISM_ONLY = {
    "alloc-eff": ("vcg", "alloc-eff audit is for the vcg mechanism"),
    "strong-ex-post-ir": ("vcg", "strong-ex-post-ir audit is for the vcg mechanism"),
    "weight-monotonicity": ("vcg", "weight-monotonicity audit is for the vcg mechanism"),
    "grain-of-no-veto": ("winkler", "grain-of-no-veto applies to the winkler mechanism"),
}
# desideratum -> default number of uniform random profiles it checks
_TRIALS = {"alloc-eff": 50, "ex-post-ir": 50, "strong-ex-post-ir": 20, "weight-monotonicity": 100}
# kind -> the fields a scenario file of that kind may set at its top level
_TOP_FIELDS = {
    "mechanism": (
        "schema", "kind", "mechanism", "n", "m", "K", "c", "alpha", "tcomp", "weights",
        "beliefs", "prior", "outcomes", "seed", "note", "audit", "reference", "campaign",
    ),
    "curve": ("schema", "kind", "variant", "c", "grid", "note"),
}


@dataclass(frozen=True)
class AuditBlock:
    """Parameters of one audit: an `audit.<desideratum>` block with the
    desideratum's defaults filled in."""

    expect: str
    samples: int
    seed: int
    trials: int
    recommender: Optional[int]  # None: every recommender
    true_row: Optional[tuple[float, ...]]
    random_true_rows: int
    w_low: Optional[float]  # set for weight-monotonicity only
    w_high: Optional[float]
    single_coordinate_grid: Optional[int]
    full_row_random: Optional[int]
    equal_shift: Optional[tuple[float, ...]]
    targeted: Optional[tuple[tuple[float, ...], ...]]

    @property
    def strategies(self) -> tuple[MisreportStrategy, ...]:
        """The misreport strategies the block names; a grid plus random rows
        when it names none."""
        named = (
            (SingleCoordinateGrid, self.single_coordinate_grid),
            (FullRowRandom, self.full_row_random),
            (EqualShift, self.equal_shift),
            (Targeted, self.targeted),
        )
        out = tuple(strategy(value) for strategy, value in named if value is not None)
        return out or (SingleCoordinateGrid(), FullRowRandom())


@dataclass(frozen=True)
class CampaignBlock:
    """The `campaign` block: a multi-round simulation of the scenario."""

    rounds: int
    mixing: Optional[tuple[float, ...]]  # None: beliefs come from the scenario's prior
    weight_mode: str
    truth_prior: PriorSpec
    history_window: Optional[int]  # None: the whole history


@dataclass(frozen=True)
class Scenario:
    source: str
    kind: str  # "mechanism" | "curve"

    # mechanism fields (None for curves)
    mechanism: Optional[str] = None
    n: Optional[int] = None
    m: Optional[int] = None
    threshold: Optional[float] = None
    cap: Optional[int] = None  # K: vcg's liquidity cap; optional for winkler (the capped demo)
    alpha: float = 1.0
    tcomp: bool = False
    weights: Optional[tuple[float, ...]] = None
    beliefs: Optional[tuple[tuple[float, ...], ...]] = None
    prior: Optional[PriorSpec] = None
    outcomes: Optional[dict[int, int]] = None
    seed: int = 0
    audit: dict[str, AuditBlock] = dataclasses.field(default_factory=dict)  # declared blocks
    reference: Optional[Reference] = None
    campaign: Optional[CampaignBlock] = None
    note: Optional[str] = None

    # curve fields
    variant: Optional[str] = None
    grid: int = 101


_fields = functools.partial(Fields, error=ScenarioError, finite=True)


def _names(block_type) -> tuple[str, ...]:
    """The JSON fields of a block: the fields of the type it parses into."""
    return tuple(f.name for f in dataclasses.fields(block_type))


def min_samples(desideratum: str) -> int:
    """The fewest Monte Carlo samples an audit of `desideratum` may ask for."""
    return MIN_GRAIN_SAMPLES if desideratum == "grain-of-no-veto" else MIN_SEARCH_SAMPLES


def _parse_audit_block(sc: Scenario, desideratum: str, data: Any) -> AuditBlock:
    block = _fields(data, sc.source, f"audit.{desideratum}", _names(AuditBlock))
    if desideratum == "grain-of-no-veto":
        expect = block.choice("expect", ("present", "absent"), default="present")
    else:
        expect = block.choice("expect", ("pass", "violation", "inconclusive"), default="pass")
    recommender = block.integer("recommender", lo=0, hi=sc.n - 1, default=None)
    trials = block.integer("trials", lo=0, default=_TRIALS.get(desideratum, 0))
    if desideratum in _TRIALS and trials == 0 and sc.beliefs is None:
        raise block.fail("trials", "must be >= 1 when the scenario has no beliefs")
    w_low = w_high = None
    if desideratum == "weight-monotonicity":
        w_low = block.number("w_low", default=sc.weights[recommender or 0])
        w_high = block.number("w_high", default=min(1.0, w_low + 0.1))
        if not w_low > 0.0:
            raise block.fail("w_low", f"must be > 0, got {w_low}")
        if not w_high > w_low:
            raise block.fail("w_high", f"must exceed w_low = {w_low}, got {w_high}")
    return AuditBlock(
        expect=expect,
        samples=block.integer("samples", lo=min_samples(desideratum), default=20000),
        seed=block.integer("seed", lo=0, default=sc.seed),
        trials=trials,
        recommender=recommender,
        true_row=block.numbers("true_row", length=sc.m, lo=0.0, hi=1.0, default=None),
        random_true_rows=block.integer("random_true_rows", lo=1, default=5),
        w_low=w_low,
        w_high=w_high,
        single_coordinate_grid=block.integer("single_coordinate_grid", lo=1, default=None),
        full_row_random=block.integer("full_row_random", lo=1, default=None),
        equal_shift=block.numbers("equal_shift", default=None),
        targeted=block.matrix("targeted", None, sc.m, lo=0.0, hi=1.0, default=None),
    )


def _parse_reference(sc: Scenario, data: Any) -> Reference:
    block = _fields(data, sc.source, "reference", _names(Reference))
    if sc.mechanism != "winkler" or sc.cap is None or sc.beliefs is None:
        raise block.fail("", "needs a winkler scenario with K and beliefs")
    weak = sc.audit.get("weak-epic")
    if weak is None or weak.recommender is None or weak.targeted is None:
        raise block.fail("", "needs an audit.weak-epic block with recommender and targeted")
    return Reference(
        tolerance=block.number("tolerance", lo=0.0),
        aggregates=block.numbers("aggregates", length=sc.m),
        thresholds=block.matrix("thresholds", sc.n, sc.m),
        honest_utilities=block.numbers("honest_utilities", length=sc.n),
        misreport_utilities=block.numbers("misreport_utilities", length=sc.n),
        honest_funded=block.integer("honest_funded", lo=0, hi=sc.m - 1),
        misreport_funded=block.integer("misreport_funded", lo=0, hi=sc.m - 1),
    )


def _parse_campaign(sc: Scenario, data: Any) -> CampaignBlock:
    block = _fields(data, sc.source, "campaign", _names(CampaignBlock))
    mixing = block.numbers("mixing", length=sc.n, lo=0.0, hi=1.0, default=None)
    if mixing is None and sc.prior is None:
        raise block.fail("mixing", "required when the scenario has no prior")
    return CampaignBlock(
        rounds=block.integer("rounds", lo=1, default=50),
        mixing=mixing,
        weight_mode=block.choice("weight_mode", ("fixed", "budescu"), default="fixed"),
        truth_prior=block.prior("truth_prior", 1, sc.m, default=UniformIID()),
        history_window=block.integer("history_window", lo=1, default=None),
    )


def loads(text: str, source: str = "<scenario>") -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{source}: not valid JSON: {exc}") from exc
    top = _fields(data, source)
    schema = top.integer("schema")
    if schema != SCHEMA_VERSION:
        raise top.fail("schema", f"unsupported version {schema}")
    kind = top.choice("kind", tuple(_TOP_FIELDS))
    top = _fields(data, source, known=_TOP_FIELDS[kind])
    note = top.string("note", default=None)
    mechanism = top.choice("mechanism", ("winkler", "vcg")) if kind == "mechanism" else None
    # VCG's reserve threshold may be 0; a Winkler or curve threshold may not.
    c = top.number("c", lo=0.0, hi=1.0)
    if c == 1.0 or (c == 0.0 and mechanism != "vcg"):
        raise top.fail("c", f"must lie in {'[0, 1)' if mechanism == 'vcg' else '(0, 1)'}, got {c}")
    if kind == "curve":
        variant = top.choice("variant", CURVE_VARIANTS)
        grid = top.integer("grid", lo=2, default=101)
        return Scenario(
            source=source, kind=kind, variant=variant, threshold=c, grid=grid, note=note
        )

    n = top.integer("n", lo=1, hi=MAX_SIZE)
    m = top.integer("m", lo=1, hi=MAX_SIZE)
    cap = top.integer("K", lo=1, hi=m, default=REQUIRED if mechanism == "vcg" else None)
    alpha = top.number("alpha", default=1.0)
    if alpha <= 0:
        raise top.fail("alpha", f"must be positive, got {alpha}")

    if data.get("weights") in (None, "equal"):
        weights = tuple(1.0 / n for _ in range(n))
    else:
        weights = top.numbers("weights", length=n, lo=0.0)
        total = left_sum(weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise top.fail("weights", f"must sum to 1, got {total}")

    beliefs = top.matrix("beliefs", n, m, lo=0.0, hi=1.0, default=None)
    prior = top.prior("prior", n, m, default=None)
    if beliefs is None and prior is None and data.get("campaign") is None:
        raise top.fail("beliefs", "need explicit beliefs, a prior, or a campaign block")
    # borrower index -> repayment outcome; the keys are built only for a block
    outcomes = None
    if data.get("outcomes") is not None:
        outcomes = top.block("outcomes", tuple(str(q) for q in range(m)))

    sc = Scenario(
        source=source,
        kind=kind,
        mechanism=mechanism,
        n=n,
        m=m,
        threshold=c,
        cap=cap,
        alpha=alpha,
        tcomp=top.boolean("tcomp", default=False),
        weights=weights,
        beliefs=beliefs,
        prior=prior,
        outcomes=None if outcomes is None else {
            int(q): outcomes.integer(q, lo=0, hi=1) for q in outcomes.data
        },
        seed=top.integer("seed", lo=0, default=0),
        note=note,
    )
    # The blocks' defaults and bounds depend on the fields above.
    audit = top.block("audit", DESIDERATA)
    if audit is not None:
        sc = dataclasses.replace(
            sc, audit={d: _parse_audit_block(sc, d, cfg) for d, cfg in audit.data.items()}
        )
    if data.get("reference") is not None:
        sc = dataclasses.replace(sc, reference=_parse_reference(sc, data["reference"]))
    if data.get("campaign") is not None:
        sc = dataclasses.replace(sc, campaign=_parse_campaign(sc, data["campaign"]))
    return sc


def load(path) -> Scenario:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario: {exc}") from exc
    return loads(text, source=str(path))


def load_bundled(name: str) -> Scenario:
    return loads(bundled_path(name).read_text(), source=f"bundled:{name}")


def bundled_path(name: str):
    return resources.files("lendmech").joinpath(f"scenarios/{name}.scenario")


def audit_block(sc: Scenario, desideratum: str) -> AuditBlock:
    """The parameters of one audit of `sc`: its declared block, or else the
    desideratum's defaults. Raises ScenarioError when the desideratum does
    not apply to the scenario's mechanism."""
    if sc.kind != "mechanism":
        raise ScenarioError(f"{sc.source}: not a mechanism scenario")
    only = _MECHANISM_ONLY.get(desideratum)
    if only is not None and sc.mechanism != only[0]:
        raise ScenarioError(f"{sc.source}: {only[1]}")
    if desideratum in sc.audit:
        return sc.audit[desideratum]
    return _parse_audit_block(sc, desideratum, {})


def build_instance(sc: Scenario) -> Instance:
    """The scenario's mechanism instance (see `rounds.build_instance`)."""
    if sc.kind != "mechanism":
        raise ScenarioError(f"{sc.source}: not a mechanism scenario")
    return _build(sc.mechanism, sc.n, sc.m, sc.threshold, sc.weights, sc.cap, sc.alpha, sc.tcomp)


def build_campaign_config(sc: Scenario) -> CampaignConfig:
    """The campaign the scenario's `campaign` block describes."""
    if sc.campaign is None:
        raise ScenarioError(f"{sc.source}: scenario has no campaign block")
    camp = sc.campaign
    world = WorldModel(
        mixing=camp.mixing,
        truth_prior=camp.truth_prior,
        belief_prior=sc.prior if camp.mixing is None else None,
    )
    return CampaignConfig(
        mechanism=sc.mechanism,
        n=sc.n,
        m=sc.m,
        threshold=sc.threshold,
        world=world,
        K=sc.cap,
        alpha=sc.alpha,
        tcomp_enabled=sc.tcomp,
        weight_mode=camp.weight_mode,
        initial_weights=sc.weights,
        history_window=camp.history_window,
    )
