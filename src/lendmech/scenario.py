"""Scenario files: JSON fixtures describing an instance, inputs, and audits.

A scenario is a small versioned JSON document, diff-able and bundled as a
test fixture. kind "mechanism" describes an instance plus optional beliefs,
prior, outcomes, audit parameters, campaign parameters and reference
values; kind "curve" describes a utility-curve emission.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Any, Optional

from .aggregation import WeightVector, WeightedLinear
from .errors import ScenarioError
from .mechanism import Instance
from .priors import BetaIID, DegenerateAt, PriorSpec, ProductGrid, UniformIID
from .rounds import CampaignConfig, WorldModel
from .vcg import VcgInstance
from .winkler import WinklerInstance

SCHEMA_VERSION = 1
CURVE_VARIANTS = (
    "trunc-quadratic",
    "trunc-quadratic-raw",
    "trunc-winkler-log",
    "winkler-log-score",
)


@dataclass(frozen=True)
class Scenario:
    source: str
    raw: dict
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
    audit: Optional[dict[str, dict]] = None
    reference: Optional[dict] = None
    campaign: Optional[dict] = None
    note: Optional[str] = None

    # curve fields
    variant: Optional[str] = None
    grid: int = 101


def _fail(source: str, field: str, message: str) -> ScenarioError:
    return ScenarioError(f"{source}: field '{field}': {message}")


def _number(data: dict, field: str, source: str, lo=None, hi=None, required=True, default=None):
    if field not in data:
        if required:
            raise _fail(source, field, "required")
        return default
    value = data[field]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise _fail(source, field, f"expected a number, got {value!r}")
    value = float(value)
    if lo is not None and value < lo:
        raise _fail(source, field, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise _fail(source, field, f"must be <= {hi}, got {value}")
    return value


def _integer(data: dict, field: str, source: str, lo=None, required=True, default=None):
    if field not in data:
        if required:
            raise _fail(source, field, "required")
        return default
    value = data[field]
    if not isinstance(value, int) or isinstance(value, bool):
        raise _fail(source, field, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise _fail(source, field, f"must be >= {lo}, got {value}")
    return value


def _parse_prior(cfg: Any, n: int, m: int, source: str) -> PriorSpec:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise _fail(source, "prior", "expected an object with a 'kind'")
    kind = cfg["kind"]
    try:
        if kind == "uniform":
            return UniformIID()
        if kind == "beta":
            return BetaIID(a=float(cfg["a"]), b=float(cfg["b"]))
        if kind == "degenerate":
            return DegenerateAt(tuple(tuple(float(v) for v in row) for row in cfg["profile"]))
        if kind == "product-grid":
            return ProductGrid(
                tuple(
                    tuple(tuple(float(v) for v in cell) for cell in row)
                    for row in cfg["support"]
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise _fail(source, "prior", str(exc)) from exc
    raise _fail(source, "prior", f"unknown kind {kind!r}")


def loads(text: str, source: str = "<scenario>") -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{source}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{source}: top level must be an object")
    schema = _integer(data, "schema", source)
    if schema != SCHEMA_VERSION:
        raise _fail(source, "schema", f"unsupported version {schema}")
    kind = data.get("kind")
    if kind == "curve":
        variant = data.get("variant")
        if variant not in CURVE_VARIANTS:
            raise _fail(source, "variant", f"expected one of {CURVE_VARIANTS}, got {variant!r}")
        c = _number(data, "c", source)
        if not 0.0 < c < 1.0:
            raise _fail(source, "c", f"must lie strictly inside (0, 1), got {c}")
        grid = _integer(data, "grid", source, lo=2, required=False, default=101)
        return Scenario(source=source, raw=data, kind="curve", variant=variant, threshold=c, grid=grid)
    if kind != "mechanism":
        raise _fail(source, "kind", f"expected 'mechanism' or 'curve', got {kind!r}")

    mechanism = data.get("mechanism")
    if mechanism not in ("winkler", "vcg"):
        raise _fail(source, "mechanism", f"expected 'winkler' or 'vcg', got {mechanism!r}")
    n = _integer(data, "n", source, lo=1)
    m = _integer(data, "m", source, lo=1)
    c = _number(data, "c", source)
    if mechanism == "vcg":
        if not 0.0 <= c < 1.0:
            raise _fail(source, "c", f"must lie in [0, 1), got {c}")
    else:
        if not 0.0 < c < 1.0:
            raise _fail(source, "c", f"must lie strictly inside (0, 1), got {c}")

    cap = _integer(data, "K", source, lo=1, required=(mechanism == "vcg"))
    if cap is not None and cap > m:
        raise _fail(source, "K", f"liquidity cap {cap} exceeds borrower count {m}")

    alpha = _number(data, "alpha", source, required=False, default=1.0)
    if alpha is not None and alpha <= 0:
        raise _fail(source, "alpha", f"must be positive, got {alpha}")
    tcomp = bool(data.get("tcomp", False))

    weights_cfg = data.get("weights", "equal")
    if weights_cfg == "equal":
        weights = tuple(1.0 / n for _ in range(n))
    elif isinstance(weights_cfg, list):
        weights = tuple(float(w) for w in weights_cfg)
        if len(weights) != n:
            raise _fail(source, "weights", f"expected {n} entries, got {len(weights)}")
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise _fail(source, "weights", "entries must be finite and nonnegative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise _fail(source, "weights", f"must sum to 1, got {sum(weights)}")
    else:
        raise _fail(source, "weights", f"expected 'equal' or a list, got {weights_cfg!r}")

    beliefs = None
    if data.get("beliefs") is not None:
        rows = data["beliefs"]
        if len(rows) != n or any(len(row) != m for row in rows):
            raise _fail(source, "beliefs", f"expected an {n}x{m} matrix")
        beliefs = tuple(tuple(float(v) for v in row) for row in rows)
        for row in beliefs:
            for v in row:
                if not 0.0 <= v <= 1.0:
                    raise _fail(source, "beliefs", f"entries must lie in [0, 1], got {v}")

    prior = None
    if data.get("prior") is not None:
        prior = _parse_prior(data["prior"], n, m, source)
    if beliefs is None and prior is None and "campaign" not in data:
        raise _fail(source, "beliefs", "need explicit beliefs, a prior, or a campaign block")

    outcomes = None
    if data.get("outcomes") is not None:
        try:
            outcomes = {int(k): int(v) for k, v in data["outcomes"].items()}
        except (TypeError, ValueError, AttributeError) as exc:
            raise _fail(source, "outcomes", f"expected {{borrower: 0/1}}, got {data['outcomes']!r}") from exc
        for q, o in outcomes.items():
            if not 0 <= q < m:
                raise _fail(source, "outcomes", f"borrower {q} out of range")
            if o not in (0, 1):
                raise _fail(source, "outcomes", f"outcome must be 0 or 1, got {o}")

    audit = data.get("audit")
    if audit is not None and not isinstance(audit, dict):
        raise _fail(source, "audit", "expected an object keyed by check name")

    return Scenario(
        source=source,
        raw=data,
        kind="mechanism",
        mechanism=mechanism,
        n=n,
        m=m,
        threshold=c,
        cap=cap,
        alpha=alpha,
        tcomp=tcomp,
        weights=weights,
        beliefs=beliefs,
        prior=prior,
        outcomes=outcomes,
        seed=_integer(data, "seed", source, required=False, default=0),
        audit=audit,
        reference=data.get("reference"),
        campaign=data.get("campaign"),
        note=data.get("note"),
    )


def load(path) -> Scenario:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario: {exc}") from exc
    return loads(text, source=str(path))


def load_bundled(name: str) -> Scenario:
    path = resources.files("lendmech").joinpath(f"scenarios/{name}.scenario")
    return loads(path.read_text(), source=f"bundled:{name}")


def bundled_path(name: str):
    return resources.files("lendmech").joinpath(f"scenarios/{name}.scenario")


def build_instance(sc: Scenario) -> Instance:
    """The scenario's mechanism instance; a winkler `K` caps it."""
    if sc.kind != "mechanism":
        raise ScenarioError(f"{sc.source}: not a mechanism scenario")
    if sc.mechanism == "winkler":
        return WinklerInstance(
            n=sc.n,
            m=sc.m,
            threshold=sc.threshold,
            aggregator=WeightedLinear(WeightVector(sc.weights)),
            cap=sc.cap,
        )
    return VcgInstance(
        n=sc.n,
        m=sc.m,
        K=sc.cap,
        reserve_threshold=sc.threshold,
        weights=sc.weights,
        alpha=sc.alpha,
        tcomp_enabled=sc.tcomp,
    )


def build_campaign_config(sc: Scenario) -> CampaignConfig:
    if sc.campaign is None:
        raise ScenarioError(f"{sc.source}: scenario has no campaign block")
    cfg = sc.campaign
    mixing = tuple(float(x) for x in cfg["mixing"]) if cfg.get("mixing") else None
    truth_cfg = cfg.get("truth_prior", {"kind": "uniform"})
    if truth_cfg.get("kind") == "beta":
        truth_prior = BetaIID(a=float(truth_cfg["a"]), b=float(truth_cfg["b"]))
    else:
        truth_prior = UniformIID()
    belief_prior = sc.prior if mixing is None else None
    world = WorldModel(mixing=mixing, truth_prior=truth_prior, belief_prior=belief_prior)
    return CampaignConfig(
        mechanism=sc.mechanism,
        n=sc.n,
        m=sc.m,
        threshold=sc.threshold,
        world=world,
        K=sc.cap,
        alpha=sc.alpha,
        tcomp_enabled=sc.tcomp,
        weight_mode=cfg.get("weight_mode", "fixed"),
        initial_weights=sc.weights,
        history_window=cfg.get("history_window"),
    )
