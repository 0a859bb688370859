"""Command-line entry point.

Subcommands: curves (utility-curve CSVs), run (one allocation and
settlement from a scenario), audit (incentive checks with pass/violation/
inconclusive verdicts), campaign (multi-round simulation with ledger and
CSV summaries), weights (outcome-based weights from a ledger).

Exit codes: 0 success, pass, or expected-and-confirmed violation;
1 validation or usage error; 2 unexpected violation or failed
reproduction; 3 inconclusive verdict.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import audit as audit_mod
from . import rounds as rounds_mod
from . import scenario as scenario_mod
from . import scoring
from .errors import LedgerError, MechanismError, ScenarioError
from .mechanism import deficit, linear_scores
from .priors import DegenerateAt, sample_profiles

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VIOLATION = 2
EXIT_INCONCLUSIVE = 3

DESIDERATA = scenario_mod.DESIDERATA


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _fmt(value: float) -> str:
    return repr(float(value))


# ── curves ────────────────────────────────────────────────────────────


def _curve_rows(variant: str, c: float, grid: int) -> tuple[list[str], list[list[float]]]:
    beliefs = [k / (grid - 1) for k in range(grid)]
    if variant in ("trunc-quadratic", "trunc-winkler-log"):
        header = ["belief", "utility"]
        mode = "trunc-quadratic-with-transfer" if variant == "trunc-quadratic" else variant
        rows = [[p, scoring.truthful_mechanism_utility(c, p, mode)] for p in beliefs]
    elif variant == "trunc-quadratic-raw":
        # No compensating transfer. The misreport column pins the report at
        # the funding boundary (limit from above), the profitable deviation
        # for beliefs below the threshold.
        header = ["belief", "truthful_utility", "boundary_misreport_utility"]
        rule = scoring.TruncatedQuadratic(c)

        def truthful(p: float) -> float:
            return scoring.expected_score(rule, p, p) if p > c else 0.0

        def boundary(p: float) -> float:
            return scoring.expected_score(scoring.Quadratic(), p, c)

        rows = [[p, truthful(p), boundary(p)] for p in beliefs]
    elif variant == "winkler-log-score":
        header = ["belief", "expected_score"]
        rule = scoring.Winkler(scoring.Logarithmic(), c)
        rows = [[p, scoring.expected_score(rule, p, p)] for p in beliefs]
    else:
        raise _UsageError(f"unknown curve variant {variant!r}")
    return header, rows


def cmd_curves(args) -> int:
    if args.scenario:
        sc = scenario_mod.load(args.scenario)
        if sc.kind != "curve":
            raise ScenarioError(f"{sc.source}: not a curve scenario")
        variant, c, grid = sc.variant, sc.threshold, sc.grid
    else:
        if args.variant is None or args.threshold is None:
            raise _UsageError("curves needs either --scenario or --variant and --threshold")
        variant, c, grid = args.variant, args.threshold, args.grid
        if not 0.0 < c < 1.0:  # NaN fails too
            raise _UsageError(f"--threshold must lie strictly inside (0, 1), got {c}")
    header, rows = _curve_rows(variant, c, grid)
    out = Path(args.out) if args.out else None
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out:
        out.write_text(text)
        print(f"wrote {len(rows)} points to {out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ── run ───────────────────────────────────────────────────────────────


def _reports_for_run(sc, rng) -> np.ndarray:
    if sc.beliefs is not None:
        return np.asarray(sc.beliefs, dtype=float)
    if sc.prior is None:
        raise ScenarioError(f"{sc.source}: field 'beliefs': run needs beliefs or a prior")
    return sample_profiles(sc.prior, sc.n, sc.m, 1, rng)[0]


def cmd_run(args) -> int:
    sc = scenario_mod.load(args.scenario)
    if sc.kind != "mechanism":
        raise ScenarioError(f"{sc.source}: not a mechanism scenario")
    seed = args.seed if args.seed is not None else sc.seed
    rng = np.random.default_rng(seed)
    reports = _reports_for_run(sc, rng)
    inst = scenario_mod.build_instance(sc)
    alloc = inst.allocate(reports)
    funded_real = alloc.funded_real

    outcomes = sc.outcomes
    if outcomes is None:
        # sample repayments from the lender's aggregated beliefs
        probs = np.minimum(1.0, linear_scores(inst.weights_in_force, reports))
        draws = rng.random(len(funded_real))
        outcomes = {q: int(draws[k] < probs[q]) for k, q in enumerate(funded_real)}
    else:
        outcomes = {q: o for q, o in outcomes.items() if q in funded_real}
        for q in funded_real:
            outcomes.setdefault(q, 0)
    settlement = inst.settle(reports, outcomes, allocation=alloc)

    reserves = alloc.reserves_funded
    print(f"scenario: {sc.source}")
    print(f"mechanism: {sc.mechanism}")
    print(f"funded borrowers: {list(funded_real)}" + (f" (+{reserves} reserve)" if reserves else ""))
    print(f"outcomes: {json.dumps({str(q): o for q, o in sorted(outcomes.items())}, sort_keys=True)}")
    for i in range(inst.n):
        parts = [
            f"immediate={_fmt(settlement.immediate[i])}",
            f"contingent={_fmt(settlement.paid(i))}",
        ]
        if settlement.tcomp is not None:
            parts.append(f"rebate={_fmt(settlement.tcomp[i])}")
        parts.append(f"utility={_fmt(settlement.realized_utility(i))}")
        print(f"recommender {i}: " + " ".join(parts))
    print(f"deficit: {_fmt(deficit(settlement))}")
    return EXIT_OK


# ── audit ─────────────────────────────────────────────────────────────


def _finish(verdict_str: str, expected: str, payload: dict, as_json: bool) -> int:
    expected_note = " (expected)" if verdict_str == expected else ""
    if as_json:
        print(json.dumps({**payload, "verdict": verdict_str, "expected": expected}, sort_keys=True))
    else:
        print(f"verdict: {verdict_str.upper()}{expected_note}")
    if verdict_str == expected:
        return EXIT_OK
    if verdict_str == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_VIOLATION


def _print_reproduction(report) -> None:
    print("reference reproduction:")
    print("  aggregates: " + " ".join(f"{v:.4f}" for v in report.aggregates))
    for i, row in enumerate(report.thresholds):
        print(f"  thresholds recommender {i}: " + " ".join(f"{v:.4f}" for v in row))
    print("  honest utilities: " + " ".join(f"{v:.4f}" for v in report.honest_utilities))
    print("  misreport utilities: " + " ".join(f"{v:.4f}" for v in report.misreport_utilities))
    print(
        f"  honest funds borrower {report.honest_funded}; "
        f"misreport by recommender {report.misreporter} funds borrower {report.misreport_funded}"
    )
    print(f"  max abs error vs reference: {report.max_abs_error:.6f}")


def cmd_audit(args) -> int:
    sc = scenario_mod.load(args.scenario)
    desideratum = args.desideratum
    block = scenario_mod.audit_block(sc, desideratum)
    seed = args.seed if args.seed is not None else block.seed
    samples = args.samples if args.samples is not None else block.samples
    if samples < (minimum := scenario_mod.min_samples(desideratum)):
        raise _UsageError(f"--samples must be >= {minimum} for {desideratum}, got {samples}")
    inst = scenario_mod.build_instance(sc)
    payload: dict = {"scenario": sc.source, "desideratum": desideratum, "seed": seed}

    if desideratum == "grain-of-no-veto":
        if sc.prior is None:
            raise ScenarioError(f"{sc.source}: grain-of-no-veto needs a prior")
        report = audit_mod.grain_of_no_veto(inst, sc.prior, samples, seed)
        for i, row in enumerate(report.estimates):
            print(f"recommender {i}: " + " ".join(f"{v:.4f}" for v in row))
        verdict_str = "present" if report.all_positive else "absent"
        payload["estimates"] = [list(r) for r in report.estimates]
        print(f"no-veto probability is {verdict_str} "
              f"({len(report.zero_pairs)} zero pairs of {inst.n * inst.m})")
        if args.json:
            record = {**payload, "verdict": verdict_str, "expected": block.expect}
            print(json.dumps(record, sort_keys=True))
        return EXIT_OK if verdict_str == block.expect else EXIT_VIOLATION

    if desideratum in ("alloc-eff", "ex-post-ir", "strong-ex-post-ir"):
        profiles = audit_mod.check_profiles(sc.n, sc.m, sc.beliefs, block.trials, seed)
        if desideratum == "alloc-eff":
            ok = all(audit_mod.allocative_efficiency_check(inst, p) for p in profiles)
            print(f"checked {len(profiles)} profiles against brute-force welfare")
        elif desideratum == "ex-post-ir":
            worst = min(audit_mod.ex_post_ir_check(inst, p)[1] for p in profiles)
            print(f"worst truthful expected utility over {len(profiles)} profiles: {worst!r}")
            ok = worst >= -audit_mod.EXACT_TOL
        else:
            worst = min(audit_mod.strong_ex_post_ir_check(inst, p)[1] for p in profiles)
            print(f"worst realized utility over all outcome vectors: {worst!r}")
            ok = worst >= -audit_mod.EXACT_TOL
        return _finish("pass" if ok else "violation", block.expect, payload, args.json)

    if desideratum == "weight-monotonicity":
        i = block.recommender or 0
        verdict = audit_mod.weight_monotonicity_check(
            inst, i, block.w_low, block.w_high, reports=sc.beliefs, trials=block.trials, seed=seed
        )
        print(
            f"raised weight of recommender {i} from {block.w_low} to {block.w_high}: "
            f"{verdict.counts.losses}/{verdict.counts.candidates} profiles strictly improved"
        )
        return _finish(verdict.verdict, block.expect, payload, args.json)

    # best-response searches (weak-epic / strict-epic / strict-iic)
    if sc.beliefs is None and sc.prior is None:
        raise ScenarioError(f"{sc.source}: audit needs beliefs or a prior")
    ex_post = desideratum in ("weak-epic", "strict-epic")
    if ex_post and sc.beliefs is None:
        raise ScenarioError(f"{sc.source}: ex post audits need explicit beliefs")
    prior = sc.prior if sc.prior is not None and not ex_post else DegenerateAt(sc.beliefs)
    # (recommender, true row) pairs, in search order.
    if block.true_row is not None and not ex_post:
        true_rows = [(block.recommender or 0, block.true_row)]
    elif sc.beliefs is not None:
        who = range(sc.n) if block.recommender is None else (block.recommender,)
        true_rows = [(i, tuple(sc.beliefs[i])) for i in who]
    else:
        rng = np.random.default_rng(seed + 1)
        target = block.recommender or 0
        true_rows = [(target, tuple(rng.random(sc.m))) for _ in range(block.random_true_rows)]

    if sc.reference is not None:
        _print_reproduction(audit_mod.reproduce_reference(sc))

    worst_verdict = "pass"
    order = {"pass": 0, "inconclusive": 1, "violation": 2}
    for i, row in true_rows:
        verdict = audit_mod.best_response_search(
            inst, i, row, prior, block.strategies, samples, seed, desideratum=desideratum
        )
        gain = verdict.witness.mean_gain if verdict.witness else 0.0
        print(
            f"recommender {i}: {verdict.verdict} "
            f"(truth mean {verdict.truth_mean:.4f}, candidates {verdict.counts.candidates}, "
            f"wins {verdict.counts.wins}, ties {verdict.counts.ties}, "
            f"max gain {gain:.4f})"
        )
        if verdict.witness is not None:
            print(
                f"  witness misreport: {[round(v, 4) for v in verdict.witness.candidate.row]} "
                f"gain {verdict.witness.mean_gain:.4f} +- {verdict.witness.std_error:.4f}"
            )
        if order[verdict.verdict] > order[worst_verdict]:
            worst_verdict = verdict.verdict
    return _finish(worst_verdict, block.expect, payload, args.json)


# ── campaign ──────────────────────────────────────────────────────────


def cmd_campaign(args) -> int:
    sc = scenario_mod.load(args.scenario)
    config = scenario_mod.build_campaign_config(sc)
    rounds = args.rounds if args.rounds is not None else sc.campaign.rounds
    seed = args.seed if args.seed is not None else sc.seed
    alphas = [config.alpha]
    if args.alpha_sweep is not None:
        # Only VCG's payments scale with alpha; a Winkler sweep would repeat one run.
        if sc.mechanism != "vcg":
            raise _UsageError("--alpha-sweep applies to VCG scenarios only")
        alphas = [_positive_alpha(a) for a in args.alpha_sweep.split(",")]
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    sweep_rows = []
    for alpha in alphas:
        cfg = dataclasses.replace(config, alpha=alpha)
        summary, ledger = rounds_mod.campaign(rounds, cfg, seed)
        label = f"alpha={alpha!r}"
        print(
            f"{label}: rounds={summary.rounds} funded={summary.funded} "
            f"repaid={summary.repaid} repayment_rate={summary.repayment_rate:.4f} "
            f"base_rate={summary.base_rate:.4f} deficit={_fmt(summary.cumulative_deficit)}"
        )
        print(f"  final weights: {[round(w, 4) for w in summary.final_weights]}")
        sweep_rows.append((alpha, summary))
        if out_dir and len(alphas) == 1:
            ledger.write_jsonl(out_dir / "ledger.jsonl")
            _write_summary_csv(out_dir / "summary.csv", summary)
            _write_weights_csv(out_dir / "weights.csv", summary)
            print(f"  wrote ledger.jsonl, summary.csv, weights.csv to {out_dir}")
    if out_dir and len(alphas) > 1:
        with open(out_dir / "alpha_sweep.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "cumulative_deficit", "repayment_rate"])
            for alpha, summary in sweep_rows:
                writer.writerow(
                    [_fmt(alpha), _fmt(summary.cumulative_deficit), _fmt(summary.repayment_rate)]
                )
        print(f"wrote alpha_sweep.csv to {out_dir}")
    return EXIT_OK


def _positive_alpha(text: str) -> float:
    """One `--alpha-sweep` item as a finite positive float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise _UsageError(f"--alpha-sweep values must be finite and positive, got {text!r}")
    return value


def _write_summary_csv(path, summary) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["rounds", "funded", "repaid", "repayment_rate", "base_rate", "cumulative_deficit"]
            + [f"utility_{i}" for i in range(len(summary.recommender_utilities))]
        )
        writer.writerow(
            [
                summary.rounds,
                summary.funded,
                summary.repaid,
                _fmt(summary.repayment_rate),
                _fmt(summary.base_rate),
                _fmt(summary.cumulative_deficit),
            ]
            + [_fmt(u) for u in summary.recommender_utilities]
        )


def _write_weights_csv(path, summary) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        n = len(summary.final_weights)
        writer.writerow(["round"] + [f"w_{i}" for i in range(n)])
        for r, weights in enumerate(summary.weight_trajectory):
            writer.writerow([r] + [_fmt(w) for w in weights])
        writer.writerow(["final"] + [_fmt(w) for w in summary.final_weights])


# ── weights ───────────────────────────────────────────────────────────


def cmd_weights(args) -> int:
    ledger = rounds_mod.RoundLedger.read_jsonl(args.ledger)
    if not len(ledger):
        print("empty ledger: equal weights by fallback")
    n = args.n if args.n is not None else (len(ledger.records[0].weights) if len(ledger) else None)
    if n is None:
        raise _UsageError("cannot infer recommender count from an empty ledger; pass --n")
    if any(len(record.weights) != n for record in ledger.records):
        raise LedgerError(f"{args.ledger}: every round must have {n} recommenders")
    weights = rounds_mod.evolve_weights(ledger, n, args.window)
    print("weights: " + " ".join(_fmt(w) for w in weights.weights))
    return EXIT_OK


# ── wiring ────────────────────────────────────────────────────────────


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by every later
    one: parsing leaves a parser as it was, and building one costs about a
    millisecond, which `main` would otherwise pay on every call."""
    parser = _Parser(prog="lendmech", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_curves = sub.add_parser("curves", help="emit truthful-utility curve CSVs")
    p_curves.add_argument("--scenario", help="curve scenario file")
    p_curves.add_argument("--variant", choices=scenario_mod.CURVE_VARIANTS)
    p_curves.add_argument("--threshold", type=float, help="lender profit threshold c")
    p_curves.add_argument("--grid", type=int, default=101)
    p_curves.add_argument("--out", help="output CSV path (default stdout)")
    p_curves.set_defaults(func=cmd_curves)

    p_run = sub.add_parser("run", help="run one allocation and settlement")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int)
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", help="run an incentive audit")
    p_audit.add_argument("scenario")
    p_audit.add_argument("desideratum", choices=DESIDERATA)
    p_audit.add_argument("--samples", type=int)
    p_audit.add_argument("--seed", type=int)
    # Accepted and ignored: the search is single-threaded and batched.
    p_audit.add_argument("--workers", type=int, default=1, help="no effect; kept for old scripts")
    p_audit.add_argument("--json", action="store_true", help="emit a machine-readable record")
    p_audit.set_defaults(func=cmd_audit)

    p_campaign = sub.add_parser("campaign", help="run a multi-round simulation")
    p_campaign.add_argument("scenario")
    p_campaign.add_argument("--rounds", type=int)
    p_campaign.add_argument("--seed", type=int)
    p_campaign.add_argument("--out", help="directory for ledger and CSV summaries")
    p_campaign.add_argument("--alpha-sweep", help="comma-separated alphas to sweep (VCG scenarios only)")
    p_campaign.set_defaults(func=cmd_campaign)

    p_weights = sub.add_parser("weights", help="outcome-based weights from a ledger")
    p_weights.add_argument("ledger")
    p_weights.add_argument("--n", type=int, help="recommender count (inferred when possible)")
    p_weights.add_argument("--window", type=int, help="use only the last N funded loans")
    p_weights.set_defaults(func=cmd_weights)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag, lo in (("seed", 0), ("rounds", 1), ("window", 1), ("grid", 2), ("n", 1)):
            value = getattr(args, flag, None)
            if value is not None and value < lo:
                raise _UsageError(f"--{flag} must be >= {lo}, got {value}")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except LedgerError as exc:
        print(f"ledger error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MechanismError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
