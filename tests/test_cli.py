"""CLI tests: subcommands, exit codes, output determinism, validation."""

import json
from pathlib import Path

import pytest

from lendmech import cli
from lendmech.scenario import bundled_path, load, load_bundled


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table1_path():
    return str(bundled_path("table1"))


# `lendmech run` stdout per "<scenario> --seed <seed>", run from the bundled
# scenarios directory.
RUN_GOLDEN = json.loads((Path(__file__).parent / "data" / "run_golden.json").read_text())

# `lendmech audit` exit code and stdout per "<scenario> <desideratum> [flags]",
# run from the bundled scenarios directory: every bundled audit block, and
# the 100k-sample VCG strict-IIC search.
AUDIT_GOLDEN = json.loads((Path(__file__).parent / "data" / "audit_golden.json").read_text())

# Every (bundled scenario, declared audit block) pair.
AUDIT_PAIRS = [
    (path.stem, desideratum)
    for path in sorted(Path(str(bundled_path("table1"))).parent.glob("*.scenario"))
    for desideratum in load(path).audit
]

DELETE = object()


def mutated_scenario(tmp_path, name, field_path, value):
    """A copy of bundled scenario `name` with one field set (or deleted)."""
    data = json.loads(bundled_path(name).read_text())
    *parents, key = field_path
    target = data
    for part in parents:
        target = target.setdefault(part, {})
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    path = tmp_path / f"{name}.scenario"
    path.write_text(json.dumps(data))
    return str(path)


class TestCurves:
    def test_trunc_quadratic_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "curves", "--variant", "trunc-quadratic", "--threshold", "0.6", "--grid", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "belief,utility"
        assert [line.split(",")[1] for line in lines[1:]] == ["0.52", "0.52", "1.0"]

    def test_winkler_curve_endpoints(self, capsys):
        code, out, _ = run_cli(
            capsys, "curves", "--variant", "trunc-winkler-log", "--threshold", "0.3", "--grid", "5"
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert code == 0
        assert float(rows[0][1]) == 0.0
        assert float(rows[1][1]) == 0.0  # 0.25 <= c
        assert float(rows[-1][1]) == 1.0

    def test_raw_variant_has_misreport_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curves",
            "--variant", "trunc-quadratic-raw",
            "--threshold", "0.6",
            "--grid", "5",
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == ["belief", "truthful_utility", "boundary_misreport_utility"]

    def test_scenario_file(self, capsys):
        code, out, _ = run_cli(
            capsys, "curves", "--scenario", str(bundled_path("curve-trunc-winkler-c03"))
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 102

    def test_byte_identical_output(self, capsys):
        args = ("curves", "--variant", "trunc-quadratic", "--threshold", "0.3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys,
            "curves", "--variant", "trunc-quadratic", "--threshold", "0.6", "--out", str(out),
        )
        assert code == 0
        assert out.read_text().startswith("belief,utility")

    def test_missing_arguments(self, capsys):
        code, _, err = run_cli(capsys, "curves")
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--grid", "1"), "--grid must be >= 2, got 1"),
            (("--grid", "0"), "--grid must be >= 2, got 0"),
            (("--threshold", "1.5"), "--threshold must lie strictly inside (0, 1), got 1.5"),
            (("--threshold", "nan"), "--threshold must lie strictly inside (0, 1), got nan"),
            (("--threshold", "0"), "--threshold must lie strictly inside (0, 1), got 0.0"),
            (("--threshold", "1"), "--threshold must lie strictly inside (0, 1), got 1.0"),
        ],
    )
    def test_bad_grid_or_threshold_is_a_usage_error(self, flags, message, capsys):
        argv = ("curves", "--variant", "trunc-quadratic", "--threshold", "0.6") + flags
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"usage error: {message}\n"


class TestRun:
    def test_table1_run_is_deterministic(self, capsys):
        code, first, _ = run_cli(capsys, "run", table1_path())
        assert code == 0
        assert "funded borrowers: [0]" in first
        _, second, _ = run_cli(capsys, "run", table1_path())
        assert first == second

    def test_sampled_run_per_seed(self, capsys):
        path = str(bundled_path("vcg-n4"))
        _, a, _ = run_cli(capsys, "run", path, "--seed", "1")
        _, b, _ = run_cli(capsys, "run", path, "--seed", "1")
        _, c, _ = run_cli(capsys, "run", path, "--seed", "2")
        assert a == b
        assert a != c

    @pytest.mark.parametrize("key", sorted(RUN_GOLDEN))
    def test_stdout_matches_golden(self, key, capsys, monkeypatch):
        # Capped Winkler (table1), VCG and uncapped Winkler settlements.
        monkeypatch.chdir(Path(str(bundled_path("table1"))).parent)
        code, out, _ = run_cli(capsys, "run", *key.split())
        assert code == 0
        assert out == RUN_GOLDEN[key]

    @pytest.mark.parametrize("name", ["campaign-budescu", "campaign-vcg"])
    def test_needs_beliefs_or_prior(self, name, capsys):
        code, out, err = run_cli(capsys, "run", str(bundled_path(name)))
        assert code == 1
        assert out == ""
        assert "scenario error:" in err
        assert "field 'beliefs': run needs beliefs or a prior" in err


class TestAudit:
    def test_expected_violation_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "audit", table1_path(), "weak-epic")
        assert code == 0
        assert "VIOLATION (expected)" in out
        assert "reference reproduction" in out

    def test_unexpected_violation_exits_two(self, tmp_path, capsys):
        data = json.loads(bundled_path("table1").read_text())
        data["audit"]["weak-epic"].pop("expect")
        path = tmp_path / "unexpected.scenario"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "audit", str(path), "weak-epic")
        assert code == 2
        assert "VIOLATION" in out

    def test_grain_checks(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", str(bundled_path("no-veto-n2-c06")), "grain-of-no-veto",
            "--samples", "5000",
        )
        assert code == 0
        assert "absent" in out
        code, out, _ = run_cli(
            capsys, "audit", str(bundled_path("no-veto-n3-c05")), "grain-of-no-veto",
            "--samples", "5000",
        )
        assert code == 0
        assert "present" in out

    def test_below_threshold_strictness_inconclusive(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", str(bundled_path("no-veto-n2-c06")), "strict-iic",
            "--samples", "5000",
        )
        assert code == 0  # inconclusive is the expected verdict here
        assert "INCONCLUSIVE (expected)" in out

    def test_unknown_desideratum_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "audit", table1_path(), "nonsense")
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize("name, desideratum", AUDIT_PAIRS)
    def test_bundled_audit_block_meets_its_expectation(self, name, desideratum, capsys):
        code, out, err = run_cli(capsys, "audit", str(bundled_path(name)), desideratum)
        assert code == 0, out + err

    def test_golden_covers_every_bundled_audit_block(self):
        assert {f"{name}.scenario {d}" for name, d in AUDIT_PAIRS} <= set(AUDIT_GOLDEN)

    @pytest.mark.parametrize("key", sorted(AUDIT_GOLDEN))
    def test_stdout_matches_golden(self, key, capsys, monkeypatch):
        monkeypatch.chdir(Path(str(bundled_path("table1"))).parent)
        code, out, _ = run_cli(capsys, "audit", *key.split())
        assert (code, out) == (AUDIT_GOLDEN[key]["code"], AUDIT_GOLDEN[key]["stdout"])

    def test_true_rows_print_in_recommender_order(self, tmp_path, capsys):
        n = 11
        path = tmp_path / "eleven.scenario"
        path.write_text(
            json.dumps(
                {
                    "schema": 1, "kind": "mechanism", "mechanism": "winkler",
                    "n": n, "m": 1, "c": 0.5, "weights": "equal",
                    "beliefs": [[0.3 + 0.04 * k] for k in range(n)],
                    "audit": {"weak-epic": {"single_coordinate_grid": 5}},
                }
            )
        )
        code, out, _ = run_cli(capsys, "audit", str(path), "weak-epic")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("recommender ")]
        shown = [int(line.split()[1].rstrip(":")) for line in rows]
        assert shown == list(range(n))

    @pytest.mark.parametrize("name", ["no-veto-n3-c05", "vcg-n4"])
    def test_workers_flag_is_a_no_op(self, name, capsys):
        # --workers still parses, for old scripts, and changes nothing.
        argv = ("audit", str(bundled_path(name)), "strict-iic", "--samples", "2000")
        one = run_cli(capsys, *argv, "--workers", "1")
        four = run_cli(capsys, *argv, "--workers", "4")
        assert one[:2] == four[:2]
        assert "verdict: " in one[1]

    def test_json_record(self, capsys):
        code, out, _ = run_cli(capsys, "audit", table1_path(), "weak-epic", "--json")
        assert code == 0
        record = json.loads(out.strip().splitlines()[-1])
        assert record["verdict"] == "violation"
        assert record["expected"] == "violation"


class TestCampaign:
    def test_outputs_written(self, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        code, out, _ = run_cli(
            capsys,
            "campaign", str(bundled_path("campaign-budescu")),
            "--rounds", "5", "--seed", "3", "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "ledger.jsonl").exists()
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "weights.csv").exists()
        assert "final weights" in out

    def test_alpha_sweep_scales_deficit(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code, out, _ = run_cli(
            capsys,
            "campaign", str(bundled_path("campaign-vcg")),
            "--rounds", "4", "--seed", "2", "--out", str(out_dir),
            "--alpha-sweep", "1.0,0.5",
        )
        assert code == 0
        rows = (out_dir / "alpha_sweep.csv").read_text().strip().splitlines()[1:]
        deficits = [float(r.split(",")[1]) for r in rows]
        assert deficits[1] == 0.5 * deficits[0]

    def test_weights_subcommand(self, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        run_cli(
            capsys,
            "campaign", str(bundled_path("campaign-budescu")),
            "--rounds", "10", "--seed", "3", "--out", str(out_dir),
        )
        code, out, _ = run_cli(capsys, "weights", str(out_dir / "ledger.jsonl"))
        assert code == 0
        assert out.startswith("weights: ")
        parts = [float(v) for v in out.split()[1:]]
        assert sum(parts) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_weights_rejects_non_positive_window(self, window, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        run_cli(
            capsys,
            "campaign", str(bundled_path("campaign-budescu")),
            "--rounds", "20", "--seed", "3", "--out", str(out_dir),
        )
        code, out, err = run_cli(
            capsys, "weights", str(out_dir / "ledger.jsonl"), "--window", window
        )
        assert code == 1
        assert out == ""
        assert err == f"usage error: --window must be >= 1, got {window}\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("rounds", [0, 2])
    def test_weights_rejects_recommender_count_below_one(self, n, rounds, tmp_path, capsys):
        # Once a traceback (empty ledger) or "every round must have 0
        # recommenders" (a ledger with rounds).
        path = tmp_path / "ledger.jsonl"
        path.write_text("")
        if rounds:
            out_dir = tmp_path / "camp"
            run_cli(
                capsys,
                "campaign", str(bundled_path("campaign-budescu")),
                "--rounds", str(rounds), "--out", str(out_dir),
            )
            path = out_dir / "ledger.jsonl"
        code, out, err = run_cli(capsys, "weights", str(path), "--n", n)
        assert code == 1
        assert out == ""
        assert err == f"usage error: --n must be >= 1, got {n}\n"


class TestParserCache:
    def test_a_shared_parser_answers_each_call_as_a_fresh_one(self, tmp_path, capsys):
        # `main` builds its parser once per process. A flag given in one
        # call and left out of the next, a usage error and a flag below its
        # bound must each give the stdout, stderr and exit code of the same
        # call with a parser built for it alone.
        out_dir = tmp_path / "camp"
        ledger = str(out_dir / "ledger.jsonl")
        budescu = str(bundled_path("campaign-budescu"))
        calls = [
            ["campaign", budescu, "--rounds", "5", "--seed", "3", "--out", str(out_dir)],
            ["campaign", budescu, "--seed", "3"],
            ["audit", table1_path(), "weak-epic", "--json"],
            ["audit", table1_path(), "weak-epic"],
            ["audit", table1_path(), "nonsense"],
            ["weights", ledger, "--n", "0"],
            ["weights", ledger],
        ]
        cli.build_parser.cache_clear()
        shared = [run_cli(capsys, *argv) for argv in calls]
        assert cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 1, 1, 0]
        assert "rounds=5 " in shared[0][1] and "rounds=50 " in shared[1][1]
        assert shared[2][1] != shared[3][1]


def _replace(field, change):
    """The first ledger line with one field changed."""
    return lambda record: json.dumps({**record, field: change(record[field])})


# (ledger contents from the first record of a real ledger, or None for no
# file; what the error must say). Each crashed `weights` with a traceback
# before the ledger was checked on reading.
BAD_LEDGERS = {
    "missing file": (None, "cannot read ledger"),
    "non-JSON line": (lambda record: "{not json", "line 1: not valid JSON"),
    "schema only": (lambda record: '{"schema": 1}', "line 1: field 'round_id': required"),
    "outcome of 2": (
        _replace("outcomes", lambda outcomes: [[q, 2] for q, _ in outcomes]),
        "line 1: field 'outcomes': outcome for borrower",
    ),
    "2 report rows, n = 3": (
        _replace("reports", lambda reports: reports[:2]),
        "line 1: field 'reports': expected 3 rows of 6 numbers",
    ),
}


class TestWeightsLedgerErrors:
    @pytest.fixture
    def record(self, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        run_cli(
            capsys,
            "campaign", str(bundled_path("campaign-budescu")),
            "--rounds", "2", "--seed", "3", "--out", str(out_dir),
        )
        first = json.loads((out_dir / "ledger.jsonl").read_text().splitlines()[0])
        assert first["outcomes"], "the case needs a funded borrower"
        return first

    @pytest.mark.parametrize("case", BAD_LEDGERS, ids=list(BAD_LEDGERS))
    def test_bad_ledger_is_a_ledger_error(self, case, record, tmp_path, capsys):
        make_line, message = BAD_LEDGERS[case]
        path = tmp_path / "bad.jsonl"
        if make_line is not None:
            path.write_text(make_line(record) + "\n")
        code, out, err = run_cli(capsys, "weights", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"ledger error: {path}: {message}")

    def test_recommender_count_must_match_the_ledger(self, record, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(record) + "\n")
        code, _, err = run_cli(capsys, "weights", str(path), "--n", "2")
        assert code == 1
        assert err == f"ledger error: {path}: every round must have 2 recommenders\n"


CAMPAIGN = ("campaign",)

# (scenario, field path, bad value, subcommand and its arguments after the path)
BAD_FIELDS = [
    ("vcg-n4", ("audit", "strict-iic", "recommender"), 9, ("audit", "strict-iic")),
    ("table1", ("audit", "weak-epic", "recommender"), 5, ("audit", "weak-epic")),
    ("no-veto-n2-c06", ("audit", "strict-iic", "samples"), "many", ("audit", "strict-iic")),
    ("vcg-n4", ("audit", "strict-iic", "samples"), 50, ("audit", "strict-iic")),
    ("no-veto-n3-c05", ("audit", "grain-of-no-veto", "samples"), 500,
     ("audit", "grain-of-no-veto")),
    ("table1", ("audit", "weak-epic", "expect"), "violaton", ("audit", "weak-epic")),
    ("table1", ("audit", "weak-epic", "targeted"), [[0.5, 0.5, 0.5]], ("audit", "weak-epic")),
    ("table1", ("audit", "weak-epic", "targeted"), [[0.5]], ("audit", "weak-epic")),
    ("no-veto-n2-c06", ("audit", "strict-iic", "sample"), 100, ("audit", "strict-iic")),
    ("no-veto-n2-c06", ("audit", "strict-icc"), {}, ("audit", "strict-iic")),
    ("campaign-vcg", ("audit", "ex-post-ir", "trials"), 0, ("audit", "ex-post-ir")),
    ("campaign-vcg", ("audit", "weight-monotonicity", "w_high"), 0.2,
     ("audit", "weight-monotonicity")),
    ("table1", ("reference", "tolerance"), DELETE, ("audit", "weak-epic")),
    ("campaign-budescu", ("campaign", "weight_mode"), "budescoo", CAMPAIGN),
    ("campaign-budescu", ("campaign", "mixing"), [0.9, 0.5], CAMPAIGN),
    ("campaign-budescu", ("campaign", "mixing"), [0.9, 0.5, 1.5], CAMPAIGN),
    ("campaign-budescu", ("campaign", "mixing"), DELETE, CAMPAIGN),
    ("campaign-budescu", ("campaign", "truth_prior", "kind"), "betaa", CAMPAIGN),
    ("campaign-budescu", ("campaign", "truth_prior"), {"kind": "degenerate", "profile": [[0.5]]},
     CAMPAIGN),
    ("campaign-budescu", ("campaign", "history_window"), "ten", CAMPAIGN),
    ("campaign-budescu", ("campaign", "history_window"), -3, CAMPAIGN),
    ("campaign-budescu", ("campaign", "rounds"), "ten", CAMPAIGN),
    ("campaign-vcg", ("alpha",), float("nan"), CAMPAIGN),
    ("campaign-vcg", ("tcomp",), "no", CAMPAIGN),
    ("table1", ("weigths",), [0.8, 0.1, 0.1], ("run",)),
    ("table1", ("outcomes", "0"), 0.7, ("run",)),
    ("table1", ("outcomes", "1"), True, ("run",)),
    ("vcg-n4", ("prior",), {"kind": "degenerate", "profile": [["0.5", "0.6"]] * 4}, ("run",)),
    # A prior's points nested one level too shallow or too deep.
    ("vcg-n4", ("prior",), {"kind": "degenerate", "profile": [0.5, 0.6]}, ("run",)),
    ("vcg-n4", ("prior",), {"kind": "product-grid", "support": [[[[0.5]]] * 2] * 4}, ("run",)),
    # A prior reads only its kind's fields.
    ("vcg-n4", ("prior", "a"), 3, ("run",)),
    ("vcg-n4", ("prior", "suport"), [[[0.5]] * 2] * 4, ("run",)),
    # A note is a string.
    ("table1", ("note",), 5, ("run",)),
    ("vcg-n4", ("note",), {"a": 1}, ("run",)),
]


# (scenario, arguments after the path, the flag the usage error names)
BAD_FLAGS = [
    ("vcg-n4", ("audit", "strict-iic", "--samples", "50"), "--samples must be >= 100"),
    ("no-veto-n3-c05", ("audit", "grain-of-no-veto", "--samples", "500"),
     "--samples must be >= 1000"),
    ("campaign-budescu", ("campaign", "--rounds", "0"), "--rounds must be >= 1"),
    ("table1", ("run", "--seed", "-1"), "--seed must be >= 0"),
    ("table1", ("audit", "weak-epic", "--seed", "-1"), "--seed must be >= 0"),
    ("campaign-budescu", ("campaign", "--seed", "-1"), "--seed must be >= 0"),
    ("campaign-budescu", ("campaign", "--rounds", "2", "--alpha-sweep", "0.5,2"),
     "--alpha-sweep applies to VCG scenarios only"),
] + [
    ("campaign-vcg", ("campaign", "--rounds", "2", f"--alpha-sweep={sweep}"),
     f"--alpha-sweep values must be finite and positive, got {item!r}")
    for sweep, item in [("x", "x"), ("0.5,,1", ""), ("-1", "-1"), ("nan", "nan"),
                        ("1,inf", "inf"), ("0", "0")]
]


def _field_id(case):
    name, field_path, value = case[:3]
    return f"{name}:{'.'.join(field_path)}=" + ("deleted" if value is DELETE else repr(value))


class TestValidation:
    @pytest.mark.parametrize("case", BAD_FIELDS, ids=[_field_id(c) for c in BAD_FIELDS])
    def test_bad_field_is_a_field_level_scenario_error(self, case, tmp_path, capsys):
        name, field_path, value, command = case
        path = mutated_scenario(tmp_path, name, field_path, value)
        code, out, err = run_cli(capsys, command[0], path, *command[1:])
        assert code == 1
        assert out == ""
        assert err.startswith(f"scenario error: {path}: field '{'.'.join(field_path)}': ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "prior, message",
        [
            ({"kind": "degenerate", "profile": [0.5, 0.6]},
             "'profile' must be a list of rows of numbers, got [0.5, 0.6]"),
            ({"kind": "degenerate", "profile": [[[0.5], [0.6]]] * 4},
             "'profile' must be a list of rows of numbers, got [[[0.5], [0.6]], "),
            ({"kind": "product-grid", "support": [[[[0.5]]] * 2] * 4},
             "'support' must be a list of rows of cells, each a list of numbers, got [[[[0.5]]"),
            ({"kind": "product-grid", "support": [[0.5, 0.6]] * 4},
             "'support' must be a list of rows of cells, each a list of numbers, got [[0.5, 0.6]"),
        ],
    )
    def test_prior_points_at_the_wrong_depth_name_the_shape(self, prior, message):
        from lendmech.errors import ScenarioError
        from lendmech.scenario import loads

        data = json.loads(bundled_path("vcg-n4").read_text())
        data["prior"] = prior
        with pytest.raises(ScenarioError) as caught:
            loads(json.dumps(data), "vcg-n4.scenario")
        assert str(caught.value).startswith(f"vcg-n4.scenario: field 'prior': {message}")

    @pytest.mark.parametrize(
        "name, argv, message", BAD_FLAGS, ids=[" ".join((c[0],) + c[1]) for c in BAD_FLAGS]
    )
    def test_flag_below_its_bound_is_a_usage_error(self, name, argv, message, capsys):
        command, *rest = argv
        code, out, err = run_cli(capsys, command, str(bundled_path(name)), *rest)
        assert code == 1
        assert out == ""
        assert err.startswith(f"usage error: {message}")
        assert "Traceback" not in err

    def test_cap_exceeding_borrowers(self, tmp_path, capsys):
        path = tmp_path / "bad.scenario"
        path.write_text(
            json.dumps(
                {
                    "schema": 1, "kind": "mechanism", "mechanism": "vcg",
                    "n": 2, "m": 2, "K": 3, "c": 0.4,
                    "prior": {"kind": "uniform"},
                }
            )
        )
        code, _, err = run_cli(capsys, "audit", str(path), "weak-epic")
        assert code == 1
        assert "field 'K'" in err

    def test_bad_weights_sum(self, tmp_path, capsys):
        path = tmp_path / "bad.scenario"
        path.write_text(
            json.dumps(
                {
                    "schema": 1, "kind": "mechanism", "mechanism": "winkler",
                    "n": 2, "m": 1, "c": 0.5, "weights": [0.7, 0.7],
                    "beliefs": [[0.5], [0.5]],
                }
            )
        )
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 1
        assert "field 'weights'" in err

    def test_vcg_threshold_domain_includes_zero(self):
        sc = load_bundled("vcg-n4")
        assert sc.threshold == 0.5
        text = bundled_path("vcg-n4").read_text().replace('"c": 0.5', '"c": 0.0')
        from lendmech.scenario import loads

        assert loads(text).threshold == 0.0

    def test_winkler_threshold_zero_rejected(self, tmp_path):
        from lendmech.errors import ScenarioError
        from lendmech.scenario import loads

        text = bundled_path("no-veto-n2-c06").read_text().replace('"c": 0.6', '"c": 0.0')
        with pytest.raises(ScenarioError, match="field 'c'"):
            loads(text)

    def test_nan_weights_rejected(self):
        from lendmech.errors import ScenarioError
        from lendmech.scenario import loads

        text = bundled_path("campaign-budescu").read_text()
        data = json.loads(text)
        data["weights"] = [float("nan")] + [1.0 / (data["n"] - 1)] * (data["n"] - 1)
        with pytest.raises(ScenarioError, match="field 'weights'"):
            loads(json.dumps(data))

    def test_nan_beta_parameter_rejected(self):
        from lendmech.errors import ScenarioError
        from lendmech.scenario import loads

        data = json.loads(bundled_path("no-veto-n3-c05").read_text())
        data["prior"] = {"kind": "beta", "a": float("nan"), "b": 1.0}
        with pytest.raises(ScenarioError, match="field 'prior.a'"):
            loads(json.dumps(data))

    @pytest.mark.parametrize(
        "prior, field",
        [
            ({"kind": "uniform", "a": 3}, "a"),
            ({"kind": "product-grid", "suport": [[[0.5]] * 6]}, "suport"),
            ({"kind": "beta", "a": 2.0, "b": 2.0, "profile": [[0.5] * 6]}, "profile"),
        ],
    )
    def test_truth_prior_field_outside_its_kind_rejected(self, prior, field):
        from lendmech.errors import ScenarioError
        from lendmech.scenario import loads

        data = json.loads(bundled_path("campaign-budescu").read_text())
        data["campaign"]["truth_prior"] = prior
        with pytest.raises(ScenarioError, match=f"field 'campaign.truth_prior.{field}': unknown"):
            loads(json.dumps(data))

    def test_all_bundled_scenarios_parse(self):
        for name in (
            "table1",
            "vcg-n4",
            "no-veto-n2-c06",
            "no-veto-n3-c05",
            "curve-trunc-quadratic-c06",
            "curve-trunc-quadratic-c03",
            "curve-trunc-quadratic-raw-c06",
            "curve-trunc-winkler-c03",
            "campaign-budescu",
            "campaign-vcg",
        ):
            load_bundled(name)

    def test_load_missing_file(self):
        from lendmech.errors import ScenarioError

        with pytest.raises(ScenarioError):
            load("/nonexistent/path.scenario")
