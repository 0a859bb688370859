"""The benchmark's CLI calls and the two workloads that group them.

Each call turns the benchmark seed into one scenario file; the program sees
only that file and `--seed`. Audits run with `--workers 1`, so every call
is single-threaded and measures the program, not the scheduler. The `why`
next to each call says which layer it was chosen to load.

A workload runs its calls in turn, as one pass, and passes repeat for the
whole run. Pairing two calls in one workload, rather than giving each its
own, doubles the time every run has under the benchmark's time budget; on
a shared host whose speed drifts by tens of percent over seconds to
minutes, that is what keeps the run medians steady.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from lendmech import rounds as rounds_mod
from lendmech import scenario as scenario_mod

AUDIT_SAMPLES = 100_000
AUDIT_GRID = 101
VCG_SHIFTS = (-0.1, 0.05, 0.1)
BUDESCU_ROUNDS = 300
TCOMP_ROUNDS = 200
UTILITY_FLOOR = -1e-9

_RECOMMENDER_LINE = re.compile(
    r"^recommender (\d+): (\w+) \(truth mean [-\d.]+, candidates (\d+), wins (\d+), ties (\d+),"
)


class CheckFailed(Exception):
    """An output of the program did not match what the seed implies."""


def _expected_candidates(true_row, grid: int, shifts) -> int:
    # Mirrors the documented strategy semantics: a grid point or shifted row
    # equal to the truth is not a misreport.
    points = np.linspace(0.0, 1.0, grid)
    count = sum(int(abs(v - t) > 1e-12) for t in true_row for v in points)
    for delta in shifts:
        shifted = [min(1.0, max(0.0, t + delta)) for t in true_row]
        count += int(max(abs(s - t) for s, t in zip(shifted, true_row)) > 1e-12)
    return count


class Call:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        self.seed = seed
        self.scenario_path = workdir / "scenario.json"
        self.out_dir = workdir / "out"
        self.scenario_path.write_text(json.dumps(self.scenario(), indent=2, sort_keys=True))
        self._first = None

    def scenario(self) -> dict:
        raise NotImplementedError

    def argv(self) -> list[str]:
        raise NotImplementedError

    def observe(self, code: int, stdout: str):
        """Check one call's result and return what must repeat exactly."""
        raise NotImplementedError

    def check_call(self, code: int, stdout: str):
        """Check one CLI call; every call must repeat the first bit for bit."""
        observed = self.observe(code, stdout)
        if self._first is None:
            self._first = observed
        elif observed != self._first:
            raise CheckFailed("output differs from the first call with the same seed")

    # Optional check made once per benchmark run, after the timed calls;
    # it counts as one more attempted operation.
    check_run = None


class _Audit(Call):
    shifts: tuple[float, ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        # Random true rows, each coordinate at the midpoint of a grid cell:
        # a grid point closer to the truth than the Monte Carlo resolution
        # ties with it and makes the verdict inconclusive, not a pass.
        rng = np.random.default_rng([seed, 1])
        cells = rng.integers(0, AUDIT_GRID - 1, size=2)
        self.true_row = [float((k + 0.5) / (AUDIT_GRID - 1)) for k in cells]
        self.expected_candidates = _expected_candidates(self.true_row, AUDIT_GRID, self.shifts)
        super().__init__(seed, workdir)

    def _audit_block(self) -> dict:
        block = {
            "recommender": 0,
            "true_row": self.true_row,
            "samples": AUDIT_SAMPLES,
            "single_coordinate_grid": AUDIT_GRID,
            "expect": "pass",
        }
        if self.shifts:
            block["equal_shift"] = list(self.shifts)
        return block

    def argv(self) -> list[str]:
        return [
            "audit", str(self.scenario_path), "strict-iic",
            "--seed", str(self.seed), "--workers", "1",
        ]

    def observe(self, code: int, stdout: str):
        lines = stdout.splitlines()
        rows = [_RECOMMENDER_LINE.match(line) for line in lines]
        rows = [r for r in rows if r]
        if code != 0:
            raise CheckFailed(f"exit code {code}, expected 0")
        if len(rows) != 1 or lines[-1] != "verdict: PASS (expected)":
            raise CheckFailed(f"unexpected audit output: {stdout!r}")
        _, verdict, candidates, wins, _ = rows[0].groups()
        if verdict != "pass" or int(wins) != 0:
            raise CheckFailed(f"verdict {verdict} with {wins} wins, expected pass with 0")
        if int(candidates) != self.expected_candidates:
            raise CheckFailed(f"{candidates} candidates, expected {self.expected_candidates}")
        return stdout


class AuditVcg(_Audit):
    name = "audit-vcg-mc"
    why = "VCG strict-IIC audit at 100k samples: vcg.InterimEngine and select_batch do the work"
    shifts = VCG_SHIFTS

    def scenario(self) -> dict:
        return {
            "schema": 1, "kind": "mechanism", "mechanism": "vcg",
            "n": 4, "m": 2, "K": 1, "c": 0.5, "weights": "equal",
            "prior": {"kind": "uniform"}, "seed": self.seed,
            "audit": {"strict-iic": self._audit_block()},
        }


class AuditWinkler(_Audit):
    name = "audit-winkler-mc"
    why = "Winkler strict-IIC audit at 100k samples: ColumnEngine.column_contribution does the work"

    def scenario(self) -> dict:
        return {
            "schema": 1, "kind": "mechanism", "mechanism": "winkler",
            "n": 4, "m": 2, "c": 0.5, "weights": "equal",
            "prior": {"kind": "uniform"}, "seed": self.seed,
            "audit": {"strict-iic": self._audit_block()},
        }


class _Campaign(Call):
    rounds = 0

    def argv(self) -> list[str]:
        return [
            "campaign", str(self.scenario_path),
            "--seed", str(self.seed), "--out", str(self.out_dir),
        ]

    def observe(self, code: int, stdout: str):
        if code != 0:
            raise CheckFailed(f"exit code {code}, expected 0")
        files = tuple(
            (self.out_dir / name).read_bytes()
            for name in ("ledger.jsonl", "summary.csv", "weights.csv")
        )
        records = files[0].count(b"\n")
        if records != self.rounds:
            raise CheckFailed(f"ledger has {records} records, expected {self.rounds}")
        return stdout, files

    def check_run(self) -> None:
        """Replay: the ledger read back equals the campaign's own records."""
        sc = scenario_mod.load(self.scenario_path)
        _, ledger = rounds_mod.campaign(self.rounds, scenario_mod.build_campaign_config(sc), self.seed)
        replayed = rounds_mod.RoundLedger.read_jsonl(self.out_dir / "ledger.jsonl")
        if replayed.records != ledger.records:
            raise CheckFailed("ledger read back differs from the campaign's own records")
        self.check_records(replayed.records)

    def check_records(self, records) -> None:
        pass


class CampaignBudescu(_Campaign):
    name = "campaign-budescu"
    why = "Winkler campaign with Budescu weights: evolve_weights rebuilds history every round"
    rounds = BUDESCU_ROUNDS

    def scenario(self) -> dict:
        return {
            "schema": 1, "kind": "mechanism", "mechanism": "winkler",
            "n": 3, "m": 6, "c": 0.5, "weights": "equal", "seed": self.seed,
            "campaign": {
                "rounds": self.rounds, "mixing": [0.9, 0.5, 0.1], "weight_mode": "budescu",
            },
        }

    def observe(self, code: int, stdout: str):
        observed = super().observe(code, stdout)
        final = (self.out_dir / "weights.csv").read_text().splitlines()[-1].split(",")
        if final[0] != "final":
            raise CheckFailed("weights.csv has no final row")
        weights = [float(w) for w in final[1:]]
        if max(weights[1:]) >= weights[0]:
            raise CheckFailed(f"recommender 0 does not carry the largest final weight: {weights}")
        return observed


class CampaignVcgTcomp(_Campaign):
    name = "campaign-vcg-tcomp"
    why = "VCG campaign with rebates, m=10, K=4: the tcomp boost-set enumeration does the work"
    rounds = TCOMP_ROUNDS

    def scenario(self) -> dict:
        return {
            "schema": 1, "kind": "mechanism", "mechanism": "vcg",
            "n": 3, "m": 10, "K": 4, "c": 0.4, "weights": "equal", "alpha": 1.0,
            "tcomp": True, "seed": self.seed,
            "campaign": {
                "rounds": self.rounds, "mixing": [0.8, 0.6, 0.4], "weight_mode": "fixed",
            },
        }

    def check_records(self, records) -> None:
        worst = min(u for rec in records for u in rec.realized_utilities)
        if worst < UTILITY_FLOOR:
            raise CheckFailed(f"realized utility {worst!r} below {UTILITY_FLOOR} with rebates on")


# name -> (why, calls of one pass)
WORKLOADS = {
    "audits": (
        "Monte Carlo strict-IIC audits, VCG then Winkler: the two vectorized interim engines",
        (AuditVcg, AuditWinkler),
    ),
    "campaigns": (
        "Budescu-weighted Winkler and tcomp VCG campaigns: per-round Python, weights and rebates",
        (CampaignBudescu, CampaignVcgTcomp),
    ),
}
