"""Long-campaign goldens: the sha256 of every file `lendmech campaign --out`
writes, and of its stdout, for campaigns of hundreds of rounds.

The shapes are the benchmark's two campaigns (a 300-round Budescu-weighted
Winkler campaign with n = 3, m = 6, and a 200-round VCG campaign with
rebates, n = 3, m = 10, K = 4), a capped (K = 2) Budescu-weighted Winkler
campaign and a Budescu-weighted VCG campaign, each at two seeds. The
digests in data/campaign_golden.json pin every byte, so a change to how
rounds are drawn, allocated, settled or recorded that moves one bit of any
round shows here.

To regenerate after a deliberate change of output, run
`python tests/test_campaign_golden.py > tests/data/campaign_golden.json`
with `src` on the path.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from lendmech import cli

GOLDEN = Path(__file__).parent / "data" / "campaign_golden.json"

SHAPES = {
    "budescu-winkler-r300": {
        "mechanism": "winkler", "n": 3, "m": 6, "c": 0.5,
        "campaign": {"rounds": 300, "mixing": [0.9, 0.5, 0.1], "weight_mode": "budescu"},
    },
    "tcomp-vcg-r200": {
        "mechanism": "vcg", "n": 3, "m": 10, "K": 4, "c": 0.4, "alpha": 1.0, "tcomp": True,
        "campaign": {"rounds": 200, "mixing": [0.8, 0.6, 0.4], "weight_mode": "fixed"},
    },
    "capped-budescu-winkler-r300": {
        "mechanism": "winkler", "n": 3, "m": 6, "K": 2, "c": 0.3,
        "campaign": {"rounds": 300, "mixing": [0.9, 0.5, 0.1], "weight_mode": "budescu"},
    },
    "budescu-vcg-r200": {
        "mechanism": "vcg", "n": 3, "m": 6, "K": 3, "c": 0.4, "alpha": 1.0, "tcomp": True,
        "campaign": {
            "rounds": 200, "mixing": [0.9, 0.5, 0.1], "weight_mode": "budescu",
            "history_window": 40,
        },
    },
}
SEEDS = (1, 7)
OUTPUTS = ("ledger.jsonl", "summary.csv", "weights.csv")


def campaign_digests(shape: str, seed: int) -> dict[str, str]:
    """The exit code, and the sha256 of stdout and of each file written, of
    `lendmech campaign <shape> --seed <seed> --out out`, run in a fresh
    directory so that stdout names the relative `out`."""
    spec = {"schema": 1, "kind": "mechanism", "weights": "equal", "seed": 0, **SHAPES[shape]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{shape}.scenario"
        path.write_text(json.dumps(spec))
        stdout, cwd = io.StringIO(), os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["campaign", str(path.name), "--seed", str(seed), "--out", "out"])
            files = {name: (Path(tmp) / "out" / name).read_bytes() for name in OUTPUTS}
        finally:
            os.chdir(cwd)
    digests = {"exit": str(code), "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    digests.update({name: hashlib.sha256(data).hexdigest() for name, data in files.items()})
    return digests


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_campaign_outputs_match_golden(shape, seed):
    assert campaign_digests(shape, seed) == json.loads(GOLDEN.read_text())[f"{shape} --seed {seed}"]


def test_golden_covers_every_shape_and_seed():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(
        f"{shape} --seed {seed}" for shape in SHAPES for seed in SEEDS
    )


if __name__ == "__main__":
    golden = {
        f"{shape} --seed {seed}": campaign_digests(shape, seed)
        for shape in sorted(SHAPES)
        for seed in SEEDS
    }
    print(json.dumps(golden, indent=1, sort_keys=True))
