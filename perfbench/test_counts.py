"""Self-test of the traced run: per-layer work counts repeat exactly.

    python3 -m pytest -q perfbench/test_counts.py

Each workload is traced twice with the same seed in fresh processes; every
count must agree exactly, and the counts that belong to the workload's own
layers must be nonzero so the comparison is not vacuous.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"

COUNTS = (
    "gaussian_field.embedding_m",
    "samplers.points",
    "samplers.replicates",
    "samplers.csv_bytes",
    "estimators.pairs",
    "kernels.hermite_rows",
    "wick.contractions",
    "wick.permanent_terms",
    "fock.expectation_flops",
    "fock.dimension_sum",
)

EXERCISED = {
    "thermal": ("gaussian_field.embedding_m", "samplers.points", "samplers.csv_bytes",
                "estimators.pairs"),
    "fermion": ("samplers.points", "samplers.csv_bytes", "estimators.pairs",
                "kernels.hermite_rows"),
    "oracle": ("wick.contractions", "wick.permanent_terms", "fock.expectation_flops",
               "fock.dimension_sum", "kernels.hermite_rows"),
}


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {key: m["value"] for key, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_counts_repeat_exactly(workload):
    first, second = traced(workload, 7), traced(workload, 7)
    for key in COUNTS:
        assert first[key] == second[key], (key, first[key], second[key])
    for key in EXERCISED[workload]:
        assert first[key] > 0, key
    # a workload that never touches a layer reports a zero count for it
    if workload != "thermal":
        assert first["gaussian_field.embedding_m"] == 0
    if workload == "oracle":
        assert first["samplers.points"] == 0
