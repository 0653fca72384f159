"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from cartan.cochains import Cochain  # noqa: E402
from workloads import CartanWarm, CliCold  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def short_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["cli-cold"])
def test_short_run_prints_every_end_to_end_metric(workload):
    result = short_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = short_run("squares-sparse", 1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["correct"] and result["failed"] == 0


def test_corrupted_expected_cli_output_is_a_failure():
    wl = CliCold(7, str(ROOT))
    try:
        wl.setup()
        wl.expected[3] = wl.expected[3].replace(b'"dim": ', b'"dim": 1')
        loop = run.measure(wl, 0, wl.run)
    finally:
        wl.close()
    assert loop.rounds == 1
    assert loop.failed == 1 and loop.failures == ["op 3: wrong output"]


def test_an_op_that_raises_is_a_failure():
    wl = CartanWarm(7, str(ROOT))
    wl.setup()
    i, a, _ = wl.ops[0]
    wl.ops[0] = (i, a, Cochain(a.ambient, 1, [(0, 1)]))  # one edge: not a cocycle
    loop = run.measure(wl, 0, wl.run)
    assert loop.failed == 1 and loop.failures[0].startswith("op 0:")
    assert "inputs must be cocycles" in loop.failures[0]
