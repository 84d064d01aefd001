"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest bench/test_smoke.py``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run_bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run_bench, "MIN_UNITS", 3)
    monkeypatch.setattr(run_bench, "MIN_TRACED_UNITS", 3)
    monkeypatch.setattr(run_bench, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(workloads.TuneMix, "budget", 256)
    monkeypatch.setattr(workloads.RestartShort, "M", 3)
    monkeypatch.setattr(workloads.GoodEventMC, "T", 32)


def run(capsys, *args):
    assert run_bench.main([str(a) for a in args]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(tiny, capsys, workload, trace):
    lines, result = run(capsys, "--workload", workload, "--seed", 5,
                        "--seconds", 0.2, "--trace", trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in spec:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert f"  {m['name']} = " in "\n".join(lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3


def test_corrupted_reference_raises_failed_frac(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run_bench, "SETUP_SAMPLES", 1)
    ref = json.loads(run_bench.REFERENCE.read_text())
    ref["workloads"]["restart_short"][0]["exact"]["rounds"][-1][4] += 1
    ref["workloads"]["restart_short"][1]["close"]["gap"] *= 1 + 1e-6
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))

    lines, result = run(capsys, "--workload", "restart_short", "--seed",
                        workloads.DEFAULT_SEED, "--seconds", 0.1,
                        "--reference", bad)
    assert result["failed"] >= 2 and not result["correct"]
    assert "failed_frac 0.0000" not in "\n".join(lines)

    lines, result = run(capsys, "--workload", "restart_short", "--seed",
                        workloads.DEFAULT_SEED, "--seconds", 0.1)
    assert result["failed"] == 0 and result["correct"]
