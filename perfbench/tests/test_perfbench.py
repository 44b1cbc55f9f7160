"""The benchmark's own tests: tiny runs of every workload, oracles, spans, contract.

Runs use small inputs and sub-second timed phases; they check the
benchmark's behaviour, not the engine's speed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from typing import Dict

import pytest

from perfbench import common, madlib_train, olap_mix, run, served_rw
from perfbench.common import ROOT, self_times, tail
from perfbench.stability import spread, worse_by

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seconds", "0.5"]


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """One set-up per run, on inputs about 2% of full size, keeps these tests quick."""
    monkeypatch.setattr(common, "SETUP_REPEATS", 1)
    monkeypatch.setattr(olap_mix, "FACT_ROWS", 2000)
    monkeypatch.setattr(served_rw, "ACCT_ROWS", 2000)
    monkeypatch.setattr(served_rw, "EVENT_ROWS", 2000)
    monkeypatch.setattr(madlib_train, "LINREGR_SHAPE", (1000, 40))
    monkeypatch.setattr(madlib_train, "LOGREGR_SHAPE", (500, 10))
    monkeypatch.setattr(madlib_train, "KMEANS_POINTS", 400)


def bench(capsys, workload: str, trace: int, seed: int = 3):
    """Run one workload in-process; returns (exit code, parsed JSON result)."""
    code = run.main(["--workload", workload, "--seed", str(seed), "--trace", str(trace)] + TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced() -> Dict[str, dict]:
    """First traced run of each workload, shared by the span and agreement tests."""
    return {}


def traced_run(capsys, traced, workload):
    if workload not in traced:
        code, result = bench(capsys, workload, 1)
        assert code == 0
        traced[workload] = result
    return traced[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    code, result = bench(capsys, workload, 0)
    assert code == 0 and result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0, metric["name"]
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(capsys, traced, workload):
    result = traced_run(capsys, traced, workload)
    assert [m["name"] for m in SPEC["per_layer"]] == list(result["metrics"])
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_self_times_add_up_to_each_operation(capsys, traced, workload):
    traced_run(capsys, traced, workload)
    spans = json.loads((ROOT / "perfbench" / "out" / f"spans_{workload}_seed3.json").read_text())
    assert spans
    own = self_times(spans)
    roots = [s for s in spans if s["parent"] is None]
    for root in roots:
        tree = [s for s in spans if s["op"] == root["op"]]
        total = sum(own[s["id"]] for s in tree)
        assert total == pytest.approx(root["end"] - root["start"], rel=1e-9, abs=1e-9)
        assert all(own[s["id"]] >= -1e-9 for s in tree)
    if workload != "served_rw":
        assert len(spans) > len(roots)  # operations have child spans


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_agree_between_runs(capsys, traced, workload):
    first = traced_run(capsys, traced, workload)
    code, second = bench(capsys, workload, 1)
    assert code == 0
    counts = [name for name in run.EXACT_COUNTS
              if first["metrics"][name]["value"] or second["metrics"][name]["value"]]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def _planted_olap(monkeypatch):
    original = olap_mix.make_shapes
    monkeypatch.setattr(olap_mix, "make_shapes",
                        lambda x: original(dataclasses.replace(x, v=x.v + 1.0)))


def _planted_served(monkeypatch):
    original = served_rw._expected_branches
    monkeypatch.setattr(served_rw, "_expected_branches",
                        lambda p: {b: (c + 1, s) for b, (c, s) in original(p).items()})


def _planted_madlib(monkeypatch):
    original = madlib_train._irls_reference
    monkeypatch.setattr(madlib_train, "_irls_reference", lambda x, y, n: original(x, y, n) + 0.5)


@pytest.mark.parametrize("workload, plant", [
    ("olap_mix", _planted_olap), ("served_rw", _planted_served), ("madlib_train", _planted_madlib),
])
def test_planted_wrong_answer_fails_the_run(capsys, monkeypatch, workload, plant):
    plant(monkeypatch)
    code, result = bench(capsys, workload, 0)
    assert code == 1
    assert result["correct"] is False


def test_checkout_without_engine_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "olap_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [w["name"] for w in SPEC["workloads"]] + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and unit.match(metric["unit"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and unit.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    assert run.EXACT_COUNTS <= {m["name"] for m in SPEC["per_layer"]}
    assert set(WORKLOADS) == set(run.WORKLOADS)


def test_tail_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    value, percentile, beyond = tail(values)
    assert (value, percentile, beyond) == (990, 99, 10)
    value, percentile, beyond = tail(list(range(1, 13)))
    assert (value, percentile) == (6.5, 50)  # too few samples: the median


def test_spread_and_regression_direction():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)  # (4.5 - 1.5) / 3
    lower = {"better": "lower"}
    higher = {"better": "higher"}
    assert worse_by(lower, 110.0, 100.0) == pytest.approx(0.10)
    assert worse_by(higher, 90.0, 100.0) == pytest.approx(0.10)
    assert worse_by(higher, 110.0, 100.0) < 0
