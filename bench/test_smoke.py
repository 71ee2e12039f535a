"""Smoke self-test of the benchmark: every workload once at tiny sizes.

    python3 -m pytest bench/test_smoke.py

It checks that every metric BENCHMARK.json names is reported with its
unit, and that a wrong output is counted as a failure. No timing bounds.
"""

import dataclasses
import json
import sys

import pytest

import oracle
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BY_NAME)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(workloads.BY_NAME))
def test_every_metric_is_reported_with_its_unit(name, trace):
    result = run.measure(name, seed=7, seconds=0, trace=trace, size=workloads.TINY)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert result.units == {metric["name"]: metric["unit"] for metric in listed}
    assert result.failures == []
    assert result.attempted >= 1
    line = json.loads(run._json_line([("", result)]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == result.units


def test_a_wrong_expected_total_counts_as_a_failure(monkeypatch):
    exact = oracle.family_total
    monkeypatch.setattr(
        oracle, "family_total", lambda algo, family, n, k: exact(algo, family, n, k) + (algo == "trans")
    )
    result = run.measure("deep_scan", seed=7, seconds=0, trace=False, size=workloads.TINY)
    assert result.attempted == 3
    assert len(result.failures) == 1
    assert "--algo trans" in result.failures[0]
    assert json.loads(run._json_line([("", result)]))["correct"] is False


def test_a_silent_layer_fails_the_traced_run(tmp_path):
    sys.path.insert(0, str(run.ROOT / "src"))
    import traced

    workload = workloads.build("deep_scan", workloads.TINY, 7, tmp_path)
    workload = dataclasses.replace(workload, layers=workload.layers | {"harness"})
    expected = [invocation.expect() for invocation in workload.invocations]
    with pytest.raises(traced.LayerMissing, match="harness"):
        traced.run(workload, expected, 0, 0.1, run.check, tmp_path / "spans.jsonl", {})


def test_no_package_no_result(tmp_path):
    with pytest.raises(run.BenchError):
        run.measure("deep_scan", seed=7, seconds=0, trace=False, size=workloads.TINY, root=tmp_path)
