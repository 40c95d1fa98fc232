"""Self-check of the benchmark on a tiny instance: every named metric is
emitted, and the output checks catch a tampered ledger.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json

import outcheck
import pytest
import run

TINY = {
    "network": {"hubs": 4, "gateways": 1, "area_km": 4.0},
    "arrivals": {"daily_volume": 30000},
    "params": {"replan_min": 30},
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_instance_emits_every_metric(tmp_path, trace, section):
    doc = run.measure("tiny", TINY, seed=3, seconds=0.2, trace=trace, work=tmp_path, spec=SPEC)
    assert doc["correct"], doc["problems"]
    assert doc["failed"] == 0 and doc["attempted"] >= 3 * (1 + run.MIN_REPEATS)
    assert list(doc["metrics"]) == [m["name"] for m in SPEC[section]]
    for name, m in doc["metrics"].items():
        assert isinstance(m["value"], float), name
    if trace:
        assert doc["detail"]["absent_layers"] == []
        assert doc["detail"]["broken_count_hooks"] == []
        assert doc["spans"] and {s[5] for s in doc["spans"]} == {"cli", "scenario1", "scenario2", "scenario3"}


def _tiny_bench(tmp_path, reference=None):
    hubroster = run.import_checkout(run.ROOT)
    bench = run.Bench(hubroster, TINY, 5, tmp_path, reference)
    bench.setup(1)
    bench.run_once()
    return bench


def test_output_check_fails_on_tampered_ledger(tmp_path):
    bench = _tiny_bench(tmp_path)
    assert bench.failed == 0, bench.problems
    for n in run.SCENARIOS:
        assert outcheck.audit(bench.inst, n) == []

    path = bench.inst / "ledger_s1.json"
    ledger = json.loads(path.read_text())
    ledger["hiring"] += 50.0
    ledger["total"] += 50.0
    path.write_text(json.dumps(ledger))
    assert any("ledger hiring" in p for p in outcheck.audit(bench.inst, 1))


def test_digest_mismatch_counts_as_failed(tmp_path):
    wrong = {name.format(n=n): "0" * 64 for n in run.SCENARIOS for name in outcheck.OUTPUTS}
    bench = _tiny_bench(tmp_path, reference=wrong)
    assert bench.attempted == 3 and bench.failed == 3


def test_every_layer_metric_has_a_prediction():
    predictions = json.loads((run.HERE / "predictions.json").read_text())
    assert set(predictions) == {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    gated = {w["name"] for w in SPEC["workloads"]}
    assert gated <= set(run.WORKLOADS)
    for p in predictions.values():
        assert set(p["moves"]) <= e2e and set(p["on"]) <= set(run.WORKLOADS)
        assert not p["on"] or set(p["on"]) & gated
