"""Self-test of the spine benchmark at toy sizes (collected by tier-1).

Runs every workload once end to end and once traced on catalogs of a few
hundred items, and checks the contract the driver relies on: every
metric ``BENCHMARK.json`` names is emitted (and nothing else), names are
well-formed, the same seed reproduces the same inputs, and a wrong page
is counted as a failure.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import fixtures  # noqa: E402
import workloads  # noqa: E402
from oracle import Tally  # noqa: E402

SPEC = workloads.SPEC
NAMES = [w["name"] for w in SPEC["workloads"]]
SECONDS = 1.0


def test_spec_is_well_formed():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/spine"]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + NAMES
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in SPEC["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_run_emits_every_metric(name):
    # run_workload raises when the metric names differ from the spec.
    outcome = workloads.run_workload(
        name, seed=3, seconds=SECONDS, trace=False, sizes=fixtures.TOY
    )
    assert outcome.tally.failed == 0, outcome.tally.notes
    assert outcome.tally.attempted >= 1
    for value in outcome.metrics.values():
        assert np.isfinite(value) and value > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_layer_and_a_ladder(name):
    outcome = workloads.run_workload(
        name, seed=3, seconds=SECONDS, trace=True, sizes=fixtures.TOY
    )
    assert outcome.tally.failed == 0, outcome.tally.notes
    assert all(np.isfinite(v) for v in outcome.metrics.values())
    # The four rungs sum to the serial HTTP p50 by construction.
    assert sum(outcome.info["ladder_ms"].values()) == pytest.approx(
        outcome.info["serial_http_p50_ms"]
    )
    spans = [
        json.loads(line)
        for line in (HERE / "out" / f"trace-{name}.jsonl").read_text().splitlines()
    ]
    assert len(spans) == outcome.info["spans"]
    assert {"name", "start", "end", "parent", "request"} == set(spans[0])


def _session_of(pid: str) -> int:
    try:
        stat = (Path("/proc") / pid / "stat").read_text()
    except OSError:
        return -1  # ended while we were looking
    return int(stat.rpartition(")")[2].split()[3])


def test_command_line_contract():
    # Its own session, so that anything it started and did not wait for
    # (the shared-memory resource tracker, a worker) is findable after.
    run = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "http_1k_exact",
         "--seed", "3", "--seconds", str(SECONDS), "--trace", "0",
         "--sizes", "toy"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = run.communicate(timeout=120)
    survivors = [
        pid for pid in os.listdir("/proc")
        if pid.isdigit() and _session_of(pid) == run.pid
    ]
    assert run.returncode == 0, stderr
    assert survivors == []
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_same_seed_same_inputs():
    for make in (
        lambda seed: fixtures.zipf_users(seed, 500, 300),
        lambda seed: fixtures.poisson_due_times(seed, 100.0, 2.0),
        lambda seed: np.concatenate(fixtures.bulk_batches(seed, 96, 32)),
    ):
        assert np.array_equal(make(11), make(11))
        assert not np.array_equal(make(11), make(12))
    a = fixtures.catalog_fixture(
        5, fixtures.TOY, partition="items", retrieval="pruned"
    )
    b = fixtures.catalog_fixture(
        5, fixtures.TOY, partition="items", retrieval="pruned"
    )
    assert np.array_equal(a.effective, b.effective)
    # The oracle's link-by-link chain sums are the model's own, bit for bit.
    assert np.array_equal(a.effective, a.model.factor_set.effective_items())
    assert np.array_equal(a.bias, a.model.factor_set.bias_of_items())


def test_corrupted_page_is_a_failure():
    fixture = fixtures.catalog_fixture(
        5, fixtures.TOY, partition="items", retrieval="pruned"
    )
    tally = workloads.new_tally(fixture)
    good = tally.pages[0].tolist()
    assert tally.record("probe", [(0, good)]) == [True]
    assert tally.failed == 0
    swapped = good[:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    verdicts = tally.record("probe", [(0, swapped), (1, None), (2, good[:5])])
    assert verdicts == [False, False, False]
    assert tally.failed == 3 and tally.attempted == 4
    assert tally.matched == 1 and tally.checked == 2


def test_approximate_pages_must_repeat():
    tally = Tally(
        probes=np.arange(2), pages=np.array([[1, 2], [3, 4]]), exact=False, k=2
    )
    assert tally.record("calls", [(0, [1, 2]), (0, [1, 2])]) == [True, True]
    assert tally.record("calls", [(0, [2, 1])]) == [False]
    assert tally.served_recall() == 1.0


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.1) == "within"
    slower = [value * 1.2 for value in steady]
    assert compare.verdict(steady, slower, "lower", 0.1) == "outside"
    assert compare.verdict(steady, slower, "higher", 0.1) == "within"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(steady, noisy, "lower", 0.1) == "unresolved"
