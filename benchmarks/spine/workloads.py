"""The four spine workloads and their end-to-end phases.

Every workload reports the same seven end-to-end metrics (the driver's
contract); what each one means on each workload is fixed here and
spelled out in ``README.md``:

===============  ======================  =====================  ======================
metric           ``http_*``              ``bulk_1m_budget``     ``train_stream_24k``
===============  ======================  =====================  ======================
primary_per_s    closed loop, 2          256-user calls,        batch-SGD examples/s
                 connections, req/s      users/s
secondary_per_s  closed loop, 1          1-user calls/s         streamed events/s
                 connection, req/s
op_p50/p90_ms    request latency at 2    1-user call latency    read latency between
                 connections                                    ingest blocks
quality_share    probe pages equal to    recall@10 vs oracle    held-out AUC
                 the oracle's
===============  ======================  =====================  ======================

``--seconds`` is split between the phases in fixed shares; set-up
(everything outside a ``clock.measuring()`` block, up to teardown) is
excluded and reported as ``setup_s``.  Throughputs and the gated latency
percentiles are the median of :data:`WINDOWS` equal slices of their
phase, so that one stolen time-slice does not move a run.
"""

from __future__ import annotations

import itertools
import json
import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

import numpy as np

import fixtures
from fixtures import K, N_PROBES, Fixture, Sizes
from loadgen import GatewayHost, LoadResult, closed_loop, open_loop
from oracle import Tally, brute_force_pages, count_leaks, shm_segments
from repro import (
    OnlineUpdater,
    RecommenderService,
    StreamingPipeline,
    TaxonomyFactorModel,
)
from repro.eval.protocol import evaluate_model
from repro.serving.sharding import ShardRouter
from repro.train import SerialTrainer
from repro.utils.rng import derive_seed

HERE = Path(__file__).resolve().parent
#: The benchmark's contract: workloads, metric names, units and bounds.
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

#: Shard workers of every fleet (this sandbox's ``nproc``; a constant of
#: the workloads, never read from the machine).
N_SHARDS = 2
#: Recall@10 below which ``bulk_1m_budget`` is wrong, not slow.
MIN_RECALL = 0.95
#: Slices of a measured phase; the median slice is reported.
WINDOWS = 5
#: ``train_stream_24k`` Phase D: events per ingest block (8 micro-batches
#: of 512, so every block ends on a hot swap) and reads after each block.
BLOCK_EVENTS = 4096
BLOCK_READS = 32
_PROBES = np.arange(N_PROBES, dtype=np.int64)


class SetupClock:
    """Splits a run's wall time into set-up and measured phases."""

    def __init__(self, started: float):
        self._mark = started
        self.setup_s = 0.0

    @contextmanager
    def measuring(self):
        """Time inside this block is a measured phase, not set-up."""
        self.setup_s += time.perf_counter() - self._mark
        try:
            yield
        finally:
            self._mark = time.perf_counter()

    def finish(self) -> None:
        """Stop counting: what follows is teardown."""
        self.setup_s += time.perf_counter() - self._mark
        self._mark = time.perf_counter()


@dataclass
class Outcome:
    """Everything one run reports."""

    metrics: Dict[str, float]
    #: Samples behind each number (``n``), by metric name.
    samples: Dict[str, int]
    tally: Tally
    #: Ungated numbers printed beside the metrics.
    info: Dict[str, object] = field(default_factory=dict)


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1000.0


def window_percentile_ms(
    seconds: Sequence[float], q: float,
    finished: Optional[Sequence[float]] = None,
) -> float:
    """Median over :data:`WINDOWS` runs of operations of each run's percentile.

    The operations are cut as in :func:`window_rate` (*finished* orders
    them when *seconds* is not already in completion order), so a burst
    of host noise shorter than half the phase does not move the number.
    """
    values = np.asarray(seconds, dtype=np.float64) * 1000.0
    if finished is not None:
        values = values[np.argsort(finished)]
    return float(np.median([
        np.percentile(window, q)
        for window in np.array_split(values, WINDOWS) if window.size
    ]))


def window_rate(finished: Sequence[float], counts: Sequence[float]) -> float:
    """Median per-second rate over :data:`WINDOWS` runs of operations.

    ``finished[i]`` is when operation *i* completed (seconds into the
    phase) and ``counts[i]`` what it contributes (1 per correct request,
    rows per call, 0 for a failure).  The operations are cut, in
    completion order, into equally many per window; a window's rate is
    its contributions over the time from the previous window's last
    completion to its own.
    """
    order = np.argsort(finished)
    times = np.asarray(finished, dtype=np.float64)[order]
    counts = np.asarray(counts, dtype=np.float64)[order]
    cuts = np.linspace(0, times.size, WINDOWS + 1).astype(int)
    rates = [
        counts[lo:hi].sum() / (times[hi - 1] - (times[lo - 1] if lo else 0.0))
        for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo
    ]
    return float(np.median(rates))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


def new_tally(fixture: Fixture) -> Tally:
    """Oracle pages for the probe users of *fixture* (part of set-up)."""
    probes = _PROBES[_PROBES < fixture.n_users]
    return Tally(
        probes=probes, pages=brute_force_pages(fixture, probes, K),
        exact=fixture.exact, k=K,
    )


def finish(
    clock: SetupClock, tally: Tally, segments: set, metrics: Dict[str, float],
    samples: Dict[str, int], info: Dict[str, object],
) -> Outcome:
    """Leak check, then the metrics every workload shares."""
    count_leaks(tally, segments)
    metrics["setup_s"] = clock.setup_s
    metrics["peak_rss_mb"] = peak_rss_mb()
    info["phases"] = tally.as_dict()
    return Outcome(metrics=metrics, samples=samples, tally=tally, info=info)


# ----------------------------------------------------------------------
# http_1m_pruned / http_1k_exact
# ----------------------------------------------------------------------
def run_http(
    workload: "Workload", seed: int, seconds: float, sizes: Sizes,
    clock: SetupClock,
) -> Outcome:
    """Phase A closed loops (2, then 1 connection); Phase B open loop."""
    fixture = workload.fixture(seed, seconds, sizes)
    tally = new_tally(fixture)
    segments = shm_segments()
    users = fixtures.zipf_users(seed, fixture.n_users, 8192)
    pair_s, single_s, open_s = 0.5 * seconds, 0.25 * seconds, 0.25 * seconds
    due = fixtures.poisson_due_times(seed, workload.http_rate, open_s)
    router = ShardRouter(fixture.model, N_SHARDS, **fixture.router_kwargs())
    try:
        with GatewayHost(router) as host:
            # Lazy set-up (accepts, worker caches) finishes off the clock.
            closed_loop(host.port, users[-64:], K, 0.2, connections=1)
            with clock.measuring():
                pair = closed_loop(host.port, users, K, pair_s)
            pair_ok = tally.record("closed_2_connections", pair.answers)
            with clock.measuring():
                single = closed_loop(host.port, users[4096:], K, single_s, 1)
            single_ok = tally.record("closed_1_connection", single.answers)
            with clock.measuring():
                arrivals = open_loop(host.port, users, due, K)
            open_ok = tally.record("open_loop", arrivals.answers)
            clock.finish()
            batch_rows = router.registry.histogram("repro_gateway_batch_rows")
    finally:
        router.close()
    metrics = {
        "primary_per_s": window_rate(pair.finished, pair_ok),
        "secondary_per_s": window_rate(single.finished, single_ok),
        "op_p50_ms": window_percentile_ms(pair.latencies, 50, pair.finished),
        "op_p90_ms": window_percentile_ms(pair.latencies, 90, pair.finished),
        "quality_share": tally.matched / float(max(1, tally.checked)),
    }
    n_pair = len(pair.answers)
    samples = {
        "primary_per_s": n_pair, "secondary_per_s": len(single.answers),
        "op_p50_ms": n_pair, "op_p90_ms": n_pair,
        "quality_share": tally.checked,
    }
    # Independent arrivals, timed from when each request was due: printed,
    # not gated (see README, "Open and closed loops").
    limit_ms = workload.limit_ms
    within = sum(
        ok and latency * 1000.0 <= limit_ms
        for ok, latency in zip(open_ok, arrivals.latencies)
    )
    info = {
        "open_loop": {
            "rate_per_s": workload.http_rate, "n": len(due),
            "p50_ms": percentile_ms(arrivals.latencies, 50),
            "p95_ms": percentile_ms(arrivals.latencies, 95),
            "p99_ms": percentile_ms(arrivals.latencies, 99),
            "limit_ms": limit_ms, "slo_share": within / float(len(due)),
            "generator_lateness_p99_ms": percentile_ms(arrivals.lateness, 99),
        },
        "op_p95_ms": percentile_ms(pair.latencies, 95),
        "op_p99_ms": percentile_ms(pair.latencies, 99),
        "closed_1_connection_p50_ms": percentile_ms(single.latencies, 50),
        "batch_rows_mean": batch_rows.sum / max(1, batch_rows.count),
    }
    return finish(clock, tally, segments, metrics, samples, info)


def http_1m_fixture(seed: int, _seconds: float, sizes: Sizes) -> Fixture:
    return fixtures.catalog_fixture(
        seed, sizes, partition="items", retrieval="pruned"
    )


def exact_fixture(seed: int, _seconds: float, sizes: Sizes) -> Fixture:
    return fixtures.exact_fixture(seed, sizes)


def bulk_1m_fixture(seed: int, _seconds: float, sizes: Sizes) -> Fixture:
    return fixtures.catalog_fixture(
        seed, sizes, partition="users", retrieval="budget",
        budget_fraction=sizes.budget_fraction,
    )


# ----------------------------------------------------------------------
# bulk_1m_budget
# ----------------------------------------------------------------------
def run_bulk(
    workload: "Workload", seed: int, seconds: float, sizes: Sizes,
    clock: SetupClock,
) -> Outcome:
    """Phase A 256-user calls; Phase B 1-user calls; one caller, no HTTP."""
    fixture = workload.fixture(seed, seconds, sizes)
    tally = new_tally(fixture)
    segments = shm_segments()
    batches = fixtures.bulk_batches(seed, fixture.n_users, sizes.bulk_rows)
    singles = fixtures.zipf_users(seed, fixture.n_users, 8192)
    bulk_s, single_s = 0.6 * seconds, 0.4 * seconds
    router = ShardRouter(fixture.model, N_SHARDS, **fixture.router_kwargs())
    try:
        router.recommend_batch(batches[-1], k=K)
        router.recommend_batch(singles[-1:], k=K)

        with clock.measuring():
            bulk = _call_for(router, batches, bulk_s)
        bulk_ok = [
            sum(tally.record("bulk_calls", zip(users, rows)))
            for users, rows in bulk.answers
        ]
        with clock.measuring():
            single = _call_for(router, singles[:, None], single_s)
        single_ok = tally.record("single_calls", [
            (int(users[0]), rows[0]) for users, rows in single.answers
        ])
        latencies = single.latencies

        # Every probe user once more, so recall covers all of them.
        rows = router.recommend_batch(tally.probes, k=K)
        tally.record("probe_call", zip(tally.probes, rows))
        served_recall = tally.served_recall()
        if served_recall < MIN_RECALL:
            tally.fail("quality", f"recall@{K} {served_recall:.4f}")
        clock.finish()
    finally:
        router.close()
    metrics = {
        "primary_per_s": window_rate(bulk.finished, bulk_ok),
        "secondary_per_s": window_rate(single.finished, single_ok),
        "op_p50_ms": window_percentile_ms(latencies, 50),
        "op_p90_ms": window_percentile_ms(latencies, 90),
        "quality_share": served_recall,
    }
    n = len(latencies)
    samples = {
        "primary_per_s": len(bulk.answers), "secondary_per_s": n,
        "op_p50_ms": n, "op_p90_ms": n,
        "quality_share": int(tally.probes.size),
    }
    info = {
        "budget": fixture.budget,
        "op_p95_ms": percentile_ms(latencies, 95),
        "op_p99_ms": percentile_ms(latencies, 99),
        "bulk_call_p50_ms": percentile_ms(bulk.latencies, 50),
    }
    return finish(clock, tally, segments, metrics, samples, info)


def _call_for(router: ShardRouter, calls, seconds: float) -> LoadResult:
    """One caller issuing ``recommend_batch`` over cycled *calls*."""
    result = LoadResult()
    started = time.perf_counter()
    for users in itertools.cycle(calls):
        sent = time.perf_counter()
        if sent - started >= seconds:
            break
        rows = router.recommend_batch(users, k=K)
        done = time.perf_counter()
        result.answers.append((users, rows))
        result.latencies.append(done - sent)
        result.finished.append(done - started)
    return result


# ----------------------------------------------------------------------
# train_stream_24k
# ----------------------------------------------------------------------
def train_epochs(seconds: float, sizes: Sizes) -> int:
    """Phase A's epoch count: a whole number fixed by ``--seconds``."""
    return max(1, round(sizes.stream_epochs_per_second * seconds))


def train_phase_a(data: fixtures.StreamData, tally: Optional[Tally] = None):
    """Phase A: batch-SGD on the warm log; ``(model, examples/s, epochs)``."""
    model = TaxonomyFactorModel(data.taxonomy, data.config)
    started = time.perf_counter()
    result = SerialTrainer(model, update="batch").train(data.warm)
    wall = time.perf_counter() - started
    examples = sum(epoch.n_examples for epoch in result.history)
    if tally is not None:
        for epoch in result.history:
            if math.isfinite(epoch.loss):
                tally.passed("train_epochs")
            else:
                tally.fail("train_epochs", f"epoch {epoch.epoch} loss nan")
    return model, examples / wall, result.epochs_run


def stream_fixture(seed: int, seconds: float, sizes: Sizes) -> Fixture:
    """Phase A's model as a serving fixture (the traced run's input)."""
    data = fixtures.stream_data(seed, sizes, train_epochs(seconds, sizes))
    model, _rate, _epochs = train_phase_a(data)
    return fixtures.stream_fixture(data, model)


def run_train_stream(
    _workload: "Workload", seed: int, seconds: float, sizes: Sizes,
    clock: SetupClock,
) -> Outcome:
    """Phase A train, Phase C evaluate, Phase D ingest with reads."""
    data = fixtures.stream_data(seed, sizes, train_epochs(seconds, sizes))
    segments = shm_segments()
    # No page oracle exists before the model does: this tally checks the
    # form of pages, the AUC floor and the final generation's coherence.
    tally = Tally(
        probes=_PROBES[:0], pages=np.empty((0, K), dtype=np.int64),
        exact=True, k=K,
    )

    with clock.measuring():
        model, train_rate, epochs = train_phase_a(data, tally)

    with clock.measuring():
        started = time.perf_counter()
        # 64-user score blocks: at the default 256 this phase alone sets
        # the run's peak RSS, and by how much depends on the seed.
        evaluation = evaluate_model(
            model, data.split, sample_users=sizes.eval_users,
            seed=derive_seed(seed, 100), batch_size=64,
        )
        eval_wall = time.perf_counter() - started
    if evaluation.auc < sizes.min_auc:
        tally.fail("quality", f"AUC {evaluation.auc:.4f} < {sizes.min_auc}")
    else:
        tally.passed("quality")

    # Phase D: blocks of streamed events, each ending on a hot swap, with
    # reads of the freshly published generation in between.  One thread:
    # a concurrent reader's share of the GIL flips between two regimes on
    # this sandbox (README, "What is not measured").
    service = RecommenderService(
        model, history_log=data.warm, retrieval="pruned"
    )
    pipeline = StreamingPipeline(
        service, updater=OnlineUpdater(model, steps=4, seed=0),
        batch_size=512, swap_every=8,
    )
    stream = itertools.cycle(data.events)
    readers = itertools.cycle(
        fixtures.zipf_users(seed, model.n_users, 8192).tolist()
    )
    phase_s = 0.25 * seconds
    block_rates, answers, latencies = [], [], []
    with clock.measuring():
        started = time.perf_counter()
        while time.perf_counter() - started < phase_s:
            block_started = time.perf_counter()
            pipeline.run(stream, max_events=BLOCK_EVENTS)
            block_rates.append(
                BLOCK_EVENTS / (time.perf_counter() - block_started)
            )
            for user in itertools.islice(readers, BLOCK_READS):
                sent = time.perf_counter()
                items = service.recommend(user, K)
                latencies.append(time.perf_counter() - sent)
                answers.append((user, items))
    tally.record("stream_reads", answers)

    # The last generation must be the updater's own state.
    snapshot = pipeline.updater.snapshot()
    for user in _PROBES[_PROBES < model.n_users].tolist():
        if np.array_equal(
            service.recommend(user, K), snapshot.recommend(user, K)
        ):
            tally.passed("final_coherence")
        else:
            tally.fail("final_coherence", f"user {user}: stale page served")
    clock.finish()

    n = len(latencies)
    metrics = {
        "primary_per_s": train_rate,
        "secondary_per_s": float(np.median(block_rates)),
        "op_p50_ms": window_percentile_ms(latencies, 50),
        "op_p90_ms": window_percentile_ms(latencies, 90),
        "quality_share": evaluation.auc,
    }
    samples = {
        "primary_per_s": epochs, "secondary_per_s": len(block_rates),
        "op_p50_ms": n, "op_p90_ms": n, "quality_share": evaluation.n_users,
    }
    info = {
        "eval_users_per_s": evaluation.n_users / eval_wall,
        "swaps": pipeline.swaps,
        "events": int(pipeline.updater.stats.events),
        "op_p95_ms": percentile_ms(latencies, 95),
        "op_p99_ms": percentile_ms(latencies, 99),
    }
    return finish(clock, tally, segments, metrics, samples, info)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One named workload: its phases, its fixture and its constants."""

    run: Callable[["Workload", int, float, Sizes, SetupClock], Outcome]
    #: ``(seed, seconds, sizes)`` -> the model and serving configuration
    #: (the traced run builds its layer ladder on it).
    fixture: Callable[[int, float, Sizes], Fixture]
    #: Open-loop HTTP arrivals per second (Phase B of ``http_*``, and the
    #: traced run of every workload).
    http_rate: float
    #: ``http_*`` only: the limit Phase B's ``slo_share`` is counted against.
    limit_ms: Optional[float] = None
    #: ``MemAvailable`` below which the workload refuses to start.
    needs_gb: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    "http_1m_pruned": Workload(
        run_http, http_1m_fixture, http_rate=30.0, limit_ms=25.0,
        needs_gb=8.0,
    ),
    "http_1k_exact": Workload(
        run_http, exact_fixture, http_rate=250.0, limit_ms=10.0
    ),
    "bulk_1m_budget": Workload(
        run_bulk, bulk_1m_fixture, http_rate=30.0, needs_gb=8.0,
    ),
    "train_stream_24k": Workload(
        run_train_stream, stream_fixture, http_rate=250.0
    ),
}


def mem_available_gb() -> Optional[float]:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0 / 1024.0
    except OSError:
        pass
    return None


def run_workload(
    name: str, seed: int, seconds: float, trace: bool,
    sizes: Sizes = fixtures.FULL, started: Optional[float] = None,
) -> Outcome:
    """Run workload *name* once, end to end or (``trace``) layer by layer.

    *started* is when the process began, so that imports count as set-up.
    The metrics must be exactly the ones ``BENCHMARK.json`` declares.
    """
    workload = WORKLOADS[name]
    available = mem_available_gb()
    if (
        sizes is fixtures.FULL and available is not None
        and available < workload.needs_gb
    ):
        raise SystemExit(
            f"{name} needs {workload.needs_gb:.0f} GB of available memory "
            f"(MemAvailable is {available:.1f} GB); refusing to swap"
        )
    if trace:
        import ladder  # imports this module

        outcome = ladder.run_traced(
            name, workload, seed, seconds, sizes, HERE / "out"
        )
    else:
        clock = SetupClock(time.perf_counter() if started is None else started)
        outcome = workload.run(workload, seed, seconds, sizes, clock)
    declared = {
        metric["name"]
        for metric in SPEC["per_layer" if trace else "end_to_end"]
    }
    if set(outcome.metrics) != declared:
        raise AssertionError(
            f"{name}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(declared - set(outcome.metrics))}, "
            f"undeclared {sorted(set(outcome.metrics) - declared)}"
        )
    return outcome
