"""The traced run: per-layer metrics from a layer ladder.

``--trace 1`` builds the workload's fixture (its model, data and serving
configuration) and times calls into every layer's **public** functions
from here, the benchmark's own files — nothing under ``src/`` is edited
or patched.  Each timed call is a span (``name, start, end, parent,
request``) kept in memory and written to ``out/trace-NAME.jsonl`` when
the run ends.

For the serving layers this is a *ladder*: the same seeded requests are
replayed serially, one in flight, at each boundary from the innermost
outwards::

    scan (index / dense)  <  serving.service  <  serving.sharding  <  gateway (HTTP)

A layer's self time is its call time minus the next-inner call time, so
the four rungs sum to the serial HTTP p50 by construction.  The training
and streaming layers are timed the same way on the fixture's purchase
log (a small uniform log on the catalog workloads, which have none).

Every workload reports every per-layer metric (the driver's contract):
on a workload whose end-to-end phases never touch a layer, the number is
that layer's cost *on this workload's model and data*, a reference point
rather than a share of anything.
"""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import fixtures
import workloads
from fixtures import K, Fixture, Sizes
from loadgen import GatewayHost, HttpClient, closed_loop, open_loop
from oracle import Tally, count_leaks, shm_segments
from repro import TaxonomyFactorModel, TrainConfig, TransactionLog
from repro.core.sampling import TripleStore
from repro.core.sgd import SGDTrainer
from repro.core.topk import top_k_rows
from repro.eval.protocol import evaluate_model
from repro.gateway.wire import (
    Response,
    encode_request,
    encode_response,
    read_request,
    read_response,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel.trainer import ThreadedSGDEngine
from repro.serving.index import SubtreeIndex
from repro.serving.service import RecommenderService
from repro.serving.sharding import SharedFactors, ShardRouter
from repro.streaming.events import events_from_transactions, iter_microbatches
from repro.streaming.pipeline import StreamingPipeline
from repro.streaming.swap import HotSwapper
from repro.streaming.updater import OnlineUpdater
from repro.train import SerialTrainer
from repro.utils.rng import derive_seed, ensure_rng

#: The approximate tiers' knob in the ladder: 1% of the catalog / cells.
GATE_FRACTION = 0.01
#: Users of the per-sample engine's epoch (a prefix of the log): a full
#: 24k epoch would take 7 s per thread count.
ENGINE_USERS = 4000
#: Users scored by the eval-protocol rung, in one ``score_matrix`` block.
EVAL_USERS = 16
#: Events pushed through the streaming rungs.
STREAM_EVENTS = 4096
#: Rows of the one-call batch rungs (``top_k_batch``, ``b256``, ...).
BATCH_ROWS = 256


class Recorder:
    """Benchmark-side spans, kept in memory until the run ends."""

    def __init__(self):
        self.spans: List[dict] = []
        self.enabled = True

    def add(
        self, name: str, start: float, end: float,
        parent: Optional[str] = None, request: Optional[int] = None,
    ) -> None:
        if self.enabled:
            self.spans.append({
                "name": name, "start": start, "end": end,
                "parent": parent, "request": request,
            })

    def timed(self, name: str, call: Callable, *args, **kwargs):
        """``(result, seconds)`` of one call, recorded as a span."""
        start = time.perf_counter()
        result = call(*args, **kwargs)
        end = time.perf_counter()
        self.add(name, start, end)
        return result, end - start

    def replay(
        self, name: str, parent: Optional[str], requests: Sequence,
        call: Callable,
    ) -> Tuple[list, List[float]]:
        """Call once per request, serially; one span per request."""
        results, seconds = [], []
        for request_id, request in enumerate(requests):
            start = time.perf_counter()
            results.append(call(request_id, request))
            end = time.perf_counter()
            self.add(name, start, end, parent=parent, request=request_id)
            seconds.append(end - start)
        return results, seconds

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def p50_ms(seconds: List[float]) -> float:
    return workloads.percentile_ms(seconds, 50)


class Ladder:
    """One traced run over one fixture; fills :attr:`metrics`."""

    def __init__(
        self, fixture: Fixture, tally: Tally, seed: int, seconds: float,
        sizes: Sizes, http_rate: float,
    ):
        self.fixture = fixture
        self.tally = tally
        self.seed = seed
        self.seconds = seconds
        self.http_rate = http_rate
        self.rec = Recorder()
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.info: Dict[str, object] = {}
        #: One seeded request list: the batch rungs take all of it in one
        #: call, the serial replays its first ``ladder_requests``.
        self.users = fixtures.zipf_users(seed, fixture.n_users, BATCH_ROWS)
        self.serial = self.users[:sizes.ladder_requests]
        self.queries = fixture.model.query_matrix(self.users)
        log = fixture.history_log
        self.banned = None if log is None else [
            log.user_items(int(user)) for user in self.users
        ]
        #: p50 seconds of each serving rung, innermost first.
        self.rungs: Dict[str, float] = {}

    def put(self, name: str, value: float, n: Optional[int] = None) -> None:
        self.metrics[name] = float(value)
        if n is not None:
            self.samples[name] = n

    def _banned_of(self, request_id: int):
        return None if self.banned is None else [self.banned[request_id]]

    # ------------------------------------------------------------------
    # core.factors / core.topk / serving.index
    # ------------------------------------------------------------------
    def index_layers(self) -> None:
        fx, rec = self.fixture, self.rec
        n, rows = len(self.serial), len(self.users)
        factor_set = fx.model.factor_set
        effective, seconds = rec.timed(
            "core.factors.effective_items", factor_set.effective_items
        )
        self.put("core.factors.effective_items.ms", seconds * 1000.0, 1)
        if np.array_equal(effective, fx.effective):
            self.tally.passed("oracle_factors")
        else:
            self.tally.fail(
                "oracle_factors", "oracle's chain sums differ from the model's"
            )
        nodes = ensure_rng(derive_seed(self.seed, 200)).integers(
            0, fx.taxonomy.n_nodes, size=4096
        )
        _, seconds = rec.timed(
            "core.factors.effective_nodes", factor_set.effective_nodes, nodes
        )
        self.put(
            "core.factors.effective_nodes.us_per_row",
            seconds * 1e6 / nodes.size, 1,
        )

        def dense_page(request_id: int, _user) -> np.ndarray:
            scores = self.queries[request_id] @ fx.effective.T + fx.bias
            if self.banned is not None:
                scores[self.banned[request_id]] = -np.inf
            return top_k_rows(scores[None, :], K)[0]

        brute_n = min(n, 16)
        _, brute = rec.replay(
            "core.topk.top_k_rows", "serving.service.recommend",
            self.serial[:brute_n], dense_page,
        )
        self.put("core.topk.top_k_rows.ms_per_row", p50_ms(brute), brute_n)

        index, seconds = rec.timed(
            "serving.index.build", SubtreeIndex,
            fx.effective, fx.bias, fx.taxonomy,
        )
        self.put("serving.index.build_s", seconds, 1)
        approx = SubtreeIndex(fx.effective, fx.bias, fx.taxonomy, approx=True)
        budget = max(1, round(GATE_FRACTION * fx.model.n_items))
        nprobe = max(1, round(GATE_FRACTION * approx.n_cells))

        pages, single = rec.replay(
            "serving.index.top_k", "serving.service.recommend", self.serial,
            lambda i, _u: index.top_k(
                self.queries[i:i + 1], K, banned=self._banned_of(i)
            ),
        )
        self.put("serving.index.top_k.ms_per_row", p50_ms(single), n)
        _, seconds = rec.timed(
            "serving.index.top_k_batch", index.top_k,
            self.queries, K, banned=self.banned,
        )
        self.put("serving.index.top_k_batch.ms_per_row", seconds * 1e3 / rows, 1)
        _, seconds = rec.timed(
            "serving.index.top_k_budget", approx.top_k_budget,
            self.queries, K, banned=self.banned, budget=budget,
        )
        self.put("serving.index.top_k_budget.ms_per_row", seconds * 1e3 / rows, 1)
        _, seconds = rec.timed(
            "serving.index.top_k_ivf", approx.top_k_ivf,
            self.queries, K, banned=self.banned, nprobe=nprobe,
        )
        self.put("serving.index.top_k_ivf.ms_per_row", seconds * 1e3 / rows, 1)

        # The scan under this workload's service: its work and its rung.
        if fx.retrieval == "budget":
            pages, scan = rec.replay(
                "serving.index.top_k_budget.b1", "serving.service.recommend",
                self.serial,
                lambda i, _u: approx.top_k_budget(
                    self.queries[i:i + 1], K, banned=self._banned_of(i),
                    budget=fx.budget,
                ),
            )
        elif fx.retrieval == "pruned":
            scan = single
        else:  # exact: the service scores the whole catalog densely
            pages, scan = [], brute
        scanned = (
            sum(page.nodes_scored for page in pages) / float(n) if pages
            else float(fx.model.n_items)
        )
        self.put("serving.index.nodes_scored_per_row", scanned, n)
        self.put(
            "serving.index.fraction_scored", scanned / fx.model.n_items, n
        )
        self.rungs["scan"] = float(np.median(scan))

    # ------------------------------------------------------------------
    # serving.service
    # ------------------------------------------------------------------
    def service_layers(self) -> RecommenderService:
        fx, rec, n = self.fixture, self.rec, len(self.serial)
        service = RecommenderService(fx.model, **fx.service_kwargs())
        rows, single = rec.replay(
            "serving.service.recommend", "serving.sharding.recommend_batch",
            self.serial, lambda _i, user: service.recommend(int(user), K),
        )
        self._check("ladder_service", rows)
        self.rungs["service"] = float(np.median(single))
        self.put("serving.service.recommend.ms_per_row", p50_ms(single), n)
        self.put(
            "serving.service.self_ms_per_row",
            (self.rungs["service"] - self.rungs["scan"]) * 1000.0, n,
        )
        stats = service.stats
        lookups = stats.cache_hits + stats.cache_misses
        self.put(
            "serving.service.cache_hit_share",
            stats.cache_hits / lookups if lookups else 0.0, int(lookups),
        )
        _, seconds = rec.timed(
            "serving.service.recommend_batch", service.recommend_batch,
            self.users, k=K,
        )
        self.put(
            "serving.service.recommend_batch.ms_per_row",
            seconds * 1e3 / len(self.users), 1,
        )
        _, seconds = rec.timed(
            "serving.service.swap_model", service.swap_model, fx.model,
            fx.history_log,
        )
        self.put("serving.service.swap_model_s", seconds, 1)
        return service

    def _check(self, phase: str, rows: Sequence) -> None:
        self.tally.record(phase, [
            (int(user), None if row is None else np.asarray(row).tolist())
            for user, row in zip(self.serial, rows)
        ])

    # ------------------------------------------------------------------
    # serving.sharding / gateway.*
    # ------------------------------------------------------------------
    def fleet_layers(self) -> None:
        fx, rec, n = self.fixture, self.rec, len(self.serial)
        shared = None
        try:
            shared, seconds = rec.timed(
                "serving.sharding.publish", SharedFactors,
                fx.model.factor_set, generation=0, prefix="spine",
            )
        finally:
            if shared is not None:
                shared.release()
        self.put("serving.sharding.publish_s", seconds, 1)

        start = time.perf_counter()
        router = ShardRouter(
            fx.model, workloads.N_SHARDS, **fx.router_kwargs()
        )
        try:
            rec.add("serving.sharding.start", start, time.perf_counter())
            self.put(
                "serving.sharding.start_s", time.perf_counter() - start, 1
            )
            router.recommend_batch(self.users[-1:], k=K)  # first-call set-up

            rows, single = rec.replay(
                "serving.sharding.recommend_batch", "gateway.server",
                self.serial,
                lambda _i, user: router.recommend_batch([int(user)], k=K)[0],
            )
            self._check("ladder_router", rows)
            self.rungs["sharding"] = float(np.median(single))
            self.put(
                "serving.sharding.recommend_batch.b1.ms_per_row",
                p50_ms(single), n,
            )
            self.put(
                "serving.sharding.delta_ms_per_row",
                (self.rungs["sharding"] - self.rungs["service"]) * 1000.0, n,
            )
            pairs = [self.serial[i:i + 2] for i in range(0, n - 1, 2)]
            _, paired = rec.replay(
                "serving.sharding.recommend_batch.b2", None, pairs,
                lambda _i, pair: router.recommend_batch(pair, k=K),
            )
            self.put(
                "serving.sharding.recommend_batch.b2.ms_per_row",
                p50_ms(paired) / 2.0, len(pairs),
            )
            _, seconds = rec.timed(
                "serving.sharding.recommend_batch.b256",
                router.recommend_batch, self.users, k=K,
            )
            self.put(
                "serving.sharding.recommend_batch.b256.ms_per_row",
                seconds * 1e3 / len(self.users), 1,
            )
            self.put(
                "serving.sharding.worker_rss_mb", _largest_child_rss_mb(),
                workloads.N_SHARDS,
            )

            self.gateway_layers(router)

            _, seconds = rec.timed(
                "serving.sharding.swap_model", router.swap_model, fx.model,
                history_log=fx.history_log,
            )
            self.put("serving.sharding.swap_model_s", seconds, 1)
        finally:
            router.close()

    def gateway_layers(self, router: ShardRouter) -> None:
        rec, n = self.rec, len(self.serial)
        self.put(
            "gateway.wire.roundtrip_us", asyncio.run(_wire_roundtrip_us(2000)),
            2000,
        )
        with GatewayHost(router) as host:
            client = HttpClient(host.port)
            try:
                client.recommend(int(self.users[-1]), K)
                # Recording off, then on: the same serial replay twice.
                rec.enabled = False
                _, plain = rec.replay(
                    "gateway.server", None, self.serial,
                    lambda _i, user: client.recommend(int(user), K),
                )
                rec.enabled = True
                rows, traced = rec.replay(
                    "gateway.server", None, self.serial,
                    lambda _i, user: client.recommend(int(user), K),
                )
            finally:
                client.close()
        self._check("ladder_http", rows)
        self.rungs["gateway"] = float(np.median(traced))
        self.put(
            "gateway.server.self_ms",
            (self.rungs["gateway"] - self.rungs["sharding"]) * 1000.0, n,
        )
        self.put(
            "trace_overhead_share", sum(traced) / sum(plain) - 1.0, n
        )
        self.info["serial_http_p50_ms"] = p50_ms(traced)
        self.info["ladder_ms"] = {
            "serving.index (scan)": self.rungs["scan"] * 1000.0,
            "serving.service": self.metrics["serving.service.self_ms_per_row"],
            "serving.sharding": self.metrics["serving.sharding.delta_ms_per_row"],
            "gateway.*": self.metrics["gateway.server.self_ms"],
        }

        # Concurrent traffic on a fresh registry: what the coalescer and
        # admission control did under the workload's HTTP phases.
        registry = MetricsRegistry()
        many = fixtures.zipf_users(self.seed, self.fixture.n_users, 8192)
        due = fixtures.poisson_due_times(
            self.seed, self.http_rate, 0.25 * self.seconds
        )
        with GatewayHost(router, registry=registry) as host:
            pair = closed_loop(
                host.port, many, K, 0.15 * self.seconds,
                span=lambda i, s, e: rec.add(
                    "gateway.server.closed_loop", s, e, request=i
                ),
            )
            arrivals = open_loop(
                host.port, many, due, K,
                span=lambda i, s, e: rec.add(
                    "gateway.server.open_loop", s, e, request=i
                ),
            )
        self.tally.record("traced_closed_loop", pair.answers)
        self.tally.record("traced_open_loop", arrivals.answers)
        batch_rows = registry.histogram("repro_gateway_batch_rows")
        waits = registry.histogram("repro_gateway_coalesce_wait_seconds")
        self.put(
            "gateway.batching.batch_rows_mean",
            batch_rows.sum / max(1, batch_rows.count), batch_rows.count,
        )
        self.put(
            "gateway.batching.coalesce_wait_ms_p50",
            waits.percentile(50) * 1000.0, waits.count,
        )
        self.put(
            "gateway.server.http_p99_ms",
            workloads.percentile_ms(arrivals.latencies, 99), len(due),
        )
        self.put(
            "gateway.server.shed_total",
            registry.counter("repro_gateway_shed_total").value, 1,
        )

    # ------------------------------------------------------------------
    # core.sampling / core.sgd / train / parallel / eval
    # ------------------------------------------------------------------
    def training_layers(self) -> None:
        fx, rec = self.fixture, self.rec
        split = fixtures.training_split(fx, self.seed)
        log = split.train
        config = TrainConfig(
            factors=fx.model.config.factors, epochs=2,
            taxonomy_levels=fx.model.config.taxonomy_levels,
            seed=derive_seed(self.seed, 201),
        )
        rng = ensure_rng(derive_seed(self.seed, 202))

        store = TripleStore(log)
        order, seconds = rec.timed(
            "core.sampling.epoch_order", store.epoch_order, rng
        )
        self.put("core.sampling.epoch_order.ms", seconds * 1000.0, 1)
        drawn = order[:4096]
        _, seconds = rec.timed(
            "core.sampling.sample_negatives", store.sample_negatives,
            drawn, rng,
        )
        self.put(
            "core.sampling.sample_negatives.us_per_example",
            seconds * 1e6 / drawn.size, 1,
        )

        # The front door against the engine it drives.
        model = TaxonomyFactorModel(fx.taxonomy, config)
        result, wall = rec.timed(
            "train.serial", SerialTrainer(model, update="batch").train, log
        )
        inside = sum(epoch.seconds for epoch in result.history)
        self.put("train.self_share", 1.0 - inside / wall, result.epochs_run)
        sgd = SGDTrainer(model.factor_set, log, config)
        stats, seconds = rec.timed("core.sgd.epoch", sgd.train, epochs=1)
        self.put(
            "core.sgd.epoch.examples_per_s", stats[-1].n_examples / seconds, 1
        )

        # The per-sample (Eq. 6) engine, inline and on two threads.
        prefix = TransactionLog.from_baskets(
            [
                log.user_transactions(user)
                for user in range(min(log.n_users, ENGINE_USERS))
            ],
            n_items=log.n_items,
        )
        rates = {}
        for threads, inline in ((1, True), (2, False)):
            engine = ThreadedSGDEngine(
                model.factor_set, prefix, config, n_threads=threads
            )
            stats, seconds = rec.timed(
                f"parallel.engine.epoch.threads{threads}",
                engine.train_epoch, inline=inline,
            )
            rates[threads] = stats.n_examples / seconds
            if threads == 1:
                self.put(
                    "parallel.engine.hot_row_updates",
                    stats.hot_row_updates, stats.n_examples,
                )
        self.put("parallel.engine.epoch.examples_per_s", rates[1], 1)
        self.put("parallel.engine.threads2.examples_per_s", rates[2], 1)
        self.put("parallel.engine.speedup_2t", rates[2] / rates[1], 1)

        users = split.test_users()[:EVAL_USERS]
        evaluation, seconds = rec.timed(
            "eval.protocol.evaluate_model", evaluate_model, fx.model, split,
            users=users, batch_size=EVAL_USERS,
        )
        self.put(
            "eval.protocol.ms_per_user", seconds * 1e3 / users.size,
            int(users.size),
        )
        self.info["ladder_auc"] = evaluation.auc
        _, seconds = rec.timed(
            "core.tf_model.score_matrix", fx.model.score_matrix, users
        )
        self.put(
            "core.tf_model.score_matrix.ms_per_user",
            seconds * 1e3 / users.size, int(users.size),
        )

    # ------------------------------------------------------------------
    # streaming.*
    # ------------------------------------------------------------------
    def streaming_layers(self, service: RecommenderService) -> None:
        fx, rec = self.fixture, self.rec
        log = fixtures.training_split(fx, self.seed).train
        events = list(events_from_transactions(log))[:STREAM_EVENTS]
        batches, seconds = rec.timed(
            "streaming.events.microbatch",
            lambda: list(iter_microbatches(iter(events), 512)),
        )
        self.put(
            "streaming.events.microbatch.us_per_event",
            seconds * 1e6 / len(events), len(batches),
        )
        updater = OnlineUpdater(fx.model, steps=4, seed=0)
        _, applied = rec.replay(
            "streaming.updater.apply", "streaming.pipeline.run", batches,
            lambda _i, batch: updater.apply(batch),
        )
        self.put(
            "streaming.updater.apply.us_per_event",
            sum(applied) * 1e6 / len(events), len(batches),
        )
        snapshot, snapshot_s = rec.timed(
            "streaming.updater.snapshot", updater.snapshot
        )
        self.put("streaming.updater.snapshot.ms", snapshot_s * 1000.0, 1)
        swapper = HotSwapper(service)
        # Each publication rebuilds the index: seconds past 100k items.
        repeats = 1 if fx.model.n_items > 100_000 else 3
        _, published = rec.replay(
            "streaming.swap.publish", "streaming.pipeline.run",
            range(repeats), lambda _i, _r: swapper.publish(snapshot),
        )
        self.put("streaming.swap.publish.ms_p50", p50_ms(published), repeats)

        pipeline = StreamingPipeline(
            service, updater=OnlineUpdater(fx.model, steps=4, seed=0),
            batch_size=512, swap_every=8,
        )
        _, wall = rec.timed("streaming.pipeline.run", pipeline.run, events)
        inner = sum(applied) + pipeline.swaps * (
            snapshot_s + float(np.median(published))
        )
        self.put(
            "streaming.pipeline.self_share", 1.0 - inner / wall,
            pipeline.swaps,
        )


async def _wire_roundtrip_us(repeats: int) -> float:
    """Encode + parse one request and one response on in-memory streams."""
    body = json.dumps({"user": 7, "k": K}).encode()
    answer = {"user": 7, "items": list(range(K)), "generation": 0,
              "batch_size": 1}
    start = time.perf_counter()
    for _ in range(repeats):
        inbound = asyncio.StreamReader()
        inbound.feed_data(encode_request("POST", "/v1/recommend", body))
        request = await read_request(inbound)
        request.json()
        outbound = asyncio.StreamReader()
        outbound.feed_data(
            encode_response(Response.json_payload(200, answer))
        )
        (await read_response(outbound)).json()
    return (time.perf_counter() - start) * 1e6 / repeats


def _largest_child_rss_mb() -> float:
    """Peak RSS (``VmHWM``) of the largest live worker process."""
    peaks = [0.0]
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peaks.append(int(line.split()[1]) / 1024.0)
    return max(peaks)


def run_traced(
    name: str, workload: "workloads.Workload", seed: int, seconds: float,
    sizes: Sizes, out_dir: Path,
) -> "workloads.Outcome":
    """The ``--trace 1`` run of workload *name*."""
    fixture = workload.fixture(seed, seconds, sizes)
    tally = workloads.new_tally(fixture)
    segments = shm_segments()
    ladder = Ladder(fixture, tally, seed, seconds, sizes, workload.http_rate)
    ladder.index_layers()
    service = ladder.service_layers()
    ladder.fleet_layers()
    ladder.training_layers()
    ladder.streaming_layers(service)
    ladder.rec.write(out_dir / f"trace-{name}.jsonl")
    count_leaks(tally, segments)
    bad = [k for k, v in ladder.metrics.items() if not math.isfinite(v)]
    if bad:
        tally.fail("metrics", f"non-finite per-layer metrics {bad}", len(bad))
    ladder.info["spans"] = len(ladder.rec.spans)
    ladder.info["phases"] = tally.as_dict()
    return workloads.Outcome(
        metrics=ladder.metrics, samples=ladder.samples, tally=tally,
        info=ladder.info,
    )
