"""Seeded inputs of the four spine workloads.

Everything a workload feeds the program is generated here from the
``--seed`` argument through :mod:`repro.utils.rng`: catalogs and their
factors, trained models, purchase logs, request lists and arrival
schedules.  The program under test never sees the seed.

Two scales exist: :data:`FULL` is what ``BENCHMARK.json`` measures,
:data:`TOY` is the self-test's (``test_spine.py``) seconds-long version
of the same code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import (
    SyntheticConfig,
    TaxonomyFactorModel,
    TrainConfig,
    TransactionLog,
    generate_dataset,
    train_test_split,
)
from repro.core.factors import FactorSet
from repro.data.split import TrainTestSplit
from repro.gateway.loadgen import zipfian_weights
from repro.streaming.events import PurchaseEvent, events_from_transactions
from repro.taxonomy.tree import Taxonomy
from repro.train import SerialTrainer, warm_stream_split
from repro.utils.rng import derive_seed, ensure_rng

#: Ranking depth of every request the benchmark sends.
K = 10
#: Probe users whose pages are checked against the oracle: the most
#: popular zipf ranks, so most requests of a zipf(1.0) stream are checked.
N_PROBES = 64
#: Cell depth of the approximate index on the 3-level catalog (level 2 =
#: subcategory cells), the operating point ``bench_index.py`` gates.
APPROX_LEVEL = 2

# Key paths under the run seed, one per generated input.
_CATALOG, _LOG, _DATA, _SPLIT, _TRAIN, _REQUESTS, _ARRIVALS = range(7)


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload at one scale."""

    #: ``a x b x c`` balanced catalog of the ``*_1m_*`` workloads.
    catalog_branching: Tuple[int, int, int]
    catalog_users: int
    catalog_factors: int
    #: ``http_1k_exact``: the ``bench_gateway``-shaped trained model.
    exact_users: int
    exact_factors: int
    exact_epochs: int
    #: ``train_stream_24k``: the paper-shaped synthetic shop.
    stream_users: int
    stream_branching: Tuple[int, int, int]
    stream_items_per_leaf: int
    stream_factors: int
    #: Batch epochs per measured second (Phase A trains a whole number).
    stream_epochs_per_second: float
    eval_users: int
    #: Requests replayed serially at each boundary of the layer ladder.
    ladder_requests: int
    #: Rows of one bulk call.
    bulk_rows: int
    #: ``retrieval="budget"`` scans this share of the catalog per row.
    budget_fraction: float
    #: Held-out AUC below which ``train_stream_24k`` is wrong, not slow.
    min_auc: float


FULL = Sizes(
    catalog_branching=(100, 100, 100), catalog_users=2048, catalog_factors=32,
    exact_users=4000, exact_factors=16, exact_epochs=10,
    stream_users=30000, stream_branching=(10, 10, 10),
    stream_items_per_leaf=20, stream_factors=20,
    stream_epochs_per_second=0.67, eval_users=500,
    ladder_requests=128, bulk_rows=256, budget_fraction=0.01, min_auc=0.75,
)

TOY = Sizes(
    catalog_branching=(6, 5, 8), catalog_users=96, catalog_factors=8,
    exact_users=150, exact_factors=4, exact_epochs=2,
    stream_users=600, stream_branching=(3, 3, 3),
    stream_items_per_leaf=4, stream_factors=4,
    stream_epochs_per_second=8.0, eval_users=100,
    ladder_requests=24, bulk_rows=32, budget_fraction=1.0, min_auc=0.55,
)


@dataclass
class Fixture:
    """One workload's model, data and serving configuration.

    ``effective``/``bias`` are the oracle's own copies of the item
    factors (see :mod:`oracle`); the ladder reuses them to build indexes.
    ``history_log`` is what the serving stack excludes purchases from
    (``None`` on the catalog workloads, which carry no purchase history).
    """

    model: TaxonomyFactorModel
    #: Train/test purchases for the training-side layers; ``None`` on the
    #: catalog workloads until :func:`training_split` invents one.
    split: Optional[TrainTestSplit]
    history_log: Optional[TransactionLog]
    effective: np.ndarray
    bias: np.ndarray
    partition: str
    retrieval: str
    budget: Optional[int] = None

    @property
    def exact(self) -> bool:
        """Whether served pages must equal the oracle's byte for byte."""
        return self.retrieval in ("exact", "pruned")

    @property
    def n_users(self) -> int:
        return self.model.n_users

    @property
    def taxonomy(self) -> Taxonomy:
        return self.model.taxonomy

    def service_kwargs(self) -> dict:
        """Keyword arguments of the workload's in-process service."""
        return {
            "history_log": self.history_log, "retrieval": self.retrieval,
            "budget": self.budget,
        }

    def router_kwargs(self) -> dict:
        """Keyword arguments of the equivalent ``ShardRouter``."""
        return {**self.service_kwargs(), "partition": self.partition}


# ----------------------------------------------------------------------
# The 1M-item coherent-factor catalog (after ``bench_index.py``)
# ----------------------------------------------------------------------
def catalog_taxonomy(branching: Tuple[int, int, int]) -> Taxonomy:
    """A balanced 3-level taxonomy with ``a*b*c`` leaves."""
    a, b, c = branching
    parent = np.concatenate([
        [-1],
        np.zeros(a, dtype=np.int64),
        np.repeat(np.arange(1, 1 + a), b),
        np.repeat(np.arange(1 + a, 1 + a + a * b), c),
    ])
    return Taxonomy(parent)


def coherent_factors(
    taxonomy: Taxonomy,
    branching: Tuple[int, int, int],
    n_users: int,
    factors: int,
    rng: np.random.Generator,
) -> FactorSet:
    """Hierarchically coherent factors: ancestors dominate, leaves refine.

    The structure Eq. 1 training produces and what makes the per-subtree
    Cauchy-Schwarz bounds sharp.  Two distortions stress exactness: one
    subtree of identical leaf offsets (every item in it ties on every
    query) and one top-level category mirrored node for node onto another
    (thousands of items tied across different scan blocks).
    """
    scale = np.where(taxonomy.level >= taxonomy.max_depth, 0.05, 0.3)
    scale = np.append(scale, 0.0)  # pad row
    w = rng.normal(0.0, 1.0, size=(taxonomy.n_nodes + 1, factors))
    w *= scale[:, None]
    bias = rng.normal(0.0, 1.0, size=taxonomy.n_nodes + 1) * scale * 0.3

    a, b, _c = branching
    first_sub = taxonomy.nodes_of_items(taxonomy.subtree_items(1 + a))
    w[first_sub] = w[first_sub[0]]
    bias[first_sub] = bias[first_sub[0]]

    sub_a = np.arange(1 + a, 1 + a + b)
    leaf_a = taxonomy.nodes_of_items(taxonomy.subtree_items(1))
    w[2] = w[1]
    bias[2] = bias[1]
    w[sub_a + b] = w[sub_a]
    bias[sub_a + b] = bias[sub_a]
    w[leaf_a + leaf_a.size] = w[leaf_a]
    bias[leaf_a + leaf_a.size] = bias[leaf_a]

    user = rng.normal(0.0, 0.3, size=(n_users, factors))
    return FactorSet.from_arrays(
        taxonomy, user=user, w=w, bias=bias,
        levels=taxonomy.max_depth + 1, init_scale=0.1,
    )


def chain_sums(factor_set: FactorSet) -> Tuple[np.ndarray, np.ndarray]:
    """Effective item factors and biases, summed link by link.

    The oracle's own Eq. 1: the same chain order as
    ``FactorSet.effective_items`` (so the bits agree — the traced run
    checks that) without its ``(items, levels, K)`` gather, which costs
    seconds and a gigabyte at 1M items.
    """
    chains = factor_set.item_chains
    effective = factor_set.w[chains[:, 0]]
    bias = factor_set.bias[chains[:, 0]]
    for link in range(1, chains.shape[1]):
        effective += factor_set.w[chains[:, link]]
        bias += factor_set.bias[chains[:, link]]
    return effective, bias


def training_split(fixture: Fixture, seed: int) -> TrainTestSplit:
    """The fixture's purchases, or a small uniform log where it has none.

    Only the traced run calls this, to put the training-side layers on
    the catalog workloads' item space.
    """
    if fixture.split is None:
        log = random_log(
            fixture.n_users, fixture.model.n_items,
            ensure_rng(derive_seed(seed, _LOG)),
        )
        fixture.split = train_test_split(
            log, mu=0.5, seed=derive_seed(seed, _SPLIT)
        )
    return fixture.split


def random_log(
    n_users: int, n_items: int, rng: np.random.Generator
) -> TransactionLog:
    """Uniform purchases: 3-6 transactions of 1-3 items per user."""
    rows: List[List[List[int]]] = []
    for _ in range(n_users):
        n_txns = int(rng.integers(3, 7))
        rows.append([
            np.unique(rng.integers(0, n_items, size=int(rng.integers(1, 4))))
            .tolist()
            for _ in range(n_txns)
        ])
    return TransactionLog(rows, n_items=n_items)


def catalog_fixture(
    seed: int, sizes: Sizes, *, partition: str, retrieval: str,
    budget_fraction: Optional[float] = None,
) -> Fixture:
    """The coherent-factor catalog served through the given retrieval."""
    rng = ensure_rng(derive_seed(seed, _CATALOG))
    taxonomy = catalog_taxonomy(sizes.catalog_branching)
    factor_set = coherent_factors(
        taxonomy, sizes.catalog_branching, sizes.catalog_users,
        sizes.catalog_factors, rng,
    )
    model = TaxonomyFactorModel(
        taxonomy, TrainConfig(factors=sizes.catalog_factors)
    )
    # No public constructor adopts a finished FactorSet; bench_index.py
    # installs one the same way.
    model._factors = factor_set
    effective, bias = chain_sums(factor_set)
    budget = None
    if budget_fraction is not None:
        budget = max(1, round(budget_fraction * taxonomy.n_items))
    return Fixture(
        model=model, split=None, history_log=None,
        effective=effective, bias=bias,
        partition=partition, retrieval=retrieval, budget=budget,
    )


# ----------------------------------------------------------------------
# Trained models
# ----------------------------------------------------------------------
def exact_fixture(seed: int, sizes: Sizes) -> Fixture:
    """``http_1k_exact``: a small trained TF model, user-partitioned."""
    data = generate_dataset(SyntheticConfig(
        n_users=sizes.exact_users, mean_transactions=5.0,
        seed=derive_seed(seed, _DATA),
    ))
    split = train_test_split(
        data.log, mu=0.5, seed=derive_seed(seed, _SPLIT)
    )
    model = TaxonomyFactorModel(data.taxonomy, TrainConfig(
        factors=sizes.exact_factors, epochs=sizes.exact_epochs,
        sibling_ratio=0.5, seed=derive_seed(seed, _TRAIN),
    ))
    SerialTrainer(model).train(split.train)
    factor_set = model.factor_set
    return Fixture(
        model=model, split=split, history_log=split.train,
        effective=factor_set.effective_items(),
        bias=factor_set.bias_of_items(),
        partition="users", retrieval="exact",
    )


@dataclass
class StreamData:
    """``train_stream_24k`` inputs before Phase A trains the model."""

    taxonomy: Taxonomy
    split: TrainTestSplit
    warm: TransactionLog
    events: List[PurchaseEvent]
    config: TrainConfig


def stream_data(seed: int, sizes: Sizes, epochs: int) -> StreamData:
    """Shop data split into test, warm (offline) and streamed halves."""
    data = generate_dataset(SyntheticConfig(
        n_users=sizes.stream_users, branching=sizes.stream_branching,
        items_per_leaf=sizes.stream_items_per_leaf,
        seed=derive_seed(seed, _DATA),
    ))
    split = train_test_split(
        data.log, mu=0.5, seed=derive_seed(seed, _SPLIT)
    )
    warm, stream = warm_stream_split(split.train, 0.5)
    return StreamData(
        taxonomy=data.taxonomy, split=split, warm=warm,
        events=list(events_from_transactions(stream)),
        # TF(4,1): the paper's full model, trained in vectorised batches.
        config=TrainConfig(
            factors=sizes.stream_factors, epochs=epochs,
            taxonomy_levels=4, markov_order=1,
            seed=derive_seed(seed, _TRAIN),
        ),
    )


def stream_fixture(data: StreamData, model: TaxonomyFactorModel) -> Fixture:
    """The serving view of the Phase A model (for the layer ladder)."""
    factor_set = model.factor_set
    return Fixture(
        model=model, split=data.split, history_log=data.warm,
        effective=factor_set.effective_items(),
        bias=factor_set.bias_of_items(),
        partition="users", retrieval="pruned",
    )


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
def zipf_users(seed: int, n_users: int, count: int) -> np.ndarray:
    """*count* user ids drawn zipf(1.0) over ranks ``0 .. n_users-1``."""
    rng = ensure_rng(derive_seed(seed, _REQUESTS))
    cumulative = np.cumsum(zipfian_weights(n_users, 1.0))
    draws = np.searchsorted(cumulative, rng.random(count), side="right")
    return np.minimum(draws, n_users - 1).astype(np.int64)


def poisson_due_times(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Seeded Poisson arrival offsets (seconds) over ``[0, seconds)``."""
    rng = ensure_rng(derive_seed(seed, _ARRIVALS))
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    due = np.cumsum(gaps)
    return due[due < seconds]


def bulk_batches(seed: int, n_users: int, rows: int) -> List[np.ndarray]:
    """One seeded user permutation cut into *rows*-user calls."""
    order = ensure_rng(derive_seed(seed, _REQUESTS)).permutation(n_users)
    return [
        order[start:start + rows].astype(np.int64)
        for start in range(0, n_users - rows + 1, rows)
    ]
