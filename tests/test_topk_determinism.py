"""Deterministic tie-breaking across every top-k path, and PAD hygiene.

The determinism contract: every selector ranks candidates by
(score desc, item asc) — including ties that straddle the k-th score —
so a single process, an item-partitioned fleet, and the pruned retrieval
index can never disagree on tied scores.  PAD (-1) slots must never be
counted as items or re-ranked above real candidates anywhere.  The
approximate tiers (``retrieval="budget"`` / ``"ivf"``) extend the same
contract: cell selection uses catalog-global statistics, so the fleet
returns the single-process ranking byte for byte at any shard count,
and a fleet-wide hot swap never serves a page mixing generations.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.factors import FactorSet
from repro.core.tf_model import TaxonomyFactorModel
from repro.core.topk import (
    PAD_ITEM,
    merge_top_k_pages,
    merge_top_k_rows,
    top_k_rows,
)
from repro.data.split import TrainTestSplit
from repro.data.transactions import TransactionLog
from repro.eval.protocol import evaluate_topk
from repro.serving.service import RecommenderService
from repro.serving.sharding import ShardRouter
from repro.taxonomy.tree import Taxonomy
from repro.utils.config import TrainConfig


def _reference_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Ground truth: full stable argsort of -scores == (desc, item asc)."""
    width = min(k, scores.shape[1])
    order = np.argsort(-scores, axis=1, kind="stable")[:, :width]
    order = order.astype(np.int64)
    rows = np.arange(scores.shape[0])[:, None]
    order[~np.isfinite(scores[rows, order])] = PAD_ITEM
    return order


class TestTopKRowsTieBreak:
    def test_constant_scores_select_smallest_indices(self):
        scores = np.full((3, 9), 2.5)
        assert top_k_rows(scores, 4).tolist() == [[0, 1, 2, 3]] * 3

    def test_boundary_tie_selection_is_deterministic(self):
        # Two items strictly above, the k-th score shared by items 1, 4, 6:
        # the partition could legally grab any of them — the contract says
        # the smallest index (1) wins.
        scores = np.array([[9.0, 5.0, 1.0, 8.0, 5.0, 0.0, 5.0]])
        assert top_k_rows(scores, 3).tolist() == [[0, 3, 1]]
        assert top_k_rows(scores, 4).tolist() == [[0, 3, 1, 4]]

    def test_matches_stable_full_sort_fuzz(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 15))
            k = int(rng.integers(1, 18))
            scores = rng.integers(0, 4, size=(n, m)).astype(float)
            scores[rng.random((n, m)) < 0.25] = -np.inf
            if rng.random() < 0.3:
                scores[rng.random((n, m)) < 0.1] = np.nan
            assert np.array_equal(
                top_k_rows(scores, k), _reference_topk(scores, k)
            )

    def test_agrees_with_merge_over_arbitrary_splits(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(2, 20))
            k = int(rng.integers(1, m + 3))
            scores = rng.integers(0, 3, size=(3, m)).astype(float)
            whole = top_k_rows(scores, k)
            cut = int(rng.integers(1, m))
            pages, page_scores = [], []
            for lo, hi in ((0, cut), (cut, m)):
                local = top_k_rows(scores[:, lo:hi], k)
                got = np.take_along_axis(
                    scores[:, lo:hi], np.clip(local, 0, None), axis=1
                )
                got[local < 0] = -np.inf
                pages.append(np.where(local >= 0, local + lo, PAD_ITEM))
                page_scores.append(got)
            assert np.array_equal(
                merge_top_k_rows(pages, page_scores, k), whole
            )


class TestMergePadHygiene:
    def test_pad_slots_never_survive_even_with_finite_scores(self):
        # A buggy shard could stamp a finite score into a pad slot; the
        # merge must still treat PAD as excluded, not rank it.
        items = [np.array([[PAD_ITEM, 3]]), np.array([[5, PAD_ITEM]])]
        scores = [np.array([[99.0, 1.0]]), np.array([[2.0, 98.0]])]
        merged, merged_scores = merge_top_k_pages(items, scores, k=4)
        assert merged.tolist() == [[5, 3, PAD_ITEM, PAD_ITEM]]
        assert merged_scores[0, 2:].tolist() == [-np.inf, -np.inf]

    def test_all_pad_input_stays_all_pad(self):
        items = [np.full((2, 3), PAD_ITEM)]
        scores = [np.zeros((2, 3))]
        merged = merge_top_k_rows(items, scores, k=2)
        assert (merged == PAD_ITEM).all()

    def test_merge_scores_match_items(self):
        items = [np.array([[4, 2]]), np.array([[7, 1]])]
        scores = [np.array([[9.0, 5.0]]), np.array([[7.0, -np.inf]])]
        merged, merged_scores = merge_top_k_pages(items, scores, k=3)
        assert merged.tolist() == [[4, 7, 2]]
        assert merged_scores.tolist() == [[9.0, 7.0, 5.0]]


# ----------------------------------------------------------------------
# evaluate_topk PAD audit
# ----------------------------------------------------------------------
class _PageRecommender:
    """A Recommender stub returning a fixed page (pads included)."""

    def __init__(self, page: np.ndarray):
        self.page = np.asarray(page, dtype=np.int64)

    def recommend_batch(self, users, k=10, histories=None):
        return np.repeat(self.page, len(users), axis=0)


def _split_with_positives(n_items: int, positives) -> TrainTestSplit:
    train = TransactionLog.from_baskets(
        [[np.arange(2, dtype=np.int64)]], n_items=n_items
    )
    test = TransactionLog.from_baskets(
        [[np.asarray(sorted(positives), dtype=np.int64)]], n_items=n_items
    )
    return TrainTestSplit(train=train, test=test)


class TestEvaluateTopKPadHygiene:
    def test_all_pad_rows_score_zero_hits(self):
        split = _split_with_positives(6, [1, 2])
        stub = _PageRecommender(np.full((1, 4), PAD_ITEM))
        result = evaluate_topk(stub, split, k=4)
        assert result.n_users == 1
        assert result.precision == 0.0
        assert result.recall == 0.0
        assert result.hit_rate == 0.0

    def test_pad_never_counts_as_hit_even_among_real_items(self):
        # Positives {1, 2}; the page ranks item 1 then pads: exactly one
        # hit, and the pads contribute nothing.
        split = _split_with_positives(6, [1, 2])
        stub = _PageRecommender(
            np.array([[1, PAD_ITEM, PAD_ITEM, PAD_ITEM]])
        )
        result = evaluate_topk(stub, split, k=4)
        assert result.precision == pytest.approx(1 / 4)
        assert result.recall == pytest.approx(1 / 2)
        assert result.hit_rate == 1.0

    def test_k_larger_than_catalog(self):
        split = _split_with_positives(4, [2, 3])
        model = _PageRecommender(np.array([[2, 3, PAD_ITEM, PAD_ITEM]]))
        result = evaluate_topk(model, split, k=50)
        assert result.n_users == 1
        assert result.recall == 1.0
        # Precision is hits over the requested depth; pads never count.
        assert result.precision == pytest.approx(2 / 50)


# ----------------------------------------------------------------------
# Regression: constant-score catalog across shard counts and partitions
# ----------------------------------------------------------------------
def _constant_score_model(n_users: int = 24) -> TaxonomyFactorModel:
    """Every item scores exactly 0 for every user — pure tie-break."""
    parent = [-1] + [0] * 4
    for cat in range(1, 5):
        parent += [cat] * 6
    taxonomy = Taxonomy(parent)
    factors = 4
    factor_set = FactorSet.from_arrays(
        taxonomy,
        user=np.zeros((n_users, factors)),
        w=np.zeros((taxonomy.n_nodes + 1, factors)),
        bias=np.zeros(taxonomy.n_nodes + 1),
        levels=2,
        init_scale=0.1,
    )
    model = TaxonomyFactorModel(taxonomy, TrainConfig(factors=factors))
    model._factors = factor_set
    return model


class TestTiedScoresShardInvariance:
    def test_single_process_reference_is_smallest_items(self):
        model = _constant_score_model()
        service = RecommenderService(model, cache_size=0)
        expected = service.recommend_batch(np.arange(24), k=5)
        assert expected.tolist() == [[0, 1, 2, 3, 4]] * 24

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("partition", ["users", "items"])
    def test_fleet_matches_single_process_on_all_ties(
        self, n_shards, partition
    ):
        """The PR-4 latent bug: argpartition order leaked into tied
        rankings, so an item-partitioned fleet (merge: score desc, item
        asc) could disagree with the single process.  With the
        deterministic tie-break, every fleet shape returns the identical
        page — `serve-sharded --verify` can never fail on ties."""
        model = _constant_score_model()
        service = RecommenderService(model, cache_size=0)
        users = np.arange(model.n_users)
        expected = service.recommend_batch(users, k=5)
        with ShardRouter(
            model, n_shards=n_shards, partition=partition, cache_size=0
        ) as fleet:
            got = fleet.recommend_batch(users, k=5)
        assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# Approximate tiers: shard invariance and swap coherence
# ----------------------------------------------------------------------
def _random_factor_model(
    seed: int, n_users: int = 24, markov: bool = False
) -> TaxonomyFactorModel:
    """The 24-item taxonomy of ``_constant_score_model``, random factors.

    ``markov=True`` adds next-item factors (drawn last, so the other
    matrices are the same as without) and ``markov_order=1``: explicit
    request histories then move the query vector.
    """
    parent = [-1] + [0] * 4
    for cat in range(1, 5):
        parent += [cat] * 6
    taxonomy = Taxonomy(parent)
    factors = 4
    rng = np.random.default_rng(seed)
    factor_set = FactorSet.from_arrays(
        taxonomy,
        user=rng.normal(0, 0.5, size=(n_users, factors)),
        w=rng.normal(0, 0.5, size=(taxonomy.n_nodes + 1, factors)),
        bias=rng.normal(0, 0.2, size=taxonomy.n_nodes + 1),
        w_next=rng.normal(0, 0.5, size=(taxonomy.n_nodes + 1, factors))
        if markov
        else None,
        levels=2,
        init_scale=0.1,
    )
    model = TaxonomyFactorModel(
        taxonomy, TrainConfig(factors=factors, markov_order=int(markov))
    )
    model._factors = factor_set
    return model


_APPROX_KNOBS = {
    # Partial knobs: 13 of 24 items / 2 of 4 cells, so the scan really
    # is approximate and the fleet must agree on which cells it skipped.
    "budget": {"retrieval": "budget", "budget": 13},
    "ivf": {"retrieval": "ivf", "nprobe": 2},
}

#: Every mode the retrieval seam dispatches on: the two exact engines
#: (item-partition x "exact" is the dense *slice* scan) plus the
#: partial-knob approximate configurations above.
_SEAM_KNOBS = {
    "exact": {"retrieval": "exact"},
    "pruned": {"retrieval": "pruned"},
    **_APPROX_KNOBS,
}


class TestApproximateShardInvariance:
    @pytest.mark.parametrize("mode", sorted(_SEAM_KNOBS))
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("partition", ["users", "items"])
    def test_fleet_matches_single_process(self, mode, n_shards, partition):
        """Cell selection is computed from catalog-global statistics, so
        an item-partitioned fleet serves each slice's share of the same
        global budget — any shard count returns the single-process page
        byte for byte."""
        model = _random_factor_model(seed=42)
        knobs = _SEAM_KNOBS[mode]
        users = np.arange(model.n_users)
        expected = RecommenderService(
            model, cache_size=0, **knobs
        ).recommend_batch(users, k=5)
        with ShardRouter(
            model, n_shards=n_shards, partition=partition, cache_size=0,
            **knobs,
        ) as fleet:
            got = fleet.recommend_batch(users, k=5)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("mode", sorted(_SEAM_KNOBS))
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_item_slices_match_with_bans_histories_and_deep_k(
        self, mode, n_shards
    ):
        """The slice scan under everything a page request can carry:
        purchased-item bans from the history log, explicit per-row
        histories (Markov model, so they move the query), a cold row in
        the same batch, and ``k`` deeper than a slice (6 items at 4
        shards) — the merged page is still the single-process page."""
        model = _random_factor_model(seed=42, markov=True)
        n_items = model.n_items
        log = TransactionLog(
            [
                [[(5 * u + 2 * t + j) % n_items for j in range(3)]
                 for t in range(2)]
                for u in range(model.n_users)
            ],
            n_items=n_items,
        )
        knobs = _SEAM_KNOBS[mode]
        users = [3, 7, None, 11, 3]
        histories = [
            None, [np.array([1, 20])], [np.array([4])], [np.array([9])], None,
        ]
        single = RecommenderService(
            model, history_log=log, cache_size=0, **knobs
        )
        expected = single.recommend_batch(users, k=8, histories=histories)
        # The explicit history really moved user 7's page.
        assert not np.array_equal(
            expected[1], single.recommend_batch([7], k=8)[0]
        )
        with ShardRouter(
            model, n_shards=n_shards, partition="items", history_log=log,
            cache_size=0, **knobs,
        ) as fleet:
            got = fleet.recommend_batch(users, k=8, histories=histories)
            one = fleet.recommend(7, k=8, history=histories[1])
        assert np.array_equal(got, expected)
        assert np.array_equal(one, expected[1][expected[1] >= 0])
        for row in (0, 1, 3, 4):
            assert np.intersect1d(
                got[row], log.user_items(users[row])
            ).size == 0

    @pytest.mark.parametrize("mode", ["budget", "ivf"])
    def test_fleet_matches_single_process_on_all_ties(self, mode):
        """Every item ties at score 0, so the ranking is decided purely
        by which cells the knob selects plus the (score desc, item asc)
        tie-break — the sharpest probe for selection divergence between
        a slice index and the single-process index."""
        model = _constant_score_model()
        knobs = _APPROX_KNOBS[mode]
        users = np.arange(model.n_users)
        expected = RecommenderService(
            model, cache_size=0, **knobs
        ).recommend_batch(users, k=5)
        with ShardRouter(
            model, n_shards=4, partition="items", cache_size=0, **knobs
        ) as fleet:
            got = fleet.recommend_batch(users, k=5)
        assert np.array_equal(got, expected)


class TestApproximateSwapUnderLoad:
    @pytest.mark.parametrize("mode", ["budget", "ivf"])
    def test_hot_swap_never_serves_mixed_generations(self, mode):
        """A fleet-wide swap mid-stream rebuilds the approximate index on
        every shard atomically: each served page must equal either the
        old model's ranking or the new model's — entire, never a row set
        merged across generations (which would pass no single-model
        reference)."""
        knobs = _APPROX_KNOBS[mode]
        model_a = _random_factor_model(seed=7)
        model_b = _random_factor_model(seed=8)
        users = np.arange(model_a.n_users)
        ref_a = RecommenderService(
            model_a, cache_size=0, **knobs
        ).recommend_batch(users, k=5)
        ref_b = RecommenderService(
            model_b, cache_size=0, **knobs
        ).recommend_batch(users, k=5)
        assert not np.array_equal(ref_a, ref_b)  # swap must be observable

        pages, errors = [], []
        stop = threading.Event()

        with ShardRouter(
            model_a, n_shards=2, partition="items", cache_size=0, **knobs
        ) as fleet:

            def hammer():
                try:
                    while not stop.is_set():
                        pages.append(fleet.recommend_batch(users, k=5))
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                time.sleep(0.05)
                fleet.swap_model(model_b)
                time.sleep(0.05)
            finally:
                stop.set()
                thread.join(timeout=30)
            # After the swap returns, traffic is generation B everywhere.
            post_swap = fleet.recommend_batch(users, k=5)

        assert not errors, errors
        assert not thread.is_alive()
        assert np.array_equal(post_swap, ref_b)
        assert pages, "the load thread never completed a batch"
        saw = {"a": 0, "b": 0}
        for page in pages:
            if np.array_equal(page, ref_a):
                saw["a"] += 1
            elif np.array_equal(page, ref_b):
                saw["b"] += 1
            else:
                raise AssertionError(
                    "a served page matches neither generation — "
                    "mixed-generation ranking"
                )
        assert saw["a"] + saw["b"] == len(pages)


# ----------------------------------------------------------------------
# Learned / refined taxonomies: the same invariances must survive a tree
# that was produced or mutated by repro.taxonomy.learn
# ----------------------------------------------------------------------
def _refined_model(seed: int = 42) -> TaxonomyFactorModel:
    """A ``_random_factor_model`` after a real replant cycle.

    Plants drift on two items (their factors match another category's
    blob), lets ``refine_placements`` discover it, and replants — the
    model a streaming refinement pass would publish.
    """
    from repro.taxonomy.learn import refine_placements

    model = _random_factor_model(seed=seed)
    moves = refine_placements(
        model.taxonomy, model.effective_item_factors(), min_gain=0.0,
        max_moves=2,
    )
    assert moves, "seed must produce at least one refinement move"
    model.replant_items(moves)
    assert model.taxonomy.revision == 1
    return model


class TestRefinedTaxonomyShardInvariance:
    def test_replant_changes_structure_not_rankings(self):
        base = _random_factor_model(seed=42)
        refined = _refined_model(seed=42)
        assert base.taxonomy.digest != refined.taxonomy.digest
        users = np.arange(base.n_users)
        before = RecommenderService(base, cache_size=0).recommend_batch(
            users, k=5
        )
        after = RecommenderService(refined, cache_size=0).recommend_batch(
            users, k=5
        )
        assert np.array_equal(before, after)

    @pytest.mark.parametrize("mode", ["budget", "ivf"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("partition", ["users", "items"])
    def test_fleet_matches_single_process(self, mode, n_shards, partition):
        """After a replant the SubtreeIndex cells follow the *new* tree;
        every fleet shape must still reproduce the single-process page,
        or a refinement pass would silently change served rankings on
        some shard counts only."""
        model = _refined_model(seed=42)
        knobs = _APPROX_KNOBS[mode]
        users = np.arange(model.n_users)
        expected = RecommenderService(
            model, cache_size=0, **knobs
        ).recommend_batch(users, k=5)
        with ShardRouter(
            model, n_shards=n_shards, partition=partition, cache_size=0,
            **knobs,
        ) as fleet:
            got = fleet.recommend_batch(users, k=5)
        assert np.array_equal(got, expected)


class TestRefinedSwapUnderLoad:
    @pytest.mark.parametrize("mode", ["budget", "ivf"])
    @pytest.mark.parametrize("partition", ["users", "items"])
    def test_swap_to_refined_tree_is_atomic(self, mode, partition):
        """Publishing a refined taxonomy through the fleet must be one
        generation: factors, tree, and the rebuilt approximate index
        move together, and the router's advertised taxonomy version only
        changes after every shard acked the new tree."""
        knobs = _APPROX_KNOBS[mode]
        model_a = _random_factor_model(seed=7)
        model_b = _refined_model(seed=8)
        users = np.arange(model_a.n_users)
        ref_a = RecommenderService(
            model_a, cache_size=0, **knobs
        ).recommend_batch(users, k=5)
        ref_b = RecommenderService(
            model_b, cache_size=0, **knobs
        ).recommend_batch(users, k=5)
        assert not np.array_equal(ref_a, ref_b)

        pages, errors = [], []
        stop = threading.Event()
        with ShardRouter(
            model_a, n_shards=2, partition=partition, cache_size=0, **knobs
        ) as fleet:
            assert fleet.taxonomy_version == model_a.taxonomy.version

            def hammer():
                try:
                    while not stop.is_set():
                        pages.append(fleet.recommend_batch(users, k=5))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                time.sleep(0.05)
                fleet.swap_model(model_b)
                time.sleep(0.05)
            finally:
                stop.set()
                thread.join(timeout=30)
            post_swap = fleet.recommend_batch(users, k=5)
            assert fleet.taxonomy_version == model_b.taxonomy.version
            stats = fleet.stats()
            assert stats["taxonomy_digest"] == model_b.taxonomy.version.short
            assert stats["taxonomy_revision"] == 1

        assert not errors, errors
        assert np.array_equal(post_swap, ref_b)
        assert pages, "the load thread never completed a batch"
        for page in pages:
            assert np.array_equal(page, ref_a) or np.array_equal(
                page, ref_b
            ), "a served page matches neither taxonomy generation"
