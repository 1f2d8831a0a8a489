"""The retrieval seam: one validated config, one dispatch site.

"Top-k for a known user" is one procedure with four engines behind it —
the dense pass (``"exact"``), the taxonomy-pruned scan that provably
returns the same ranking (``"pruned"``), and the two sub-linear,
approximate-but-deterministic tiers (``"budget"``, ``"ivf"``) of
:class:`~repro.serving.index.SubtreeIndex`.  Every layer that ranks known
users — the single-process service, a user-partitioned shard (which hosts
a service) and an item-partitioned shard (which scans its catalog slice)
— goes **config → retriever → page**: the serving constructors fold
their ``retrieval=`` / ``budget=`` / ``nprobe=`` / ``page_dtype=``
keywords into one :class:`RetrievalConfig`, build one :class:`Retriever`
per model generation, and call :meth:`Retriever.scan` — the only place
the mode string is dispatched on.
"""

from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.topk import PAD_ITEM, top_k_rows
from repro.serving.index import RetrievalPage, SubtreeIndex
from repro.taxonomy.tree import Taxonomy

#: Every known-user ranking strategy the service (and the shard router)
#: accepts: two exact ("exact" dense pass, "pruned" SubtreeIndex scan with
#: bit-identical output) and two approximate-but-deterministic ("budget"
#: bound-ordered scan under a node budget, "ivf" top-nprobe cell probing).
RETRIEVAL_MODES = ("exact", "pruned", "budget", "ivf")

#: The subset of :data:`RETRIEVAL_MODES` that trades recall for speed.
#: Same model + same knobs still means byte-identical rankings across
#: runs and shard counts — approximate refers to recall, not determinism.
APPROX_RETRIEVAL_MODES = ("budget", "ivf")


@dataclass(frozen=True)
class RetrievalConfig:
    """How known users are ranked against the catalog — validated once.

    Construction rejects every invalid (mode, cascade, knob) combination,
    so a fleet and a single process refuse exactly the same ones with the
    same messages.

    Attributes
    ----------
    mode:
        One of :data:`RETRIEVAL_MODES`.
    budget, nprobe:
        The knob of ``mode="budget"`` (per-row node budget) / ``"ivf"``
        (cells probed per row); ``None`` scans everything, i.e. exact
        results.  Each is rejected with any mode but its own.
    page_dtype:
        Optional compact factor-page dtype (``"float32"``/``"float16"``);
        approximate modes only.
    level:
        Taxonomy depth of the index's cells (``None`` = auto).
    cascade:
        Init-only, checked and dropped: a cascade the caller also wants
        to serve through conflicts with every index-backed mode.

    Examples
    --------
    >>> RetrievalConfig("budget", budget=5000).as_hint()
    {'retrieval': 'budget', 'budget': 5000, 'nprobe': None}
    >>> RetrievalConfig("pruned", nprobe=4)
    Traceback (most recent call last):
        ...
    ValueError: nprobe= only applies to retrieval='ivf', got retrieval='pruned'
    """

    mode: str = "exact"
    budget: Optional[int] = None
    nprobe: Optional[int] = None
    page_dtype: Optional[str] = None
    level: Optional[int] = None
    cascade: InitVar[Any] = None

    def __post_init__(self, cascade: Any) -> None:
        mode = self.mode
        if mode not in RETRIEVAL_MODES:
            raise ValueError(
                f"retrieval must be one of {'/'.join(RETRIEVAL_MODES)}, "
                f"got {mode!r}"
            )
        if mode != "exact" and cascade is not None:
            raise ValueError(
                f"retrieval={mode!r} already prunes the catalog scan "
                "('pruned' exactly, 'budget'/'ivf' approximately) and cannot "
                "be combined with cascaded (approximate) inference; drop one"
            )
        for knob, owner in (("budget", "budget"), ("nprobe", "ivf")):
            value = getattr(self, knob)
            if value is None:
                continue
            if mode != owner:
                raise ValueError(
                    f"{knob}= only applies to retrieval={owner!r}, "
                    f"got retrieval={mode!r}"
                )
            try:
                count = int(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{knob} must be a positive integer, got {value!r}"
                ) from None
            if count < 1:
                raise ValueError(f"{knob} must be >= 1, got {value}")
            object.__setattr__(self, knob, count)
        if self.page_dtype is not None and not self.approximate:
            raise ValueError(
                "page_dtype= only applies to the approximate modes "
                f"{'/'.join(APPROX_RETRIEVAL_MODES)}, got retrieval={mode!r}"
            )

    @property
    def approximate(self) -> bool:
        """Whether the mode trades recall for speed (budget / ivf)."""
        return self.mode in APPROX_RETRIEVAL_MODES

    @property
    def indexed(self) -> bool:
        """Whether the mode scans through a :class:`SubtreeIndex`."""
        return self.mode != "exact"

    @classmethod
    def from_hint(
        cls, extra: Mapping[str, Any], **overrides: Any
    ) -> "RetrievalConfig":
        """The config a bundle manifest's ``extra`` asks to be served with.

        *overrides* use the manifest's own three keys (``retrieval``,
        ``budget``, ``nprobe``); one that is not ``None`` beats the hint,
        which beats the default (exact, no knobs).

        >>> hint = {"retrieval": "ivf", "nprobe": 8, "mu": 0.5}
        >>> RetrievalConfig.from_hint(hint, nprobe=None).nprobe
        8
        """
        merged = dict(extra)
        merged.update(
            (key, value) for key, value in overrides.items() if value is not None
        )
        return cls(
            mode=merged.get("retrieval", "exact"),
            budget=merged.get("budget"),
            nprobe=merged.get("nprobe"),
        )

    def as_hint(self) -> Dict[str, Any]:
        """The manifest's three hint keys — also the serving constructors'
        keyword names, so the result splats into them."""
        return {
            "retrieval": self.mode,
            "budget": self.budget,
            "nprobe": self.nprobe,
        }


class Retriever:
    """Known-user top-k over one model generation's factor snapshots.

    Built once per generation — it snapshots the factors, so every
    swap/refresh builds a fresh one — and queried through :meth:`scan`.

    Parameters
    ----------
    config:
        The validated :class:`RetrievalConfig`.
    effective, bias:
        ``(n_catalog, K)`` effective item factors and ``(n_catalog,)``
        chain biases; referenced, not copied (a fleet maps them from
        shared memory).
    taxonomy:
        The item taxonomy an index-backed mode carves its cells from.
    items:
        The contiguous catalog slice to rank (default: all of it) — what
        an item-partitioned shard passes.  Pages carry *global* item
        indices either way.
    registry:
        Optional metrics registry for the index's scan series.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.taxonomy.tree import Taxonomy
    >>> tax = Taxonomy([-1, 0, 0, 1, 1, 2, 2])
    >>> rng = np.random.default_rng(0)
    >>> eff, bias = rng.normal(size=(4, 3)), rng.normal(size=4)
    >>> queries, banned = rng.normal(size=(2, 3)), [np.array([1]), np.array([3])]
    >>> pages = [
    ...     Retriever(RetrievalConfig(mode), eff, bias, tax).scan(queries, 3, banned)
    ...     for mode in RETRIEVAL_MODES
    ... ]
    >>> all(np.array_equal(page.items, pages[0].items) for page in pages)
    True
    >>> Retriever(RetrievalConfig(), eff, bias, tax, items=range(2, 4)).scan(
    ...     queries, 3, banned
    ... ).items.shape
    (2, 2)
    """

    def __init__(
        self,
        config: RetrievalConfig,
        effective: np.ndarray,
        bias: np.ndarray,
        taxonomy: Taxonomy,
        items: Optional[range] = None,
        registry=None,
    ):
        catalog = range(effective.shape[0])
        if items is None:
            items = catalog
        elif items.step != 1:
            raise ValueError(f"items must be a contiguous range, got {items}")
        self.config = config
        self._lo, self._hi = items.start, items.stop
        #: The SubtreeIndex behind the index-backed modes, else ``None``.
        self.index: Optional[SubtreeIndex] = None
        if config.indexed:
            self.index = SubtreeIndex(
                effective,
                bias,
                taxonomy,
                level=config.level,
                items=None if items == catalog else np.arange(self._lo, self._hi),
                registry=registry,
                approx=config.approximate,
                page_dtype=config.page_dtype,
            )
        else:
            # Basic slices are views: no per-shard copy of the factors.
            self._effective = effective[self._lo : self._hi]
            self._bias = bias[self._lo : self._hi]

    def scan(
        self,
        queries: np.ndarray,
        k: int,
        banned: Optional[Sequence[np.ndarray]] = None,
    ) -> RetrievalPage:
        """Top-``k`` of this retriever's items for a batch of query rows.

        *banned* holds one array of global item indices per row (past
        purchases; ids outside the slice are ignored).  The page is
        ``min(k, n_covered)`` wide, ordered (score desc, item asc) and
        padded with :data:`~repro.core.topk.PAD_ITEM` / ``-inf``.
        """
        config = self.config
        if config.mode == "pruned":
            return self.index.top_k(queries, k, banned=banned)
        elif config.mode == "budget":
            return self.index.top_k_budget(
                queries, k, banned=banned, budget=config.budget
            )
        elif config.mode == "ivf":
            return self.index.top_k_ivf(
                queries, k, banned=banned, nprobe=config.nprobe
            )
        # "exact": one GEMM over the slice, bans to -inf, row-wise top-k.
        lo, hi = self._lo, self._hi
        scores = queries @ self._effective.T + self._bias[None, :]
        for row, row_banned in enumerate(() if banned is None else banned):
            row_banned = row_banned[(row_banned >= lo) & (row_banned < hi)]
            if row_banned.size:
                scores[row, row_banned - lo] = -np.inf
        local = top_k_rows(scores, min(int(k), hi - lo))
        page_scores = np.take_along_axis(
            scores, np.clip(local, 0, None), axis=1
        )
        page_scores[local < 0] = -np.inf
        items = np.where(local >= 0, local + lo, PAD_ITEM)
        return RetrievalPage(items, page_scores, int(scores.size), 0)

    def reconfigured(self, config: RetrievalConfig) -> "Retriever":
        """This retriever's index scanned under another *config* — no rebuild.

        For knob sweeps, where rebuilding the index per operating point
        would dwarf the scans being measured.  The index itself refuses
        an approximate scan it was not built for.
        """
        if self.index is None or not config.indexed:
            raise ValueError(
                "only index-backed retrievers can be reconfigured, got "
                f"{self.config.mode!r} -> {config.mode!r}"
            )
        clone = copy.copy(self)
        clone.config = config
        return clone
