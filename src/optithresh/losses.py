"""Threshold-optimality losses over cohorts of distributions.

Distances between one-dimensional distributions are squared 2-Wasserstein
distances computed on quantile grids.  Two cohort losses are exposed: ``loss_l1``
(how well each member's thresholded summary reconstructs the member itself) and
``loss_l2`` (how well the summaries preserve pairwise distances between
members), plus the Bray-Curtis variant of the second used by the compositional
baseline.  A :class:`Cohort` caches everything that does not depend on the
candidate thresholds: base quantile grids, pairwise base distances and the
per-member anchor tables used to linearize quantile functions quickly.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from ._interp import _interpolate, interp_rows
from .histograms import (
    Distribution,
    EmpiricalSample,
    Histogram,
    QuantileGrid,
    ThresholdSet,
    _order_statistic_indices,
    _threshold_positions,
    probability_grid,
)

__all__ = [
    "LossKind",
    "LossSpec",
    "Cohort",
    "DEFAULT_GRID_SIZE",
    "wasserstein_sq",
    "loss_l1",
    "loss_l2",
    "bray_curtis",
    "loss_l2_braycurtis",
    "evaluate_loss",
]

DEFAULT_GRID_SIZE = 200


class LossKind(str, Enum):
    L1 = "l1"
    L2 = "l2"
    L2_BRAY_CURTIS = "l2_bray_curtis"


@dataclass(frozen=True)
class LossSpec:
    """Which loss to evaluate and at what quantile grid resolution."""

    kind: LossKind
    grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        object.__setattr__(self, "kind", LossKind(self.kind))
        if self.grid_size < 1:
            raise ValueError("grid_size must be at least 1")


class Cohort:
    """Immutable collection of distributions sharing one domain.

    Members must be uniformly histograms or uniformly samples.  Derived data
    (quantile grids, pairwise distances, anchor tables) are computed lazily and
    cached per grid size; all evaluation methods are pure.
    """

    def __init__(self, members: Sequence[Distribution]):
        members = tuple(members)
        if not members:
            raise ValueError("cohort must contain at least one member")
        first = members[0]
        if isinstance(first, Histogram):
            kind = "histogram"
            ok = all(isinstance(m, Histogram) for m in members)
        else:
            kind = "sample"
            ok = all(isinstance(m, EmpiricalSample) for m in members)
        if not ok:
            raise ValueError("cohort members must all be histograms or all be samples")
        domain = first.domain
        if any(m.domain != domain for m in members):
            raise ValueError("cohort members must share one domain")
        self.members = members
        self.domain = domain
        self.kind = kind
        self._cache: dict = {}

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def shared_cutoffs(self) -> Optional[np.ndarray]:
        """Common cutoff grid of a histogram cohort, or None."""

        def build():
            if self.kind != "histogram":
                return None
            first = self.members[0].cutoffs
            same = all(m.cutoffs.size == first.size and np.array_equal(m.cutoffs, first) for m in self.members)
            return first if same else None
        return self._cached("shared_cutoffs", build)

    @property
    def integer_valued(self) -> bool:
        """True when every member is supported on integer measurement levels."""
        levels = (m.edges if self.kind == "histogram" else m.values for m in self.members)
        return self._cached("integer_valued", lambda: all(np.all(x == np.floor(x)) for x in levels))

    def _cached(self, key, build):
        """The value under ``key``, built on first use; arrays are made read-only."""
        if key not in self._cache:
            value = self._cache[key] = build()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        return self._cache[key]

    def quantile_matrix(self, grid_size: int) -> np.ndarray:
        """Base quantile grids of all members, stacked as an (n, M) array."""

        def build():
            u = probability_grid(grid_size)
            tables = self._anchor_tables()
            if self.kind == "histogram":
                return _histogram_quantiles(tables, u)
            values = tables.values
            idx = _order_statistic_indices(u[None, :], values.sizes[:, None])
            return values.flat[values.starts[:, None] + idx - 1]
        return self._cached(("qmat", grid_size), build)

    def pairwise_base_norms(self, grid_size: int) -> np.ndarray:
        """Condensed Euclidean norms between base quantile grids."""
        return self._cached(("pnorms", grid_size), lambda: _pdist(self.quantile_matrix(grid_size), "euclidean"))

    def compositions(self) -> np.ndarray:
        """Member mass vectors of a shared-cutoff histogram cohort, (n, J+1)."""
        if self.shared_cutoffs is None:
            raise ValueError("compositions require a histogram cohort with shared cutoffs")
        return self._cached("comps", lambda: np.vstack([m.masses for m in self.members]))

    def pairwise_base_bray_curtis(self) -> np.ndarray:
        """Condensed Bray-Curtis dissimilarities between member compositions."""
        return self._cached("bc", lambda: _bray_curtis_condensed(self.compositions()))

    # Internal anchor tables -------------------------------------------------

    def _anchor_tables(self) -> "_AnchorTables":
        def build():
            if self.kind == "histogram":
                return _AnchorTables(
                    lower=np.array([m.support_lower for m in self.members]),
                    upper=np.array([m.support_upper for m in self.members]),
                    edges=_Rows([m.edges for m in self.members]),
                    cum=_Rows([m.cumulative for m in self.members]),
                )
            values = _Rows([m.sorted_values for m in self.members])
            ends = values.starts + values.sizes - 1
            return _AnchorTables(lower=values.flat[values.starts], upper=values.flat[ends], values=values)
        return self._cached("anchor_tables", build)

    def _l1_scorer(self, grid_size: int) -> "_L1Scorer":
        return self._cached(("l1_scorer", grid_size), lambda: _L1Scorer(self.quantile_matrix(grid_size)))


class _Rows:
    """Non-decreasing float rows stored back to back, searched exactly row by row.

    When all rows are equal (the edges of shared cutoffs), queries shared by
    all rows are searched once, in that common row.
    """

    def __init__(self, rows: Sequence[np.ndarray]):
        self.sizes = np.array([row.size for row in rows], dtype=np.int64)
        self.starts = np.concatenate(([0], np.cumsum(self.sizes)[:-1]))
        self.flat = np.concatenate(rows)
        self.rows = [self.flat[s:s + k] for s, k in zip(self.starts.tolist(), self.sizes.tolist())]
        same = all(row.size == rows[0].size and np.array_equal(row, rows[0]) for row in rows)
        self.common = self.rows[0] if same else None

    def search(self, queries: np.ndarray, side: str) -> np.ndarray:
        """Flat index ``start + np.searchsorted(row, query, side)`` of every row and query.

        ``queries`` has shape (Q,), shared by all rows, or (n, Q); the result is (n, Q).
        """
        if self.common is not None and np.ndim(queries) == 1:
            local = np.searchsorted(self.common, queries, side=side)
        else:
            per_row = np.broadcast_to(queries, (len(self.rows), np.shape(queries)[-1]))
            local = np.array([np.searchsorted(row, q, side=side) for row, q in zip(self.rows, per_row)])
        return self.starts[:, None] + local


@dataclass
class _AnchorTables:
    lower: np.ndarray                # (n,) value of each member's 0-anchor
    upper: np.ndarray                # (n,) value of its 1-anchor
    values: Optional[_Rows] = None   # sorted values of sample members
    edges: Optional[_Rows] = None    # bin edges of histogram members
    cum: Optional[_Rows] = None      # cumulative mass at every edge


def _histogram_quantiles(tables: _AnchorTables, probs: np.ndarray) -> np.ndarray:
    """Left-continuous quantiles of histogram members, (n, Q), at probabilities in (0, 1].

    ``probs`` has shape (Q,), shared by all members, or (n, Q); values at
    probability zero are not meaningful.
    """
    cum = tables.cum
    first = cum.starts[:, None]
    hi = np.clip(cum.search(probs, "left"), first + 1, first + cum.sizes[:, None] - 1)
    return _interpolate(cum.flat, tables.edges.flat, hi, np.broadcast_to(probs, hi.shape))


# Scratch memory of the batched scorers ----------------------------------------

#: Bytes of scratch memory that one block of a batched scorer may take.  The
#: scorers below work through their candidates in blocks under this budget,
#: so their peak memory does not grow with the number of candidates.
_SCRATCH_BYTES = 1 << 19

#: Scratch bytes per member and per grid value or anchor while candidates are
#: linearized and reduced (the interpolation's brackets and gathers, the grids
#: and their errors), and per member segment that ``_L1Scorer`` scores (its
#: anchors' extended-precision sums and the cost's temporaries).  ``tracemalloc``
#: measures at most 57 and 440 bytes on 200-member cohorts at M=200.
_VALUE_BYTES = 64
_SEGMENT_BYTES = 448


def _blocks(n_rows: int, row_bytes: int) -> list:
    """Slices that split ``n_rows`` rows into blocks of ``_SCRATCH_BYTES``.

    A block holds at least two rows: ``np.einsum`` and multi-axis sums add up
    a one-row batch in another order than a larger one, so blocks of two or
    more give every row the bits of a single batch.  For the same reason a
    one-row remainder joins the block before it.
    """
    size = max(2, _SCRATCH_BYTES // max(row_bytes, 1))
    bounds = list(range(0, n_rows, size)) + [n_rows]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# The linearization kernel ---------------------------------------------------
#
# Every loss and every solver turns thresholds into linearized quantile grids
# and losses through these functions: ``_anchor_rows`` finds the anchors,
# ``_linearized_rows`` interpolates them, ``_loss_terms`` and ``_losses``
# reduce the grids.


def _anchor_rows(cohort: Cohort, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linearization anchors for a batch of threshold vectors.

    Each member's anchor at threshold t is (F(t), q(F(t))), with q(0+) at
    probability zero; the 0-anchor is (0, q(0+)) and the 1-anchor (1, q(1)),
    where q(1) is the largest sample value or the upper edge of a histogram's
    last bin with mass (``support_upper``).

    Args:
        thresholds: (B, K) strictly increasing rows inside the domain.

    Returns:
        (P, V) of shape (B, n, K+2): anchor probabilities and values per
        candidate and member, including the 0- and 1-anchors.
    """
    t = np.atleast_2d(np.asarray(thresholds, dtype=np.float64))
    n_cand, k = t.shape
    n = cohort.n
    tables = cohort._anchor_tables()
    flat_t = t.reshape(-1)
    if cohort.kind == "sample":
        values = tables.values
        counts = values.search(flat_t, "right") - values.starts[:, None]
        probs = counts / values.sizes[:, None]
        gather = values.starts[:, None] + np.maximum(counts - 1, 0)
        vals = np.where(counts > 0, values.flat[gather], tables.lower[:, None])
    else:
        edges, cum = tables.edges.flat, tables.cum.flat
        first = tables.edges.starts[:, None]
        last_bin = first + tables.edges.sizes[:, None] - 2
        j = np.clip(tables.edges.search(flat_t, "right") - 1, first, last_bin)
        frac = (flat_t - edges[j]) / (edges[j + 1] - edges[j])
        probs = cum[j] + (cum[j + 1] - cum[j]) * frac
        np.clip(probs, 0.0, 1.0, out=probs)
        vals = np.where(probs > 0.0, _histogram_quantiles(tables, probs), tables.lower[:, None])

    shape = (n_cand, n, 1)
    p_full = np.concatenate(
        [np.zeros(shape), probs.reshape(n, n_cand, k).transpose(1, 0, 2), np.ones(shape)], axis=2
    )
    v_full = np.concatenate(
        [np.broadcast_to(tables.lower[None, :, None], shape),
         vals.reshape(n, n_cand, k).transpose(1, 0, 2),
         np.broadcast_to(tables.upper[None, :, None], shape)], axis=2
    )
    return p_full, v_full


def _linearized_rows(p_full: np.ndarray, v_full: np.ndarray, grid_size: int) -> np.ndarray:
    """Linearized quantile grids, (B, n, M), from (B, n, K+2) anchors."""
    n_cand, n, n_anchors = p_full.shape
    out = interp_rows(
        p_full.reshape(n_cand * n, n_anchors),
        v_full.reshape(n_cand * n, n_anchors),
        probability_grid(grid_size),
    )
    return out.reshape(n_cand, n, grid_size)


def _member_blocks(p: np.ndarray, v: np.ndarray, grid_size: int):
    """Linearized grids of one candidate's (n, K+2) anchors in member blocks under
    ``_SCRATCH_BYTES``; rows are interpolated alone, so with one call's bits."""
    for members in _blocks(len(p), (grid_size + p.shape[1]) * _VALUE_BYTES):
        yield _linearized_rows(p[None, members], v[None, members], grid_size)[0]


def _member_grids(cohort: Cohort, thresholds: np.ndarray, grid_size: int):
    """Each member's linearized quantile grid at one threshold vector, in member order."""
    p_full, v_full = _anchor_rows(cohort, np.asarray(thresholds, dtype=np.float64)[None, :])
    for grids in _member_blocks(p_full[0], v_full[0], grid_size):
        yield from grids


def _require_pairs(n: int) -> None:
    if n < 2:
        raise ValueError("pairwise loss requires at least two cohort members")


#: scipy's compiled module behind ``scipy.spatial.distance.pdist`` for the
#: metrics used here.
_DISTANCE_MODULE = "scipy.spatial._distance_pybind"


def _pdist(x: np.ndarray, metric: str) -> np.ndarray:
    """scipy's condensed ``pdist`` for ``euclidean``, ``sqeuclidean`` or ``cityblock``.

    ``scipy.spatial.distance.pdist`` hands these metrics to the compiled
    kernels of ``scipy.spatial._distance_pybind``.  That module is loaded on
    first use from the ``spatial`` directory of scipy's package, found without
    executing scipy's ``__init__`` or importing ``scipy.spatial``, whose
    KD-trees, Qhull, ``scipy.sparse`` and ``scipy.linalg`` no loss needs.  It
    is registered under its own name, so a later ``import scipy.spatial``
    shares it.  L1 runs never get here and load no scipy.
    """
    module = sys.modules.get(_DISTANCE_MODULE)
    if module is None:
        package = importlib.util.find_spec("scipy")
        roots = package.submodule_search_locations if package else []
        spatial = [os.path.join(root, "spatial") for root in roots]
        spec = importlib.machinery.PathFinder.find_spec(_DISTANCE_MODULE, spatial)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_DISTANCE_MODULE] = module
    kernel = getattr(module, f"pdist_{metric}", None)
    if kernel is None:
        # Without scipy, version() raises PackageNotFoundError, an ImportError too.
        from importlib.metadata import version

        raise ImportError(f"scipy {version('scipy')} has no {_DISTANCE_MODULE}.pdist_{metric}")
    return kernel(x)


def _loss_terms(cohort: Cohort, lin: np.ndarray, kind: LossKind) -> np.ndarray:
    """What each candidate's loss sums, from its linearized grids ``lin`` (B, n, M).

    Under L1 the squared grid errors of all members, (B,); under L2 the
    condensed squared distances between the members' grids, (B, n(n-1)/2).
    """
    if kind is LossKind.L1:
        diff = lin - cohort.quantile_matrix(lin.shape[2])[None, :, :]
        return np.einsum("bnm,bnm->b", diff, diff)
    if kind is LossKind.L2:
        _require_pairs(cohort.n)
        return np.stack([_pdist(grids, "sqeuclidean") for grids in lin])
    raise ValueError(f"unsupported loss kind {kind} for quantile-grid evaluation")


def _l1_mean(totals, n: int, grid_size: int):
    """The L1 loss from the members' summed squared grid errors."""
    return totals / n / (grid_size + 1)


def _pair_mean(totals, n: int):
    """Mean over the n(n-1)/2 member pairs of summed pair terms."""
    return totals * 2.0 / (n * (n - 1))


def _losses(cohort: Cohort, terms: np.ndarray, spec: LossSpec) -> np.ndarray:
    """Quantile-grid losses from the terms of ``_loss_terms`` (or updates of them)."""
    if spec.kind is LossKind.L1:
        return _l1_mean(terms, cohort.n, spec.grid_size)
    diff = np.sqrt(terms)
    np.subtract(cohort.pairwise_base_norms(spec.grid_size), diff, out=diff)
    np.square(diff, out=diff)
    return _pair_mean(diff.sum(axis=-1), cohort.n) / (spec.grid_size + 1)


def _loss_batch(cohort: Cohort, thresholds: np.ndarray, spec: LossSpec) -> np.ndarray:
    """Loss of each candidate threshold vector; rows of ``thresholds`` are (B, K).

    The anchors of all candidates are found at once, and candidates are
    linearized and scored in blocks under ``_SCRATCH_BYTES``.
    """
    p_full, v_full = _anchor_rows(cohort, thresholds)
    n_cand, n, n_anchors = p_full.shape
    out = np.empty(n_cand)
    for rows in _blocks(n_cand, n * (spec.grid_size + n_anchors) * _VALUE_BYTES):
        lin = _linearized_rows(p_full[rows], v_full[rows], spec.grid_size)
        out[rows] = _losses(cohort, _loss_terms(cohort, lin, spec.kind), spec)
    return out


# Closed-form L1 search scores -------------------------------------------------


class _L1Scorer:
    """L1 losses from per-segment closed forms, for searching over candidates.

    Under the L1 loss a candidate's cost is a sum of independent costs, one per
    pair of adjacent anchors.  The segment from (p0, v0) to (p1, v1) owns the
    grid points with p0 < u <= p1, where the linearization is the line
    v0 + b (u - p0) with b = (v1 - v0) / (p1 - p0); empty and tied segments
    cost nothing.  A segment's squared error expands into sums over its points
    of 1, w = u - p0, w^2, q, q^2 and u q.  The w sums have closed forms in the
    offset of the segment's first grid point, and the q sums are differences of
    per-member prefix sums, so a segment costs O(1) instead of O(M).

    Each member's base quantiles q are centred by the member's mean, and the
    sums are kept in extended precision: segment costs then agree with the
    pointwise loss far below the solvers' tie tolerance, also on steep segments
    and on domains far from zero.  Reported losses never come from here; they
    are certified through the public loss functions.
    """

    def __init__(self, base: np.ndarray):
        n, m = base.shape
        q = base.astype(np.longdouble)
        self.mean = q.mean(axis=1)
        q -= self.mean[:, None]
        #: Mean squared deviation of the base quantiles from their member means,
        #: the scale of the rounding in every score.
        self.spread = float(np.mean(q * q))
        self.u = probability_grid(m)
        self.n = n
        self.grid_size = m
        self._width = m + 1
        zeros = np.zeros((n, 1), dtype=np.longdouble)
        # Flattened (n, M+1) prefix sums with a leading zero per member.
        self._sq = np.concatenate((zeros, np.cumsum(q, axis=1)), axis=1).ravel()
        self._sqq = np.concatenate((zeros, np.cumsum(q * q, axis=1)), axis=1).ravel()
        self._suq = np.concatenate((zeros, np.cumsum(self.u * q, axis=1)), axis=1).ravel()

    def anchors(self, members, p, v) -> "_ScoredAnchors":
        """Per-anchor data that segment costs read: prefix sums at its grid position.

        ``members`` holds the member index of each anchor and broadcasts with
        ``p`` and ``v``.
        """
        idx = np.searchsorted(self.u, p, side="right")
        flat = members * self._width + idx
        p_ext = np.asarray(p, dtype=np.longdouble)
        return _ScoredAnchors(
            p=p_ext,
            v=np.asarray(v, dtype=np.longdouble),
            idx=idx,
            # Offset of the first grid point past p; later points follow at steps h.
            first=self.u[np.minimum(idx, self.grid_size - 1)] - p_ext,
            centred=v - self.mean[members],
            s_q=self._sq[flat],
            s_qq=self._sqq[flat],
            s_uq=self._suq[flat],
        )

    def segment_costs(self, start: "_ScoredAnchors", end: "_ScoredAnchors") -> np.ndarray:
        """Squared error of each segment from ``start`` to ``end`` over its grid points.

        With w = u - p0 and the centred line d + b w, the cost is
        sum((d + b w - q)^2) = s_qq + d (c d - 2 s_q) + b (b s_ww + 2 (d s_w - s_wq)).
        Every term vanishes for a segment without grid points.
        """
        count = end.idx - start.idx
        c = count.astype(np.longdouble)
        e, d = start.first, start.centred
        h = np.longdouble(1.0) / self._width
        # h times sum(j) over the j = 0 .. c-1 grid steps past the first point.
        hj = c * (c - 1) * (h / 2)
        s_w = c * e + hj
        s_ww = e * (s_w + hj) + hj * (2 * c - 1) * (h / 3)
        s_q = end.s_q - start.s_q
        s_qq = end.s_qq - start.s_qq
        s_wq = end.s_uq - start.s_uq - start.p * s_q
        rise = end.v - start.v
        slope = np.divide(rise, end.p - start.p, out=np.zeros_like(rise), where=count > 0)
        return s_qq + d * (c * d - 2 * s_q) + slope * (slope * s_ww + 2 * (d * s_w - s_wq))

    def batch_loss(self, p_full: np.ndarray, v_full: np.ndarray) -> np.ndarray:
        """L1 loss per candidate from (B, n, K+2) anchors as built by ``_anchor_rows``.

        Candidates are scored in blocks under ``_SCRATCH_BYTES``.
        """
        n_cand, n, n_anchors = p_full.shape
        totals = np.empty(n_cand)
        members = np.arange(n)
        for rows in _blocks(n_cand, n * (n_anchors - 1) * _SEGMENT_BYTES):
            # Anchor-major layout, so that segment starts and ends are contiguous slices.
            p = np.ascontiguousarray(np.moveaxis(p_full[rows], -1, 0))
            v = np.ascontiguousarray(np.moveaxis(v_full[rows], -1, 0))
            a = self.anchors(members, p, v)
            totals[rows] = self.segment_costs(a[:-1], a[1:]).sum(axis=(0, 2))
        return _l1_mean(totals, self.n, self.grid_size)

    def segment_table(self, p: np.ndarray, v: np.ndarray) -> "_SegmentTable":
        """Cohort segment costs between the columns of (n, A) anchor arrays."""
        # Anchor-major rows, so that each entry sums one contiguous row of members.
        return _SegmentTable(self, self.anchors(np.arange(self.n), p.T.copy(), v.T.copy()))


class _SegmentTable:
    """Cohort cost C[a, b] of the segment between anchor columns a < b.

    Entries are computed on demand and kept, so a search pays only for the
    pairs it visits: stepwise searches visit O(A) of the A^2/2 pairs.  An
    entry sums its members in a fixed order and does not depend on which
    other entries are computed with it, so equal segments get equal costs.
    """

    def __init__(self, scorer: _L1Scorer, anchors: "_ScoredAnchors"):
        self.scorer = scorer
        self.anchors = anchors  # (A, n)
        n_cols = anchors.p.shape[0]
        self.costs = np.full((n_cols, n_cols), np.nan)

    def __call__(self, a, b) -> np.ndarray:
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp))
        missing = np.isnan(self.costs[a, b])
        if missing.any():
            n_cols = self.costs.shape[0]
            keys = np.sort(a[missing] * n_cols + b[missing])
            a_new, b_new = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n_cols)
            for block in _blocks(a_new.size, self.scorer.n * _SEGMENT_BYTES):
                rows, cols = a_new[block], b_new[block]
                segments = self.scorer.segment_costs(self.anchors[rows], self.anchors[cols])
                self.costs[rows, cols] = segments.sum(axis=1)
        return self.costs[a, b]


@dataclass
class _ScoredAnchors:
    """Anchors of ``_L1Scorer`` with the prefix sums at their grid positions."""

    p: np.ndarray        # anchor probabilities
    v: np.ndarray        # anchor values
    idx: np.ndarray      # grid points at or below p
    first: np.ndarray    # u of the first grid point above p, minus p
    centred: np.ndarray  # v minus the member mean
    s_q: np.ndarray      # prefix sums of q, q^2 and u q up to idx
    s_qq: np.ndarray
    s_uq: np.ndarray

    def __getitem__(self, key) -> "_ScoredAnchors":
        return _ScoredAnchors(**{f: getattr(self, f)[key] for f in self.__dataclass_fields__})


# Public operations ----------------------------------------------------------


def wasserstein_sq(qa: QuantileGrid, qb: QuantileGrid) -> float:
    """Discretized squared 2-Wasserstein distance between two quantile grids."""
    if qa.grid_size != qb.grid_size:
        raise ValueError(f"grid sizes differ: {qa.grid_size} vs {qb.grid_size}")
    diff = qa.values - qb.values
    return float(np.sum(diff * diff) / (qa.grid_size + 1))


def loss_l1(cohort: Cohort, t: ThresholdSet, spec: LossSpec) -> float:
    """Mean squared Wasserstein distance between members and their summaries."""
    t.validate_for(cohort.domain)
    return float(_loss_batch(cohort, t.values[None, :], LossSpec(LossKind.L1, spec.grid_size))[0])


def loss_l2(cohort: Cohort, t: ThresholdSet, spec: LossSpec) -> float:
    """Mean squared change of pairwise distances under threshold summarization."""
    t.validate_for(cohort.domain)
    return float(_loss_batch(cohort, t.values[None, :], LossSpec(LossKind.L2, spec.grid_size))[0])


def bray_curtis(x, y) -> float:
    """Bray-Curtis dissimilarity between two non-negative compositions."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"composition lengths differ: {x.shape} vs {y.shape}")
    return float(np.sum(np.abs(x - y)) / np.sum(x + y))


def _bray_curtis_condensed(comps: np.ndarray) -> np.ndarray:
    numerator = _pdist(comps, "cityblock")
    row_sums = comps.sum(axis=1)
    i, j = np.triu_indices(comps.shape[0], k=1)
    return numerator / (row_sums[i] + row_sums[j])


def amalgamated_compositions(cohort: Cohort, positions: np.ndarray) -> np.ndarray:
    """Member compositions amalgamated at cutoff positions (0-based indices)."""
    comps = cohort.compositions()
    starts = np.concatenate(([0], np.asarray(positions, dtype=np.intp) + 1))
    return np.add.reduceat(comps, starts, axis=1)


def loss_l2_braycurtis(cohort: Cohort, t: ThresholdSet) -> float:
    """Pairwise-distance loss under Bray-Curtis dissimilarity on compositions."""
    if cohort.shared_cutoffs is None:
        raise ValueError("Bray-Curtis loss requires a histogram cohort with shared cutoffs")
    _require_pairs(cohort.n)
    positions = _threshold_positions(cohort.members[0], t)
    return _bray_curtis_loss(cohort, _bray_curtis_condensed(amalgamated_compositions(cohort, positions)))


def _bray_curtis_loss(cohort: Cohort, dissimilarities: np.ndarray) -> float:
    """The compositional objective from the condensed Bray-Curtis ``dissimilarities`` of a selection."""
    diff = cohort.pairwise_base_bray_curtis() - dissimilarities
    return float(_pair_mean(np.sum(diff * diff), cohort.n))


def evaluate_loss(cohort: Cohort, t: ThresholdSet, spec: LossSpec) -> float:
    """Dispatch on the loss kind of ``spec``."""
    if spec.kind is LossKind.L1:
        return loss_l1(cohort, t, spec)
    if spec.kind is LossKind.L2:
        return loss_l2(cohort, t, spec)
    return loss_l2_braycurtis(cohort, t)
