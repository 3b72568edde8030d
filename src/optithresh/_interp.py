"""Row-wise piecewise-linear evaluation of monotone curves on [0, 1].

Every quantile-like object in this package is a non-decreasing curve through
anchor points ``(p_k, v_k)`` with probabilities ``p_k`` in [0, 1].  This module
evaluates such curves left-continuously: an exact hit on an anchor probability
returns the first value of the tied run, and repeated probabilities (jumps of
the curve) are bridged by the nearest strictly increasing pair of anchors.
Brackets come from exact searches, so every row is evaluated as if on its own.
"""

from __future__ import annotations

import numpy as np

__all__ = ["interp_rows"]


def _bracket_shared_sorted(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hi-anchor index per query when all rows share one sorted query vector.

    Searches the few anchors among the many queries: queries with index in
    [e_{k-1}, e_k), where e_k counts queries at or below anchor k, take anchor
    k as the upper bracket.
    """
    rows, n_anchors = p.shape
    n_queries = q.shape[0]
    e = np.searchsorted(q, p.ravel(), side="right").reshape(rows, n_anchors)
    counts = np.diff(e, axis=1)
    local = np.repeat(np.tile(np.arange(1, n_anchors), rows), counts.ravel())
    return local + np.repeat(np.arange(rows) * n_anchors, n_queries)


def _interpolate(p: np.ndarray, v: np.ndarray, hi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Curve values at ``q`` on the segments that end at flat anchor indices ``hi``.

    ``p`` and ``v`` hold the anchors of all rows back to back, and ``hi`` is,
    for each query, the first anchor of its row whose probability is at least
    the query (but never the row's first anchor), or (n, 1) indices of one
    segment per row when ``q`` is a (Q,) vector shared by all rows.
    """
    hi_p = p[hi]
    lo_p = p[hi - 1]
    hi_v = v[hi]
    lo_v = v[hi - 1]
    # Exact anchor hits are left-continuous.
    pinned = hi_p == q
    # lo_v + (q - lo_p) / (hi_p - lo_p) * (hi_v - lo_v) in that order, in the
    # gathered arrays: widths go to hi_p, values to lo_p unless q broadcasts.
    width = np.subtract(hi_p, lo_p, out=hi_p)
    out = np.subtract(q, lo_p, out=lo_p if pinned.shape == lo_p.shape else None)
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= width
        out *= np.subtract(hi_v, lo_v, out=width)
        out += lo_v
    # The true value lies in [lo_v, hi_v]; clamping removes last-ulp overshoot
    # so outputs stay monotone across segment boundaries.
    np.clip(out, lo_v, hi_v, out=out)
    np.copyto(out, hi_v, where=pinned)
    return out


def interp_rows(anchors_p: np.ndarray, anchors_v: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Evaluate piecewise-linear curves row by row at shared queries.

    Args:
        anchors_p: probabilities, shape (A,) or (R, A), non-decreasing per row,
            with first element 0 and last element 1.
        anchors_v: curve values at the anchors, same shape, non-decreasing per row.
        queries: probabilities strictly inside (0, 1], shape (Q,), shared by
            all rows and sorted ascending.

    Returns:
        Array of shape (R, Q) with the evaluated values.
    """
    p = np.atleast_2d(np.asarray(anchors_p, dtype=np.float64))
    v = np.atleast_2d(np.asarray(anchors_v, dtype=np.float64))
    if p.shape != v.shape:
        raise ValueError(f"anchor shape mismatch: {p.shape} vs {v.shape}")
    rows, n_anchors = p.shape
    if n_anchors < 2:
        raise ValueError("need at least two anchors per row")
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError(f"queries must be one-dimensional, got shape {q.shape}")

    pos = _bracket_shared_sorted(p, q)
    return _interpolate(p.ravel(), v.ravel(), pos, np.tile(q, rows)).reshape(rows, q.size)
