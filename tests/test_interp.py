import warnings

import numpy as np
import pytest

from optithresh._interp import _bracket_shared_sorted, _interpolate, interp_rows


def expression_interpolate(p, v, hi, q):
    """``_interpolate`` as one expression with temporaries, the form it replaced."""
    hi_p = p[hi]
    lo_p = p[hi - 1]
    hi_v = v[hi]
    lo_v = v[hi - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = lo_v + (q - lo_p) / (hi_p - lo_p) * (hi_v - lo_v)
    # The true value lies in [lo_v, hi_v]; clamping removes last-ulp overshoot
    # so outputs stay monotone across segment boundaries.
    np.clip(out, lo_v, hi_v, out=out)
    # Exact anchor hits are left-continuous.
    pinned = hi_p == q
    if pinned.any():
        out = np.where(pinned, hi_v, out)
    return out


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def tied_rows(rng, rows, n_anchors, offset, width):
    """Anchor rows with runs of tied probabilities and of tied values."""
    p = np.sort(rng.random((rows, n_anchors)), axis=1)
    tie = rng.random((rows, n_anchors)) < 0.3
    p = np.maximum.accumulate(np.where(tie, np.roll(p, 1, axis=1), p), axis=1)
    p[:, 0], p[:, -1] = 0.0, 1.0
    v = np.sort(rng.random((rows, n_anchors)), axis=1)
    v = np.maximum.accumulate(np.where(rng.random(v.shape) < 0.2, np.roll(v, 1, axis=1), v), axis=1)
    v = v * width + offset
    return p, v


class TestInterpolate:
    @pytest.mark.parametrize("offset,width", [(0.0, 1.0), (1e7, 50.0), (-1e9, 3.0), (1e12, 400.0)])
    def test_bitwise_the_expression(self, rng, offset, width):
        # Anchor hits (pinned), tied probabilities (0/0, then clipped) and
        # brackets of every kind, from interp_rows's searches and at random.
        pinned = nan_before_clip = 0
        for rows, n_anchors in [(1, 2), (1, 7), (5, 3), (40, 12)]:
            p, v = tied_rows(rng, rows, n_anchors, offset, width)
            q = np.sort(np.r_[rng.random(30), p.ravel()[p.ravel() > 0]])
            flat_p, flat_v = p.ravel(), v.ravel()
            local = np.clip(rng.integers(0, n_anchors, size=(rows, q.size)), 1, n_anchors - 1)
            hi = (local + np.arange(rows)[:, None] * n_anchors).ravel()
            qq = np.tile(q, rows)
            want = expression_interpolate(flat_p, flat_v, hi, qq)
            got = _interpolate(flat_p.copy(), flat_v.copy(), hi, qq.copy())
            assert same_bits(got, want)
            pinned += int(np.sum(flat_p[hi] == qq))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = (qq - flat_p[hi - 1]) / (flat_p[hi] - flat_p[hi - 1])
            nan_before_clip += int(np.sum(np.isnan(ratio)))
            got = interp_rows(p, v, q)
            pos = _bracket_shared_sorted(p, q)
            assert same_bits(got.ravel(), expression_interpolate(flat_p, flat_v, pos, qq))
            # The brackets of an exact per-row search, also for a single row.
            search = np.clip([np.searchsorted(row, q, side="left") for row in p], 1, n_anchors - 1)
            assert np.array_equal(pos, (search + np.arange(rows)[:, None] * n_anchors).ravel())
        assert pinned > 0 and nan_before_clip > 0

    def test_leaves_inputs_and_broadcast_queries_alone(self, rng):
        # Histogram quantiles pass read-only broadcast queries; nothing is written
        # into the anchors or the queries.
        p, v = tied_rows(rng, 6, 9, 0.0, 1.0)
        flat_p, flat_v = p.ravel(), v.ravel()
        probs = np.sort(rng.random(25))
        q = np.broadcast_to(probs, (6, 25))
        hi = np.clip(np.searchsorted(p[0], q, side="left"), 1, 8)
        before = flat_p.copy(), flat_v.copy()
        got = _interpolate(flat_p, flat_v, hi, q)
        assert same_bits(got, expression_interpolate(flat_p, flat_v, hi, q))
        assert same_bits(flat_p, before[0]) and same_bits(flat_v, before[1])

    @pytest.mark.parametrize("offset,width", [(0.0, 1.0), (1e7, 50.0), (-1e9, 3.0), (1e12, 400.0)])
    def test_row_indices_broadcast_against_shared_queries(self, rng, offset, width):
        # One segment per row at queries that all rows share, as the L2 removal
        # chord asks: (n, 1) indices and (Q,) queries give an (n, Q) output,
        # with pinned hits and tied anchors (0/0, then clipped) and no warning.
        pinned = nan_before_clip = 0
        for rows, n_anchors in [(1, 2), (5, 3), (40, 12)]:
            p, v = tied_rows(rng, rows, n_anchors, offset, width)
            flat_p, flat_v = p.ravel(), v.ravel()
            q = np.sort(np.r_[rng.random(30), flat_p[flat_p > 0]])
            hi = rng.integers(1, n_anchors, size=(rows, 1)) + np.arange(rows)[:, None] * n_anchors
            before = [a.copy() for a in (flat_p, flat_v, hi, q)]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = _interpolate(flat_p, flat_v, hi, q)
            assert got.shape == (rows, q.size)
            assert same_bits(got, expression_interpolate(flat_p, flat_v, hi, q))
            assert all(same_bits(a, b) for a, b in zip((flat_p, flat_v, hi, q), before))
            pinned += int(np.sum(flat_p[hi] == q))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = (q - flat_p[hi - 1]) / (flat_p[hi] - flat_p[hi - 1])
            nan_before_clip += int(np.sum(np.isnan(ratio)))
        assert pinned > 0 and nan_before_clip > 0
