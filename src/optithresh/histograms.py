"""Bounded one-dimensional distributions: histograms, samples, thresholds, quantiles.

A distribution lives on a bounded domain [a, b] and is represented either as a
histogram (bin edges plus a probability composition, read as a locally constant
density) or as an empirical sample.  Both expose cumulative and quantile
evaluations, and both can be summarized at a set of thresholds: histograms by
(soft) amalgamation of bins, and either kind by piecewise linearization of its
quantile function at the cumulative images of the thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from ._interp import interp_rows

__all__ = [
    "Domain",
    "Histogram",
    "EmpiricalSample",
    "ThresholdSet",
    "QuantileGrid",
    "Distribution",
    "MASS_TOL",
    "probability_grid",
    "build_histogram",
    "cdf_at",
    "quantile_at",
    "quantile_grid",
    "empirical_quantile",
    "amalgamate",
    "soft_amalgamate",
    "linearized_quantile_grid",
]

#: Compositions must sum to one within this tolerance.
MASS_TOL = 1e-12


def _readonly(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Domain:
    """Measurement range [lower, upper] shared by a cohort of distributions."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("domain bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError(f"domain requires lower < upper, got [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    def contains_interior(self, x: float) -> bool:
        return self.lower < x < self.upper


@dataclass(frozen=True)
class Histogram:
    """Probability composition over bins of a bounded domain.

    Bins are left-closed/right-open ``[s_j, s_{j+1})`` with the final bin closed
    at the domain's upper bound.  ``masses`` has exactly one more entry than
    ``cutoffs`` and sums to one within ``MASS_TOL``.
    """

    domain: Domain
    cutoffs: np.ndarray
    masses: np.ndarray
    subject_id: Optional[str] = None

    def __post_init__(self):
        cutoffs = _readonly(self.cutoffs)
        masses = _readonly(self.masses)
        object.__setattr__(self, "cutoffs", cutoffs)
        object.__setattr__(self, "masses", masses)
        if cutoffs.ndim != 1 or masses.ndim != 1:
            raise ValueError("cutoffs and masses must be one-dimensional")
        if masses.size != cutoffs.size + 1:
            raise ValueError(
                f"expected {cutoffs.size + 1} masses for {cutoffs.size} cutoffs, got {masses.size}"
            )
        if cutoffs.size:
            if np.any(np.diff(cutoffs) <= 0):
                raise ValueError("cutoffs must be strictly increasing")
            if cutoffs[0] <= self.domain.lower or cutoffs[-1] >= self.domain.upper:
                raise ValueError("cutoffs must lie strictly inside the domain")
        if np.any(masses < 0):
            raise ValueError("masses must be non-negative")
        if abs(float(masses.sum()) - 1.0) > MASS_TOL:
            raise ValueError(f"masses must sum to 1 within {MASS_TOL}, got {masses.sum()!r}")

    @property
    def n_bins(self) -> int:
        return self.masses.size

    @cached_property
    def edges(self) -> np.ndarray:
        """All bin edges including the domain bounds."""
        return _readonly(np.concatenate(([self.domain.lower], self.cutoffs, [self.domain.upper])))

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Cumulative mass at every edge; starts at 0 and is pinned to end at 1."""
        cum = np.concatenate(([0.0], np.cumsum(self.masses)))
        np.clip(cum, 0.0, 1.0, out=cum)
        cum[-1] = 1.0
        cum.setflags(write=False)
        return cum

    @cached_property
    def support_lower(self) -> float:
        """Infimum of the support (left edge of the first positive-mass bin)."""
        return float(self.edges[int(np.argmax(self.masses > 0))])

    @cached_property
    def support_upper(self) -> float:
        """Supremum of the support (right edge of the last positive-mass bin)."""
        last = self.n_bins - 1 - int(np.argmax(self.masses[::-1] > 0))
        return float(self.edges[last + 1])


@dataclass(frozen=True)
class EmpiricalSample:
    """Raw measurements of one subject, all within the domain."""

    domain: Domain
    values: np.ndarray
    subject_id: Optional[str] = None

    def __post_init__(self):
        values = _readonly(self.values)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty one-dimensional array")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if values.min() < self.domain.lower or values.max() > self.domain.upper:
            raise ValueError("values must lie within the domain (clamp at ingestion)")

    @property
    def n(self) -> int:
        return self.values.size

    @cached_property
    def sorted_values(self) -> np.ndarray:
        return _readonly(np.sort(self.values))


Distribution = Union[Histogram, EmpiricalSample]


@dataclass(frozen=True)
class ThresholdSet:
    """Ordered thresholds, optionally with a fixed (non-optimizable) subset."""

    thresholds: tuple
    fixed: tuple = ()

    def __post_init__(self):
        thresholds = tuple(float(t) for t in self.thresholds)
        fixed = tuple(float(t) for t in self.fixed)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "fixed", fixed)
        if any(not math.isfinite(t) for t in thresholds):
            raise ValueError("thresholds must be finite")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if any(b <= a for a, b in zip(fixed, fixed[1:])):
            raise ValueError("fixed thresholds must be strictly increasing")
        if not set(fixed) <= set(thresholds):
            raise ValueError("fixed thresholds must be a subset of thresholds")

    @classmethod
    def ordered(cls, values: Sequence[float], fixed: Sequence[float] = ()) -> "ThresholdSet":
        """Build from unordered values, sorting both lists."""
        return cls(tuple(sorted(float(v) for v in values)), tuple(sorted(float(v) for v in fixed)))

    @property
    def k(self) -> int:
        return len(self.thresholds)

    @cached_property
    def values(self) -> np.ndarray:
        return _readonly(self.thresholds)

    def validate_for(self, domain: Domain) -> None:
        if self.thresholds and not (
            domain.lower < self.thresholds[0] and self.thresholds[-1] < domain.upper
        ):
            raise ValueError(
                f"thresholds {self.thresholds} must lie strictly inside "
                f"({domain.lower}, {domain.upper})"
            )


@dataclass(frozen=True)
class QuantileGrid:
    """Quantile evaluations at the equispaced interior probabilities m/(M+1)."""

    grid_size: int
    values: np.ndarray

    def __post_init__(self):
        values = _readonly(self.values)
        object.__setattr__(self, "values", values)
        if self.grid_size < 1:
            raise ValueError("grid_size must be at least 1")
        if values.size != self.grid_size:
            raise ValueError(f"expected {self.grid_size} values, got {values.size}")
        if values.size > 1 and np.any(np.diff(values) < 0):
            raise ValueError("quantile grid values must be non-decreasing")


def probability_grid(grid_size: int) -> np.ndarray:
    """The probabilities u_m = m/(M+1) for m = 1..M."""
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    return np.arange(1, grid_size + 1, dtype=np.float64) / (grid_size + 1)


def build_histogram(sample: EmpiricalSample, cutoffs: Sequence[float]) -> Histogram:
    """Bin a sample at the given interior cutoffs.

    Bin j collects values in [s_j, s_{j+1}); the top bin is closed at the
    domain's upper bound.
    """
    cuts = np.asarray(cutoffs, dtype=np.float64)
    if cuts.size and (np.any(np.diff(cuts) <= 0)):
        raise ValueError("cutoffs must be strictly increasing")
    if cuts.size and (cuts[0] <= sample.domain.lower or cuts[-1] >= sample.domain.upper):
        raise ValueError("cutoffs must lie strictly inside the sample domain")
    idx = np.searchsorted(cuts, sample.values, side="right")
    counts = np.bincount(idx, minlength=cuts.size + 1)
    masses = counts / sample.n
    return Histogram(sample.domain, cuts, masses, subject_id=sample.subject_id)


def _cdf_values(h: Histogram, x: np.ndarray) -> np.ndarray:
    """Cumulative mass below each point, reading the histogram as a locally constant density."""
    edges = h.edges
    cum = h.cumulative
    j = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, h.n_bins - 1)
    frac = (x - edges[j]) / (edges[j + 1] - edges[j])
    out = cum[j] + (cum[j + 1] - cum[j]) * frac
    return np.clip(out, 0.0, 1.0)


def cdf_at(h: Histogram, x: float) -> float:
    """Cumulative distribution function of a histogram at a point of its domain."""
    if not h.domain.contains(x):
        raise ValueError(f"{x} outside domain [{h.domain.lower}, {h.domain.upper}]")
    return float(_cdf_values(h, np.asarray([x], dtype=np.float64))[0])


def quantile_at(h: Histogram, p: float) -> float:
    """Left-continuous generalized inverse of ``cdf_at``.

    Returns the smallest float ``x`` with ``cdf_at(h, x) >= p``, so within
    zero-mass stretches the infimum point is returned. Linear interpolation
    gives that point up to rounding; where rounding misses it (a bin one ulp
    wide holding a large mass, or a trailing zero-mass bin that takes the
    last ulp of mass pinned to 1), the point is found by bisection in its bin.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0:
        return float(h.domain.lower)
    q = float(interp_rows(h.cumulative, h.edges, np.asarray([p]))[0, 0])
    # Bin holding the quantile: cumulative[j - 1] < p <= cumulative[j].
    j = min(int(np.searchsorted(h.cumulative, p, side="left")), h.n_bins)
    lo, hi = float(h.edges[j - 1]), float(h.edges[j])
    if cdf_at(h, q) >= p:
        below = float(np.nextafter(q, -np.inf))
        if below < h.domain.lower or cdf_at(h, below) < p:
            return q
        hi = q
    else:
        lo = q
    if not (lo < hi and cdf_at(h, lo) < p <= cdf_at(h, hi)):
        return q
    # Bisection on floats: cdf_at(lo) < p <= cdf_at(hi) holds throughout.
    while True:
        mid = lo + (hi - lo) / 2.0
        if mid <= lo or mid >= hi:
            return hi
        if cdf_at(h, mid) >= p:
            hi = mid
        else:
            lo = mid


def empirical_quantile(sample: EmpiricalSample, p: float) -> float:
    """Left-continuous empirical quantile (order statistic at ceil(p * n))."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0:
        return float(sample.sorted_values[0])
    idx = _order_statistic_indices(np.asarray([p]), sample.n)[0]
    return float(sample.sorted_values[idx - 1])


def _order_statistic_indices(probs: np.ndarray, n: int) -> np.ndarray:
    # ceil(p * n) with a guard against p*n sitting one float ulp above an integer.
    idx = np.ceil(probs * n - 1e-9).astype(np.int64)
    return np.clip(idx, 1, n)


def quantile_grid(source: Distribution, grid_size: int) -> QuantileGrid:
    """Quantiles of a histogram or sample at the M equispaced interior probabilities."""
    u = probability_grid(grid_size)
    if isinstance(source, Histogram):
        values = interp_rows(source.cumulative, source.edges, u)[0]
    else:
        idx = _order_statistic_indices(u, source.n)
        values = source.sorted_values[idx - 1]
    return QuantileGrid(grid_size, values)


def _threshold_positions(h: Histogram, t: ThresholdSet) -> np.ndarray:
    if t.k == 0:
        return np.empty(0, dtype=np.intp)
    if h.cutoffs.size == 0:
        raise ValueError(f"thresholds {t.thresholds} are not cutoffs of the histogram")
    pos = np.searchsorted(h.cutoffs, t.values)
    in_range = pos < h.cutoffs.size
    ok = in_range & (h.cutoffs[np.where(in_range, pos, 0)] == t.values)
    if not np.all(ok):
        missing = t.values[~ok]
        raise ValueError(f"thresholds {missing.tolist()} are not cutoffs of the histogram")
    return pos


def amalgamate(h: Histogram, t: ThresholdSet) -> Histogram:
    """Merge bins between consecutive selected thresholds.

    Every threshold must be one of the histogram's cutoffs; total mass is
    preserved exactly as partial sums of the original masses.
    """
    pos = _threshold_positions(h, t)
    starts = np.concatenate(([0], pos + 1)).astype(np.intp)
    masses = np.add.reduceat(h.masses, starts)
    return Histogram(h.domain, t.values, masses, subject_id=h.subject_id)


def soft_amalgamate(h: Histogram, t: ThresholdSet) -> Histogram:
    """Amalgamate at arbitrary interior thresholds, splitting bin mass proportionally.

    Bin k receives the integral of the locally constant density over
    [t_k, t_{k+1}].  Coincides with ``amalgamate`` when the thresholds are a
    subset of the histogram's cutoffs.
    """
    t.validate_for(h.domain)
    cdf = _cdf_values(h, t.values)
    masses = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    return Histogram(h.domain, t.values, masses, subject_id=h.subject_id)


def _histogram_anchor_values(h: Histogram, probs: np.ndarray) -> np.ndarray:
    """q(F(t)) for each anchor probability, with the 0-anchor convention q(0+)."""
    values = np.empty_like(probs)
    positive = probs > 0.0
    if positive.any():
        values[positive] = interp_rows(h.cumulative, h.edges, probs[positive])[0]
    values[~positive] = h.support_lower
    return values


def linearized_quantile_grid(source: Distribution, t: ThresholdSet, grid_size: int) -> QuantileGrid:
    """Quantile grid of the threshold summary, by linear interpolation.

    The quantile function is replaced by the piecewise-linear interpolation of
    the anchors (F(t_j), q(F(t_j))), augmented with (0, q(0+)) and (1, q(1)).
    Anchors with tied cumulative probabilities carry identical values, so
    degenerate segments never enter the interpolation.
    """
    t.validate_for(source.domain)
    u = probability_grid(grid_size)
    if isinstance(source, Histogram):
        probs = _cdf_values(source, t.values)
        vals = _histogram_anchor_values(source, probs)
        p_anchors = np.concatenate(([0.0], probs, [1.0]))
        v_anchors = np.concatenate(([source.support_lower], vals, [source.support_upper]))
    else:
        sorted_values = source.sorted_values
        counts = np.searchsorted(sorted_values, t.values, side="right")
        probs = counts / source.n
        vals = np.where(counts > 0, sorted_values[np.maximum(counts - 1, 0)], sorted_values[0])
        p_anchors = np.concatenate(([0.0], probs, [1.0]))
        v_anchors = np.concatenate(([sorted_values[0]], vals, [sorted_values[-1]]))
    grid = interp_rows(p_anchors, v_anchors, u)[0]
    return QuantileGrid(grid_size, grid)
