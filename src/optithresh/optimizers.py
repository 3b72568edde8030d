"""Threshold-selection solvers.

Discrete solvers (exhaustive search, stepwise aggregation, stepwise splitting,
and the Bray-Curtis baseline) pick monotone subsequences of a shared cutoff
grid; differential evolution relaxes the search to continuous thresholds inside
the domain.  All of them honour an optional set of fixed thresholds that must
appear in the solution, and every returned loss is re-evaluated through the
public loss functions so results certify against them exactly.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from ._interp import _interpolate
from .histograms import Domain, ThresholdSet, probability_grid
from .losses import (
    Cohort,
    LossKind,
    LossSpec,
    _VALUE_BYTES,
    _anchor_rows,
    _blocks,
    _bray_curtis_loss,
    _loss_batch,
    _loss_terms,
    _losses,
    _member_blocks,
    _pdist,
    _require_pairs,
    amalgamated_compositions,
    evaluate_loss,
)

__all__ = [
    "Method",
    "DEConfig",
    "OptimizationResult",
    "SearchBudgetExceeded",
    "exhaustive_search",
    "stepwise_aggregation",
    "stepwise_splitting",
    "differential_evolution",
    "paa_baseline",
    "optimize",
    "round_up_thresholds",
]

log = logging.getLogger(__name__)

#: Loss improvements below this are treated as ties and broken toward the
#: smaller threshold value.
TIE_TOL = 1e-12

DEFAULT_EXHAUSTIVE_BUDGET = 2_000_000

#: DE settles closed-form L1 scores this close (relative) with exact losses.
_SETTLE_RTOL = 1e-10

#: The L2 removal scan recomputes a candidate's distances directly when one of
#: them falls below this fraction of the terms that cancel in its update.
_CANCEL_RTOL = 1e-8


class SearchBudgetExceeded(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its combination budget."""


class Method(str, Enum):
    EXHAUSTIVE = "exhaustive"
    STEPWISE_AGGREGATION = "sa"
    STEPWISE_SPLITTING = "ss"
    DIFFERENTIAL_EVOLUTION = "de"
    PAA = "paa"


@dataclass(frozen=True)
class DEConfig:
    """Differential-evolution hyperparameters (rand/1/bin with dithered mutation)."""

    population_size_per_dim: int = 15
    mutation_range: tuple = (0.5, 1.0)
    crossover_prob: float = 0.7
    max_generations: int = 1000
    convergence_tol: float = 0.01
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mutation_range", tuple(float(v) for v in self.mutation_range))
        if self.population_size_per_dim < 4:
            raise ValueError("population_size_per_dim must be at least 4")
        lo, hi = self.mutation_range
        if not (0.0 < lo <= hi <= 2.0):
            raise ValueError("mutation_range must satisfy 0 < low <= high <= 2")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must be in [0, 1]")
        if self.max_generations < 1:
            raise ValueError("max_generations must be at least 1")
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol >= 0):
            raise ValueError(f"convergence_tol must be finite and non-negative, got {self.convergence_tol!r}")


@dataclass(frozen=True)
class OptimizationResult:
    thresholds: ThresholdSet
    loss: float
    method: Method
    evaluations: int
    loss_spec: LossSpec
    trace: Optional[tuple] = None


FixedLike = Union[None, ThresholdSet, Sequence[float]]


def _normalize_fixed(fixed: FixedLike) -> tuple:
    if fixed is None:
        return ()
    if isinstance(fixed, ThresholdSet):
        values = fixed.thresholds
    else:
        values = tuple(float(v) for v in fixed)
    out = tuple(sorted(values))
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("fixed thresholds must be distinct")
    return out


# Discrete evaluation ---------------------------------------------------------


def _grid_setup(cohort: Cohort, k: int, spec: LossSpec, fixed: FixedLike) -> tuple:
    """(fixed, cutoffs, fixed_pos) of a grid solver: the normalised fixed
    thresholds, the shared cutoffs it selects from and the fixed thresholds'
    positions among them, once the instance is checked to be solvable."""
    fixed = _normalize_fixed(fixed)
    cutoffs = cohort.shared_cutoffs
    if cutoffs is None:
        raise ValueError("discrete solvers require a histogram cohort with shared cutoffs")
    if spec.kind is not LossKind.L1:
        _require_pairs(cohort.n)
    if k < 0:
        raise ValueError("K must be non-negative")
    if k < len(fixed):
        raise ValueError(f"K={k} is smaller than the number of fixed thresholds ({len(fixed)})")
    if k > cutoffs.size:
        raise ValueError(f"K={k} exceeds the {cutoffs.size} available cutoffs")
    pos = np.searchsorted(cutoffs, fixed)
    bad = (pos >= cutoffs.size) | (cutoffs[np.minimum(pos, cutoffs.size - 1)] != fixed)
    if np.any(bad):
        missing = [fixed[i] for i in np.nonzero(bad)[0]]
        raise ValueError(f"fixed thresholds {missing} are not members of the shared cutoffs")
    return fixed, cutoffs, pos.astype(np.intp)


def _selection_cols(j: int, sel: np.ndarray) -> np.ndarray:
    """Anchor columns of selections of J cutoffs, along the last axis of ``sel``:
    the 0-anchor, the cutoffs, the 1-anchor."""
    sel = np.asarray(sel, dtype=np.intp)
    return np.pad(sel + 1, [(0, 0)] * (sel.ndim - 1) + [(1, 1)], constant_values=(0, j + 1))


class _SelectionScan:
    """Scores the candidates of the grid solvers: removals from the current
    selection ``sel``, insertions into it and whole selections of cutoffs.

    It holds the kernel's anchors at all shared cutoffs.  Each anchor depends
    on its own threshold only, so the anchors of a selection are bitwise the
    columns ``_selection_cols`` of these.  Under L1 it also holds one table of
    segment costs between them.

    Removing or inserting one anchor only changes the linearized grids on the
    probability span between its neighbours, so under L1 such a candidate is
    scored from the table's deltas, and under L2 a removal is a low-rank update
    of the current squared pairwise distances.  L2 insertions and whole
    selections are scored from scratch by the kernel.  ``remove`` and
    ``insert`` take the grids, terms and loss of the new selection from the
    kernel, so corrections never accumulate, and ``loss`` is bitwise the
    public loss of ``sel``.  L2 removal updates are kept from step to step
    while no removal changes the grids on their span; ``reuse`` counts the
    updates of the last scoring call that were kept and those computed.
    Beyond its grids and terms, a step holds the kept updates and one
    candidate's chord on its span; grids are linearized in member blocks.
    """

    def __init__(self, cohort: Cohort, spec: LossSpec, sel: np.ndarray):
        self.cohort = cohort
        self.spec = spec
        self.cutoffs = cohort.shared_cutoffs
        self.u = probability_grid(spec.grid_size)
        self.sel = np.asarray(sel, dtype=np.intp)
        p, v = _anchor_rows(cohort, self.cutoffs[None, :])
        self._p_all, self._v_all = p[0], v[0]
        if spec.kind is LossKind.L1:
            self.costs = cohort._l1_scorer(spec.grid_size).segment_table(self._p_all, self._v_all)
        else:
            self._flat_ij = np.ravel_multi_index(np.triu_indices(cohort.n, k=1), (cohort.n, cohort.n))
        # L2 removal updates (Δ, scale), keyed by the candidate's anchor
        # columns (left, mid, right) and its span of grid columns [lo, hi).
        self._updates = {}
        self.reuse = (0, 0)
        self._refresh()

    def _refresh(self) -> None:
        """Anchors, grids, loss terms and loss of the selection, from the kernel."""
        self.cols = _selection_cols(self.cutoffs.size, self.sel)
        self.p, self.v = self._p_all[:, self.cols], self._v_all[:, self.cols]
        grids = np.concatenate(list(_member_blocks(self.p, self.v, self.spec.grid_size)))
        terms = _loss_terms(self.cohort, grids[None], self.spec.kind)
        self.loss = float(_losses(self.cohort, terms, self.spec)[0])
        # Under L1 the terms are the summed squared error; under L2 the
        # condensed squared distances between the grids.
        self.grids, self.terms = grids, terms[0]

    def selection_losses(self, sel: np.ndarray) -> np.ndarray:
        """Losses of the (C, K) selections ``sel``, under L2 bitwise those of ``evaluate_loss``."""
        if self.spec.kind is LossKind.L1:
            cols = _selection_cols(self.cutoffs.size, sel)
            totals = self.costs(cols[:, :-1], cols[:, 1:]).sum(axis=1)
            return _losses(self.cohort, totals, self.spec)
        # ``_loss_batch`` finds the anchors of all its selections at once, so
        # selections go to it in blocks that bound the anchors' scratch.
        out = np.empty(len(sel))
        for rows in _blocks(len(sel), self.cohort.n * (sel.shape[1] + 2) * _VALUE_BYTES):
            out[rows] = _loss_batch(self.cohort, self.cutoffs[sel[rows]], self.spec)
        return out

    def insertion_losses(self, candidates: np.ndarray) -> np.ndarray:
        """Losses after inserting each cutoff index of ``candidates`` into the selection."""
        self.reuse = (0, candidates.size)
        if self.spec.kind is not LossKind.L1:
            kept = np.broadcast_to(self.sel, (candidates.size, self.sel.size))
            grown = np.column_stack((kept, candidates))
            return self.selection_losses(np.sort(grown, axis=1))
        cols, costs = self.cols, self.costs
        new = candidates + 1
        slot = np.searchsorted(cols, new)
        left, right = cols[slot - 1], cols[slot]
        total = costs(cols[:-1], cols[1:]).sum()
        delta = (costs(left, new) + costs(new, right)) - costs(left, right)
        return _losses(self.cohort, total + delta, self.spec)

    def removal_losses(self, pos: np.ndarray) -> np.ndarray:
        """Losses after removing the threshold at each of the positions ``pos``."""
        if self.spec.kind is not LossKind.L1:
            return self._l2_losses(pos)
        self.reuse = (0, pos.size)
        left, mid, right = self.cols[pos], self.cols[pos + 1], self.cols[pos + 2]
        costs = self.costs
        delta = (costs(left, right) - costs(left, mid)) - costs(mid, right)
        return _losses(self.cohort, self.terms + delta, self.spec)

    def _spans(self, pos: np.ndarray) -> tuple:
        """Grid columns [lo, hi) that removing the anchors after ``pos`` can change."""
        lo = np.searchsorted(self.u, self.p[:, pos].min(axis=0), side="right")
        hi = np.searchsorted(self.u, self.p[:, pos + 2].max(axis=0), side="left")
        return lo, hi

    def _l2_losses(self, pos: np.ndarray) -> np.ndarray:
        """L2 losses of removing the anchors after ``pos``, in blocks of candidates.

        A candidate changes the grids only on the span of grid points between
        its neighbours' extreme anchor probabilities; one without such points
        keeps the current loss.  The others add their update Δ to the current
        terms.  Δ depends on the candidate's anchors and on the grids on its
        span only, so it is kept until a removal overlaps that span.  A
        candidate without one takes its chord and the centred grids on its
        span only, from one vector of column means per call.
        """
        lo, hi = self._spans(pos)
        out = np.full(pos.size, self.loss)
        todo = np.nonzero(lo < hi)[0]
        left, mid, right = self.cols[pos], self.cols[pos + 1], self.cols[pos + 2]
        keys = list(zip(*(a[todo].tolist() for a in (left, mid, right, lo, hi))))
        kept, self._updates = self._updates, {}
        reused = sum(key in kept for key in keys)
        self.reuse = (reused, len(keys) - reused)
        means = self.grids.mean(axis=0) if reused < len(keys) else None
        # A row is the block's updated distances plus the temporary of ``_losses``.
        for block in _blocks(todo.size, 2 * self.terms.nbytes):
            rows = todo[block]
            sq = np.empty((rows.size, self.terms.size))
            for row, (c, key) in enumerate(zip(rows.tolist(), keys[block])):
                k, span = int(pos[c]) + 1, slice(key[3], key[4])
                update = kept.get(key)
                if update is None:
                    update = self._removal_update(self._removal_change(k, span), span, means)
                self._updates[key] = update
                delta, scale = update
                np.add(self.terms, delta, out=sq[row])
                if self._cancels(sq[row], scale):
                    grids = self.grids.copy()
                    grids[:, span] += self._removal_change(k, span)
                    sq[row] = _pdist(grids, "sqeuclidean")
            np.maximum(sq, 0.0, out=sq)
            out[rows] = _losses(self.cohort, sq, self.spec)
        return out

    def _removal_change(self, k: int, span: slice) -> np.ndarray:
        """d: each member's grid change on columns ``span`` once anchor ``k`` is removed.

        Strictly between its anchors k − 1 and k + 1 a member's new grid is
        their chord, from ``_interp._interpolate`` on the (n, 2) table of those
        anchors; elsewhere the grid does not change.
        """
        us = self.u[span]
        p, v = self.p[:, k - 1:k + 2:2], self.v[:, k - 1:k + 2:2]
        chord = _interpolate(p.ravel(), v.ravel(), np.arange(1, p.size, 2)[:, None], us)
        chord -= self.grids[:, span]
        np.copyto(chord, 0.0, where=(us <= p[:, :1]) | (us >= p[:, 1:]))
        return chord

    def _removal_update(self, d: np.ndarray, span: slice, means: np.ndarray) -> tuple:
        """(Δ, scale): the change of the condensed squared distances for grid change ``d``
        on columns ``span``, given the column ``means`` of the grids.

        With s = d + 2·(old − column mean) on those columns, the change of a
        squared distance is Δ_ij = Σ (d_i − d_j)(s_i − s_j) = (X_ii + X_jj) −
        (X_ij + X_ji) for X = d·sᵀ.  Centring ``old`` before adding d keeps s
        small on domains far from zero.  ``scale`` bounds the terms that
        cancel: |X_ij| <= |d_i|·|s_j|.
        """
        s = self.grids[:, span] - means[span]
        s *= 2.0
        s += d
        x = d @ s.T
        r = x.diagonal()
        delta = np.add.outer(r, r)
        delta -= x + x.T
        scale = math.sqrt(np.einsum("ij,ij->i", d, d).max() * np.einsum("ij,ij->i", s, s).max())
        return delta.ravel()[self._flat_ij], scale

    def _cancels(self, sq: np.ndarray, scale: float) -> bool:
        """Whether updated distances ``sq`` kept too few digits to give their loss.

        A distance below `small` keeps about √small of absolute precision,
        which spoils its loss term (base − √sq)² unless the base distance is
        as small (as for identical members).  Such a candidate, as when the
        grids become identical when the last anchor goes, takes its distances
        from the new grids directly.
        """
        small = _CANCEL_RTOL * scale
        if sq.min() >= small:
            return False
        base_norms = self.cohort.pairwise_base_norms(self.spec.grid_size)
        return bool(np.any((sq < small) & (base_norms > math.sqrt(small))))

    def remove(self, position: int) -> None:
        if self._updates:
            # The grids, and so d and s, change only on the removed span.
            lo, hi = (int(a[0]) for a in self._spans(np.array([position])))
            self._updates = {
                key: update for key, update in self._updates.items()
                if max(key[3], lo) >= min(key[4], hi)
            }
        self.sel = np.delete(self.sel, position)
        self._refresh()

    def insert(self, index: int) -> None:
        self._updates = {}
        self.sel = np.sort(np.append(self.sel, index))
        self._refresh()


class _BrayCurtisRemovalScan:
    """Removal scan for the compositional baseline objective.

    A column of the amalgamated compositions depends only on the range of
    bins it merges, so its pair terms |x_i − x_j| are kept from step to step
    under that range; after a removal only the merged column is new.
    ``reuse`` counts the columns of the last scoring call that were kept and
    those computed.
    """

    def __init__(self, cohort: Cohort, sel: np.ndarray):
        self.cohort = cohort
        self.sel = np.asarray(sel, dtype=np.intp)
        self._pair_i, self._pair_j = np.triu_indices(cohort.n, k=1)
        self._column_terms = {}  # (first bin, end bin) -> pair terms of that column
        self.reuse = (0, 0)
        self._refresh()

    def _refresh(self) -> None:
        self.comps = amalgamated_compositions(self.cohort, self.sel)
        self.numerators = _pdist(self.comps, "cityblock")
        self._columns = np.ascontiguousarray(self.comps.T)
        # Column c merges the bins [bounds[c], bounds[c + 1]).
        self._bounds = np.r_[0, self.sel + 1, self.cohort.compositions().shape[1]].tolist()
        sums = self.comps.sum(axis=1)
        self.denominators = sums[self._pair_i] + sums[self._pair_j]
        self.loss = self._loss(self.numerators)

    def _loss(self, numerators: np.ndarray) -> float:
        """The objective from pair numerators, reduced as ``loss_l2_braycurtis`` reduces it."""
        return _bray_curtis_loss(self.cohort, numerators / self.denominators)

    def removal_losses(self, positions: np.ndarray) -> np.ndarray:
        """Losses after merging the two bins around the threshold at each of ``positions``."""
        pi, pj = self._pair_i, self._pair_j
        kept, self._column_terms = self._column_terms, {}
        terms = {}
        for col in sorted({*positions.tolist(), *(positions + 1).tolist()}):
            key = (self._bounds[col], self._bounds[col + 1])
            column = self._columns[col]
            found = kept.get(key)
            terms[col] = np.abs(column[pi] - column[pj]) if found is None else found
            self._column_terms[key] = terms[col]
        reused = sum(key in kept for key in self._column_terms)
        self.reuse = (reused, len(terms) - reused)
        out = np.empty(len(positions))
        for i, pos in enumerate(positions.tolist()):
            merged = self._columns[pos] + self._columns[pos + 1]
            out[i] = self._loss(
                self.numerators - terms[pos] - terms[pos + 1] + np.abs(merged[pi] - merged[pj])
            )
        return out

    def remove(self, position: int) -> None:
        self.sel = np.delete(self.sel, position)
        self._refresh()


def _greedy(scan, k: int, fixed_pos: np.ndarray) -> tuple:
    """Greedy search from ``scan.sel`` to K cutoffs; returns (selection, trace, evaluations).

    Above K each step removes a threshold that is not fixed, below K it
    inserts a cutoff: the move of least loss, the first in cutoff order within
    ``TIE_TOL`` of it.  The trace holds the loss after each step.
    """
    trace = []
    evaluations = 0
    while scan.sel.size != k:
        if scan.sel.size > k:
            moves = np.nonzero(~np.isin(scan.sel, fixed_pos))[0]
            losses, move = scan.removal_losses(moves), scan.remove
        else:
            moves = np.flatnonzero(~np.isin(np.arange(scan.cutoffs.size), scan.sel))
            losses, move = scan.insertion_losses(moves), scan.insert
        best, best_loss = -1, math.inf
        for cand, loss in zip(moves.tolist(), losses.tolist()):
            if loss < best_loss - TIE_TOL:
                best, best_loss = cand, loss
        evaluations += moves.size
        log.debug(
            "greedy step %d from %d thresholds: %d candidates scored, "
            "%d updates reused, %d recomputed",
            len(trace) + 1, scan.sel.size, moves.size, *scan.reuse,
        )
        move(best)
        trace.append((len(trace) + 1, scan.loss))
    return scan.sel, tuple(trace), evaluations


def _certify(cohort, values, fixed, method, spec, evaluations, trace) -> OptimizationResult:
    t = ThresholdSet(tuple(float(v) for v in values), fixed=fixed)
    loss = evaluate_loss(cohort, t, spec)
    return OptimizationResult(
        thresholds=t,
        loss=loss,
        method=method,
        evaluations=evaluations + 1,
        loss_spec=spec,
        trace=trace,
    )


# Solvers ----------------------------------------------------------------------


def exhaustive_search(
    cohort: Cohort,
    k: int,
    spec: LossSpec,
    fixed: FixedLike = None,
    budget: int = DEFAULT_EXHAUSTIVE_BUDGET,
) -> OptimizationResult:
    """Globally minimal size-K subsequence of the shared cutoffs.

    Ties are broken toward the lexicographically smallest threshold vector.
    Refuses instances whose combination count exceeds ``budget``.
    """
    fixed, cutoffs, fixed_pos = _grid_setup(cohort, k, spec, fixed)
    free = np.flatnonzero(~np.isin(np.arange(cutoffs.size), fixed_pos))
    n_free = k - len(fixed)
    n_combos = math.comb(free.size, n_free)
    if n_combos > budget:
        raise SearchBudgetExceeded(
            f"{n_combos} combinations exceed the budget of {budget}; "
            "use a stepwise or evolutionary solver instead"
        )
    combos = itertools.combinations(free.tolist(), n_free)
    scan = _SelectionScan(cohort, spec, fixed_pos)
    best_sel = _first_best(combos, n_combos, n_free, fixed_pos, scan.selection_losses)
    return _certify(cohort, cutoffs[best_sel], fixed, Method.EXHAUSTIVE, spec, n_combos, None)


def _first_best(combos, n_combos: int, n_free: int, fixed_pos: np.ndarray, score) -> np.ndarray:
    """First selection of minimal score among ``n_combos`` combinations, scored in blocks."""
    best_sel = None
    best_loss = math.inf
    for block in _blocks(n_combos, (n_free + fixed_pos.size + 2) * _VALUE_BYTES):
        free = np.array(list(itertools.islice(combos, block.stop - block.start)), dtype=np.intp)
        fixed = np.broadcast_to(fixed_pos, (len(free), fixed_pos.size))
        sel = np.sort(np.concatenate((free, fixed), axis=1), axis=1)
        losses = score(sel)
        best = int(np.argmin(losses))
        if losses[best] < best_loss:
            best_sel, best_loss = sel[best], losses[best]
    return best_sel


def stepwise_aggregation(
    cohort: Cohort, k: int, spec: LossSpec, fixed: FixedLike = None
) -> OptimizationResult:
    """Greedy backward elimination: repeatedly remove the threshold whose
    removal minimizes the loss, until K thresholds remain.

    Under L2 its matrix products use as many OpenBLAS threads as the library
    picks; ``OPENBLAS_NUM_THREADS=1`` saves CPU time for the same wall time.
    """
    fixed, cutoffs, fixed_pos = _grid_setup(cohort, k, spec, fixed)
    scan = _SelectionScan(cohort, spec, np.arange(cutoffs.size, dtype=np.intp))
    sel, trace, evaluations = _greedy(scan, k, fixed_pos)
    return _certify(
        cohort, cutoffs[sel], fixed, Method.STEPWISE_AGGREGATION, spec, evaluations, trace
    )


def stepwise_splitting(
    cohort: Cohort, k: int, spec: LossSpec, fixed: FixedLike = None
) -> OptimizationResult:
    """Greedy forward selection: repeatedly add the loss-minimizing threshold."""
    fixed, cutoffs, fixed_pos = _grid_setup(cohort, k, spec, fixed)
    sel, trace, evaluations = _greedy(_SelectionScan(cohort, spec, fixed_pos), k, fixed_pos)
    return _certify(
        cohort, cutoffs[sel], fixed, Method.STEPWISE_SPLITTING, spec, evaluations, trace
    )


def _repair_candidate(free: np.ndarray, fixed: tuple, domain: Domain, bump: float) -> np.ndarray:
    """Sort a candidate, merge in the fixed thresholds and separate duplicates.

    Free values are clipped to [a + bump, b - bump] and duplicates are pushed
    up by ``bump``.  Where that leaves the open domain (a, b) or fails to
    separate values (a bump below one ulp of the values), the free values are
    spaced by single ulps instead, strictly inside the domain.
    """
    a, b = domain.lower, domain.upper
    lower, upper = a + bump, b - bump
    fixed_set = set(fixed)
    items = [(v, 1) for v in fixed]
    items += [(min(max(float(v), lower), upper), 0) for v in free]
    items.sort(key=lambda pair: (pair[0], -pair[1]))
    out = []
    prev = None
    for value, is_fixed in items:
        if not is_fixed:
            if prev is not None and value <= prev:
                value = prev + bump
            while value in fixed_set and value + bump != value:
                value += bump
        out.append(value)
        prev = value
    if a < out[0] and out[-1] < b and all(x < y for x, y in zip(out, out[1:])):
        return np.asarray(out)
    return _space_by_ulps(items, fixed_set, a, b)


def _space_by_ulps(items: list, fixed_set: set, a: float, b: float) -> np.ndarray:
    """Free values made distinct by single ulps, off the fixed values, inside (a, b).

    ``items`` are (value, is_fixed) pairs.  The free values keep their order:
    an upward pass lifts each above its predecessor, a downward pass caps each
    below its successor and below b, and both step over fixed values.
    """
    lo, hi = float(np.nextafter(a, b)), float(np.nextafter(b, a))
    free = sorted(min(max(v, lo), hi) for v, is_fixed in items if not is_fixed)
    prev = -math.inf
    for i, value in enumerate(free):
        value = max(value, float(np.nextafter(prev, math.inf)))
        while value in fixed_set:
            value = float(np.nextafter(value, math.inf))
        free[i] = prev = value
    nxt = math.inf
    for i in reversed(range(len(free))):
        value = min(free[i], hi, float(np.nextafter(nxt, -math.inf)))
        while value in fixed_set:
            value = float(np.nextafter(value, -math.inf))
        free[i] = nxt = value
    if free[0] <= a:
        raise ValueError(f"the domain ({a}, {b}) cannot hold {len(items)} distinct thresholds")
    return np.sort(free + sorted(fixed_set))


def _repair_rows(free: np.ndarray, fixed: tuple, domain: Domain, bump: float) -> np.ndarray:
    """``_repair_candidate`` of every row of the (B, k) array ``free``, with one sort and merge.

    A row whose clipped values, merged with the fixed thresholds, are strictly
    increasing inside (a, b) needs no repair and is that merge.  Only rows
    with a duplicate, a value on a fixed threshold or one not strictly inside
    (a, b) go through ``_repair_candidate``.
    """
    a, b = domain.lower, domain.upper
    # np.maximum and np.minimum pick as max() and min() do, signed zeros included.
    clipped = np.minimum(np.maximum(free, a + bump), b - bump)
    pinned = np.broadcast_to(np.asarray(fixed, dtype=np.float64), (len(free), len(fixed)))
    merged = np.sort(np.concatenate((clipped, pinned), axis=1), axis=1)
    bad = np.any(np.diff(merged, axis=1) <= 0, axis=1) | (merged[:, 0] <= a) | (merged[:, -1] >= b)
    for row in np.nonzero(bad)[0].tolist():
        merged[row] = _repair_candidate(free[row], fixed, domain, bump)
    return merged


class _ExactSelection:
    """DE's one-to-one selection (Storn & Price 1997) on exact losses.

    It holds the population, which it changes in place, and in ``losses`` the
    members' losses, which DE only reads.  ``select`` replaces every member
    whose trial is no worse and returns which did.
    """

    def __init__(self, cohort: Cohort, spec: LossSpec, repaired, population: np.ndarray):
        self.cohort, self.spec, self.repaired, self.population = cohort, spec, repaired, population
        self.losses = self._exact(population)

    def _exact(self, rows: np.ndarray) -> np.ndarray:
        # A one-row batch sums in another order than larger ones (``_blocks``): pad it.
        padded = self.repaired(rows if len(rows) > 1 else np.vstack([rows, rows]))
        return _loss_batch(self.cohort, padded, self.spec)[: len(rows)]

    def select(self, trials: np.ndarray) -> np.ndarray:
        trial_losses = self._exact(trials)
        better = trial_losses <= self.losses
        self.population[better] = trials[better]
        self.losses[better] = trial_losses[better]
        return better


class _SettledL1Selection(_ExactSelection):
    """``_ExactSelection`` from closed-form L1 scores, settled exactly where they nearly tie.

    The scores match ``_loss_batch`` to about 1e-13 relative, so every
    comparison they decide by more than ``_SETTLE_RTOL`` goes the way exact
    losses would; closer calls are settled with exact losses.  ``losses`` is
    exact near the population minimum, where the trace and the final choice
    read it, so DE takes the path of exact scoring.  Those exact losses are
    one memo, recomputed only when the near-minimum members or their scores
    change: a trial with its target's very score keeps its target's loss.
    """

    def __init__(self, cohort: Cohort, spec: LossSpec, repaired, population: np.ndarray):
        self.cohort, self.spec, self.repaired, self.population = cohort, spec, repaired, population
        self.scorer = cohort._l1_scorer(spec.grid_size)
        self.scores = self._score(population)
        self._memo = (None, None)  # (near-minimum indices and scores, their exact losses)
        self.losses = self._resolved()

    def _score(self, rows: np.ndarray) -> np.ndarray:
        return self.scorer.batch_loss(*_anchor_rows(self.cohort, self.repaired(rows)))

    def _close(self, x: np.ndarray, y) -> np.ndarray:
        return np.abs(x - y) <= _SETTLE_RTOL * (np.abs(y) + self.scorer.spread)

    def select(self, trials: np.ndarray) -> np.ndarray:
        trial_scores, scores = self._score(trials), self.scores
        better = trial_scores <= scores
        close = np.nonzero((trial_scores != scores) & self._close(trial_scores, scores))[0]
        if close.size:
            better[close] = self._exact(trials[close]) <= self._exact(self.population[close])
        self.population[better] = trials[better]
        scores[better] = trial_scores[better]
        self.losses = self._resolved()
        return better

    def _resolved(self) -> np.ndarray:
        """Scores with exact losses in place of those near the minimum."""
        near = np.nonzero(self._close(self.scores, self.scores.min()))[0]
        key = (near.tobytes(), self.scores[near].tobytes())
        if key != self._memo[0]:
            self._memo = (key, self._exact(self.population[near]))
        losses = self.scores.copy()
        losses[near] = self._memo[1]
        return losses


def differential_evolution(
    cohort: Cohort,
    k: int,
    spec: LossSpec,
    fixed: FixedLike = None,
    config: Optional[DEConfig] = None,
) -> OptimizationResult:
    """Continuous threshold optimization with rand/1/bin differential evolution.

    Candidates live in the open box (a, b)^(K - #fixed); each vector is sorted
    and merged with the fixed thresholds before evaluation, which makes the
    monotonicity constraint a reparameterization rather than a penalty.
    Each generation's trials go through one ``select`` call of a selection,
    which holds the population's losses: exact ones from ``_loss_batch``, or
    under L1 closed-form scores with near-ties settled exactly
    (``_SettledL1Selection``).  Deterministic for a given seed.
    """
    if spec.kind is LossKind.L2_BRAY_CURTIS:
        raise ValueError("differential evolution optimizes quantile-grid losses only")
    config = config or DEConfig()
    fixed = _normalize_fixed(fixed)
    k_free = k - len(fixed)
    if k_free < 1:
        raise ValueError("differential evolution needs at least one free threshold")
    domain = cohort.domain
    a, b = domain.lower, domain.upper
    span = b - a
    margin = 1e-9 * span
    lower, upper = a + margin, b - margin
    for value in fixed:
        if not domain.contains_interior(value):
            raise ValueError(f"fixed threshold {value} outside the open domain ({a}, {b})")
    repaired = partial(_repair_rows, fixed=fixed, domain=domain, bump=margin)
    rng = np.random.default_rng(config.seed)
    n_pop = config.population_size_per_dim * k_free
    # Latin hypercube initialization, one stratified permutation per dimension.
    population = np.empty((n_pop, k_free))
    for dim in range(k_free):
        strata = (rng.permutation(n_pop) + rng.random(n_pop)) / n_pop
        population[:, dim] = a + strata * span
    np.clip(population, lower, upper, out=population)
    selection = (_SettledL1Selection if spec.kind is LossKind.L1 else _ExactSelection)(
        cohort, spec, repaired, population
    )
    evaluations = n_pop
    trace = [(0, float(selection.losses.min()))]

    members = np.arange(n_pop)
    choices = np.empty((n_pop, 3), dtype=np.intp)
    draws = np.empty((n_pop, k_free))
    forced = np.empty(n_pop, dtype=np.intp)
    stop = "max_generations"
    for generation in range(1, config.max_generations + 1):
        factor = rng.uniform(*config.mutation_range)  # dithered once per generation
        # Each trial's draws, in the order of a loop over trials: three distinct
        # donors other than the target, crossover draws and a forced dimension.
        for i in range(n_pop):
            choices[i] = rng.choice(n_pop - 1, size=3, replace=False)
            draws[i] = rng.random(k_free)
            forced[i] = rng.integers(k_free)
        choices += choices >= members[:, None]
        r1, r2, r3 = choices.T
        mutants = population[r1] + factor * (population[r2] - population[r3])
        cross = draws < config.crossover_prob
        cross[members, forced] = True
        trials = np.where(cross, mutants, population)
        np.clip(trials, lower, upper, out=trials)
        better = selection.select(trials)
        evaluations += n_pop
        losses = selection.losses
        trace.append((generation, float(losses.min())))
        log.debug(
            "de generation %d: %d of %d trials accepted, best loss %r",
            generation, np.count_nonzero(better), n_pop, trace[-1][1],
        )
        if float(losses.std()) <= config.convergence_tol * abs(float(losses.mean())):
            stop = "converged"
            break

    values = repaired(population[[int(np.argmin(selection.losses))]])[0]
    result = _certify(
        cohort, values, fixed, Method.DIFFERENTIAL_EVOLUTION, spec, evaluations, tuple(trace)
    )
    log.info(
        "differential evolution: %d generations, stopped by %s, %d evaluations",
        len(trace) - 1, stop, result.evaluations,
    )
    return result


def paa_baseline(cohort: Cohort, k: int, fixed: FixedLike = None) -> OptimizationResult:
    """Stepwise aggregation under the Bray-Curtis objective.

    The reported loss is the Bray-Curtis objective itself and is not comparable
    to the quantile-grid losses.
    """
    spec = LossSpec(LossKind.L2_BRAY_CURTIS)
    fixed, cutoffs, fixed_pos = _grid_setup(cohort, k, spec, fixed)
    scan = _BrayCurtisRemovalScan(cohort, np.arange(cutoffs.size, dtype=np.intp))
    sel, trace, evaluations = _greedy(scan, k, fixed_pos)
    return _certify(cohort, cutoffs[sel], fixed, Method.PAA, spec, evaluations, trace)


def optimize(
    cohort: Cohort,
    k: int,
    spec: Optional[LossSpec],
    method: Union[Method, str],
    fixed: FixedLike = None,
    config: Optional[DEConfig] = None,
) -> OptimizationResult:
    """Dispatch to a solver, guaranteeing fixed thresholds appear in the result."""
    method = Method(method)
    fixed_values = _normalize_fixed(fixed)
    if method is Method.PAA:
        spec = LossSpec(LossKind.L2_BRAY_CURTIS)
    elif spec is None:
        raise ValueError("a loss spec is required for this method")
    for value in fixed_values:
        if not cohort.domain.contains_interior(value):
            raise ValueError(f"fixed threshold {value} outside the open domain")
    if k == len(fixed_values):
        # Nothing to optimize: the fixed thresholds are the answer.
        return _certify(cohort, fixed_values, fixed_values, method, spec, 0, None)
    if method is Method.EXHAUSTIVE:
        return exhaustive_search(cohort, k, spec, fixed_values)
    if method is Method.STEPWISE_AGGREGATION:
        return stepwise_aggregation(cohort, k, spec, fixed_values)
    if method is Method.STEPWISE_SPLITTING:
        return stepwise_splitting(cohort, k, spec, fixed_values)
    if method is Method.DIFFERENTIAL_EVOLUTION:
        return differential_evolution(cohort, k, spec, fixed_values, config)
    return paa_baseline(cohort, k, fixed_values)


def round_up_thresholds(t: ThresholdSet) -> tuple:
    """Integer thresholds equivalent to ``t`` for integer-valued data.

    Each threshold is rounded up to the next integer; collisions after rounding
    are resolved by stepping to the following integer.
    """
    out = []
    prev = None
    for value in t.thresholds:
        r = int(math.ceil(value))
        if prev is not None and r <= prev:
            r = prev + 1
        out.append(r)
        prev = r
    return tuple(out)
