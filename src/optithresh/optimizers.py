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
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np
from scipy.spatial.distance import pdist

from ._interp import interp_rows
from .histograms import Domain, ThresholdSet, probability_grid
from .losses import (
    Cohort,
    LossKind,
    LossSpec,
    _anchor_rows,
    _linearized_rows,
    _loss_batch,
    _loss_terms,
    _losses,
    _pair_mean,
    _require_pairs,
    _SegmentTable,
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

#: Loss improvements below this are treated as ties and broken toward the
#: smaller threshold value.
TIE_TOL = 1e-12

DEFAULT_EXHAUSTIVE_BUDGET = 2_000_000

#: DE settles closed-form L1 scores this close (relative) with exact losses.
_SETTLE_RTOL = 1e-10

#: Combinations scored per vectorised step of the L1 exhaustive search.
_COMBO_CHUNK = 1 << 14

#: Pair values per block of candidates in the L2 removal scan (a 128 KiB table).
_TABLE_BLOCK = 1 << 14

#: Grid values per block of candidates scored by the kernel (2 MiB of grids).
_GRID_BLOCK = 1 << 18

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
        if self.convergence_tol < 0:
            raise ValueError("convergence_tol must be non-negative")


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


def _fixed_positions(cutoffs: np.ndarray, fixed: tuple) -> np.ndarray:
    if not fixed:
        return np.empty(0, dtype=np.intp)
    pos = np.searchsorted(cutoffs, fixed)
    bad = (pos >= cutoffs.size) | (cutoffs[np.minimum(pos, cutoffs.size - 1)] != fixed)
    if np.any(bad):
        missing = [fixed[i] for i in np.nonzero(bad)[0]]
        raise ValueError(f"fixed thresholds {missing} are not members of the shared cutoffs")
    return pos.astype(np.intp)


# Discrete evaluation ---------------------------------------------------------


def _grid_cutoffs(cohort: Cohort, spec: LossSpec) -> np.ndarray:
    """The shared cutoffs that the grid solvers select from."""
    if cohort.shared_cutoffs is None:
        raise ValueError("discrete solvers require a histogram cohort with shared cutoffs")
    if spec.kind is LossKind.L2:
        _require_pairs(cohort.n)
    return cohort.shared_cutoffs


def _cutoff_anchors(cohort: Cohort) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's (n, J+2) anchors at all shared cutoffs.

    Each anchor depends on its own threshold only, so the anchors of a
    selection are bitwise the columns ``_selection_cols`` of these.
    """
    p, v = _anchor_rows(cohort, cohort.shared_cutoffs[None, :])
    return p[0], v[0]


def _segment_table(cohort: Cohort, spec: LossSpec) -> _SegmentTable:
    """L1 segment costs between the kernel's anchors at all shared cutoffs."""
    return cohort._l1_scorer(spec.grid_size).segment_table(*_cutoff_anchors(cohort))


def _selection_cols(j: int, sel: np.ndarray) -> np.ndarray:
    """Anchor columns of a selection of J cutoffs: the 0-anchor, the cutoffs, the 1-anchor."""
    return np.concatenate(([0], np.asarray(sel, dtype=np.intp) + 1, [j + 1]))


def _kernel_losses(cohort: Cohort, spec: LossSpec, thresholds: np.ndarray) -> np.ndarray:
    """Losses of (C, K) threshold rows, scored by the kernel a block of rows at a time.

    A single row, and under L2 every row, gets bitwise the loss that the
    public ``evaluate_loss`` gives it.
    """
    block = max(1, _GRID_BLOCK // (cohort.n * spec.grid_size))
    return np.concatenate(
        [_loss_batch(cohort, thresholds[i:i + block], spec) for i in range(0, len(thresholds), block)]
    )


# Incremental candidate scans for stepwise aggregation -------------------------


class _RemovalScan:
    """Evaluates all single-threshold removals from the current selection.

    Removing one anchor only changes the linearized grids on the probability
    span between its surviving neighbours, so each candidate is scored from the
    current state plus a correction on that span: under L1 the correction is
    read from the segment-cost table, under L2 it is a low-rank update of the
    squared pairwise distances.  ``apply`` recomputes the state from scratch,
    so corrections never accumulate.
    """

    def __init__(self, cohort: Cohort, spec: LossSpec, sel: np.ndarray):
        self.cohort = cohort
        self.spec = spec
        self.cutoffs = cohort.shared_cutoffs
        self.u = probability_grid(spec.grid_size)
        self.sel = np.asarray(sel, dtype=np.intp)
        self._p_all, self._v_all = _cutoff_anchors(cohort)
        if spec.kind is LossKind.L1:
            self.costs = cohort._l1_scorer(spec.grid_size).segment_table(self._p_all, self._v_all)
        else:
            # Condensed (triu) pair order, as flat indices into an (n, n) matrix.
            n = cohort.n
            self._pair_i, self._pair_j = np.triu_indices(n, k=1)
            self._flat_ij = self._pair_i * n + self._pair_j
            self._flat_ji = self._pair_j * n + self._pair_i
        self._refresh()

    def _refresh(self) -> None:
        """Anchors, grids, loss terms and loss of the selection, from the kernel."""
        self.cols = _selection_cols(self.cutoffs.size, self.sel)
        self.p, self.v = self._p_all[:, self.cols], self._v_all[:, self.cols]
        grids = _linearized_rows(self.p[None], self.v[None], self.spec.grid_size)
        terms = _loss_terms(self.cohort, grids, self.spec.kind)
        self.loss = float(_losses(self.cohort, terms, self.spec)[0])
        # Under L1 the terms are the summed squared error; under L2 the
        # condensed squared distances between the grids.
        self.grids, self.terms = grids[0], terms[0]

    def candidate_losses(self, positions: list) -> list:
        """Losses after removing the threshold at each of ``positions``."""
        pos = np.asarray(positions, dtype=np.intp)
        if self.spec.kind is not LossKind.L1:
            return self._l2_losses(pos)
        left, mid, right = self.cols[pos], self.cols[pos + 1], self.cols[pos + 2]
        costs = self.costs
        delta = (costs(left, right) - costs(left, mid)) - costs(mid, right)
        return _losses(self.cohort, self.terms + delta, self.spec).tolist()

    def _l2_losses(self, pos: np.ndarray) -> list:
        """L2 losses of removing the anchors after ``pos``, in blocks of candidates.

        Removing anchor k replaces each member's grid strictly between its
        anchors k − 1 and k + 1 by their chord, which is the curve through
        every other anchor there: through the even anchors for odd k, the odd
        ones for even k.  Two ``interp_rows`` calls thus give every
        candidate's new values.  A candidate changes the grids only on the span
        of grid points between its neighbours' extreme anchor probabilities;
        one without such points keeps the current loss.
        """
        u = self.u
        last = self.p.shape[1] - 1
        changes = []
        for first in (1, 0):  # the chords used by even, then odd anchors
            keep = np.unique(np.r_[0, first:last:2, last])
            chord = interp_rows(self.p[:, keep], self.v[:, keep], u)
            changes.append(np.subtract(chord, self.grids, out=chord))
        centred = self.grids - self.grids.mean(axis=0)
        centred *= 2.0
        lo = np.searchsorted(u, self.p[:, pos].min(axis=0), side="right")
        hi = np.searchsorted(u, self.p[:, pos + 2].max(axis=0), side="left")
        out = np.full(pos.size, self.loss)
        todo = np.nonzero(lo < hi)[0]
        block = max(1, _TABLE_BLOCK // self.terms.size)
        for start in range(0, todo.size, block):
            rows = todo[start:start + block]
            sq = np.empty((rows.size, self.terms.size))
            for row, c in enumerate(rows.tolist()):
                k = int(pos[c]) + 1
                sq[row] = self._removal_sq_dists(k, slice(lo[c], hi[c]), changes[k % 2], centred)
            np.maximum(sq, 0.0, out=sq)
            out[rows] = _losses(self.cohort, sq, self.spec)
        return out.tolist()

    def _removal_sq_dists(self, k, span, change, centred) -> np.ndarray:
        """Condensed squared distances between the grids once anchor ``k`` is removed.

        Each member's grid changes by ``change`` (chord minus grid) strictly
        between its anchors k − 1 and k + 1; on columns ``span`` that is d,
        zero elsewhere.  With s = d + ``centred``, where ``centred`` is
        2·(old − column mean), the change of a squared distance is
        Δ_ij = Σ (d_i − d_j)(s_i − s_j) = X_ii + X_jj − X_ij − X_ji for
        X = d·sᵀ.  Centring ``old`` before adding d keeps s small on domains
        far from zero.  Where a new distance nearly cancels against the terms
        (grids that become identical, as when the last anchor goes), the
        update keeps too few digits, and the distances are taken from the new
        grids directly.
        """
        us = self.u[span]
        inside = (us > self.p[:, k - 1, None]) & (us < self.p[:, k + 1, None])
        d = np.where(inside, change[:, span], 0.0)
        s = d + centred[:, span]
        x = d @ s.T
        r = x.diagonal()
        flat = x.ravel()
        sq = self.terms + (
            (r[self._pair_i] + r[self._pair_j]) - (flat[self._flat_ij] + flat[self._flat_ji])
        )
        # |X_ij| <= |d_i|·|s_j| bounds the terms that cancel.  A distance below
        # `small` keeps about √small of absolute precision, which spoils its
        # loss term (base − √sq)² unless the base distance is as small (as for
        # identical members).
        scale = math.sqrt(np.einsum("ij,ij->i", d, d).max() * np.einsum("ij,ij->i", s, s).max())
        small = _CANCEL_RTOL * scale
        base_norms = self.cohort.pairwise_base_norms(self.spec.grid_size)
        if sq.min() >= small or not np.any((sq < small) & (base_norms > math.sqrt(small))):
            return sq
        grids = self.grids.copy()
        grids[:, span] += d
        return pdist(grids, metric="sqeuclidean")

    def apply(self, position: int) -> None:
        self.sel = np.delete(self.sel, position)
        self._refresh()


class _BrayCurtisRemovalScan:
    """Removal scan for the compositional baseline objective."""

    def __init__(self, cohort: Cohort, sel: np.ndarray):
        self.cohort = cohort
        self.base_bc = cohort.pairwise_base_bray_curtis()
        self.sel = np.asarray(sel, dtype=np.intp)
        n = cohort.n
        self._pair_scale = _pair_mean(1.0, n)
        self._pair_i, self._pair_j = np.triu_indices(n, k=1)
        self._refresh()

    def _refresh(self) -> None:
        self.comps = amalgamated_compositions(self.cohort, self.sel)
        self.numerators = pdist(self.comps, metric="cityblock")
        sums = self.comps.sum(axis=1)
        self.denominators = sums[self._pair_i] + sums[self._pair_j]
        diff = self.base_bc - self.numerators / self.denominators
        self.loss = float(np.sum(diff * diff) * self._pair_scale)

    def candidate_loss(self, position: int) -> float:
        left = self.comps[:, position][:, None]
        right = self.comps[:, position + 1][:, None]
        num = (
            self.numerators
            - pdist(left, metric="cityblock")
            - pdist(right, metric="cityblock")
            + pdist(left + right, metric="cityblock")
        )
        diff = self.base_bc - num / self.denominators
        return float(np.sum(diff * diff) * self._pair_scale)

    def candidate_losses(self, positions: list) -> list:
        return [self.candidate_loss(pos) for pos in positions]

    def apply(self, position: int) -> None:
        self.sel = np.delete(self.sel, position)
        self._refresh()


def _aggregate(cohort, k, fixed, scan, cutoffs) -> tuple:
    """Shared greedy-removal loop; returns (selection, trace, candidate_evaluations)."""
    fixed_pos = set(_fixed_positions(cutoffs, fixed).tolist())
    trace = []
    evaluations = 0
    step = 0
    while scan.sel.size > k:
        best_pos = -1
        best_loss = math.inf
        positions = [pos for pos, idx in enumerate(scan.sel.tolist()) if idx not in fixed_pos]
        for pos, cand in zip(positions, scan.candidate_losses(positions)):
            evaluations += 1
            if cand < best_loss - TIE_TOL:
                best_pos, best_loss = pos, cand
        if best_pos < 0:
            raise ValueError(f"cannot reduce to {k} thresholds: all remaining are fixed")
        scan.apply(best_pos)
        step += 1
        trace.append((step, scan.loss))
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


def _check_k(k: int, fixed: tuple, j: Optional[int] = None) -> None:
    if k < 0:
        raise ValueError("K must be non-negative")
    if k < len(fixed):
        raise ValueError(f"K={k} is smaller than the number of fixed thresholds ({len(fixed)})")
    if j is not None and k > j:
        raise ValueError(f"K={k} exceeds the {j} available cutoffs")


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
    fixed = _normalize_fixed(fixed)
    cutoffs = _grid_cutoffs(cohort, spec)
    j = cutoffs.size
    _check_k(k, fixed, j)
    fixed_pos = _fixed_positions(cutoffs, fixed)
    free = np.setdiff1d(np.arange(j, dtype=np.intp), fixed_pos)
    n_free = k - len(fixed)
    n_combos = math.comb(free.size, n_free)
    if n_combos > budget:
        raise SearchBudgetExceeded(
            f"{n_combos} combinations exceed the budget of {budget}; "
            "use a stepwise or evolutionary solver instead"
        )
    if spec.kind is LossKind.L1:
        costs = _segment_table(cohort, spec)

        def score(sel: np.ndarray) -> np.ndarray:
            rows = len(sel)
            cols = np.concatenate(
                (np.zeros((rows, 1), np.intp), sel + 1, np.full((rows, 1), j + 1)), axis=1
            )
            return _losses(cohort, costs(cols[:, :-1], cols[:, 1:]).sum(axis=1), spec)
    else:
        def score(sel: np.ndarray) -> np.ndarray:
            return _kernel_losses(cohort, spec, cutoffs[sel])

    combos = itertools.combinations(free.tolist(), n_free)
    best_sel = _first_best(combos, n_free, fixed_pos, score)
    return _certify(cohort, cutoffs[best_sel], fixed, Method.EXHAUSTIVE, spec, n_combos, None)


def _first_best(combos, n_free: int, fixed_pos: np.ndarray, score) -> np.ndarray:
    """First selection of minimal score, scoring the combinations chunk by chunk."""
    best_sel = None
    best_loss = math.inf
    while True:
        chunk = list(itertools.islice(combos, _COMBO_CHUNK))
        if not chunk:
            return best_sel
        free = np.array(chunk, dtype=np.intp).reshape(len(chunk), n_free)
        fixed = np.broadcast_to(fixed_pos, (len(chunk), fixed_pos.size))
        sel = np.sort(np.concatenate((free, fixed), axis=1), axis=1)
        losses = score(sel)
        best = int(np.argmin(losses))
        if losses[best] < best_loss:
            best_sel, best_loss = sel[best], losses[best]


def stepwise_aggregation(
    cohort: Cohort, k: int, spec: LossSpec, fixed: FixedLike = None
) -> OptimizationResult:
    """Greedy backward elimination: repeatedly remove the threshold whose
    removal minimizes the loss, until K thresholds remain."""
    fixed = _normalize_fixed(fixed)
    cutoffs = _grid_cutoffs(cohort, spec)
    _check_k(k, fixed, cutoffs.size)
    scan = _RemovalScan(cohort, spec, np.arange(cutoffs.size, dtype=np.intp))
    sel, trace, evaluations = _aggregate(cohort, k, fixed, scan, cutoffs)
    return _certify(
        cohort, cutoffs[sel], fixed, Method.STEPWISE_AGGREGATION, spec, evaluations, trace
    )


def _l1_insertions(costs: _SegmentTable, j: int, sel: np.ndarray, candidates: np.ndarray):
    """Summed L1 segment costs after inserting each candidate cutoff into the selection."""
    cols = _selection_cols(j, sel)
    new = candidates + 1
    slot = np.searchsorted(cols, new)
    left, right = cols[slot - 1], cols[slot]
    total = costs(cols[:-1], cols[1:]).sum()
    return total + ((costs(left, new) + costs(new, right)) - costs(left, right))


def stepwise_splitting(
    cohort: Cohort, k: int, spec: LossSpec, fixed: FixedLike = None
) -> OptimizationResult:
    """Greedy forward selection: repeatedly add the loss-minimizing threshold."""
    fixed = _normalize_fixed(fixed)
    cutoffs = _grid_cutoffs(cohort, spec)
    j = cutoffs.size
    _check_k(k, fixed, j)
    sel = np.sort(_fixed_positions(cutoffs, fixed))
    costs = _segment_table(cohort, spec) if spec.kind is LossKind.L1 else None
    trace = []
    evaluations = 0
    while sel.size < k:
        candidates = np.setdiff1d(np.arange(j, dtype=np.intp), sel)
        if costs is not None:
            scores = _losses(cohort, _l1_insertions(costs, j, sel, candidates), spec)
        else:
            grown = np.column_stack((np.broadcast_to(sel, (candidates.size, sel.size)), candidates))
            scores = _kernel_losses(cohort, spec, cutoffs[np.sort(grown, axis=1)])
        best_idx = -1
        best_loss = math.inf
        for idx, cand in zip(candidates.tolist(), scores.tolist()):
            evaluations += 1
            if cand < best_loss - TIE_TOL:
                best_idx, best_loss = idx, cand
        sel = np.sort(np.append(sel, best_idx))
        trace.append((len(trace) + 1, float(_kernel_losses(cohort, spec, cutoffs[sel][None, :])[0])))
    return _certify(
        cohort,
        cutoffs[sel],
        fixed,
        Method.STEPWISE_SPLITTING,
        spec,
        evaluations,
        tuple(trace),
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


class _ExactScores:
    """DE losses evaluated exactly for every candidate."""

    def __init__(self, cohort: Cohort, spec: LossSpec, repaired):
        self.cohort = cohort
        self.spec = spec
        self.repaired = repaired

    def score(self, population: np.ndarray) -> np.ndarray:
        return _loss_batch(self.cohort, self.repaired(population), self.spec)

    def no_worse(self, trials, trial_losses, population, losses) -> np.ndarray:
        return trial_losses <= losses

    def resolved(self, population, losses) -> np.ndarray:
        return losses


class _SettledL1Scores(_ExactScores):
    """Closed-form L1 scores for DE, settled with exact losses where they nearly tie.

    The scores match ``_loss_batch`` to about 1e-13 relative, so every
    comparison they decide by more than ``_SETTLE_RTOL`` goes the way exact
    losses would.  Closer calls, and the losses near the population minimum,
    are settled with exact losses; DE then takes the same path, returns the
    same candidate and traces the same losses as when scoring exactly.
    Candidates with identical scores share their anchors, hence their exact
    loss.
    """

    def __init__(self, cohort: Cohort, spec: LossSpec, repaired):
        super().__init__(cohort, spec, repaired)
        self.scorer = cohort._l1_scorer(spec.grid_size)
        self.known = None  # exact loss per population member, NaN where not computed

    def score(self, population: np.ndarray) -> np.ndarray:
        if self.known is None:  # the first call scores the initial population
            self.known = np.full(len(population), np.nan)
        return self.scorer.batch_loss(*_anchor_rows(self.cohort, self.repaired(population)))

    def _exact(self, rows: np.ndarray) -> np.ndarray:
        # einsum sums a one-row batch in another order than a batch of several;
        # padding keeps the values bitwise those of batched evaluation.
        padded = self.repaired(rows if len(rows) > 1 else np.vstack([rows, rows]))
        return _loss_batch(self.cohort, padded, self.spec)[: len(rows)]

    def _close(self, x: np.ndarray, y) -> np.ndarray:
        return np.abs(x - y) <= _SETTLE_RTOL * (np.abs(y) + self.scorer.spread)

    def no_worse(self, trials, trial_losses, population, losses) -> np.ndarray:
        better = trial_losses <= losses
        moved = better & (trial_losses != losses)
        close = np.nonzero((trial_losses != losses) & self._close(trial_losses, losses))[0]
        if close.size:
            unknown = close[np.isnan(self.known[close])]
            if unknown.size:
                self.known[unknown] = self._exact(population[unknown])
            trial_exact = self._exact(trials[close])
            better[close] = trial_exact <= self.known[close]
            moved[close] = False
            self.known[close] = np.where(better[close], trial_exact, self.known[close])
        self.known[moved] = np.nan
        return better

    def resolved(self, population, losses) -> np.ndarray:
        """Scores with exact losses in place of those near the minimum."""
        near = self._close(losses, losses.min())
        todo = np.nonzero(near & np.isnan(self.known))[0]
        if todo.size:
            have = np.nonzero(~np.isnan(self.known))[0]
            exact = dict(zip(losses[have].tolist(), self.known[have].tolist()))
            first = {}
            for i in todo.tolist():
                if losses[i] not in exact:
                    first.setdefault(losses[i], i)
            if first:
                exact.update(zip(first, self._exact(population[list(first.values())]).tolist()))
            self.known[todo] = [exact[losses[i]] for i in todo.tolist()]
        out = losses.copy()
        out[near] = self.known[near]
        return out


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
    Under L1, candidates are scored in closed form and near-ties are settled
    with exact losses (``_SettledL1Scores``).  Deterministic for a given seed.
    """
    if spec.kind is LossKind.L2_BRAY_CURTIS:
        raise ValueError("differential evolution optimizes quantile-grid losses only")
    config = config or DEConfig()
    fixed = _normalize_fixed(fixed)
    k_free = k - len(fixed)
    if k < 1 or k_free < 1:
        raise ValueError("differential evolution needs at least one free threshold")
    domain = cohort.domain
    a, b = domain.lower, domain.upper
    span = b - a
    if span <= 0:
        raise ValueError("degenerate domain")
    margin = 1e-9 * span
    lower, upper = a + margin, b - margin
    for value in fixed:
        if not domain.contains_interior(value):
            raise ValueError(f"fixed threshold {value} outside the open domain ({a}, {b})")

    def repaired(population: np.ndarray) -> np.ndarray:
        return np.vstack([_repair_candidate(row, fixed, domain, margin) for row in population])

    scores = (_SettledL1Scores if spec.kind is LossKind.L1 else _ExactScores)(
        cohort, spec, repaired
    )
    rng = np.random.default_rng(config.seed)
    n_pop = config.population_size_per_dim * k_free
    # Latin hypercube initialization, one stratified permutation per dimension.
    population = np.empty((n_pop, k_free))
    for dim in range(k_free):
        strata = (rng.permutation(n_pop) + rng.random(n_pop)) / n_pop
        population[:, dim] = a + strata * span
    np.clip(population, lower, upper, out=population)
    losses = scores.score(population)
    resolved = scores.resolved(population, losses)
    evaluations = n_pop
    trace = [(0, float(resolved.min()))]

    generations = 0
    for generation in range(1, config.max_generations + 1):
        generations = generation
        factor = rng.uniform(*config.mutation_range)  # dithered once per generation
        trials = np.empty_like(population)
        for i in range(n_pop):
            choices = rng.choice(n_pop - 1, size=3, replace=False)
            choices[choices >= i] += 1
            r1, r2, r3 = choices
            mutant = population[r1] + factor * (population[r2] - population[r3])
            cross = rng.random(k_free) < config.crossover_prob
            cross[rng.integers(k_free)] = True
            trials[i] = np.where(cross, mutant, population[i])
        np.clip(trials, lower, upper, out=trials)
        trial_losses = scores.score(trials)
        evaluations += n_pop
        better = scores.no_worse(trials, trial_losses, population, losses)
        population[better] = trials[better]
        losses[better] = trial_losses[better]
        resolved = scores.resolved(population, losses)
        trace.append((generation, float(resolved.min())))
        if float(resolved.std()) <= config.convergence_tol * abs(float(resolved.mean())):
            break

    values = _repair_candidate(population[int(np.argmin(resolved))], fixed, domain, margin)
    return _certify(
        cohort, values, fixed, Method.DIFFERENTIAL_EVOLUTION, spec, evaluations, tuple(trace)
    )


def paa_baseline(cohort: Cohort, k: int, fixed: FixedLike = None) -> OptimizationResult:
    """Stepwise aggregation under the Bray-Curtis objective.

    The reported loss is the Bray-Curtis objective itself and is not comparable
    to the quantile-grid losses.
    """
    fixed = _normalize_fixed(fixed)
    if cohort.shared_cutoffs is None:
        raise ValueError("the compositional baseline requires shared cutoffs")
    cutoffs = cohort.shared_cutoffs
    _check_k(k, fixed, cutoffs.size)
    _require_pairs(cohort.n)
    scan = _BrayCurtisRemovalScan(cohort, np.arange(cutoffs.size, dtype=np.intp))
    sel, trace, evaluations = _aggregate(cohort, k, fixed, scan, cutoffs)
    spec = LossSpec(LossKind.L2_BRAY_CURTIS)
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
