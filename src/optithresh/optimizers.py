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
    _SegmentTable,
    LossKind,
    LossSpec,
    _anchor_rows,
    _loss_batch,
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


# Discrete evaluation tables ---------------------------------------------------


@dataclass
class _GridTables:
    """Threshold-independent data for fast selection-indexed loss evaluation."""

    cutoffs: np.ndarray       # (J,)
    cum: np.ndarray           # (n, J+2)
    qf: np.ndarray            # (n, J+2)
    u: np.ndarray             # (M,)
    base: np.ndarray          # (n, M)
    grid_size: int
    base_norms: Optional[np.ndarray] = None  # condensed, L2 only
    segment_costs: Optional[_SegmentTable] = None  # between anchor columns, L1 only

    @property
    def n(self) -> int:
        return self.base.shape[0]


def _grid_tables(cohort: Cohort, spec: LossSpec) -> _GridTables:
    if cohort.shared_cutoffs is None:
        raise ValueError("discrete solvers require a histogram cohort with shared cutoffs")
    ht = cohort._hist_tables()
    tables = _GridTables(
        cutoffs=cohort.shared_cutoffs,
        cum=ht.cum,
        qf=ht.qf,
        u=probability_grid(spec.grid_size),
        base=cohort.quantile_matrix(spec.grid_size),
        grid_size=spec.grid_size,
    )
    if spec.kind is LossKind.L2:
        if cohort.n < 2:
            raise ValueError("pairwise loss requires at least two cohort members")
        tables.base_norms = cohort.pairwise_base_norms(spec.grid_size)
    elif spec.kind is LossKind.L1:
        tables.segment_costs = cohort._l1_scorer(spec.grid_size).segment_table(ht.cum, ht.qf)
    return tables


def _selection_cols(tables: _GridTables, sel: np.ndarray) -> np.ndarray:
    """Anchor columns of a selection: the 0-anchor, the cutoffs, the 1-anchor."""
    return np.concatenate(([0], np.asarray(sel, dtype=np.intp) + 1, [tables.cum.shape[1] - 1]))


def _l1_scale(tables: _GridTables) -> float:
    return tables.n * (tables.grid_size + 1)


def _selection_grids(tables: _GridTables, sel: np.ndarray) -> np.ndarray:
    cols = _selection_cols(tables, sel)
    return interp_rows(tables.cum[:, cols], tables.qf[:, cols], tables.u)


def _grid_loss(tables: _GridTables, kind: LossKind, lin: np.ndarray) -> float:
    n, m = lin.shape
    if kind is LossKind.L1:
        diff = lin - tables.base
        return float(np.einsum("nm,nm->", diff, diff) / n / (m + 1))
    diff = tables.base_norms - pdist(lin)
    return float(np.sum(diff * diff) * 2.0 / (n * (n - 1)) / (m + 1))


def _selection_loss(tables: _GridTables, sel: np.ndarray, kind: LossKind) -> float:
    return _grid_loss(tables, kind, _selection_grids(tables, sel))


# Incremental candidate scans for stepwise aggregation -------------------------


class _RemovalScan:
    """Evaluates all single-threshold removals from the current selection.

    Removing one anchor only changes the linearized grids on the probability
    span between its surviving neighbours, so each candidate is scored from the
    current grids plus a correction on that span; under L1 the correction is
    read from the segment-cost table.  ``apply`` recomputes the state from
    scratch, so corrections never accumulate.
    """

    def __init__(self, tables: _GridTables, kind: LossKind, sel: np.ndarray):
        self.tables = tables
        self.kind = kind
        self.sel = np.asarray(sel, dtype=np.intp)
        self._refresh()

    def _refresh(self) -> None:
        t = self.tables
        cols = _selection_cols(t, self.sel)
        self.cols = cols
        self.p = t.cum[:, cols]
        self.v = t.qf[:, cols]
        self.grids = interp_rows(self.p, self.v, t.u)
        if self.kind is LossKind.L1:
            diff = self.grids - t.base
            self.total = float(np.einsum("nm,nm->", diff, diff))
            self.loss = self.total / t.n / (t.grid_size + 1)
        else:
            self.sq_dists = pdist(self.grids, metric="sqeuclidean")
            diff = t.base_norms - np.sqrt(self.sq_dists)
            self.loss = float(np.sum(diff * diff) * 2.0 / (t.n * (t.n - 1)) / (t.grid_size + 1))

    def _changed_span(self, anchor: int) -> tuple:
        lo_p = self.p[:, anchor - 1]
        hi_p = self.p[:, anchor + 1]
        lo = int(np.searchsorted(self.tables.u, lo_p.min(), side="right"))
        hi = int(np.searchsorted(self.tables.u, hi_p.max(), side="left"))
        return lo, hi

    def _new_span_values(self, anchor: int, lo: int, hi: int) -> np.ndarray:
        us = self.tables.u[lo:hi]
        p0 = self.p[:, anchor - 1][:, None]
        p1 = self.p[:, anchor + 1][:, None]
        v0 = self.v[:, anchor - 1][:, None]
        v1 = self.v[:, anchor + 1][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            new = v0 + (us[None, :] - p0) / (p1 - p0) * (v1 - v0)
        np.clip(new, v0, v1, out=new)
        inside = (us[None, :] > p0) & (us[None, :] < p1)
        return np.where(inside, new, self.grids[:, lo:hi])

    def candidate_losses(self, positions: list) -> list:
        """Losses after removing the threshold at each of ``positions``."""
        if self.kind is not LossKind.L1:
            return [self.candidate_loss(pos) for pos in positions]
        t = self.tables
        pos = np.asarray(positions, dtype=np.intp)
        left, mid, right = self.cols[pos], self.cols[pos + 1], self.cols[pos + 2]
        costs = t.segment_costs
        delta = (costs(left, right) - costs(left, mid)) - costs(mid, right)
        return ((self.total + delta) / _l1_scale(t)).tolist()

    def candidate_loss(self, position: int) -> float:
        """Loss after removing the threshold at ``position`` within the selection."""
        if self.kind is LossKind.L1:
            return self.candidate_losses([position])[0]
        t = self.tables
        anchor = position + 1
        lo, hi = self._changed_span(anchor)
        if lo >= hi:
            return self.loss
        new = self._new_span_values(anchor, lo, hi)
        old = self.grids[:, lo:hi]
        sq = self.sq_dists - pdist(old, metric="sqeuclidean") + pdist(new, metric="sqeuclidean")
        diff = t.base_norms - np.sqrt(np.maximum(sq, 0.0))
        return float(np.sum(diff * diff) * 2.0 / (t.n * (t.n - 1)) / (t.grid_size + 1))

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
        self._pair_scale = 2.0 / (n * (n - 1))
        self._refresh()

    def _refresh(self) -> None:
        self.comps = amalgamated_compositions(self.cohort, self.sel)
        self.numerators = pdist(self.comps, metric="cityblock")
        sums = self.comps.sum(axis=1)
        i, j = np.triu_indices(self.cohort.n, k=1)
        self.denominators = sums[i] + sums[j]
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
    tables = _grid_tables(cohort, spec)
    j = tables.cutoffs.size
    _check_k(k, fixed, j)
    fixed_pos = _fixed_positions(tables.cutoffs, fixed)
    free = np.setdiff1d(np.arange(j, dtype=np.intp), fixed_pos)
    n_free = k - len(fixed)
    n_combos = math.comb(free.size, n_free)
    if n_combos > budget:
        raise SearchBudgetExceeded(
            f"{n_combos} combinations exceed the budget of {budget}; "
            "use a stepwise or evolutionary solver instead"
        )
    combos = itertools.combinations(free.tolist(), n_free)
    if tables.segment_costs is not None:
        best_sel = _exhaustive_l1(tables, combos, n_free, fixed_pos)
    else:
        best_sel = None
        best_loss = math.inf
        for combo in combos:
            sel = np.sort(np.concatenate((np.asarray(combo, dtype=np.intp), fixed_pos)))
            loss = _selection_loss(tables, sel, spec.kind)
            if loss < best_loss:
                best_sel, best_loss = sel, loss
    return _certify(
        cohort, tables.cutoffs[best_sel], fixed, Method.EXHAUSTIVE, spec, n_combos, None
    )


def _exhaustive_l1(tables: _GridTables, combos, n_free: int, fixed_pos: np.ndarray) -> np.ndarray:
    """First combination of minimal L1 score, summing segment costs chunk by chunk."""
    costs = tables.segment_costs
    last = tables.cum.shape[1] - 1
    best_sel = None
    best_loss = math.inf
    while True:
        chunk = list(itertools.islice(combos, _COMBO_CHUNK))
        if not chunk:
            return best_sel
        free = np.array(chunk, dtype=np.intp).reshape(len(chunk), n_free)
        fixed = np.broadcast_to(fixed_pos, (len(chunk), fixed_pos.size))
        sel = np.sort(np.concatenate((free, fixed), axis=1), axis=1)
        cols = np.concatenate(
            (np.zeros((len(chunk), 1), np.intp), sel + 1, np.full((len(chunk), 1), last)), axis=1
        )
        losses = costs(cols[:, :-1], cols[:, 1:]).sum(axis=1) / _l1_scale(tables)
        best = int(np.argmin(losses))
        if losses[best] < best_loss:
            best_sel, best_loss = sel[best], losses[best]


def stepwise_aggregation(
    cohort: Cohort, k: int, spec: LossSpec, fixed: FixedLike = None
) -> OptimizationResult:
    """Greedy backward elimination: repeatedly remove the threshold whose
    removal minimizes the loss, until K thresholds remain."""
    fixed = _normalize_fixed(fixed)
    tables = _grid_tables(cohort, spec)
    _check_k(k, fixed, tables.cutoffs.size)
    scan = _RemovalScan(tables, spec.kind, np.arange(tables.cutoffs.size, dtype=np.intp))
    sel, trace, evaluations = _aggregate(cohort, k, fixed, scan, tables.cutoffs)
    return _certify(
        cohort, tables.cutoffs[sel], fixed, Method.STEPWISE_AGGREGATION, spec, evaluations, trace
    )


def _l1_insertions(tables: _GridTables, sel: np.ndarray, candidates: np.ndarray) -> list:
    """L1 scores of inserting each candidate cutoff into the selection."""
    costs = tables.segment_costs
    cols = _selection_cols(tables, sel)
    new = candidates + 1
    slot = np.searchsorted(cols, new)
    left, right = cols[slot - 1], cols[slot]
    total = costs(cols[:-1], cols[1:]).sum()
    delta = (costs(left, new) + costs(new, right)) - costs(left, right)
    return ((total + delta) / _l1_scale(tables)).tolist()


def stepwise_splitting(
    cohort: Cohort, k: int, spec: LossSpec, fixed: FixedLike = None
) -> OptimizationResult:
    """Greedy forward selection: repeatedly add the loss-minimizing threshold."""
    fixed = _normalize_fixed(fixed)
    tables = _grid_tables(cohort, spec)
    j = tables.cutoffs.size
    _check_k(k, fixed, j)
    sel = np.sort(_fixed_positions(tables.cutoffs, fixed))
    l1 = tables.segment_costs is not None
    trace = []
    evaluations = 0
    step = 0
    while sel.size < k:
        best_idx = -1
        best_loss = math.inf
        candidates = np.setdiff1d(np.arange(j, dtype=np.intp), sel)
        if l1:
            scores = _l1_insertions(tables, sel, candidates)
        else:
            scores = (
                _selection_loss(tables, np.sort(np.append(sel, idx)), spec.kind)
                for idx in candidates.tolist()
            )
        for idx, cand in zip(candidates.tolist(), scores):
            evaluations += 1
            if cand < best_loss - TIE_TOL:
                best_idx, best_loss = idx, cand
        sel = np.sort(np.append(sel, best_idx))
        step += 1
        trace.append((step, _selection_loss(tables, sel, spec.kind) if l1 else best_loss))
    return _certify(
        cohort,
        tables.cutoffs[sel],
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
    if cohort.n < 2:
        raise ValueError("pairwise loss requires at least two cohort members")
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
