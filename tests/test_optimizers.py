import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from optithresh.histograms import (
    Domain,
    Histogram,
    ThresholdSet,
    linearized_quantile_grid,
    quantile_grid,
)
from optithresh.losses import Cohort, LossKind, LossSpec, evaluate_loss
from optithresh.optimizers import (
    DEConfig,
    Method,
    SearchBudgetExceeded,
    differential_evolution,
    exhaustive_search,
    optimize,
    paa_baseline,
    round_up_thresholds,
    stepwise_aggregation,
    stepwise_splitting,
)

UNIT = Domain(0.0, 1.0)
TIGHT_DE = DEConfig(max_generations=300, convergence_tol=1e-6, seed=5)


def grid_cohort(rng, n=5, n_bins=13, domain=UNIT):
    cuts = np.linspace(domain.lower, domain.upper, n_bins + 1)[1:-1]
    members = [Histogram(domain, cuts, rng.dirichlet(np.ones(n_bins))) for _ in range(n)]
    return Cohort(members)


def brute_force_minimum(cohort, k, spec, fixed=()):
    """Independent enumerator built on the public per-member grid operations."""
    cuts = [float(c) for c in cohort.members[0].cutoffs]
    m = spec.grid_size
    base = [quantile_grid(member, m).values for member in cohort.members]
    n = len(base)

    def loss_of(subset):
        t = ThresholdSet(tuple(subset))
        lin = [linearized_quantile_grid(member, t, m).values for member in cohort.members]
        if spec.kind is LossKind.L1:
            total = sum(float(np.sum((b - l) ** 2)) for b, l in zip(base, lin))
            return total / n / (m + 1)
        total = 0.0
        for i, j in itertools.combinations(range(n), 2):
            d0 = float(np.linalg.norm(base[i] - base[j]))
            d1 = float(np.linalg.norm(lin[i] - lin[j]))
            total += (d0 - d1) ** 2
        return total * 2.0 / (n * (n - 1)) / (m + 1)

    best_subset, best_loss = None, np.inf
    free = [c for c in cuts if c not in set(fixed)]
    for combo in itertools.combinations(free, k - len(fixed)):
        subset = tuple(sorted(combo + tuple(fixed)))
        loss = loss_of(subset)
        if loss < best_loss:
            best_subset, best_loss = subset, loss
    return best_subset, best_loss


def grid_cohort_with_gaps(rng, n=5, n_bins=13, domain=UNIT):
    """Grid cohort whose members leave bins empty, so anchors tie and reach 0 and 1."""
    cuts = np.linspace(domain.lower, domain.upper, n_bins + 1)[1:-1]
    members = []
    for _ in range(n):
        masses = rng.dirichlet(np.ones(n_bins))
        masses[rng.random(n_bins) < 0.3] = 0.0
        masses[[0, -1]] = 0.0
        if masses.sum() == 0.0:
            masses[n_bins // 2] = 1.0
        members.append(Histogram(domain, cuts, masses / masses.sum()))
    return Cohort(members)


def selection_loss(cohort, spec, sel):
    """The public loss of the shared cutoffs at positions ``sel``."""
    cutoffs = cohort.shared_cutoffs
    return evaluate_loss(cohort, ThresholdSet(tuple(cutoffs[np.sort(np.asarray(sel, dtype=np.intp))])), spec)


def reference_search(cohort, k, spec, method, fixed=()):
    """Grid solvers scoring every candidate from scratch with the public loss.

    Returns the thresholds and, for the stepwise methods, the trace of losses
    after each step.
    """
    from optithresh.optimizers import TIE_TOL

    cutoffs = cohort.shared_cutoffs
    j = cutoffs.size
    fixed_pos = [int(np.searchsorted(cutoffs, v)) for v in fixed]
    loss = lambda sel: selection_loss(cohort, spec, sel)
    trace = []
    if method == "exhaustive":
        free = [i for i in range(j) if i not in fixed_pos]
        best, best_loss = None, np.inf
        for combo in itertools.combinations(free, k - len(fixed_pos)):
            cand = loss(list(combo) + fixed_pos)
            if cand < best_loss:
                best, best_loss = sorted(list(combo) + fixed_pos), cand
        sel = best
    elif method == "sa":
        sel = list(range(j))
        while len(sel) > k:
            best, best_loss = -1, np.inf
            for pos, idx in enumerate(sel):
                if idx not in fixed_pos:
                    cand = loss(sel[:pos] + sel[pos + 1:])
                    if cand < best_loss - TIE_TOL:
                        best, best_loss = pos, cand
            del sel[best]
            trace.append((len(trace) + 1, loss(sel)))
    else:
        sel = sorted(fixed_pos)
        while len(sel) < k:
            best, best_loss = -1, np.inf
            for idx in range(j):
                if idx not in sel:
                    cand = loss(sel + [idx])
                    if cand < best_loss - TIE_TOL:
                        best, best_loss = idx, cand
            sel = sorted(sel + [best])
            trace.append((len(trace) + 1, best_loss))
    return tuple(float(cutoffs[i]) for i in sel), tuple(trace)


class TestL1SegmentScores:
    """Grid solvers score L1 candidates from a segment-cost table."""

    @pytest.mark.parametrize("domain", [UNIT, Domain(1e7, 1e7 + 50.0)])
    def test_table_matches_selection_loss(self, rng, domain):
        from optithresh.optimizers import _segment_table, _selection_cols

        for make in (grid_cohort, grid_cohort_with_gaps):
            cohort = make(rng, n=6, n_bins=17, domain=domain)
            spec = LossSpec(LossKind.L1, 45)
            costs = _segment_table(cohort, spec)
            for size in (0, 1, 3, 8, 16):
                sel = np.sort(rng.choice(16, size=size, replace=False))
                cols = _selection_cols(16, sel)
                fast = costs(cols[:-1], cols[1:]).sum() / cohort.n / 46
                exact = selection_loss(cohort, spec, sel)
                assert fast == pytest.approx(exact, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("method", ["exhaustive", "sa", "ss"])
    def test_solvers_match_from_scratch_scoring(self, rng, method):
        solver = {"exhaustive": exhaustive_search, "sa": stepwise_aggregation,
                  "ss": stepwise_splitting}[method]
        for trial in range(12):
            make = grid_cohort_with_gaps if trial % 2 else grid_cohort
            cohort = make(rng, n=int(rng.integers(2, 7)), n_bins=int(rng.integers(6, 13)))
            spec = LossSpec(LossKind.L1, int(rng.integers(15, 70)))
            cuts = cohort.shared_cutoffs
            fixed = () if trial % 3 == 0 else (float(cuts[int(rng.integers(cuts.size))]),)
            k = int(rng.integers(len(fixed) + 1, min(5, cuts.size) + 1))
            res = solver(cohort, k, spec, fixed)
            assert res.thresholds.thresholds == reference_search(cohort, k, spec, method, fixed)[0]

    def test_de_matches_exact_scoring(self, rng, monkeypatch):
        from optithresh import optimizers
        from optithresh.histograms import EmpiricalSample

        domain = Domain(40.0, 400.0)
        samples = Cohort(
            [EmpiricalSample(domain, np.round(rng.uniform(40, 400, size=150))) for _ in range(8)]
        )
        # Small cohorts with empty bins give exactly tied losses between
        # candidates whose anchors differ; DE must settle those as exact scoring does.
        small = [(int(rng.integers(2, 5)), int(rng.integers(6, 10))) for _ in range(8)]
        cases = [(grid_cohort_with_gaps(rng, n=n, n_bins=bins), 3, ()) for n, bins in small]
        cases += [
            (grid_cohort(rng, n=5, n_bins=9, domain=Domain(1e7, 1e7 + 50.0)), 3, ()),
            (samples, 3, (180.0,)),
        ]
        config = DEConfig(seed=4, max_generations=40, convergence_tol=0.0)
        for cohort, k, fixed in cases:
            spec = LossSpec(LossKind.L1, 60)
            fast = differential_evolution(cohort, k, spec, fixed, config)
            with monkeypatch.context() as patch:
                patch.setattr(optimizers, "_SettledL1Scores", optimizers._ExactScores)
                exact = differential_evolution(cohort, k, spec, fixed, config)
            assert fast.thresholds == exact.thresholds
            assert fast.loss == exact.loss
            assert fast.trace == exact.trace
            assert fast.evaluations == exact.evaluations


@st.composite
def zero_tail_cases(draw):
    """(cohort, K, fixed) for a shared-cutoff histogram cohort whose members end in empty bins.

    Masses are normalised by their float sum, so a member's cumulative mass
    often reaches 1 only at the domain's upper edge, where it is pinned,
    although its last bin with mass ends earlier (at ``support_upper``).
    """
    n_bins = draw(st.integers(3, 8))
    domain = Domain(0.0, float(n_bins))
    cuts = np.arange(1.0, n_bins)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(draw(st.integers(2, 5))):
        masses = rng.dirichlet(np.ones(n_bins))
        masses[rng.integers(1, n_bins):] = 0.0
        members.append(Histogram(domain, cuts, masses / masses.sum()))
    k = draw(st.integers(1, min(4, cuts.size)))
    fixed = (float(cuts[draw(st.integers(0, cuts.size - 1))]),)
    return Cohort(members), k, fixed


def zero_tail_example():
    """Domain(0, 4) cut at 1, 2 and 3; the first member's masses sum to 1 - 5e-13, its last bin is empty."""
    domain, cuts = Domain(0.0, 4.0), np.array([1.0, 2.0, 3.0])
    members = [
        Histogram(domain, cuts, np.array([0.1, 0.2, 0.7 - 5e-13, 0.0])),
        Histogram(domain, cuts, np.array([0.4, 0.3, 0.3, 0.0])),
    ]
    return Cohort(members), 1, (2.0,)


def public_minimum(cohort, k, spec, fixed):
    """First K-subset of the cutoffs, in lexicographic order, of minimal ``evaluate_loss``."""
    free = [c for c in cohort.shared_cutoffs.tolist() if c not in fixed]
    best, best_loss = None, np.inf
    for combo in itertools.combinations(free, k - len(fixed)):
        t = ThresholdSet.ordered(combo + fixed, fixed)
        loss = evaluate_loss(cohort, t, spec)
        if loss < best_loss:
            best, best_loss = t.thresholds, loss
    return best, best_loss


class TestSolversSearchThePublicLoss:
    """Grid solvers rank and trace candidates by the loss they certify."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=zero_tail_cases(), kind=st.sampled_from([LossKind.L1, LossKind.L2]))
    @example(case=zero_tail_example(), kind=LossKind.L1)
    @example(case=zero_tail_example(), kind=LossKind.L2)
    def test_exhaustive_and_stepwise_traces_match_evaluate_loss(self, case, kind):
        cohort, k, fixed = case
        spec = LossSpec(kind, 50)
        for fix in ((), fixed):
            res = exhaustive_search(cohort, k, spec, fix)
            assert (res.thresholds.thresholds, res.loss) == public_minimum(cohort, k, spec, fix)
        # A greedy run to K passes through the selections of the runs to every
        # size in between, so each step's selection is that run's result.
        j = cohort.shared_cutoffs.size
        for step, loss in stepwise_aggregation(cohort, k, spec).trace:
            step_result = stepwise_aggregation(cohort, j - step, spec)
            assert loss == evaluate_loss(cohort, step_result.thresholds, spec)
        for step, loss in stepwise_splitting(cohort, k, spec).trace:
            step_result = stepwise_splitting(cohort, step, spec)
            assert loss == evaluate_loss(cohort, step_result.thresholds, spec)


class TestExhaustive:
    def test_k_equals_j_gives_all_cutoffs_and_zero_loss(self, rng):
        cohort = grid_cohort(rng, n=3, n_bins=6)
        spec = LossSpec(LossKind.L1, 40)
        res = exhaustive_search(cohort, 5, spec)
        assert res.thresholds.thresholds == tuple(cohort.members[0].cutoffs)
        assert res.loss == 0.0

    def test_k_zero(self, rng):
        cohort = grid_cohort(rng, n=3, n_bins=6)
        spec = LossSpec(LossKind.L1, 40)
        res = exhaustive_search(cohort, 0, spec)
        assert res.thresholds.thresholds == ()
        assert res.loss == evaluate_loss(cohort, ThresholdSet(()), spec)

    @pytest.mark.parametrize("kind", [LossKind.L1, LossKind.L2])
    def test_matches_independent_enumerator(self, rng, kind):
        cohort = grid_cohort(rng, n=5, n_bins=13)
        spec = LossSpec(kind, 50)
        res = exhaustive_search(cohort, 3, spec)
        subset, loss = brute_force_minimum(cohort, 3, spec)
        assert res.thresholds.thresholds == subset
        assert res.loss == pytest.approx(loss, abs=1e-12)

    def test_budget_exceeded(self, rng):
        cohort = grid_cohort(rng, n=2, n_bins=30)
        with pytest.raises(SearchBudgetExceeded):
            exhaustive_search(cohort, 10, LossSpec(LossKind.L1, 20), budget=100)

    def test_k_too_large(self, rng):
        cohort = grid_cohort(rng, n=2, n_bins=5)
        with pytest.raises(ValueError, match="exceeds"):
            exhaustive_search(cohort, 10, LossSpec(LossKind.L1, 20))

    def test_fixed_not_on_grid(self, rng):
        cohort = grid_cohort(rng, n=2, n_bins=5)
        with pytest.raises(ValueError, match="not members"):
            exhaustive_search(cohort, 2, LossSpec(LossKind.L1, 20), fixed=(0.123,))


class TestStepwise:
    def test_sa_full_resolution(self, rng):
        cohort = grid_cohort(rng, n=3, n_bins=6)
        res = stepwise_aggregation(cohort, 5, LossSpec(LossKind.L1, 30))
        assert res.thresholds.thresholds == tuple(cohort.members[0].cutoffs)
        assert res.loss == 0.0

    @pytest.mark.parametrize("kind", [LossKind.L1, LossKind.L2])
    def test_sa_dominates_exhaustive(self, rng, kind):
        spec = LossSpec(kind, 40)
        for _ in range(3):
            cohort = grid_cohort(rng, n=4, n_bins=13)
            exh = exhaustive_search(cohort, 3, spec)
            sa = stepwise_aggregation(cohort, 3, spec)
            assert sa.loss >= exh.loss - 1e-12

    def test_sa_candidate_losses_match_full_evaluation(self, rng):
        # The incremental removal scan must agree with from-scratch evaluation
        # for every candidate at every step of a full aggregation, down to no
        # thresholds.  L2 is also checked on domains far from zero, where its
        # update needs centred values.  (There the from-scratch L1 loss itself
        # keeps only about ulp(offset)/width relative precision.)
        from optithresh.optimizers import _RemovalScan

        far = [Domain(1e7, 1e7 + 50.0), Domain(-1e9, -1e9 + 3.0), Domain(1e12, 1e12 + 400.0)]
        cases = [(UNIT, LossKind.L1), (UNIT, LossKind.L2)] + [(d, LossKind.L2) for d in far]
        for (domain, kind), n in itertools.product(cases, range(2, 31)):
            make = grid_cohort_with_gaps if n % 3 == 0 else grid_cohort
            cohort = make(rng, n=n, n_bins=int(rng.integers(4, 14)), domain=domain)
            if n % 4 == 0:  # a repeated member: its pair distances stay zero
                cohort = Cohort(cohort.members + cohort.members[:1])
            spec = LossSpec(kind, int(rng.integers(15, 60)))
            scan = _RemovalScan(cohort, spec, np.arange(cohort.shared_cutoffs.size, dtype=np.intp))
            while scan.sel.size:
                positions = list(range(scan.sel.size))
                losses = scan.candidate_losses(positions)
                for pos, loss in zip(positions, losses):
                    direct = selection_loss(cohort, spec, np.delete(scan.sel, pos))
                    assert loss == pytest.approx(direct, rel=1e-10, abs=1e-14)
                scan.apply(int(np.argmin(losses)))

    def test_sa_l2_matches_from_scratch_greedy(self, rng):
        # SA under L2 takes the same steps as a greedy loop that scores every
        # removal with the public loss and keeps the first best within TIE_TOL.
        for trial in range(16):
            make = grid_cohort_with_gaps if trial % 2 else grid_cohort
            cohort = make(rng, n=int(rng.integers(2, 12)), n_bins=int(rng.integers(5, 16)))
            spec = LossSpec(LossKind.L2, int(rng.integers(15, 80)))
            cuts = cohort.shared_cutoffs
            fixed = () if trial % 4 < 2 else tuple(
                float(v) for v in np.sort(rng.choice(cuts, size=1 + trial % 2, replace=False))
            )
            k = int(rng.integers(len(fixed), cuts.size))
            res = stepwise_aggregation(cohort, k, spec, fixed)
            thresholds, trace = reference_search(cohort, k, spec, "sa", fixed)
            assert res.thresholds.thresholds == thresholds
            assert res.loss == evaluate_loss(cohort, ThresholdSet(thresholds), spec)
            assert res.trace == trace

    def test_ss_k_zero_and_first_step_matches_exhaustive(self, rng):
        cohort = grid_cohort(rng, n=4, n_bins=13)
        spec = LossSpec(LossKind.L1, 40)
        res0 = stepwise_splitting(cohort, 0, spec)
        assert res0.thresholds.thresholds == ()
        res1 = stepwise_splitting(cohort, 1, spec)
        exh1 = exhaustive_search(cohort, 1, spec)
        assert res1.thresholds.thresholds == exh1.thresholds.thresholds

    @pytest.mark.parametrize("kind", [LossKind.L1, LossKind.L2])
    def test_ss_dominates_exhaustive(self, rng, kind):
        spec = LossSpec(kind, 40)
        cohort = grid_cohort(rng, n=4, n_bins=13)
        exh = exhaustive_search(cohort, 3, spec)
        ss = stepwise_splitting(cohort, 3, spec)
        assert ss.loss >= exh.loss - 1e-12

    def test_monotone_traces(self, rng):
        # Greedy traces move monotonically on these instances; like the
        # optimal-loss-in-K property this is typical rather than guaranteed.
        spec = LossSpec(LossKind.L1, 40)
        for _ in range(3):
            cohort = grid_cohort(rng, n=4, n_bins=11)
            sa = stepwise_aggregation(cohort, 2, spec)
            losses = [entry[1] for entry in sa.trace]
            assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))
            ss = stepwise_splitting(cohort, 5, spec)
            losses = [entry[1] for entry in ss.trace]
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_deterministic(self, rng):
        cohort = grid_cohort(rng, n=4, n_bins=11)
        spec = LossSpec(LossKind.L2, 40)
        first = stepwise_aggregation(cohort, 3, spec)
        second = stepwise_aggregation(cohort, 3, spec)
        assert first.thresholds == second.thresholds
        assert first.loss == second.loss


class TestDifferentialEvolution:
    def test_beats_or_matches_discrete_optimum(self, rng):
        for kind in (LossKind.L1, LossKind.L2):
            cohort = grid_cohort(rng, n=4, n_bins=13)
            spec = LossSpec(kind, 40)
            exh = exhaustive_search(cohort, 2, spec)
            de = differential_evolution(cohort, 2, spec, config=TIGHT_DE)
            assert de.loss <= exh.loss + 1e-9

    def test_deterministic_given_seed(self, rng):
        cohort = grid_cohort(rng, n=3, n_bins=8)
        spec = LossSpec(LossKind.L1, 30)
        cfg = DEConfig(seed=42, max_generations=40)
        a = differential_evolution(cohort, 2, spec, config=cfg)
        b = differential_evolution(cohort, 2, spec, config=cfg)
        assert a.thresholds == b.thresholds
        assert a.loss == b.loss
        assert a.trace == b.trace

    def test_feasibility_with_fixed(self, rng):
        cohort = grid_cohort(rng, n=3, n_bins=10)
        spec = LossSpec(LossKind.L1, 30)
        res = differential_evolution(
            cohort, 3, spec, fixed=(0.5,), config=DEConfig(seed=7, max_generations=60)
        )
        values = res.thresholds.thresholds
        assert 0.5 in values
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 < v < 1.0 for v in values)

    def test_requires_free_threshold(self, rng):
        cohort = grid_cohort(rng, n=3, n_bins=8)
        with pytest.raises(ValueError, match="free threshold"):
            differential_evolution(cohort, 1, LossSpec(LossKind.L1, 30), fixed=(0.5,))

    def test_population_validation(self):
        with pytest.raises(ValueError, match="population"):
            DEConfig(population_size_per_dim=3)

    def test_certified_loss(self, rng):
        cohort = grid_cohort(rng, n=3, n_bins=8)
        spec = LossSpec(LossKind.L2, 30)
        res = differential_evolution(cohort, 2, spec, config=DEConfig(seed=3, max_generations=30))
        assert res.loss == evaluate_loss(cohort, res.thresholds, spec)


def legacy_repair(free, fixed, lower, upper, bump):
    """The bump-only repair: clip, sort, push duplicates up by ``bump``."""
    fixed_set = set(fixed)
    items = sorted(
        [(v, 1) for v in fixed] + [(float(np.clip(v, lower, upper)), 0) for v in free],
        key=lambda pair: (pair[0], -pair[1]),
    )
    out, prev = [], None
    for value, is_fixed in items:
        if not is_fixed:
            if prev is not None and value <= prev:
                value = prev + bump
            while value in fixed_set and value + bump != value:
                value += bump
        out.append(value)
        prev = value
    return out


@st.composite
def repair_inputs(draw):
    """A domain (possibly far from zero), fixed thresholds and a raw DE candidate."""
    lower = draw(st.one_of(
        st.floats(-1e3, 1e3), st.floats(-1e15, 1e15), st.sampled_from([0.0, 1e7, -1e9, 1e12])
    ))
    width = draw(st.one_of(st.floats(1e-6, 1e4), st.sampled_from([1.0, 360.0, 1e-3])))
    upper = lower + width
    n_fixed = draw(st.integers(0, 3))
    n_free = draw(st.integers(1, 5))
    # Need room for every threshold strictly inside the domain.
    room = lower
    for _ in range(n_fixed + n_free + 2):
        room = float(np.nextafter(room, np.inf))
    assume(room < upper)
    inside = st.floats(0.0, 1.0).map(lambda f: lower + f * (upper - lower))
    fixed = sorted(set(v for v in draw(st.lists(inside, max_size=n_fixed)) if lower < v < upper))
    bump = 1e-9 * (upper - lower)
    edges = [lower, upper, lower + bump, upper - bump, *fixed]
    raw = st.one_of(
        st.floats(-0.1, 1.1).map(lambda f: lower + f * (upper - lower)), st.sampled_from(edges)
    )
    free = draw(st.lists(raw, min_size=n_free, max_size=n_free))
    return Domain(lower, upper), tuple(fixed), np.array(free), bump


class TestRepairCandidate:
    def test_duplicates_at_the_upper_edge_stay_inside(self):
        from optithresh.optimizers import _repair_candidate

        out = _repair_candidate(np.array([1 - 1e-9, 1 - 1e-9]), (), UNIT, 1e-9)
        assert 0.0 < out[0] < out[1] < 1.0

    def test_bump_below_one_ulp(self):
        from optithresh.optimizers import _repair_candidate

        domain = Domain(1e9, 1e9 + 1.0)
        mid = 1e9 + 0.5
        out = _repair_candidate(np.array([mid, mid, mid]), (mid,), domain, 1e-9)
        assert mid in out
        assert out.size == 4 and np.all(np.diff(out) > 0)
        assert domain.lower < out[0] and out[-1] < domain.upper

    @settings(max_examples=300, deadline=None)
    @given(repair_inputs())
    def test_valid_for_any_domain(self, args):
        from optithresh.optimizers import _repair_candidate

        domain, fixed, free, bump = args
        out = _repair_candidate(free, fixed, domain, bump)
        assert out.size == free.size + len(fixed)
        assert np.all(np.diff(out) > 0)
        assert domain.lower < out[0] and out[-1] < domain.upper
        assert set(fixed) <= set(out.tolist())
        legacy = legacy_repair(free, fixed, domain.lower + bump, domain.upper - bump, bump)
        legacy_valid = (
            domain.lower < legacy[0] and legacy[-1] < domain.upper
            and all(a < b for a, b in zip(legacy, legacy[1:]))
        )
        if legacy_valid:
            assert out.tolist() == legacy


class TestPaa:
    def test_full_resolution_zero_objective(self, rng):
        cohort = grid_cohort(rng, n=3, n_bins=6)
        res = paa_baseline(cohort, 5)
        assert res.thresholds.thresholds == tuple(cohort.members[0].cutoffs)
        assert res.loss == pytest.approx(0.0, abs=1e-30)
        assert res.loss_spec.kind is LossKind.L2_BRAY_CURTIS

    def test_incremental_matches_direct(self, rng):
        from optithresh.losses import loss_l2_braycurtis
        from optithresh.optimizers import _BrayCurtisRemovalScan

        cohort = grid_cohort(rng, n=4, n_bins=8)
        cuts = cohort.members[0].cutoffs
        scan = _BrayCurtisRemovalScan(cohort, np.arange(7, dtype=np.intp))
        for pos in range(7):
            t = ThresholdSet(tuple(np.delete(cuts, pos)))
            direct = loss_l2_braycurtis(cohort, t)
            assert scan.candidate_loss(pos) == pytest.approx(direct, rel=1e-10, abs=1e-14)

    def test_rejects_sample_cohorts(self, rng):
        from conftest import random_sample

        cohort = Cohort([random_sample(rng), random_sample(rng)])
        with pytest.raises(ValueError, match="shared cutoffs"):
            paa_baseline(cohort, 1)


class TestOptimizeDispatcher:
    def test_fixed_only_no_search(self, rng):
        cohort = grid_cohort(rng, n=3, n_bins=8)
        spec = LossSpec(LossKind.L1, 30)
        res = optimize(cohort, 1, spec, Method.DIFFERENTIAL_EVOLUTION, fixed=(0.5,))
        assert res.thresholds.thresholds == (0.5,)
        assert res.evaluations == 1
        assert res.loss == evaluate_loss(cohort, ThresholdSet((0.5,)), spec)

    def test_fixed_plus_one_matches_scan(self, rng):
        cohort = grid_cohort(rng, n=4, n_bins=9)
        spec = LossSpec(LossKind.L1, 40)
        fixed = (float(cohort.members[0].cutoffs[3]),)
        res = optimize(cohort, 2, spec, Method.EXHAUSTIVE, fixed=fixed)
        subset, loss = brute_force_minimum(cohort, 2, spec, fixed=fixed)
        assert res.thresholds.thresholds == subset
        assert fixed[0] in res.thresholds.thresholds

    def test_method_strings(self, rng):
        cohort = grid_cohort(rng, n=3, n_bins=7)
        spec = LossSpec(LossKind.L1, 20)
        res = optimize(cohort, 2, spec, "sa")
        assert res.method is Method.STEPWISE_AGGREGATION

    def test_semi_supervised_additions_land_above_fixed(self, rng):
        # Cohort with structural breaks above the fixed pair: both added
        # thresholds should exceed the larger fixed threshold.
        from optithresh.histograms import EmpiricalSample
        from optithresh.simulation import sample_dirichlet, sample_mixture

        domain = Domain(40.0, 400.0)
        members = []
        gen = np.random.default_rng(11)
        breaks = np.array([40.0, 70.0, 181.0, 240.0, 310.0, 400.0])
        for i in range(30):
            weights = sample_dirichlet(30.0 * np.array([0.1, 0.25, 0.3, 0.25, 0.1]), gen)
            values = sample_mixture(gen, breaks, weights, 600)
            members.append(EmpiricalSample(domain, values, subject_id=str(i)))
        cohort = Cohort(members)
        res = differential_evolution(
            cohort,
            4,
            LossSpec(LossKind.L1, 100),
            fixed=(70.0, 181.0),
            config=DEConfig(seed=2, max_generations=200, convergence_tol=1e-4),
        )
        added = [v for v in res.thresholds.thresholds if v not in (70.0, 181.0)]
        assert len(added) == 2
        assert all(v > 181.0 for v in added)


class TestRounding:
    def test_round_up(self):
        t = ThresholdSet((69.2, 180.0, 250.7))
        assert round_up_thresholds(t) == (70, 180, 251)

    def test_collision_resolution(self):
        t = ThresholdSet((180.2, 180.9))
        assert round_up_thresholds(t) == (181, 182)
