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
        from optithresh.optimizers import _selection_cols, _SelectionScan

        for make in (grid_cohort, grid_cohort_with_gaps):
            cohort = make(rng, n=6, n_bins=17, domain=domain)
            spec = LossSpec(LossKind.L1, 45)
            costs = _SelectionScan(cohort, spec, np.arange(0)).costs
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

    def test_de_matches_exact_scoring(self, rng):
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
            exact, _ = reference_de(cohort, k, spec, fixed, config)
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

    def test_paa_trace_matches_loss_l2_braycurtis(self, rng):
        # Each PAA trace value is the public Bray-Curtis loss of that step's
        # selection, to the last bit, also where the pair mean's rounding
        # depends on how the normalisation is written.
        for trial in range(40):
            cohort = grid_cohort(rng, n=int(rng.integers(3, 9)), n_bins=int(rng.integers(4, 10)))
            j = cohort.shared_cutoffs.size
            for step, loss in paa_baseline(cohort, 0).trace:
                assert loss == paa_baseline(cohort, j - step).loss


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
        from optithresh.optimizers import _SelectionScan

        far = [Domain(1e7, 1e7 + 50.0), Domain(-1e9, -1e9 + 3.0), Domain(1e12, 1e12 + 400.0)]
        cases = [(UNIT, LossKind.L1), (UNIT, LossKind.L2)] + [(d, LossKind.L2) for d in far]
        for (domain, kind), n in itertools.product(cases, range(2, 31)):
            make = grid_cohort_with_gaps if n % 3 == 0 else grid_cohort
            cohort = make(rng, n=n, n_bins=int(rng.integers(4, 14)), domain=domain)
            if n % 4 == 0:  # a repeated member: its pair distances stay zero
                cohort = Cohort(cohort.members + cohort.members[:1])
            spec = LossSpec(kind, int(rng.integers(15, 60)))
            scan = _SelectionScan(cohort, spec, np.arange(cohort.shared_cutoffs.size, dtype=np.intp))
            while scan.sel.size:
                positions = np.arange(scan.sel.size)
                losses = scan.removal_losses(positions)
                for pos, loss in zip(positions, losses):
                    direct = selection_loss(cohort, spec, np.delete(scan.sel, pos))
                    assert loss == pytest.approx(direct, rel=1e-10, abs=1e-14)
                scan.remove(int(np.argmin(losses)))

    def test_sa_l2_kept_updates_match_a_fresh_scan(self, rng):
        # Removal losses from updates kept across steps are bitwise those of a
        # scan built afresh at the same selection, at every step down to the
        # fixed thresholds: argmin and random removals, far domains, empty
        # bins and a repeated member.
        from optithresh.optimizers import _SelectionScan

        domains = [UNIT, Domain(1e7, 1e7 + 50.0), Domain(-1e9, -1e9 + 3.0), Domain(1e12, 1e12 + 400.0)]
        reused = 0
        for n in range(2, 31):
            make = grid_cohort_with_gaps if n % 3 == 0 else grid_cohort
            cohort = make(rng, n=n, n_bins=int(rng.integers(4, 16)), domain=domains[n % 4])
            if n % 5 == 0:
                cohort = Cohort(cohort.members + cohort.members[:1])
            spec = LossSpec(LossKind.L2, int(rng.integers(15, 60)))
            j = cohort.shared_cutoffs.size
            fixed = rng.choice(j, size=n % 3, replace=False)
            scan = _SelectionScan(cohort, spec, np.arange(j, dtype=np.intp))
            while scan.sel.size > fixed.size:
                moves = np.nonzero(~np.isin(scan.sel, fixed))[0]
                losses = scan.removal_losses(moves)
                fresh = _SelectionScan(cohort, spec, scan.sel).removal_losses(moves)
                assert np.array_equal(losses, fresh)
                reused += scan.reuse[0]
                scan.remove(int(moves[np.argmin(losses)] if n % 2 else rng.choice(moves)))
        assert reused > 0

    def test_sa_l2_removal_change_is_the_kernels_grid_change(self, rng):
        # For every candidate at every step of full SA-L2 aggregations, the
        # scan's grid change d is bitwise the kernel's grids of the reduced
        # selection minus the current grids on the candidate's span, and the
        # kernel's grids equal the current ones outside that span.  Dyadic
        # masses on grids of 2^k - 1 points put anchor probabilities on grid
        # points and tie them within and across members.
        from optithresh.losses import _anchor_rows, _linearized_rows
        from optithresh.optimizers import _SelectionScan

        def dyadic_cohort(rng, n, n_bins, domain):
            cuts = np.linspace(domain.lower, domain.upper, n_bins + 1)[1:-1]
            counts = rng.multinomial(32, rng.dirichlet(np.ones(n_bins)), size=n)
            return Cohort([Histogram(domain, cuts, c / 32) for c in counts])

        def bits(a):
            return np.ascontiguousarray(a).view(np.uint64)

        domains = [UNIT, Domain(1e7, 1e7 + 50.0), Domain(-1e9, -1e9 + 3.0), Domain(1e12, 1e12 + 400.0)]
        makers = [grid_cohort, grid_cohort_with_gaps, dyadic_cohort]
        cases = []
        for n in range(2, 31):
            make = makers[n % 3]
            cohort = make(rng, n=n, n_bins=int(rng.integers(4, 16)), domain=domains[n // 3 % 4])
            if n % 5 == 0:  # a repeated member
                cohort = Cohort(cohort.members + cohort.members[:1])
            cases.append((cohort, int(rng.choice([15, 31, 63]) if make is dyadic_cohort else rng.integers(15, 60))))
        # Anchors (0.19, -0.6) and (0.7 + 1 ulp, 0.5) around the grid point 0.7:
        # there the unclipped chord between them overshoots 0.5 by one ulp.
        straddle = Domain(-1.0, 1.0), np.array([-0.6, 0.0, 0.5])
        masses = np.array([0.19, 0.07, 0.7000000000000001 - 0.26, 1.0 - 0.7000000000000001])
        cases.append((Cohort([Histogram(*straddle, masses), Histogram(*straddle, np.full(4, 0.25))]), 9))
        # Anchors (0.25, 0.2) and (0.75, 0.9), the latter on a grid point inside
        # the span of the second member: the chord there is 0.9 - 1 ulp.
        pinned = UNIT, np.array([0.2, 0.5, 0.9])
        masses = np.array([[0.25, 0.25, 0.25, 0.25], [0.125, 0.125, 0.625, 0.125]])
        cases.append((Cohort([Histogram(*pinned, m) for m in masses]), 3))
        for cohort, grid_size in cases:
            cutoffs = cohort.shared_cutoffs
            scan = _SelectionScan(cohort, LossSpec(LossKind.L2, grid_size), np.arange(cutoffs.size))
            while scan.sel.size:
                positions = np.arange(scan.sel.size)
                reduced = np.stack([np.delete(scan.sel, pos) for pos in positions])
                kernel = _linearized_rows(*_anchor_rows(cohort, cutoffs[reduced]), grid_size)
                for pos, (lo, hi) in enumerate(zip(*scan._spans(positions))):
                    change = kernel[pos] - scan.grids
                    d = scan._removal_change(pos + 1, slice(lo, hi))
                    assert np.array_equal(bits(d), bits(change[:, lo:hi])), (cohort.n, grid_size, pos)
                    outside = np.r_[0:lo, hi:grid_size]
                    assert np.array_equal(bits(kernel[pos][:, outside]), bits(scan.grids[:, outside]))
                scan.remove(int(np.argmin(scan.removal_losses(positions))))

    def test_l2_scan_mixes_insertions_and_removals(self, rng):
        from optithresh.optimizers import _SelectionScan

        for trial in range(12):
            make = grid_cohort_with_gaps if trial % 2 else grid_cohort
            cohort = make(rng, n=int(rng.integers(2, 12)), n_bins=int(rng.integers(5, 16)))
            spec = LossSpec(LossKind.L2, int(rng.integers(15, 60)))
            j = cohort.shared_cutoffs.size
            scan = _SelectionScan(cohort, spec, np.sort(rng.choice(j, size=j // 2, replace=False)))
            for _ in range(2 * j):
                positions = np.arange(scan.sel.size)
                if positions.size:
                    fresh = _SelectionScan(cohort, spec, scan.sel).removal_losses(positions)
                    assert np.array_equal(scan.removal_losses(positions), fresh)
                if scan.sel.size == j or (positions.size and rng.random() < 0.5):
                    scan.remove(int(rng.choice(positions)))
                else:
                    scan.insert(int(rng.choice(np.setdiff1d(np.arange(j), scan.sel))))

    def test_sa_l2_kept_update_rescored_where_it_cancels(self, rng, monkeypatch):
        # Two members differ only inside the bins around one cutoff and share
        # those bins' total mass, so removing that cutoff makes their grids
        # identical.  Its update, kept from the first step, cancels to about
        # zero, and the scan rescores it from the new grids.
        from optithresh import optimizers
        from optithresh.optimizers import _SelectionScan

        cuts = np.linspace(0.0, 1.0, 13)[1:-1]
        counts = rng.integers(1, 10, size=(4, 12))
        counts[0, 7] = 4
        counts[1] = counts[0]
        counts[1, [6, 7]] += (2, -2)
        counts[:, -1] = 128 - counts[:, :-1].sum(axis=1)  # dyadic masses: exact sums
        cohort = Cohort([Histogram(UNIT, cuts, c / 128) for c in counts])
        spec = LossSpec(LossKind.L2, 80)
        scan = _SelectionScan(cohort, spec, np.arange(cuts.size, dtype=np.intp))
        positions = np.arange(cuts.size)
        scan.removal_losses(positions)
        scan.remove(0)
        assert (6, 7, 8) in {key[:3] for key in scan._updates}  # the anchors around cutoff 6
        calls = []
        real_pdist = optimizers._pdist
        monkeypatch.setattr(optimizers, "_pdist", lambda *a: calls.append(a) or real_pdist(*a))
        losses = scan.removal_losses(positions[:-1])
        monkeypatch.undo()
        assert len(calls) == 1 and np.array_equal(calls[0][0][0], calls[0][0][1])
        assert np.array_equal(losses, _SelectionScan(cohort, spec, scan.sel).removal_losses(positions[:-1]))

    def test_greedy_logs_each_step(self, rng, caplog):
        # One DEBUG line per step with the candidates scored and the updates
        # reused and recomputed; the result does not depend on the logging.
        cohort = grid_cohort(rng, n=6, n_bins=12)
        spec = LossSpec(LossKind.L2, 40)
        quiet = stepwise_aggregation(cohort, 2, spec)
        with caplog.at_level("DEBUG", logger="optithresh.optimizers"):
            res = stepwise_aggregation(cohort, 2, spec)
            paa = paa_baseline(cohort, 2)
        assert (res.thresholds, res.loss, res.trace) == (quiet.thresholds, quiet.loss, quiet.trace)
        lines = [r.getMessage() for r in caplog.records if r.name == "optithresh.optimizers"]
        assert len(lines) == len(res.trace) + len(paa.trace)
        counts = [tuple(int(w) for w in line.replace(",", "").split() if w.isdigit()) for line in lines]
        sa_counts, paa_counts = counts[: len(res.trace)], counts[len(res.trace):]
        steps = [(step, 12 - step, 12 - step) for step in range(1, 10)]
        assert [c[:3] for c in sa_counts] == [c[:3] for c in paa_counts] == steps
        # SA scores a candidate from one update, or from none where its
        # removal changes no grid point; PAA from the terms of the columns
        # on both sides of each candidate.
        assert all(reused + recomputed <= scored for _, _, scored, reused, recomputed in sa_counts)
        assert all(reused + recomputed == scored + 1 for _, _, scored, reused, recomputed in paa_counts)
        assert sum(c[3] for c in sa_counts) > 0 and sum(c[3] for c in paa_counts) > 0

    def test_sa_l2_matches_from_scratch_greedy(self, rng):
        # SA under L2 takes the same steps as a greedy loop that scores every
        # removal with the public loss and keeps the first best within TIE_TOL.
        self.check_l2_greedy(rng, stepwise_aggregation, "sa")

    def test_ss_l2_matches_from_scratch_greedy(self, rng):
        # Likewise SS, inserting from the fixed thresholds.
        self.check_l2_greedy(rng, stepwise_splitting, "ss")

    @staticmethod
    def check_l2_greedy(rng, solver, method):
        """Thresholds, certified loss and trace of ``solver`` under L2, bit for bit
        against ``reference_search``, with and without fixed thresholds and empty bins."""
        for trial in range(16):
            make = grid_cohort_with_gaps if trial % 2 else grid_cohort
            cohort = make(rng, n=int(rng.integers(2, 12)), n_bins=int(rng.integers(5, 16)))
            spec = LossSpec(LossKind.L2, int(rng.integers(15, 80)))
            cuts = cohort.shared_cutoffs
            fixed = () if trial % 4 < 2 else tuple(
                float(v) for v in np.sort(rng.choice(cuts, size=1 + trial % 2, replace=False))
            )
            k = int(rng.integers(len(fixed), cuts.size))
            res = solver(cohort, k, spec, fixed)
            thresholds, trace = reference_search(cohort, k, spec, method, fixed)
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

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_convergence_tol_validation(self, tol):
        with pytest.raises(ValueError, match="convergence_tol must be finite and non-negative"):
            DEConfig(convergence_tol=tol)

    def test_certified_loss(self, rng):
        cohort = grid_cohort(rng, n=3, n_bins=8)
        spec = LossSpec(LossKind.L2, 30)
        res = differential_evolution(cohort, 2, spec, config=DEConfig(seed=3, max_generations=30))
        assert res.loss == evaluate_loss(cohort, res.thresholds, spec)


def reference_de(cohort, k, spec, fixed, config):
    """Differential evolution as a loop over trials, each scored exactly on its own.

    The solver's draws and repair rule, one trial at a time: every trial gets
    its own ``_loss_batch`` call and replaces its target when its loss is no
    worse (``<=``), the one-to-one selection of rand/1/bin.  Returns the
    certified result and the number of trials accepted in each generation.
    """
    from optithresh import optimizers as opt
    from optithresh.losses import _loss_batch

    fixed = opt._normalize_fixed(fixed)
    k_free = k - len(fixed)
    domain = cohort.domain
    a, b = domain.lower, domain.upper
    span = b - a
    margin = 1e-9 * span
    lower, upper = a + margin, b - margin

    def loss(row):
        # A batch of one sums in another order than a batch of several, so
        # each candidate is scored as a batch of two copies.
        values = opt._repair_candidate(row, fixed, domain, margin)
        return float(_loss_batch(cohort, np.vstack([values, values]), spec)[0])

    rng = np.random.default_rng(config.seed)
    n_pop = config.population_size_per_dim * k_free
    population = np.empty((n_pop, k_free))
    for dim in range(k_free):
        strata = (rng.permutation(n_pop) + rng.random(n_pop)) / n_pop
        population[:, dim] = a + strata * span
    np.clip(population, lower, upper, out=population)
    losses = np.array([loss(row) for row in population])
    evaluations = n_pop
    trace = [(0, float(losses.min()))]
    accepted = []
    for generation in range(1, config.max_generations + 1):
        factor = rng.uniform(*config.mutation_range)
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
        accepted.append(0)
        for i, trial in enumerate(trials):
            trial_loss = loss(trial)
            if trial_loss <= losses[i]:
                population[i], losses[i] = trial, trial_loss
                accepted[-1] += 1
        evaluations += n_pop
        trace.append((generation, float(losses.min())))
        if float(losses.std()) <= config.convergence_tol * abs(float(losses.mean())):
            break
    values = opt._repair_candidate(population[int(np.argmin(losses))], fixed, domain, margin)
    result = opt._certify(
        cohort, values, fixed, Method.DIFFERENTIAL_EVOLUTION, spec, evaluations, tuple(trace)
    )
    return result, accepted


class TestDifferentialEvolutionReference:
    """DE builds, repairs and selects trials for the whole population at once,
    and its kernel scores in blocks; none of it may change a bit of the result
    of a loop that scores each trial exactly on its own."""

    @pytest.mark.parametrize("kind", [LossKind.L1, LossKind.L2])
    def test_matches_a_loop_over_trials(self, rng, monkeypatch, kind):
        from optithresh import losses
        from optithresh.histograms import EmpiricalSample

        domain = Domain(40.0, 400.0)
        samples = Cohort(
            [EmpiricalSample(domain, np.round(rng.uniform(40, 400, size=120))) for _ in range(61)]
        )
        cases = [
            (samples, 3, ()),
            (samples, 3, (70.0, 181.0)),
            (grid_cohort(rng, n=9, n_bins=12), 2, ()),
            (grid_cohort(rng, n=8, n_bins=10), 3, (0.5,)),
            # Far from zero the margin is below one ulp, so clipped values land
            # on the domain's edges and rows take the full repair.
            (grid_cohort(rng, n=5, n_bins=9, domain=Domain(1e12, 1e12 + 1.0)), 2, ()),
        ]
        config = DEConfig(seed=11, max_generations=25, convergence_tol=1e-3)
        for cohort, k, fixed in cases:
            spec = LossSpec(kind, 60)
            with monkeypatch.context() as patch:
                patch.setattr(losses, "_SCRATCH_BYTES", 1 << 60)
                want, _ = reference_de(cohort, k, spec, fixed, config)
            with monkeypatch.context() as patch:
                patch.setattr(losses, "_SCRATCH_BYTES", 1)
                got = differential_evolution(cohort, k, spec, fixed, config)
            assert (got.thresholds, got.loss, got.trace, got.evaluations) == (
                want.thresholds, want.loss, want.trace, want.evaluations
            )

    @pytest.mark.parametrize("kind", [LossKind.L1, LossKind.L2])
    def test_edge_cohorts_match_a_loop_over_trials(self, kind):
        from optithresh.histograms import EmpiricalSample

        domain = Domain(40.0, 400.0)
        cuts = np.arange(1.0, 8.0)
        # Point masses: every member's quantile function is constant, so every
        # candidate's L1 and L2 losses are exactly 0 and every trial wins.
        points = Cohort([EmpiricalSample(domain, np.full(30, v)) for v in (70.0, 120.0, 250.0)])
        # One member twice: the pair's distances stay 0 under any thresholds.
        gen = np.random.default_rng(3)
        members = [Histogram(Domain(0.0, 8.0), cuts, gen.dirichlet(np.ones(8))) for _ in range(4)]
        repeated = Cohort(members + members[1:2])
        # Each member's mass in one bin: every linearization keeps the pairwise
        # distances exactly, so the L2 loss is exactly 0 while L1 is not.
        one_bin = Cohort([Histogram(Domain(0.0, 8.0), cuts, np.eye(8)[j]) for j in (1, 4, 6)])
        config = DEConfig(seed=8, max_generations=12, convergence_tol=1e-3)
        spec = LossSpec(kind, 50)
        for cohort, k in ((points, 2), (repeated, 2), (one_bin, 3)):
            got = differential_evolution(cohort, k, spec, config=config)
            want, accepted = reference_de(cohort, k, spec, (), config)
            assert (got.thresholds, got.loss, got.trace, got.evaluations) == (
                want.thresholds, want.loss, want.trace, want.evaluations
            )
            if cohort is points:
                assert accepted == [config.population_size_per_dim * k] * len(accepted)
            if cohort is one_bin and kind is LossKind.L2:
                assert got.loss == 0.0 and all(loss == 0.0 for _, loss in got.trace)

    @pytest.mark.parametrize(
        "tol, generations, stop", [(0.0, 4, "max_generations"), (10.0, 50, "converged")]
    )
    def test_logs_each_generation_and_the_stop(self, rng, caplog, tol, generations, stop):
        cohort = grid_cohort(rng, n=4, n_bins=8)
        config = DEConfig(seed=2, max_generations=generations, convergence_tol=tol)
        with caplog.at_level("DEBUG", logger="optithresh.optimizers"):
            res = differential_evolution(cohort, 2, LossSpec(LossKind.L1, 30), config=config)
        records = [r for r in caplog.records if r.name == "optithresh.optimizers"]
        debug = [r.getMessage() for r in records if r.levelname == "DEBUG"]
        info = [r.getMessage() for r in records if r.levelname == "INFO"]
        ran = len(res.trace) - 1
        assert ran == (generations if stop == "max_generations" else 1)
        assert [line.split(":")[0] for line in debug] == [f"de generation {g}" for g in range(1, ran + 1)]
        assert info == [
            f"differential evolution: {ran} generations, stopped by {stop}, "
            f"{res.evaluations} evaluations"
        ]


class TestSettledL1Selection:
    """``_SettledL1Selection`` run beside ``_ExactSelection`` on the same trials,
    generation by generation: the same decisions, and bitwise the same losses
    near the population minimum, which DE's trace and final choice read."""

    @pytest.mark.parametrize("case", ["histograms", "samples"])
    def test_decides_and_reports_as_exact_selection(self, rng, case):
        from functools import partial

        from optithresh.histograms import EmpiricalSample
        from optithresh.optimizers import _ExactSelection, _SettledL1Selection, _repair_rows

        if case == "histograms":
            members, fixed = list(grid_cohort(rng, n=4, n_bins=10).members), ()
        else:
            domain = Domain(40.0, 400.0)
            members = [EmpiricalSample(domain, np.round(rng.uniform(40, 400, size=50))) for _ in range(4)]
            fixed = (70.0,)
        cohort = Cohort(members + members[:2])  # two members repeated
        domain, spec = cohort.domain, LossSpec(LossKind.L1, 40)
        width = domain.upper - domain.lower
        margin = 1e-9 * width
        repaired = partial(_repair_rows, fixed=fixed, domain=domain, bump=margin)
        n_pop, k_free = 24, 2
        start = domain.lower + rng.uniform(0.05, 0.95, (n_pop, k_free)) * width
        start[n_pop // 2:] = start[: n_pop // 2]  # repeated rows: equal scores
        exact = _ExactSelection(cohort, spec, repaired, start.copy())
        settled = _SettledL1Selection(cohort, spec, repaired, start.copy())
        moved = close_calls = 0
        for _ in range(60):
            population = exact.population.copy()
            # Trials equal to their targets, copies of other members, and steps
            # from tiny (close calls) to large.
            scale = rng.choice([0.0, 1e-13, 1e-11, 1e-8, 1e-3, 0.1], size=(n_pop, 1))
            trials = population + scale * width * rng.standard_normal((n_pop, k_free))
            copies = rng.random(n_pop) < 0.2
            trials[copies] = population[rng.integers(n_pop, size=np.count_nonzero(copies))]
            np.clip(trials, domain.lower + margin, domain.upper - margin, out=trials)
            scores, trial_scores = settled.scores.copy(), settled._score(trials)
            close_calls += np.count_nonzero((trial_scores != scores) & settled._close(trial_scores, scores))
            better = exact.select(trials.copy())
            assert np.array_equal(settled.select(trials.copy()), better)
            assert np.array_equal(settled.population, exact.population)
            near = settled._close(settled.scores, settled.scores.min())
            assert settled.losses[near].tobytes() == exact.losses[near].tobytes()
            assert np.allclose(settled.losses, exact.losses, rtol=1e-9, atol=0.0)
            moved += np.count_nonzero(better & (population != trials).any(axis=1))
        assert moved > 0
        # Sample anchors move in steps, so only histogram trials nearly tie their targets.
        assert close_calls > 0 or case == "samples"


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


    @settings(max_examples=300, deadline=None)
    @given(repair_inputs(), st.integers(0, 2**32 - 1))
    def test_rows_repaired_together_match_one_by_one(self, args, seed):
        from optithresh.optimizers import _repair_candidate, _repair_rows

        domain, fixed, free, bump = args
        rng = np.random.default_rng(seed)
        # The drawn candidate, its values shuffled and repeated, and draws from
        # the whole box: rows that need repair mixed with rows that do not.
        rows = np.vstack([
            free,
            rng.permutation(free),
            rng.choice(free, size=free.size),
            domain.lower + rng.random((3, free.size)) * (domain.upper - domain.lower),
        ])
        together = _repair_rows(rows, fixed, domain, bump)
        for row, repaired in zip(rows, together):
            # Bytes, so that a signed zero must match too.
            assert repaired.tobytes() == _repair_candidate(row, fixed, domain, bump).tobytes()


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
        for pos, loss in enumerate(scan.removal_losses(np.arange(7))):
            t = ThresholdSet(tuple(np.delete(cuts, pos)))
            direct = loss_l2_braycurtis(cohort, t)
            assert loss == pytest.approx(direct, rel=1e-10, abs=1e-14)

    def test_removal_losses_match_pdist_formula(self, rng):
        # The column gathers give bitwise the losses of three one-column
        # cityblock `pdist` calls per candidate, at every step down to K=0.
        from scipy.spatial.distance import pdist

        from optithresh.optimizers import _BrayCurtisRemovalScan

        def pdist_losses(scan, positions):
            out = []
            for pos in positions.tolist():
                left = scan.comps[:, pos][:, None]
                right = scan.comps[:, pos + 1][:, None]
                out.append(
                    scan._loss(
                        scan.numerators
                        - pdist(left, metric="cityblock")
                        - pdist(right, metric="cityblock")
                        + pdist(left + right, metric="cityblock")
                    )
                )
            return np.array(out)

        for n, n_bins in [(2, 3), (5, 8), (12, 20), (30, 41)]:
            masses = rng.dirichlet(np.full(n_bins, 0.3), size=n)
            masses[rng.random(masses.shape) < 0.25] = 0.0
            masses[:, 0] += 1e-3
            masses[n // 2] = masses[0]  # a repeated member
            masses[1:, 1] = masses[0, 1]  # every member tied in one bin
            masses /= masses.sum(axis=1, keepdims=True)
            cuts = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
            cohort = Cohort([Histogram(UNIT, cuts, m) for m in masses])
            scan = _BrayCurtisRemovalScan(cohort, np.arange(n_bins - 1, dtype=np.intp))
            while scan.sel.size:
                positions = np.arange(scan.sel.size)
                losses = scan.removal_losses(positions)
                assert np.array_equal(losses, pdist_losses(scan, positions))
                scan.remove(int(rng.integers(scan.sel.size)))

    def test_rejects_sample_cohorts(self, rng):
        from conftest import random_sample

        cohort = Cohort([random_sample(rng), random_sample(rng)])
        with pytest.raises(ValueError, match="shared cutoffs"):
            paa_baseline(cohort, 1)


#: Each invalid grid-solver input, as (cohort, K, loss kind, fixed thresholds),
#: and its error.  Each also breaks every later check that it can, so the error
#: shows the order of the checks.
INVALID_GRID_INPUTS = {
    "duplicate-fixed": ("samples", -1, LossKind.L2, (0.5, 0.5), "fixed thresholds must be distinct"),
    "no-shared-cutoffs": (
        "samples", -1, LossKind.L2, (0.123,), "discrete solvers require a histogram cohort with shared cutoffs"
    ),
    "l2-one-member": ("one", -1, LossKind.L2, (0.123,), "pairwise loss requires at least two cohort members"),
    "k-negative": ("grid", -1, LossKind.L1, (0.123,), "K must be non-negative"),
    "k-below-fixed": (
        "grid", 1, LossKind.L1, (0.123, 0.456), "K=1 is smaller than the number of fixed thresholds (2)"
    ),
    "k-above-cutoffs": ("grid", 6, LossKind.L1, (0.123,), "K=6 exceeds the 5 available cutoffs"),
    "fixed-not-a-cutoff": (
        "grid", 2, LossKind.L1, (0.456, 0.123),
        "fixed thresholds [0.123, 0.456] are not members of the shared cutoffs",
    ),
}

GRID_SOLVERS = {
    "exhaustive": exhaustive_search,
    "sa": stepwise_aggregation,
    "ss": stepwise_splitting,
    # PAA has its own objective, a pairwise one, whatever the loss kind.
    "paa": lambda cohort, k, spec, fixed: paa_baseline(cohort, k, fixed),
}


class TestGridSolverChecks:
    @pytest.mark.parametrize("case", sorted(INVALID_GRID_INPUTS))
    @pytest.mark.parametrize("solver", sorted(GRID_SOLVERS))
    def test_invalid_input_raises_the_first_failed_check(self, rng, solver, case):
        from conftest import random_sample

        grid = grid_cohort(rng, n=3, n_bins=6)  # 5 cutoffs, none at 0.123 or 0.456
        cohorts = {"grid": grid, "one": Cohort(grid.members[:1]), "samples": Cohort([random_sample(rng)])}
        name, k, kind, fixed, message = INVALID_GRID_INPUTS[case]
        with pytest.raises(ValueError) as raised:
            GRID_SOLVERS[solver](cohorts[name], k, LossSpec(kind, 20), fixed)
        assert type(raised.value) is ValueError and str(raised.value) == message


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
