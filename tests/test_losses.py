import itertools

import numpy as np
import pytest

from optithresh.histograms import (
    Domain,
    EmpiricalSample,
    Histogram,
    ThresholdSet,
    linearized_quantile_grid,
    quantile_grid,
)
from optithresh.losses import (
    Cohort,
    LossKind,
    LossSpec,
    bray_curtis,
    evaluate_loss,
    loss_l1,
    loss_l2,
    loss_l2_braycurtis,
    wasserstein_sq,
)

from conftest import random_histogram, random_sample

UNIT = Domain(0.0, 1.0)


def brute_loss_l1(cohort, t, spec):
    """Independent oracle: per-member re-summation through the public grid ops."""
    terms = [
        wasserstein_sq(
            quantile_grid(m, spec.grid_size),
            linearized_quantile_grid(m, t, spec.grid_size),
        )
        for m in cohort.members
    ]
    return sum(terms) / len(terms)


def brute_loss_l2(cohort, t, spec):
    """Independent oracle: explicit double loop over member pairs."""
    m = spec.grid_size
    base = [quantile_grid(member, m).values for member in cohort.members]
    lin = [linearized_quantile_grid(member, t, m).values for member in cohort.members]
    n = len(base)
    total = 0.0
    for i, j in itertools.combinations(range(n), 2):
        d_base = np.linalg.norm(base[i] - base[j])
        d_lin = np.linalg.norm(lin[i] - lin[j])
        total += (d_base - d_lin) ** 2
    return total * 2.0 / (n * (n - 1)) / (m + 1)


def brute_loss_bc(cohort, t):
    """Independent oracle for the Bray-Curtis pairwise loss."""
    from optithresh.histograms import amalgamate

    comps = [m.masses for m in cohort.members]
    amal = [amalgamate(m, t).masses for m in cohort.members]
    n = len(comps)
    total = 0.0
    for i, j in itertools.combinations(range(n), 2):
        total += (bray_curtis(comps[i], comps[j]) - bray_curtis(amal[i], amal[j])) ** 2
    return total * 2.0 / (n * (n - 1))


class TestCohort:
    def test_rejects_mixed_kinds(self, rng):
        h = random_histogram(rng)
        s = random_sample(rng)
        with pytest.raises(ValueError, match="all"):
            Cohort([h, s])

    def test_rejects_mixed_domains(self, rng):
        h1 = random_histogram(rng, domain=Domain(0.0, 1.0))
        h2 = random_histogram(rng, domain=Domain(0.0, 2.0))
        with pytest.raises(ValueError, match="domain"):
            Cohort([h1, h2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Cohort([])

    def test_shared_cutoffs_detection(self, rng):
        cuts = [0.3, 0.6]
        members = [
            Histogram(UNIT, cuts, rng.dirichlet(np.ones(3))) for _ in range(3)
        ]
        cohort = Cohort(members)
        assert cohort.shared_cutoffs is not None
        mixed = Cohort([members[0], Histogram(UNIT, [0.4, 0.6], [0.2, 0.3, 0.5])])
        assert mixed.shared_cutoffs is None

    def test_integer_valued(self):
        d = Domain(40.0, 401.0)
        h = Histogram(d, [41.0, 42.0], [0.5, 0.25, 0.25])
        assert Cohort([h]).integer_valued
        s = EmpiricalSample(d, [40.0, 70.5])
        assert not Cohort([s]).integer_valued


class TestWassersteinSq:
    def test_identical_grids(self, rng):
        g = quantile_grid(random_histogram(rng), 50)
        assert wasserstein_sq(g, g) == 0.0

    def test_point_masses_closed_form(self):
        from optithresh.histograms import QuantileGrid

        m = 40
        x, y = 0.3, 0.8
        ga = QuantileGrid(m, np.full(m, x))
        gb = QuantileGrid(m, np.full(m, y))
        assert wasserstein_sq(ga, gb) == pytest.approx((x - y) ** 2 * m / (m + 1), rel=1e-12)

    def test_uniform_shift(self):
        m = 200
        ha = Histogram(Domain(0.0, 1.0), [], [1.0])
        hb = Histogram(Domain(0.5, 1.5), [], [1.0])
        w2 = wasserstein_sq(quantile_grid(ha, m), quantile_grid(hb, m))
        # Exact discretized value; the shift property gives 0.25 in the limit.
        assert w2 == pytest.approx(0.25 * m / (m + 1), abs=1e-12)
        assert abs(w2 - 0.25) < 2e-3

    def test_grid_size_mismatch(self, rng):
        h = random_histogram(rng)
        with pytest.raises(ValueError, match="grid sizes"):
            wasserstein_sq(quantile_grid(h, 10), quantile_grid(h, 11))


class TestLossL1:
    def test_zero_at_full_cutoffs(self, rng):
        cuts = np.array([0.2, 0.45, 0.6, 0.85])
        members = []
        for _ in range(4):
            w = rng.dirichlet(np.ones(5)) + 0.01
            members.append(Histogram(UNIT, cuts, w / w.sum()))
        cohort = Cohort(members)
        t = ThresholdSet(tuple(cuts))
        assert loss_l1(cohort, t, LossSpec(LossKind.L1, 64)) == 0.0

    def test_single_bin_member_is_exact(self):
        cohort = Cohort([Histogram(UNIT, [], [1.0])])
        t = ThresholdSet((0.37,))
        assert loss_l1(cohort, t, LossSpec(LossKind.L1, 50)) == pytest.approx(0.0, abs=1e-28)

    def test_matches_resummation_oracle(self, rng):
        members = [random_histogram(rng, n_bins=6, positive=False) for _ in range(3)]
        cuts = members[0].cutoffs
        cohort = Cohort(members)
        t = ThresholdSet((float(cuts[2]),))
        spec = LossSpec(LossKind.L1, 50)
        assert loss_l1(cohort, t, spec) == pytest.approx(brute_loss_l1(cohort, t, spec), abs=1e-12)

    def test_sample_cohort(self, rng):
        members = [random_sample(rng, n=30) for _ in range(4)]
        cohort = Cohort(members)
        t = ThresholdSet((0.4, 0.7))
        spec = LossSpec(LossKind.L1, 40)
        assert loss_l1(cohort, t, spec) == pytest.approx(brute_loss_l1(cohort, t, spec), abs=1e-12)


def scorer_losses(cohort, thresholds, grid_size):
    """Closed-form L1 scores of a (B, K) batch of threshold rows."""
    from optithresh.losses import _anchor_rows

    return cohort._l1_scorer(grid_size).batch_loss(*_anchor_rows(cohort, thresholds))


def threshold_rows(rng, domain, n_rows, k, pool=None):
    """Sorted strictly increasing rows inside the domain, optionally drawn from a pool."""
    rows = []
    while len(rows) < n_rows:
        if pool is None:
            row = np.sort(rng.uniform(domain.lower, domain.upper, size=k))
        else:
            row = np.sort(rng.choice(pool, size=k, replace=False))
        if np.all(np.diff(row) > 0) and domain.lower < row[0] and row[-1] < domain.upper:
            rows.append(row)
    return np.array(rows)


class TestL1Scorer:
    """The search scorer against ``_loss_batch``, which reported losses come from."""

    def check(self, cohort, thresholds, grid_size):
        from optithresh.losses import _loss_batch

        exact = _loss_batch(cohort, thresholds, LossSpec(LossKind.L1, grid_size))
        fast = scorer_losses(cohort, thresholds, grid_size)
        assert fast == pytest.approx(exact, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_sample_cohort(self, rng, k):
        cohort = Cohort([random_sample(rng, n=int(rng.integers(1, 80))) for _ in range(7)])
        self.check(cohort, threshold_rows(rng, UNIT, 20, k), 57)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_shared_cutoff_histograms(self, rng, k):
        cuts = np.linspace(0.0, 1.0, 12)[1:-1]
        cohort = Cohort([Histogram(UNIT, cuts, rng.dirichlet(np.ones(11))) for _ in range(6)])
        self.check(cohort, threshold_rows(rng, UNIT, 20, k), 64)
        # Thresholds on the cutoffs put anchors exactly on histogram edges.
        self.check(cohort, threshold_rows(rng, UNIT, 20, k, pool=cuts), 64)

    def test_histograms_without_shared_cutoffs(self, rng):
        cohort = Cohort([random_histogram(rng, n_bins=int(rng.integers(2, 9))) for _ in range(5)])
        assert cohort.shared_cutoffs is None
        self.check(cohort, threshold_rows(rng, UNIT, 15, 3), 50)

    def test_ties_probability_edges_and_empty_segments(self, rng):
        # Zero-mass bins tie anchors and put them at probabilities 0 and 1;
        # close thresholds and a coarse grid leave segments without grid points.
        cuts = np.linspace(0.0, 1.0, 11)[1:-1]
        members = []
        for _ in range(5):
            masses = rng.dirichlet(np.ones(10))
            masses[[0, 1, 8, 9]] = 0.0
            masses[rng.random(10) < 0.3] = 0.0
            if masses.sum() == 0.0:
                masses[4] = 1.0
            members.append(Histogram(UNIT, cuts, masses / masses.sum()))
        cohort = Cohort(members)
        rows = np.array([
            [0.05, 0.15, 0.95],           # below and above every support
            [0.15, 0.18, 0.92],           # tied anchors at probabilities 0 and 1
            [0.41, 0.4100001, 0.4100002], # segments holding no grid point
            [0.2, 0.5, 0.8],
        ])
        for grid_size in (3, 40):
            self.check(cohort, rows, grid_size)
            self.check(cohort, np.vstack([rows, threshold_rows(rng, UNIT, 10, 3)]), grid_size)
        samples = Cohort([random_sample(rng, n=5) for _ in range(4)])
        self.check(samples, threshold_rows(rng, UNIT, 10, 4, pool=samples.members[0].values), 7)

    def test_domain_offset_by_1e7(self, rng):
        domain = Domain(1e7, 1e7 + 360.0)
        cuts = np.linspace(domain.lower, domain.upper, 37)[1:-1]
        histograms = Cohort(
            [Histogram(domain, cuts, rng.dirichlet(np.ones(36))) for _ in range(6)]
        )
        self.check(histograms, threshold_rows(rng, domain, 20, 3), 200)
        samples = Cohort(
            [random_sample(rng, n=300, domain=domain) for _ in range(6)]
        )
        self.check(samples, threshold_rows(rng, domain, 20, 3), 200)


class TestLossL2:
    def test_zero_at_full_cutoffs(self, rng):
        cuts = np.array([0.25, 0.5, 0.75])
        members = []
        for _ in range(4):
            w = rng.dirichlet(np.ones(4)) + 0.01
            members.append(Histogram(UNIT, cuts, w / w.sum()))
        cohort = Cohort(members)
        t = ThresholdSet(tuple(cuts))
        assert loss_l2(cohort, t, LossSpec(LossKind.L2, 64)) == 0.0

    def test_identical_members_zero(self, rng):
        h = random_histogram(rng, n_bins=5)
        cohort = Cohort([h, Histogram(h.domain, h.cutoffs, h.masses)])
        for t in (ThresholdSet((0.3,)), ThresholdSet((0.2, 0.9))):
            assert loss_l2(cohort, t, LossSpec(LossKind.L2, 40)) == 0.0

    def test_matches_pairwise_oracle(self, rng):
        members = [random_histogram(rng, n_bins=6) for _ in range(4)]
        cohort = Cohort(members)
        t = ThresholdSet((float(members[0].cutoffs[1]),))
        spec = LossSpec(LossKind.L2, 50)
        assert loss_l2(cohort, t, spec) == pytest.approx(brute_loss_l2(cohort, t, spec), abs=1e-12)

    def test_requires_two_members(self, rng):
        cohort = Cohort([random_histogram(rng)])
        with pytest.raises(ValueError, match="two"):
            loss_l2(cohort, ThresholdSet((0.5,)), LossSpec(LossKind.L2, 20))

    def test_cache_transparency(self, rng):
        members = [random_histogram(rng, n_bins=5) for _ in range(5)]
        t = ThresholdSet((0.5,))
        spec = LossSpec(LossKind.L2, 30)
        warm = Cohort(members)
        warm.pairwise_base_norms(30)
        cold = Cohort(members)
        assert loss_l2(warm, t, spec) == pytest.approx(loss_l2(cold, t, spec), abs=1e-12)


class TestBrayCurtis:
    def test_identity(self):
        assert bray_curtis([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_disjoint_support(self):
        assert bray_curtis([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_hand_sum(self):
        assert bray_curtis([0.6, 0.4], [0.4, 0.6]) == pytest.approx(0.2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bray_curtis([1.0], [0.5, 0.5])


class TestLossL2BrayCurtis:
    def _cohort(self, rng, n=3):
        cuts = np.array([0.25, 0.5, 0.75])
        return Cohort([Histogram(UNIT, cuts, rng.dirichlet(np.ones(4))) for _ in range(n)])

    def test_zero_at_full_cutoffs(self, rng):
        cohort = self._cohort(rng)
        t = ThresholdSet((0.25, 0.5, 0.75))
        assert loss_l2_braycurtis(cohort, t) == pytest.approx(0.0, abs=1e-30)

    def test_identical_members(self, rng):
        h = random_histogram(rng, n_bins=4)
        cohort = Cohort([h, Histogram(h.domain, h.cutoffs, h.masses)])
        assert loss_l2_braycurtis(cohort, ThresholdSet((float(h.cutoffs[0]),))) == 0.0

    def test_matches_pairwise_oracle(self, rng):
        cohort = self._cohort(rng)
        t = ThresholdSet((0.5,))
        assert loss_l2_braycurtis(cohort, t) == pytest.approx(brute_loss_bc(cohort, t), abs=1e-12)

    def test_rejects_sample_cohort(self, rng):
        cohort = Cohort([random_sample(rng), random_sample(rng)])
        with pytest.raises(ValueError, match="histogram"):
            loss_l2_braycurtis(cohort, ThresholdSet((0.5,)))


class TestMetricAxioms:
    def test_sqrt_wasserstein_is_metric_on_grids(self, rng):
        m = 30
        for _ in range(50):
            grids = [quantile_grid(random_histogram(rng, n_bins=5), m) for _ in range(3)]
            a, b, c = grids
            dab = np.sqrt(wasserstein_sq(a, b))
            dba = np.sqrt(wasserstein_sq(b, a))
            assert dab == dba
            assert wasserstein_sq(a, a) == 0.0
            dac = np.sqrt(wasserstein_sq(a, c))
            dcb = np.sqrt(wasserstein_sq(c, b))
            assert dab <= dac + dcb + 1e-9


class TestExtremeProperties:
    def test_monotone_optimum_in_k(self, rng):
        # Exhaustive minima over a small shared grid are non-increasing in K on
        # this instance.  The property is typical but not universal: linear
        # interpolation through more anchors can fit worse, and the acceptance
        # suite pins a verified counterexample (criterion 8).
        cuts = np.linspace(0.1, 0.9, 6)
        members = [Histogram(UNIT, cuts, rng.dirichlet(np.ones(7))) for _ in range(4)]
        cohort = Cohort(members)
        for kind in (LossKind.L1, LossKind.L2):
            spec = LossSpec(kind, 40)
            best = []
            for k in range(0, 5):
                losses = [
                    evaluate_loss(cohort, ThresholdSet(tuple(sub)), spec)
                    for sub in itertools.combinations(cuts, k)
                ]
                best.append(min(losses))
            assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best, best[1:]))

    def test_scale_consistency(self, rng):
        # Riemann-sum convergence: doubling M moves the loss by o(1/M) relatively.
        members = [random_histogram(rng, n_bins=8, positive=True) for _ in range(5)]
        cohort = Cohort(members)
        t = ThresholdSet((0.35, 0.7))
        m = 100
        v1 = loss_l1(cohort, t, LossSpec(LossKind.L1, m))
        v2 = loss_l1(cohort, t, LossSpec(LossKind.L1, 2 * m))
        assert abs(v2 - v1) / v1 < 2.0 / m
