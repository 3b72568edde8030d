import itertools

import numpy as np
import pytest

from optithresh.evaluation import (
    compare_thresholds,
    fit_univariate_logistic,
    tir_summary,
)
from optithresh.histograms import Domain, EmpiricalSample, Histogram, ThresholdSet, soft_amalgamate
from optithresh.losses import Cohort, LossKind, LossSpec, evaluate_loss

CGM = Domain(40.0, 401.0)


def sample_cohort(value_lists, domain=CGM):
    return Cohort(
        [
            EmpiricalSample(domain, np.asarray(vals, dtype=float), subject_id=f"s{i}")
            for i, vals in enumerate(value_lists)
        ]
    )


class TestTirSummary:
    def test_subject_within_band(self):
        cohort = sample_cohort([[100, 120, 150, 179]])
        summary = tir_summary(cohort, ThresholdSet((70.0, 181.0)))
        assert np.allclose(summary.per_subject[0], [0.0, 1.0, 0.0])
        assert summary.range_labels == ("<70", "70–180", ">=181")

    def test_consensus_set_shape(self):
        cohort = sample_cohort([[45, 60, 100, 200, 300], [100, 100, 100, 100]])
        summary = tir_summary(cohort, ThresholdSet((54.0, 70.0, 181.0, 251.0)))
        assert summary.per_subject.shape == (2, 5)
        assert np.allclose(summary.per_subject.sum(axis=1), 1.0)

    def test_matches_counting_oracle(self, rng):
        values = rng.integers(40, 401, size=500).astype(float)
        cohort = sample_cohort([values])
        t = ThresholdSet((70.0, 181.0, 251.0))
        summary = tir_summary(cohort, t)
        edges = [40.0, 70.0, 181.0, 251.0, 401.0]
        expected = [
            np.mean((values >= lo) & (values < hi)) for lo, hi in zip(edges, edges[1:])
        ]
        assert np.max(np.abs(summary.per_subject[0] - expected)) < 1e-12

    def test_histogram_members_match_sample_members(self, rng):
        from optithresh.ingestion import SubjectSeries, empirical_histogram

        values = rng.integers(40, 401, size=400).astype(float)
        series = SubjectSeries("s", tuple(np.arange(400) * 300.0), tuple(values))
        hist_cohort = Cohort([empirical_histogram(series)])
        samp_cohort = sample_cohort([values])
        t = ThresholdSet((70.0, 181.0))
        a = tir_summary(hist_cohort, t).per_subject
        b = tir_summary(samp_cohort, t).per_subject
        assert np.max(np.abs(a - b)) < 1e-12


def per_member_tir(cohort, t):
    """Time in range one member at a time: each histogram softly amalgamated,
    each sample counted with ranges closed on the left."""
    rows = []
    for member in cohort.members:
        if isinstance(member, Histogram):
            rows.append(soft_amalgamate(member, t).masses)
        else:
            counts = np.searchsorted(member.sorted_values, t.values, side="left")
            rows.append(np.diff(np.concatenate(([0], counts, [member.n]))) / member.n)
    return np.vstack(rows)


def thresholds_near(rng, domain, points):
    """Sorted distinct thresholds inside ``domain``: some of ``points``, values one ulp
    either side of them, and uniform draws."""
    picks = rng.choice(points, size=min(3, len(points)), replace=False)
    steps = rng.integers(-1, 2, size=picks.size)  # one ulp down, none or one ulp up
    near = [p if step == 0 else np.nextafter(p, step * np.inf) for p, step in zip(picks, steps)]
    uniform = domain.lower + rng.uniform(0.0, 1.0, size=2) * (domain.upper - domain.lower)
    values = sorted({float(v) for v in [*near, *uniform] if domain.lower < v < domain.upper})
    return ThresholdSet(tuple(values[: rng.integers(0, len(values) + 1)]))


class TestTirSummaryDifferential:
    """``tir_summary`` reads the kernel's anchor tables; per member it is bitwise the
    soft amalgamation of a histogram and the count of a sample."""

    @pytest.mark.parametrize("lower", [0.0, 40.0, 1e7, -1e9, 1e12])
    @pytest.mark.parametrize("kind", ["shared", "unshared", "sample"])
    def test_matches_each_member_on_its_own(self, rng, lower, kind):
        domain = Domain(lower, lower + 360.0)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            if kind == "sample":
                members = [EmpiricalSample(domain, lower + np.round(rng.uniform(0, 360, size=40)))
                           for _ in range(n)]
                points = np.concatenate([m.sorted_values for m in members])
            else:
                shared = np.sort(rng.choice(np.arange(1.0, 360.0), size=12, replace=False))
                members = []
                for _ in range(n):
                    cuts = shared if kind == "shared" else np.sort(rng.choice(np.arange(1.0, 360.0), 12, False))
                    masses = rng.dirichlet(np.ones(13))
                    masses[rng.random(13) < 0.3] = 0.0
                    masses = masses / masses.sum() if masses.sum() else np.eye(13)[6]
                    members.append(Histogram(domain, lower + cuts, masses))
                points = np.concatenate([m.cutoffs for m in members])
            cohort = Cohort(members)
            t = thresholds_near(rng, domain, points)
            got = tir_summary(cohort, t).per_subject
            assert got.tobytes() == per_member_tir(cohort, t).tobytes(), t


class TestLogistic:
    def test_perfect_separation(self):
        x = np.array([0.1, 0.15, 0.2, 0.25, 0.55, 0.6, 0.7, 0.8])
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        res = fit_univariate_logistic(x, y)
        assert res.accuracy == 1.0
        assert 0.25 < res.decision_boundary <= 0.55

    def test_symmetric_interleaved_boundary_near_half(self, rng):
        x0 = rng.uniform(0.2, 0.65, size=200)
        x1 = rng.uniform(0.35, 0.8, size=200)
        x = np.concatenate((x0, x1))
        y = np.concatenate((np.zeros(200, int), np.ones(200, int)))
        res = fit_univariate_logistic(x, y)
        assert abs(res.decision_boundary - 0.5) < 0.05
        # Oracle: profile the log-likelihood over a (boundary, slope) grid.
        def loglik(boundary, slope):
            z = slope * (x - boundary)
            return np.sum(np.where(y == 1, -np.logaddexp(0, -z), -np.logaddexp(0, z)))

        boundaries = np.linspace(0.2, 0.8, 121)
        slopes = np.array([1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0])
        profiled = [max(loglik(b, s) for s in slopes) for b in boundaries]
        oracle_boundary = boundaries[int(np.argmax(profiled))]
        assert abs(oracle_boundary - res.decision_boundary) < 0.05

    def test_uninformative_feature(self, rng):
        x = rng.uniform(0, 1, size=300)
        y = (rng.random(300) < 0.6).astype(int)
        if len(np.unique(y)) < 2:
            y[0] = 0
            y[1] = 1
        res = fit_univariate_logistic(x, y)
        prevalence = max(y.mean(), 1 - y.mean())
        assert abs(res.accuracy - prevalence) < 0.06

    def test_boundary_consistency(self, rng):
        x = np.clip(rng.normal(0.5, 0.2, size=100), 0, 1)
        y = (x + rng.normal(0, 0.1, size=100) > 0.5).astype(int)
        if len(np.unique(y)) < 2:
            pytest.skip("degenerate draw")
        res = fit_univariate_logistic(x, y)
        z = res.intercept + res.slope * x
        reproduced = float(np.mean((z >= 0).astype(int) == y))
        assert reproduced == res.accuracy
        if res.decision_boundary is not None and res.slope != 0:
            assert res.decision_boundary == pytest.approx(-res.intercept / res.slope)

    def test_errors(self):
        with pytest.raises(ValueError, match="both classes"):
            fit_univariate_logistic([0.1, 0.2], [1, 1])
        with pytest.raises(ValueError, match="proportions"):
            fit_univariate_logistic([0.1, 1.2], [0, 1])
        with pytest.raises(ValueError):
            fit_univariate_logistic([], [])


class TestCompareThresholds:
    def _two_groups(self, rng, n=12):
        # Group B sits strictly above group A at every quantile.
        group_a = [rng.uniform(50.0, 160.0, size=300) for _ in range(n)]
        group_b = [
            np.concatenate(
                (
                    rng.uniform(165.0, 250.0, size=180),
                    rng.uniform(250.0, 390.0, size=120),
                )
            )
            for _ in range(n)
        ]
        return sample_cohort(group_a), sample_cohort(group_b)

    def test_reference_vs_itself_gives_zero_reduction(self, rng):
        a, b = self._two_groups(rng)
        t = ThresholdSet((70.0, 181.0))
        report = compare_thresholds(a, b, [t], LossSpec(LossKind.L2, 100))
        assert report.entries[0].reduction_l1_pct == 0.0
        assert report.entries[0].reduction_l2_pct == 0.0

    def test_separated_construction_classifies_perfectly(self, rng):
        a, b = self._two_groups(rng)
        t = ThresholdSet((162.0, 250.0))
        report = compare_thresholds(a, b, [ThresholdSet((70.0, 181.0)), t])
        top = report.entries[1].components[-1]
        middle = report.entries[1].components[1]
        assert top.classifier.accuracy == 1.0
        assert middle.classifier.accuracy == 1.0

    def test_markdown_shape(self, rng):
        a, b = self._two_groups(rng, n=4)
        report = compare_thresholds(a, b, [ThresholdSet((70.0, 181.0))])
        text = report.to_markdown()
        assert "| Range | Decision Boundary | Accuracy (%) |" in text
        assert "70–180" in text

    def test_domain_mismatch(self, rng):
        a = sample_cohort([[50.0, 60.0]], domain=Domain(40.0, 401.0))
        b = sample_cohort([[50.0, 60.0]], domain=Domain(40.0, 400.0))
        with pytest.raises(ValueError, match="domain"):
            compare_thresholds(a, b, [ThresholdSet((70.0,))])

    def test_monotone_refinement(self, rng):
        # Adding an optimally chosen threshold does not hurt either loss on this
        # instance (not universal; see the acceptance suite's criterion-8
        # counterexample).
        a, b = self._two_groups(rng, n=5)
        combined = Cohort(tuple(a.members) + tuple(b.members))
        grid = [70.0, 120.0, 162.0, 200.0, 250.0, 300.0]
        for kind in (LossKind.L1, LossKind.L2):
            spec = LossSpec(kind, 60)
            for k in (1, 2):
                best_k = min(
                    evaluate_loss(combined, ThresholdSet(c), spec)
                    for c in itertools.combinations(grid, k)
                )
                best_k1 = min(
                    evaluate_loss(combined, ThresholdSet(c), spec)
                    for c in itertools.combinations(grid, k + 1)
                )
                assert best_k1 <= best_k + 1e-12
