import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optithresh.histograms import (
    Domain,
    EmpiricalSample,
    Histogram,
    ThresholdSet,
    amalgamate,
    build_histogram,
    cdf_at,
    empirical_quantile,
    linearized_quantile_grid,
    probability_grid,
    quantile_at,
    quantile_grid,
    soft_amalgamate,
)

from conftest import random_histogram

UNIT = Domain(0.0, 1.0)


class TestDomain:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Domain(1.0, 1.0)
        with pytest.raises(ValueError):
            Domain(2.0, 1.0)

    def test_width(self):
        assert Domain(40.0, 401.0).width == 361.0


class TestHistogramValidation:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Histogram(UNIT, [0.5], [0.6, 0.5])

    def test_mass_count_must_match_cutoffs(self):
        with pytest.raises(ValueError, match="masses"):
            Histogram(UNIT, [0.5], [1.0])

    def test_cutoffs_strictly_inside_domain(self):
        with pytest.raises(ValueError, match="inside"):
            Histogram(UNIT, [0.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="increasing"):
            Histogram(UNIT, [0.5, 0.5], [0.2, 0.3, 0.5])

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Histogram(UNIT, [0.5], [1.1, -0.1])


class TestBuildHistogram:
    def test_symmetric_counts(self):
        sample = EmpiricalSample(Domain(40.0, 401.0), [40, 40, 400, 400])
        h = build_histogram(sample, [70.0])
        assert np.allclose(h.masses, [0.5, 0.5])

    def test_forced_by_counting(self):
        sample = EmpiricalSample(Domain(40.0, 401.0), [50, 60, 80])
        h = build_histogram(sample, [70.0, 181.0])
        assert np.allclose(h.masses, [2 / 3, 1 / 3, 0.0])

    def test_uniform_draws_match_direct_counting(self, rng):
        # Oracle: direct counting of the same draws.
        values = rng.uniform(40.0, 400.0, size=1000)
        sample = EmpiricalSample(Domain(40.0, 400.0), values)
        h = build_histogram(sample, [220.0])
        below = float(np.sum(values < 220.0)) / 1000
        assert h.masses[0] == pytest.approx(below, abs=0)
        assert abs(h.masses[0] - 0.5) < 0.05

    def test_cutoff_value_goes_to_upper_bin(self):
        sample = EmpiricalSample(UNIT, [0.5])
        h = build_histogram(sample, [0.5])
        assert np.allclose(h.masses, [0.0, 1.0])

    def test_invalid_cutoffs(self):
        sample = EmpiricalSample(UNIT, [0.5])
        with pytest.raises(ValueError):
            build_histogram(sample, [1.5])
        with pytest.raises(ValueError):
            build_histogram(sample, [0.6, 0.4])

    def test_empty_sample_rejected_at_construction(self):
        with pytest.raises(ValueError):
            EmpiricalSample(UNIT, [])


class TestCdf:
    def test_uniform_density(self):
        h = Histogram(UNIT, [], [1.0])
        assert cdf_at(h, 0.25) == pytest.approx(0.25)

    def test_bin_boundary(self):
        h = Histogram(UNIT, [0.5], [0.5, 0.5])
        assert cdf_at(h, 0.5) == pytest.approx(0.5)

    def test_hand_integration(self):
        # F(0.75) = 0.2 + 0.8 * 0.5 integrated by hand.
        h = Histogram(UNIT, [0.5], [0.2, 0.8])
        assert cdf_at(h, 0.75) == pytest.approx(0.6)

    def test_endpoints(self):
        h = Histogram(UNIT, [0.5], [0.2, 0.8])
        assert cdf_at(h, 0.0) == 0.0
        assert cdf_at(h, 1.0) == 1.0

    def test_outside_domain_rejected(self):
        h = Histogram(UNIT, [], [1.0])
        with pytest.raises(ValueError):
            cdf_at(h, 1.5)


class TestQuantile:
    def test_uniform(self):
        h = Histogram(UNIT, [], [1.0])
        assert quantile_at(h, 0.3) == pytest.approx(0.3)

    def test_inverse_of_cdf_example(self):
        h = Histogram(UNIT, [0.5], [0.2, 0.8])
        assert quantile_at(h, 0.6) == pytest.approx(0.75)

    def test_infimum_convention_on_zero_mass_top_bin(self):
        h = Histogram(UNIT, [0.5], [1.0, 0.0])
        assert quantile_at(h, 1.0) == 0.5

    def test_one_ulp_bin_keeps_its_mass(self):
        # Interpolating inside a bin one ulp wide rounds down to its left edge,
        # where the CDF has not yet gained the bin's 0.4 mass.
        cut = 0.01
        h = Histogram(UNIT, [cut, np.nextafter(cut, 1.0), 0.5], [0.2, 0.4, 0.0, 0.4])
        q = quantile_at(h, 0.25)
        assert q == np.nextafter(cut, 1.0)
        assert cdf_at(h, q) >= 0.25
        assert cdf_at(h, np.nextafter(q, 0.0)) < 0.25

    def test_pinned_ulp_in_zero_mass_top_bin(self):
        # These masses sum to one ulp below 1, and pinning the cumulative to 1
        # puts that ulp into the zero-mass top bin.
        h = Histogram(UNIT, [0.25, 0.375, 0.4375, 0.5], np.array([4, 3, 4, 1, 0]) / 12)
        p = cdf_at(h, 0.75)
        assert quantile_at(h, p) <= 0.75

    def test_rejects_out_of_range(self):
        h = Histogram(UNIT, [], [1.0])
        with pytest.raises(ValueError):
            quantile_at(h, 1.2)


class TestQuantileGrid:
    def test_single_bin_grid(self):
        h = Histogram(UNIT, [], [1.0])
        g = quantile_grid(h, 3)
        assert np.allclose(g.values, [0.25, 0.5, 0.75])

    def test_sample_order_statistic(self):
        # ceil(0.5 * 4) = 2nd order statistic, by hand.
        s = EmpiricalSample(Domain(0.0, 100.0), [10, 20, 30, 40])
        g = quantile_grid(s, 1)
        assert g.values[0] == 20

    def test_shape_and_monotonicity(self, rng):
        h = random_histogram(rng, n_bins=8)
        g = quantile_grid(h, 200)
        assert g.grid_size == 200
        assert g.values.size == 200
        assert np.all(np.diff(g.values) >= 0)

    def test_grid_size_validation(self):
        h = Histogram(UNIT, [], [1.0])
        with pytest.raises(ValueError):
            quantile_grid(h, 0)

    def test_probability_grid(self):
        assert np.allclose(probability_grid(3), [0.25, 0.5, 0.75])


class TestEmpiricalQuantile:
    def test_examples(self):
        s = EmpiricalSample(Domain(0.0, 100.0), [10, 20, 30, 40])
        assert empirical_quantile(s, 0.5) == 20
        assert empirical_quantile(s, 0.0) == 10
        assert empirical_quantile(s, 1.0) == 40
        assert empirical_quantile(s, 0.500001) == 30


class TestAmalgamate:
    def test_partial_sums(self):
        h = Histogram(UNIT, [0.2, 0.5, 0.8], [0.2, 0.3, 0.4, 0.1])
        out = amalgamate(h, ThresholdSet((0.5,)))
        assert np.allclose(out.masses, [0.5, 0.5])
        assert out.cutoffs.tolist() == [0.5]

    def test_keep_all_is_identity(self):
        h = Histogram(UNIT, [0.2, 0.5, 0.8], [0.2, 0.3, 0.4, 0.1])
        out = amalgamate(h, ThresholdSet((0.2, 0.5, 0.8)))
        assert np.array_equal(out.masses, h.masses)
        assert np.array_equal(out.cutoffs, h.cutoffs)

    def test_keep_none_gives_single_bin(self):
        h = Histogram(UNIT, [0.2, 0.5, 0.8], [0.2, 0.3, 0.4, 0.1])
        out = amalgamate(h, ThresholdSet(()))
        assert out.masses.size == 1
        assert out.masses[0] == pytest.approx(1.0, abs=1e-12)

    def test_non_member_threshold_rejected(self):
        h = Histogram(UNIT, [0.2, 0.5, 0.8], [0.2, 0.3, 0.4, 0.1])
        with pytest.raises(ValueError, match="not cutoffs"):
            amalgamate(h, ThresholdSet((0.3,)))


class TestSoftAmalgamate:
    def test_uniform_split(self):
        h = Histogram(UNIT, [], [1.0])
        out = soft_amalgamate(h, ThresholdSet((0.25,)))
        assert np.allclose(out.masses, [0.25, 0.75])

    def test_matches_amalgamate_on_subsets(self, rng):
        for _ in range(20):
            h = random_histogram(rng, n_bins=7, positive=False)
            keep = sorted(rng.choice(h.cutoffs, size=3, replace=False))
            t = ThresholdSet(tuple(keep))
            hard = amalgamate(h, t)
            soft = soft_amalgamate(h, t)
            assert np.max(np.abs(hard.masses - soft.masses)) < 1e-12

    def test_hand_integration(self):
        h = Histogram(UNIT, [0.5], [0.2, 0.8])
        out = soft_amalgamate(h, ThresholdSet((0.75,)))
        assert np.allclose(out.masses, [0.6, 0.4])

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ThresholdSet((0.75, 0.25))


class TestLinearizedQuantileGrid:
    def test_single_bin_is_identity(self):
        h = Histogram(UNIT, [], [1.0])
        g = linearized_quantile_grid(h, ThresholdSet((0.5,)), 3)
        assert np.allclose(g.values, [0.25, 0.5, 0.75])

    def test_full_resolution_identity(self, rng):
        for _ in range(10):
            h = random_histogram(rng, n_bins=6, positive=True)
            t = ThresholdSet(tuple(h.cutoffs))
            lin = linearized_quantile_grid(h, t, 64)
            base = quantile_grid(h, 64)
            assert np.array_equal(lin.values, base.values)

    def test_hand_evaluated_interpolation(self):
        h = Histogram(UNIT, [0.4, 0.6], [0.2, 0.3, 0.5])
        g = linearized_quantile_grid(h, ThresholdSet((0.6,)), 3)
        # Interpolating (0,0), (0.5,0.6), (1,1) at u = 0.25, 0.5, 0.75.
        assert np.allclose(g.values, [0.3, 0.6, 0.8], atol=1e-12)
        # Cross-check against the soft-amalgamation route.
        alt = quantile_grid(soft_amalgamate(h, ThresholdSet((0.6,))), 3)
        assert np.allclose(g.values, alt.values, atol=1e-12)

    def test_sample_source(self):
        s = EmpiricalSample(Domain(0.0, 100.0), [10.0, 20.0, 30.0, 40.0])
        g = linearized_quantile_grid(s, ThresholdSet((25.0,)), 3)
        # Anchors (0,10), (0.5,20), (1,40): u=0.25 -> 15, u=0.5 -> 20, u=0.75 -> 30.
        assert np.allclose(g.values, [15.0, 20.0, 30.0])

    def test_invalid_thresholds(self):
        h = Histogram(UNIT, [], [1.0])
        with pytest.raises(ValueError):
            linearized_quantile_grid(h, ThresholdSet((2.0,)), 3)
        with pytest.raises(ValueError):
            linearized_quantile_grid(h, ThresholdSet((0.5,)), 0)


class TestThresholdSet:
    def test_fixed_subset_enforced(self):
        with pytest.raises(ValueError, match="subset"):
            ThresholdSet((1.0, 2.0), fixed=(3.0,))

    def test_ordered_constructor(self):
        t = ThresholdSet.ordered([3.0, 1.0, 2.0], fixed=[2.0])
        assert t.thresholds == (1.0, 2.0, 3.0)
        assert t.fixed == (2.0,)


@st.composite
def histograms(draw, n_bins_max=8, positive=False):
    n_bins = draw(st.integers(min_value=1, max_value=n_bins_max))
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=0.99),
            min_size=n_bins - 1,
            max_size=n_bins - 1,
            unique=True,
        )
    )
    cuts = np.sort(np.asarray(raw))
    low = 0.01 if positive else 0.0
    weights = draw(
        st.lists(st.floats(min_value=low, max_value=1.0), min_size=n_bins, max_size=n_bins)
    )
    weights = np.asarray(weights)
    if weights.sum() <= 0:
        weights = np.ones(n_bins)
    masses = weights / weights.sum()
    return Histogram(UNIT, cuts, masses)


@st.composite
def interior_thresholds(draw, k_max=4):
    k = draw(st.integers(min_value=1, max_value=k_max))
    vals = draw(
        st.lists(
            st.floats(min_value=0.02, max_value=0.98), min_size=k, max_size=k, unique=True
        )
    )
    return ThresholdSet(tuple(sorted(vals)))


class TestProperties:
    @given(h=histograms(), t=interior_thresholds())
    @settings(max_examples=60, deadline=None)
    def test_mass_conservation(self, h, t):
        soft = soft_amalgamate(h, t)
        assert abs(float(soft.masses.sum()) - 1.0) <= 1e-12

    @given(h=histograms(positive=True), t=interior_thresholds(), m=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_two_route_equivalence(self, h, t, m):
        lin = linearized_quantile_grid(h, t, m)
        alt = quantile_grid(soft_amalgamate(h, t), m)
        assert np.max(np.abs(lin.values - alt.values)) < 1e-9

    @given(h=histograms(), t=interior_thresholds(), m=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_grids_monotone(self, h, t, m):
        for grid in (quantile_grid(h, m), linearized_quantile_grid(h, t, m)):
            assert np.all(np.diff(grid.values) >= 0)

    @given(h=histograms(positive=True), t=interior_thresholds(), m=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_idempotence(self, h, t, m):
        once = linearized_quantile_grid(h, t, m)
        again = linearized_quantile_grid(soft_amalgamate(h, t), t, m)
        assert np.max(np.abs(once.values - again.values)) <= 1e-12

    @given(h=histograms(), p=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_generalized_inverse_axioms(self, h, p):
        # Round-tripping through F and q amplifies one ulp of cumulative mass
        # by the inverse density, so the tolerance scales with width/mass of
        # the worst-conditioned bin.
        widths = np.diff(h.edges)
        positive = h.masses > 0
        with np.errstate(over="ignore"):
            conditioning = float(np.max(widths[positive] / h.masses[positive]))
        tol = 1e-12 + min(8 * np.finfo(float).eps * conditioning, h.domain.width)
        q = quantile_at(h, p)
        assert cdf_at(h, q) >= p - tol
        x = h.domain.lower + p * h.domain.width
        assert quantile_at(h, cdf_at(h, x)) <= x + tol
