from math import inf, nan

import numpy as np
import pytest

from optithresh import simulation
from optithresh.histograms import Domain, ThresholdSet, quantile_grid
from optithresh.losses import LossKind, LossSpec, evaluate_loss
from optithresh.optimizers import exhaustive_search
from optithresh.simulation import (
    MixtureSpec,
    WeightScheme,
    generate_cohort,
    run_benchmark,
    sample_dirichlet,
    sample_truncated_normal,
)

SMALL = MixtureSpec(n_subjects=8, obs_per_subject=300)


class BoundedDraws:
    """A generator of standard normal draws that fails, instead of hanging, after many."""

    def __init__(self, rng, limit=10_000):
        self.rng, self.left = rng, limit

    def standard_normal(self):
        self.left -= 1
        if self.left < 0:
            pytest.fail("rejection sampling drew without end")
        return self.rng.standard_normal()


class TestTruncatedNormal:
    def test_zero_sd_short_circuits(self, rng):
        assert sample_truncated_normal(0.0, 30.0, rng) == 0.0

    def test_sample_sd_close_to_nominal(self, rng):
        draws = np.array([sample_truncated_normal(5.0, 30.0, rng) for _ in range(10_000)])
        assert 4.8 <= draws.std() <= 5.2

    def test_truncation_contract(self, rng):
        draws = [sample_truncated_normal(10.0, 30.0, rng) for _ in range(2000)]
        assert np.max(np.abs(draws)) <= 30.0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            sample_truncated_normal(-1.0, 30.0, rng)
        with pytest.raises(ValueError):
            sample_truncated_normal(1.0, 0.0, rng)

    @pytest.mark.parametrize(
        "sd, bound, name",
        [(nan, 30.0, "sd"), (inf, 30.0, "sd"), (-inf, 30.0, "sd"), (1.0, nan, "bound"), (1.0, inf, "bound"),
         (0.0, nan, "bound"), (1e300, 30.0, "bound"), (1.0, 1e-300, "bound")],
    )
    def test_rejects_non_finite_parameters(self, rng, sd, bound, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            sample_truncated_normal(sd, bound, BoundedDraws(rng))


class TestDirichlet:
    def test_simplex_membership(self, rng):
        draw = sample_dirichlet([1.0, 1.0], rng)
        assert np.all(draw >= 0)
        assert draw.sum() == pytest.approx(1.0)

    def test_mean_matches_normalized_alpha(self, rng):
        alpha = 20.0 * np.array([0.3, 0.4, 0.2, 0.1])
        draws = np.array([sample_dirichlet(alpha, rng) for _ in range(10_000)])
        assert np.max(np.abs(draws.mean(axis=0) - alpha / alpha.sum())) < 0.02

    def test_concentration_limit(self, rng):
        draws = np.array([sample_dirichlet([1e6, 1e6], rng) for _ in range(100)])
        assert np.max(np.abs(draws - 0.5)) < 0.01

    def test_rejects_non_positive_alpha(self, rng):
        with pytest.raises(ValueError):
            sample_dirichlet([1.0, 0.0], rng)


class TestMixtureSpec:
    def test_defaults_match_reference_setup(self):
        spec = MixtureSpec()
        assert spec.base_thresholds == (70.0, 180.0, 250.0)
        assert spec.domain == Domain(40.0, 400.0)
        assert len(spec.histogram_cutoffs) == 179  # 180 bins
        assert spec.histogram_cutoffs[0] == 42.0
        assert spec.histogram_cutoffs[-1] == 398.0

    def test_truncation_ordering_guard(self):
        with pytest.raises(ValueError, match="half the minimum gap"):
            MixtureSpec(base_thresholds=(70.0, 120.0, 250.0), noise_truncation=30.0)
        with pytest.raises(ValueError, match="outside the domain"):
            MixtureSpec(base_thresholds=(60.0, 180.0, 250.0), noise_truncation=30.0)

    @pytest.mark.parametrize(
        "field, value",
        [("noise_sd", nan), ("noise_sd", inf), ("noise_sd", -inf), ("noise_truncation", nan),
         ("noise_truncation", inf)],
    )
    def test_rejects_non_finite_noise(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            MixtureSpec(**{field: value})

    @pytest.mark.parametrize("cuts", [(nan,), (50.0, nan, 300.0), (50.0, 300.0, nan), (50.0, inf)])
    def test_rejects_non_finite_cutoffs(self, cuts):
        with pytest.raises(ValueError, match="histogram_cutoffs must be finite"):
            MixtureSpec(histogram_cutoffs=cuts)

    @pytest.mark.parametrize("field", ["n_subjects", "obs_per_subject"])
    @pytest.mark.parametrize("value", [2.5, True], ids=["fraction", "bool"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer of at least 1, got {value!r}$"):
            MixtureSpec(**{field: value})

    def test_whole_float_counts_are_stored_as_ints(self):
        spec = MixtureSpec(n_subjects=8.0, obs_per_subject=300.0)
        assert (type(spec.n_subjects), type(spec.obs_per_subject)) == (int, int)
        assert spec == SMALL


class TestGenerateCohort:
    def test_noiseless_support_and_breaks(self):
        empirical, binned = generate_cohort(SMALL, seed=1)
        for sample in empirical.members:
            assert sample.values.min() >= 40.0
            assert sample.values.max() <= 400.0
        assert binned.shared_cutoffs is not None
        assert binned.members[0].masses.size == 180

    def test_setting2_fixed_top_mass(self):
        spec = MixtureSpec(
            weight_scheme=WeightScheme.SETTING_2, n_subjects=6, obs_per_subject=1000
        )
        empirical, _ = generate_cohort(spec, seed=3)
        for sample in empirical.members:
            above = float(np.mean(sample.values >= 180.0))
            assert abs(above - 0.3) <= 0.05

    def test_determinism(self):
        e1, b1 = generate_cohort(SMALL, seed=7)
        e2, b2 = generate_cohort(SMALL, seed=7)
        for s1, s2 in zip(e1.members, e2.members):
            assert np.array_equal(s1.values, s2.values)
        for h1, h2 in zip(b1.members, b2.members):
            assert np.array_equal(h1.masses, h2.masses)

    def test_subjects_independent_of_cohort_size(self):
        small, _ = generate_cohort(SMALL, seed=7)
        large, _ = generate_cohort(
            MixtureSpec(n_subjects=12, obs_per_subject=300), seed=7
        )
        for i in range(8):
            assert np.array_equal(small.members[i].values, large.members[i].values)

    def test_setting2_quantiles_agree_above_the_fixed_weights(self):
        # With the top two weights fixed, subjects differ below p=0.7 but agree
        # above it up to sampling noise: the per-point spread stays within the
        # binomial quantile-noise envelope sqrt(u(1-u)/N) / density(u).
        n_obs = 1000
        spec = MixtureSpec(
            weight_scheme=WeightScheme.SETTING_2, n_subjects=20, obs_per_subject=n_obs
        )
        empirical, _ = generate_cohort(spec, seed=5)
        grids = np.vstack([quantile_grid(m, 200).values for m in empirical.members])
        u = np.arange(1, 201) / 201
        sd = grids.std(axis=0)
        high = (u > 0.75) & (u < 0.99)
        density = np.where(u < 0.9 - 0.02, 0.2 / 70.0, 0.1 / 150.0)
        envelope = np.sqrt(u * (1 - u) / n_obs) / density
        assert np.all(sd[high] <= 2.0 * envelope[high] + 1.0)
        assert sd[u < 0.6].max() > 15.0


class TestNoiselessOptimum:
    def test_base_thresholds_minimize_on_subgrid(self):
        # Exhaustive search over a small cutoff grid containing the base
        # thresholds lands exactly on them in the noiseless case.
        spec = MixtureSpec(
            n_subjects=12,
            obs_per_subject=1000,
            histogram_cutoffs=(70.0, 110.0, 150.0, 180.0, 215.0, 250.0, 320.0),
        )
        _, binned = generate_cohort(spec, seed=9)
        ls = LossSpec(LossKind.L1, 100)
        res = exhaustive_search(binned, 3, ls)
        assert res.thresholds.thresholds == (70.0, 180.0, 250.0)
        base_loss = evaluate_loss(binned, ThresholdSet((70.0, 180.0, 250.0)), ls)
        assert base_loss - res.loss <= 1e-9


class TestRunBenchmark:
    def test_single_rep_has_no_standard_errors(self):
        report = run_benchmark(
            SMALL, ["oracle", "ss"], [LossSpec(LossKind.L1, 50)], k=3, reps=1, seeds=11
        )
        assert all(row.se_loss is None and row.se_thresholds is None for row in report.rows)
        assert {row.method for row in report.rows} == {"oracle", "ss"}

    def test_noise_levels_produce_rows_per_method(self):
        report = run_benchmark(
            SMALL,
            ["oracle"],
            [LossSpec(LossKind.L1, 50)],
            k=3,
            reps=2,
            seeds=4,
            noise_levels=[0.0, 5.0],
        )
        noises = sorted({row.noise_sd for row in report.rows})
        assert noises == [0.0, 5.0]
        assert len(report.replications) == 4

    def test_deterministic(self):
        kwargs = dict(
            methods=["oracle", "paa"],
            loss_specs=[LossSpec(LossKind.L2, 50)],
            k=2,
            reps=2,
            seeds=21,
        )
        r1 = run_benchmark(SMALL, **kwargs)
        r2 = run_benchmark(SMALL, **kwargs)
        assert r1 == r2

    def test_rejects_bray_curtis_loss_spec(self):
        with pytest.raises(ValueError, match="PAA"):
            run_benchmark(
                SMALL, ["sa"], [LossSpec(LossKind.L2_BRAY_CURTIS)], k=2, reps=1, seeds=0
            )

    def test_rejects_a_non_finite_noise_level_before_any_replication(self, monkeypatch):
        monkeypatch.setattr(simulation, "_replication_records", lambda *args: pytest.fail("ran a replication"))
        with pytest.raises(ValueError, match="noise_sd must be finite"):
            run_benchmark(
                SMALL, ["oracle"], [LossSpec(LossKind.L1, 50)], k=3, reps=1, seeds=0, noise_levels=[0.0, nan]
            )

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown benchmark method"):
            run_benchmark(SMALL, ["annealing"], [LossSpec(LossKind.L1)], k=2, reps=1, seeds=0)

    @pytest.mark.parametrize(
        "methods, losses, noise_levels, message",
        [
            ([], [LossSpec(LossKind.L1)], None, "methods must name at least one"),
            (["oracle"], [LossSpec(LossKind.L1)], [], "noise_levels must hold at least one"),
            (["sa"], [], None, "losses must name at least one loss"),
            (["paa", "ss"], [], None, "losses must name at least one loss"),
        ],
        ids=["no-method", "no-noise-level", "no-loss", "no-loss-beside-paa"],
    )
    def test_rejects_an_empty_request_before_any_cohort(self, monkeypatch, methods, losses, noise_levels, message):
        monkeypatch.setattr(simulation, "generate_cohort", lambda *args: pytest.fail("drew a cohort"))
        with pytest.raises(ValueError, match=message):
            run_benchmark(SMALL, methods, losses, k=2, reps=1, seeds=0, noise_levels=noise_levels)

    def test_paa_alone_needs_no_loss(self):
        report = run_benchmark(SMALL, ["paa"], [], k=2, reps=1, seeds=3)
        assert [row.method for row in report.rows] == ["paa"]
