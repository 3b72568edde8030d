import importlib.machinery
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import types
from pathlib import Path

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


def inplace_segment_costs(scorer, start, end):
    """``_L1Scorer.segment_costs`` evaluated in place, operation by operation."""
    count = end.idx - start.idx
    c = count.astype(np.longdouble)
    e, d = start.first, start.centred
    h = np.longdouble(1.0) / scorer._width
    hj = c - 1
    hj *= c
    hj *= h / 2
    s_w = c * e
    s_w += hj
    s_ww = s_w + hj
    s_ww *= e
    tail = c * 2
    tail -= 1
    tail *= hj
    tail *= h / 3
    s_ww += tail
    s_q = end.s_q - start.s_q
    s_wq = np.subtract(end.s_uq, start.s_uq, out=hj)
    s_wq -= np.multiply(start.p, s_q, out=tail)
    has_points = count > 0
    slope = np.subtract(end.v, start.v, out=tail)
    np.divide(slope, end.p - start.p, out=slope, where=has_points)
    slope[~has_points] = 0.0
    c *= d
    s_q *= 2
    c -= s_q
    c *= d
    s_w *= d
    s_w -= s_wq
    s_w *= 2
    s_ww *= slope
    s_ww += s_w
    s_ww *= slope
    cost = np.subtract(end.s_qq, start.s_qq, out=s_q)
    cost += c
    cost += s_ww
    return cost


class TestL1Scorer:
    """The search scorer against ``_loss_batch``, which reported losses come from."""

    def test_segment_costs_bitwise_the_in_place_form(self, rng):
        from optithresh.losses import _anchor_rows

        far = Domain(1e12, 1e12 + 400.0)
        cuts = np.linspace(0.0, 1.0, 11)[1:-1]
        sparse = []
        for _ in range(6):
            masses = rng.dirichlet(np.ones(10))
            masses[[0, 1, 8, 9]] = 0.0  # tied anchors at probabilities 0 and 1
            sparse.append(Histogram(UNIT, cuts, masses / masses.sum()))
        cases = [
            (Cohort([random_sample(rng, n=int(rng.integers(1, 40))) for _ in range(7)]), UNIT),
            (Cohort(sparse), UNIT),
            (Cohort([random_sample(rng, n=60, domain=far) for _ in range(5)]), far),
            (Cohort([random_histogram(rng, n_bins=9, domain=far) for _ in range(5)]), far),
        ]
        empty = tied = 0
        for cohort, domain in cases:
            for grid_size in (3, 40):
                scorer = cohort._l1_scorer(grid_size)
                t = threshold_rows(rng, domain, 25, 4)
                p, v = (np.moveaxis(x, -1, 0).copy() for x in _anchor_rows(cohort, t))
                a = scorer.anchors(np.arange(cohort.n), p, v)
                start, end = a[:-1], a[1:]
                got = scorer.segment_costs(start, end)
                want = inplace_segment_costs(scorer, start, end)
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
                empty += int(np.sum(end.idx == start.idx))
                tied += int(np.sum(end.p == start.p))
        assert empty > 0 and tied > 0

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


def blocked_cohorts(rng, n):
    """Sample, shared-cutoff and unshared-histogram cohorts of n members on [40, 400]."""
    domain = Domain(40.0, 400.0)
    cuts = np.arange(45.0, 400.0, 5.0)
    samples = [EmpiricalSample(domain, rng.uniform(40, 400, size=int(rng.integers(20, 300))))
               for _ in range(n)]
    shared = [Histogram(domain, cuts, rng.dirichlet(np.ones(cuts.size + 1))) for _ in range(n)]
    unshared = [random_histogram(rng, n_bins=int(rng.integers(4, 30)), domain=domain)
                for _ in range(n)]
    return {"sample": Cohort(samples), "shared": Cohort(shared), "unshared": Cohort(unshared)}


class TestScratchBlocks:
    """Batched scorers work in blocks under ``losses._SCRATCH_BYTES`` with the bits of one batch."""

    GRID = 200

    @staticmethod
    def budgets(row_bytes):
        """A single batch, blocks of two rows and blocks of three rows."""
        return {"single": 1 << 60, "two rows": 1, "three rows": 3 * row_bytes}

    def test_blocks_hold_two_rows_and_absorb_a_one_row_remainder(self, monkeypatch):
        from optithresh import losses

        monkeypatch.setattr(losses, "_SCRATCH_BYTES", 300)

        def sizes(n_rows, row_bytes):
            return [block.stop - block.start for block in losses._blocks(n_rows, row_bytes)]

        assert sizes(10, 100) == [3, 3, 4]
        assert sizes(9, 100) == [3, 3, 3]
        assert sizes(7, 1000) == [2, 2, 3]
        assert sizes(1, 1000) == [1]
        assert sizes(0, 1000) == []

    @pytest.mark.parametrize("n", [60, 64])
    def test_loss_batch_and_scorer_match_one_batch(self, rng, monkeypatch, n):
        from optithresh import losses

        for name, cohort in blocked_cohorts(rng, n).items():
            for k in (1, 3):
                # Odd counts leave a one-row remainder after blocks of two or three.
                t = threshold_rows(rng, cohort.domain, 13, k)
                anchors = losses._anchor_rows(cohort, t)
                scorer = cohort._l1_scorer(self.GRID)
                results = {}
                row_bytes = n * (self.GRID + k + 2) * losses._VALUE_BYTES
                for label, budget in self.budgets(row_bytes).items():
                    monkeypatch.setattr(losses, "_SCRATCH_BYTES", budget)
                    results[label] = [
                        losses._loss_batch(cohort, t, LossSpec(kind, self.GRID))
                        for kind in (LossKind.L1, LossKind.L2)
                    ]
                    results[label].append(scorer.batch_loss(*anchors))
                for label in ("two rows", "three rows"):
                    for got, want in zip(results[label], results["single"]):
                        assert np.array_equal(got, want), (name, k, label)

    def test_segment_table_matches_one_batch(self, rng, monkeypatch):
        from optithresh import losses

        cohort = blocked_cohorts(rng, 60)["shared"]
        p, v = losses._anchor_rows(cohort, cohort.shared_cutoffs[None, :])
        a, b = np.triu_indices(p.shape[2], k=1)
        pick = rng.permutation(a.size)[:301]
        entries = {}
        for label, budget in self.budgets(cohort.n * losses._SEGMENT_BYTES).items():
            monkeypatch.setattr(losses, "_SCRATCH_BYTES", budget)
            table = cohort._l1_scorer(self.GRID).segment_table(p[0], v[0])
            entries[label] = table(a[pick], b[pick])
        assert np.array_equal(entries["two rows"], entries["single"])
        assert np.array_equal(entries["three rows"], entries["single"])

    def test_member_grids_match_the_kernel(self, rng, monkeypatch):
        from optithresh import losses

        for cohort in blocked_cohorts(rng, 61).values():
            t = threshold_rows(rng, cohort.domain, 1, 3)
            whole = losses._linearized_rows(*losses._anchor_rows(cohort, t), self.GRID)[0]
            monkeypatch.setattr(losses, "_SCRATCH_BYTES", 1)
            blocked = np.array(list(losses._member_grids(cohort, t[0], self.GRID)))
            assert np.array_equal(blocked, whole)

    def test_l2_removal_scan_matches_one_batch(self, rng, monkeypatch):
        from optithresh import losses
        from optithresh.optimizers import _SelectionScan

        cohort = blocked_cohorts(rng, 20)["shared"]
        spec = LossSpec(LossKind.L2, self.GRID)
        j = cohort.shared_cutoffs.size
        row_bytes = 2 * (cohort.n * (cohort.n - 1) // 2) * 8
        results = {}
        for label, budget in self.budgets(row_bytes).items():
            monkeypatch.setattr(losses, "_SCRATCH_BYTES", budget)
            scan = _SelectionScan(cohort, spec, np.arange(j))
            # Every update computed, then a step that keeps most of them.
            first = scan.removal_losses(np.arange(j))
            scan.remove(int(np.argmin(first)))
            results[label] = (first, scan.removal_losses(np.arange(j - 1)), scan.reuse)
        assert results["single"][2][0] > 0 and results["single"][2][1] > 0
        for label in ("two rows", "three rows"):
            for got, want in zip(results[label][:2], results["single"][:2]):
                assert np.array_equal(got, want), label

    @pytest.mark.parametrize("kind", [LossKind.L1, LossKind.L2])
    def test_exhaustive_search_matches_one_batch(self, rng, monkeypatch, kind):
        from optithresh import losses
        from optithresh.optimizers import _SelectionScan, exhaustive_search

        domain = Domain(0.0, 12.0)
        cuts = np.arange(1.0, 12.0)
        members = []
        for _ in range(12):
            masses = np.zeros(12)
            masses[3:6] = rng.dirichlet(np.ones(3))
            masses[8:11] = rng.dirichlet(np.ones(3))
            members.append(Histogram(domain, cuts, masses / masses.sum()))
        cohort = Cohort(members)
        spec, k = LossSpec(kind, 50), 2
        combos = np.array(list(itertools.combinations(range(cuts.size), k)))
        scores = _SelectionScan(cohort, spec, np.empty(0, dtype=np.intp)).selection_losses(combos)
        first = int(np.argmin(scores))
        assert first >= 3  # past the first block of two or three rows
        found = {}
        for label, budget in self.budgets((k + 2) * losses._VALUE_BYTES).items():
            monkeypatch.setattr(losses, "_SCRATCH_BYTES", budget)
            found[label] = exhaustive_search(cohort, k, spec)
        for result in found.values():
            assert result.thresholds.values.tolist() == cuts[combos[first]].tolist()
            assert result.loss == found["single"].loss

    def test_first_best_keeps_the_first_minimum_across_blocks(self, monkeypatch):
        from optithresh import losses
        from optithresh.optimizers import _first_best

        k = 2
        combos = list(itertools.combinations(range(7), k))
        # Tied minima in the block of the first and in a later block.
        scores = dict.fromkeys(combos, 1.0)
        for i in (4, 5, 9):
            scores[combos[i]] = 0.0

        def score(sel):
            return np.array([scores[tuple(row)] for row in sel.tolist()])

        for budget in self.budgets((k + 2) * losses._VALUE_BYTES).values():
            monkeypatch.setattr(losses, "_SCRATCH_BYTES", budget)
            best = _first_best(iter(combos), len(combos), k, np.empty(0, dtype=np.intp), score)
            assert tuple(best.tolist()) == combos[4]

    def test_peak_memory_does_not_grow_with_the_batch(self, rng):
        import tracemalloc

        from optithresh import losses

        cohort = blocked_cohorts(rng, 200)["sample"]
        scorer = cohort._l1_scorer(self.GRID)
        peaks = {}
        for n_cand in (45, 90):
            t = threshold_rows(rng, cohort.domain, n_cand, 3)
            anchors = losses._anchor_rows(cohort, t)
            for name, score in (
                ("_loss_batch", lambda: losses._loss_batch(cohort, t, LossSpec(LossKind.L1, self.GRID))),
                ("batch_loss", lambda: scorer.batch_loss(*anchors)),
            ):
                tracemalloc.start()
                try:
                    score()
                    peaks[name, n_cand] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        # One batch of 45 took 97 MB and 12.7 MB; blocks of two or three rows
        # take at most three rows' scratch, whatever the batch size.
        mb = 1 << 20
        assert peaks["_loss_batch", 45] < 10 * mb and peaks["_loss_batch", 90] < 10 * mb, peaks
        assert peaks["batch_loss", 45] < 2 * mb and peaks["batch_loss", 90] < 2 * mb, peaks


PDIST_METRICS = ("euclidean", "sqeuclidean", "cityblock")

PDIST_IMPORT_ORDER = """
import hashlib, json, sys
import numpy as np

METRICS = ("euclidean", "sqeuclidean", "cityblock")
NAME = "scipy.spatial._distance_pybind"
x = 1e7 + np.random.default_rng(5).uniform(0.0, 400.0, size=(40, 120))
x[7] = x[3]
report = {}
if sys.argv[1] == "scipy-first":
    import scipy.spatial.distance
    first = sys.modules[NAME]
    from optithresh.losses import _pdist
    got = {m: _pdist(x, m) for m in METRICS}
else:
    from optithresh.losses import _pdist
    got = {m: _pdist(x, m) for m in METRICS}
    report["spatial_loaded_by_pdist"] = "scipy.spatial" in sys.modules
    first = sys.modules[NAME]
    import scipy.spatial.distance
from scipy.spatial import distance
report["one_module"] = sys.modules[NAME] is first and distance._distance_pybind is first
report["public_bits"] = all(distance.pdist(x, m).tobytes() == got[m].tobytes() for m in METRICS)
report["digests"] = {m: hashlib.sha256(got[m].tobytes()).hexdigest() for m in METRICS}
print(json.dumps(report))
"""


class TestPdist:
    """``losses._pdist`` against scipy's public ``pdist``, the reference it stands in for."""

    @pytest.mark.parametrize("metric", PDIST_METRICS)
    def test_bitwise_the_public_pdist(self, rng, metric):
        from scipy.spatial.distance import pdist

        from optithresh.losses import _pdist

        for n in (2, 3, 7, 31, 60):
            for m in (1, 2, 5, 200, 260):
                for offset in (0.0, 1e7, -1e9, 1e12):
                    x = offset + rng.uniform(0.0, 400.0, size=(n, m))
                    x[-1] = x[0]
                    # A transpose is column-major; its last row repeats its first too.
                    y = offset + rng.uniform(0.0, 400.0, size=(m, n))
                    y[:, -1] = y[:, 0]
                    for view in (x, x[:, ::2], y.T):
                        got = _pdist(view, metric)
                        assert got.tobytes() == pdist(view, metric).tobytes(), (n, m, offset)
                        # The pair of the first and the last row, which are equal.
                        assert got[n - 2] == 0.0

    def test_both_import_orders_share_one_module(self):
        from optithresh import losses

        src = str(Path(losses.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        reports = {}
        for order in ("kernels-first", "scipy-first"):
            proc = subprocess.run(
                [sys.executable, "-c", PDIST_IMPORT_ORDER, order],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            reports[order] = json.loads(proc.stdout.splitlines()[-1])
            assert reports[order]["one_module"] and reports[order]["public_bits"], order
        assert reports["kernels-first"]["spatial_loaded_by_pdist"] is False
        assert reports["kernels-first"]["digests"] == reports["scipy-first"]["digests"]

    def test_uses_the_module_already_loaded(self, monkeypatch):
        from optithresh import losses

        loaded = types.SimpleNamespace(pdist_euclidean=lambda x: "loaded")
        monkeypatch.setitem(sys.modules, losses._DISTANCE_MODULE, loaded)
        assert losses._pdist(np.zeros((2, 1)), "euclidean") == "loaded"

    def test_missing_kernel_names_the_scipy_version(self, monkeypatch):
        import scipy

        from optithresh import losses

        monkeypatch.setitem(sys.modules, losses._DISTANCE_MODULE, types.ModuleType("empty"))
        with pytest.raises(ImportError, match=f"scipy {scipy.__version__} has no .*pdist_cityblock"):
            losses._pdist(np.zeros((2, 1)), "cityblock")

    def test_missing_module_names_the_scipy_version(self, monkeypatch, tmp_path):
        import scipy

        from optithresh import losses

        monkeypatch.delitem(sys.modules, losses._DISTANCE_MODULE, raising=False)
        # scipy's package found in a directory without the compiled module.
        empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        empty.submodule_search_locations = [str(tmp_path)]
        find_spec = importlib.util.find_spec
        monkeypatch.setattr(
            importlib.util, "find_spec", lambda name, *a: empty if name == "scipy" else find_spec(name, *a)
        )
        with pytest.raises(ImportError, match=f"scipy {scipy.__version__} has no"):
            losses._pdist(np.zeros((2, 1)), "euclidean")
        assert losses._DISTANCE_MODULE not in sys.modules


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
