"""Differential test of the batched linearization against the per-member one.

``losses._linearized_rows`` linearizes every member of a cohort for a batch
of threshold vectors at once: ``_anchor_rows`` finds the anchors of all
members with one search over row-shifted tables, and ``interp_rows`` then
evaluates all rows together.  ``histograms.linearized_quantile_grid`` does the
same for one member and one threshold set with plain per-row searches.  The
two must agree bit for bit (``np.array_equal``).

Hypothesis builds sample, shared-cutoff and unshared histogram cohorts of up
to about 2,000 members on domains at 0, 1e7, -1e9 and 1e12, whose members tie
on a few shared levels, and places thresholds on those levels (sample values
or cutoffs) and one ulp to either side of them.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from optithresh.histograms import Domain, EmpiricalSample, Histogram, ThresholdSet, linearized_quantile_grid
from optithresh.losses import Cohort, _linearized_rows

OFFSETS = [0.0, 1e7, -1e9, 1e12]
WIDTHS = [1.0, 3.0, 50.0, 400.0]


@st.composite
def cases(draw, kind):
    """(cohort, threshold rows, grid size) for a cohort of the given kind."""
    lower = draw(st.sampled_from(OFFSETS))
    domain = Domain(lower, lower + draw(st.sampled_from(WIDTHS)))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    levels = np.unique(domain.lower + domain.width * np.array(fractions))
    interior = levels[(levels > domain.lower) & (levels < domain.upper)]
    n = draw(st.integers(1, 12)) * draw(st.sampled_from([1, 1, 1, 20, 160]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def histogram(cuts):
        masses = rng.dirichlet(np.ones(cuts.size + 1)) * (rng.random(cuts.size + 1) < 0.7)
        masses[rng.integers(cuts.size + 1)] += 1.0  # at least one bin holds mass
        return Histogram(domain, cuts, masses / masses.sum())

    if kind == "sample":
        members = [EmpiricalSample(domain, rng.choice(levels, size=rng.integers(1, 8))) for _ in range(n)]
        points = levels
    else:
        assume(interior.size > 0)
        if kind == "shared":
            members = [histogram(interior) for _ in range(n)]
        else:
            members = [histogram(np.unique(rng.choice(interior, size=rng.integers(1, interior.size + 1))))
                       for _ in range(n)]
            assume(Cohort(members).shared_cutoffs is None)
        points = interior
    extra = domain.lower + domain.width * np.array(draw(st.lists(st.floats(0.0, 1.0), max_size=2)))
    near = np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf), extra])
    near = sorted(set(near[(near > domain.lower) & (near < domain.upper)].tolist()))
    k = draw(st.integers(0, min(4, len(near))))
    rows = [sorted(draw(st.lists(st.sampled_from(near), min_size=k, max_size=k, unique=True)))
            for _ in range(draw(st.integers(1, 3)))] if k else [[]]
    return Cohort(members), rows, draw(st.sampled_from([1, 7, 50, 200]))


def assert_batched_matches_per_member(case):
    cohort, rows, grid = case
    batched = _linearized_rows(cohort, np.array(rows, dtype=np.float64).reshape(len(rows), -1), grid)
    for b, row in enumerate(rows):
        t = ThresholdSet(tuple(row))
        expected = np.vstack([linearized_quantile_grid(m, t, grid).values for m in cohort.members])
        mismatched = np.flatnonzero(np.any(batched[b] != expected, axis=1))
        assert np.array_equal(batched[b], expected), f"thresholds {row!r}: members {mismatched[:5].tolist()} differ"


SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large]
)


@SETTINGS
@given(case=cases("histogram"))
def test_unshared_histogram_cohorts(case):
    assert_batched_matches_per_member(case)


def pinned_sample_case():
    """Two members with values 0.5 and 1.0, a threshold one ulp below 0.5."""
    members = [EmpiricalSample(Domain(0.0, 1.0), np.array([0.5, 1.0])) for _ in range(2)]
    return Cohort(members), [[float(np.nextafter(0.5, 0.0))]], 1


def pinned_shared_case():
    """Two histograms cut at 0.5 with masses 0.5 and 0.5, a threshold one ulp above 0.5."""
    members = [Histogram(Domain(0.0, 1.0), np.array([0.5]), np.array([0.5, 0.5])) for _ in range(2)]
    return Cohort(members), [[float(np.nextafter(0.5, 1.0))]], 1


@pytest.mark.xfail(
    strict=True,
    reason="_anchor_rows searches the members' sorted values shifted by (width + 1) per row, and the "
    "shift rounds: in the pinned case member 1's value 0.5 lies at 2.5 after its shift of 2, and the "
    "threshold 0.5 - 1 ulp rounds onto 2.5 as well, so the batched anchor counts the value 0.5 as "
    "below the threshold (probability 0.5 instead of 0) and member 1's grid is [0.5] instead of "
    "[0.75]; member 0 (shift 0) agrees.  Without the pinned case Hypothesis found and shrank one "
    "within 150 examples: domain [0, 1], three members, threshold 0.49999999999999994.",
)
@SETTINGS
@given(case=cases("sample"))
@example(case=pinned_sample_case())
def test_sample_cohorts(case):
    assert_batched_matches_per_member(case)


@pytest.mark.xfail(
    strict=True,
    reason="_anchor_rows finds the anchor values of shared-cutoff cohorts with interp_rows on per-row "
    "queries, which brackets them by one search over probabilities shifted by 2 per row "
    "(interp._bracket_offset).  In the pinned case the threshold 0.5 + 1 ulp has probability "
    "0.5000000000000001, one ulp above the cumulative mass 0.5 at the cutoff; after member 1's shift "
    "both round to 2.5, so member 1 brackets onto the cutoff's anchor and gets the anchor value 0.5 "
    "instead of 0.5000000000000001, and its grid is [0.4999999999999999] instead of [0.5]; member 0 "
    "(shift 0) agrees.",
)
@SETTINGS
@given(case=cases("shared"))
@example(case=pinned_shared_case())
def test_shared_cutoff_cohorts(case):
    assert_batched_matches_per_member(case)
