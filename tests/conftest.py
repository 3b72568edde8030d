import contextlib
import os
import signal

# One BLAS thread, as the benchmark and CI use: more threads make SA's L2
# removal products burn CPU without saving time.  Set before numpy loads BLAS.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from optithresh.histograms import Domain, EmpiricalSample, Histogram


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_histogram(rng, n_bins=6, domain=Domain(0.0, 1.0), positive=True, subject_id=None):
    """Histogram with random cutoffs and Dirichlet masses on the given domain."""
    cuts = np.sort(rng.uniform(domain.lower, domain.upper, size=n_bins - 1))
    while np.any(np.diff(cuts) <= 1e-6):
        cuts = np.sort(rng.uniform(domain.lower, domain.upper, size=n_bins - 1))
    masses = rng.dirichlet(np.ones(n_bins))
    if positive:
        masses = (masses + 0.01) / (1.0 + 0.01 * n_bins)
    masses = masses / masses.sum()
    return Histogram(domain, cuts, masses, subject_id=subject_id)


def random_sample(rng, n=50, domain=Domain(0.0, 1.0), subject_id=None):
    values = rng.uniform(domain.lower, domain.upper, size=n)
    return EmpiricalSample(domain, values, subject_id=subject_id)


class RanTooLong(BaseException):
    """Raised by ``time_limit``; a BaseException, so that no ``except Exception`` in the CLI
    or in click's test runner swallows it."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise ``RanTooLong`` in the block once it has run ``seconds`` of wall time."""
    def expire(signum, frame):
        raise RanTooLong(f"ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
