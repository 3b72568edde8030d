"""Synthetic cohorts of uniform mixtures and the multi-method benchmark harness.

Each synthetic subject is a mixture of uniform distributions whose breakpoints
are a common set of base thresholds plus truncated-normal noise, with mixture
weights drawn per subject under one of two schemes.  The benchmark runs any
combination of solvers and losses over replicated cohorts and aggregates
thresholds and losses with standard errors.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .histograms import Domain, EmpiricalSample, ThresholdSet, build_histogram
from .losses import Cohort, LossKind, LossSpec, evaluate_loss
from .optimizers import DEConfig, Method, optimize

__all__ = [
    "WeightScheme",
    "MixtureSpec",
    "BenchmarkRow",
    "ReplicationRecord",
    "BenchmarkReport",
    "sample_truncated_normal",
    "sample_dirichlet",
    "sample_mixture",
    "generate_cohort",
    "run_benchmark",
]

log = logging.getLogger(__name__)

BENCHMARK_METHODS = ("oracle", "de", "sa", "ss", "paa")


class WeightScheme(str, Enum):
    SETTING_1 = "setting1"
    SETTING_2 = "setting2"


@dataclass(frozen=True)
class MixtureSpec:
    """Configuration of the synthetic uniform-mixture cohort generator."""

    base_thresholds: tuple = (70.0, 180.0, 250.0)
    domain: Domain = Domain(40.0, 400.0)
    noise_sd: float = 0.0
    noise_truncation: float = 30.0
    weight_scheme: WeightScheme = WeightScheme.SETTING_1
    n_subjects: int = 200
    obs_per_subject: int = 1000
    histogram_cutoffs: tuple = tuple(float(c) for c in range(42, 399, 2))

    def __post_init__(self):
        object.__setattr__(self, "base_thresholds", tuple(float(t) for t in self.base_thresholds))
        object.__setattr__(self, "weight_scheme", WeightScheme(self.weight_scheme))
        object.__setattr__(
            self, "histogram_cutoffs", tuple(float(c) for c in self.histogram_cutoffs)
        )
        base = self.base_thresholds
        if not base:
            raise ValueError("at least one base threshold is required")
        ThresholdSet(base).validate_for(self.domain)
        _check_noise(self.noise_sd, self.noise_truncation, "noise_sd", "noise_truncation")
        gaps = np.diff(np.concatenate(([self.domain.lower], base, [self.domain.upper])))
        edge_room = min(base[0] - self.domain.lower, self.domain.upper - base[-1])
        interior = np.diff(base)
        if interior.size and self.noise_truncation >= interior.min() / 2:
            raise ValueError(
                "noise_truncation must be below half the minimum gap between base thresholds"
            )
        if self.noise_truncation > edge_room:
            raise ValueError("noise_truncation pushes thresholds outside the domain")
        if gaps.min() <= 0:
            raise ValueError("base thresholds must be strictly increasing inside the domain")
        if self.n_subjects < 1 or self.obs_per_subject < 1:
            raise ValueError("n_subjects and obs_per_subject must be positive")
        cuts = self.histogram_cutoffs
        if not all(math.isfinite(c) for c in cuts):
            raise ValueError("histogram_cutoffs must be finite")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError("histogram_cutoffs must be strictly increasing")
        if cuts and not (self.domain.lower < cuts[0] and cuts[-1] < self.domain.upper):
            raise ValueError("histogram_cutoffs must lie strictly inside the domain")
        if len(base) != 3:
            raise ValueError("both weight schemes expect exactly three base thresholds")

    @property
    def k_star(self) -> int:
        return len(self.base_thresholds)


def _check_noise(sd: float, bound: float, sd_name: str, bound_name: str) -> None:
    """A finite ``sd >= 0`` and a finite ``bound > 0``, without which rejection never ends."""
    if not (math.isfinite(sd) and sd >= 0):
        raise ValueError(f"{sd_name} must be finite and non-negative, got {sd!r}")
    if not (math.isfinite(bound) and bound > 0):
        raise ValueError(f"{bound_name} must be finite and positive, got {bound!r}")


def sample_truncated_normal(sd: float, bound: float, rng: np.random.Generator) -> float:
    """Draw from N(0, sd^2) conditioned on |draw| <= bound, by rejection."""
    _check_noise(sd, bound, "sd", "bound")
    if sd == 0.0:
        return 0.0
    while True:
        draw = sd * rng.standard_normal()
        if abs(draw) <= bound:
            return draw


def sample_dirichlet(alpha: Sequence[float], rng: np.random.Generator) -> np.ndarray:
    """Dirichlet draw via normalized gammas."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 1 or alpha.size < 2:
        raise ValueError("alpha must contain at least two concentrations")
    if np.any(alpha <= 0):
        raise ValueError("alpha entries must be positive")
    gammas = rng.gamma(alpha)
    return gammas / gammas.sum()


def sample_mixture(
    rng: np.random.Generator,
    breakpoints: np.ndarray,
    weights: np.ndarray,
    size: int,
) -> np.ndarray:
    """Draw from a mixture of uniforms on consecutive breakpoint intervals."""
    breakpoints = np.asarray(breakpoints, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size != breakpoints.size - 1:
        raise ValueError("need one weight per breakpoint interval")
    component = rng.choice(weights.size, size=size, p=weights / weights.sum())
    lo = breakpoints[component]
    hi = breakpoints[component + 1]
    return lo + (hi - lo) * rng.random(size)


def _subject_weights(spec: MixtureSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.weight_scheme is WeightScheme.SETTING_1:
        return sample_dirichlet(20.0 * np.array([0.3, 0.4, 0.2, 0.1]), rng)
    head = 0.7 * sample_dirichlet(5.0 * np.array([0.5, 0.5]), rng)
    return np.concatenate((head, [0.2, 0.1]))


def generate_cohort(spec: MixtureSpec, seed: Union[int, np.random.SeedSequence]):
    """Generate one synthetic cohort.

    Returns the pair (empirical cohort, binned cohort): the same draws exposed
    as raw samples and as histograms on ``spec.histogram_cutoffs``.  Per-subject
    substreams are spawned from the seed, so subject i's data do not depend on
    ``n_subjects``.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(spec.n_subjects)
    base = np.asarray(spec.base_thresholds)
    samples = []
    histograms = []
    for i, child in enumerate(children):
        rng = np.random.Generator(np.random.Philox(child))
        noise = np.array(
            [
                sample_truncated_normal(spec.noise_sd, spec.noise_truncation, rng)
                for _ in range(base.size)
            ]
        )
        breakpoints = np.concatenate(
            ([spec.domain.lower], base + noise, [spec.domain.upper])
        )
        weights = _subject_weights(spec, rng)
        values = sample_mixture(rng, breakpoints, weights, spec.obs_per_subject)
        sample = EmpiricalSample(spec.domain, values, subject_id=f"subject-{i:04d}")
        samples.append(sample)
        histograms.append(build_histogram(sample, np.asarray(spec.histogram_cutoffs)))
    return Cohort(samples), Cohort(histograms)


@dataclass(frozen=True)
class BenchmarkRow:
    """Aggregated results of one (method, loss, noise level) cell."""

    method: str
    loss_kind: str
    noise_sd: float
    k: int
    reps: int
    mean_thresholds: tuple
    se_thresholds: Optional[tuple]
    mean_loss: float
    se_loss: Optional[float]


@dataclass(frozen=True)
class ReplicationRecord:
    """Per-replication thresholds and loss, one line per solver run."""

    method: str
    loss_kind: str
    noise_sd: float
    replication: int
    thresholds: tuple
    loss: float


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple
    replications: tuple
    k: int
    reps: int
    seed_entropy: tuple
    grid_size: int

    def to_json_dict(self) -> dict:
        """The report's fields; a record's loss kind is written as "loss", its loss as "loss_value"."""
        def named(record: dict) -> dict:
            return {{"loss_kind": "loss", "loss": "loss_value"}.get(key, key): v for key, v in record.items()}

        report = asdict(self)
        report["rows"] = [named(row) for row in report["rows"]]
        report["replications"] = [named(rec) for rec in report["replications"]]
        return report


def _method_token(method: Union[str, Method]) -> str:
    token = method.value if isinstance(method, Method) else str(method).lower()
    if token not in BENCHMARK_METHODS:
        raise ValueError(f"unknown benchmark method {method!r}; expected one of {BENCHMARK_METHODS}")
    return token


def _replication_records(spec, noise, rep, root, tokens, loss_specs, k, de_config) -> list:
    """The records of every (method, loss) pair on replication ``rep`` at noise level ``noise``.

    ``spec`` is the mixture at that noise level.  Its cohort and DE seed are
    spawned from ``root`` alone, so each (noise level, replication) cell is
    independent of the others.
    """
    cohort_seed, de_seed = root.spawn(2)
    empirical, binned = generate_cohort(spec, cohort_seed)
    de_config = replace(de_config or DEConfig(), seed=int(de_seed.generate_state(1, np.uint64)[0] >> 1))
    log.debug("noise %.1f replication %d generated", noise, rep)
    records = []
    for token in tokens:
        if token == "paa":
            res = optimize(binned, k, None, Method.PAA)
            records.append(
                ReplicationRecord(
                    "paa", LossKind.L2_BRAY_CURTIS.value, noise, rep, res.thresholds.thresholds, res.loss
                )
            )
            continue
        for ls in loss_specs:
            if token == "oracle":
                thresholds = spec.base_thresholds
                loss = evaluate_loss(empirical, ThresholdSet(thresholds), ls)
            else:
                if token == "de":
                    res = optimize(empirical, k, ls, Method.DIFFERENTIAL_EVOLUTION, config=de_config)
                else:
                    method = Method.STEPWISE_AGGREGATION if token == "sa" else Method.STEPWISE_SPLITTING
                    res = optimize(binned, k, ls, method)
                loss, thresholds = res.loss, res.thresholds.thresholds
            records.append(ReplicationRecord(token, ls.kind.value, noise, rep, thresholds, loss))
    return records


def run_benchmark(
    spec: MixtureSpec,
    methods: Sequence[Union[str, Method]],
    loss_specs: Sequence[LossSpec],
    k: int,
    reps: int,
    seeds: Union[int, Sequence[int]],
    noise_levels: Optional[Sequence[float]] = None,
    de_config: Optional[DEConfig] = None,
) -> BenchmarkReport:
    """Run every (method, loss) pair over replicated fresh cohorts.

    The oracle row evaluates each loss at the base thresholds on the empirical
    cohort; differential evolution also runs on the empirical cohort, while the
    discrete solvers use the binned cohort, whose cutoff grid hosts their
    search space.  The compositional baseline runs once per replication under
    its own objective and accepts no quantile-grid loss.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    tokens = [_method_token(m) for m in methods]
    if not tokens:
        raise ValueError("methods must name at least one benchmark method")
    if any(token != "paa" for token in tokens) and not loss_specs:
        raise ValueError("losses must name at least one loss; only the PAA baseline runs without one")
    for ls in loss_specs:
        if ls.kind is LossKind.L2_BRAY_CURTIS:
            raise ValueError("the Bray-Curtis objective belongs to the PAA baseline only")
    if isinstance(seeds, (int, np.integer)):
        seed_entropy = tuple(int(seeds) + np.arange(reps))
    else:
        seed_entropy = tuple(int(s) for s in seeds)
        if len(seed_entropy) < reps:
            raise ValueError(f"need at least {reps} seeds, got {len(seed_entropy)}")
    noise_levels = [spec.noise_sd] if noise_levels is None else list(noise_levels)
    if not noise_levels:
        raise ValueError("noise_levels must hold at least one noise level")
    # Every level is validated before the first replication runs.
    specs = [replace(spec, noise_sd=float(noise)) for noise in noise_levels]

    records = []
    for noise_index, (noise, level_spec) in enumerate(zip(noise_levels, specs)):
        for rep in range(reps):
            root = np.random.SeedSequence([seed_entropy[rep], noise_index])
            records += _replication_records(level_spec, noise, rep, root, tokens, loss_specs, k, de_config)
    cells = {}
    for rec in records:
        cells.setdefault((rec.method, rec.loss_kind, rec.noise_sd), []).append(rec)

    rows = []
    for (method, loss_kind, noise), cell in cells.items():
        thresholds = np.array([r.thresholds for r in cell])
        losses = np.array([r.loss for r in cell])
        n_cell = len(cell)
        if n_cell > 1:
            se_t = tuple(thresholds.std(axis=0, ddof=1) / np.sqrt(n_cell))
            se_l = float(losses.std(ddof=1) / np.sqrt(n_cell))
        else:
            se_t, se_l = None, None
        rows.append(
            BenchmarkRow(
                method=method,
                loss_kind=loss_kind,
                noise_sd=noise,
                k=thresholds.shape[1],
                reps=n_cell,
                mean_thresholds=tuple(thresholds.mean(axis=0)),
                se_thresholds=se_t,
                mean_loss=float(losses.mean()),
                se_loss=se_l,
            )
        )
    return BenchmarkReport(
        rows=tuple(rows),
        replications=tuple(records),
        k=k,
        reps=reps,
        seed_entropy=tuple(int(s) for s in seed_entropy),
        grid_size=loss_specs[0].grid_size if loss_specs else 0,
    )
