"""Downstream evaluation: time-in-range summaries, per-range classifiers, reports.

A threshold set turns each cohort member into a composition of time-in-range
proportions.  To compare candidate threshold sets, each range's proportion is
fed to a univariate logistic classifier of group membership, and the combined
cohort's losses are reported alongside percentage reductions relative to a
reference set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .histograms import ThresholdSet
from .losses import Cohort, LossKind, LossSpec, _anchor_rows, loss_l1, loss_l2

__all__ = [
    "TIRSummary",
    "ClassifierResult",
    "ComponentReport",
    "ThresholdSetReport",
    "ComparisonReport",
    "tir_summary",
    "fit_univariate_logistic",
    "compare_thresholds",
]

SLOPE_CAP = 500.0
RIDGE = 1e-8


def _range_labels(t: ThresholdSet) -> tuple:
    """``<a``, one label per inner range and ``>=z``: integer ranges name their last level, real ones are half-open."""
    values = t.thresholds
    if not values:
        return ("all",)
    if all(float(v).is_integer() for v in values):
        names = [str(int(v)) for v in values]
        inner = [f"{lo}–{int(hi) - 1}" for lo, hi in zip(names, values[1:])]
    else:
        names = [f"{v:g}" for v in values]
        inner = [f"[{lo}, {hi})" for lo, hi in zip(names, names[1:])]
    return (f"<{names[0]}", *inner, f">={names[-1]}")


@dataclass(frozen=True)
class TIRSummary:
    """Per-subject time-in-range compositions under one threshold set."""

    thresholds: ThresholdSet
    per_subject: np.ndarray  # (n, K+1)
    range_labels: tuple
    subject_ids: tuple

    def __post_init__(self):
        arr = np.asarray(self.per_subject, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "per_subject", arr)


def tir_summary(cohort: Cohort, t: ThresholdSet) -> TIRSummary:
    """Time-in-range proportions of every member between consecutive thresholds.

    Histogram members are softly amalgamated (mass split proportionally inside
    bins); sample members are counted directly, with ranges closed on the left.
    """
    t.validate_for(cohort.domain)
    if cohort.kind == "histogram":
        # Soft amalgamation's masses are the steps of the kernel's anchor probabilities.
        per_subject = np.diff(_anchor_rows(cohort, t.values[None])[0][0], axis=1)
    else:
        values = cohort._anchor_tables().values
        counts = values.search(t.values, "left") - values.starts[:, None]
        bounds = np.column_stack((np.zeros_like(values.sizes), counts, values.sizes))
        per_subject = np.diff(bounds, axis=1) / values.sizes[:, None]
    ids = tuple(
        member.subject_id if member.subject_id is not None else str(i)
        for i, member in enumerate(cohort.members)
    )
    return TIRSummary(t, per_subject, _range_labels(t), ids)


@dataclass(frozen=True)
class ClassifierResult:
    """Univariate logistic fit on one proportion feature."""

    intercept: float
    slope: float
    decision_boundary: Optional[float]
    accuracy: float


def _log_likelihood(x, y, intercept, slope):
    z = intercept + slope * x
    # log sigma(z) for y=1 and log(1 - sigma(z)) for y=0, stably.
    return float(np.sum(np.where(y == 1, -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z))))


def fit_univariate_logistic(x: Sequence[float], y: Sequence[int]) -> ClassifierResult:
    """Maximum-likelihood logistic regression of binary labels on one feature.

    Damped Newton iterations with a small ridge keep separable data finite; the
    slope is capped at |slope| <= 500 so the 0.5-probability boundary stays
    well-defined under perfect separation.  Accuracy is evaluated at that
    boundary with ties classified as the positive class.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("x must be a non-empty vector")
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    if x.size < 2:
        raise ValueError("need at least two observations")
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("features must be proportions in [0, 1]")
    classes = np.unique(y)
    if not np.array_equal(classes, [0, 1]):
        raise ValueError("labels must contain both classes 0 and 1")

    beta = np.zeros(2)
    design = np.column_stack((np.ones_like(x), x))
    objective = _log_likelihood(x, y, *beta) - 0.5 * RIDGE * float(beta @ beta)
    for _ in range(200):
        z = design @ beta
        p = 1.0 / (1.0 + np.exp(-z))
        grad = design.T @ (y - p) - RIDGE * beta
        w = p * (1.0 - p)
        hess = design.T @ (design * w[:, None]) + RIDGE * np.eye(2)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        improved = False
        for _ in range(30):
            cand = beta + scale * step
            cand[1] = float(np.clip(cand[1], -SLOPE_CAP, SLOPE_CAP))
            cand_obj = _log_likelihood(x, y, *cand) - 0.5 * RIDGE * float(cand @ cand)
            if cand_obj > objective:
                beta, objective, improved = cand, cand_obj, True
                break
            scale *= 0.5
        if not improved or float(np.abs(grad).max()) < 1e-10:
            break

    intercept, slope = float(beta[0]), float(beta[1])
    boundary = -intercept / slope if slope != 0.0 else None
    z = intercept + slope * x
    predictions = (z >= 0.0).astype(np.int64)  # p >= 0.5, ties positive
    accuracy = float(np.mean(predictions == y))
    return ClassifierResult(intercept, slope, boundary, accuracy)


@dataclass(frozen=True)
class ComponentReport:
    label: str
    classifier: ClassifierResult


@dataclass(frozen=True)
class ThresholdSetReport:
    thresholds: tuple
    loss_l1: float
    loss_l2: float
    reduction_l1_pct: float
    reduction_l2_pct: float
    components: tuple


@dataclass(frozen=True)
class ComparisonReport:
    reference: tuple
    entries: tuple
    n_group_a: int
    n_group_b: int
    grid_size: int

    def to_json_dict(self) -> dict:
        """The report's fields; entries are written as "threshold_sets", each component as its
        "range" beside its classifier's fields."""
        report = asdict(self)
        report["threshold_sets"] = report.pop("entries")
        for entry in report["threshold_sets"]:
            entry["components"] = [{"range": c["label"], **c["classifier"]} for c in entry["components"]]
        return report

    def to_markdown(self) -> str:
        lines = []
        for entry in self.entries:
            shown = ", ".join(f"{v:g}" for v in entry.thresholds)
            lines.append(f"## Thresholds {{{shown}}}")
            lines.append("")
            lines.append(
                f"Combined losses: L1 = {entry.loss_l1:.4g}, L2 = {entry.loss_l2:.4g} "
                f"(reductions vs reference: {entry.reduction_l1_pct:.1f}%, "
                f"{entry.reduction_l2_pct:.1f}%)"
            )
            lines.append("")
            lines.append("| Range | Decision Boundary | Accuracy (%) |")
            lines.append("| --- | --- | --- |")
            for comp in entry.components:
                boundary = comp.classifier.decision_boundary
                shown_boundary = "-" if boundary is None else f"{boundary:.3f}"
                lines.append(
                    f"| {comp.label} | {shown_boundary} | {100 * comp.classifier.accuracy:.1f} |"
                )
            lines.append("")
        return "\n".join(lines)


def compare_thresholds(
    cohort_a: Cohort,
    cohort_b: Cohort,
    threshold_sets: Sequence[ThresholdSet],
    spec: Optional[LossSpec] = None,
    reference: Optional[ThresholdSet] = None,
) -> ComparisonReport:
    """Compare threshold sets on a combined two-group cohort.

    For each set: combined-cohort L1/L2 losses, per-range logistic classifiers
    of group membership (group B is the positive class), and percentage loss
    reductions relative to the reference set (the first set by default).
    """
    if cohort_a.domain != cohort_b.domain:
        raise ValueError("cohorts must share one domain")
    if cohort_a.kind != cohort_b.kind:
        raise ValueError("cohorts must hold the same member kind")
    if not threshold_sets:
        raise ValueError("at least one threshold set is required")
    grid_size = (spec or LossSpec(LossKind.L1)).grid_size
    combined = Cohort(tuple(cohort_a.members) + tuple(cohort_b.members))
    labels = np.concatenate((np.zeros(cohort_a.n, np.int64), np.ones(cohort_b.n, np.int64)))
    reference = reference or threshold_sets[0]

    def losses_of(t: ThresholdSet) -> tuple:
        return (
            loss_l1(combined, t, LossSpec(LossKind.L1, grid_size)),
            loss_l2(combined, t, LossSpec(LossKind.L2, grid_size)),
        )

    ref_l1, ref_l2 = losses_of(reference)

    def reduction(ref: float, value: float) -> float:
        if ref == 0.0:
            return 0.0
        return 100.0 * (ref - value) / ref

    entries = []
    for t in threshold_sets:
        l1, l2 = losses_of(t)
        summary = tir_summary(combined, t)
        components = []
        for col, label in enumerate(summary.range_labels):
            classifier = fit_univariate_logistic(summary.per_subject[:, col], labels)
            components.append(ComponentReport(label, classifier))
        entries.append(
            ThresholdSetReport(
                thresholds=t.thresholds,
                loss_l1=l1,
                loss_l2=l2,
                reduction_l1_pct=reduction(ref_l1, l1),
                reduction_l2_pct=reduction(ref_l2, l2),
                components=tuple(components),
            )
        )
    return ComparisonReport(
        reference=reference.thresholds,
        entries=tuple(entries),
        n_group_a=cohort_a.n,
        n_group_b=cohort_b.n,
        grid_size=grid_size,
    )
