"""CGM-style CSV ingestion: per-subject series, inclusion criteria, histograms.

Readings arrive as (subject, timestamp, value) rows.  Values are clamped to the
measurable 40-400 mg/dL range, subjects are screened by wear-time completeness,
and kept series become unit-width integer histograms on [40, 401) so that the
361 integer levels map to one bin each.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .histograms import Domain, EmpiricalSample, Histogram, build_histogram

__all__ = [
    "CGM_DOMAIN",
    "CLAMP_RANGE",
    "CsvSchema",
    "SubjectSeries",
    "InclusionPolicy",
    "InclusionDecision",
    "IngestResult",
    "read_cgm_csv",
    "write_cgm_csv",
    "apply_inclusion",
    "empirical_histogram",
]

#: Integer glucose levels 40..400 occupy unit-width bins [g, g+1).
CGM_DOMAIN = Domain(40.0, 401.0)

#: Device-measurable value range; out-of-range readings saturate at the bounds.
CLAMP_RANGE = (40.0, 400.0)

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class CsvSchema:
    id_column: str = "id"
    time_column: str = "time"
    value_column: str = "gl"


@dataclass(frozen=True)
class SubjectSeries:
    """Time-ordered readings of one subject."""

    subject_id: str
    timestamps: tuple  # seconds since epoch, strictly increasing
    values: tuple      # mg/dL, already clamped
    expected_interval: float = 300.0

    def __post_init__(self):
        if len(self.timestamps) != len(self.values):
            raise ValueError("timestamps and values must have equal length")
        if not self.timestamps:
            raise ValueError("series must contain at least one reading")
        if any(b <= a for a, b in zip(self.timestamps, self.timestamps[1:])):
            raise ValueError("timestamps must be strictly increasing")
        if self.expected_interval <= 0:
            raise ValueError("expected_interval must be positive")

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def wear_seconds(self) -> float:
        return self.timestamps[-1] - self.timestamps[0]

    @property
    def wear_days(self) -> float:
        return self.wear_seconds / SECONDS_PER_DAY


@dataclass(frozen=True)
class InclusionPolicy:
    """Three-tier completeness rule over wear duration."""

    short_days: float = 1.0
    short_fraction: float = 0.90
    mid_days: float = 14.0
    mid_fraction: float = 0.70
    long_window_days: float = 14.0
    long_fraction: float = 0.70

    def __post_init__(self):
        for name in ("short_fraction", "mid_fraction", "long_fraction"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if not 0 < self.short_days <= self.mid_days:
            raise ValueError("short_days must be positive and at most mid_days")


@dataclass(frozen=True)
class InclusionDecision:
    keep: bool
    reason: str
    wear_days: float
    completeness: float


@dataclass
class IngestResult:
    series: list
    clamp_counts: dict
    skipped_rows: list  # (line_number, reason)

    def decisions(self, policy: Optional[InclusionPolicy] = None) -> dict:
        policy = policy or InclusionPolicy()
        return {s.subject_id: apply_inclusion(s, policy) for s in self.series}


def _parse_timestamp(raw: str) -> float:
    text = raw.strip()
    try:
        return float(text)
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ValueError(f"unparseable timestamp {raw!r}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def read_cgm_csv(
    path: Union[str, Path],
    schema: CsvSchema = CsvSchema(),
    on_bad_row: str = "error",
) -> IngestResult:
    """Parse a readings CSV into per-subject, time-sorted series.

    Values outside the measurable range are clamped to its bounds and counted
    per subject.  Malformed rows (bad number, bad timestamp, duplicate
    timestamp within a subject) raise by default; with ``on_bad_row="skip"``
    they are collected with their line numbers instead.  Missing schema columns
    are always fatal.
    """
    if on_bad_row not in ("error", "skip"):
        raise ValueError("on_bad_row must be 'error' or 'skip'")
    path = Path(path)
    by_subject: dict = {}
    clamp_counts: dict = {}
    skipped: list = []

    def bad(line_no: int, reason: str) -> None:
        if on_bad_row == "error":
            raise ValueError(f"line {line_no}: {reason}")
        skipped.append((line_no, reason))

    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            return IngestResult([], {}, [])
        for column in (schema.id_column, schema.time_column, schema.value_column):
            if column not in reader.fieldnames:
                raise ValueError(f"missing required column {column!r} in {path}")
        for row in reader:
            line_no = reader.line_num
            raw_id = row.get(schema.id_column)
            raw_time = row.get(schema.time_column)
            raw_value = row.get(schema.value_column)
            if not raw_id or raw_time is None or raw_value is None:
                bad(line_no, "incomplete row")
                continue
            try:
                stamp = _parse_timestamp(raw_time)
            except ValueError:
                bad(line_no, f"unparseable timestamp {raw_time!r}")
                continue
            try:
                value = float(raw_value)
            except ValueError:
                bad(line_no, f"unparseable value {raw_value!r}")
                continue
            if math.isnan(value):
                bad(line_no, "missing value")
                continue
            lo, hi = CLAMP_RANGE
            if value < lo or value > hi:
                clamp_counts[raw_id] = clamp_counts.get(raw_id, 0) + 1
                value = min(max(value, lo), hi)
            by_subject.setdefault(raw_id, []).append((stamp, value, line_no))

    series = []
    for subject_id, readings in by_subject.items():
        readings.sort(key=lambda reading: reading[0])
        stamps = []
        values = []
        for stamp, value, line_no in readings:
            if stamps and stamp == stamps[-1]:
                bad(line_no, f"duplicate timestamp {stamp} for subject {subject_id}")
                continue
            stamps.append(stamp)
            values.append(value)
        if stamps:
            series.append(SubjectSeries(subject_id, tuple(stamps), tuple(values)))
    return IngestResult(series, clamp_counts, skipped)


def write_cgm_csv(
    path: Union[str, Path], series: Sequence[SubjectSeries], schema: CsvSchema = CsvSchema()
) -> None:
    """Write series back to CSV (timestamps as epoch seconds, full precision)."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([schema.id_column, schema.time_column, schema.value_column])
        for s in series:
            for stamp, value in zip(s.timestamps, s.values):
                writer.writerow([s.subject_id, repr(float(stamp)), repr(float(value))])


def apply_inclusion(series: SubjectSeries, policy: InclusionPolicy = InclusionPolicy()) -> InclusionDecision:
    """Keep/drop decision for one series under the three-tier completeness rule.

    Completeness is the fraction of expected readings over the elapsed wear
    time (first to last timestamp); gaps are not imputed.  Long wears are kept
    when their total readings cover the required fraction of the long window.
    """
    wear_days = series.wear_days
    expected = series.wear_seconds / series.expected_interval + 1.0
    completeness = series.n / expected
    if wear_days < policy.short_days:
        keep = completeness >= policy.short_fraction
        cmp = ">=" if keep else "<"
        reason = f"short-wear completeness {completeness:.2f} {cmp} {policy.short_fraction:.2f}"
    elif wear_days <= policy.mid_days:
        keep = completeness >= policy.mid_fraction
        cmp = ">=" if keep else "<"
        reason = f"mid-window completeness {completeness:.2f} {cmp} {policy.mid_fraction:.2f}"
    else:
        required = policy.long_fraction * policy.long_window_days * SECONDS_PER_DAY / series.expected_interval
        keep = series.n >= required
        reading_days = series.n * series.expected_interval / SECONDS_PER_DAY
        required_days = required * series.expected_interval / SECONDS_PER_DAY
        cmp = ">=" if keep else "<"
        reason = f"long-wear readings {reading_days:.2f} days {cmp} {required_days:.2f} required"
    return InclusionDecision(keep=keep, reason=reason, wear_days=wear_days, completeness=completeness)


def empirical_histogram(series: SubjectSeries, domain: Domain = CGM_DOMAIN) -> Histogram:
    """Unit-width integer histogram of a kept series.

    On the default domain this yields 361 bins for the levels 40..400, i.e. a
    composition with 361 components.
    """
    cutoffs = np.arange(domain.lower + 1.0, domain.upper)
    sample = EmpiricalSample(domain, np.asarray(series.values), subject_id=series.subject_id)
    return build_histogram(sample, cutoffs)
