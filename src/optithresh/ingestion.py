"""CGM-style CSV ingestion: per-subject series, inclusion criteria, histograms.

Readings arrive as (subject, timestamp, value) rows.  Values are clamped to the
measurable 40-400 mg/dL range, subjects are screened by wear-time completeness,
and kept series become unit-width integer histograms on [40, 401) so that the
361 integer levels map to one bin each.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from math import inf
from pathlib import Path
from types import SimpleNamespace
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
    "Readings",
    "SubjectReadings",
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


@dataclass(frozen=True, eq=False)
class SubjectReadings:
    """One subject's readings: what ``apply_inclusion`` and ``empirical_histogram`` read.

    ``Readings.subjects()`` gives them as views of its columns, without building a
    ``SubjectSeries``'s tuples.
    """

    subject_id: str
    timestamps: np.ndarray
    values: np.ndarray
    expected_interval: float = 300.0

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def wear_seconds(self) -> float:
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def wear_days(self) -> float:
        return self.wear_seconds / SECONDS_PER_DAY


@dataclass(frozen=True)
class SubjectSeries(SubjectReadings):
    """Time-ordered readings of one subject, as tuples: ``timestamps`` in seconds since
    epoch, strictly increasing, and ``values`` in mg/dL, already clamped."""

    def __post_init__(self):
        if len(self.timestamps) != len(self.values):
            raise ValueError("timestamps and values must have equal length")
        if not self.timestamps:
            raise ValueError("series must contain at least one reading")
        stamps = np.asarray(self.timestamps, dtype=float)
        if not (np.isfinite(stamps).all() and (stamps[1:] > stamps[:-1]).all()):
            raise ValueError("timestamps must be finite and strictly increasing")
        if self.expected_interval <= 0:
            raise ValueError("expected_interval must be positive")


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
        if not 0 < self.short_days <= self.mid_days < inf:
            raise ValueError("short_days must be positive and at most mid_days, which must be finite")
        if not 0 < self.long_window_days < inf:
            raise ValueError(f"long_window_days must be finite and positive, got {self.long_window_days!r}")


@dataclass(frozen=True)
class InclusionDecision:
    keep: bool
    reason: str
    wear_days: float
    completeness: float


@dataclass(frozen=True, eq=False)
class Readings:
    """Kept readings of many subjects in columns, sorted by subject and then time.

    Subject ``ids[i]`` holds rows ``bounds[i]:bounds[i + 1]`` of ``timestamps`` and
    ``values``: at least one reading, strictly increasing timestamps and clamped values.
    ``intervals[i]`` is its expected interval between readings.
    """

    ids: list
    bounds: np.ndarray
    timestamps: np.ndarray
    values: np.ndarray
    intervals: np.ndarray

    @classmethod
    def of(cls, series: Sequence[SubjectSeries]) -> "Readings":
        """The columns of ``series``."""
        stamps, values = ([x for s in series for x in getattr(s, name)] for name in ("timestamps", "values"))
        bounds = np.cumsum([0, *(s.n for s in series)])
        return cls([s.subject_id for s in series], bounds, np.array(stamps, float), np.array(values, float),
                   np.array([s.expected_interval for s in series], float))

    def __eq__(self, other) -> bool:
        """Equal columns, so two ``IngestResult``s compare as their series would."""
        return isinstance(other, Readings) and self.ids == other.ids and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("bounds", "timestamps", "values", "intervals"))

    def subjects(self) -> list:
        """One ``SubjectReadings`` per subject, whose arrays are views of the columns."""
        return [SubjectReadings(sid, self.timestamps[a:b], self.values[a:b], interval)
                for sid, a, b, interval in zip(self.ids, self.bounds, self.bounds[1:], self.intervals.tolist())]

    def series(self) -> list:
        """One ``SubjectSeries`` per subject, of Python floats."""
        return [SubjectSeries(s.subject_id, tuple(s.timestamps.tolist()), tuple(s.values.tolist()), s.expected_interval)
                for s in self.subjects()]


@dataclass
class IngestResult:
    """Kept readings, clamp counts and bad rows of one read.

    ``series`` holds the readings as one ``SubjectSeries`` per subject, built on first
    access.  A list of series given in place of ``readings`` becomes its columns.
    """

    readings: Readings
    clamp_counts: dict
    skipped_rows: list  # (line_number, reason)
    labels: Optional[dict] = None  # subject -> label, when a label column was read
    label_conflict: Optional[str] = None  # first subject seen with two labels

    def __post_init__(self):
        if not isinstance(self.readings, Readings):
            self.readings = Readings.of(self.readings)

    @cached_property
    def series(self) -> list:
        return self.readings.series()

    def decisions(self, policy: Optional[InclusionPolicy] = None) -> dict:
        policy = policy or InclusionPolicy()
        return {s.subject_id: apply_inclusion(s, policy) for s in self.readings.subjects()}


def read_cgm_csv(
    path: Union[str, Path],
    schema: CsvSchema = CsvSchema(),
    on_bad_row: str = "error",
    label_column: Optional[str] = None,
) -> IngestResult:
    """Parse a readings CSV into per-subject, time-sorted readings.

    Out-of-range values are clamped and counted per subject.  Malformed rows
    (bad number, bad or non-finite timestamp, a subject's repeated timestamp
    after its first reading) raise by default; with ``on_bad_row="skip"`` they
    are collected with their line numbers instead.  Missing schema columns and
    CSV structure errors are always fatal.  A ``label_column`` is read from
    every row with an id.  See ``_reader`` for how.
    """
    from . import _reader

    return _reader.read(path, schema, on_bad_row, label_column)


def write_cgm_csv(
    path: Union[str, Path], series: Sequence[SubjectSeries], schema: CsvSchema = CsvSchema()
) -> None:
    """Write series back to CSV (timestamps as epoch seconds, full precision)."""
    header = [schema.id_column, schema.time_column, schema.value_column]
    _write_float_rows(path, header, ((s.subject_id, zip(_reprs(s.timestamps), _reprs(s.values))) for s in series))


def _reprs(values) -> list:
    """``repr(float(x))`` of every value, in one pass."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _write_float_rows(path, header, blocks) -> None:
    """Write a CSV one block at a time, with the bytes ``csv.writer`` gives the same rows.

    Block ``(subject_id, rows)`` holds rows of cells formatted by ``_reprs`` and is written as
    the rows ``[subject_id, *cells]``: the id is quoted once and the block is one write.
    """
    row_text = csv.writer(SimpleNamespace(write=str))  # writerow returns what write returns: the row's text
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write(row_text.writerow(header))
        for subject_id, rows in blocks:
            lead = row_text.writerow((subject_id, ""))[:-2]  # the id, quoted as in a row, and its comma
            handle.write("".join([lead + ",".join(cells) + "\r\n" for cells in rows]))


def apply_inclusion(
    series: Union[SubjectSeries, SubjectReadings], policy: InclusionPolicy = InclusionPolicy()
) -> InclusionDecision:
    """Keep/drop decision for one series under the three-tier completeness rule.

    Completeness is the fraction of expected readings over the elapsed wear
    time (first to last timestamp); gaps are not imputed.  Long wears are kept
    when their total readings cover the required fraction of the long window.
    """
    wear_days = series.wear_days
    expected = series.wear_seconds / series.expected_interval + 1.0
    completeness = series.n / expected
    if wear_days <= policy.mid_days:
        short = wear_days < policy.short_days
        tier, fraction = ("short-wear", policy.short_fraction) if short else ("mid-window", policy.mid_fraction)
        keep = completeness >= fraction
        cmp = ">=" if keep else "<"
        reason = f"{tier} completeness {completeness:.2f} {cmp} {fraction:.2f}"
    else:
        required = policy.long_fraction * policy.long_window_days * SECONDS_PER_DAY / series.expected_interval
        keep = series.n >= required
        reading_days = series.n * series.expected_interval / SECONDS_PER_DAY
        required_days = required * series.expected_interval / SECONDS_PER_DAY
        cmp = ">=" if keep else "<"
        reason = f"long-wear readings {reading_days:.2f} days {cmp} {required_days:.2f} required"
    return InclusionDecision(keep=keep, reason=reason, wear_days=wear_days, completeness=completeness)


def empirical_histogram(series: Union[SubjectSeries, SubjectReadings], domain: Domain = CGM_DOMAIN) -> Histogram:
    """Unit-width integer histogram of a kept series.

    On the default domain this yields 361 bins for the levels 40..400, i.e. a
    composition with 361 components.
    """
    cutoffs = np.arange(domain.lower + 1.0, domain.upper)
    sample = EmpiricalSample(domain, np.asarray(series.values), subject_id=series.subject_id)
    return build_histogram(sample, cutoffs)
