"""The CSV reader behind ``ingestion.read_cgm_csv``, imported on its first call.

Kept out of ``ingestion`` so that runs that read no CSV neither compile nor hold it.
"""

from __future__ import annotations

import csv
import io
import re
from array import array
from datetime import datetime, timezone
from math import isfinite, nan
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .ingestion import CLAMP_RANGE, CsvSchema, IngestResult, Readings, SubjectSeries
from .losses import _SCRATCH_BYTES

#: Digits of a plain number: fewer than 16, so below 2**53 and parsed exactly as integers.
_PLAIN_DIGITS = 15

#: Bytes of the file that ``_scan`` reads at once.  It holds at most about 16 bytes of
#: scratch per byte read, so a block keeps within ``losses._SCRATCH_BYTES``.
_SCAN_BYTES = _SCRATCH_BYTES // 16


def _iso_timestamp(raw: str) -> float:
    """Epoch seconds of an ISO 8601 stamp, UTC unless it names a zone; NaN if it is none."""
    try:
        stamp = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
    except ValueError:
        return nan
    return (stamp.replace(tzinfo=timezone.utc) if stamp.tzinfo is None else stamp).timestamp()


def read(path: Union[str, Path], schema: CsvSchema, on_bad_row: str, label_column: Optional[str]) -> IngestResult:
    """``read_cgm_csv``: every row goes through one row body, ``_RowBody.take``.

    A file without quotes, bare carriage returns or NUL bytes, read without a
    label column, is scanned as bytes first, and its plain-number lines skip the
    row body (see ``_scan``).  Any other read gives the whole file to the row
    body through one ``csv.reader``.
    """
    if on_bad_row not in ("error", "skip"):
        raise ValueError("on_bad_row must be 'error' or 'skip'")
    path = Path(path)
    data = path.read_bytes()
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ValueError(f"line 1: {exc}") from None
    if header is None:
        return IngestResult([], {}, [])
    names = (schema.id_column, schema.time_column, schema.value_column)
    for column in names:
        if column not in header:
            raise ValueError(f"missing required column {column!r} in {path}")
    rows = _RowBody(header, names, label_column, on_bad_row)
    bare_cr = b"\r" in data and re.search(b"\r(?!\n)", data)
    if label_column is None and not (b'"' in data or b"\0" in data or bare_cr):
        _scan(data, rows)
    else:
        rows.take(reader, range(1, len(data) + 2))
    del data, reader  # the file's bytes need not outlive the sort in ``result``
    return rows.result()


class _RowBody:
    """The row body: each row of a CSV becomes a reading or a bad row, in file order.

    A reading keeps its subject's code, in order of each subject's first good
    reading, and its line.  ``blocks`` holds readings parsed elsewhere, as the
    same four columns.
    """

    def __init__(self, header: list, names: tuple, label_column: Optional[str], on_bad_row: str):
        position = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
        self.commas, self.at = len(header) - 1, tuple(position[name] for name in names)
        self.labels = self.conflict = None
        if label_column in header:
            self.labels, self.label_at = {}, position[label_column]
        self.on_bad_row, self.skipped = on_bad_row, []
        self.codes_of: dict = {}  # subject id -> code
        self.columns = (array("q"), array("d"), array("d"), array("q"))  # code, stamp, value, line
        self.blocks: list = []

    def bad(self, line: int, reason: str) -> None:
        if self.on_bad_row == "error":
            raise ValueError(f"line {line}: {reason}")
        self.skipped.append((line, reason))

    def take(self, reader, lines) -> None:
        """Read each row of the csv ``reader``, whose n-th line is line ``lines[n - 1]`` of the file."""
        id_at, time_at, value_at = self.at
        width, labels, conflict, bad, codes_of = max(self.at) + 1, self.labels, self.conflict, self.bad, self.codes_of
        codes, stamps, values, numbers = (column.append for column in self.columns)
        if labels is not None:
            label_at = self.label_at
            label_width = max(id_at, label_at) + 1
        try:
            for row in reader:
                if not row:
                    continue
                line = lines[reader.line_num - 1]
                if labels is not None and len(row) >= label_width and row[id_at]:
                    if labels.setdefault(row[id_at], row[label_at]) != row[label_at] and conflict is None:
                        conflict = row[id_at]
                if len(row) < width or not row[id_at]:
                    bad(line, "incomplete row")
                    continue
                raw_time, raw_value = row[time_at], row[value_at]
                try:
                    stamp = float(raw_time)
                except ValueError:
                    stamp = _iso_timestamp(raw_time)
                if not isfinite(stamp):
                    bad(line, f"unparseable timestamp {raw_time!r}")
                    continue
                try:
                    value = float(raw_value)
                except ValueError:
                    bad(line, f"unparseable value {raw_value!r}")
                    continue
                if value != value:
                    bad(line, "missing value")
                    continue
                codes(codes_of.setdefault(row[id_at], len(codes_of)))
                stamps(stamp)
                values(value)
                numbers(line)
        except csv.Error as exc:  # a structure error, such as a field over csv.field_size_limit()
            raise ValueError(f"line {lines[reader.line_num - 1]}: {exc}") from None
        self.conflict = conflict

    def result(self) -> IngestResult:
        """The readings sorted by subject and time; a subject's repeated stamps are bad rows."""
        ids = list(self.codes_of)
        read = [np.frombuffer(column, column.typecode) for column in self.columns]
        code, stamp, value, line = (np.concatenate(parts) for parts in zip(read, *self.blocks))
        del read, self.blocks[:]
        out_of_range = np.flatnonzero((value < CLAMP_RANGE[0]) | (value > CLAMP_RANGE[1]))
        out_of_range = out_of_range[np.argsort(line[out_of_range])]  # in file order
        clamped, first, counts = np.unique(code[out_of_range], return_index=True, return_counts=True)
        by_first = np.argsort(first)  # keys in order of each subject's first clamp
        clamp_counts = dict(zip([ids[c] for c in clamped[by_first]], counts[by_first].tolist()))
        order = np.lexsort((line, stamp, code))  # equal stamps in file order
        code, stamp, value, line = code[order], stamp[order], np.clip(value[order], *CLAMP_RANGE), line[order]
        # x - y == 0 exactly when x == y for finite floats; the first of a run is never a duplicate.
        duplicate = (np.diff(code, prepend=-1) == 0) & (np.diff(stamp, prepend=np.nan) == 0)
        for i in np.flatnonzero(duplicate):
            self.bad(int(line[i]), f"duplicate timestamp {float(stamp[i])} for subject {ids[code[i]]}")
        kept = ~duplicate
        bounds = np.searchsorted(code[kept], np.arange(len(ids) + 1))
        readings = Readings(ids, bounds, stamp[kept], value[kept], np.full(len(ids), SubjectSeries.expected_interval))
        return IngestResult(readings, clamp_counts, self.skipped, self.labels, self.conflict)


def _scan(data: bytes, rows: _RowBody) -> None:
    """Give ``rows`` the lines of ``data`` after its header, one block of lines at a time.

    A plain line has the header's number of commas, a non-empty id and at most
    ``csv.field_size_limit()`` bytes, and its time and value are plain numbers:
    1 to ``_PLAIN_DIGITS`` ASCII digits, then optionally a "." and zeros.  Such a
    number is exactly its integer, which is ``float(field)``.  Plain lines in a
    run of one subject are parsed as arrays into ``rows.blocks``; the run's first
    line goes to ``rows.take`` with every other line, and gives the run its code.
    """
    id_at, time_at, value_at = rows.at
    limit = csv.field_size_limit()
    start, first_line = data.find(b"\n") + 1 or len(data), 2
    while start < len(data):
        end = len(data) if start + _SCAN_BYTES >= len(data) else data.rfind(b"\n", start, start + _SCAN_BYTES) + 1
        end = end or data.find(b"\n", start + _SCAN_BYTES) + 1 or len(data)  # a line longer than a block
        chunk, start = data[start:end], end
        if not chunk.isascii():
            try:
                chunk.decode("utf-8")
            except UnicodeDecodeError as exc:  # the lines before the undecodable one are read first
                before = chunk[:chunk.rfind(b"\n", 0, exc.start) + 1].decode("utf-8").split("\n")
                rows.take(csv.reader(before), range(first_line, first_line + len(before)))
                raise
        if not chunk.endswith(b"\n"):
            chunk += b"\n"
        a = np.frombuffer(chunk, np.uint8)
        ends = np.flatnonzero(a == 10)
        starts = np.concatenate(([0], ends[:-1] + 1))
        comma = np.flatnonzero(a == 44)
        first = np.searchsorted(comma, starts)
        line = np.flatnonzero((np.searchsorted(comma, ends) - first == rows.commas) & (ends - starts <= limit))

        def field(j: int, line: np.ndarray) -> tuple:
            """Bounds of field ``j`` of the lines ``line``, without a line's carriage return."""
            lo = starts[line] if j == 0 else comma[first[line] + j - 1] + 1
            if j < rows.commas:
                return lo, comma[first[line] + j]
            return lo, ends[line] - (a[ends[line] - 1] == 13)

        nondigit = np.flatnonzero(a - 48 >= 10)
        ok, stamps = _plain_numbers(a, nondigit, *field(time_at, line))
        line, stamps = line[ok], stamps[ok]
        ok, values = _plain_numbers(a, nondigit, *field(value_at, line))
        line, stamps, values = line[ok], stamps[ok], values[ok]
        id_lo, id_hi = field(id_at, line)
        ok = id_hi > id_lo
        line, stamps, values, id_lo, size = line[ok], stamps[ok], values[ok], id_lo[ok], (id_hi - id_lo)[ok]
        # A run of one subject goes on while a plain line's id is the previous plain line's.
        same = np.zeros(len(line), bool)
        same[1:] = size[1:] == size[:-1]
        pair = np.flatnonzero(same)
        if len(pair):
            byte, head = _spans(id_lo[pair], size[pair])
            back = byte - np.repeat(id_lo[pair] - id_lo[pair - 1], size[pair])
            same[pair] = ~np.logical_or.reduceat(a[byte] != a[back], head)
        run = np.flatnonzero(~same)
        taken = np.ones(len(ends), bool)
        taken[line[same]] = False
        taken = np.flatnonzero(taken)  # never empty: a block's first plain line starts a run
        cut = np.flatnonzero(np.diff(taken) != 1) + 1  # spans of consecutive taken lines start there
        texts: list = []
        for lo, hi in zip(starts[taken[np.append(0, cut)]].tolist(), ends[taken[np.append(cut, 0) - 1]].tolist()):
            texts += chunk[lo:hi].decode("utf-8").split("\n")
        rows.take(csv.reader(texts), (first_line + taken).tolist())
        ids = [chunk[lo:lo + n].decode("utf-8") for lo, n in zip(id_lo[run].tolist(), size[run].tolist())]
        codes = np.array([rows.codes_of[i] for i in ids], np.int64)
        run_codes = np.repeat(codes, np.diff(np.append(run, len(line))) - 1)
        rows.blocks.append((run_codes, stamps[same], values[same], first_line + line[same]))
        first_line += len(ends)


def _plain_numbers(a: np.ndarray, nondigit: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Which fields ``a[lo:hi]`` are plain numbers, and their values where they are.

    ``nondigit`` holds the positions of the bytes of ``a`` that are no ASCII
    digit; ``a`` ends with a newline.
    """
    digits = nondigit[np.searchsorted(nondigit, lo)] - lo
    point = lo + digits
    ok = (digits >= 1) & (digits <= _PLAIN_DIGITS) & ((point == hi) | (a[point] == 46))
    zeros = np.flatnonzero(ok & (point + 1 < hi))  # the bytes after the point must be zeros
    if len(zeros):
        byte, head = _spans(point[zeros] + 1, hi[zeros] - point[zeros] - 1)
        ok[zeros] = ~np.logical_or.reduceat(a[byte] != 48, head)
    digits, point = digits[ok], point[ok]
    place = np.arange(int(digits.max(initial=1)))  # of each digit, counted from the last
    digit = a.take((point - 1)[:, None] - place, mode="clip") - 48
    values = np.zeros(len(lo))
    values[ok] = np.where(place < digits[:, None], digit, 0) @ 10 ** place
    return ok, values


def _spans(lo: np.ndarray, n: np.ndarray) -> tuple:
    """Positions of the bytes of the spans ``[lo, lo + n)``, each ``n >= 1``, and where each span starts among them."""
    head = np.cumsum(n) - n
    return np.arange(head[-1] + n[-1]) + np.repeat(lo - head, n), head
