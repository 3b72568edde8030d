"""Differential test of ``read_cgm_csv`` against the row-by-row reader it replaced.

``oracle_read_cgm_csv`` is the former ``csv.DictReader`` implementation, kept
verbatim except for one fix: a non-finite timestamp is a bad row.
``oracle_labels`` is the former second pass of ``optithresh evaluate`` that
read a label column.  Hypothesis builds CSV texts with the irregularities real
exports have, and the column-wise reader must return the same result, raise
the same first error, and read the same labels.
"""

import csv
import io
import math
import re
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Union
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optithresh import _reader
from optithresh.ingestion import CLAMP_RANGE, CsvSchema, IngestResult, SubjectSeries, read_cgm_csv


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


def oracle_read_cgm_csv(
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
                if not math.isfinite(stamp):
                    raise ValueError(f"non-finite timestamp {raw_time!r}")
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


class LabelConflict(Exception):
    pass


def oracle_labels(path, id_column: str, label_column: str):
    """Labels per subject, None without the column; raises on the first conflict."""
    labels: dict = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if label_column not in (reader.fieldnames or []):
            return None
        for row in reader:
            sid, label = row.get(id_column), row.get(label_column)
            if sid and label is not None:
                previous = labels.setdefault(sid, label)
                if previous != label:
                    raise LabelConflict(sid)
    return labels


SUBJECTS = ["a", "b", "c", "", "s,1", "x\ny", 'q"t']
TIMES = [
    "0", "300", "600", "300.0", " 300 ", "-0", "3e2", "1_200", "nan", "inf", "-inf", "1e400",
    "2023-01-02T00:00:00Z", "2023-01-02T00:00:00", " 2023-01-02T00:05:00Z",
    "2023-01-02T01:00:00+01:00", "not-a-time", "",
]
VALUES = ["100", " 120 ", "39", "401", "400", "40", "nan", "NaN", "inf", "-inf", "HI", "", "1e3", "\t70"]
LABELS = ["x", "y", "", "x,y"]
HEADERS = [
    ["id", "time", "gl"],
    ["gl", "id", "time"],
    ["id", "time", "gl", "group"],
    ["group", "time", "id", "gl", "note"],
    ["id", "time", "gl", "time"],
    ["id", "gl", "id", "time", "group"],
    ["id", "time", "value"],
]


@st.composite
def csv_texts(draw):
    """CSV text: a header, then rows of interleaved subjects, blank lines and odd fields."""
    header = draw(st.sampled_from(HEADERS))
    pools = {"id": SUBJECTS, "time": TIMES, "gl": VALUES, "group": LABELS}
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if draw(st.integers(0, 9)) == 0:
        buffer.write("\n")
    writer.writerow(header)
    row = None
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            buffer.write("\n")
            continue
        if kind in (3, 4, 5) and row:
            # The previous row again with another value: runs of equal timestamps.
            row = [draw(st.sampled_from(VALUES)) if name == "gl" else field for name, field in zip(header, row)]
        else:
            row = [draw(st.sampled_from(pools.get(name, ["n"]))) for name in header]
        if kind == 1:
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif kind == 2:
            row.append("extra")
        if row:
            writer.writerow(row)
        else:
            buffer.write('""\n')  # one empty field, which is not a blank line
    return buffer.getvalue()


def outcome(read, path, **kwargs):
    """Everything a read returns or raises, with every float by its repr."""
    try:
        result = read(path, **kwargs)
    except ValueError as exc:
        return ("raised", str(exc))
    return (
        [(s.subject_id, [repr(t) for t in s.timestamps], [repr(v) for v in s.values]) for s in result.series],
        list(result.clamp_counts.items()),
        [(line, reason) for line, reason in result.skipped_rows],
        [type(line) for line, _ in result.skipped_rows] + [type(n) for n in result.clamp_counts.values()],
    )


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
@example(text="id,time,gl\n\na,nan,100\n")  # a bad row right after a blank line
@example(text="id,time,gl\n\n\na,0,100\n\na,0,101\n")  # a duplicate after blank lines
def test_column_wise_reader_matches_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "readings.csv"
        path.write_text(text, encoding="utf-8", newline="")
        for mode in ("error", "skip"):
            assert outcome(read_cgm_csv, path, on_bad_row=mode) == outcome(
                oracle_read_cgm_csv, path, on_bad_row=mode
            )
        try:
            result = read_cgm_csv(path, on_bad_row="skip", label_column="group")
        except ValueError:
            return
        try:
            expected = oracle_labels(path, "id", "group")
        except LabelConflict as conflict:
            assert result.label_conflict == conflict.args[0]
        else:
            assert result.label_conflict is None
            assert result.labels == expected
            if expected is not None:
                assert list(result.labels.items()) == list(expected.items())


PLAIN = re.compile(r"[0-9]{1,15}(\.0*)?")  # what the byte scan parses; ``\d`` would take any Unicode digit
SCAN_IDS = ["a", "b", "s0001", "é", "日本", "x y", " pad", " ", "\x85", ""]
SCAN_TIMES = [
    "300.0", "300.", "300.000", "0300", "9" * 15, "9" * 16, "1" * 20, "+300", "-300", "300.5", "3e2",
    " 300", "300 ", "2023-01-02T00:00:00Z", "nan", "",
]
SCAN_VALUES = ["100.0", "100.", "100.000", "1" * 15, "9" * 16, "1" * 20, "+100", "-5", "100.5", "HI", "nan", ""]
SCAN_HEADERS = [["id", "time", "gl"], ["n", "id", "time", "gl"], ["gl", "id", "time"], ["id", "time", "gl", "time"]]


@st.composite
def scan_texts(draw):
    """Quote-free CSV text, mostly rows of plain numbers: runs of one subject broken by bad
    rows and blank lines, repeated stamps, LF, CRLF or bare CR line ends, a BOM or not, and a
    last line with or without its line end."""
    header = draw(st.sampled_from(SCAN_HEADERS))
    lines, subject = [",".join(header)], "a"
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.integers(0, 11))
        if kind == 0:
            lines.append("")
            continue
        if kind == 1:
            subject = draw(st.sampled_from(SCAN_IDS))
        fields = {"id": subject, "time": str(draw(st.integers(0, 20)) * 300), "n": "x",
                  "gl": str(draw(st.sampled_from([39, 40, 100, 120, 400, 401])))}
        if kind == 2:
            fields["time"] = draw(st.sampled_from(SCAN_TIMES))
        elif kind == 3:
            fields["gl"] = draw(st.sampled_from(SCAN_VALUES))
        row = [fields[name] for name in header]
        if kind == 4:
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif kind == 5:
            row.append("extra")
        lines.append(",".join(row))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return draw(st.sampled_from(["", "\ufeff"])) + end.join(lines) + draw(st.sampled_from(["", end]))


def plain_id(line: str, header: list):
    """The id of ``line`` (without its line end) if the byte scan parses it as an array row."""
    fields, at = line.split(","), {name: i for i, name in enumerate(header)}
    plain = len(fields) == len(header) and all(PLAIN.fullmatch(fields[at[name]]) for name in ("time", "gl"))
    return fields[at["id"]] if plain and fields[at["id"]] else None


@settings(max_examples=300, deadline=None)
@given(text=scan_texts(), block=st.sampled_from([None, 1, 24]))
@example(text="id,time,gl\na,0,100\na,300,100\nb,0,100\na,600,x\na,0,101\n", block=12)
def test_byte_scan_matches_oracle(text, block):
    """The byte scan gives the oracle's result, and only the rows it cannot parse, and the
    first plain row of each run of one subject, reach the row body.  ``block`` patches the
    scan's block size, so that runs and repeated stamps span block boundaries."""
    given_lines = []
    take = _reader._RowBody.take

    def spy(rows, reader, lines):
        given_lines.append(lines)
        return take(rows, reader, lines)

    with tempfile.TemporaryDirectory() as tmp, patch.object(_reader._RowBody, "take", spy), \
            patch.object(_reader, "_SCAN_BYTES", block or _reader._SCAN_BYTES):
        path = Path(tmp) / "readings.csv"
        path.write_text(text, encoding="utf-8", newline="")
        for mode in ("error", "skip"):
            given_lines.clear()
            got = outcome(read_cgm_csv, path, on_bad_row=mode)
            assert got == outcome(oracle_read_cgm_csv, path, on_bad_row=mode)
    if got[0] == "raised":  # a header without a schema column
        return
    if re.search("\r(?!\n)", text):  # a bare carriage return: every row takes the row body
        assert len(given_lines) == 1 and isinstance(given_lines[0], range)
        return
    header = next(csv.reader([text.split("\n")[0].removesuffix("\r")]))
    physical = text.split("\n")[1:]
    if text.endswith("\n"):
        physical.pop()
    given = [line for lines in given_lines for line in lines]
    assert len(given) == len(set(given))
    previous, expected = None, []
    for number, line in enumerate(physical, start=2):
        subject = plain_id(line.removesuffix("\r"), header)
        if subject is None or subject != previous:
            expected.append(number)
        previous = subject if subject is not None else previous
    if block is None:  # one block: the row body gets exactly those lines
        assert given == expected
    else:
        assert set(expected) <= set(given)


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("bad_line", [2, None])
def test_invalid_utf8_after_the_first_error(tmp_path, block, bad_line):
    """Rows before an undecodable byte are read first: a bad row 28 KB before it, in the scan's
    block but past the oracle's first 8 KiB of decoded text, is the first error in both."""
    lines = ["id,time,gl"] + [f"a,{300 * i},100" for i in range(2000)]
    if bad_line is not None:
        lines[bad_line - 1] = "a,x,100"
    path = tmp_path / "readings.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode() + b"\xff,0,100\n")
    with patch.object(_reader, "_SCAN_BYTES", block or _reader._SCAN_BYTES):
        if bad_line is not None:
            expected = outcome(oracle_read_cgm_csv, path)
            assert outcome(read_cgm_csv, path) == expected == ("raised", "line 2: unparseable timestamp 'x'")
        for read in (read_cgm_csv, oracle_read_cgm_csv):
            with pytest.raises(UnicodeDecodeError):
                read(path, on_bad_row="skip")
            if bad_line is None:
                with pytest.raises(UnicodeDecodeError):
                    read(path)
