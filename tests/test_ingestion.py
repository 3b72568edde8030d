import csv
from pathlib import Path

import numpy as np
import pytest

from optithresh.ingestion import (
    CGM_DOMAIN,
    CsvSchema,
    InclusionPolicy,
    IngestResult,
    SubjectSeries,
    apply_inclusion,
    empirical_histogram,
    read_cgm_csv,
    write_cgm_csv,
)

FIVE_MIN = 300.0


def awkward_series():
    """Series whose ids need quoting in CSV (or look as if they might)."""
    rng = np.random.default_rng(11)
    series = []
    for i, sid in enumerate(["a,b", 'q"x', "x\ny", "x\ry", " pad ", "é", "plain"]):
        stamps = np.cumsum(rng.uniform(0.1, 600.0, 5 + i)) + 1.7e9
        series.append(SubjectSeries(sid, tuple(stamps.tolist()), tuple(rng.uniform(40, 400, 5 + i).tolist())))
    return series


def make_series(subject="s1", n=288, interval=FIVE_MIN, start=1_700_000_000.0, value=100.0):
    stamps = tuple(start + i * interval for i in range(n))
    return SubjectSeries(subject, stamps, tuple([value] * n))


class TestReadCsv:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        result = read_cgm_csv(path)
        assert result.series == []

    def test_clamping_counted(self, tmp_path):
        path = tmp_path / "clamp.csv"
        path.write_text("id,time,gl\na,0,39\na,300,100\na,600,450\n")
        result = read_cgm_csv(path)
        assert len(result.series) == 1
        assert result.series[0].values == (40.0, 100.0, 400.0)
        assert result.clamp_counts == {"a": 2}

    def test_interleaved_subjects_sorted(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            "id,time,gl\n"
            "a,600,110\n"
            "b,0,90\n"
            "a,0,100\n"
            "b,300,95\n"
        )
        result = read_cgm_csv(path)
        by_id = {s.subject_id: s for s in result.series}
        assert by_id["a"].timestamps == (0.0, 600.0)
        assert by_id["a"].values == (100.0, 110.0)
        assert by_id["b"].values == (90.0, 95.0)

    def test_rfc3339_timestamps(self, tmp_path):
        path = tmp_path / "iso.csv"
        path.write_text(
            "id,time,gl\n"
            "a,2023-01-02T00:00:00Z,100\n"
            "a,2023-01-02T00:05:00Z,105\n"
        )
        result = read_cgm_csv(path)
        stamps = result.series[0].timestamps
        assert stamps[1] - stamps[0] == 300.0

    def test_malformed_rows_strict_and_tolerant(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,time,gl\na,0,100\na,nonsense,101\na,600,102\n")
        with pytest.raises(ValueError, match="line 3"):
            read_cgm_csv(path)
        result = read_cgm_csv(path, on_bad_row="skip")
        assert result.series[0].values == (100.0, 102.0)
        assert result.skipped_rows[0][0] == 3

    def test_duplicate_timestamp_reports_its_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        # The blank line 4 still counts as a line of the file.
        path.write_text("id,time,gl\na,0,100\nb,0,90\n\na,300,101\na,0,120\nb,300,91\n")
        with pytest.raises(ValueError, match="line 6: duplicate timestamp"):
            read_cgm_csv(path)
        result = read_cgm_csv(path, on_bad_row="skip")
        assert result.skipped_rows == [(6, "duplicate timestamp 0.0 for subject a")]
        by_id = {s.subject_id: s for s in result.series}
        assert by_id["a"].values == (100.0, 101.0)
        assert by_id["b"].values == (90.0, 91.0)

    def test_non_finite_timestamps_are_bad_rows(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("id,time,gl\na,0,100\na,nan,101\na,300,102\na,inf,103\na,-inf,104\n")
        with pytest.raises(ValueError, match="line 3: unparseable timestamp 'nan'"):
            read_cgm_csv(path)
        result = read_cgm_csv(path, on_bad_row="skip")
        assert result.skipped_rows == [
            (3, "unparseable timestamp 'nan'"),
            (5, "unparseable timestamp 'inf'"),
            (6, "unparseable timestamp '-inf'"),
        ]
        assert result.series[0].timestamps == (0.0, 300.0)
        assert result.series[0].wear_days == 300.0 / 86400.0

    def test_labels_read_in_the_same_pass(self, tmp_path):
        path = tmp_path / "labels.csv"
        # Line 4 has a bad time and line 5 no value; both still carry a label.
        path.write_text("id,time,gl,group\na,0,100,x\nb,0,90,y\nc,oops,95,y\nd,0\n")
        result = read_cgm_csv(path, on_bad_row="skip", label_column="group")
        assert result.labels == {"a": "x", "b": "y", "c": "y"}
        assert result.label_conflict is None
        assert [s.subject_id for s in result.series] == ["a", "b"]
        assert read_cgm_csv(path, on_bad_row="skip", label_column="cohort").labels is None
        assert read_cgm_csv(path, on_bad_row="skip").labels is None

    def test_first_label_conflict_in_file_order(self, tmp_path):
        path = tmp_path / "conflict.csv"
        path.write_text("id,time,gl,group\na,0,100,x\nb,0,90,y\nb,300,91,x\na,300,101,y\n")
        result = read_cgm_csv(path, label_column="group")
        assert result.label_conflict == "b"
        assert len(result.series) == 2

    def test_line_numbers_count_blank_lines_and_quoted_newlines(self, tmp_path):
        # Blank lines and quoted newlines count; a row is numbered by its last physical line.
        path = tmp_path / "lines.csv"
        path.write_text('id,time,gl\n\n\na,zz,100\n"b\nc",0,x\n\na,0,100\na,0,101\n')
        with pytest.raises(ValueError, match="line 4: unparseable timestamp 'zz'"):
            read_cgm_csv(path)
        assert read_cgm_csv(path, on_bad_row="skip").skipped_rows == [
            (4, "unparseable timestamp 'zz'"),
            (6, "unparseable value 'x'"),
            (9, "duplicate timestamp 0.0 for subject a"),
        ]

    @pytest.mark.parametrize("on_bad_row", ["error", "skip"])
    def test_csv_structure_error_names_its_line(self, tmp_path, on_bad_row):
        path = tmp_path / "huge.csv"
        # Line 3 holds a field longer than csv.field_size_limit(): not a bad row
        # that can be skipped, but a file the csv module cannot parse.
        path.write_text(f"id,time,gl\na,0,100\na,300,{'1' * (csv.field_size_limit() + 1)}\na,600,102\n")
        with pytest.raises(ValueError, match="line 3: field larger than field limit"):
            read_cgm_csv(path, on_bad_row=on_bad_row)

    def test_missing_column_fatal(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("id,when,gl\na,0,100\n")
        with pytest.raises(ValueError, match="missing required column"):
            read_cgm_csv(path)

    def test_custom_schema(self, tmp_path):
        path = tmp_path / "schema.csv"
        path.write_text("subject,at,glucose\na,0,100\n")
        schema = CsvSchema("subject", "at", "glucose")
        result = read_cgm_csv(path, schema=schema)
        assert result.series[0].subject_id == "a"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "round.csv"
        series = [
            SubjectSeries("a", (0.0, 300.0, 650.5), (100.0, 101.5, 99.0)),
            SubjectSeries("b", (10.0, 310.0), (80.0, 82.0)),
            *awkward_series(),
        ]
        write_cgm_csv(path, series)
        result = read_cgm_csv(path)
        by_id = {s.subject_id: s for s in result.series}
        for original in series:
            loaded = by_id[original.subject_id]
            assert loaded.timestamps == original.timestamps
            assert loaded.values == original.values


class TestReadings:
    """What the CLI reads from the columns equals what the public API gives for each series."""

    def test_columns_give_the_series_decisions_and_histograms(self, tmp_path):
        path = tmp_path / "mixed.csv"
        rows = [f"{sid},{start + 300 * i},{38 + (7 * i) % 370}" for sid, start, n in
                (("a", 0, 300), ("b", 900, 40), ("c", 10, 1)) for i in range(n)]
        path.write_text("id,time,gl\n" + "\n".join(rows[::2] + rows[1::2]) + "\n")
        result = read_cgm_csv(path)
        assert "series" not in vars(result)  # built on first access
        series, readings = result.series, result.readings
        assert result == read_cgm_csv(path) == IngestResult(series, result.clamp_counts, result.skipped_rows)
        assert readings.ids == [s.subject_id for s in series] == ["a", "b", "c"]
        assert np.diff(readings.bounds).tolist() == [s.n for s in series]
        policy = InclusionPolicy(short_fraction=0.5)
        assert result.decisions(policy) == {s.subject_id: apply_inclusion(s, policy) for s in series}
        for s, subject in zip(series, readings.subjects(), strict=True):
            assert apply_inclusion(subject, policy) == apply_inclusion(s, policy)
            expected, got = empirical_histogram(s), empirical_histogram(subject)
            assert got.subject_id == expected.subject_id
            assert got.masses.tobytes() == expected.masses.tobytes()

    def test_result_from_series(self):
        series = [make_series("a", n=5), make_series("b", n=3, value=70.0)]
        result = IngestResult(series, {}, [])
        assert result.series == series
        assert result == IngestResult(list(series), {}, []) != IngestResult(series[:1], {}, [])
        assert result.decisions() == {s.subject_id: apply_inclusion(s) for s in series}
        assert IngestResult([], {}, []).series == []

    def test_result_keeps_each_series_interval(self):
        series = [SubjectSeries("a", (0.0, 60.0), (100.0, 101.0), expected_interval=60.0), make_series("b", n=3)]
        result = IngestResult(series, {}, [])
        assert result.series == series
        assert result != IngestResult([SubjectSeries("a", (0.0, 60.0), (100.0, 101.0)), series[1]], {}, [])
        assert result.decisions() == {s.subject_id: apply_inclusion(s) for s in series}
        assert result.decisions()["a"].completeness == 1.0


def row_list_write_cgm_csv(path, series, schema=CsvSchema()) -> None:
    """``write_cgm_csv`` as it was before it shared the streaming writer (its body verbatim)."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([schema.id_column, schema.time_column, schema.value_column])
        for s in series:
            for stamp, value in zip(s.timestamps, s.values):
                writer.writerow([s.subject_id, repr(float(stamp)), repr(float(value))])


class TestWriteCsv:
    def test_bytes_match_row_list_writer(self, tmp_path):
        series = awkward_series() + [
            SubjectSeries("", (1e-07, 0.5, 1e20), (1e-05, 40.0, 1e300)),
            SubjectSeries(None, (np.float64(3.0), 4), (np.float32(0.1), 7)),
        ]
        for schema in (CsvSchema(), CsvSchema('sub"ject', "t,s", " gl ")):
            write_cgm_csv(tmp_path / "new.csv", series, schema)
            row_list_write_cgm_csv(tmp_path / "old.csv", series, schema)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert b"1e+20,1e+300" in (tmp_path / "new.csv").read_bytes()


class TestInclusion:
    def test_short_complete_wear_kept(self):
        series = make_series(n=288)  # exactly one day minus one slot
        decision = apply_inclusion(series)
        assert decision.keep

    def test_mid_wear_dropped_with_reason(self):
        # 10 days of wear at 60% completeness.
        n_expected = int(10 * 86400 / FIVE_MIN) + 1
        stamps = tuple(float(i * FIVE_MIN) for i in range(n_expected))
        n_keep = int(0.60 * n_expected)
        idx = np.linspace(0, n_expected - 1, n_keep).astype(int)
        series = SubjectSeries("s", tuple(stamps[i] for i in idx), tuple([100.0] * n_keep))
        decision = apply_inclusion(series)
        assert not decision.keep
        assert "mid-window completeness 0.60 < 0.70" in decision.reason

    def test_long_wear_boundary(self):
        # 30 days of wear; 9.8 days' worth of readings is the keep boundary.
        required = int(np.ceil(0.70 * 14 * 86400 / FIVE_MIN))  # 2823 readings
        span = 30 * 86400.0
        stamps = np.linspace(0.0, span, required)
        series = SubjectSeries("s", tuple(stamps), tuple([100.0] * required))
        assert apply_inclusion(series).keep
        stamps = np.linspace(0.0, span, required - 2)
        series = SubjectSeries("s", tuple(stamps), tuple([100.0] * (required - 2)))
        assert not apply_inclusion(series).keep

    def test_translation_invariance(self):
        a = make_series(start=0.0, n=100)
        b = make_series(start=5_000_000.0, n=100)
        da, db = apply_inclusion(a), apply_inclusion(b)
        assert (da.keep, da.reason) == (db.keep, db.reason)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            InclusionPolicy(short_fraction=0.0)


class TestEmpiricalHistogram:
    def test_single_level(self):
        series = make_series(value=100.0, n=10)
        h = empirical_histogram(series)
        assert h.masses.size == 361
        level_100 = int(100 - 40)
        assert h.masses[level_100] == 1.0
        assert h.masses.sum() == pytest.approx(1.0)

    def test_counting(self):
        series = SubjectSeries("s", (0.0, 300.0, 600.0, 900.0), (70.0, 70.0, 180.0, 400.0))
        h = empirical_histogram(series)
        assert h.masses[70 - 40] == 0.5
        assert h.masses[180 - 40] == 0.25
        assert h.masses[400 - 40] == 0.25

    def test_composition_dimension(self):
        series = make_series(n=5)
        h = empirical_histogram(series)
        assert h.domain == CGM_DOMAIN
        assert h.cutoffs.size == 360
        assert h.masses.size == 361


class TestSubjectSeries:
    def test_strictly_increasing_timestamps(self):
        with pytest.raises(ValueError, match="increasing"):
            SubjectSeries("s", (0.0, 0.0), (1.0, 2.0))

    @pytest.mark.parametrize("stamps", [(0.0, float("inf")), (float("-inf"), 0.0), (0.0, float("nan"), 600.0)])
    def test_non_finite_timestamps_rejected(self, stamps):
        with pytest.raises(ValueError, match="finite"):
            SubjectSeries("s", stamps, (1.0,) * len(stamps))

    def test_non_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            SubjectSeries("s", (), ())
