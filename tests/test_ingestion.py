import numpy as np
import pytest

from optithresh.ingestion import (
    CGM_DOMAIN,
    CsvSchema,
    InclusionPolicy,
    SubjectSeries,
    apply_inclusion,
    empirical_histogram,
    read_cgm_csv,
    write_cgm_csv,
)

FIVE_MIN = 300.0


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
        ]
        write_cgm_csv(path, series)
        result = read_cgm_csv(path)
        by_id = {s.subject_id: s for s in result.series}
        for original in series:
            loaded = by_id[original.subject_id]
            assert loaded.timestamps == original.timestamps
            assert loaded.values == original.values


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

    def test_non_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            SubjectSeries("s", (), ())
