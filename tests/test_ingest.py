"""Ingestion tests: CSV parsing, block maxima with coverage filtering,
synthetic datasets, summaries and serialization."""

import calendar
import csv
import datetime as dt
import io
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from rainmax import ingest
from rainmax.gev import GevParams, gev_cdf
from rainmax.ingest import (
    AnnualMaximaSeries,
    ParseError,
    SkipEntry,
    ValidationError,
    _quantiles,
    _sorted_distinct,
    block_maxima,
    parse_daily_csv,
    read_series_csv,
    synth_dataset,
    write_series_csv,
    year_matrix,
)

from _reference_years import common_years, gapped_network


def _csv(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


# --------------------------------------------------------------------------
# Reference: the record-per-row parser and dict-regrouping block maxima that
# the columnar path replaced, kept as the oracle for its outputs and errors.


@dataclass(frozen=True)
class _Record:
    station_id: str
    date: dt.date
    precip_mm: float | None


def _reference_parse(source) -> list[_Record]:
    text = io.TextIOWrapper(source, encoding="utf-8", newline="")
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "empty input, expected header 'station,date,precip_mm'")
    if [h.strip() for h in header] != ["station", "date", "precip_mm"]:
        raise ParseError(1, f"expected header 'station,date,precip_mm', got {','.join(header)!r}")

    records: list[_Record] = []
    seen: set[tuple[str, dt.date]] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(lineno, f"expected 3 fields, got {len(row)}")
        station, date_text, precip_text = (field.strip() for field in row)
        if not station:
            raise ParseError(lineno, "empty station id")
        try:
            date = dt.date.fromisoformat(date_text)
        except ValueError:
            raise ParseError(lineno, f"invalid ISO date {date_text!r}")
        if precip_text == "":
            precip: float | None = None
        else:
            try:
                precip = float(precip_text)
            except ValueError:
                raise ParseError(lineno, f"invalid precipitation value {precip_text!r}")
            if precip < 0:
                raise ValidationError(
                    f"line {lineno}: negative precipitation {precip} for {station}"
                )
        key = (station, date)
        if key in seen:
            raise ValidationError(f"line {lineno}: duplicate record for {station} {date}")
        seen.add(key)
        records.append(_Record(station, date, precip))
    return records


def _reference_block_maxima(records, min_coverage=0.8):
    per_year: dict[str, dict[int, list[float]]] = {}
    for rec in records:
        if rec.precip_mm is None:
            per_year.setdefault(rec.station_id, {}).setdefault(rec.date.year, [])
            continue
        per_year.setdefault(rec.station_id, {}).setdefault(rec.date.year, []).append(
            rec.precip_mm
        )

    series: list[AnnualMaximaSeries] = []
    skipped: list[SkipEntry] = []
    for station in sorted(per_year):
        years: list[int] = []
        maxima: list[float] = []
        for year in sorted(per_year[station]):
            present = per_year[station][year]
            days = 366 if calendar.isleap(year) else 365
            coverage = len(present) / days
            if coverage < min_coverage or max(present, default=0.0) <= 0.0:
                skipped.append(SkipEntry(station, year, coverage))
                continue
            years.append(year)
            maxima.append(max(present))
        if years:
            series.append(AnnualMaximaSeries(station, np.array(years), np.array(maxima)))
    if not series:
        raise ValidationError("no station has a year meeting the coverage threshold")
    return series, skipped


class TestParseDailyCsv:
    def test_single_row(self):
        table = parse_daily_csv(_csv("station,date,precip_mm\nA,1981-01-01,12.5\n"))
        assert len(table) == 1
        assert table.stations == ("A",)
        assert (table.station.tolist(), table.precip.tolist()) == ([0], [12.5])
        assert table.ordinal.tolist() == [dt.date(1981, 1, 1).toordinal()]

    def test_missing_value_kept_distinct(self):
        table = parse_daily_csv(_csv("station,date,precip_mm\nA,1981-01-01,\nA,1981-01-02,0\n"))
        assert np.isnan(table.precip[0])
        assert table.precip[1] == 0.0

    def test_negative_precip_rejected(self):
        with pytest.raises(ValidationError):
            parse_daily_csv(_csv("station,date,precip_mm\nA,1981-01-01,-3\n"))

    def test_malformed_row_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_daily_csv(_csv("station,date,precip_mm\nA,1981-01-01,1\nB,oops\n"))
        assert err.value.line == 3

    def test_bad_date_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_daily_csv(_csv("station,date,precip_mm\nA,81/01/01,1\n"))
        assert err.value.line == 2

    def test_duplicate_station_date(self):
        text = "station,date,precip_mm\nA,1981-01-01,1\nA,1981-01-01,2\n"
        with pytest.raises(ValidationError):
            parse_daily_csv(_csv(text))

    def test_wrong_header(self):
        with pytest.raises(ParseError):
            parse_daily_csv(_csv("a,b,c\n"))

    def test_row_order_preserved(self):
        text = "station,date,precip_mm\nB,1981-01-02,1\nA,1981-01-01,2\n"
        table = parse_daily_csv(_csv(text))
        assert [table.stations[i] for i in table.station] == ["B", "A"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "NaN"])
    def test_non_finite_value_rejected(self, value):
        text = f"station,date,precip_mm\nA,1981-01-01,1\nA,1981-01-02,{value}\n"
        with pytest.raises(ParseError) as err:
            parse_daily_csv(_csv(text))
        assert err.value.line == 3
        assert str(err.value) == f"line 3: invalid precipitation value {value!r}"

    def test_byte_order_mark_accepted(self):
        # spreadsheet exports often start the file with a UTF-8 byte-order mark
        text = "\ufeffstation,date,precip_mm\nA,1981-01-01,12.5\n"
        table = parse_daily_csv(_csv(text))
        assert table.stations == ("A",) and table.precip.tolist() == [12.5]

    def test_byte_order_mark_does_not_hide_the_row_error(self):
        # a malformed file goes through the row validator, which must skip
        # the mark too and report the bad row, not the header
        with pytest.raises(ParseError) as err:
            parse_daily_csv(_csv("\ufeffstation,date,precip_mm\nA,81/01/01,1\n"))
        assert str(err.value) == "line 2: invalid ISO date '81/01/01'"

    @pytest.mark.parametrize("date_text", ["19810101", "1981-W01-1", "1981W011", "1981-01-1"])
    def test_only_extended_calendar_dates_accepted(self, date_text):
        # date.fromisoformat takes the basic and week forms from Python 3.11 on;
        # the accepted grammar must not depend on the interpreter.
        text = f"station,date,precip_mm\nA,{date_text},1\n"
        with pytest.raises(ParseError) as err:
            parse_daily_csv(_csv(text))
        assert str(err.value) == f"line 2: invalid ISO date {date_text!r}"


def _daily_rows(station: str, year: int, values) -> str:
    import datetime as dt

    lines = []
    day = dt.date(year, 1, 1)
    for v in values:
        lines.append(f"{station},{day.isoformat()},{v}")
        day += dt.timedelta(days=1)
    return "\n".join(lines)


class TestBlockMaxima:
    def test_full_year_retained(self):
        body = _daily_rows("A", 1990, [1.0] * 364 + [88.0])
        records = parse_daily_csv(_csv("station,date,precip_mm\n" + body + "\n"))
        series, skipped = block_maxima(records, min_coverage=0.8)
        assert skipped == []
        assert series[0].years.tolist() == [1990]
        assert series[0].values.tolist() == [88.0]

    def test_low_coverage_year_dropped_and_logged(self):
        good = _daily_rows("A", 1990, [1.0] * 360)
        sparse = _daily_rows("A", 1991, [5.0] * 100)
        text = "station,date,precip_mm\n" + good + "\n" + sparse + "\n"
        series, skipped = block_maxima(parse_daily_csv(_csv(text)), min_coverage=0.8)
        assert series[0].years.tolist() == [1990]
        assert len(skipped) == 1
        entry = skipped[0]
        assert (entry.station, entry.year) == ("A", 1991)
        assert entry.coverage == pytest.approx(100 / 365)

    def test_station_with_no_retained_years_errors(self):
        text = "station,date,precip_mm\n" + _daily_rows("A", 1990, [2.0] * 10) + "\n"
        with pytest.raises(ValidationError, match="no station has a year meeting"):
            block_maxima(parse_daily_csv(_csv(text)), min_coverage=0.8)

    def test_matches_bruteforce_max(self):
        rng = np.random.default_rng(5)
        values = rng.random(365) * 50 + 0.5
        body = _daily_rows("A", 1993, values.tolist())
        series, _ = block_maxima(parse_daily_csv(_csv("station,date,precip_mm\n" + body + "\n")))
        assert series[0].values[0] == pytest.approx(max(values))

    def test_permutation_invariant_in_row_order(self):
        rng = np.random.default_rng(6)
        rows = (
            _daily_rows("B", 1990, (rng.random(365) * 30 + 1).tolist()).splitlines()
            + _daily_rows("A", 1990, (rng.random(365) * 30 + 1).tolist()).splitlines()
        )
        shuffled = rows.copy()
        rng.shuffle(shuffled)
        base, _ = block_maxima(parse_daily_csv(_csv("station,date,precip_mm\n" + "\n".join(rows))))
        perm, _ = block_maxima(
            parse_daily_csv(_csv("station,date,precip_mm\n" + "\n".join(shuffled)))
        )
        assert [s.station_id for s in base] == [s.station_id for s in perm]
        for a, b in zip(base, perm):
            np.testing.assert_array_equal(a.values, b.values)

    def test_leap_year_uses_366_days(self):
        # 1992 and 1996 are leap years: 366 days fill them, 365 do not
        years = [(1992, 366), (1993, 365), (1996, 365)]
        body = "\n".join(_daily_rows("A", year, [1.0] * days) for year, days in years)
        table = parse_daily_csv(_csv("station,date,precip_mm\n" + body + "\n"))
        series, skipped = block_maxima(table, min_coverage=1.0)
        assert series[0].years.tolist() == [1992, 1993]
        assert skipped == [SkipEntry("A", 1996, 365 / 366)]

    def test_min_coverage_domain(self):
        with pytest.raises(ValueError):
            block_maxima([], min_coverage=0.0)


class TestSynthDataset:
    SPEC = [(f"s{i:02d}", GevParams(80.0 + i, 25.0, 0.05)) for i in range(20)]

    def test_shape_20_by_33(self):
        series = synth_dataset(self.SPEC, years=33, seed=7)
        assert len(series) == 20
        assert all(len(s) == 33 for s in series)

    def test_single_year(self):
        series = synth_dataset([("only", GevParams(100, 10, 0.0))], years=1, seed=1)
        assert len(series[0]) == 1

    def test_deterministic(self):
        a = synth_dataset(self.SPEC, years=33, seed=7)
        b = synth_dataset(self.SPEC, years=33, seed=7)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_invalid_years(self):
        with pytest.raises(ValueError):
            synth_dataset(self.SPEC, years=0, seed=1)

    def test_gumbel_draws_match_gumbel_cdf(self):
        params = GevParams(100.0, 10.0, 0.0)
        for seed in (1, 2):
            series = synth_dataset([("g", params)], years=10_000, seed=seed)
            stat = kstest(series[0].values, lambda v: gev_cdf(v, params)).statistic
            assert stat < 0.05


class TestNumpyStandIns:
    """``_quantiles`` and ``_sorted_distinct`` replace ``np.quantile``,
    ``np.percentile`` and ``np.unique``, which import numpy.ma; numpy's own
    functions are the oracle, bit for bit."""

    QS = (
        [0.25, 0.5, 0.75],
        [0.75, 0.25],
        np.round(np.arange(0.1, 0.91, 0.1), 10).tolist(),
        [0.0, 1e-9, 0.999, 1.0],
    )

    @pytest.mark.parametrize("seed", range(4))
    def test_quantiles_equal_numpy_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(500):
            n = int(rng.integers(1, 400))
            v = [
                rng.gumbel(80, 25, n),
                np.round(rng.random(n) * 10),  # ties
                np.exp(rng.normal(0, 30, n)),  # widely spread magnitudes
                rng.random(n) * 1e-300,
            ][trial % 4]
            for q in (*self.QS, rng.random(5)):
                want = np.quantile(v, q)
                assert _quantiles(v, q).view(np.int64).tolist() == want.view(np.int64).tolist()
            want = np.percentile(v, [25, 50, 75])
            assert _quantiles(v, [0.25, 0.5, 0.75]).tolist() == want.tolist()

    def test_sorted_distinct_equals_unique(self):
        rng = np.random.default_rng(7)
        for n in (0, 1, 2, 50):
            for v in (rng.integers(0, 6, n), np.round(rng.random(n) * 4), rng.random(n)):
                assert _sorted_distinct(v).tolist() == np.unique(v).tolist()


class TestSeriesInvariants:
    def test_years_strictly_increasing(self):
        with pytest.raises(ValueError):
            AnnualMaximaSeries("A", [1990, 1990], [1.0, 2.0])

    def test_positive_maxima(self):
        # NaN passes a test of ``<= 0``, and year_matrix would read it as a
        # missing year
        for value in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^annual maxima must be finite and positive for A$"):
                AnnualMaximaSeries("A", [1990, 1991], [5.0, value])

    def test_equal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            AnnualMaximaSeries("A", [1990, 1991], [1.0])

class TestYearMatrix:
    @pytest.mark.parametrize("seed", range(3))
    def test_pair_masks_match_per_pair_lookup(self, seed):
        series = gapped_network(seed)
        years, values = year_matrix(series)
        present = ~np.isnan(values)
        assert years.tolist() == sorted(set().union(*(s.years.tolist() for s in series)))
        for i, s in enumerate(series):
            assert years[present[i]].tolist() == s.years.tolist()
            assert values[i, present[i]].tolist() == s.values.tolist()
        for i in range(len(series)):
            for j in range(len(series)):
                both = present[i] & present[j]
                a, b = common_years(series[i], series[j])
                assert values[i, both].tolist() == a.tolist()
                assert values[j, both].tolist() == b.tolist()

    def test_no_stations(self):
        years, values = year_matrix([])
        assert years.size == 0 and values.shape == (0, 0)


class TestSerialization:
    def test_series_roundtrip(self):
        series = synth_dataset([("a st", GevParams(80, 20, 0.1))], years=12, seed=3)
        buf = io.StringIO()
        write_series_csv(series, buf)
        back = read_series_csv(io.StringIO(buf.getvalue()))
        assert back[0].station_id == "a st"
        np.testing.assert_allclose(back[0].values, series[0].values, rtol=1e-9)

    def test_series_repeated_station_year_names_line(self):
        text = "station,year,max_mm\nA,1990,1\nB,1990,3\nA,1990,2\n"
        with pytest.raises(ParseError) as err:
            read_series_csv(io.StringIO(text))
        assert err.value.line == 4
        assert str(err.value) == "line 4: repeated year 1990 for station 'A'"

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_series_non_finite_max_rejected(self, value):
        text = f"station,year,max_mm\nA,1990,10.5\nA,1991,{value}\n"
        with pytest.raises(ParseError) as err:
            read_series_csv(io.StringIO(text))
        assert err.value.line == 3
        assert str(err.value) == f"line 3: invalid max_mm value {value!r}"

    @pytest.mark.parametrize("value", ["0", "0.0", "-1.5"])
    def test_series_non_positive_max_names_line(self, value):
        text = f"station,year,max_mm\nA,1990,10.5\nA,1991,{value}\n"
        with pytest.raises(ParseError) as err:
            read_series_csv(io.StringIO(text))
        assert err.value.line == 3
        assert str(err.value) == f"line 3: max_mm must be positive, got {value!r} for station 'A'"

    @pytest.mark.parametrize("year", ["0", "-5", "10000", str(2**63), str(2**64)])
    def test_series_year_outside_calendar_names_line(self, year):
        # 2**63 used to wrap to -2**63 in the int64 cast (a RuntimeWarning)
        # and 2**64 to raise OverflowError with no line
        text = f"station,year,max_mm\nA,1990,10.5\nA,{year},12.0\n"
        with pytest.raises(ParseError) as err:
            read_series_csv(io.StringIO(text))
        assert err.value.line == 3
        assert str(err.value) == f"line 3: year must lie in [1, 9999], got {year!r}"

    def test_series_calendar_end_years_kept(self):
        text = "station,year,max_mm\nA,9999,12.0\nA,1,10.5\n"
        (series,) = read_series_csv(io.StringIO(text))
        assert series.years.tolist() == [1, 9999]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: empty input, expected header 'station,year,max_mm'"),
            (
                "station,yr,max_mm\nA,1990,10.5\n",
                "line 1: expected header 'station,year,max_mm', got 'station,yr,max_mm'",
            ),
            ("station,year,max_mm\nA,1990,10.5\nA,1991\n", "line 3: expected 3 fields, got 2"),
            ("station,year,max_mm\nA,1990,10.5,1\n", "line 2: expected 3 fields, got 4"),
            ("station,year,max_mm\nA,1991.5,12\n", "line 2: invalid year/value '1991.5','12'"),
            ("station,year,max_mm\nA,1991,12 mm\n", "line 2: invalid year/value '1991','12 mm'"),
        ],
        ids=["empty", "other_header", "two_fields", "four_fields", "bad_year", "bad_value"],
    )
    def test_series_row_errors_name_their_line(self, text, message):
        with pytest.raises(ParseError) as err:
            read_series_csv(io.StringIO(text))
        assert str(err.value) == message

    @pytest.mark.parametrize("station", ["", "  "])
    def test_series_empty_station_id_names_line(self, station):
        text = f"station,year,max_mm\nA,1990,10.5\n{station},1991,12.0\n"
        with pytest.raises(ParseError) as err:
            read_series_csv(io.StringIO(text))
        assert err.value.line == 3
        assert str(err.value) == "line 3: empty station id"


# The plain pass cuts a block at the first line end at or after this many bytes
# past its start: 7 of the 17-byte data lines of ``_broken``.
_SEAM_BLOCK_BYTES = 7 * 17


def _oracle_file(seed: int) -> bytes:
    """A seeded multi-station daily file: missing-day runs (some long enough to
    drop a year), dry years, leap years, shuffled rows, blank lines, padded
    fields and quoted fields."""
    rng = np.random.default_rng(seed)
    rows = []
    for s, station in enumerate(["St B", "A1", "Zed", "c"]):
        first = 1967 + 8 * s  # from before the 1970 epoch, through four leap years
        day, end = dt.date(first, 1, 1), dt.date(first + 4 + s % 2, 12, 31)
        start_year = day.year
        while day <= end:
            year_index = day.year - start_year
            if year_index == 1 and s == 2:
                value = "0"  # a dry year: dropped although fully covered
            elif rng.random() < 0.6:
                value = "0.0"
            else:
                value = f"{rng.gamma(0.8, 9.0):.1f}"
            missing = (year_index == 2 and 60 <= day.timetuple().tm_yday < 60 + 40 * (s + 1)) or rng.random() < 0.01
            rows.append([station, day.isoformat(), "" if missing else value])
            day += dt.timedelta(days=1)
    order = rng.permutation(len(rows))
    lines = ["station,date,precip_mm"]
    for k, i in enumerate(order.tolist()):
        station, date_text, value = rows[i]
        if k % 97 == 0:
            lines.append("")
        if k % 13 == 0:
            station, value = f"  {station} ", f" {value}  "
        if k % 31 == 0:
            station, date_text = f'"{station}"', f'"{date_text}"'
        lines.append(f"{station},{date_text},{value}")
    return ("\r\n".join(lines) + "\r\n").encode("utf-8")


def _series_key(series):
    return [(s.station_id, s.years.tolist(), s.values.tolist()) for s in series]


class TestColumnarOracle:
    """The columnar parse and grouped block maxima against the reference."""

    @pytest.mark.parametrize("block_bytes", [_SEAM_BLOCK_BYTES, ingest._BLOCK_BYTES])
    @pytest.mark.parametrize("min_coverage", [0.8, 0.95])
    def test_series_and_skip_log_equal_reference(self, monkeypatch, block_bytes, min_coverage):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        data = _oracle_file(11)
        table = parse_daily_csv(io.BytesIO(data))
        records = _reference_parse(io.BytesIO(data))
        assert len(table) == len(records)
        series, skipped = block_maxima(table, min_coverage)
        ref_series, ref_skipped = _reference_block_maxima(records, min_coverage)
        assert _series_key(series) == _series_key(ref_series)
        assert skipped == ref_skipped
        # both skip rules fire: sparse years, and a dry year that is well covered
        assert any(e.coverage < min_coverage for e in skipped)
        assert any(e.coverage >= min_coverage for e in skipped)

    def test_columns_equal_reference_records(self, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", _SEAM_BLOCK_BYTES)
        data = _oracle_file(12)
        table = parse_daily_csv(io.BytesIO(data))
        records = _reference_parse(io.BytesIO(data))
        assert [table.stations[i] for i in table.station] == [r.station_id for r in records]
        assert table.ordinal.tolist() == [r.date.toordinal() for r in records]
        precip = [None if np.isnan(v) else v for v in table.precip.tolist()]
        assert precip == [r.precip_mm for r in records]
        assert table.station.dtype == np.int32 and table.ordinal.dtype == np.int32

    def test_station_with_no_year_meeting_threshold_left_out(self):
        # A and B keep no year: both are left out, their years in the skip log
        text = "station,date,precip_mm\n" + _daily_rows("B", 1990, [2.0] * 10) + "\n"
        text += _daily_rows("A", 1990, [2.0] * 10) + "\n" + _daily_rows("C", 1990, [2.0] * 365) + "\n"
        series, skipped = block_maxima(parse_daily_csv(_csv(text)))
        ref_series, ref_skipped = _reference_block_maxima(_reference_parse(_csv(text)))
        assert _series_key(series) == _series_key(ref_series) == [("C", [1990], [2.0])]
        assert skipped == ref_skipped == [SkipEntry("A", 1990, 10 / 365), SkipEntry("B", 1990, 10 / 365)]

    def test_no_station_meeting_threshold_rejected(self):
        text = "station,date,precip_mm\n" + _daily_rows("B", 1990, [2.0] * 10) + "\n"
        text += _daily_rows("A", 1991, [0.0] * 365) + "\n"
        with pytest.raises(ValidationError) as err:
            block_maxima(parse_daily_csv(_csv(text)))
        with pytest.raises(ValidationError) as ref:
            _reference_block_maxima(_reference_parse(_csv(text)))
        assert str(err.value) == str(ref.value) == "no station has a year meeting the coverage threshold"

    def test_empty_table(self):
        series, skipped = block_maxima(parse_daily_csv(_csv("station,date,precip_mm\n")))
        assert (series, skipped) == ([], [])


def _broken(rows: dict[int, str], n: int = 24) -> bytes:
    """A valid 24-row file for station A with the given data rows replaced
    (row k sits on line k + 2; with ``_SEAM_BLOCK_BYTES`` blocks of 7 rows,
    rows 6|7, 13|14 and 20|21 straddle block seams)."""
    lines = ["station,date,precip_mm"]
    for k in range(n):
        lines.append(rows.get(k, f"A,{dt.date(1990, 1, 1) + dt.timedelta(days=k)},{k % 5}.5"))
    return ("\n".join(lines) + "\n").encode("utf-8")


_ERROR_KINDS = {
    "two_fields": "A,1990-06-01",
    "four_fields": "A,1990-06-01,1,2",
    "empty_station": " ,1990-06-01,1",
    "bad_date": "A,1990-13-01,1",
    "word_date": "A,oops,1",
    "bad_value": "A,1990-06-01,abc",
    "negative": "A,1990-06-01,-0.5",
    "duplicate": "A,1990-01-02,7",  # the first copy is row 1, in the first block
}
_SEAM_ROWS = [5, 6, 7, 13, 14, 20]

_CORPUS = {f"{kind}@{row}": _broken({row: text}) for kind, text in _ERROR_KINDS.items() for row in _SEAM_ROWS}
_CORPUS.update(
    {
        "empty_input": b"",
        "wrong_header": b"a,b,c\nA,1990-01-01,1\n",
        "blank_first_line": b"\nstation,date,precip_mm\n",
        "duplicate_then_bad_date": _broken({5: "A,1990-01-01,3", 12: "A,1990-02-30,1"}),
        "bad_date_then_duplicate": _broken({5: "A,1990-02-30,1", 12: "A,1990-01-01,3"}),
        "duplicate_across_blocks_then_bad_value": _broken({15: "A,1990-01-03,3", 22: "A,1990-06-01,x"}),
        "negative_after_blank_lines": _broken({4: "", 5: "", 9: "A,1990-06-01,-1"}),
        "quoted_newline_before_error": _broken({3: 'A,1990-06-01,"1\n"', 8: "A,1990-06-02,1,1"}),
        "bad_utf8_late": _broken({20: "A,1990-06-01,1"}) + b"A,1990-07-01,\xff\n",
        "bad_utf8_after_error": _broken({2: "A,oops,1"}, n=3000) + b"A,1990-07-01,\xff\n",
        "field_limit": _broken({}) + b"A,1990-07-01," + b"9" * 200_000 + b"\n",
        "field_limit_after_error": _broken({2: "A,oops,1"}) + b"A,1990-07-01," + b"9" * 200_000 + b"\n",
        "ragged_blank_block": _broken({k: "" for k in range(7, 14)} | {16: "A"}),
    }
)


class TestBrokenFileCorpus:
    @staticmethod
    def _error(parse, data: bytes):
        with pytest.raises(Exception) as info:
            parse(io.BytesIO(data))
        err = info.value
        return type(err), str(err), getattr(err, "line", None)

    @pytest.mark.parametrize("block_bytes", [_SEAM_BLOCK_BYTES, ingest._BLOCK_BYTES])
    @pytest.mark.parametrize("name", sorted(_CORPUS))
    def test_error_equals_reference(self, monkeypatch, block_bytes, name):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        data = _CORPUS[name]
        assert self._error(parse_daily_csv, data) == self._error(_reference_parse, data)

    # The two deliberate departures from the reference: non-finite values and
    # dates outside YYYY-MM-DD, which the reference accepts (the latter on 3.11+).
    @pytest.mark.parametrize("row", _SEAM_ROWS)
    @pytest.mark.parametrize(
        "text, message",
        [
            ("A,1990-06-01,nan", "invalid precipitation value 'nan'"),
            ("A,1990-06-01, inf", "invalid precipitation value 'inf'"),
            ("A,19900601,1", "invalid ISO date '19900601'"),
            ("A,1990-W22-5,1", "invalid ISO date '1990-W22-5'"),
        ],
    )
    def test_changed_cases_name_their_line(self, monkeypatch, row, text, message):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", _SEAM_BLOCK_BYTES)
        data = _broken({row: text})
        assert self._error(parse_daily_csv, data) == (ParseError, f"line {row + 2}: {message}", row + 2)


def _table_records(table) -> list[_Record]:
    return [
        _Record(table.stations[s], dt.date.fromordinal(d), None if np.isnan(v) else v)
        for s, d, v in zip(table.station.tolist(), table.ordinal.tolist(), table.precip.tolist())
    ]


def _outcome(parse, data: bytes):
    """The records a parse returns, or the type, message and line of its error."""
    try:
        result = parse(io.BytesIO(data))
    except Exception as err:
        return type(err), str(err), getattr(err, "line", None)
    return result if isinstance(result, list) else _table_records(result)


def _assert_same_table(a, b):
    assert a.stations == b.stations
    for column in ("station", "ordinal", "precip"):
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True), column


_PLAIN_FORMS = {"lf": ("", "\n"), "crlf": ("", "\r\n"), "bom_crlf": ("\ufeff", "\r\n")}
_ID_WORD = st.text(alphabet="AbZtaéóñÑü0-9_.", min_size=1, max_size=6)
_VALUE = st.one_of(
    st.just(""),
    st.floats(0, 500).map(lambda v: f"{v:.1f}"),
    st.sampled_from(["0", "1_000", ".5", "5.", "1e2", "12.25", "-0", "007"]),
)


@st.composite
def _plain_files(draw):
    """A plain daily file: ids with inner spaces and accents, missing values,
    blank lines, rows in any order, in one of the ``_PLAIN_FORMS``."""
    id_text = st.lists(_ID_WORD, min_size=1, max_size=3).map(" ".join)
    ids = draw(st.lists(id_text, min_size=1, max_size=4, unique=True))
    rows = []
    for station in ids:
        days = draw(st.lists(st.integers(0, 3000), min_size=1, max_size=12, unique=True))
        rows += [f"{station},{dt.date(1968, 12, 25) + dt.timedelta(days=d)},{draw(_VALUE)}" for d in days]
    lines = ["station,date,precip_mm", *draw(st.permutations(rows))]
    for at in draw(st.lists(st.integers(1, len(lines)), max_size=3)):
        lines.insert(at, "")
    bom, eol = _PLAIN_FORMS[draw(st.sampled_from(sorted(_PLAIN_FORMS)))]
    return (bom + eol.join(lines) + draw(st.sampled_from([eol, ""]))).encode("utf-8")


def _bench_shaped_file(stations: int = 3, years: int = 2) -> bytes:
    """Rows shaped like the benchmark's daily file: ``Dnn`` ids, station by
    station and day by day, one-decimal values and a run of empty ones."""
    rng = np.random.default_rng(3)
    lines = ["station,date,precip_mm"]
    for s in range(stations):
        day = dt.date(1971, 1, 1)
        while day.year < 1971 + years:
            value = "" if 40 <= day.timetuple().tm_yday < 60 else f"{rng.gamma(0.5, 8.0):.1f}"
            lines.append(f"D{s + 1:02d},{day},{value}")
            day += dt.timedelta(days=1)
    return ("\n".join(lines) + "\n").encode("utf-8")


_ACCENTED = (
    "station,date,precip_mm\n"
    "Paso de los Toros,1990-01-01,12.5\nTacuarembó,1990-01-01,\nPaso de los Toros,1990-01-02,0\n"
)

# Valid and invalid files at the edges of the plain grammar
_EDGE_FILES = {
    "year_0000": _broken({5: "A,0000-01-01,1"}),
    "signed_year": _broken({5: "A,+990-01-01,1"}),
    "lone_cr": _broken({5: "A,1990-01-06,1\rA,1990-06-01,2"}),
    "lone_cr_in_id": _broken({13: "A\rB,1990-06-01,1"}),
    "nul_in_id": _broken({6: "A\0B,1990-06-01,1"}),
    "nul_ending_id": _broken({6: "A\0,1990-06-01,1"}),
    "trailing_space_id": _broken({7: "A ,1990-06-01,1"}),
    "no_break_space_id": _broken({7: "\u00a0A,1990-06-01,1"}),
    "id_over_field_limit": _broken({}) + b"B" * (csv.field_size_limit() + 1) + b",1990-07-01,1\n",
    "underscore_value": _broken({14: "A,1990-01-15,1_000"}),
    "no_final_newline": _broken({})[:-1],
    "crlf_then_lf": _broken({}).replace(b"\n", b"\r\n", 10),
    "accented": _ACCENTED.encode("utf-8"),
}


class TestBytesPass:
    """The plain-file bytes pass against the row path and the reference."""

    @settings(max_examples=150, deadline=None)
    @given(data=_plain_files())
    def test_plain_files_equal_row_path_and_reference(self, data):
        plain = ingest._read_plain(data)
        assert plain is not None
        _assert_same_table(plain, ingest._validate_rows(data))
        assert _table_records(plain) == _reference_parse(io.BytesIO(data.removeprefix("\ufeff".encode())))

    @pytest.mark.parametrize("block_bytes", [1, _SEAM_BLOCK_BYTES, ingest._BLOCK_BYTES])
    @pytest.mark.parametrize("name", sorted(_EDGE_FILES))
    def test_edge_file_equals_reference(self, monkeypatch, block_bytes, name):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        data = _EDGE_FILES[name]
        assert _outcome(parse_daily_csv, data) == _outcome(_reference_parse, data)

    def test_field_limit_below_the_gather_width_takes_the_row_path(self):
        data = _broken({}) + b"B" * 150 + b",1990-07-01,1\n"
        assert parse_daily_csv(io.BytesIO(data)).stations == ("A", "B" * 150)
        limit = csv.field_size_limit(100)
        try:
            outcome = _outcome(parse_daily_csv, data)
            assert outcome[0] is csv.Error and outcome == _outcome(_reference_parse, data)
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("block_bytes", [1, _SEAM_BLOCK_BYTES, ingest._BLOCK_BYTES])
    def test_blocks_cut_anywhere_give_one_table(self, monkeypatch, block_bytes):
        data = _bench_shaped_file()
        whole = ingest._read_plain(data)
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        _assert_same_table(ingest._read_plain(data), whole)

    @pytest.mark.parametrize(
        "data, replayed",
        [
            (_bench_shaped_file(), False),
            (_ACCENTED.encode("utf-8"), False),
            (_broken({}).replace(b"\n", b"\r\n"), False),
            (_broken({3: '"A",1990-01-04,1'}), True),
            (_broken({3: "A, 1990-01-04,1"}), True),
        ],
        ids=["bench_shaped", "accented", "crlf", "quoted", "padded"],
    )
    def test_only_files_outside_the_plain_grammar_take_the_row_path(self, monkeypatch, data, replayed):
        calls = []

        def spy(data):
            calls.append(len(data))
            return row_path(data)

        row_path = ingest._validate_rows
        monkeypatch.setattr(ingest, "_validate_rows", spy)
        table = parse_daily_csv(io.BytesIO(data))
        assert bool(calls) == replayed
        assert _table_records(table) == _reference_parse(io.BytesIO(data))
