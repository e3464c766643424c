"""Daily precipitation ingestion and reduction to annual block maxima.

Blocks are calendar years. Missing daily values are a distinct state and
never coerced to zero; years with insufficient coverage are dropped and
reported, never imputed.
"""

from __future__ import annotations

import calendar
import csv
import datetime as dt
import io
import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .gev import GevParams, gev_quantile
from .seeding import derive_rng

FIRST_SYNTH_YEAR = 1981
DEFAULT_MIN_COVERAGE = 0.8

_HEADER = ["station", "date", "precip_mm"]
_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")
_BLOCK_ROWS = 8192  # csv rows per columnar block; bounds the per-block Python lists
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
# Duplicate keys pack the station index above the day ordinal:
# date.max.toordinal() is 3 652 059 < 2**22.
_ORDINAL_BITS = 22


class ParseError(ValueError):
    """A malformed input row; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ValueError):
    """Structurally parseable input that violates a data invariant."""


@dataclass(frozen=True, eq=False)
class DailyTable:
    """Daily observations as columns, one entry per data row in file order.

    ``stations`` holds the ids in first-seen order and ``station`` (int32)
    indexes it per row; ``ordinal`` (int32) is ``date.toordinal()`` and
    ``precip`` (float64) is in millimetres with NaN for a missing day.
    """

    stations: tuple[str, ...]
    station: np.ndarray
    ordinal: np.ndarray
    precip: np.ndarray

    def __len__(self) -> int:
        return len(self.precip)


@dataclass
class AnnualMaximaSeries:
    """Per-station yearly maxima with the coverage each year was built under."""

    station_id: str
    years: np.ndarray
    values: np.ndarray
    coverage: np.ndarray

    def __post_init__(self) -> None:
        self.years = np.asarray(self.years, dtype=int)
        self.values = np.asarray(self.values, dtype=float)
        self.coverage = np.asarray(self.coverage, dtype=float)
        if not (len(self.years) == len(self.values) == len(self.coverage)):
            raise ValueError("years, values and coverage must have equal length")
        if len(self.years) and np.any(np.diff(self.years) <= 0):
            raise ValueError(f"years must be strictly increasing for {self.station_id}")
        if np.any(self.values <= 0):
            raise ValueError(f"annual maxima must be positive for {self.station_id}")
        if np.any((self.coverage < 0) | (self.coverage > 1)):
            raise ValueError(f"coverage must lie in [0, 1] for {self.station_id}")

    def __len__(self) -> int:
        return len(self.years)


@dataclass(frozen=True)
class SkipEntry:
    """A station-year dropped by the coverage filter."""

    station: str
    year: int
    coverage: float


@dataclass(frozen=True)
class SummaryStats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float


def _parse_date(text: str) -> dt.date:
    """The one date form every parsing path accepts: ``YYYY-MM-DD``.

    ``date.fromisoformat`` also takes ``19900101`` and ``1990-W01-1`` from
    Python 3.11 on, so the shape is checked before it is called.
    """
    if _ISO_DATE.fullmatch(text) is None:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return dt.date.fromisoformat(text)


def _csv_rows(data: bytes) -> Iterator[list[str]]:
    # utf-8-sig drops a leading byte-order mark, as spreadsheet exports write
    return csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))


def parse_daily_csv(source: BinaryIO) -> DailyTable:
    """Parse a ``station,date,precip_mm`` CSV into a :class:`DailyTable`.

    An empty precipitation field means missing. Dates are ``YYYY-MM-DD``.
    Raises ParseError for malformed rows, including non-finite values, and
    ValidationError for negative precipitation or duplicated (station, date)
    keys, always for the first offending line.
    """
    data = source.read()
    try:
        table = _read_columns(data)
    except (UnicodeDecodeError, csv.Error):  # raised by the reader, possibly blocks past the first bad line
        table = None
    if table is None:
        _validate_rows(data)
        raise RuntimeError("columnar parse rejected a file the row validator accepts")
    return table


def _read_columns(data: bytes) -> DailyTable | None:
    """Columnar parse of a well-formed file, ``_BLOCK_ROWS`` csv rows at a time.

    Returns None on the first sign of any error and leaves finding and
    reporting it to :func:`_validate_rows`.
    """
    reader = _csv_rows(data)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != _HEADER:
        return None
    index: dict[str, int] = {}
    ordinals: dict[str, int] = {}
    stations = [np.empty(0, np.int32)]
    days = [np.empty(0, np.int32)]
    values = [np.empty(0)]
    n_missing = 0
    while block := list(itertools.islice(reader, _BLOCK_ROWS)):
        widths = set(map(len, block))
        if not widths <= {0, 3}:
            return None
        if 0 in widths:
            block = [row for row in block if row]
            if not block:
                continue
        station_col, date_col, value_col = zip(*block)
        n = len(block)
        station_texts = list(map(str.strip, station_col))
        for text in dict.fromkeys(station_texts):
            index.setdefault(text, len(index))
        stations.append(np.fromiter(map(index.__getitem__, station_texts), np.int32, n))
        date_texts = list(map(str.strip, date_col))
        for text in set(date_texts).difference(ordinals):
            try:
                ordinals[text] = _parse_date(text).toordinal()
            except ValueError:
                return None
        days.append(np.fromiter(map(ordinals.__getitem__, date_texts), np.int32, n))
        value_texts = list(map(str.strip, value_col))
        n_missing += value_texts.count("")
        try:
            values.append(np.fromiter([float(t) if t else math.nan for t in value_texts], np.float64, n))
        except ValueError:
            return None
    if "" in index:
        return None
    station, ordinal, precip = np.concatenate(stations), np.concatenate(days), np.concatenate(values)
    # NaN must come only from empty fields, so it can mark a missing day.
    if np.count_nonzero(~np.isfinite(precip)) != n_missing or np.any(precip < 0):
        return None
    keys = np.sort((station.astype(np.int64) << _ORDINAL_BITS) | ordinal)
    if np.any(keys[1:] == keys[:-1]):
        return None
    return DailyTable(tuple(index), station, ordinal, precip)


def _validate_rows(data: bytes) -> None:
    """Check a daily CSV row by row; raises the error of its first bad line."""
    reader = _csv_rows(data)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "empty input, expected header 'station,date,precip_mm'")
    if [h.strip() for h in header] != _HEADER:
        raise ParseError(1, f"expected header {','.join(_HEADER)!r}, got {','.join(header)!r}")

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
            date = _parse_date(date_text)
        except ValueError:
            raise ParseError(lineno, f"invalid ISO date {date_text!r}")
        if precip_text != "":
            try:
                precip = float(precip_text)
            except ValueError:
                precip = math.nan
            if not math.isfinite(precip):
                raise ParseError(lineno, f"invalid precipitation value {precip_text!r}")
            if precip < 0:
                raise ValidationError(
                    f"line {lineno}: negative precipitation {precip} for {station}"
                )
        key = (station, date)
        if key in seen:
            raise ValidationError(f"line {lineno}: duplicate record for {station} {date}")
        seen.add(key)


def block_maxima(
    table: DailyTable,
    min_coverage: float = DEFAULT_MIN_COVERAGE,
) -> tuple[list[AnnualMaximaSeries], list[SkipEntry]]:
    """Reduce daily observations to per-station annual maxima.

    A station-year is retained when the fraction of non-missing days is at
    least ``min_coverage`` and the year's maximum is positive; dropped
    years are returned in the skip log. Stations are ordered by id and
    years ascending, so the result does not depend on input row order.
    """
    if not 0.0 < min_coverage <= 1.0:
        raise ValueError("min_coverage must lie in (0, 1]")
    if len(table) == 0:
        return [], []

    # One group per (station rank, year offset): rank-major, so a station's
    # years are one contiguous row of ``span`` groups.
    order = sorted(range(len(table.stations)), key=table.stations.__getitem__)
    rank = np.empty(len(order), np.int64)
    rank[order] = np.arange(len(order))
    days = (table.ordinal.astype(np.int64) - _EPOCH_ORDINAL).astype("datetime64[D]")
    row_year = days.astype("datetime64[Y]").astype(np.int64) + 1970
    first = int(row_year.min())
    span = int(row_year.max()) - first + 1
    group = rank[table.station] * span + (row_year - first)
    n_groups = len(order) * span

    present = ~np.isnan(table.precip)
    seen = np.bincount(group, minlength=n_groups).reshape(-1, span)
    count = np.bincount(group[present], minlength=n_groups).reshape(-1, span).tolist()
    by_group = np.argsort(group, kind="stable")
    sorted_group = group[by_group]
    starts = np.flatnonzero(np.diff(sorted_group, prepend=-1))
    peak = np.full(n_groups, -np.inf)
    peak[sorted_group[starts]] = np.maximum.reduceat(
        np.where(present, table.precip, -np.inf)[by_group], starts
    )
    peak = peak.reshape(-1, span).tolist()

    series: list[AnnualMaximaSeries] = []
    skipped: list[SkipEntry] = []
    for r, i in enumerate(order):
        station = table.stations[i]
        years: list[int] = []
        maxima: list[float] = []
        coverages: list[float] = []
        for offset in np.flatnonzero(seen[r]).tolist():
            year = first + offset
            coverage = count[r][offset] / (366 if calendar.isleap(year) else 365)
            if coverage < min_coverage or peak[r][offset] <= 0.0:
                skipped.append(SkipEntry(station, year, coverage))
                continue
            years.append(year)
            maxima.append(peak[r][offset])
            coverages.append(coverage)
        if not years:
            raise ValidationError(f"station {station!r} has no year meeting the coverage threshold")
        series.append(AnnualMaximaSeries(station, np.array(years), np.array(maxima), np.array(coverages)))
    return series, skipped


def synth_dataset(
    spec: Sequence[tuple[str, GevParams]],
    years: int,
    seed: int,
) -> list[AnnualMaximaSeries]:
    """Seeded synthetic annual maxima, one series per (station, params) pair.

    Values are i.i.d. inverse-transform draws from each station's GEV law;
    the per-station stream is derived from the master seed, so output is
    bit-reproducible.
    """
    if years < 1:
        raise ValueError("years must be at least 1")
    ids = [station for station, _ in spec]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate station ids in spec")
    year_axis = np.arange(FIRST_SYNTH_YEAR, FIRST_SYNTH_YEAR + years)
    out = []
    for station, params in spec:
        if not isinstance(params, GevParams):
            params = GevParams(*params)
        rng = derive_rng(seed, "synth", station)
        u = rng.random(years)
        u[u == 0.0] = np.nextafter(0.0, 1.0)
        values = np.asarray(gev_quantile(u, params))
        out.append(AnnualMaximaSeries(station, year_axis.copy(), values, np.ones(years)))
    return out


def summary_stats(series: AnnualMaximaSeries) -> SummaryStats:
    """Five-number summary plus mean; quartiles interpolate order statistics."""
    if len(series) == 0:
        raise ValueError(f"series {series.station_id!r} is empty")
    v = series.values
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    return SummaryStats(
        minimum=float(v.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=float(v.max()),
        mean=float(v.mean()),
    )


def year_matrix(series: Sequence[AnnualMaximaSeries]) -> tuple[np.ndarray, np.ndarray]:
    """Stations x years maxima over the union of the stations' years.

    Returns ``(years, values)``: ``years`` ascending, ``values[i, t]`` the
    maximum of ``series[i]`` in ``years[t]`` and NaN where that station has
    none. Maxima are positive, so ``~np.isnan(values)`` marks the years
    present.
    """
    years = np.unique(np.concatenate([np.empty(0, dtype=int), *(s.years for s in series)]))
    values = np.full((len(series), years.size), np.nan)
    for row, s in zip(values, series):
        row[np.searchsorted(years, s.years)] = s.values
    return years, values


def write_series_csv(series: Iterable[AnnualMaximaSeries], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["station", "year", "max_mm"])
    for s in series:
        for year, value in zip(s.years.tolist(), s.values.tolist()):
            writer.writerow([s.station_id, year, format(value, ".10g")])


def read_series_csv(stream: TextIO) -> list[AnnualMaximaSeries]:
    """Load series written by :func:`write_series_csv`; coverage is set to 1."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["station", "year", "max_mm"]:
        raise ParseError(1, "expected header 'station,year,max_mm'")
    grouped: dict[str, dict[int, float]] = {}  # stations in first-seen order
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(lineno, f"expected 3 fields, got {len(row)}")
        station, year_text, value_text = (f.strip() for f in row)
        try:
            year, value = int(year_text), float(value_text)
        except ValueError:
            raise ParseError(lineno, f"invalid year/value {year_text!r},{value_text!r}")
        if not math.isfinite(value):
            raise ParseError(lineno, f"invalid max_mm value {value_text!r}")
        year_values = grouped.setdefault(station, {})
        if year in year_values:
            raise ParseError(lineno, f"repeated year {year} for station {station!r}")
        year_values[year] = value
    out = []
    for station, year_values in grouped.items():
        rows = sorted(year_values.items())
        years = np.array([y for y, _ in rows])
        values = np.array([v for _, v in rows])
        out.append(AnnualMaximaSeries(station, years, values, np.ones(len(rows))))
    return out


def write_skip_log(skips: Iterable[SkipEntry], stream: TextIO) -> None:
    for entry in skips:
        stream.write(
            json.dumps(
                {"station": entry.station, "year": entry.year, "coverage": entry.coverage},
                sort_keys=True,
            )
            + "\n"
        )
