"""Daily precipitation ingestion and reduction to annual block maxima.

Blocks are calendar years. Missing daily values are a distinct state and
never coerced to zero; years with insufficient coverage are dropped and
reported, never imputed.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import re
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .gev import GevParams, _quantile_sample
from .seeding import derive_rng

FIRST_SYNTH_YEAR = 1981
DEFAULT_MIN_COVERAGE = 0.8

_DAILY_HEADER = ["station", "date", "precip_mm"]
_SERIES_HEADER = ["station", "year", "max_mm"]
_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")
_PLAIN_HEADER = ",".join(_DAILY_HEADER).encode()
_BLOCK_BYTES = 1 << 18  # bytes per block of the plain pass, cut on a line end; bounds its temporaries
_MAX_FIELD_BYTES = 256  # widest field of the plain pass; each block is padded by as much
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
    """Per-station yearly maxima, years ascending."""

    station_id: str
    years: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.years = np.asarray(self.years, dtype=int)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.years) != len(self.values):
            raise ValueError("years and values must have equal length")
        if len(self.years) and np.any(np.diff(self.years) <= 0):
            raise ValueError(f"years must be strictly increasing for {self.station_id}")
        if not np.all((self.values > 0) & (self.values < np.inf)):  # NaN fails both
            raise ValueError(f"annual maxima must be finite and positive for {self.station_id}")

    def __len__(self) -> int:
        return len(self.years)


@dataclass(frozen=True)
class SkipEntry:
    """A station-year dropped by the coverage filter."""

    station: str
    year: int
    coverage: float


def parse_daily_csv(source: BinaryIO) -> DailyTable:
    """Parse a ``station,date,precip_mm`` CSV into a :class:`DailyTable`.

    An empty precipitation field means missing. Dates are ``YYYY-MM-DD``.
    Raises ParseError for malformed rows, including non-finite values, and
    ValidationError for negative precipitation or duplicated (station, date)
    keys, always for the first offending line.
    """
    data = source.read()
    table = _read_plain(data)
    return _validate_rows(data) if table is None else table


def _read_plain(data: bytes) -> DailyTable | None:
    """One numpy pass over a file in the plain grammar (README "Ingest"),
    a block of whole lines at a time.

    Returns None for any other file and on the first sign of any error,
    leaving parsing, checking and reporting to :func:`_validate_rows`.
    """
    bom = 3 if data.startswith(b"\xef\xbb\xbf") else 0  # a UTF-8 byte-order mark
    cr = b"\r" in data
    eol = b"\r\n" if cr else b"\n"
    start = bom + len(_PLAIN_HEADER) + len(eol)
    if (
        data[bom:start] not in (_PLAIN_HEADER + eol, _PLAIN_HEADER)  # the latter ends the file
        or b'"' in data or b"\0" in data
        or (cr and not data.count(b"\r") == data.count(b"\r\n") == data.count(b"\n"))
        or csv.field_size_limit() < _MAX_FIELD_BYTES
    ):
        return None
    station, ordinal = np.empty((2, data.count(b"\n")), np.int32)  # a line or more per row
    precip = np.empty(station.size)
    index: dict[bytes, int] = {}  # ids in first-seen order
    done = 0
    try:
        while start < len(data):
            end = data.find(b"\n", min(start + _BLOCK_BYTES, len(data)) - 1) + 1 or len(data)
            ids, days, values = _plain_block(np.frombuffer(data, np.uint8, end - start, start), cr)
            unique, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
            for key in unique[np.argsort(first)].tolist():
                index.setdefault(key, len(index))
            rows = slice(done, done + len(ids))
            station[rows] = np.array([index[key] for key in unique.tolist()], np.int32)[inverse]
            ordinal[rows], precip[rows] = days, values
            done, start = rows.stop, end
        stations = tuple(key.decode("utf-8") for key in index)
    except ValueError:  # outside the plain grammar, a bad date or value, or bad UTF-8
        return None
    station, ordinal, precip = station[:done], ordinal[:done], precip[:done]
    keys = (station.astype(np.int64) << _ORDINAL_BITS) | ordinal
    keys.sort()
    if np.any(keys[1:] == keys[:-1]) or any(s != s.strip() for s in stations):
        return None
    return DailyTable(stations, station, ordinal, precip)


def _plain_block(lines: np.ndarray, cr: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Station ids (an ``S`` array), day ordinals and values of a run of
    whole lines; ValueError if one is outside the plain grammar or bad."""
    block = np.concatenate((lines, np.zeros(_MAX_FIELD_BYTES, np.uint8)))  # so every gather window fits
    newlines = np.flatnonzero(lines == 10)
    begin, stop = np.concatenate(([0], newlines + 1)), np.concatenate((newlines - cr, [lines.size]))
    begin, stop = begin[stop > begin], stop[stop > begin]  # blank lines are skipped
    # the commas pair up in order, each pair inside its own line
    commas = np.flatnonzero(lines == 44)
    id_end, date_end = commas[0::2], commas[1::2]
    if commas.size != 2 * begin.size:
        raise ValueError("not 2 commas a line")
    id_width, value_width = id_end - begin, stop - date_end - 1
    if np.any(id_width < 1) or np.any(value_width < 0) or np.any(date_end - id_end != 11):
        raise ValueError("an empty id or a date of other than 10 bytes")
    dates = np.lib.stride_tricks.sliding_window_view(block, 10)[id_end + 1]
    if np.any(dates[:, [0, 1, 2, 3, 5, 6, 8, 9]] - 48 > 9) or np.any(dates[:, 4::3] != ord("-")):
        raise ValueError("not a YYYY-MM-DD date")
    days = dates.view("S10").ravel().astype("datetime64[D]").astype(np.int64) + _EPOCH_ORDINAL
    has = value_width > 0
    text = _gather(block, date_end[has] + 1, value_width[has])
    values = np.full(begin.size, np.nan)
    values[has] = present = text.astype(np.float64)
    printable = (text.view(np.uint8) == 0) | (text.view(np.uint8) - 33 < 94)  # ASCII, no whitespace
    # numpy alone reads year 0000; values are finite and not negative
    if np.any(days < 1) or not np.all(printable) or not np.all((present >= 0) & (present < np.inf)):
        raise ValueError("year 0000, or a value outside ASCII, not finite or negative")
    return _gather(block, begin, id_width), days, values


def _gather(block: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """``block[starts[i] : starts[i] + widths[i]]`` as one ``S`` array."""
    width = max(int(widths.max(initial=0)), 1)
    if width > _MAX_FIELD_BYTES:
        raise ValueError("a field wider than the gathers take")
    fields = np.lib.stride_tricks.sliding_window_view(block, width)[starts]
    fields[np.arange(width) >= widths[:, None]] = 0  # an S value ends at its first trailing NUL
    return fields.view(f"S{width}").ravel()


def _station_rows(
    reader: Iterator[list[str]], header: list[str]
) -> Iterator[tuple[int, str, str, str]]:
    """The rows of a three-column CSV under ``header``, each as its line
    number and its stripped fields; blank rows are skipped. Raises the
    ParseError of a missing or other header, a row of other than 3 fields
    or an empty station id."""
    expected = ",".join(header)
    first = next(reader, None)
    if first is None:
        raise ParseError(1, f"empty input, expected header {expected!r}")
    if [h.strip() for h in first] != header:
        raise ParseError(1, f"expected header {expected!r}, got {','.join(first)!r}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(lineno, f"expected 3 fields, got {len(row)}")
        station = row[0].strip()
        if not station:
            raise ParseError(lineno, "empty station id")
        yield lineno, station, row[1].strip(), row[2].strip()


def _validate_rows(data: bytes) -> DailyTable:
    """Parse and check a daily CSV row by row; raises the error of its first bad line."""
    # utf-8-sig drops a leading byte-order mark, as spreadsheet exports write
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    index: dict[str, int] = {}
    rows: dict[tuple[int, int], float] = {}  # (station index, day ordinal) -> precip, in file order
    dates: dict[str, tuple[dt.date, int]] = {}  # each valid date text, parsed once, with its ordinal
    for lineno, station, date_text, precip_text in _station_rows(reader, _DAILY_HEADER):
        if date_text not in dates:
            try:  # date.fromisoformat also takes 19900101 and 1990-W01-1 from Python 3.11 on
                date = dt.date.fromisoformat(date_text if _ISO_DATE.fullmatch(date_text) else "")
            except ValueError:
                raise ParseError(lineno, f"invalid ISO date {date_text!r}")
            dates[date_text] = date, date.toordinal()
        date, ordinal = dates[date_text]
        precip = math.nan
        if precip_text != "":
            try:
                precip = float(precip_text)
            except ValueError:
                pass
            if not math.isfinite(precip):
                raise ParseError(lineno, f"invalid precipitation value {precip_text!r}")
            if precip < 0:
                raise ValidationError(f"line {lineno}: negative precipitation {precip} for {station}")
        key = (index.setdefault(station, len(index)), ordinal)
        if key in rows:
            raise ValidationError(f"line {lineno}: duplicate record for {station} {date}")
        rows[key] = precip
    station_col, ordinal_col = np.array(list(rows), np.int32).reshape(-1, 2).T.copy()
    return DailyTable(tuple(index), station_col, ordinal_col, np.array(list(rows.values())))


def block_maxima(
    table: DailyTable,
    min_coverage: float = DEFAULT_MIN_COVERAGE,
) -> tuple[list[AnnualMaximaSeries], list[SkipEntry]]:
    """Reduce daily observations to per-station annual maxima.

    A station-year is retained when the fraction of non-missing days is at
    least ``min_coverage`` and the year's maximum is positive; dropped
    years are returned in the skip log. A station with no retained year is
    left out, its years in the skip log; ValidationError only when a
    nonempty table leaves no station. Stations are ordered by id and
    years ascending, so the result does not depend on input row order.
    """
    if not 0.0 < min_coverage <= 1.0:
        raise ValueError("min_coverage must lie in (0, 1]")
    if len(table) == 0:
        return [], []

    # One group per cell of a stations x years grid, stations ranked by id,
    # so the grid's row-major order is the skip log's.
    order = sorted(range(len(table.stations)), key=table.stations.__getitem__)
    rank = np.empty(len(order), np.int64)
    rank[order] = np.arange(len(order))
    days = (table.ordinal.astype(np.int64) - _EPOCH_ORDINAL).astype("datetime64[D]")
    row_year = days.astype("datetime64[Y]").astype(np.int64) + 1970
    year_axis = np.arange(row_year.min(), row_year.max() + 1)
    group = rank[table.station] * year_axis.size + (row_year - year_axis[0])
    shape = (len(order), year_axis.size)

    present = ~np.isnan(table.precip)
    peak = np.full(shape, -np.inf)
    np.maximum.at(peak.ravel(), group[present], table.precip[present])  # ravel is a view of peak
    seen = np.bincount(group, minlength=peak.size).reshape(shape) > 0
    count = np.bincount(group[present], minlength=peak.size).reshape(shape)
    leap = (year_axis % 4 == 0) & ((year_axis % 100 != 0) | (year_axis % 400 == 0))
    coverage = count / (365 + leap)
    kept = (coverage >= min_coverage) & (peak > 0)
    skip = seen & ~kept

    names = [table.stations[i] for i in order]
    series = [
        AnnualMaximaSeries(name, year_axis[k], p[k]) for name, k, p in zip(names, kept, peak) if k.any()
    ]
    at_station, at_year = np.nonzero(skip)
    skipped = [
        SkipEntry(names[r], y, c)
        for r, y, c in zip(at_station.tolist(), year_axis[at_year].tolist(), coverage[skip].tolist())
    ]
    if not series:
        raise ValidationError("no station has a year meeting the coverage threshold")
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
        values = _quantile_sample(derive_rng(seed, "synth", station).random(years), params)
        out.append(AnnualMaximaSeries(station, year_axis.copy(), values))
    return out


def _sorted_distinct(v: np.ndarray) -> np.ndarray:
    """``np.unique(v)`` without its hash path, which imports numpy.ma
    (about 13 ms of every launch)."""
    s = np.sort(v)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def _quantiles(v: np.ndarray, q: object) -> np.ndarray:
    """``np.quantile(v, q)`` of a finite 1-D ``v`` for ``q`` in [0, 1], bit for
    bit (numpy's linear method and its two-sided lerp), without the bare
    ``np.unique`` inside numpy's version, which imports numpy.ma."""
    s = np.sort(v)
    at = (s.size - 1) * np.asarray(q, dtype=float)
    lo = np.floor(at)
    i = lo.astype(np.intp)
    a, b = s[i], s[np.minimum(i + 1, s.size - 1)]
    t = at - lo
    out = a + (b - a) * t
    np.subtract(b, (b - a) * (1 - t), out=out, where=t >= 0.5)
    return out


def year_matrix(series: Sequence[AnnualMaximaSeries]) -> tuple[np.ndarray, np.ndarray]:
    """Stations x years maxima over the union of the stations' years.

    Returns ``(years, values)``: ``years`` ascending, ``values[i, t]`` the
    maximum of ``series[i]`` in ``years[t]`` and NaN where that station has
    none. Maxima are positive, so ``~np.isnan(values)`` marks the years
    present.
    """
    years = _sorted_distinct(np.concatenate([np.empty(0, dtype=int), *(s.years for s in series)]))
    values = np.full((len(series), years.size), np.nan)
    for row, s in zip(values, series):
        row[np.searchsorted(years, s.years)] = s.values
    return years, values


def write_series_csv(series: Iterable[AnnualMaximaSeries], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_SERIES_HEADER)
    for s in series:
        for year, value in zip(s.years.tolist(), s.values.tolist()):
            writer.writerow([s.station_id, year, format(value, ".10g")])


def read_series_csv(stream: TextIO) -> list[AnnualMaximaSeries]:
    """Load series written by :func:`write_series_csv`."""
    grouped: dict[str, dict[int, float]] = {}  # stations in first-seen order
    for lineno, station, year_text, value_text in _station_rows(csv.reader(stream), _SERIES_HEADER):
        try:
            year, value = int(year_text), float(value_text)
        except ValueError:
            raise ParseError(lineno, f"invalid year/value {year_text!r},{value_text!r}")
        if not dt.MINYEAR <= year <= dt.MAXYEAR:  # the years a daily file can give
            raise ParseError(
                lineno, f"year must lie in [{dt.MINYEAR}, {dt.MAXYEAR}], got {year_text!r}"
            )
        if not math.isfinite(value):
            raise ParseError(lineno, f"invalid max_mm value {value_text!r}")
        if value <= 0:
            raise ParseError(lineno, f"max_mm must be positive, got {value_text!r} for station {station!r}")
        year_values = grouped.setdefault(station, {})
        if year in year_values:
            raise ParseError(lineno, f"repeated year {year} for station {station!r}")
        year_values[year] = value
    out = []
    for station, year_values in grouped.items():
        years, values = zip(*sorted(year_values.items()))
        out.append(AnnualMaximaSeries(station, np.array(years), np.array(values)))
    return out
