"""Daily market data and quarterly fundamentals: loading, validation,
cleaning/alignment, a synthetic generator, and the CSV format.

A "sample" is one trading day.  Rows with any missing feature value
(technical or fundamental, including indicator warm-up rows) are deleted
from every matrix so the surviving technical, fundamental, and target
rows always cover the same dates.

Every CSV file the package reads or writes goes through
:func:`read_csv` and :func:`write_csv`.  The format: one header row,
``\\n`` line ends, NaN as an empty field, and every other value as the
:mod:`csv` module writes it.  So a Python float or numpy float64 is
written as its shortest repr, which reads back exactly, and a date as
ISO ``YYYY-MM-DD``.  A numpy float32 would be written as its own
shortest repr, not as the float64 it widens to; no writer passes one.

:func:`write_csv` joins each row's ``str`` values with commas and writes
that line itself only when it is exactly what :mod:`csv` writes for the
row: the line is non-empty, has one comma fewer than the row has fields,
and contains none of ``nan``, ``None``, ``"``, ``\\r`` or ``\\n``.  Every
other row (NaN, None, a lone empty string, a string that needs quoting)
goes through :func:`csv.writer`.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import math
from dataclasses import dataclass, field

import numpy as np


class MarketDataError(ValueError):
    """Malformed or invariant-violating market data."""


PRICE_COLUMNS = ("date", "open", "high", "low", "close", "volume")


@dataclass(frozen=True)
class PriceBar:
    """One trading day of OHLCV data."""

    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def validate(self) -> None:
        # Finite and in range, in one pass: NaN fails every comparison.
        if (-math.inf < self.low <= self.open <= self.high < math.inf
                and self.low <= self.close <= self.high and 0.0 <= self.volume < math.inf):
            return
        for name in PRICE_COLUMNS[1:]:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise MarketDataError(f"{self.date}: non-finite {name} {value}")
        for name in ("open", "close"):
            value = getattr(self, name)
            if not (self.low <= value <= self.high):
                raise MarketDataError(
                    f"{self.date}: {name} {value} outside [low={self.low}, high={self.high}]")
        if self.volume < 0:
            raise MarketDataError(f"{self.date}: negative volume {self.volume}")


@dataclass(frozen=True)
class QuarterlyReport:
    """Statement line items and/or precomputed ratios at a quarter end.

    ``values`` maps names from the fundamentals registries (statement
    fields like ``net_income`` or ratio names like ``roa``) to numbers.
    Missing entries are simply absent; denominators are validated when a
    ratio is computed, not at load time.
    """

    quarter_end: dt.date
    values: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AlignedDataset:
    """Date-indexed feature matrix plus close-price target, fully cleaned.

    Invariant: ``features`` contains no missing values, and
    ``len(dates) == features.shape[0] == len(target)``.
    """

    dates: tuple
    features: np.ndarray
    target: np.ndarray
    feature_names: tuple

    def __post_init__(self):
        n = len(self.dates)
        if self.features.shape != (n, len(self.feature_names)):
            raise MarketDataError(
                f"feature matrix {self.features.shape} does not match "
                f"{n} dates x {len(self.feature_names)} names"
            )
        if self.target.shape != (n,):
            raise MarketDataError("target length does not match dates")
        if not np.all(np.isfinite(self.features)):
            raise MarketDataError("aligned features contain missing values")
        if not np.all(np.isfinite(self.target)):
            raise MarketDataError("aligned target contains non-finite values")

    def columns(self, names) -> np.ndarray:
        """Submatrix for the given feature names, in the given order."""
        index = {name: j for j, name in enumerate(self.feature_names)}
        try:
            cols = [index[n] for n in names]
        except KeyError as exc:
            raise KeyError(f"unknown feature {exc.args[0]!r}") from None
        return self.features[:, cols]


def _parse_date(text: str, where: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        raise MarketDataError(f"{where}: bad date {text!r} (want YYYY-MM-DD)") from None


def _parse_float(text: str, where: str, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise MarketDataError(f"{where}: bad number {text!r} in column {column!r}") from None


def _field(value):
    return "" if isinstance(value, (float, np.floating)) and value != value else value


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` (sequences of values) in the
    package's CSV format (module docstring).  Convert numpy matrices
    with ``.tolist()`` first: formatting Python floats is much faster."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            line = ",".join(map(str, row))
            if (line and line.count(",") == len(row) - 1 and "nan" not in line
                    and "None" not in line and '"' not in line
                    and "\r" not in line and "\n" not in line):
                fh.write(line + "\n")
            else:
                writer.writerow(map(_field, row))


def _check_date_order(where: str, noun: str, day: dt.date, previous: dt.date) -> None:
    """Reject a row whose ``noun`` date is not after the previous row's."""
    if day == previous:
        raise MarketDataError(f"{where}: duplicate {noun} {day}")
    if day < previous:
        raise MarketDataError(f"{where}: {noun} {day} not after {previous}")


def read_csv(path):
    """Yield the stripped header row, then ``(where, fields)`` for each
    non-blank data row, where ``where`` is ``"<path> row <i>"`` for error
    messages.  Raises :class:`MarketDataError` for an empty file, a row
    whose field count differs from the header's, or no data rows.  Rows
    are read lazily, so a caller checks the header before any row error.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise MarketDataError(f"{path}: empty file") from None
        yield header
        n_rows = 0
        for i, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            where = f"{path} row {i}"
            if len(row) != len(header):
                raise MarketDataError(f"{where}: expected {len(header)} fields, got {len(row)}")
            n_rows += 1
            yield where, row
    if not n_rows:
        raise MarketDataError(f"{path}: no data rows")


def load_prices(path) -> list[PriceBar]:
    """Load a ``prices.csv`` (header ``date,open,high,low,close,volume``).

    Bars are validated and must be sorted by strictly increasing date;
    duplicate dates are rejected.  Errors name the offending data row.
    """
    rows = read_csv(path)
    header = next(rows)
    if [h.lower() for h in header] != list(PRICE_COLUMNS):
        raise MarketDataError(
            f"{path}: expected header {','.join(PRICE_COLUMNS)}, got {','.join(header)}"
        )
    bars: list[PriceBar] = []
    for where, row in rows:
        try:
            bar = PriceBar(dt.date.fromisoformat(row[0].strip()), *map(float, row[1:]))
        except ValueError:  # parse field by field again, for the message
            bar = PriceBar(_parse_date(row[0], where),
                           *(_parse_float(cell, where, name)
                             for cell, name in zip(row[1:], PRICE_COLUMNS[1:])))
        try:
            bar.validate()
        except MarketDataError as exc:
            raise MarketDataError(f"{where}: {exc}") from None
        if bars:
            _check_date_order(where, "date", bar.date, bars[-1].date)
        bars.append(bar)
    return bars


def write_prices(path, bars) -> None:
    """Inverse of :func:`load_prices`."""
    write_csv(path, PRICE_COLUMNS,
              ((b.date, b.open, b.high, b.low, b.close, b.volume) for b in bars))


def clean_and_align(bars, technical, technical_names, fundamental,
                    fundamental_names) -> AlignedDataset:
    """Apply the sample-deletion rule and build one aligned dataset.

    ``technical`` and ``fundamental`` are row-per-bar matrices that may
    contain NaN (warm-up rows, zero-denominator indicator days, missing
    quarterly inputs).  Any row with a missing value in either matrix is
    removed from the features, the target, and the date index together.
    """
    n = len(bars)
    technical = np.asarray(technical, dtype=float)
    fundamental = np.asarray(fundamental, dtype=float)
    if technical.shape[0] != n or fundamental.shape[0] != n:
        raise MarketDataError(
            f"calendar mismatch: {n} bars vs technical {technical.shape[0]} rows "
            f"vs fundamental {fundamental.shape[0]} rows"
        )
    if technical.shape[1] != len(technical_names):
        raise MarketDataError("technical names do not match matrix width")
    if fundamental.shape[1] != len(fundamental_names):
        raise MarketDataError("fundamental names do not match matrix width")

    keep = np.isfinite(technical).all(axis=1) & np.isfinite(fundamental).all(axis=1)
    if not keep.any():
        raise MarketDataError("no rows survive cleaning")

    kept = list(itertools.compress(bars, keep.tolist()))
    dates = tuple(b.date for b in kept)
    target = np.array([b.close for b in kept], dtype=float)
    features = np.hstack([technical[keep], fundamental[keep]])
    return AlignedDataset(
        dates=dates,
        features=features,
        target=target,
        feature_names=tuple(technical_names) + tuple(fundamental_names),
    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the synthetic data generator.

    The generator stands in for a live market feed: geometric random
    walk closes, intraday ranges consistent with the bar invariants, and
    one quarterly report per ~63 trading days (plus four pre-series
    quarters so year-over-year growth ratios exist from the start).
    """

    seed: int = 0
    n_days: int = 1260
    drift: float = 0.0002
    volatility: float = 0.01
    quarterly_pattern: str = "trend"  # flat | trend | seasonal

    def __post_init__(self):
        if self.n_days < 60:
            raise ValueError(f"n_days must be >= 60, got {self.n_days}")
        if not math.isfinite(self.drift):
            raise ValueError(f"drift must be finite, got {self.drift}")
        if not 0 <= self.volatility < math.inf:  # NaN fails this too
            raise ValueError(f"volatility must be >= 0 and finite, got {self.volatility}")
        if self.quarterly_pattern not in ("flat", "trend", "seasonal"):
            raise ValueError(f"unknown quarterly_pattern {self.quarterly_pattern!r}")


def _trading_days(start: dt.date, n: int) -> list[dt.date]:
    """n consecutive weekdays from start (no holiday calendar)."""
    days = []
    d = start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


# Baseline statement values for one synthetic quarter (currency units).
_BASE_STATEMENT = {
    "net_income": 1200.0,
    "total_assets": 90000.0,
    "total_debt": 30000.0,
    "equity": 40000.0,
    "current_assets": 25000.0,
    "inventory": 7000.0,
    "current_liabilities": 15000.0,
    "revenue": 22000.0,
    "ebit": 2100.0,
    "tax_rate": 0.25,
    "interest_bearing_liabilities": 18000.0,
    "cash_equivalents": 5000.0,
    "operating_profit": 2600.0,
    "operating_income": 21000.0,
    "sales_net_income": 21500.0,
    "ar_balance_begin": 4100.0,
    "ar_balance_end": 4400.0,
    "gross_profit": 5200.0,
    "preferred_dividends": 120.0,
    "total_equity_shares": 5000.0,
}

# Fields that scale with the pattern; rates and share counts stay put.
_SCALED_FIELDS = tuple(k for k in _BASE_STATEMENT if k not in ("tax_rate", "total_equity_shares"))

SYNTHETIC_START = dt.date(2013, 7, 1)
SYNTHETIC_START_PRICE = 100.0
SYNTHETIC_BASE_VOLUME = 1.0e6
QUARTER_TRADING_DAYS = 63
PRE_SERIES_QUARTERS = 4  # history needed by year-over-year growth ratios


def generate_synthetic(spec: SyntheticSpec):
    """Generate (bars, quarterly reports), deterministic for a fixed seed."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_days
    days = _trading_days(SYNTHETIC_START, n)

    steps = spec.drift + spec.volatility * rng.standard_normal(n - 1)
    closes = SYNTHETIC_START_PRICE * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))

    # Intraday range scales with volatility; zero volatility collapses
    # the bar to a single price so the degenerate-walk invariants hold.
    hi_ext = np.abs(rng.standard_normal(n)) * spec.volatility * 0.5
    lo_ext = np.abs(rng.standard_normal(n)) * spec.volatility * 0.5
    vol_noise = rng.standard_normal(n)

    bars = []
    for t in range(n):
        close = float(closes[t])
        open_ = float(closes[t - 1]) if t > 0 else close
        high = max(open_, close) * (1.0 + float(hi_ext[t]))
        low = min(open_, close) * (1.0 - float(lo_ext[t]))
        volume = SYNTHETIC_BASE_VOLUME * math.exp(spec.volatility * 5.0 * float(vol_noise[t]))
        bar = PriceBar(days[t], open_, high, low, close, round(volume, 2))
        bar.validate()
        bars.append(bar)

    # Quarter knots: every 63rd trading day plus the final day, with
    # four extra quarters before the series for growth-ratio history.
    knot_idx = list(range(0, n, QUARTER_TRADING_DAYS))
    if knot_idx[-1] != n - 1:
        knot_idx.append(n - 1)
    pre_dates = [days[0] - dt.timedelta(days=91 * (PRE_SERIES_QUARTERS - q))
                 for q in range(PRE_SERIES_QUARTERS)]
    quarter_ends = pre_dates + [days[i] for i in knot_idx]

    reports = []
    for q, q_end in enumerate(quarter_ends):
        if spec.quarterly_pattern == "flat":
            scale = 1.0
        elif spec.quarterly_pattern == "trend":
            scale = 1.0 + 0.02 * q
        else:  # seasonal
            scale = 1.0 + 0.10 * math.sin(2.0 * math.pi * q / 4.0)
        jitter = 1.0 + 0.01 * float(rng.standard_normal())
        values = dict(_BASE_STATEMENT)
        for name in _SCALED_FIELDS:
            values[name] = _BASE_STATEMENT[name] * scale * jitter
        reports.append(QuarterlyReport(quarter_end=q_end, values=values))
    return bars, reports
