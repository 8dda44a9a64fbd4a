"""Technical features computed from daily OHLCV bars.

Fifteen indicators, one value per trading day, aligned to the input
bars.  Positions where an indicator is undefined (lookback window not
yet filled, zero denominator) are NaN; downstream cleaning deletes those
rows.  All functions are pure and causal: the value at day t depends
only on bars 0..t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .market_data import write_csv

# Column order of the technical feature matrix.
TECHNICAL_COLUMNS = (
    "Volume", "BBWidth", "PercentB", "CCI", "ROC", "RSI",
    "PlusDMI", "MinusDMI", "ADX", "SMA", "MACDLine", "MACDSignal",
    "PercentK", "PercentD", "WR",
)

# Indicators bounded to [0, 100] wherever defined.
BOUNDED_COLUMNS = ("RSI", "PlusDMI", "MinusDMI", "ADX", "PercentK", "PercentD", "WR")


@dataclass(frozen=True)
class IndicatorConfig:
    sma_window: int = 5
    bb_window: int = 20
    bb_k: float = 2.0
    cci_window: int = 13
    cci_scale: float = 0.015
    cci_mode: str = "standard"  # or "paper-literal"
    roc_lag: int = 1
    rsi_window: int = 14
    dmi_window: int = 14
    macd_fast: int = 12
    macd_slow: int = 26
    macd_signal: int = 9
    stoch_window: int = 9
    stoch_d: int = 3
    wr_window: int = 14

    def __post_init__(self):
        for name in ("sma_window", "bb_window", "cci_window", "roc_lag",
                     "rsi_window", "dmi_window", "macd_fast", "macd_slow",
                     "macd_signal", "stoch_window", "stoch_d", "wr_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.macd_fast >= self.macd_slow:
            raise ValueError("macd_fast must be < macd_slow")
        if self.cci_mode not in ("standard", "paper-literal"):
            raise ValueError(f"unknown cci_mode {self.cci_mode!r}")

    @property
    def min_length(self) -> int:
        """Shortest series every indicator can be computed on."""
        return max(
            self.sma_window, self.bb_window, self.cci_window,
            self.roc_lag + 1, self.rsi_window + 1, 2 * self.dmi_window,
            self.macd_slow + self.macd_signal,
            self.stoch_window + self.stoch_d, self.wr_window,
        )


def _check_length(n: int, need: int, what: str) -> None:
    if n < need:
        raise ValueError(f"{what}: need at least {need} points, got {n}")


def _sma(values: np.ndarray, window: int) -> np.ndarray:
    out = np.full(values.shape, np.nan)
    out[window - 1:] = sliding_window_view(values, window).mean(axis=1)
    return out


def _ema(values: np.ndarray, window: int) -> np.ndarray:
    """EMA with multiplier 2/(n+1), seeded by the SMA of the first n values.

    The recursion runs on Python floats: the same binary64 operations as
    on numpy scalars, without a numpy call per day."""
    out = np.full(values.shape, np.nan)
    if len(values) < window:
        return out
    alpha = 2.0 / (window + 1.0)
    level = float(np.mean(values[:window]))
    out[window - 1] = level
    out[window:] = [level := level + alpha * (x - level) for x in values[window:].tolist()]
    return out


def _wilder(values: np.ndarray, window: int, first: int) -> np.ndarray:
    """Wilder's smoothed moving average (recursive weight 1/n).

    ``values`` is defined from index ``first``; the smoothed series is
    seeded with the arithmetic mean of the first ``window`` defined
    values and is NaN before that.  The recursion runs on Python floats,
    with the same binary64 operations as on numpy scalars.
    """
    out = np.full(values.shape, np.nan)
    start = first + window - 1
    if start >= len(values):
        return out
    level = float(np.mean(values[first:start + 1]))
    out[start] = level
    out[start + 1:] = [level := level + (x - level) / window
                       for x in values[start + 1:].tolist()]
    return out


def bollinger_features(closes, cfg: IndicatorConfig = IndicatorConfig()):
    """(band width, %B).

    Middle band = SMA over ``bb_window``; upper/lower = middle ± bb_k
    population standard deviations.  Width = 100*(upper-lower)/middle;
    %B = (close-lower)/(upper-lower), NaN on a zero-width band.
    """
    closes = np.asarray(closes, dtype=float)
    w = cfg.bb_window
    _check_length(len(closes), w, "bollinger_features")
    middle = _sma(closes, w)
    sd = np.full(closes.shape, np.nan)
    sd[w - 1:] = sliding_window_view(closes, w).std(axis=1)  # population sigma
    upper = middle + cfg.bb_k * sd
    lower = middle - cfg.bb_k * sd
    with np.errstate(invalid="ignore", divide="ignore"):
        width = 100.0 * (upper - lower) / middle
        span = upper - lower
        percent_b = np.where(span == 0.0, np.nan, (closes - lower) / span)
    width[np.isinf(width)] = np.nan
    return width, percent_b


def cci(high, low, close, cfg: IndicatorConfig = IndicatorConfig()):
    """Commodity channel index over (high, low, close).

    standard mode:       (TP - SMA(close)) / (scale * mean |close - SMA|)
    paper-literal mode:  (TP - SMA(close)) / (SMA(close) - close * scale)
    """
    high, low, close = np.asarray([high, low, close], dtype=float)
    w = cfg.cci_window
    _check_length(len(close), w, "cci")
    tp = (high + low + close) / 3.0
    sma_c = _sma(close, w)
    if cfg.cci_mode == "standard":
        mad = np.full(close.shape, np.nan)
        windows = sliding_window_view(close, w)
        mad[w - 1:] = np.mean(np.abs(windows - windows.mean(axis=1, keepdims=True)), axis=1)
        denom = cfg.cci_scale * mad
    else:
        denom = sma_c - close * cfg.cci_scale
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(denom == 0.0, np.nan, (tp - sma_c) / denom)
    return out


def roc(closes, cfg: IndicatorConfig = IndicatorConfig()):
    """Rate of change against the close ``roc_lag`` days earlier."""
    closes = np.asarray(closes, dtype=float)
    lag = cfg.roc_lag
    _check_length(len(closes), lag + 1, "roc")
    out = np.full(closes.shape, np.nan)
    prev = closes[:-lag]
    with np.errstate(invalid="ignore", divide="ignore"):
        out[lag:] = np.where(prev == 0.0, np.nan, (closes[lag:] - prev) / prev)
    return out


def rsi(closes, cfg: IndicatorConfig = IndicatorConfig()):
    """Relative strength index with Wilder smoothing.

    RSI = 100 - 100 / (1 + avg_up / avg_down), NaN until ``rsi_window``
    moves have been seen.  Conventions for degenerate windows, where
    avg_down is 0: some up moves -> 100; no movement at all -> 50.
    """
    closes = np.asarray(closes, dtype=float)
    n = cfg.rsi_window
    _check_length(len(closes), n + 1, "rsi")
    delta = np.diff(closes, prepend=np.nan)
    up = np.where(delta > 0, delta, 0.0)
    down = np.where(delta < 0, -delta, 0.0)
    avg_up = _wilder(up, n, first=1)
    avg_down = _wilder(down, n, first=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(avg_down == 0.0, np.where(avg_up == 0.0, 50.0, 100.0),
                        100.0 - 100.0 / (1.0 + avg_up / avg_down))


def dmi_adx(high, low, close, cfg: IndicatorConfig = IndicatorConfig()):
    """(+DMI, -DMI, ADX) with Wilder's mutual-exclusion directional moves."""
    high, low, close = np.asarray([high, low, close], dtype=float)
    n = cfg.dmi_window
    _check_length(len(close), 2 * n, "dmi_adx")
    plus_dm, minus_dm, tr = np.full((3, len(close)), np.nan)  # day 0 stays NaN
    up, dn = np.diff(high), -np.diff(low)
    plus_dm[1:] = np.where((up > dn) & (up > 0), up, 0.0)
    minus_dm[1:] = np.where((dn > up) & (dn > 0), dn, 0.0)
    prev = close[:-1]
    tr[1:] = np.maximum(high[1:] - low[1:],
                        np.maximum(np.abs(high[1:] - prev), np.abs(low[1:] - prev)))
    s_plus = _wilder(plus_dm, n, first=1)
    s_minus = _wilder(minus_dm, n, first=1)
    s_tr = _wilder(tr, n, first=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        plus_dmi = np.where(s_tr == 0.0, np.nan, 100.0 * s_plus / s_tr)
        minus_dmi = np.where(s_tr == 0.0, np.nan, 100.0 * s_minus / s_tr)
        dmi_sum = plus_dmi + minus_dmi
        dx = np.where(dmi_sum == 0.0, np.nan,
                      100.0 * np.abs(plus_dmi - minus_dmi) / dmi_sum)
    adx = _wilder(dx, n, first=n)
    return plus_dmi, minus_dmi, adx


def macd_features(closes, cfg: IndicatorConfig = IndicatorConfig()):
    """(MACD line, signal line) = (fast EMA - slow EMA, EMA of the line)."""
    closes = np.asarray(closes, dtype=float)
    _check_length(len(closes), cfg.macd_slow + cfg.macd_signal, "macd_features")
    line = _ema(closes, cfg.macd_fast) - _ema(closes, cfg.macd_slow)
    first = cfg.macd_slow - 1  # first index where the line is defined
    signal = np.full(closes.shape, np.nan)
    seeded = _ema(line[first:], cfg.macd_signal)
    signal[first:] = seeded
    return line, signal


def stochastic_kd(high, low, close, cfg: IndicatorConfig = IndicatorConfig()):
    """(%K, %D): close position in the rolling high/low range, and its SMA."""
    high, low, close = np.asarray([high, low, close], dtype=float)
    w, d = cfg.stoch_window, cfg.stoch_d
    _check_length(len(close), w + d, "stochastic_kd")
    k = np.full(close.shape, np.nan)
    hi = sliding_window_view(high, w).max(axis=1)
    lo = sliding_window_view(low, w).min(axis=1)
    span = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        k[w - 1:] = np.where(span == 0.0, np.nan, 100.0 * (close[w - 1:] - lo) / span)
    dee = np.full(close.shape, np.nan)
    dee[d - 1:] = sliding_window_view(k, d).mean(axis=1)  # NaN %K propagates
    return k, dee


def williams_r(high, low, close, cfg: IndicatorConfig = IndicatorConfig()):
    """Williams %R on a 0..100 scale: distance of close below the rolling high."""
    high, low, close = np.asarray([high, low, close], dtype=float)
    w = cfg.wr_window
    _check_length(len(close), w, "williams_r")
    out = np.full(close.shape, np.nan)
    hi = sliding_window_view(high, w).max(axis=1)
    lo = sliding_window_view(low, w).min(axis=1)
    span = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        out[w - 1:] = np.where(span == 0.0, np.nan, 100.0 * (hi - close[w - 1:]) / span)
    return out


def compute_technical_matrix(bars, cfg: IndicatorConfig = IndicatorConfig()) -> np.ndarray:
    """All 15 technical features as a (days x 15) matrix.

    Columns follow :data:`TECHNICAL_COLUMNS`; Volume is passed through
    verbatim.  NaN marks undefined positions.
    """
    _check_length(len(bars), cfg.min_length, "compute_technical_matrix")
    high = np.array([b.high for b in bars], dtype=float)
    low = np.array([b.low for b in bars], dtype=float)
    close = np.array([b.close for b in bars], dtype=float)
    volume = np.array([b.volume for b in bars], dtype=float)
    sma = _sma(close, cfg.sma_window)
    bb_width, percent_b = bollinger_features(close, cfg)
    macd_line, macd_signal = macd_features(close, cfg)
    plus_dmi, minus_dmi, adx = dmi_adx(high, low, close, cfg)
    k, d = stochastic_kd(high, low, close, cfg)
    columns = {
        "Volume": volume,
        "BBWidth": bb_width,
        "PercentB": percent_b,
        "CCI": cci(high, low, close, cfg),
        "ROC": roc(close, cfg),
        "RSI": rsi(close, cfg),
        "PlusDMI": plus_dmi,
        "MinusDMI": minus_dmi,
        "ADX": adx,
        "SMA": sma,
        "MACDLine": macd_line,
        "MACDSignal": macd_signal,
        "PercentK": k,
        "PercentD": d,
        "WR": williams_r(high, low, close, cfg),
    }
    return np.column_stack([columns[name] for name in TECHNICAL_COLUMNS])


def write_technical_csv(path, dates, matrix) -> None:
    """Dump the technical matrix; missing values become empty fields."""
    write_csv(path, ("date",) + TECHNICAL_COLUMNS,
              ([date] + row for date, row in
               zip(dates, np.asarray(matrix, dtype=float).tolist())))
