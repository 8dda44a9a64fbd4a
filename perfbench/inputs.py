"""Seeded inputs for the benchmark, written without the program's help.

Each company gets GBM-style daily OHLCV bars (a log-price random walk
with drift plus a slow business cycle) and quarterly statement fields
that follow the same cycle.  Quarter ends fall on every 63rd trading
day and the last day, with four extra quarters before the first trading
day so that year-over-year growth ratios exist from day one.  The
program only ever sees the CSV files written here, through
``[company:...]`` sections of an INI config.
"""

from __future__ import annotations

import datetime as dt
import math
import os
from dataclasses import dataclass

import numpy as np

START_DATE = dt.date(2001, 1, 2)
QUARTER_DAYS = 63
PRE_SERIES_QUARTERS = 4

DRIFT = 0.0003        # mean daily log return
VOLATILITY = 0.012    # daily log-return standard deviation
CYCLE_AMPLITUDE = 0.12
CYCLE_DAYS = 504      # a two-year business cycle
START_PRICE = 80.0

# One quarter's statement fields (currency units) before growth, cycle
# and noise are applied.  Rates and share counts are not scaled.
STATEMENT_BASE = {
    "net_income": 900.0,
    "total_assets": 70000.0,
    "total_debt": 26000.0,
    "equity": 33000.0,
    "current_assets": 21000.0,
    "inventory": 6500.0,
    "current_liabilities": 12500.0,
    "revenue": 18000.0,
    "ebit": 1700.0,
    "tax_rate": 0.23,
    "interest_bearing_liabilities": 16000.0,
    "cash_equivalents": 4200.0,
    "operating_profit": 2100.0,
    "operating_income": 17500.0,
    "sales_net_income": 17800.0,
    "ar_balance_begin": 3500.0,
    "ar_balance_end": 3700.0,
    "gross_profit": 4300.0,
    "preferred_dividends": 90.0,
    "total_equity_shares": 4000.0,
}
UNSCALED = ("tax_rate", "total_equity_shares")


@dataclass(frozen=True)
class Company:
    label: str
    dates: list
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray
    quarters: list  # (quarter_end, {field: value}) in date order

    @property
    def n_days(self) -> int:
        return len(self.dates)


def trading_days(start: dt.date, n: int) -> list:
    """``n`` consecutive weekdays from ``start``."""
    days, d = [], start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def make_company(label: str, n_days: int, rng: np.random.Generator) -> Company:
    t = np.arange(n_days)
    cycle = CYCLE_AMPLITUDE * np.sin(2.0 * math.pi * t / CYCLE_DAYS)
    walk = np.concatenate([[0.0], np.cumsum(
        DRIFT + VOLATILITY * rng.standard_normal(n_days - 1))])
    close = START_PRICE * np.exp(walk + cycle)
    gap = np.exp(0.002 * rng.standard_normal(n_days))
    open_ = np.concatenate([[close[0]], close[:-1]]) * gap
    # Strictly positive extensions keep every day's range open, so no
    # stochastic or Williams %R value is undefined mid-series.
    ext_hi = 1.0 + 0.0005 + 0.004 * np.abs(rng.standard_normal(n_days))
    ext_lo = 1.0 - 0.0005 - 0.004 * np.abs(rng.standard_normal(n_days))
    high = np.maximum(open_, close) * ext_hi
    low = np.minimum(open_, close) * ext_lo
    volume = np.round(1.0e6 * np.exp(0.25 * rng.standard_normal(n_days)))

    dates = trading_days(START_DATE, n_days)
    knots = list(range(0, n_days, QUARTER_DAYS))
    if knots[-1] != n_days - 1:
        knots.append(n_days - 1)
    pre = [dates[0] - dt.timedelta(days=91 * (PRE_SERIES_QUARTERS - q))
           for q in range(PRE_SERIES_QUARTERS)]
    quarter_ends = pre + [dates[i] for i in knots]
    quarters = []
    for q, q_end in enumerate(quarter_ends):
        day = (q - PRE_SERIES_QUARTERS) * QUARTER_DAYS
        level = (1.0 + 0.015 * q) * (1.0 + 0.5 * CYCLE_AMPLITUDE
                                      * math.sin(2.0 * math.pi * day / CYCLE_DAYS))
        values = {}
        for name, base in STATEMENT_BASE.items():
            if name in UNSCALED:
                values[name] = base
            else:
                values[name] = base * level * (1.0 + 0.02 * float(rng.standard_normal()))
        quarters.append((q_end, values))
    return Company(label, dates, open_, high, low, close, volume, quarters)


def make_companies(seed: int, n_companies: int, n_days: int) -> list:
    rng = np.random.default_rng(seed)
    return [make_company(f"CO{i + 1:02d}", n_days, rng) for i in range(n_companies)]


def write_company(directory: str, company: Company) -> tuple:
    """Write ``prices.csv`` and ``fundamentals.csv``; return both paths."""
    os.makedirs(directory, exist_ok=True)
    prices = os.path.join(directory, "prices.csv")
    columns = zip(company.dates, company.open.tolist(), company.high.tolist(),
                  company.low.tolist(), company.close.tolist(),
                  company.volume.tolist())
    with open(prices, "w", encoding="utf-8") as fh:
        fh.write("date,open,high,low,close,volume\n")
        for d, o, h, lo, c, v in columns:
            fh.write(f"{d.isoformat()},{o!r},{h!r},{lo!r},{c!r},{v!r}\n")
    fundamentals = os.path.join(directory, "fundamentals.csv")
    names = sorted(STATEMENT_BASE)
    with open(fundamentals, "w", encoding="utf-8") as fh:
        fh.write(",".join(["quarter_end"] + names) + "\n")
        for q_end, values in company.quarters:
            fh.write(",".join([q_end.isoformat()]
                              + [repr(values[n]) for n in names]) + "\n")
    return prices, fundamentals


def write_config(path: str, sections: dict, companies: dict) -> None:
    """INI config: ``sections`` maps a section name to its keys;
    ``companies`` maps a label to its (prices, fundamentals) paths."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, keys in sections.items():
            fh.write(f"[{name}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")
        for label, (prices, fundamentals) in companies.items():
            fh.write(f"[company:{label}]\nprices = {prices}\n"
                     f"fundamentals = {fundamentals}\n")
