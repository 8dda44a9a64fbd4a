"""Fundamental ratios and quarterly-to-daily upsampling.

Thirteen ratios are computed from statement line items (or taken
precomputed from the input file), then carried to daily frequency by
linear interpolation between consecutive quarter ends.  Missing inputs
yield missing (NaN) ratios, never zeros; the cleaning stage deletes the
affected days.
"""

from __future__ import annotations

import bisect
import datetime as dt
import math

import numpy as np

from .market_data import (MarketDataError, QuarterlyReport, _check_date_order,
                          _parse_date, _parse_float, read_csv, write_csv)

# Statement line items accepted in fundamentals.csv.
STATEMENT_FIELDS = (
    "net_income", "total_assets", "total_debt", "equity", "current_assets",
    "inventory", "current_liabilities", "revenue", "ebit", "tax_rate",
    "interest_bearing_liabilities", "cash_equivalents", "operating_profit",
    "operating_income", "sales_net_income", "ar_balance_begin",
    "ar_balance_end", "gross_profit", "preferred_dividends",
    "total_equity_shares",
)

# The 13 ratio features, in feature-matrix column order.
RATIO_NAMES = (
    "roic", "operating_margin", "roa", "revenue_growth",
    "total_assets_growth", "total_debt_growth", "debt_to_assets",
    "equity_ratio", "ar_turnover", "quick_ratio", "current_ratio",
    "eps", "pe_ratio",
)


def _div(num, den):
    if num is None or den is None or den == 0.0:
        return math.nan
    return num / den


def compute_ratios(current: QuarterlyReport, year_ago: QuarterlyReport | None = None,
                   market_price: float | None = None) -> dict:
    """Compute the 13 ratio features for one quarter.

    Returns a dict keyed by :data:`RATIO_NAMES`, in that order, whose
    values are floats; NaN marks a ratio that could not be computed
    (absent input or zero denominator).  ``year_ago`` (the same quarter
    of the previous year) feeds the three growth features;
    ``market_price`` feeds the P/E ratio.  Raises if every ratio comes
    out missing.
    """
    cur = current.values.get
    ago = year_ago.values.get if year_ago is not None else (lambda _name: None)

    ebit, tax = cur("ebit"), cur("tax_rate")
    roic_num = ebit * (1.0 - tax) if ebit is not None and tax is not None else None
    ibl, equity = cur("interest_bearing_liabilities"), cur("equity")
    cash = cur("cash_equivalents")
    roic_den = 0.0 + ibl + equity - cash if None not in (ibl, equity, cash) else None

    def growth(name):
        now, then = cur(name), ago(name)
        if now is None or then is None:
            return math.nan
        return now - then

    ar_begin, ar_end = cur("ar_balance_begin"), cur("ar_balance_end")
    ar_avg = (ar_begin + ar_end) / 2.0 if ar_begin is not None and ar_end is not None else None

    ca, inv = cur("current_assets"), cur("inventory")
    quick_num = ca - inv if ca is not None and inv is not None else None

    gp, pref = cur("gross_profit"), cur("preferred_dividends")
    eps_num = gp - pref if gp is not None and pref is not None else None
    eps = _div(eps_num, cur("total_equity_shares"))

    ratios = {
        "roic": _div(roic_num, roic_den),
        "operating_margin": _div(cur("operating_profit"), cur("operating_income")) * 100.0,
        "roa": _div(cur("net_income"), cur("total_assets")),
        "revenue_growth": growth("revenue"),
        "total_assets_growth": growth("total_assets"),
        "total_debt_growth": growth("total_debt"),
        "debt_to_assets": _div(cur("total_debt"), cur("total_assets")),
        "equity_ratio": _div(cur("equity"), cur("total_assets")),
        "ar_turnover": _div(cur("sales_net_income"), ar_avg),
        "quick_ratio": _div(quick_num, cur("current_liabilities")),
        "current_ratio": _div(cur("current_assets"), cur("current_liabilities")),
        "eps": eps,
        "pe_ratio": _div(market_price, eps) if not math.isnan(eps) and eps != 0.0 else math.nan,
    }
    if all(math.isnan(value) for value in ratios.values()):
        raise ValueError(f"{current.quarter_end}: no ratio could be computed")
    return ratios


def ratios_from_report(report: QuarterlyReport,
                       market_price: float | None = None,
                       year_ago: QuarterlyReport | None = None) -> dict:
    """Ratio features for a report that may carry precomputed ratios,
    as the dict :func:`compute_ratios` returns.

    If any ratio-name key is present the report is treated as
    precomputed (absent ratios stay NaN); otherwise the ratios are
    computed from its statement fields.
    """
    if any(name in report.values for name in RATIO_NAMES):
        return {name: float(report.values.get(name, math.nan)) for name in RATIO_NAMES}
    return compute_ratios(report, year_ago=year_ago, market_price=market_price)


YEAR_AGO_TOLERANCE_DAYS = 45


def quarterly_ratio_matrix(reports, bars):
    """(quarter dates, n_quarters x 13 matrix) of ratio features.

    Year-ago lookups pair each report with the one whose quarter end is
    closest to 365 days earlier, within ``YEAR_AGO_TOLERANCE_DAYS`` (the
    earlier report wins a tie), so a missing quarter leaves its growth
    ratios NaN instead of shifting every later pairing.  The market price
    for P/E is the close of the last bar on or before the quarter end.
    Both lookups bisect over dates, which must increase, as the loaders
    guarantee.
    """
    dates = [b.date for b in bars]
    q_dates = [r.quarter_end for r in reports]

    def price_at(day):
        i = bisect.bisect_right(dates, day)
        return bars[i - 1].close if i else None

    def year_ago(day):
        target = day - dt.timedelta(days=365)
        tolerance = dt.timedelta(days=YEAR_AGO_TOLERANCE_DAYS)
        lo = bisect.bisect_left(q_dates, target - tolerance)
        hi = bisect.bisect_right(q_dates, target + tolerance)
        return min(reports[lo:hi], key=lambda r: abs(r.quarter_end - target), default=None)

    rows = [ratios_from_report(r, market_price=price_at(r.quarter_end),
                               year_ago=year_ago(r.quarter_end))
            for r in reports]
    return q_dates, np.array([[row[name] for name in RATIO_NAMES] for row in rows], dtype=float)


def interpolate_quarterly_to_daily(quarters, trading_days) -> np.ndarray:
    """Linear interpolation of quarterly vectors onto trading days.

    ``quarters`` is a list of (quarter_end, value vector) with strictly
    increasing dates.  For a day t with q_i < t <= q_{i+1} the value is
    v_i + (v_{i+1} - v_i) * days(t - q_i) / days(q_{i+1} - q_i), per
    feature, using calendar days.  A day equal to a quarter end, the
    first included, gets that quarter's values exactly, even where a
    neighbouring quarter has a NaN feature.  Days outside [first, last]
    quarter end are an error.
    """
    if len(quarters) < 2:
        raise ValueError(f"need at least 2 quarters, got {len(quarters)}")
    q_dates = [q[0] for q in quarters]
    for a, b in zip(q_dates, q_dates[1:]):
        if b <= a:
            raise ValueError(f"quarter ends not strictly increasing at {b}")
    knots = np.array([d.toordinal() for d in q_dates])
    days = np.array([d.toordinal() for d in trading_days])
    outside = np.flatnonzero((days < knots[0]) | (days > knots[-1]))
    if outside.size:
        shown = ", ".join(str(trading_days[i]) for i in outside[:5])
        raise ValueError(f"trading days outside quarter span: {shown}"
                         + (" ..." if outside.size > 5 else ""))

    values = np.array([np.asarray(q[1], dtype=float) for q in quarters])
    at = np.searchsorted(knots, days)  # first quarter end on or after each day
    hi = np.maximum(at, 1)
    lo = hi - 1
    frac = (days - knots[lo]) / (knots[hi] - knots[lo])
    out = values[lo] + (values[hi] - values[lo]) * frac[:, None]
    on_knot = knots[at] == days  # knot values are exact, not interpolated
    out[on_knot] = values[at[on_knot]]
    return out


def daily_ratio_matrix(reports, bars):
    """Ratio features interpolated onto the bar dates: (matrix, names)."""
    q_dates, q_matrix = quarterly_ratio_matrix(reports, bars)
    days = [b.date for b in bars]
    matrix = interpolate_quarterly_to_daily(list(zip(q_dates, q_matrix)), days)
    return matrix, RATIO_NAMES


def load_fundamentals(path) -> list[QuarterlyReport]:
    """Load ``fundamentals.csv`` (header ``quarter_end,<name>,...``).

    Column names must come from the statement-field registry or the
    ratio-name registry.  Empty cells mean "absent"; non-finite values
    and duplicate or out-of-order quarter ends are rejected.
    """
    known = set(STATEMENT_FIELDS) | set(RATIO_NAMES)
    rows = read_csv(path)
    header = next(rows)
    if not header or header[0].lower() != "quarter_end":
        raise MarketDataError(f"{path}: first column must be quarter_end")
    names = header[1:]
    unknown = [n for n in names if n not in known]
    if unknown:
        raise MarketDataError(
            f"{path}: unknown fundamental columns {unknown}; "
            "names must match the statement-field or ratio registry"
        )
    reports: list[QuarterlyReport] = []
    for where, row in rows:
        q_end = _parse_date(row[0], where)
        values = {}
        for name, cell in zip(names, row[1:]):
            cell = cell.strip()
            if cell:
                values[name] = _parse_float(cell, where, name)
                if not math.isfinite(values[name]):
                    raise MarketDataError(f"{where}: non-finite {name} {values[name]}")
        if reports:
            _check_date_order(where, "quarter end", q_end, reports[-1].quarter_end)
        reports.append(QuarterlyReport(quarter_end=q_end, values=values))
    return reports


def write_fundamentals(path, reports) -> None:
    """Inverse of :func:`load_fundamentals` (statement-field reports)."""
    names = sorted({name for r in reports for name in r.values})
    write_csv(path, ["quarter_end"] + names,
              ([r.quarter_end] + [float(r.values.get(name, math.nan)) for name in names]
               for r in reports))
