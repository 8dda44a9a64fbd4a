import datetime as dt
import math
import re

import numpy as np
import pytest

import oracles
from aeroforecast import fundamentals as fund
from aeroforecast.market_data import (MarketDataError, QuarterlyReport,
                                      SyntheticSpec, generate_synthetic)

Q = QuarterlyReport


def vector(ratios):
    """A ratio dict as a row of the quarterly ratio matrix."""
    return np.array([ratios[name] for name in fund.RATIO_NAMES], dtype=float)


def full_statement(scale=1.0):
    values = {
        "net_income": 10.0, "total_assets": 100.0, "total_debt": 30.0,
        "equity": 40.0, "current_assets": 25.0, "inventory": 7.0,
        "current_liabilities": 15.0, "revenue": 22.0, "ebit": 5.0,
        "tax_rate": 0.25, "interest_bearing_liabilities": 18.0,
        "cash_equivalents": 5.0, "operating_profit": 2.6,
        "operating_income": 21.0, "sales_net_income": 21.5,
        "ar_balance_begin": 4.0, "ar_balance_end": 5.0,
        "gross_profit": 5.2, "preferred_dividends": 0.2,
        "total_equity_shares": 5.0,
    }
    return {k: v * scale if k != "tax_rate" else v for k, v in values.items()}


class TestComputeRatios:
    def test_roa(self):
        r = fund.compute_ratios(Q(dt.date(2020, 3, 31),
                                  {"net_income": 10.0, "total_assets": 100.0}))
        assert r["roa"] == pytest.approx(0.10)

    def test_equity_ratio(self):
        r = fund.compute_ratios(Q(dt.date(2020, 3, 31),
                                  {"equity": 40.0, "total_assets": 100.0}))
        assert r["equity_ratio"] == pytest.approx(0.40)

    def test_all_thirteen_match_spreadsheet_oracle(self):
        cur = full_statement()
        ago = full_statement(scale=0.9)
        price = 17.5
        r = fund.compute_ratios(Q(dt.date(2021, 3, 31), cur),
                                Q(dt.date(2020, 3, 31), ago), market_price=price)
        eps = (cur["gross_profit"] - cur["preferred_dividends"]) / cur["total_equity_shares"]
        expected = {
            "roic": cur["ebit"] * (1 - cur["tax_rate"]) / (
                cur["interest_bearing_liabilities"] + cur["equity"]
                - cur["cash_equivalents"]),
            "operating_margin": cur["operating_profit"] / cur["operating_income"] * 100.0,
            "roa": cur["net_income"] / cur["total_assets"],
            "revenue_growth": cur["revenue"] - ago["revenue"],
            "total_assets_growth": cur["total_assets"] - ago["total_assets"],
            "total_debt_growth": cur["total_debt"] - ago["total_debt"],
            "debt_to_assets": cur["total_debt"] / cur["total_assets"],
            "equity_ratio": cur["equity"] / cur["total_assets"],
            "ar_turnover": cur["sales_net_income"] / (
                (cur["ar_balance_begin"] + cur["ar_balance_end"]) / 2),
            "quick_ratio": (cur["current_assets"] - cur["inventory"])
                / cur["current_liabilities"],
            "current_ratio": cur["current_assets"] / cur["current_liabilities"],
            "eps": eps,
            "pe_ratio": price / eps,
        }
        assert tuple(r) == fund.RATIO_NAMES
        for name, want in expected.items():
            assert r[name] == pytest.approx(want, abs=1e-12), name

    def test_zero_denominator_yields_missing(self):
        r = fund.compute_ratios(Q(dt.date(2020, 3, 31),
                                  {"net_income": 1.0, "total_assets": 0.0,
                                   "equity": 2.0, "current_assets": 3.0,
                                   "inventory": 1.0, "current_liabilities": 4.0}))
        assert math.isnan(r["roa"])
        assert math.isnan(r["equity_ratio"])  # equity / 0
        assert r["quick_ratio"] == pytest.approx(0.5)

    def test_growth_missing_without_year_ago(self):
        r = fund.compute_ratios(Q(dt.date(2020, 3, 31), full_statement()))
        assert math.isnan(r["revenue_growth"])
        assert math.isnan(r["total_assets_growth"])
        assert math.isnan(r["total_debt_growth"])
        assert not math.isnan(r["roa"])

    def test_pe_needs_nonzero_eps(self):
        values = full_statement()
        values["gross_profit"] = values["preferred_dividends"]  # eps == 0
        r = fund.compute_ratios(Q(dt.date(2020, 3, 31), values), market_price=10.0)
        assert r["eps"] == 0.0
        assert math.isnan(r["pe_ratio"])

    def test_all_missing_raises(self):
        with pytest.raises(ValueError, match="no ratio"):
            fund.compute_ratios(Q(dt.date(2020, 3, 31), {}))

    def test_precomputed_ratios_pass_through(self):
        r = fund.ratios_from_report(Q(dt.date(2020, 6, 30),
                                      {"roa": 0.07, "pe_ratio": 21.0}))
        assert r["roa"] == 0.07 and r["pe_ratio"] == 21.0
        assert math.isnan(r["quick_ratio"])
        assert tuple(r) == fund.RATIO_NAMES


class TestInterpolation:
    def days(self, start, n, step=1):
        return [start + dt.timedelta(days=i * step) for i in range(n)]

    def test_equal_endpoints_constant(self):
        q = [(dt.date(2020, 1, 1), np.array([5.0])),
             (dt.date(2020, 4, 1), np.array([5.0]))]
        days = self.days(dt.date(2020, 1, 1), 20, step=4)
        out = fund.interpolate_quarterly_to_daily(q, days)
        assert np.allclose(out, 5.0)

    def test_proportional_day30_of_90(self):
        q = [(dt.date(2020, 1, 1), np.array([0.0])),
             (dt.date(2020, 3, 31), np.array([90.0]))]
        day30 = [dt.date(2020, 1, 31)]  # 30 calendar days into a 90-day quarter
        out = fund.interpolate_quarterly_to_daily(q, day30)
        assert out[0, 0] == pytest.approx(30.0)

    def test_knot_exactness(self):
        rng = np.random.default_rng(8)
        dates = [dt.date(2020, 1, 1) + dt.timedelta(days=91 * i) for i in range(6)]
        vectors = [rng.standard_normal(4) for _ in dates]
        out = fund.interpolate_quarterly_to_daily(list(zip(dates, vectors)), dates)
        for i, v in enumerate(vectors):
            assert np.array_equal(out[i], v)

    def test_collinearity_on_seeded_quarters(self):
        rng = np.random.default_rng(9)
        q_dates = [dt.date(2020, 1, 1) + dt.timedelta(days=91 * i) for i in range(5)]
        vectors = [rng.standard_normal(3) * 10 for _ in q_dates]
        days = self.days(dt.date(2020, 1, 1), 120, step=3)
        days = [d for d in days if d <= q_dates[-1]]
        out = fund.interpolate_quarterly_to_daily(list(zip(q_dates, vectors)), days)
        for row, day in enumerate(days):
            if day <= q_dates[0]:
                continue
            i = next(k for k in range(len(q_dates) - 1)
                     if q_dates[k] < day <= q_dates[k + 1])
            frac = (day - q_dates[i]).days / (q_dates[i + 1] - q_dates[i]).days
            expected = vectors[i] + (vectors[i + 1] - vectors[i]) * frac
            residual = np.abs(out[row] - expected) / np.maximum(
                1.0, np.abs(vectors[i + 1] - vectors[i]))
            assert residual.max() < 1e-12

    def test_monotone_between_knots(self):
        q = [(dt.date(2020, 1, 1), np.array([1.0])),
             (dt.date(2020, 4, 1), np.array([4.0]))]
        days = self.days(dt.date(2020, 1, 1), 30, step=3)
        out = fund.interpolate_quarterly_to_daily(q, days)[:, 0]
        assert np.all(np.diff(out) >= 0)

    def test_linearity(self):
        rng = np.random.default_rng(10)
        q_dates = [dt.date(2020, 1, 1) + dt.timedelta(days=91 * i) for i in range(4)]
        v = [rng.standard_normal(2) for _ in q_dates]
        days = self.days(dt.date(2020, 2, 1), 25, step=5)
        a, b = 2.5, -1.25
        base = fund.interpolate_quarterly_to_daily(list(zip(q_dates, v)), days)
        scaled = fund.interpolate_quarterly_to_daily(
            list(zip(q_dates, [a * x + b for x in v])), days)
        assert np.allclose(scaled, a * base + b, atol=1e-12)

    def test_affine_independence_across_features(self):
        rng = np.random.default_rng(11)
        q_dates = [dt.date(2020, 1, 1) + dt.timedelta(days=91 * i) for i in range(4)]
        v = [rng.standard_normal(3) for _ in q_dates]
        days = self.days(dt.date(2020, 2, 1), 25, step=5)
        base = fund.interpolate_quarterly_to_daily(list(zip(q_dates, v)), days)
        bumped = [x.copy() for x in v]
        for x in bumped:
            x[1] += 100.0
        out = fund.interpolate_quarterly_to_daily(list(zip(q_dates, bumped)), days)
        assert np.array_equal(out[:, 0], base[:, 0])
        assert np.array_equal(out[:, 2], base[:, 2])
        assert not np.array_equal(out[:, 1], base[:, 1])

    def assert_bytes_equal_loop_reference(self, quarters, days):
        got = fund.interpolate_quarterly_to_daily(quarters, days)
        want = oracles.interpolate_quarterly_to_daily(quarters, days)
        assert got.tobytes() == want.tobytes()
        return got

    def test_bytes_equal_loop_reference_on_seeded_quarters(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            q_dates = [dt.date(2019, 1, 7) + dt.timedelta(days=int(d))
                       for d in np.cumsum(rng.integers(60, 120, size=int(rng.integers(2, 9))))]
            vectors = [rng.standard_normal(4) * 10.0 ** rng.integers(-3, 4, size=4)
                       for _ in q_dates]
            span = (q_dates[-1] - q_dates[0]).days
            days = sorted({q_dates[0] + dt.timedelta(days=int(o))
                           for o in rng.integers(0, span + 1, size=60)} | set(q_dates))
            self.assert_bytes_equal_loop_reference(list(zip(q_dates, vectors)), days)

    def test_knot_next_to_nan_quarter_keeps_its_value(self):
        q_dates = [dt.date(2020, 1, 1) + dt.timedelta(days=91 * i) for i in range(4)]
        vectors = [np.array([1.5, 2.0]), np.array([np.nan, 3.0]),
                   np.array([4.25, np.nan]), np.array([-1.0, 0.5])]
        days = self.days(q_dates[0], 274)
        out = self.assert_bytes_equal_loop_reference(list(zip(q_dates, vectors)), days)
        for q, v in zip(q_dates, vectors):
            assert out[days.index(q)].tobytes() == v.tobytes()

    def test_days_on_first_and_last_knot(self):
        q_dates = [dt.date(2020, 1, 1), dt.date(2020, 3, 31), dt.date(2020, 6, 30)]
        # 2.5 + (0.1 - 2.5) * 1 rounds to 0.10000000000000009.
        vectors = [np.array([0.7]), np.array([2.5]), np.array([0.1])]
        for days in ([q_dates[0]], [q_dates[-1]], [q_dates[0], q_dates[-1]]):
            out = self.assert_bytes_equal_loop_reference(list(zip(q_dates, vectors)), days)
            assert [row.tobytes() for row in out] == [
                vectors[q_dates.index(d)].tobytes() for d in days]

    def test_day_outside_span_is_error(self):
        q = [(dt.date(2020, 1, 1), np.array([0.0])),
             (dt.date(2020, 4, 1), np.array([1.0]))]
        with pytest.raises(ValueError, match="2020-05-01"):
            fund.interpolate_quarterly_to_daily(q, [dt.date(2020, 5, 1)])

    def test_needs_two_quarters(self):
        with pytest.raises(ValueError, match="2 quarters"):
            fund.interpolate_quarterly_to_daily(
                [(dt.date(2020, 1, 1), np.array([0.0]))], [])

    def test_non_increasing_quarters_rejected(self):
        q = [(dt.date(2020, 4, 1), np.array([0.0])),
             (dt.date(2020, 1, 1), np.array([1.0]))]
        with pytest.raises(ValueError, match="increasing"):
            fund.interpolate_quarterly_to_daily(q, [])


class TestLoader:
    def test_roundtrip_statement_reports(self, tmp_path):
        _, reports = generate_synthetic(SyntheticSpec(seed=12, n_days=200))
        path = tmp_path / "fundamentals.csv"
        fund.write_fundamentals(path, reports)
        loaded = fund.load_fundamentals(path)
        assert len(loaded) == len(reports)
        assert loaded[0].quarter_end == reports[0].quarter_end
        assert loaded[3].values == pytest.approx(reports[3].values)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("quarter_end,bogus_item\n2020-03-31,1.0\n")
        with pytest.raises(MarketDataError, match="bogus_item"):
            fund.load_fundamentals(path)

    def test_ratio_columns_accepted(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("quarter_end,roa,pe_ratio\n2020-03-31,0.1,\n2020-06-30,0.2,15\n")
        reports = fund.load_fundamentals(path)
        assert reports[0].values == {"roa": 0.1}
        assert reports[1].values == {"roa": 0.2, "pe_ratio": 15.0}

    def test_duplicate_quarter_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("quarter_end,roa\n2020-03-31,0.1\n2020-03-31,0.2\n")
        with pytest.raises(MarketDataError, match="duplicate"):
            fund.load_fundamentals(path)

    @pytest.mark.parametrize("text, message", [
        ("date,roa\n2020-03-31,0.1\n", ": first column must be quarter_end"),
        ("quarter_end,roa\n2020-06-30,0.1\n2020-03-31,0.2\n",
         " row 2: quarter end 2020-03-31 not after 2020-06-30"),
        ("quarter_end,roa\n2020-03-31,0.1\n2020-03-31,0.2\n",
         " row 2: duplicate quarter end 2020-03-31"),
    ])
    def test_rejection_message(self, tmp_path, text, message):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(MarketDataError, match=re.escape(f"{path}{message}") + "$"):
            fund.load_fundamentals(path)

    @pytest.mark.parametrize("cell", ["inf", "nan", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "f.csv"
        path.write_text("quarter_end,revenue,total_assets\n"
                        f"2020-03-31,1.0,2.0\n2020-06-30,1.5,{cell}\n")
        with pytest.raises(MarketDataError, match="row 2: non-finite total_assets"):
            fund.load_fundamentals(path)

    def test_registry_contents(self):
        assert len(fund.STATEMENT_FIELDS) == 20
        assert len(fund.RATIO_NAMES) == 13
        assert "pe_ratio" in fund.RATIO_NAMES


class TestDailyPipeline:
    def test_year_ago_pairing_gives_growth_from_first_knot(self):
        bars, reports = generate_synthetic(SyntheticSpec(seed=13, n_days=300))
        q_dates, matrix = fund.quarterly_ratio_matrix(reports, bars)
        growth_col = fund.RATIO_NAMES.index("revenue_growth")
        # pre-series quarters lack a year-ago twin; in-span knots have one
        assert np.isnan(matrix[:4, growth_col]).all()
        assert np.isfinite(matrix[4:, growth_col]).all()

    def test_quarter_end_price_matches_linear_scan(self):
        bars, reports = generate_synthetic(SyntheticSpec(seed=15, n_days=300))
        dates = [b.date for b in bars]
        # Move one quarter end onto a weekend inside the series, so that it
        # falls between two trading days.
        i = next(k for k, r in enumerate(reports) if r.quarter_end > dates[100])
        saturday = next(dates[t] + dt.timedelta(days=1) for t in range(100, 300)
                        if dates[t].weekday() == 4)
        assert reports[i - 1].quarter_end < saturday < reports[i + 1].quarter_end
        reports[i] = Q(saturday, reports[i].values)
        assert saturday not in dates
        assert reports[0].quarter_end < dates[0]  # before the first bar

        def scanned_price(day):  # the last close on or before ``day``
            price = None
            for bar in bars:
                if bar.date <= day:
                    price = bar.close
            return price

        _, matrix = fund.quarterly_ratio_matrix(reports, bars)
        pe = fund.RATIO_NAMES.index("pe_ratio")
        assert scanned_price(reports[0].quarter_end) is None
        assert np.isnan(matrix[0, pe])
        for k, report in enumerate(reports):
            year_ago = reports[k - 4] if k >= 4 else None
            want = vector(fund.ratios_from_report(
                report, market_price=scanned_price(report.quarter_end),
                year_ago=year_ago))
            assert np.array_equal(matrix[k], want, equal_nan=True)

    def test_daily_matrix_complete_on_synthetic(self):
        bars, reports = generate_synthetic(SyntheticSpec(seed=14, n_days=300))
        matrix, names = fund.daily_ratio_matrix(reports, bars)
        assert matrix.shape == (300, 13)
        assert names == fund.RATIO_NAMES
        assert np.isfinite(matrix).all()

    @pytest.mark.parametrize("n_days", [60, 120, 300, 1260, 1500, 5040])
    def test_synthetic_layout_pairs_four_reports_back(self, n_days):
        bars, reports = generate_synthetic(SyntheticSpec(seed=16, n_days=n_days))
        _, matrix = fund.quarterly_ratio_matrix(reports, bars)
        price = {b.date: b.close for b in bars}
        for k, report in enumerate(reports):
            want = fund.ratios_from_report(report, price.get(report.quarter_end),
                                           year_ago=reports[k - 4] if k >= 4 else None)
            want = vector(want)
            assert np.array_equal(matrix[k], want, equal_nan=True), k

    def test_missing_quarter_leaves_its_twin_without_growth(self):
        bars, reports = generate_synthetic(SyntheticSpec(seed=17, n_days=1260))
        gap = 9
        kept = reports[:gap] + reports[gap + 1:]
        _, matrix = fund.quarterly_ratio_matrix(kept, bars)
        price = {b.date: b.close for b in bars}
        growth = [fund.RATIO_NAMES.index(n) for n in
                  ("revenue_growth", "total_assets_growth", "total_debt_growth")]
        for row, k in enumerate(i for i in range(len(reports)) if i != gap):
            year_ago = reports[k - 4] if k >= 4 and k - 4 != gap else None
            want = vector(fund.ratios_from_report(reports[k],
                                                  price.get(reports[k].quarter_end),
                                                  year_ago=year_ago))
            assert np.array_equal(matrix[row], want, equal_nan=True), k
            assert np.isnan(matrix[row, growth]).all() == (year_ago is None)

    @pytest.mark.parametrize("n_days", [128, 160])
    def test_short_stub_quarter_pairs_by_date(self, n_days):
        """The final knot sits 1 or 33 trading days after the one before,
        so the report four positions back lies only 268-314 days earlier;
        the one five back is within 45 days of a year."""
        bars, reports = generate_synthetic(SyntheticSpec(seed=18, n_days=n_days))
        last, four_back, five_back = reports[-1], reports[-5], reports[-6]
        assert (last.quarter_end - four_back.quarter_end).days in range(268, 315)
        assert abs((last.quarter_end - five_back.quarter_end).days - 365) <= 45
        _, matrix = fund.quarterly_ratio_matrix(reports, bars)
        want = vector(fund.ratios_from_report(last, bars[-1].close, year_ago=five_back))
        assert np.array_equal(matrix[-1], want)
