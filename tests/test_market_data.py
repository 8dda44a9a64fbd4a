import datetime as dt
import itertools
import math
import re

import numpy as np
import pytest

from aeroforecast.market_data import (AlignedDataset, MarketDataError, PriceBar,
                                      SyntheticSpec,
                                      clean_and_align, generate_synthetic,
                                      load_prices, write_prices)
from helpers import make_random_bars


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadPrices:
    HEADER = "date,open,high,low,close,volume\n"

    def test_well_formed_rows(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", self.HEADER +
                         "2020-01-02,10,11,9,10.5,1000\n"
                         "2020-01-03,10.5,12,10,11,1100\n"
                         "2020-01-06,11,11.5,10.5,11.2,900\n")
        bars = load_prices(path)
        assert len(bars) == 3
        assert bars[0].date == dt.date(2020, 1, 2)
        assert bars[-1].close == 11.2
        assert [b.date for b in bars] == sorted(b.date for b in bars)

    def test_high_below_low_names_row(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", self.HEADER +
                         "2020-01-02,10,11,9,10.5,1000\n"
                         "2020-01-03,10,8,9,9.5,1000\n")
        with pytest.raises(MarketDataError, match="row 2"):
            load_prices(path)

    def test_duplicate_dates_rejected(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", self.HEADER +
                         "2020-01-02,10,11,9,10.5,1000\n"
                         "2020-01-02,10,11,9,10.6,1000\n")
        with pytest.raises(MarketDataError, match="duplicate"):
            load_prices(path)

    def test_out_of_order_dates_rejected(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", self.HEADER +
                         "2020-01-03,10,11,9,10.5,1000\n"
                         "2020-01-02,10,11,9,10.6,1000\n")
        with pytest.raises(MarketDataError):
            load_prices(path)

    def test_bad_number_reports_column(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", self.HEADER +
                         "2020-01-02,10,11,9,oops,1000\n")
        with pytest.raises(MarketDataError, match="close"):
            load_prices(path)

    def test_inf_close_names_row(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", self.HEADER +
                         "2020-01-02,10,11,9,10.5,1000\n"
                         "2020-01-03,10,11,9,inf,1000\n")
        with pytest.raises(MarketDataError, match="row 2.*non-finite close"):
            load_prices(path)

    def test_nan_volume_names_row(self, tmp_path):
        # Accepted, a NaN volume would later delete the day during cleaning
        # without saying so.
        path = write_csv(tmp_path / "p.csv", self.HEADER +
                         "2020-01-02,10,11,9,10.5,1000\n"
                         "2020-01-03,10,11,9,10.5,1000\n"
                         "2020-01-06,10,11,9,10.5,nan\n")
        with pytest.raises(MarketDataError, match="row 3.*non-finite volume"):
            load_prices(path)

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path / "p.csv", "a,b,c\n1,2,3\n")
        with pytest.raises(MarketDataError, match="header"):
            load_prices(path)

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes((self.HEADER + "2020-01-02,10,11,9,10.5,1000\n")
                         .replace("\n", "\r\n").encode())
        assert len(load_prices(str(path))) == 1

    @pytest.mark.parametrize("rows, message", [
        ("2020-01-02,10,11,9,10.5,1000\n2020-13-02,10,11,9,10.5,1000\n",
         "row 2: bad date '2020-13-02' (want YYYY-MM-DD)"),
        ("2020-01-02,10,11,9,10.5,1000\n2020-01-03,10,11,9,12,1000\n",
         "row 2: 2020-01-03: close 12.0 outside [low=9.0, high=11.0]"),
        ("2020-01-02,10,11,9,10.5,1000\n2020-01-03,10,11,9,10.5\n",
         "row 2: expected 6 fields, got 5"),
        ("2020-01-02,10,11,9,10.5,1000\n2020-01-02,10,11,9,10.6,1000\n",
         "row 2: duplicate date 2020-01-02"),
        ("2020-01-03,10,11,9,10.5,1000\n2020-01-02,10,11,9,10.6,1000\n",
         "row 2: date 2020-01-02 not after 2020-01-03"),
    ])
    def test_bad_row_message_names_the_row(self, tmp_path, rows, message):
        path = write_csv(tmp_path / "p.csv", self.HEADER + rows)
        with pytest.raises(MarketDataError, match=re.escape(f"{path} {message}") + "$"):
            load_prices(path)

    @pytest.mark.parametrize("rows, message", [
        ("2020-01-02,10,11,9,10.5,1000\n2020-01-03,10,11,9,10.5,1000\n"
         "2020-01-06,10,11,9,oops,1000\n2020-01-07,10,11,9,10.5,1000\n"
         "2020-13-08,10,11,9,10.5,1000\n",
         "row 3: bad number 'oops' in column 'close'"),
        ("2020-01-0x,10,11,9,oops,1000\n",
         "row 1: bad date '2020-01-0x' (want YYYY-MM-DD)"),
        ("2020-01-02,x,11,9,10.5,y\n",
         "row 1: bad number 'x' in column 'open'"),
        ("2020-01-02,nan,8,9,10.5,1000\n",
         "row 1: 2020-01-02: non-finite open nan"),
    ])
    def test_first_fault_in_row_order(self, tmp_path, rows, message):
        path = write_csv(tmp_path / "p.csv", self.HEADER + rows)
        with pytest.raises(MarketDataError, match=re.escape(f"{path} {message}") + "$"):
            load_prices(path)

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        (HEADER, "no data rows"),
        (HEADER + "\n\n", "no data rows"),
    ])
    def test_file_without_rows(self, tmp_path, text, message):
        path = write_csv(tmp_path / "p.csv", text)
        with pytest.raises(MarketDataError, match=re.escape(f"{path}: {message}") + "$"):
            load_prices(path)

    def test_synthetic_roundtrip_1260(self, tmp_path):
        bars, _ = generate_synthetic(SyntheticSpec(seed=9, n_days=1260))
        path = tmp_path / "synth.csv"
        write_prices(path, bars)
        loaded = load_prices(path)
        assert len(loaded) == 1260
        assert loaded[0].date == bars[0].date
        assert loaded[-1].date == bars[-1].date
        assert loaded == bars  # repr round-trip is exact


class TestCleanAndAlign:
    def _matrices(self, n, tech_cols=3, fund_cols=2):
        rng = np.random.default_rng(0)
        return (rng.standard_normal((n, tech_cols)),
                [f"t{i}" for i in range(tech_cols)],
                rng.standard_normal((n, fund_cols)),
                [f"f{i}" for i in range(fund_cols)])

    def test_warmup_rows_removed(self):
        bars = make_random_bars(1, n=100)
        tech, tn, fnd, fn = self._matrices(100)
        tech[:26] = np.nan  # warm-up rows count as missing
        out = clean_and_align(bars, tech, tn, fnd, fn)
        assert len(out.dates) == 74
        assert out.dates[0] == bars[26].date

    def test_single_nan_removes_row_everywhere(self):
        bars = make_random_bars(2, n=50)
        tech, tn, fnd, fn = self._matrices(50)
        tech[40, 1] = np.nan
        out = clean_and_align(bars, tech, tn, fnd, fn)
        assert len(out.dates) == 49
        assert bars[40].date not in out.dates
        # every surviving row is complete across both matrices
        assert np.isfinite(out.features).all()

    def test_missing_fundamental_also_deletes(self):
        bars = make_random_bars(3, n=50)
        tech, tn, fnd, fn = self._matrices(50)
        fnd[7, 0] = np.nan
        out = clean_and_align(bars, tech, tn, fnd, fn)
        assert bars[7].date not in out.dates

    def test_1260_days_warmup_plus_six_gaps(self):
        bars = make_random_bars(4, n=1260)
        tech, tn, fnd, fn = self._matrices(1260)
        warmup = 33
        tech[:warmup] = np.nan
        gap_rows = [100, 200, 300, 400, 500, 600]
        for r in gap_rows:
            tech[r, 0] = np.nan
        out = clean_and_align(bars, tech, tn, fnd, fn)
        # independent scan of incomplete rows
        expected = sum(
            1 for i in range(1260)
            if np.isfinite(tech[i]).all() and np.isfinite(fnd[i]).all()
        )
        assert len(out.dates) == expected == 1260 - warmup - 6

    def test_idempotent_and_order_preserving(self):
        bars = make_random_bars(5, n=80)
        tech, tn, fnd, fn = self._matrices(80)
        tech[10, 0] = np.nan
        fnd[20, 1] = np.nan
        once = clean_and_align(bars, tech, tn, fnd, fn)
        surviving = [b for b in bars if b.date in set(once.dates)]
        twice = clean_and_align(surviving, once.features[:, :3], tn,
                                once.features[:, 3:], fn)
        assert twice.dates == once.dates
        assert np.array_equal(twice.features, once.features)
        assert np.array_equal(twice.target, once.target)
        assert list(once.dates) == sorted(once.dates)

    def test_calendar_mismatch(self):
        bars = make_random_bars(6, n=10)
        tech, tn, fnd, fn = self._matrices(9)
        with pytest.raises(MarketDataError, match="calendar"):
            clean_and_align(bars, tech, tn, fnd, fn)

    def test_empty_result(self):
        bars = make_random_bars(7, n=10)
        tech, tn, fnd, fn = self._matrices(10)
        tech[:] = np.nan
        with pytest.raises(MarketDataError, match="no rows"):
            clean_and_align(bars, tech, tn, fnd, fn)


class TestGenerateSynthetic:
    def test_zero_volatility_zero_drift_is_constant(self):
        bars, _ = generate_synthetic(SyntheticSpec(seed=1, n_days=70,
                                                   drift=0.0, volatility=0.0))
        closes = {b.close for b in bars}
        assert closes == {100.0}
        assert all(b.high == b.low == b.open == b.close for b in bars)

    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec(seed=77, n_days=120)
        a_bars, a_reports = generate_synthetic(spec)
        b_bars, b_reports = generate_synthetic(spec)
        assert a_bars == b_bars
        assert a_reports == b_reports

    def test_seed_42_1260_days_invariant_sweep(self):
        bars, reports = generate_synthetic(SyntheticSpec(seed=42, n_days=1260))
        assert len(bars) == 1260
        for bar in bars:
            bar.validate()  # low <= open/close <= high, volume >= 0
        dates = [b.date for b in bars]
        assert all(a < b for a, b in zip(dates, dates[1:]))
        q_ends = [r.quarter_end for r in reports]
        assert all(a < b for a, b in zip(q_ends, q_ends[1:]))
        # quarter knots cover the trading span
        assert q_ends[0] < dates[0] and q_ends[-1] == dates[-1]

    def test_preconditions(self):
        with pytest.raises(ValueError, match="n_days"):
            SyntheticSpec(seed=1, n_days=10)
        with pytest.raises(ValueError, match="volatility"):
            SyntheticSpec(seed=1, n_days=100, volatility=-0.1)
        with pytest.raises(ValueError, match="^unknown quarterly_pattern 'weekly'$"):
            SyntheticSpec(seed=1, n_days=100, quarterly_pattern="weekly")

    @pytest.mark.parametrize("name, value", [
        ("drift", math.nan), ("drift", math.inf), ("drift", -math.inf),
        ("volatility", math.nan), ("volatility", math.inf),
    ])
    def test_non_finite_rates_are_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            SyntheticSpec(seed=1, n_days=100, **{name: value})

    def test_different_patterns_differ(self):
        flat = generate_synthetic(SyntheticSpec(seed=3, n_days=300,
                                                quarterly_pattern="flat"))[1]
        trend = generate_synthetic(SyntheticSpec(seed=3, n_days=300,
                                                 quarterly_pattern="trend"))[1]
        assert flat[5].values["revenue"] != trend[5].values["revenue"]


class TestPriceBarValidation:
    def test_open_outside_range(self):
        bar = PriceBar(dt.date(2020, 1, 2), 12.0, 11.0, 9.0, 10.0, 1.0)
        with pytest.raises(MarketDataError, match="open"):
            bar.validate()

    @pytest.mark.parametrize("open_, close, message", [
        (12.0, 10.0, "2020-01-02: open 12.0 outside [low=9.0, high=11.0]"),
        (10.0, 8.5, "2020-01-02: close 8.5 outside [low=9.0, high=11.0]"),
    ])
    def test_outside_range_message(self, open_, close, message):
        bar = PriceBar(dt.date(2020, 1, 2), open_, 11.0, 9.0, close, 1.0)
        with pytest.raises(MarketDataError, match=re.escape(message) + "$"):
            bar.validate()

    def test_negative_volume(self):
        bar = PriceBar(dt.date(2020, 1, 2), 10.0, 11.0, 9.0, 10.0, -1.0)
        with pytest.raises(MarketDataError, match="volume"):
            bar.validate()

    def test_inf_close_rejected(self):
        bar = PriceBar(dt.date(2020, 1, 2), 1.0, math.inf, 0.5, math.inf, 1.0)
        with pytest.raises(MarketDataError, match="non-finite high"):
            bar.validate()

    def test_nan_volume_rejected(self):
        bar = PriceBar(dt.date(2020, 1, 2), 10.0, 11.0, 9.0, 10.0, math.nan)
        with pytest.raises(MarketDataError, match="non-finite volume"):
            bar.validate()

    def test_rejects_exactly_the_invalid_bars(self):
        # Every combination of special and ordered values: validate accepts
        # a bar iff all five numbers are finite, open and close lie in
        # [low, high] and volume is not negative.
        values = (math.nan, -math.inf, math.inf, -1.0, 0.0, 1.0, 2.0)
        for o, h, lo, c, v in itertools.product(values, repeat=5):
            valid = (all(map(math.isfinite, (o, h, lo, c, v)))
                     and lo <= o <= h and lo <= c <= h and v >= 0.0)
            bar = PriceBar(dt.date(2020, 1, 2), o, h, lo, c, v)
            if valid:
                bar.validate()
            else:
                with pytest.raises(MarketDataError):
                    bar.validate()


class TestAlignedDataset:
    def test_non_finite_target_rejected(self):
        dates = tuple(dt.date(2020, 1, d) for d in (2, 3, 6))
        with pytest.raises(MarketDataError, match="target"):
            AlignedDataset(dates=dates, features=np.zeros((3, 1)),
                           target=np.array([1.0, math.inf, 2.0]), feature_names=("f",))
