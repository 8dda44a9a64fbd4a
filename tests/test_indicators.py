import math

import numpy as np
import pytest

import oracles
from aeroforecast import indicators as ind
from aeroforecast.indicators import IndicatorConfig
from helpers import make_random_bars

CFG = IndicatorConfig()


def closes_of(bars):
    return np.array([b.close for b in bars])


def hlc_of(bars):
    return ([b.high for b in bars], [b.low for b in bars],
            [b.close for b in bars])


class TestMovingAverages:
    def test_constant_series(self):
        closes = np.full(40, 7.0)
        sma = ind._sma(closes, CFG.sma_window)
        assert np.allclose(sma[4:], 7.0)
        assert np.allclose(ind._ema(closes, CFG.macd_fast)[11:], 7.0)
        assert np.allclose(ind._ema(closes, CFG.macd_slow)[25:], 7.0)
        assert np.isnan(sma[:4]).all()

    def test_sma5_of_ramp(self):
        closes = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0] * 5)
        assert ind._sma(closes, CFG.sma_window)[4] == 3.0

    def test_ema_matches_recursive_oracle(self):
        closes = closes_of(make_random_bars(11, n=60))
        oracles.nan_equal(ind._ema(closes, 12), oracles.ema_oracle(list(closes), 12), 1e-12)
        oracles.nan_equal(ind._ema(closes, 26), oracles.ema_oracle(list(closes), 26), 1e-12)


def walk(seed, n=300):
    return 50.0 + np.cumsum(np.random.default_rng(seed).standard_normal(n))


def same_smoothing(values, window, first=0):
    """``_ema`` and ``_wilder`` against the per-index loops they replaced."""
    assert ind._ema(values, window).tobytes() == oracles.ema(values, window).tobytes()
    assert (ind._wilder(values, window, first).tobytes()
            == oracles.wilder(values, window, first).tobytes())


class TestSmoothingMatchesPerIndexLoops:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("window", [1, 3, 12, 26])
    def test_seeded_walk(self, seed, window):
        same_smoothing(walk(seed), window)

    @pytest.mark.parametrize("first", [1, 9])
    def test_nan_prefix(self, first):
        values = walk(3)
        values[:first] = np.nan
        same_smoothing(values, 14, first)
        assert np.isnan(ind._wilder(values, 14, first)[:first + 13]).all()
        assert np.isfinite(ind._wilder(values, 14, first)[first + 13:]).all()

    def test_nan_after_the_seed(self):
        # As in dx, a zero DMI sum leaves a NaN after the seed, which the
        # recursion carries to the end.
        values = walk(4)
        values[[40, 41, 200]] = np.nan
        same_smoothing(values, 14, 1)
        assert np.isnan(ind._wilder(values, 14, 1)[40:]).all()

    @pytest.mark.parametrize("n", [14, 13, 1])
    def test_window_at_or_past_the_length(self, n):
        same_smoothing(walk(5, n), 14)
        same_smoothing(walk(5, n), 14, first=1)


class TestBollinger:
    def test_constant_series(self):
        width, pb = ind.bollinger_features(np.full(30, 5.0))
        assert np.allclose(width[19:], 0.0)
        assert np.isnan(pb).all()  # zero-width band

    def test_close_at_upper_band(self):
        # Fixed point of x = mean + 2*sigma over the trailing window.
        rng = np.random.default_rng(5)
        closes = list(100 + rng.standard_normal(19))
        x = 103.0
        for _ in range(60):
            win = np.array(closes + [x])
            x = win.mean() + 2.0 * win.std()
        _, pb = ind.bollinger_features(np.array(closes + [x]))
        assert pb[-1] == pytest.approx(1.0, abs=1e-9)

    def test_matches_windowed_oracle(self):
        closes = closes_of(make_random_bars(12, n=60))
        width, pb = ind.bollinger_features(closes)
        o_width, o_pb = oracles.bollinger_oracle(list(closes), 20, 2.0)
        oracles.nan_equal(width, o_width, 1e-10)
        oracles.nan_equal(pb, o_pb, 1e-10)


class TestCci:
    def test_constant_bars_missing(self):
        bars = [b for b in make_random_bars(1, n=30)]
        flat = [type(b)(b.date, 5.0, 5.0, 5.0, 5.0, b.volume) for b in bars]
        assert np.isnan(ind.cci(*hlc_of(flat))).all()

    def test_zero_numerator(self):
        bars = make_random_bars(2, n=30)
        closes = closes_of(bars)
        t = 20
        sma13 = closes[t - 12:t + 1].mean()
        # choose high/low so the typical price equals the 13-day SMA
        low = closes[t] - 1.0
        high = 3.0 * sma13 - low - closes[t]
        bars[t] = type(bars[t])(bars[t].date, bars[t].open, high, low,
                                closes[t], bars[t].volume)
        assert ind.cci(*hlc_of(bars))[t] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("mode", ["standard", "paper-literal"])
    def test_matches_oracle_per_mode(self, mode):
        bars = make_random_bars(13, n=60)
        cfg = IndicatorConfig(cci_mode=mode)
        high, low, close = hlc_of(bars)
        expected = oracles.cci_oracle(high, low, close, 13, 0.015, mode)
        oracles.nan_equal(ind.cci(*hlc_of(bars), cfg), expected, 1e-10)


class TestRoc:
    def test_constant(self):
        out = ind.roc(np.full(10, 3.0))
        assert np.allclose(out[1:], 0.0)

    def test_ten_percent(self):
        out = ind.roc(np.array([100.0, 110.0]))
        assert out[1] == pytest.approx(0.10)

    def test_zero_prior_price_missing(self):
        out = ind.roc(np.array([0.0, 1.0, 2.0]))
        assert np.isnan(out[1]) and not np.isnan(out[2])

    def test_matches_shifted_division_oracle(self):
        closes = closes_of(make_random_bars(14, n=60))
        oracles.nan_equal(ind.roc(closes), oracles.roc_oracle(list(closes), 1), 1e-12)


class TestRsi:
    def test_strictly_increasing_is_100(self):
        out = ind.rsi(np.arange(1.0, 31.0))
        assert np.allclose(out[14:], 100.0)

    def test_strictly_decreasing_is_0(self):
        out = ind.rsi(np.arange(31.0, 1.0, -1.0))
        assert np.allclose(out[14:], 0.0)

    def test_flat_is_50(self):
        out = ind.rsi(np.full(20, 9.0))
        assert np.allclose(out[14:], 50.0)

    def test_matches_wilder_oracle(self):
        closes = closes_of(make_random_bars(15, n=60))
        oracles.nan_equal(ind.rsi(closes), oracles.rsi_oracle(list(closes), 14), 1e-10)

    @pytest.mark.parametrize("closes", [
        np.full(30, 9.0),
        np.arange(1.0, 31.0),
        np.arange(31.0, 1.0, -1.0),
        np.r_[np.full(20, 5.0), np.arange(6.0, 26.0)],
        np.r_[np.arange(1.0, 21.0), np.full(20, 20.0)],
        np.r_[np.arange(20.0, 0.0, -1.0), np.full(20, 1.0)],
    ], ids=["flat", "up", "down", "flat-then-up", "up-then-flat", "down-then-flat"])
    def test_bytes_equal_loop_reference_on_degenerate_windows(self, closes):
        assert ind.rsi(closes).tobytes() == oracles.rsi(closes).tobytes()

    def test_bytes_equal_loop_reference_on_seeded_series(self):
        for seed in range(20):
            closes = closes_of(make_random_bars(300 + seed, n=120))
            for window in (2, 14, 40):
                cfg = IndicatorConfig(rsi_window=window)
                assert ind.rsi(closes, cfg).tobytes() == oracles.rsi(closes, cfg).tobytes()


class TestDmiAdx:
    def test_rising_highs_flat_lows_no_minus(self):
        bars = []
        base = make_random_bars(3, n=40)
        for t, b in enumerate(base):
            high = 100.0 + t
            bars.append(type(b)(b.date, 95.0, high, 90.0, 95.0 + t * 0.5, b.volume))
        _, minus_dmi, _ = ind.dmi_adx(*hlc_of(bars))
        defined = minus_dmi[~np.isnan(minus_dmi)]
        assert np.allclose(defined, 0.0)

    def test_constant_bars_missing(self):
        base = make_random_bars(4, n=40)
        flat = [type(b)(b.date, 5.0, 5.0, 5.0, 5.0, b.volume) for b in base]
        plus, minus, adx = ind.dmi_adx(*hlc_of(flat))
        assert np.isnan(plus).all() and np.isnan(minus).all() and np.isnan(adx).all()

    def test_matches_wilder_oracle(self):
        bars = make_random_bars(16, n=80)
        high, low, close = hlc_of(bars)
        o_plus, o_minus, o_adx = oracles.dmi_adx_oracle(high, low, close, 14)
        plus, minus, adx = ind.dmi_adx(*hlc_of(bars))
        oracles.nan_equal(plus, o_plus, 1e-9)
        oracles.nan_equal(minus, o_minus, 1e-9)
        oracles.nan_equal(adx, o_adx, 1e-9)

    @staticmethod
    def assert_bytes_equal_loop_reference(bars, cfg=CFG):
        for got, want in zip(ind.dmi_adx(*hlc_of(bars), cfg), oracles.dmi_adx(bars, cfg)):
            assert got.tobytes() == want.tobytes()

    def test_bytes_equal_loop_reference_on_seeded_bars(self):
        for seed in range(20):
            bars = make_random_bars(400 + seed, n=120)
            for window in (2, 14, 30):
                self.assert_bytes_equal_loop_reference(bars, IndicatorConfig(dmi_window=window))

    def test_bytes_equal_loop_reference_on_zero_range_bars(self):
        base = make_random_bars(5, n=60)
        flat = [type(b)(b.date, 5.0, 5.0, 5.0, 5.0, b.volume) for b in base]
        self.assert_bytes_equal_loop_reference(flat)
        # Each bar a single price, moving from day to day: TR is the gap.
        points = [type(b)(b.date, b.close, b.close, b.close, b.close, b.volume)
                  for b in base]
        self.assert_bytes_equal_loop_reference(points)

    def test_bytes_equal_loop_reference_on_gaps_and_tied_moves(self):
        # Bars gap up and down past the previous close, so each term of TR
        # wins on some day, and bars that widen evenly about an unchanged
        # centre make the up and down moves equal and positive.
        base = make_random_bars(6, n=80)
        rng = np.random.default_rng(6)
        centres = 100.0 + np.cumsum(rng.choice([-3.0, 0.0, 0.0, 3.0], size=len(base)))
        widths = rng.choice([1.0, 2.0, 3.0], size=len(base))
        bars = [type(b)(b.date, c, c + w, c - w, c, b.volume)
                for b, c, w in zip(base, centres, widths)]
        self.assert_bytes_equal_loop_reference(bars)
        self.assert_bytes_equal_loop_reference(bars, IndicatorConfig(dmi_window=2))


class TestMacd:
    def test_constant_series_zero(self):
        line, signal = ind.macd_features(np.full(50, 4.0))
        assert np.allclose(line[25:], 0.0)
        assert np.allclose(signal[33:], 0.0)

    def test_linear_ramp_converges_positive(self):
        line, _ = ind.macd_features(np.arange(1.0, 301.0))
        defined = line[~np.isnan(line)]
        assert defined[-1] > 0
        # EMA12 - EMA26 of a unit ramp settles to the lag difference
        assert abs(defined[-1] - defined[-2]) < 1e-6

    def test_matches_ema_composition_oracle(self):
        closes = closes_of(make_random_bars(17, n=80))
        o_line, o_sig = oracles.macd_oracle(list(closes), 12, 26, 9)
        line, signal = ind.macd_features(closes)
        oracles.nan_equal(line, o_line, 1e-10)
        oracles.nan_equal(signal, o_sig, 1e-10)


class TestStochastic:
    def test_close_at_window_high(self):
        bars = make_random_bars(5, n=30)
        t = 20
        hi = max(b.high for b in bars[t - 8:t + 1])
        bars[t] = type(bars[t])(bars[t].date, bars[t].open, hi,
                                bars[t].low, hi, bars[t].volume)
        k, _ = ind.stochastic_kd(*hlc_of(bars))
        assert k[t] == pytest.approx(100.0)

    def test_close_at_window_low(self):
        bars = make_random_bars(6, n=30)
        t = 20
        lo = min(b.low for b in bars[t - 8:t + 1])
        bars[t] = type(bars[t])(bars[t].date, bars[t].open, bars[t].high,
                                lo, lo, bars[t].volume)
        k, _ = ind.stochastic_kd(*hlc_of(bars))
        assert k[t] == pytest.approx(0.0)

    def test_matches_windowed_oracle(self):
        bars = make_random_bars(18, n=60)
        high, low, close = hlc_of(bars)
        o_k, o_d = oracles.stochastic_oracle(high, low, close, 9, 3)
        k, d = ind.stochastic_kd(*hlc_of(bars))
        oracles.nan_equal(k, o_k, 1e-10)
        oracles.nan_equal(d, o_d, 1e-10)


class TestWilliamsR:
    def test_close_at_high_is_zero(self):
        bars = make_random_bars(7, n=30)
        t = 25
        hi = max(b.high for b in bars[t - 13:t + 1])
        bars[t] = type(bars[t])(bars[t].date, bars[t].open, hi,
                                bars[t].low, hi, bars[t].volume)
        assert ind.williams_r(*hlc_of(bars))[t] == pytest.approx(0.0)

    def test_close_at_low_is_100(self):
        bars = make_random_bars(8, n=30)
        t = 25
        lo = min(b.low for b in bars[t - 13:t + 1])
        bars[t] = type(bars[t])(bars[t].date, bars[t].open, bars[t].high,
                                lo, lo, bars[t].volume)
        assert ind.williams_r(*hlc_of(bars))[t] == pytest.approx(100.0)

    def test_matches_windowed_oracle(self):
        bars = make_random_bars(19, n=60)
        high, low, close = hlc_of(bars)
        oracles.nan_equal(ind.williams_r(*hlc_of(bars)),
                          oracles.williams_oracle(high, low, close, 14), 1e-10)


class TestTechnicalMatrix:
    def test_fifteen_columns(self):
        bars = make_random_bars(20, n=60)
        matrix = ind.compute_technical_matrix(bars)
        assert matrix.shape == (60, 15)
        assert len(ind.TECHNICAL_COLUMNS) == 15

    def test_volume_passthrough(self):
        bars = make_random_bars(21, n=60)
        matrix = ind.compute_technical_matrix(bars)
        col = list(ind.TECHNICAL_COLUMNS).index("Volume")
        assert np.array_equal(matrix[:, col], [b.volume for b in bars])

    def test_columns_equal_standalone_ops(self):
        bars = make_random_bars(22, n=70)
        closes = closes_of(bars)
        matrix = ind.compute_technical_matrix(bars)
        names = list(ind.TECHNICAL_COLUMNS)
        sma = ind._sma(closes, CFG.sma_window)
        width, pb = ind.bollinger_features(closes)
        line, sig = ind.macd_features(closes)
        plus, minus, adx = ind.dmi_adx(*hlc_of(bars))
        k, d = ind.stochastic_kd(*hlc_of(bars))
        expected = {
            "BBWidth": width, "PercentB": pb, "CCI": ind.cci(*hlc_of(bars)),
            "ROC": ind.roc(closes), "RSI": ind.rsi(closes),
            "PlusDMI": plus, "MinusDMI": minus, "ADX": adx, "SMA": sma,
            "MACDLine": line, "MACDSignal": sig, "PercentK": k,
            "PercentD": d, "WR": ind.williams_r(*hlc_of(bars)),
        }
        for name, series in expected.items():
            got = matrix[:, names.index(name)]
            assert np.array_equal(got, series, equal_nan=True), name

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            ind.compute_technical_matrix(make_random_bars(1, n=30))


class TestInvariants:
    def test_bounded_indicators_in_0_100(self):
        names = list(ind.TECHNICAL_COLUMNS)
        cols = [names.index(c) for c in ind.BOUNDED_COLUMNS]
        for seed in range(12):
            matrix = ind.compute_technical_matrix(make_random_bars(100 + seed, n=80))
            block = matrix[:, cols]
            defined = block[~np.isnan(block)]
            assert defined.min() >= -1e-9 and defined.max() <= 100.0 + 1e-9

    def test_causality_appending_bar_preserves_prefix(self):
        bars = make_random_bars(23, n=81)
        full = ind.compute_technical_matrix(bars)
        prefix = ind.compute_technical_matrix(bars[:80])
        assert np.array_equal(full[:80], prefix, equal_nan=True)

    def test_price_scale_behavior(self):
        bars = make_random_bars(24, n=80)
        c = 7.3
        scaled = [type(b)(b.date, b.open * c, b.high * c, b.low * c,
                          b.close * c, b.volume) for b in bars]
        base = ind.compute_technical_matrix(bars)
        scl = ind.compute_technical_matrix(scaled)
        names = list(ind.TECHNICAL_COLUMNS)
        for name in ("RSI", "PercentK", "PercentD", "WR", "ROC", "PercentB"):
            i = names.index(name)
            oracles.nan_equal(base[:, i], scl[:, i], 1e-9)
        for name in ("SMA", "MACDLine"):
            i = names.index(name)
            oracles.nan_equal(base[:, i] * c, scl[:, i], 1e-7)


class TestConfigValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            IndicatorConfig(rsi_window=0)

    def test_macd_order(self):
        with pytest.raises(ValueError, match="macd_fast"):
            IndicatorConfig(macd_fast=30, macd_slow=26)

    def test_bad_cci_mode(self):
        with pytest.raises(ValueError, match="cci_mode"):
            IndicatorConfig(cci_mode="bogus")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["bb_k", "cci_scale"])
    def test_scale_must_be_positive_and_finite(self, name, value):
        # cci_scale = inf used to write an all-zero CCI column into PCA
        with pytest.raises(ValueError, match=f"^{name} must be > 0 and finite$"):
            IndicatorConfig(**{name: value})


class TestCsvDump:
    def test_missing_values_serialized_empty(self, tmp_path):
        bars = make_random_bars(25, n=40)
        matrix = ind.compute_technical_matrix(bars)
        path = tmp_path / "technical.csv"
        ind.write_technical_csv(path, [b.date for b in bars], matrix)
        lines = path.read_text().splitlines()
        assert lines[0] == "date," + ",".join(ind.TECHNICAL_COLUMNS)
        assert len(lines) == 41
        first_row = lines[1].split(",")
        assert first_row[1 + list(ind.TECHNICAL_COLUMNS).index("RSI")] == ""
