"""Independent brute-force oracles used to verify the library.

Everything here is deliberately written as plain Python loops that
recompute each value from scratch (windows rescanned per day, recursions
step by step), sharing no code path with the vectorized implementations
under test.  NaN marks undefined positions, matching the library's
missing-value convention.
"""

from __future__ import annotations

import csv
import math
import time

import numpy as np

from aeroforecast.experiments import GRID_RESULT_COLUMNS, MARGINAL_DIMENSIONS, GridReport
from aeroforecast.fundamentals import RATIO_NAMES
from aeroforecast.indicators import TECHNICAL_COLUMNS, IndicatorConfig, _wilder
from aeroforecast.market_data import PRICE_COLUMNS
from aeroforecast.pca import PcaModel, explained_variance_rows
from aeroforecast.trainers import TrainConfig, _EpochLog

NAN = float("nan")


def sma_oracle(closes, window):
    out = [NAN] * len(closes)
    for t in range(window - 1, len(closes)):
        out[t] = sum(closes[t - window + 1:t + 1]) / window
    return out


def ema_oracle(closes, window):
    out = [NAN] * len(closes)
    if len(closes) < window:
        return out
    level = sum(closes[:window]) / window
    out[window - 1] = level
    k = 2.0 / (window + 1.0)
    for t in range(window, len(closes)):
        level = level + k * (closes[t] - level)
        out[t] = level
    return out


def bollinger_oracle(closes, window, k):
    width = [NAN] * len(closes)
    percent_b = [NAN] * len(closes)
    for t in range(window - 1, len(closes)):
        win = closes[t - window + 1:t + 1]
        mid = sum(win) / window
        var = sum((x - mid) ** 2 for x in win) / window
        sd = math.sqrt(var)
        upper = mid + k * sd
        lower = mid - k * sd
        if mid != 0.0:
            width[t] = 100.0 * (upper - lower) / mid
        if upper != lower:
            percent_b[t] = (closes[t] - lower) / (upper - lower)
    return width, percent_b


def cci_oracle(high, low, close, window, scale, mode):
    out = [NAN] * len(close)
    for t in range(window - 1, len(close)):
        win = close[t - window + 1:t + 1]
        sma_c = sum(win) / window
        tp = (high[t] + low[t] + close[t]) / 3.0
        if mode == "standard":
            mad = sum(abs(x - sma_c) for x in win) / window
            denom = scale * mad
        else:
            denom = sma_c - close[t] * scale
        if denom != 0.0:
            out[t] = (tp - sma_c) / denom
    return out


def roc_oracle(closes, lag):
    out = [NAN] * len(closes)
    for t in range(lag, len(closes)):
        if closes[t - lag] != 0.0:
            out[t] = (closes[t] - closes[t - lag]) / closes[t - lag]
    return out


def rsi_oracle(closes, window):
    """Step-by-step Wilder recursion with the degenerate-window
    conventions (no movement -> 50, only up moves -> 100)."""
    n = len(closes)
    out = [NAN] * n
    if n < window + 1:
        return out
    ups = [max(closes[t] - closes[t - 1], 0.0) for t in range(1, n)]
    downs = [max(closes[t - 1] - closes[t], 0.0) for t in range(1, n)]
    avg_up = sum(ups[:window]) / window
    avg_down = sum(downs[:window]) / window

    def to_rsi(u, d):
        if d == 0.0:
            return 50.0 if u == 0.0 else 100.0
        return 100.0 - 100.0 / (1.0 + u / d)

    out[window] = to_rsi(avg_up, avg_down)
    for t in range(window + 1, n):
        avg_up = (avg_up * (window - 1) + ups[t - 1]) / window
        avg_down = (avg_down * (window - 1) + downs[t - 1]) / window
        out[t] = to_rsi(avg_up, avg_down)
    return out


def _wilder_oracle(values, window, first):
    out = [NAN] * len(values)
    start = first + window - 1
    if start >= len(values):
        return out
    level = sum(values[first:start + 1]) / window
    out[start] = level
    for t in range(start + 1, len(values)):
        level = level + (values[t] - level) / window
        out[t] = level
    return out


def dmi_adx_oracle(high, low, close, window):
    n = len(close)
    plus_dm, minus_dm, tr = [NAN] * n, [NAN] * n, [NAN] * n
    for t in range(1, n):
        up = high[t] - high[t - 1]
        dn = low[t - 1] - low[t]
        plus_dm[t] = up if (up > dn and up > 0) else 0.0
        minus_dm[t] = dn if (dn > up and dn > 0) else 0.0
        tr[t] = max(high[t] - low[t], abs(high[t] - close[t - 1]),
                    abs(low[t] - close[t - 1]))
    s_plus = _wilder_oracle(plus_dm, window, 1)
    s_minus = _wilder_oracle(minus_dm, window, 1)
    s_tr = _wilder_oracle(tr, window, 1)
    plus_dmi, minus_dmi, dx = [NAN] * n, [NAN] * n, [NAN] * n
    for t in range(n):
        if math.isnan(s_tr[t]) or s_tr[t] == 0.0:
            continue
        plus_dmi[t] = 100.0 * s_plus[t] / s_tr[t]
        minus_dmi[t] = 100.0 * s_minus[t] / s_tr[t]
        total = plus_dmi[t] + minus_dmi[t]
        if total != 0.0:
            dx[t] = 100.0 * abs(plus_dmi[t] - minus_dmi[t]) / total
    adx = _wilder_oracle(dx, window, window)
    return plus_dmi, minus_dmi, adx


def macd_oracle(closes, fast, slow, signal):
    fast_ema = ema_oracle(closes, fast)
    slow_ema = ema_oracle(closes, slow)
    line = [f - s if not (math.isnan(f) or math.isnan(s)) else NAN
            for f, s in zip(fast_ema, slow_ema)]
    defined = [v for v in line if not math.isnan(v)]
    sig_defined = ema_oracle(defined, signal)
    sig = [NAN] * len(closes)
    offset = len(closes) - len(defined)
    for i, v in enumerate(sig_defined):
        sig[offset + i] = v
    return line, sig


def stochastic_oracle(high, low, close, window, d_window):
    n = len(close)
    k = [NAN] * n
    for t in range(window - 1, n):
        hi = max(high[t - window + 1:t + 1])
        lo = min(low[t - window + 1:t + 1])
        if hi != lo:
            k[t] = 100.0 * (close[t] - lo) / (hi - lo)
    d = [NAN] * n
    for t in range(d_window - 1, n):
        win = k[t - d_window + 1:t + 1]
        if not any(math.isnan(x) for x in win):
            d[t] = sum(win) / d_window
    return k, d


def williams_oracle(high, low, close, window):
    n = len(close)
    out = [NAN] * n
    for t in range(window - 1, n):
        hi = max(high[t - window + 1:t + 1])
        lo = min(low[t - window + 1:t + 1])
        if hi != lo:
            out[t] = 100.0 * (hi - close[t]) / (hi - lo)
    return out


def nan_equal(a, b, atol):
    """Max abs difference over positions defined in both; NaN patterns
    must agree exactly."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape == b.shape
    if not np.array_equal(np.isnan(a), np.isnan(b)):
        first = int(np.argmax(np.isnan(a) != np.isnan(b)))
        raise AssertionError(f"NaN patterns differ first at index {first}")
    mask = ~np.isnan(a)
    if not mask.any():
        return 0.0
    diff = float(np.max(np.abs(a[mask] - b[mask])))
    if diff > atol:
        raise AssertionError(f"max abs diff {diff} exceeds {atol}")
    return diff


# ---------------------------------------------------------------------------
# Feature routines as the library wrote them with a per-day loop, before
# whole-array expressions replaced the loops, kept as the reference for
# byte-identical output.  The Wilder smoothing is the library's own.
# ---------------------------------------------------------------------------


def rsi(closes, cfg: IndicatorConfig = IndicatorConfig()):
    closes = np.asarray(closes, dtype=float)
    n = cfg.rsi_window
    delta = np.diff(closes, prepend=np.nan)
    up = np.where(delta > 0, delta, 0.0)
    down = np.where(delta < 0, -delta, 0.0)
    avg_up = _wilder(up, n, first=1)
    avg_down = _wilder(down, n, first=1)
    out = np.full(closes.shape, np.nan)
    for t in range(len(closes)):
        u, d = avg_up[t], avg_down[t]
        if np.isnan(u) or np.isnan(d):
            continue
        if d == 0.0:
            out[t] = 50.0 if u == 0.0 else 100.0
        else:
            out[t] = 100.0 - 100.0 / (1.0 + u / d)
    return out


def dmi_adx(bars, cfg: IndicatorConfig = IndicatorConfig()):
    high = np.array([b.high for b in bars], dtype=float)
    low = np.array([b.low for b in bars], dtype=float)
    close = np.array([b.close for b in bars], dtype=float)
    n = cfg.dmi_window
    T = len(close)
    plus_dm = np.full(T, np.nan)
    minus_dm = np.full(T, np.nan)
    tr = np.full(T, np.nan)
    for t in range(1, T):
        up = high[t] - high[t - 1]
        dn = low[t - 1] - low[t]
        plus_dm[t] = up if (up > dn and up > 0) else 0.0
        minus_dm[t] = dn if (dn > up and dn > 0) else 0.0
        tr[t] = max(high[t] - low[t],
                    abs(high[t] - close[t - 1]),
                    abs(low[t] - close[t - 1]))
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


def interpolate_quarterly_to_daily(quarters, trading_days):
    """Days must be sorted: the segment cursor only moves forward."""
    q_dates = [q[0] for q in quarters]
    q_values = [np.asarray(q[1], dtype=float) for q in quarters]
    out = np.empty((len(trading_days), len(q_values[0])), dtype=float)
    i = 0
    for row, day in enumerate(trading_days):
        if day == q_dates[0]:
            out[row] = q_values[0]
            continue
        while q_dates[i + 1] < day:
            i += 1
        if day == q_dates[i + 1]:
            out[row] = q_values[i + 1]
            continue
        frac = (day - q_dates[i]).days / (q_dates[i + 1] - q_dates[i]).days
        out[row] = q_values[i] + (q_values[i + 1] - q_values[i]) * frac
    return out


# ---------------------------------------------------------------------------
# The EMA and Wilder recursions as the library wrote them, indexing numpy
# scalars one day at a time, before they ran on Python floats; kept as
# the reference for byte-identical output.
# ---------------------------------------------------------------------------


def ema(values, window):
    out = np.full(values.shape, np.nan)
    if len(values) < window:
        return out
    alpha = 2.0 / (window + 1.0)
    level = float(np.mean(values[:window]))
    out[window - 1] = level
    for t in range(window, len(values)):
        level += alpha * (values[t] - level)
        out[t] = level
    return out


def wilder(values, window, first):
    out = np.full(values.shape, np.nan)
    start = first + window - 1
    if start >= len(values):
        return out
    level = float(np.mean(values[first:start + 1]))
    out[start] = level
    for t in range(start + 1, len(values)):
        level += (values[t] - level) / window
        out[t] = level
    return out


# ---------------------------------------------------------------------------
# Recurrent network and calculus oracles
# ---------------------------------------------------------------------------


def rnn_forward_oracle(U, W, V, b_h, b_y, inputs):
    """Loop-unrolled scalar recursion of the recurrent forward pass."""
    n_hidden = len(V)
    n_input = len(inputs[0]) if len(inputs) else 0
    h = [0.0] * n_hidden
    preds = []
    for x in inputs:
        a = []
        for i in range(n_hidden):
            s = b_h[i]
            for jj in range(n_input):
                s += U[i][jj] * x[jj]
            for kk in range(n_hidden):
                s += W[i][kk] * h[kk]
            a.append(s)
        h = [math.tanh(v) for v in a]
        preds.append(sum(V[i] * h[i] for i in range(n_hidden)) + b_y)
    return preds


def rnn_bptt_oracle(U, W, V, b_h, b_y, inputs, targets, index_subset=None,
                    hidden_activation="tanh"):
    """Gradient of the subset SSE by per-step backpropagation through time.

    The forward recursion is redone here step by step, and every weight
    gradient is accumulated inside the backward loop with one outer
    product per step, in the parameter layout U, W, V, b_h, b_y.  The
    output activation is the identity.
    """
    U, W, V, b_h = (np.asarray(a, dtype=float) for a in (U, W, V, b_h))
    X = np.asarray(inputs, dtype=float)
    N, n_hidden = X.shape[0], len(V)
    tanh = hidden_activation == "tanh"
    H = np.zeros((N, n_hidden))
    h = np.zeros(n_hidden)
    for t in range(N):
        a = U @ X[t] + W @ h + b_h
        h = np.tanh(a) if tanh else a
        H[t] = h
    preds = H @ V + b_y
    dy = np.zeros(N)
    idx = range(N) if index_subset is None else index_subset
    for i in idx:
        dy[i] = 2.0 * (preds[i] - targets[i])
    dU = np.zeros_like(U)
    dW = np.zeros_like(W)
    db_h = np.zeros(n_hidden)
    da_next = np.zeros(n_hidden)
    for t in range(N - 1, -1, -1):
        dh = V * dy[t] + W.T @ da_next
        da = dh * (1.0 - H[t] * H[t]) if tanh else dh
        dU += np.outer(da, X[t])
        if t > 0:
            dW += np.outer(da, H[t - 1])
        db_h += da
        da_next = da
    return np.concatenate([dU.ravel(), dW.ravel(), H.T @ dy, db_h, [dy.sum()]])


def fd_gradient(f, theta, step=1e-6, richardson=False):
    """Central finite differences of a scalar function.

    With ``richardson=True`` the difference is evaluated at step and
    step/2 and extrapolated, canceling the O(step^2) truncation term;
    long recurrences have large enough third derivatives to need this.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)

    def central(i, h):
        plus = theta.copy()
        minus = theta.copy()
        plus[i] += h
        minus[i] -= h
        return (f(plus) - f(minus)) / (2.0 * h)

    for i in range(theta.size):
        if richardson:
            coarse = central(i, step)
            fine = central(i, step / 2.0)
            grad[i] = (4.0 * fine - coarse) / 3.0
        else:
            grad[i] = central(i, step)
    return grad


def fd_jacobian(f_vec, theta, step=1e-6, richardson=False):
    """Central finite differences of a vector function, column by column."""
    theta = np.asarray(theta, dtype=float)
    base = np.asarray(f_vec(theta), dtype=float)
    J = np.zeros((base.size, theta.size))

    def central(i, h):
        plus = theta.copy()
        minus = theta.copy()
        plus[i] += h
        minus[i] -= h
        return (np.asarray(f_vec(plus)) - np.asarray(f_vec(minus))) / (2.0 * h)

    for i in range(theta.size):
        if richardson:
            coarse = central(i, step)
            fine = central(i, step / 2.0)
            J[:, i] = (4.0 * fine - coarse) / 3.0
        else:
            J[:, i] = central(i, step)
    return J


def relative_error(approx, exact):
    """Per-coordinate relative error with a floor tied to the overall
    magnitude: coordinates below 1/1000 of the dominant entry are judged
    at that scale, since finite differences cannot resolve a meaningful
    relative error on near-zero values."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    floor = max(1e-3 * float(np.max(np.abs(exact), initial=0.0)), 1e-8)
    denom = np.maximum(np.maximum(np.abs(exact), np.abs(approx)), floor)
    return np.abs(approx - exact) / denom


def jacobi_eigh(matrix, sweeps=100):
    """Symmetric eigendecomposition by cyclic Jacobi rotations.

    Returns (eigenvalues descending, eigenvectors as columns).  Entirely
    independent of LAPACK: plain two-sided 2x2 rotations until the
    off-diagonal mass is negligible.
    """
    A = np.array(matrix, dtype=float, copy=True)
    n = A.shape[0]
    V = np.eye(n)
    scale = max(float(np.max(np.abs(A))), 1.0)
    for _ in range(sweeps):
        off = math.sqrt(sum(A[i, jj] ** 2
                            for i in range(n) for jj in range(n) if i != jj))
        if off <= 1e-14 * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= 1e-30:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = A[k, p], A[k, q]
                    A[k, p] = c * akp - s * akq
                    A[k, q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = A[p, k], A[q, k]
                    A[p, k] = c * apk - s * aqk
                    A[q, k] = s * apk + c * aqk
                for k in range(n):
                    vkp, vkq = V[k, p], V[k, q]
                    V[k, p] = c * vkp - s * vkq
                    V[k, q] = s * vkp + c * vkq
    eigvals = np.diag(A).copy()
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], V[:, order]


# ---------------------------------------------------------------------------
# Levenberg-Marquardt and Bayesian-regularized LM as two separate loops,
# kept as the reference for the shared damped Gauss-Newton core in
# ``aeroforecast.trainers``: same inputs, same records, same weights.
# They share only the per-epoch bookkeeping (``_EpochLog``) with it.
# Like the core, each logs an epoch before forming its Jacobian, and the
# last epoch of the budget is logged only: its step would not be returned.
# ---------------------------------------------------------------------------


def lm_least_squares(residual_fn, jacobian_fn, theta0, cfg: TrainConfig,
                     val_fn=None) -> tuple[np.ndarray, TrainRecord]:
    """Levenberg-Marquardt on 0.5-free SSE: solve (J'J + mu I) d = -J'e.

    A step is accepted only if it strictly decreases the SSE (mu shrinks);
    otherwise mu grows and the step is retried within the same epoch.
    """
    theta = np.array(theta0, dtype=float)
    mu = cfg.mu0
    log = _EpochLog(cfg.val_patience)
    rec = log.record
    started = time.perf_counter()
    while True:
        r = residual_fn(theta)
        if not np.all(np.isfinite(r)):
            raise FloatingPointError("non-finite residuals during LM training")
        sse = float(r @ r)
        if log.log(sse / len(r), theta, val_fn(theta) if val_fn else None):
            rec.stop_reason = "val_patience"
            break
        if rec.total_epochs >= cfg.max_epochs:
            break  # the last epoch takes no step
        J = jacobian_fn(theta)
        g = 2.0 * (J.T @ r)
        if np.linalg.norm(g) < cfg.grad_tol:
            rec.stop_reason = "converged"
            break
        A = J.T @ J
        eye = np.eye(A.shape[0])
        accepted = False
        while mu <= cfg.mu_max:
            try:
                delta = np.linalg.solve(A + mu * eye, -(J.T @ r))
            except np.linalg.LinAlgError:
                mu *= cfg.mu_inc
                continue
            trial = theta + delta
            r_trial = residual_fn(trial)
            sse_trial = float(r_trial @ r_trial)
            if np.isfinite(sse_trial) and sse_trial < sse:
                theta = trial
                mu = max(mu * cfg.mu_dec, 1e-300)
                rec.step_deltas.append(sse_trial - sse)
                accepted = True
                break
            mu *= cfg.mu_inc
        if not accepted:
            rec.stop_reason = "damping_overflow"  # no improving step
            rec.notes.append(f"mu exceeded mu_max={cfg.mu_max}")
            break
    rec.seconds = time.perf_counter() - started
    return rec.best_theta.copy(), rec


def br_least_squares(residual_fn, jacobian_fn, theta0, cfg: TrainConfig,
                     val_fn=None, n_samples=None) -> tuple[np.ndarray, TrainRecord]:
    """Bayesian-regularized LM: minimize F = beta*SSE + alpha*|theta|^2.

    Starts from (alpha, beta) = (0, 1); after every accepted step the
    evidence hyperparameters are re-estimated from the effective number
    of parameters gamma = P - 2 alpha tr(H^-1), H = 2 beta J'J + 2 alpha I,
    then alpha = gamma / (2 |theta|^2) and beta = (N - gamma) / (2 SSE),
    both floored at 1e-12 and gamma clamped into [0, P].
    """
    theta = np.array(theta0, dtype=float)
    n_params = theta.size
    alpha, beta = 0.0, 1.0
    mu = cfg.mu0
    patience = cfg.val_patience if cfg.br_val_stop else None
    log = _EpochLog(patience)
    rec = log.record
    reestimate = False
    started = time.perf_counter()
    while True:
        r = residual_fn(theta)
        if not np.all(np.isfinite(r)):
            raise FloatingPointError("non-finite residuals during BR training")
        sse = float(r @ r)
        if log.log(sse / len(r), theta, val_fn(theta) if val_fn else None):
            rec.stop_reason = "val_patience"
            break
        if rec.total_epochs >= cfg.max_epochs:
            break  # the last epoch takes no step
        J = jacobian_fn(theta)
        n = n_samples if n_samples is not None else len(r)
        A = J.T @ J
        eye = np.eye(n_params)
        if reestimate:
            alpha, beta, gamma = _evidence_update(
                A, eye, theta, sse, n, n_params, alpha, beta, mu, rec)
            reestimate = False
        grad = 2.0 * (beta * (J.T @ r) + alpha * theta)
        if np.linalg.norm(grad) < cfg.grad_tol:
            rec.stop_reason = "converged"
            break
        f_cur = beta * sse + alpha * float(theta @ theta)
        accepted = False
        while mu <= cfg.mu_max:
            try:
                delta = np.linalg.solve(beta * A + (alpha + mu) * eye,
                                        -(beta * (J.T @ r) + alpha * theta))
            except np.linalg.LinAlgError:
                mu *= cfg.mu_inc
                continue
            trial = theta + delta
            r_trial = residual_fn(trial)
            sse_trial = float(r_trial @ r_trial)
            f_trial = beta * sse_trial + alpha * float(trial @ trial)
            if np.isfinite(f_trial) and f_trial < f_cur:
                theta = trial
                mu = max(mu * cfg.mu_dec, 1e-300)
                rec.step_deltas.append(f_trial - f_cur)
                accepted = True
                reestimate = True
                break
            mu *= cfg.mu_inc
        if not accepted:
            rec.stop_reason = "damping_overflow"
            rec.notes.append(f"mu exceeded mu_max={cfg.mu_max}")
            break
    rec.seconds = time.perf_counter() - started
    return rec.best_theta.copy(), rec


def _evidence_update(A, eye, theta, sse, n, n_params, alpha, beta, mu, rec):
    """One MacKay evidence re-estimation; ill-conditioned H gets LM damping.
    At alpha = 0, gamma = P - 2 alpha tr(H^-1) is P and H is not inverted."""
    if alpha == 0.0:
        trace_inv = 0.0
    else:
        H = 2.0 * beta * A + 2.0 * alpha * eye
        try:
            trace_inv = float(np.trace(np.linalg.inv(H)))
        except np.linalg.LinAlgError:
            trace_inv = float(np.trace(np.linalg.inv(H + mu * eye)))
            rec.notes.append("damped ill-conditioned Hessian in evidence update")
    gamma = n_params - 2.0 * alpha * trace_inv
    if gamma < 0.0 or gamma > n_params:
        rec.notes.append(f"gamma {gamma:.6g} clamped into [0, {n_params}]")
        gamma = min(max(gamma, 0.0), float(n_params))
    rec.gammas.append(gamma)
    weight_norm = float(theta @ theta)
    alpha = max(gamma / (2.0 * max(weight_norm, 1e-300)), 1e-12)
    beta = max((n - gamma) / (2.0 * max(sse, 1e-300)), 1e-12)
    return alpha, beta, gamma


# ---------------------------------------------------------------------------
# The recurrent kernels and SCG as they were before every repeat of a
# cell trained in lockstep: one parameter set per call, one time loop per
# call.  ``train_alone`` trains one repeat through them and the loops
# above, the reference for ``trainers.train_repeats``: same records, same
# weights, same errors.
# ---------------------------------------------------------------------------

_ACT = {"tanh": np.tanh, "identity": lambda x: x}
_DERIV = {"tanh": lambda v: 1.0 - v * v, "identity": lambda v: np.ones_like(v)}


def forward_states(model, dataset):
    """Hidden states (N x h) and predictions (N,) of one parameter set."""
    if dataset.inputs.shape[1] != model.n_input:
        raise ValueError(
            f"dataset has {dataset.inputs.shape[1]} features, model wants {model.n_input}")
    f_h = _ACT[model.hidden_activation]
    N = dataset.inputs.shape[0]
    pre = dataset.inputs @ model.U.T + model.b_h
    H = np.empty((N, model.n_hidden))
    h = np.zeros(model.n_hidden)
    for t in range(N):
        h = f_h(pre[t] + model.W @ h)
        H[t] = h
    preds = H @ model.V + model.b_y
    bad = ~np.isfinite(preds)
    if bad.any():
        t = int(np.argmax(bad | ~np.isfinite(H).all(axis=1)))
        raise FloatingPointError(f"non-finite network state at time index {t}")
    return H, preds


def gradient_sse(model, dataset, index_subset=None, states=None):
    """Subset-SSE gradient by BPTT; weight sums formed after the loop in
    the order the recursion produced their terms."""
    H, preds = forward_states(model, dataset) if states is None else states
    N, h = H.shape
    dy = np.zeros(N)
    idx = np.arange(N) if index_subset is None else np.asarray(index_subset)
    dy[idx] = 2.0 * (preds[idx] - dataset.targets[idx])
    D = _DERIV[model.hidden_activation](H)
    direct = np.outer(dy, model.V)
    DA = np.empty((N, h))
    WT = model.W.T
    da = np.zeros(h)
    for t in range(N - 1, -1, -1):
        da = np.multiply(direct[t] + WT @ da, D[t], out=DA[t])
    back = DA[::-1]
    dU = _sum_in_order(back[:, :, None] * dataset.inputs[::-1, None, :])
    dW = _sum_in_order(back[:-1, :, None] * H[-2::-1, None, :])
    dV = H.T @ dy
    return np.concatenate([dU.ravel(), dW.ravel(), dV, _sum_in_order(back),
                           [dy.sum()]])


def _sum_in_order(terms):
    if len(terms) == 0:
        return np.zeros(terms.shape[1:])
    return np.cumsum(terms, axis=0)[-1]


def prediction_jacobian(model, dataset, index_subset=None, states=None):
    """Rows d pred_i / d theta by forward sensitivity propagation, the
    loop carrying the pre-activation sensitivity in neuron-major columns."""
    H, _ = forward_states(model, dataset) if states is None else states
    N, h = H.shape
    j = model.n_input
    m = j + h + 1
    hm = h * m
    JS = np.empty((N, hm + h + 1))
    D = _DERIV[model.hidden_activation](H)
    R = np.empty((N, m))
    R[:, :j] = dataset.inputs
    R[0, j:j + h] = 0.0
    R[1:, j:j + h] = H[:-1]
    R[:, -1] = 1.0
    WD = np.empty((N, h, h))
    WD[0] = 0.0
    np.multiply(model.W, D[:-1, None, :], out=WD[1:])
    VD = model.V * D
    G_prev, G = np.zeros((h, hm)), np.empty((h, hm))
    blocks_prev, blocks = (np.lib.stride_tricks.as_strided(
        buf, shape=(h, m), strides=((hm + m) * buf.itemsize, buf.itemsize))
        for buf in (G_prev, G))
    for t in range(N):
        np.dot(WD[t], G_prev, out=G)
        blocks += R[t]
        np.dot(VD[t], G, out=JS[t, :hm])
        G_prev, G = G, G_prev
        blocks_prev, blocks = blocks, blocks_prev
    JS[:, hm:hm + h] = H
    JS[:, -1] = 1.0
    neuron = np.arange(h)[:, None]
    column = np.concatenate([(neuron * m + np.arange(j)).ravel(),
                             (neuron * m + j + np.arange(h)).ravel(),
                             hm + np.arange(h),
                             np.arange(h) * m + j + h,
                             [hm + h]])
    rows = np.arange(N) if index_subset is None else np.asarray(index_subset)
    return JS[np.ix_(rows, column)]


def scg_minimize(objective_fn, gradient_fn, theta0, cfg: TrainConfig,
                 val_fn=None) -> tuple[np.ndarray, TrainRecord]:
    """Moller's scaled conjugate gradient as one loop over callables; the
    last epoch of the budget takes no step."""
    theta = np.array(theta0, dtype=float)
    n_params = theta.size
    lam = cfg.scg_lambda0
    lam_bar = 0.0
    r = -gradient_fn(theta)
    p = r.copy()
    success = True
    f_cur = float(objective_fn(theta))
    delta = p_norm2 = 1.0
    k = 0
    log = _EpochLog(cfg.val_patience)
    rec = log.record
    started = time.perf_counter()
    while True:
        if log.log(f_cur, theta, val_fn(theta) if val_fn else None):
            rec.stop_reason = "val_patience"
            break
        if np.linalg.norm(r) < cfg.grad_tol:
            rec.stop_reason = "converged"
            break
        if lam > 1e20:
            rec.stop_reason = "damping_overflow"
            rec.notes.append("lambda overflow; no improving step found")
            break
        if rec.total_epochs >= cfg.max_epochs:
            break  # the last epoch takes no step
        if success:
            p_norm2 = float(p @ p)
            if p_norm2 == 0.0:
                rec.stop_reason = "converged"
                break
            sigma_k = cfg.scg_sigma / math.sqrt(p_norm2)
            s = (gradient_fn(theta + sigma_k * p) - (-r)) / sigma_k
            delta = float(p @ s)
        delta += (lam - lam_bar) * p_norm2
        if delta <= 0.0:
            lam_bar = 2.0 * (lam - delta / p_norm2)
            delta = -delta + lam * p_norm2
            lam = lam_bar
        mu_k = float(p @ r)
        alpha_k = mu_k / delta
        f_trial = float(objective_fn(theta + alpha_k * p))
        comparison = 2.0 * delta * (f_cur - f_trial) / (mu_k * mu_k)
        if not np.isfinite(comparison):
            comparison = -1.0
        if comparison >= 0.0:
            theta = theta + alpha_k * p
            rec.step_deltas.append(f_trial - f_cur)
            f_cur = f_trial
            r_new = -gradient_fn(theta)
            lam_bar = 0.0
            success = True
            k += 1
            if k % n_params == 0:
                p = r_new.copy()
            else:
                beta_k = (float(r_new @ r_new) - float(r_new @ r)) / mu_k
                p = r_new + beta_k * p
            r = r_new
            if comparison >= 0.75:
                lam *= 0.25
        else:
            lam_bar = lam
            success = False
        if comparison < 0.25:
            lam += delta * (1.0 - comparison) / p_norm2
    rec.seconds = time.perf_counter() - started
    return rec.best_theta.copy(), rec


class LoopObjective:
    """Residuals, MSEs, Jacobian and gradient of one repeat from the loops
    above, each call evaluating afresh."""

    def __init__(self, model, data, train_idx, val_idx):
        self.model, self.data = model, data
        self.train_idx = np.asarray(train_idx, dtype=int)
        self.val_idx = np.asarray(val_idx, dtype=int)
        self.val_fn = self.val_mse if len(self.val_idx) else None

    def states(self, theta):
        return forward_states(self.model.with_params(theta), self.data)

    def residuals(self, theta):
        try:
            preds = self.states(theta)[1]
        except FloatingPointError:
            return np.full(len(self.train_idx), np.inf)
        return preds[self.train_idx] - self.data.targets[self.train_idx]

    def train_mse(self, theta):
        r = self.residuals(theta)
        return float(r @ r / r.size)

    def val_mse(self, theta):
        preds = self.states(theta)[1]
        diff = preds[self.val_idx] - self.data.targets[self.val_idx]
        return float(diff @ diff / diff.size)

    def jacobian(self, theta):
        return prediction_jacobian(self.model.with_params(theta), self.data,
                                   self.train_idx, states=self.states(theta))

    def gradient(self, theta):
        return gradient_sse(self.model.with_params(theta), self.data, self.train_idx,
                            states=self.states(theta)) / len(self.train_idx)


def train_alone(model, data, train_idx, val_idx, cfg: TrainConfig):
    """One repeat trained on its own: (trained model, record), or the
    exception the training raised."""
    obj = LoopObjective(model, data, train_idx, val_idx)
    theta0 = model.params_to_vector()
    try:
        if cfg.algorithm == "scg":
            theta, rec = scg_minimize(obj.train_mse, obj.gradient, theta0, cfg, obj.val_fn)
        elif cfg.algorithm == "lm":
            theta, rec = lm_least_squares(obj.residuals, obj.jacobian, theta0, cfg,
                                          obj.val_fn)
        else:
            theta, rec = br_least_squares(obj.residuals, obj.jacobian, theta0, cfg,
                                          obj.val_fn, n_samples=len(obj.train_idx))
    except Exception as exc:  # noqa: BLE001 - compared with the engine's outcome
        return exc
    return model.with_params(theta), rec


# ---------------------------------------------------------------------------
# Report writers as each module wrote them before they shared
# ``market_data.write_csv``, kept as the reference for byte-identical
# output.  The three CLI files were written inline by the commands; their
# statements are wrapped in functions here.
# ---------------------------------------------------------------------------


def write_csv(path, header, rows) -> None:
    """``market_data.write_csv`` before it joined rows itself: every row
    through :func:`csv.writer`, with NaN mapped to an empty field."""
    def field(value):
        return "" if isinstance(value, (float, np.floating)) and value != value else value

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(field, row) for row in rows)


def write_prices(path, bars) -> None:
    """Inverse of :func:`load_prices`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PRICE_COLUMNS)
        for b in bars:
            writer.writerow(
                [b.date.isoformat(), repr(b.open), repr(b.high), repr(b.low),
                 repr(b.close), repr(b.volume)]
            )


def write_fundamentals(path, reports) -> None:
    """Inverse of :func:`load_fundamentals` (statement-field reports)."""
    names = sorted({name for r in reports for name in r.values})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["quarter_end"] + names)
        for r in reports:
            row = [r.quarter_end.isoformat()]
            row += ["" if name not in r.values else repr(float(r.values[name]))
                    for name in names]
            writer.writerow(row)


def write_technical_csv(path, dates, matrix) -> None:
    """Dump the technical matrix; missing values become empty fields."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("date",) + TECHNICAL_COLUMNS)
        for i, date in enumerate(dates):
            row = [date.isoformat()]
            row += ["" if np.isnan(v) else repr(float(v)) for v in matrix[i]]
            writer.writerow(row)


def write_daily_fundamentals(path, dates, matrix):
    import csv as _csv
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(("date",) + RATIO_NAMES)
        for i, date in enumerate(dates):
            row = [date.isoformat()]
            row += ["" if math.isnan(v) else repr(float(v)) for v in matrix[i]]
            writer.writerow(row)


def write_deleted_rows(path, deleted):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date\n")
        for d in deleted:
            fh.write(d.isoformat() + "\n")


def write_alignment_summary(path, label, bars, aligned, deleted):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("company,input_days,aligned_rows,feature_columns,deleted_rows\n")
        fh.write(f"{label},{len(bars)},{len(aligned.dates)},"
                 f"{len(aligned.feature_names)},{len(deleted)}\n")


def write_training_curve(path, rec):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_mse,val_mse\n")
        for e, (tm, vm) in enumerate(zip(rec.train_mse, rec.val_mse), start=1):
            fh.write(f"{e},{tm!r},{vm!r}\n")


def write_pca_report(path, model: PcaModel) -> None:
    """``pca_report.csv``: component, individual, cumulative_pct."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["component", "individual", "cumulative_pct"])
        for component, individual, cumulative in explained_variance_rows(model):
            writer.writerow([component, repr(individual), cumulative])


def write_pca_scatter(path, projected) -> None:
    """``pca_scatter.csv``: one row of projected coordinates per sample."""
    projected = np.asarray(projected, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"pc{i + 1}" for i in range(projected.shape[1])])
        for row in projected:
            writer.writerow([repr(float(v)) for v in row])


def write_grid_results(path, report: GridReport) -> None:
    """``grid_results.csv``: one row per cell, spec fields then averages."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(GRID_RESULT_COLUMNS)
        for res in report.results:
            s = res.spec
            writer.writerow([
                s.company_label, s.algorithm, s.feature_set, s.n_hidden,
                s.delay, s.pca_k, s.repeats, s.base_seed,
                repr(res.avg_total_epochs), repr(res.avg_best_epochs),
                repr(res.avg_test_mse), repr(res.avg_runtime_seconds),
            ])


def write_marginals(out_dir, report: GridReport) -> list:
    """``marginals_<dimension>.csv`` per grouping dimension."""
    paths = []
    for dim in MARGINAL_DIMENSIONS:
        path = f"{out_dir}/marginals_{dim}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["company", dim, "avg_total_epochs",
                             "avg_best_epochs", "avg_test_mse",
                             "avg_runtime_seconds"])
            for row in report.marginal(dim):
                writer.writerow([row[0], row[1], repr(row[2]), repr(row[3]),
                                 repr(row[4]), repr(row[5])])
        paths.append(path)
    return paths


def write_predictions(path, rows) -> None:
    """``predictions_<cell>.csv``: date,target,prediction,error rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "target", "prediction", "error"])
        for date, target, pred, err in rows:
            writer.writerow([date.isoformat(), repr(float(target)),
                             repr(float(pred)), repr(float(err))])
