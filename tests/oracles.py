"""Independent brute-force oracles used to verify the library.

Everything here is deliberately written as plain Python loops that
recompute each value from scratch (windows rescanned per day, recursions
step by step), sharing no code path with the vectorized implementations
under test.  NaN marks undefined positions, matching the library's
missing-value convention.
"""

from __future__ import annotations

import math

import numpy as np

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
