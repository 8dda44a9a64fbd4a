"""Target-delayed recurrent network: forward evaluation and exact
derivatives.

The network is a single-hidden-layer recurrent net with shared weights:

    h_t = f_h(U x_t + W h_{t-1} + b_h),   h_{-1} = 0
    y_t = V . h_t + b_y

with a linear output, where the training label for step t is the close
price ``tau`` trading days later.  Gradients are exact (full, untruncated
backpropagation through time); the per-sample Jacobian is computed by
forward sensitivity propagation, which yields the same exact values
through an independent recursion and so cross-checks the reverse-mode
gradient.

A model stores the parameter vector ``theta`` that the trainers work on;
U, W, V, b_h and b_y are views of it, and ``_views`` holds the offsets of
its layout: U row-major, then W row-major, then V, then b_h, then b_y.

Stacked parameters: a model whose ``theta`` is (R, P) holds R parameter
sets, with views U (R, h, j), ..., b_y (R,).  ``forward_states``,
``gradient_sse``, ``prediction_jacobian`` and ``jacobian_products`` step
all R sets through one time loop, and one set is the R = 1 case.  Inputs
are shared ((N, j), (N,)) or per set ((R, N, j), (R, N)), a row subset
shared (n,) or per set (R, n).  Every product is the same BLAS call on
the same operands as for one set and every sum keeps its order, so each
set gets the bytes it would get alone, for a fraction of the per-step
cost.  The stacked forward and backward loops work on contiguous
time-major (N, R, h) copies of their buffers, so that each step's
product, add and activation run on adjacent rows rather than on views
whose rows lie N*h apart; one set keeps its loops of 2-D ``np.dot``
calls, the cheapest per step.

``forward_states`` returns the hidden states with the predictions, and
the derivative routines accept that pair as ``states`` instead of
running the forward pass again.  The gradient's weight sums are formed
after its backward loop.  The Jacobian rows come from a forward
sensitivity loop a chunk of time steps at a time, so its work arrays
are bounded: ``prediction_jacobian`` copies them into J, and
``jacobian_products`` adds them up into J'J and J'e without holding J.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

_ACTIVATIONS = {
    "tanh": np.tanh,
    "identity": np.positive,  # a copy with the same bits, so ``out=`` works
}
# Derivative expressed through the activation *value* (works for both).
_DERIV_FROM_VALUE = {
    "tanh": lambda v: 1.0 - v * v,
    "identity": lambda v: np.ones_like(v),
}
_SUM_CHUNK = 64  # steps of outer products in memory at once for the gradient sums
_CHUNK_BYTES = 1 << 18  # Jacobian rows of all sets in memory at once while J is formed
_PRODUCT_STEPS = 128  # time steps per chunk of J'J and J'e: a constant, so no set's sums depend on R
_NAMES = ("U", "W", "V", "b_h", "b_y")  # the arrays of the parameter layout, in order


def _n_params(n_hidden: int, n_input: int) -> int:
    return n_hidden * n_input + n_hidden * n_hidden + n_hidden + n_hidden + 1


def _views(array: np.ndarray, n_hidden: int, n_input: int) -> tuple:
    """U, W, V, b_h and b_y as views of the (..., P) ``array``, with its
    leading axes: the one place that knows the layout's offsets."""
    h, j = n_hidden, n_input
    lead = array.shape[:-1]
    v = h * j + h * h  # V's offset, after U and W
    return (array[..., :h * j].reshape(lead + (h, j)), array[..., h * j:v].reshape(lead + (h, h)),
            array[..., v:v + h], array[..., v + h:v + 2 * h], array[..., v + 2 * h])


@dataclass(frozen=True)
class RnnModel:
    n_input: int
    n_hidden: int
    delay_tau: int
    theta: np.ndarray  # (P,), or (R, P) when stacked: the only copy of the weights
    hidden_activation: str = "tanh"

    def __post_init__(self):
        if self.delay_tau < 1:
            raise ValueError(f"delay_tau must be >= 1, got {self.delay_tau}")
        if self.hidden_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.hidden_activation!r}")
        if self.theta.ndim not in (1, 2) or self.theta.shape[-1] != self.n_params:
            raise ValueError(f"parameter vector has shape {self.theta.shape}, "
                             f"want ({self.n_params},) or (R, {self.n_params})")
        if not np.isfinite(self.theta).all():
            raise ValueError("parameter vector contains non-finite entries")

    @classmethod
    def from_arrays(cls, n_input: int, n_hidden: int, delay_tau: int, U, W, V, b_h, b_y,
                    hidden_activation: str = "tanh") -> "RnnModel":
        """The model with copies of U, W, V, b_h and b_y (a leading R on each
        for R sets) as weights; an array of the wrong shape raises ValueError."""
        theta = np.empty(np.shape(b_y) + (_n_params(n_hidden, n_input),))
        for name, view, part in zip(_NAMES, _views(theta, n_hidden, n_input), (U, W, V, b_h, b_y)):
            if np.shape(part) != view.shape:
                raise ValueError(f"{name} has shape {np.shape(part)}, want {view.shape}")
            view[...] = part
        return cls(n_input, n_hidden, delay_tau, theta, hidden_activation)

    @property
    def n_params(self) -> int:
        """Parameters of one set: P."""
        return _n_params(self.n_hidden, self.n_input)

    @property
    def stacked(self) -> bool:
        return self.theta.ndim == 2

    @property
    def weights(self) -> tuple:
        """U, W, V, b_h and b_y, views of ``theta``; b_y is a float for one set."""
        U, W, V, b_h, b_y = _views(self.theta, self.n_hidden, self.n_input)
        return U, W, V, b_h, (b_y if self.stacked else float(b_y))

    U = property(lambda self: self.weights[0])
    W = property(lambda self: self.weights[1])
    V = property(lambda self: self.weights[2])
    b_h = property(lambda self: self.weights[3])
    b_y = property(lambda self: self.weights[4])

    def params_to_vector(self) -> np.ndarray:
        """(P,), or (R, P) when stacked."""
        return self.theta.copy()

    def with_params(self, theta: np.ndarray) -> "RnnModel":
        """This model with a copy of ``theta`` as its parameters: one (P,)
        vector, or an (R, P) stack of them for a stacked model."""
        return dataclasses.replace(self, theta=np.array(theta, dtype=float))


def init_rnn(n_input: int, n_hidden: int, delay_tau: int, seed: int,
             hidden_activation: str = "tanh") -> RnnModel:
    """Seeded initial model: weights uniform in [-0.5, 0.5]/sqrt(fan-in),
    biases zero."""
    rng = np.random.default_rng(seed)

    def draw(shape, fan_in):
        return rng.uniform(-0.5, 0.5, size=shape) / np.sqrt(fan_in)

    return RnnModel.from_arrays(
        n_input=n_input,
        n_hidden=n_hidden,
        delay_tau=delay_tau,
        U=draw((n_hidden, n_input), n_input),
        W=draw((n_hidden, n_hidden), n_hidden),
        V=draw(n_hidden, n_hidden),
        b_h=np.zeros(n_hidden),
        b_y=0.0,
        hidden_activation=hidden_activation,
    )


@dataclass(frozen=True)
class SequenceDataset:
    """Time-ordered supervised pairs: row t of ``inputs`` is labelled by
    the close price ``tau`` steps after it (one sequence per set when stacked)."""

    inputs: np.ndarray  # (n_pairs, n_input), or (R, n_pairs, n_input)
    targets: np.ndarray  # (n_pairs,), or (R, n_pairs)

    def __post_init__(self):
        if self.inputs.ndim not in (2, 3):
            raise ValueError("inputs must be 2-D, or 3-D when stacked")
        if self.targets.shape != self.inputs.shape[:-1]:
            raise ValueError("targets length must match inputs rows")

    def __len__(self) -> int:
        return self.inputs.shape[-2]


def build_supervised(features, target, tau: int = 1) -> SequenceDataset:
    """Pair row t of the ``features`` matrix with the ``target`` value
    tau rows later.  A series of length T yields exactly T - tau pairs.

    tau counts aligned samples, not trading days, as in the paper: where
    cleaning deleted a mid-series day, a label lies tau + 1 trading days
    ahead of its features (tau + k across k deleted days).
    """
    matrix = np.asarray(features, dtype=float)
    series = np.asarray(target, dtype=float)
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    T = matrix.shape[0]
    if tau >= T:
        raise ValueError(f"tau={tau} leaves no pairs for a series of length {T}")
    return SequenceDataset(inputs=matrix[:T - tau].copy(), targets=series[tau:].copy())


def _rows(index_subset, R: int, N: int) -> np.ndarray:
    """Row indices as an (R, n) array: all rows, or one subset (shared or per set)."""
    idx = np.arange(N) if index_subset is None else np.asarray(index_subset)
    return np.broadcast_to(idx, (R, idx.shape[-1]))


def state_error(H: np.ndarray, preds: np.ndarray) -> FloatingPointError | None:
    """The error for one parameter set's states, or None when finite."""
    bad = ~np.isfinite(preds)
    if not bad.any():
        return None
    t = int(np.argmax(bad | ~np.isfinite(H).all(axis=1)))
    return FloatingPointError(f"non-finite network state at time index {t}")


def forward_states(model: RnnModel, dataset: SequenceDataset, check: bool = True):
    """Hidden states ``H`` (N x h) and predictions (N,) over the full
    sequence, recursing h from h0 = 0; (R, N, h) and (R, N) when stacked.

    The pair is what both derivative routines consume; a caller that
    already holds it for the same model and dataset passes it as
    ``states`` instead of paying for another forward pass.  A non-finite
    prediction raises FloatingPointError; with ``check=False`` the caller
    takes each set's verdict from :func:`state_error` instead, so that
    one diverging set does not fail the others.
    """
    if dataset.inputs.shape[-1] != model.n_input:
        raise ValueError(
            f"dataset has {dataset.inputs.shape[-1]} features, model wants {model.n_input}"
        )
    f_h = _ACTIVATIONS[model.hidden_activation]
    U, W, V, b_h, b_y = _views(np.atleast_2d(model.theta), model.n_hidden, model.n_input)
    R, N, h = U.shape[0], len(dataset), model.n_hidden
    pre = np.matmul(dataset.inputs, U.transpose(0, 2, 1))  # (R, N, h)
    pre += b_h[:, None, :]
    # Step t turns row t of A from its pre-activation into h_t in place.
    if R == 1:  # np.dot on 2-D operands costs less per call than a batched matmul
        product, W, A, h_prev = np.dot, W[0], pre[0], np.zeros(h)
    else:  # a contiguous time-major copy: each step's rows are adjacent, not N*h apart
        product, h_prev = np.matmul, np.zeros((R, h, 1))
        A, pre = np.ascontiguousarray(pre.transpose(1, 0, 2))[..., None], None
    scratch = np.empty_like(h_prev)
    for a in A:
        product(W, h_prev, out=scratch)
        np.add(scratch, a, out=a)
        h_prev = f_h(a, out=a)
    # The output product sees a C-contiguous (R, N, h) H, whose layout its rounding may depend on.
    H = pre if R == 1 else np.ascontiguousarray(A[..., 0].transpose(1, 0, 2))
    del A
    preds = np.matmul(H, V[:, :, None])[..., 0] + b_y[:, None]
    if check:
        for error in map(state_error, H, preds):
            if error is not None:
                raise error
    return (H, preds) if model.stacked else (H[0], preds[0])


def forward(model: RnnModel, dataset: SequenceDataset) -> np.ndarray:
    """Predictions over the full sequence, recursing h from h0 = 0."""
    return forward_states(model, dataset)[1]


def loss_mse(predictions, targets) -> float:
    """Mean squared error (1/N) sum (pred - target)^2."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ValueError(f"length mismatch: {predictions.shape} vs {targets.shape}")
    if predictions.size == 0:
        raise ValueError("empty prediction vector")
    diff = predictions - targets
    return float(diff @ diff / diff.size)


def gradient_sse(model: RnnModel, dataset: SequenceDataset, index_subset=None,
                 states=None) -> np.ndarray:
    """Exact gradient of sum_{i in subset} (pred_i - target_i)^2.

    Reverse-mode backpropagation through time over the whole sequence;
    errors outside the subset contribute nothing.  The backward loop
    carries only da_t = (dy_t V + W' da_{t+1}) * f_h'(a_t) and stores it;
    the weight gradients dU = sum_t da_t x_t', dW = sum_{t>0} da_t h_{t-1}'
    and db_h = sum_t da_t are then formed for all t at once, each sum
    added in the order the recursion produced its terms.  Both loop
    arrays are time-major (N, R, h) and contiguous, one row per step
    (2-D rows and ``np.dot`` for one set).  ``states`` is
    ``forward_states(model, dataset)`` when the caller has it.
    Returns a vector in the documented parameter layout, (R, P) when
    stacked.
    """
    H, preds = forward_states(model, dataset) if states is None else states
    _, W, V, _, _ = _views(np.atleast_2d(model.theta), model.n_hidden, model.n_input)
    H, preds = (H, preds) if model.stacked else (H[None], preds[None])
    R, N, h = H.shape
    j = model.n_input
    targets = np.broadcast_to(dataset.targets, (R, N))
    X = dataset.inputs if dataset.inputs.ndim == 3 else dataset.inputs[None]
    sets = np.arange(R)[:, None]
    idx = _rows(index_subset, R, N)
    dy = np.zeros((R, N))
    dy[sets, idx] = 2.0 * (preds[sets, idx] - targets[sets, idx])

    # DA, time-major (N, R, h), holds f_h'(a_t) until step t overwrites it with da_t.
    DA = _DERIV_FROM_VALUE[model.hidden_activation](np.ascontiguousarray(H.transpose(1, 0, 2)))
    direct = np.multiply(dy.T[:, :, None], V, out=np.empty_like(DA))  # dy_t V, the pull on h_t
    if R == 1:
        product, WT, steps, pulls, da = np.dot, W[0].T, DA[:, 0], direct[:, 0], np.zeros(h)
    else:  # W' itself, not a contiguous copy: a copy would switch the product's BLAS kernel
        product, WT, da = np.matmul, W.transpose(0, 2, 1), np.zeros((R, h, 1))
        steps, pulls = DA[..., None], direct[..., None]
    pulled = np.empty_like(da)
    for pull, step in zip(pulls[::-1], steps[::-1]):
        product(WT, da, out=pulled)
        pulled += pull
        da = np.multiply(pulled, step, out=step)
    back = DA[::-1]  # t = N-1, ..., 0: the order the recursion produced them
    X1 = np.empty(X.shape[:-1] + (j + 1,))  # [x_t, 1]: dU and db_h from one sum
    X1[..., :j] = X
    X1[..., j] = 1.0
    dUb = _outer_sum_in_order(back, X1.transpose(1, 0, 2)[::-1])
    dW = _outer_sum_in_order(back[:-1], H.transpose(1, 0, 2)[-2::-1])
    dV = np.matmul(H.transpose(0, 2, 1), dy[:, :, None])[..., 0]
    grad = np.empty((R, model.n_params))
    for view, part in zip(_views(grad, h, j), (dUb[..., :j], dW, dV, dUb[..., j], dy.sum(axis=1))):
        view[...] = part
    return grad if model.stacked else grad[0]


def _outer_sum_in_order(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0] (x) b[0] + a[1] (x) b[1] + ... for (T, R, h) ``a`` and
    (T, R or 1, m) ``b``, added one after another as the recursion made
    them: ``sum`` or a matrix product would regroup the terms, and SCG's
    finite-difference curvature magnifies such last-digit changes into
    different training runs.  One in-place add per step is faster than
    ``cumsum``; the products are formed ``_SUM_CHUNK`` steps at a time."""
    total = None
    for s in range(0, len(a), _SUM_CHUNK):
        for term in a[s:s + _SUM_CHUNK, :, :, None] * b[s:s + _SUM_CHUNK, :, None, :]:
            if total is None:
                total = term.copy()
            else:
                total += term
    if total is None:
        return np.zeros(a.shape[1:] + b.shape[-1:])
    return total


def prediction_jacobian(model: RnnModel, dataset: SequenceDataset,
                        index_subset=None, states=None):
    """Rows d e_i / d theta = d pred_i / d theta for i in the subset: an
    (n, P) array for one parameter set, and for a stack a list of R such
    arrays, each its own allocation, so that a caller can free them one
    at a time.

    The rows come from :func:`_sensitivity_rows`, an independent
    recursion from the reverse-mode gradient, so 2 J^T e == gradient_sse
    serves as a consistency check.  They are formed as many time steps
    at a time as ``_CHUNK_BYTES`` holds for all sets; the chunk length
    changes no byte of J.  ``states`` is ``forward_states(model, dataset)``
    when the caller has it.
    """
    H = (forward_states(model, dataset) if states is None else states)[0]
    H = H if model.stacked else H[None]
    R, N, _ = H.shape
    rows = _rows(index_subset, R, N)
    J = [np.empty((rows.shape[1], model.n_params)) for _ in range(R)]
    column = _layout_columns(model.n_hidden, model.n_input)
    steps = max(1, _CHUNK_BYTES // (8 * R * model.n_params))
    for s, JS in _sensitivity_rows(model, dataset.inputs, H, steps):
        for J_r, rows_r, JS_r in zip(J, rows, JS):
            at = np.flatnonzero((rows_r >= s) & (rows_r < s + len(JS_r)))
            J_r[at] = JS_r[rows_r[at] - s].take(column, axis=1)
    return J if model.stacked else J[0]


def jacobian_products(model: RnnModel, dataset: SequenceDataset,
                      index_subset=None, states=None):
    """J'J and J'e of the residuals e_i = pred_i - target_i, i in the
    subset, without forming J: (P, P) and (P,) for one parameter set,
    (R, P, P) and (R, P) for a stack.

    Both are summed over chunks of ``_PRODUCT_STEPS`` time steps in time
    order; a chunk adds Jc'Jc and Jc'ec, Jc holding the rows of its steps
    in subset order.  The chunk length is a constant, so each set gets
    the bytes it gets alone, and a subset that lies within one chunk
    gets ``J.T @ J`` and ``J.T @ e`` of :func:`prediction_jacobian`'s J.
    """
    H, preds = forward_states(model, dataset) if states is None else states
    H, preds = (H, preds) if model.stacked else (H[None], preds[None])
    R, N, _ = H.shape
    sets, rows = np.arange(R)[:, None], _rows(index_subset, R, N)
    e = preds[sets, rows] - np.broadcast_to(dataset.targets, (R, N))[sets, rows]
    first = rows.min(axis=1, initial=N) // _PRODUCT_STEPS * _PRODUCT_STEPS  # each set's first chunk
    JJ, Je = np.zeros((R, model.n_params, model.n_params)), np.zeros((R, model.n_params))
    column = _layout_columns(model.n_hidden, model.n_input)
    for s, JS in _sensitivity_rows(model, dataset.inputs, H, _PRODUCT_STEPS):
        for r, (rows_r, JS_r) in enumerate(zip(rows, JS)):
            at = np.flatnonzero((rows_r >= s) & (rows_r < s + len(JS_r)))
            if len(at) == 0:
                continue
            Jc = JS_r[rows_r[at] - s].take(column, axis=1)  # C-ordered, as the sums need
            if s == first[r]:
                JJ[r], Je[r] = Jc.T @ Jc, Jc.T @ e[r, at]
            else:
                JJ[r] += Jc.T @ Jc
                Je[r] += Jc.T @ e[r, at]
    return (JJ, Je) if model.stacked else (JJ[0], Je[0])


def _layout_columns(h: int, j: int) -> np.ndarray:
    """The column of :func:`_sensitivity_rows`' chunks that holds each
    parameter of the documented layout."""
    hm = h * (j + h + 1)
    blocks = np.arange(hm).reshape(h, -1)  # neuron i's columns [U_i, W_i, b_h,i]
    column = np.empty(_n_params(h, j), dtype=int)
    for view, part in zip(_views(column, h, j), (blocks[:, :j], blocks[:, j:-1],
                                                 hm + np.arange(h), blocks[:, -1], hm + h)):
        view[...] = part
    return column


def _sensitivity_rows(model: RnnModel, X: np.ndarray, H: np.ndarray, steps: int):
    """Yield ``(s, JS)`` for s = 0, steps, 2 steps, ...: JS (R, n, P)
    holds every set's rows d pred_t / d theta for the n <= ``steps`` time
    steps from s, in neuron-major column order.  The chunks share one
    buffer, so each is used before the next is asked for.

    Exact forward sensitivity propagation: S_t = D_t (B_t + W S_{t-1})
    where S_t = dh_t/dtheta and B_t holds the direct dependence of the
    pre-activation on U, W, and b_h.  The loop carries G_t = B_t + W S_{t-1},
    the sensitivity of the pre-activation, so that S_t = D_t G_t never
    has to be formed: G_t = B_t + (W D_{t-1}) G_{t-1} and the row is
    (V D_t) G_t.  G covers only U, W and b_h (h_t does not depend on V or
    b_y), in neuron-major column order: neuron i owns the m = j + h + 1
    adjacent columns [U_i, W_i, b_h,i], so B_t is block diagonal with the
    row r_t = [x_t, h_{t-1}, 1] in every block and is added through one
    strided view per step.  The last h + 1 columns hold h_t and 1, the
    rows' V and b_y entries.
    """
    R, N, h = H.shape
    j = model.n_input
    m = j + h + 1
    hm = h * m
    deriv = _DERIV_FROM_VALUE[model.hidden_activation]
    _, W, V, _, _ = _views(np.atleast_2d(model.theta), h, j)
    X = np.broadcast_to(X, (R, N, j))
    # Work arrays of one chunk.  Row 0 of B's h_{t-1} part and of WD is
    # zero for t = 0 (h_{-1} = 0, G_{-1} = 0) and is written for later chunks.
    JS = np.empty((R, min(steps, N), hm + h + 1))
    JS[..., -1] = 1.0
    B = np.zeros((R, min(steps, N), m))  # r_t = [x_t, h_{t-1}, 1]
    B[..., -1] = 1.0
    WD = np.zeros((R, min(steps, N), h, h))  # W D_{t-1}, formed a chunk at a time
    # Two buffers take turns as G_{t-1} and G_t; entry [i, i*m + c] of
    # each is block i's diagonal entry c.
    G_prev, G = np.zeros((R, h, hm)), np.empty((R, h, hm))
    blocks_prev, blocks = (np.lib.stride_tricks.as_strided(
        buf, shape=(R, h, m), strides=(h * hm * buf.itemsize, (hm + m) * buf.itemsize,
                                        buf.itemsize)) for buf in (G_prev, G))
    product, wd = np.matmul, WD.swapaxes(0, 1)
    if R == 1:  # np.dot on 2-D operands costs less per call than a batched matmul
        product, wd, G_prev, G, blocks_prev, blocks = (
            np.dot, WD[0], G_prev[0], G[0], blocks_prev[0], blocks[0])

    def by_step(a):  # one index per step: a 2-D operand, or a unit axis for each set
        return a[0] if R == 1 else a[:, :, None].swapaxes(0, 1)

    out, r = by_step(JS[..., :hm]), by_step(B)
    for s in range(0, N, steps):
        n = min(steps, N - s)
        k = 0 if s else 1  # the chunk's first row with a previous step
        D = deriv(H[:, s - 1 + k:s + n])  # D_{t-1} from t = s + k, then D_{s+n-1}
        np.multiply(W[:, None], D[:, :n - k, None, :], out=WD[:, k:n])
        vd = by_step(V[:, None, :] * D[:, 1 - k:])
        B[:, :n, :j] = X[:, s:s + n]
        B[:, k:n, j:j + h] = H[:, s - 1 + k:s + n - 1]
        for u in range(n):
            product(wd[u], G_prev, out=G)
            blocks += r[u]
            product(vd[u], G, out=out[u])
            G_prev, G = G, G_prev
            blocks_prev, blocks = blocks, blocks_prev
        JS[:, :n, hm:hm + h] = H[:, s:s + n]
        yield s, JS[:, :n]


def rescale_output(model: RnnModel, scale: float, offset: float) -> RnnModel:
    """Fold an affine output mapping y -> y*scale + offset into V and b_y.

    Exact for the linear output; used to return models in natural
    target units after training against standardized targets.
    """
    U, W, V, b_h, b_y = model.weights
    return RnnModel.from_arrays(model.n_input, model.n_hidden, model.delay_tau, U, W,
                                V * scale, b_h, b_y * scale + offset, model.hidden_activation)


MODEL_FORMAT = "aeroforecast-rnn-v1"


def save_model(path, model: RnnModel) -> None:
    """Self-describing text serialization; round-trips bit-exactly."""
    doc = {
        "format": MODEL_FORMAT,
        "n_input": model.n_input,
        "n_hidden": model.n_hidden,
        "delay_tau": model.delay_tau,
        "hidden_activation": model.hidden_activation,
        "output_activation": "identity",
        **{name: part.tolist()
           for name, part in zip(_NAMES, _views(model.theta, model.n_hidden, model.n_input))},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> RnnModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: unknown model format {doc.get('format')!r}")
    if doc.get("output_activation") != "identity":
        raise ValueError(f"{path}: output_activation {doc.get('output_activation')!r} "
                         "is not 'identity', the only output the model has")
    return RnnModel.from_arrays(
        int(doc["n_input"]),
        int(doc["n_hidden"]),
        int(doc["delay_tau"]),
        *(np.array(doc[name], dtype=float) for name in _NAMES),
        hidden_activation=doc["hidden_activation"],
    )
