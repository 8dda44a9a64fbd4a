"""Target-delayed recurrent network: forward evaluation and exact
derivatives.

The network is a single-hidden-layer recurrent net with shared weights:

    h_t = f_h(U x_t + W h_{t-1} + b_h),   h_{-1} = 0
    y_t = f_y(V . h_t + b_y)

where the training label for step t is the close price ``tau`` trading
days later.  Gradients are exact (full, untruncated backpropagation
through time); the per-sample Jacobian is computed by forward sensitivity
propagation, which yields the same exact values through an independent
recursion and so cross-checks the reverse-mode gradient.

Parameter vector layout (used by the trainers and both derivative
routines): U row-major, then W row-major, then V, then b_h, then b_y.

Stacked parameters: a model whose arrays carry a leading axis of length
R (U (R, h, j), ..., b_y (R,)) holds R parameter sets; ``with_params``
builds one from (R, P) parameter vectors.  The recurrent routines step
all R sets through one time loop, and one set is the R = 1 case.  Inputs
are shared ((N, j), (N,)) or per set ((R, N, j), (R, N)), a row subset
shared (n,) or per set (R, n).  Every product is the same BLAS call on
the same operands as for one set and every sum keeps its order, so each
set gets the bytes it would get alone, for 1/R of the per-step cost.

``forward_states`` returns the hidden states with the predictions, and
both derivative routines accept that pair as ``states`` instead of
running the forward pass again.  The gradient's weight sums are formed
after its backward loop; the Jacobian loop adds the direct dependence
once per step, in neuron-major column order.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .market_data import AlignedDataset

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


@dataclass(frozen=True)
class RnnModel:
    n_input: int
    n_hidden: int
    delay_tau: int
    U: np.ndarray  # (n_hidden, n_input); all arrays get a leading R when stacked
    W: np.ndarray  # (n_hidden, n_hidden)
    V: np.ndarray  # (n_hidden,)
    b_h: np.ndarray  # (n_hidden,)
    b_y: float
    hidden_activation: str = "tanh"
    output_activation: str = "identity"

    def __post_init__(self):
        if self.delay_tau < 1:
            raise ValueError(f"delay_tau must be >= 1, got {self.delay_tau}")
        for name in (self.hidden_activation, self.output_activation):
            if name not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {name!r}")
        lead = np.shape(self.b_y)  # (R,) when stacked
        shapes = {
            "U": lead + (self.n_hidden, self.n_input),
            "W": lead + (self.n_hidden, self.n_hidden),
            "V": lead + (self.n_hidden,),
            "b_h": lead + (self.n_hidden,),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise ValueError(f"{name} has shape {got}, want {want}")
        for name in shapes:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")
        if not np.all(np.isfinite(self.b_y)):
            raise ValueError("b_y is not finite")

    @property
    def n_params(self) -> int:
        """Parameters of one set: P."""
        h, j = self.n_hidden, self.n_input
        return h * j + h * h + h + h + 1

    @property
    def stacked(self) -> bool:
        return np.ndim(self.b_y) == 1

    def params_to_vector(self) -> np.ndarray:
        """(P,), or (R, P) when stacked."""
        lead = np.shape(self.b_y)
        return np.concatenate([self.U.reshape(lead + (-1,)), self.W.reshape(lead + (-1,)),
                               self.V, self.b_h, np.reshape(self.b_y, lead + (1,))],
                              axis=-1)

    def with_params(self, theta: np.ndarray) -> "RnnModel":
        """This model with parameters ``theta``: one (P,) vector, or an
        (R, P) stack of them for a stacked model."""
        h, j = self.n_hidden, self.n_input
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != self.n_params:
            raise ValueError(f"parameter vector has shape {theta.shape}, "
                             f"want ({self.n_params},) or (R, {self.n_params})")
        lead = theta.shape[:-1]
        o1 = h * j
        o2 = o1 + h * h
        return dataclasses.replace(
            self,
            U=theta[..., :o1].reshape(lead + (h, j)).copy(),
            W=theta[..., o1:o2].reshape(lead + (h, h)).copy(),
            V=theta[..., o2:o2 + h].copy(),
            b_h=theta[..., o2 + h:o2 + 2 * h].copy(),
            b_y=theta[:, -1].copy() if lead else float(theta[-1]),
        )


def init_rnn(n_input: int, n_hidden: int, delay_tau: int, seed: int,
             hidden_activation: str = "tanh",
             output_activation: str = "identity") -> RnnModel:
    """Seeded initial model: weights uniform in [-0.5, 0.5]/sqrt(fan-in),
    biases zero."""
    rng = np.random.default_rng(seed)

    def draw(shape, fan_in):
        return rng.uniform(-0.5, 0.5, size=shape) / np.sqrt(fan_in)

    return RnnModel(
        n_input=n_input,
        n_hidden=n_hidden,
        delay_tau=delay_tau,
        U=draw((n_hidden, n_input), n_input),
        W=draw((n_hidden, n_hidden), n_hidden),
        V=draw(n_hidden, n_hidden),
        b_h=np.zeros(n_hidden),
        b_y=0.0,
        hidden_activation=hidden_activation,
        output_activation=output_activation,
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


def build_supervised(features, target=None, tau: int = 1) -> SequenceDataset:
    """Pair feature row t with the target tau rows later.

    ``features`` may be an :class:`AlignedDataset` (its close-price
    target is used) or a plain matrix with an explicit ``target``
    series.  A series of length T yields exactly T - tau pairs.

    tau counts aligned samples, not trading days, as in the paper: where
    cleaning deleted a mid-series day, a label lies tau + 1 trading days
    ahead of its features (tau + k across k deleted days).
    """
    if isinstance(features, AlignedDataset):
        matrix, series = features.features, features.target
    else:
        matrix = np.asarray(features, dtype=float)
        if target is None:
            raise ValueError("target series required when features is a matrix")
        series = np.asarray(target, dtype=float)
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    T = matrix.shape[0]
    if tau >= T:
        raise ValueError(f"tau={tau} leaves no pairs for a series of length {T}")
    return SequenceDataset(inputs=matrix[:T - tau].copy(), targets=series[tau:].copy())


def _sets(model: RnnModel, *arrays):
    """``arrays`` of ``model``'s parameter sets with a leading set axis:
    as they are for a stacked model, with one added for a single set."""
    return arrays if model.stacked else tuple(np.asarray(a)[None] for a in arrays)


def _unstack(model: RnnModel, result: np.ndarray) -> np.ndarray:
    return result if model.stacked else result[0]


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
    f_y = _ACTIVATIONS[model.output_activation]
    U, W, V, b_h, b_y = _sets(model, model.U, model.W, model.V, model.b_h, model.b_y)
    R, N, h = U.shape[0], len(dataset), model.n_hidden
    pre = np.matmul(dataset.inputs, U.transpose(0, 2, 1))  # (R, N, h)
    pre += b_h[:, None, :]
    H = np.empty((R, N, h))
    if R == 1:  # np.dot on 2-D operands costs less per call than a batched matmul
        product, W, steps, pre, h_prev = np.dot, W[0], H[0], pre[0], np.zeros(h)
    else:  # time-major views: one index per step
        product, steps, pre = np.matmul, H[..., None].swapaxes(0, 1), pre[..., None].swapaxes(0, 1)
        h_prev = np.zeros((R, h, 1))
    for t in range(N):
        a = product(W, h_prev, out=steps[t])
        a += pre[t]
        h_prev = f_h(a, out=a)
    preds = f_y(np.matmul(H, V[:, :, None])[..., 0] + b_y[:, None])
    if check:
        for error in map(state_error, H, preds):
            if error is not None:
                raise error
    return _unstack(model, H), _unstack(model, preds)


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
    added in the order the recursion produced its terms.  ``states`` is
    ``forward_states(model, dataset)`` when the caller has it.
    Returns a vector in the documented parameter layout, (R, P) when
    stacked.
    """
    H, preds = forward_states(model, dataset) if states is None else states
    W, V, H, preds = _sets(model, model.W, model.V, H, preds)
    R, N, h = H.shape
    j = model.n_input
    targets = np.broadcast_to(dataset.targets, (R, N))
    X = dataset.inputs if dataset.inputs.ndim == 3 else dataset.inputs[None]
    sets = np.arange(R)[:, None]
    idx = _rows(index_subset, R, N)
    dy = np.zeros((R, N))
    dy[sets, idx] = 2.0 * (preds[sets, idx] - targets[sets, idx])
    dy *= _DERIV_FROM_VALUE[model.output_activation](preds)

    # DA holds f_h'(a_t) until step t overwrites it with da_t.
    DA = _DERIV_FROM_VALUE[model.hidden_activation](H)  # (R, N, h)
    direct = dy[:, :, None] * V[:, None, :]  # dy_t V, the output's pull on h_t
    if R == 1:
        product, WT, steps, direct_t, da = np.dot, W[0].T, DA[0], direct[0], np.zeros(h)
    else:
        product, WT, da = np.matmul, W.transpose(0, 2, 1), np.zeros((R, h, 1))
        steps, direct_t = DA[..., None].swapaxes(0, 1), direct[..., None].swapaxes(0, 1)
    pulled = np.empty_like(da)
    for t in range(N - 1, -1, -1):
        product(WT, da, out=pulled)
        pulled += direct_t[t]
        da = np.multiply(pulled, steps[t], out=steps[t])
    back = DA.transpose(1, 0, 2)[::-1]  # t = N-1, ..., 0: the order the recursion produced them
    X1 = np.empty(X.shape[:-1] + (j + 1,))  # [x_t, 1]: dU and db_h from one sum
    X1[..., :j] = X
    X1[..., j] = 1.0
    dUb = _outer_sum_in_order(back, X1.transpose(1, 0, 2)[::-1])
    dW = _outer_sum_in_order(back[:-1], H.transpose(1, 0, 2)[-2::-1])
    dV = np.matmul(H.transpose(0, 2, 1), dy[:, :, None])[..., 0]
    grad = np.concatenate([dUb[..., :j].reshape(R, -1), dW.reshape(R, -1), dV,
                           dUb[..., j], dy.sum(axis=1)[:, None]], axis=1)
    return _unstack(model, grad)


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
                        index_subset=None, states=None) -> np.ndarray:
    """Rows d e_i / d theta = d pred_i / d theta for i in the subset.

    Exact forward sensitivity propagation: S_t = D_t (B_t + W S_{t-1})
    where S_t = dh_t/dtheta and B_t holds the direct dependence of the
    pre-activation on U, W, and b_h.  An independent recursion from the
    reverse-mode gradient, so 2 J^T e == gradient_sse serves as a
    consistency check.

    The loop carries G_t = B_t + W S_{t-1}, the sensitivity of the
    pre-activation, so that S_t = D_t G_t never has to be formed:
    G_t = B_t + (W D_{t-1}) G_{t-1} and the Jacobian row is
    (V D_t) G_t.  G covers only U, W and b_h (h_t does not depend on V or
    b_y), in neuron-major column order: neuron i owns the m = j + h + 1
    adjacent columns [U_i, W_i, b_h,i], so B_t is block diagonal with the
    row r_t = [x_t, h_{t-1}, 1] in every block and is added through one
    strided view per step.  The columns are put back into the parameter
    layout once, after the loop.  ``states`` is
    ``forward_states(model, dataset)`` when the caller has it.  Stacked,
    the result is (R, n, P).
    """
    H, preds = forward_states(model, dataset) if states is None else states
    H, preds = _sets(model, H, preds)
    R, N, h = H.shape
    j = model.n_input
    m = j + h + 1
    hm = h * m
    # Neuron-major sensitivity columns, then V, then b_y.
    JS = np.empty((R, N, hm + h + 1))
    _sensitivity_rows(model, dataset.inputs, H, out=JS[:, :, :hm])
    JS[:, :, hm:hm + h] = H
    JS[:, :, -1] = 1.0

    # JS column of each parameter, in the documented layout.
    neuron = np.arange(h)[:, None]
    column = np.concatenate([(neuron * m + np.arange(j)).ravel(),  # U
                             (neuron * m + j + np.arange(h)).ravel(),  # W
                             hm + np.arange(h),  # V
                             np.arange(h) * m + j + h,  # b_h
                             [hm + h]])  # b_y
    sets = np.arange(R)[:, None]
    rows = _rows(index_subset, R, N)
    J = JS[sets[:, :, None], rows[:, :, None], column]
    if model.output_activation != "identity":
        J *= _DERIV_FROM_VALUE[model.output_activation](preds[sets, rows])[:, :, None]
    return _unstack(model, J)


def _sensitivity_rows(model: RnnModel, X: np.ndarray, H: np.ndarray, out: np.ndarray):
    """Fill row t of ``out[s]`` (R x N x h*m) with (V D_t) G_t, neuron-major.

    A function of its own so that its (R, N, h, h) and (R, N, m) work
    arrays are freed before the caller allocates J.
    """
    W, V = _sets(model, model.W, model.V)
    R, N, h = H.shape
    j = model.n_input
    m = j + h + 1
    hm = h * m
    D = _DERIV_FROM_VALUE[model.hidden_activation](H)  # (R, N, h)
    B = np.empty((R, N, m))  # r_t = [x_t, h_{t-1}, 1]
    B[:, :, :j] = X
    B[:, 0, j:j + h] = 0.0
    B[:, 1:, j:j + h] = H[:, :-1]
    B[:, :, -1] = 1.0
    WD = np.empty((R, N, h, h))  # W D_{t-1}; zero at t = 0, where G_{-1} = 0 anyway
    WD[:, 0] = 0.0
    np.multiply(W[:, None], D[:, :-1, None, :], out=WD[:, 1:])
    VD = V[:, None, :] * D
    # Two buffers take turns as G_{t-1} and G_t; entry [s, i, i*m + c] of
    # each is set s's block i diagonal entry c.
    G_prev, G = np.zeros((R, h, hm)), np.empty((R, h, hm))
    if R == 1:  # np.dot on 2-D operands costs less per call than a batched matmul
        product, WD, B, VD, out, G_prev, G = np.dot, WD[0], B[0], VD[0], out[0], G_prev[0], G[0]
    else:  # time-major views: one index per step
        product, WD = np.matmul, WD.swapaxes(0, 1)
        B, VD, out = (a[:, :, None, :].swapaxes(0, 1) for a in (B, VD, out))
    blocks_prev, blocks = (np.lib.stride_tricks.as_strided(
        buf, shape=buf.shape[:-1] + (m,),
        strides=buf.strides[:-2] + ((hm + m) * buf.itemsize, buf.itemsize))
        for buf in (G_prev, G))
    for t in range(N):
        product(WD[t], G_prev, out=G)
        blocks += B[t]
        product(VD[t], G, out=out[t])
        G_prev, G = G, G_prev
        blocks_prev, blocks = blocks, blocks_prev


def rescale_output(model: RnnModel, scale: float, offset: float) -> RnnModel:
    """Fold an affine output mapping y -> y*scale + offset into V and b_y.

    Exact for the identity output activation; used to return models in
    natural target units after training against standardized targets.
    """
    if model.output_activation != "identity":
        raise ValueError("output rescaling requires the identity output activation")
    return dataclasses.replace(model, V=model.V * scale,
                               b_y=model.b_y * scale + offset)


MODEL_FORMAT = "aeroforecast-rnn-v1"


def save_model(path, model: RnnModel) -> None:
    """Self-describing text serialization; round-trips bit-exactly."""
    doc = {
        "format": MODEL_FORMAT,
        "n_input": model.n_input,
        "n_hidden": model.n_hidden,
        "delay_tau": model.delay_tau,
        "hidden_activation": model.hidden_activation,
        "output_activation": model.output_activation,
        "U": model.U.tolist(),
        "W": model.W.tolist(),
        "V": model.V.tolist(),
        "b_h": model.b_h.tolist(),
        "b_y": model.b_y,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> RnnModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: unknown model format {doc.get('format')!r}")
    return RnnModel(
        n_input=int(doc["n_input"]),
        n_hidden=int(doc["n_hidden"]),
        delay_tau=int(doc["delay_tau"]),
        U=np.array(doc["U"], dtype=float),
        W=np.array(doc["W"], dtype=float),
        V=np.array(doc["V"], dtype=float),
        b_h=np.array(doc["b_h"], dtype=float),
        b_y=float(doc["b_y"]),
        hidden_activation=doc["hidden_activation"],
        output_activation=doc["output_activation"],
    )
