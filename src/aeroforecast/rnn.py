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

Per-step numpy calls dominate at paper scale, so each recurrent loop
keeps to a few.  ``forward_states`` returns the hidden states with the
predictions, and both derivative routines accept that pair as
``states`` instead of running the forward pass again.  The gradient's
weight sums are formed after its backward loop; the Jacobian loop adds
the direct dependence once per step, in neuron-major column order.

Parameter vector layout (used by the trainers and both derivative
routines): U row-major, then W row-major, then V, then b_h, then b_y.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .market_data import AlignedDataset

_ACTIVATIONS = {
    "tanh": np.tanh,
    "identity": lambda x: x,
}
# Derivative expressed through the activation *value* (works for both).
_DERIV_FROM_VALUE = {
    "tanh": lambda v: 1.0 - v * v,
    "identity": lambda v: np.ones_like(v),
}


@dataclass(frozen=True)
class RnnModel:
    n_input: int
    n_hidden: int
    delay_tau: int
    U: np.ndarray  # (n_hidden, n_input)
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
        shapes = {
            "U": (self.n_hidden, self.n_input),
            "W": (self.n_hidden, self.n_hidden),
            "V": (self.n_hidden,),
            "b_h": (self.n_hidden,),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise ValueError(f"{name} has shape {got}, want {want}")
        for name in shapes:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")
        if not np.isfinite(self.b_y):
            raise ValueError("b_y is not finite")

    @property
    def n_params(self) -> int:
        h, j = self.n_hidden, self.n_input
        return h * j + h * h + h + h + 1

    def params_to_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.U.ravel(), self.W.ravel(), self.V, self.b_h, [self.b_y]]
        )

    def with_params(self, theta: np.ndarray) -> "RnnModel":
        h, j = self.n_hidden, self.n_input
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ValueError(f"parameter vector has shape {theta.shape}, "
                             f"want ({self.n_params},)")
        o1 = h * j
        o2 = o1 + h * h
        return dataclasses.replace(
            self,
            U=theta[:o1].reshape(h, j).copy(),
            W=theta[o1:o2].reshape(h, h).copy(),
            V=theta[o2:o2 + h].copy(),
            b_h=theta[o2 + h:o2 + 2 * h].copy(),
            b_y=float(theta[-1]),
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
    the close price ``tau`` steps after it."""

    inputs: np.ndarray  # (n_pairs, n_input)
    targets: np.ndarray  # (n_pairs,)

    def __post_init__(self):
        if self.inputs.ndim != 2:
            raise ValueError("inputs must be 2-D")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ValueError("targets length must match inputs rows")

    def __len__(self) -> int:
        return self.inputs.shape[0]


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


def forward_states(model: RnnModel, dataset: SequenceDataset):
    """Hidden states ``H`` (N x h) and predictions (N,) over the full
    sequence, recursing h from h0 = 0.

    The pair is what both derivative routines consume; a caller that
    already holds it for the same model and dataset passes it as
    ``states`` instead of paying for another forward pass.
    """
    if dataset.inputs.shape[1] != model.n_input:
        raise ValueError(
            f"dataset has {dataset.inputs.shape[1]} features, model wants {model.n_input}"
        )
    f_h = _ACTIVATIONS[model.hidden_activation]
    f_y = _ACTIVATIONS[model.output_activation]
    N = dataset.inputs.shape[0]
    pre = dataset.inputs @ model.U.T + model.b_h  # (N, h)
    H = np.empty((N, model.n_hidden))
    h = np.zeros(model.n_hidden)
    for t in range(N):
        h = f_h(pre[t] + model.W @ h)
        H[t] = h
    preds = f_y(H @ model.V + model.b_y)
    bad = ~np.isfinite(preds)
    if bad.any():
        t = int(np.argmax(bad | ~np.isfinite(H).all(axis=1)))
        raise FloatingPointError(f"non-finite network state at time index {t}")
    return H, preds


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
    carries only da_t = (dy_t V + W' da_{t+1}) * f_h'(a_t) and stores it
    as row t of DA; the weight gradients dU = sum_t da_t x_t',
    dW = sum_{t>0} da_t h_{t-1}' and db_h = sum_t da_t are then formed
    for all t at once.  ``states`` is ``forward_states(model, dataset)``
    when the caller has it.
    Returns a vector in the documented parameter layout.
    """
    H, preds = forward_states(model, dataset) if states is None else states
    N, h = H.shape
    dy = np.zeros(N)
    idx = np.arange(N) if index_subset is None else np.asarray(index_subset)
    dy[idx] = 2.0 * (preds[idx] - dataset.targets[idx])
    dy *= _DERIV_FROM_VALUE[model.output_activation](preds)

    D = _DERIV_FROM_VALUE[model.hidden_activation](H)  # (N, h)
    direct = np.outer(dy, model.V)  # dy_t V, the output's pull on h_t
    DA = np.empty((N, h))
    WT = model.W.T
    da = np.zeros(h)
    for t in range(N - 1, -1, -1):
        da = np.multiply(direct[t] + WT @ da, D[t], out=DA[t])
    back = DA[::-1]  # t = N-1, ..., 0: the order the recursion produced them
    dU = _sum_in_order(back[:, :, None] * dataset.inputs[::-1, None, :])
    dW = _sum_in_order(back[:-1, :, None] * H[-2::-1, None, :])
    dV = H.T @ dy
    return np.concatenate([dU.ravel(), dW.ravel(), dV, _sum_in_order(back),
                           [dy.sum()]])


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ..., added one after another.

    Gradient sums keep the order of the backward recursion, so they round
    exactly like a per-step accumulation; ``sum`` or a matrix product
    would regroup them, and SCG's finite-difference curvature magnifies
    such last-digit changes into visibly different training runs.
    """
    if len(terms) == 0:
        return np.zeros(terms.shape[1:])
    return np.cumsum(terms, axis=0)[-1]


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
    ``forward_states(model, dataset)`` when the caller has it.
    """
    H, preds = forward_states(model, dataset) if states is None else states
    N, h = H.shape
    j = model.n_input
    m = j + h + 1
    hm = h * m
    # Neuron-major sensitivity columns, then V, then b_y.
    JS = np.empty((N, hm + h + 1))
    _sensitivity_rows(model, dataset.inputs, H, out=JS[:, :hm])
    JS[:, hm:hm + h] = H
    JS[:, -1] = 1.0

    # JS column of each parameter, in the documented layout.
    neuron = np.arange(h)[:, None]
    column = np.concatenate([(neuron * m + np.arange(j)).ravel(),  # U
                             (neuron * m + j + np.arange(h)).ravel(),  # W
                             hm + np.arange(h),  # V
                             np.arange(h) * m + j + h,  # b_h
                             [hm + h]])  # b_y
    rows = np.arange(N) if index_subset is None else np.asarray(index_subset)
    J = JS[np.ix_(rows, column)]
    if model.output_activation != "identity":
        J *= _DERIV_FROM_VALUE[model.output_activation](preds[rows])[:, None]
    return J


def _sensitivity_rows(model: RnnModel, X: np.ndarray, H: np.ndarray, out: np.ndarray):
    """Fill row t of ``out`` (N x h*m) with (V D_t) G_t, neuron-major.

    A function of its own so that its (N, h, h) and (N, m) work arrays
    are freed before the caller allocates J.
    """
    N, h = H.shape
    j = model.n_input
    m = j + h + 1
    hm = h * m
    D = _DERIV_FROM_VALUE[model.hidden_activation](H)  # (N, h)
    R = np.empty((N, m))  # r_t = [x_t, h_{t-1}, 1]
    R[:, :j] = X
    R[0, j:j + h] = 0.0
    R[1:, j:j + h] = H[:-1]
    R[:, -1] = 1.0
    WD = np.empty((N, h, h))  # W D_{t-1}; zero at t = 0, where G_{-1} = 0 anyway
    WD[0] = 0.0
    np.multiply(model.W, D[:-1, None, :], out=WD[1:])
    VD = model.V * D
    # Two buffers take turns as G_{t-1} and G_t; entry [i, i*m + c] of
    # each is block i's diagonal entry c.
    G_prev, G = np.zeros((h, hm)), np.empty((h, hm))
    blocks_prev, blocks = (np.lib.stride_tricks.as_strided(
        buf, shape=(h, m), strides=((hm + m) * buf.itemsize, buf.itemsize))
        for buf in (G_prev, G))
    for t in range(N):
        np.dot(WD[t], G_prev, out=G)
        blocks += R[t]
        np.dot(VD[t], G, out=out[t])
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
