"""Second-order batch trainers: Levenberg-Marquardt, Bayesian-regularized
LM, and Moller's scaled conjugate gradient.

Each trainer has a generic core operating on callables (residuals and
Jacobian for the least-squares methods, objective and gradient for SCG)
plus a wrapper that trains an :class:`~aeroforecast.rnn.RnnModel` whose
errors are summed over a train-index subset of the full sequence.  The
wrappers take those callables from one :class:`RnnObjective`, which
caches the forward states at the last parameter vector so that the
Jacobian and gradient reuse the forward pass the residuals or objective
already ran at the same point.

A run stops with ``stop_reason`` "converged" (gradient norm below
``grad_tol``, or a zero SCG search direction), "damping_overflow" (no
improving step: LM/BR's mu passed ``mu_max``, or SCG's lambda passed
1e20), "val_patience" or "max_epochs".

Epochs are 1-based; the loop records train and validation MSE at the
top of every epoch, so an already-optimal start converges at epoch 1.
Every trainer returns the weights of the epoch with the lowest recorded
validation MSE (lowest train MSE when there is no validation set).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

# ``forward`` is unused here but stays importable as ``trainers.forward``,
# where perfbench's traced mode wraps the forward pass.
from .rnn import (RnnModel, SequenceDataset, forward, forward_states,  # noqa: F401
                  gradient_sse, loss_mse, prediction_jacobian)

ALGORITHMS = ("lm", "br", "scg")


@dataclass(frozen=True)
class TrainConfig:
    algorithm: str = "lm"
    max_epochs: int = 1000
    grad_tol: float = 1e-7
    mu0: float = 1e-3
    mu_inc: float = 10.0
    mu_dec: float = 0.1
    mu_max: float = 1e10
    scg_sigma: float = 5e-5
    scg_lambda0: float = 5e-7
    val_patience: int = 6
    br_val_stop: bool = False  # evidence re-estimation replaces early stop
    seed: int = 0
    # Recorded for configuration fidelity only: none of LM/BR/SCG consumes
    # a fixed learning rate.
    learning_rate: float = 0.02

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        for name in ("grad_tol", "mu0", "mu_inc", "mu_dec", "mu_max",
                     "scg_sigma", "scg_lambda0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass
class TrainRecord:
    train_mse: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)  # NaN when no validation set
    total_epochs: int = 0
    best_epoch: int = 0
    best_theta: np.ndarray | None = None
    seconds: float = 0.0
    stop_reason: str = "max_epochs"  # converged | damping_overflow | max_epochs | val_patience
    # Objective change of every accepted step (negative by construction;
    # SCG allows zero).  LM/SCG: SSE/MSE change; BR: change of F.
    step_deltas: list = field(default_factory=list)
    gammas: list = field(default_factory=list)  # BR effective parameter counts
    notes: list = field(default_factory=list)


class _EpochLog:
    """Per-epoch bookkeeping: curves, best snapshot, patience counter."""

    def __init__(self, val_fn, patience):
        self.val_fn = val_fn
        self.patience = patience
        self.record = TrainRecord()
        self._best_score = math.inf
        self._streak = 0

    def log(self, train_mse: float, theta: np.ndarray) -> bool:
        """Record one epoch; True when the validation patience trips."""
        rec = self.record
        val = self.val_fn(theta) if self.val_fn is not None else math.nan
        rec.train_mse.append(float(train_mse))
        rec.val_mse.append(float(val))
        rec.total_epochs += 1
        score = val if self.val_fn is not None else train_mse
        if rec.best_theta is None or score < self._best_score:
            self._best_score = score
            rec.best_epoch = rec.total_epochs
            rec.best_theta = np.array(theta, dtype=float)
        if self.val_fn is None or self.patience is None:
            return False
        if rec.total_epochs >= 2 and rec.val_mse[-1] > rec.val_mse[-2]:
            self._streak += 1
        else:
            self._streak = 0
        return self._streak >= self.patience


def lm_least_squares(residual_fn, jacobian_fn, theta0, cfg: TrainConfig,
                     val_fn=None) -> tuple[np.ndarray, TrainRecord]:
    """Levenberg-Marquardt on 0.5-free SSE: solve (J'J + mu I) d = -J'e.

    A step is accepted only if it strictly decreases the SSE (mu shrinks);
    otherwise mu grows and the step is retried within the same epoch.
    """
    theta = np.array(theta0, dtype=float)
    mu = cfg.mu0
    log = _EpochLog(val_fn, cfg.val_patience)
    rec = log.record
    started = time.perf_counter()
    while rec.total_epochs < cfg.max_epochs:
        r = residual_fn(theta)
        if not np.all(np.isfinite(r)):
            raise FloatingPointError("non-finite residuals during LM training")
        sse = float(r @ r)
        if log.log(sse / len(r), theta):
            rec.stop_reason = "val_patience"
            break
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
    log = _EpochLog(val_fn, patience)
    rec = log.record
    reestimate = False
    started = time.perf_counter()
    while rec.total_epochs < cfg.max_epochs:
        r = residual_fn(theta)
        if not np.all(np.isfinite(r)):
            raise FloatingPointError("non-finite residuals during BR training")
        J = jacobian_fn(theta)
        sse = float(r @ r)
        n = n_samples if n_samples is not None else len(r)
        A = J.T @ J
        eye = np.eye(n_params)
        if reestimate:
            alpha, beta, gamma = _evidence_update(
                A, eye, theta, sse, n, n_params, alpha, beta, mu, rec)
            reestimate = False
        if log.log(sse / len(r), theta):
            rec.stop_reason = "val_patience"
            break
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
    """One MacKay evidence re-estimation; ill-conditioned H gets LM damping."""
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


def scg_minimize(objective_fn, gradient_fn, theta0, cfg: TrainConfig,
                 val_fn=None) -> tuple[np.ndarray, TrainRecord]:
    """Moller's scaled conjugate gradient on a full-batch objective.

    Curvature along the search direction comes from a one-sided
    directional finite difference with step sigma/|p|; the scale lambda
    repairs non-positive curvature and is tuned by the comparison ratio
    of actual to predicted decrease.  The direction set restarts to
    steepest descent every n_params iterations.
    """
    theta = np.array(theta0, dtype=float)
    n_params = theta.size
    lam = cfg.scg_lambda0
    lam_bar = 0.0
    r = -gradient_fn(theta)  # negative gradient
    p = r.copy()
    success = True
    f_cur = float(objective_fn(theta))
    delta = p_norm2 = 1.0  # overwritten on the first success pass
    k = 0
    log = _EpochLog(val_fn, cfg.val_patience)
    rec = log.record
    started = time.perf_counter()
    while rec.total_epochs < cfg.max_epochs:
        if log.log(f_cur, theta):
            rec.stop_reason = "val_patience"
            break
        if np.linalg.norm(r) < cfg.grad_tol:
            rec.stop_reason = "converged"
            break
        if lam > 1e20:
            rec.stop_reason = "damping_overflow"  # step size underflow: no progress possible
            rec.notes.append("lambda overflow; no improving step found")
            break
        if success:
            p_norm2 = float(p @ p)
            if p_norm2 == 0.0:
                rec.stop_reason = "converged"
                break
            sigma_k = cfg.scg_sigma / math.sqrt(p_norm2)
            s = (gradient_fn(theta + sigma_k * p) - (-r)) / sigma_k
            delta = float(p @ s)
        delta += (lam - lam_bar) * p_norm2
        if delta <= 0.0:  # make the Hessian estimate positive definite
            lam_bar = 2.0 * (lam - delta / p_norm2)
            delta = -delta + lam * p_norm2
            lam = lam_bar
        mu_k = float(p @ r)
        alpha_k = mu_k / delta
        f_trial = float(objective_fn(theta + alpha_k * p))
        comparison = 2.0 * delta * (f_cur - f_trial) / (mu_k * mu_k)
        if not np.isfinite(comparison):
            comparison = -1.0  # hopeless step; grow lambda and retry
        if comparison >= 0.0:
            theta = theta + alpha_k * p
            rec.step_deltas.append(f_trial - f_cur)
            f_cur = f_trial
            r_new = -gradient_fn(theta)
            lam_bar = 0.0
            success = True
            k += 1
            if k % n_params == 0:
                p = r_new.copy()  # restart with steepest descent
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


# ---------------------------------------------------------------------------
# RNN-facing side: errors summed over a train-index subset of the shared
# full sequence, validation MSE tracked on a disjoint subset.
# ---------------------------------------------------------------------------


class RnnObjective:
    """The callables the trainer cores need, for one model and sequence.

    Keeps a one-slot cache of the forward states ``(H, preds)`` at the
    last parameter vector evaluated, keyed by its bytes.  Residuals,
    training and validation MSE, the Jacobian and the gradient at that
    point all reuse it: the LM/BR Jacobian is taken at the point whose
    residuals were just computed, and SCG's gradient at an accepted
    point follows the objective evaluation there.
    """

    def __init__(self, model: RnnModel, data: SequenceDataset, train_idx, val_idx):
        if len(train_idx) == 0:
            raise ValueError("empty training set")
        self.model = model
        self.data = data
        self.train_idx = np.asarray(train_idx, dtype=int)
        self.val_idx = np.asarray(val_idx if val_idx is not None else [], dtype=int)
        self._key = None
        self._states = None

    @property
    def val_fn(self):
        """``val_mse``, or None without a validation set."""
        return self.val_mse if len(self.val_idx) else None

    def states(self, theta):
        key = theta.tobytes()
        if key != self._key:
            self._states = forward_states(self.model.with_params(theta), self.data)
            self._key = key
        return self._states

    def residuals(self, theta):
        # Trial points far from the optimum can overflow the forward
        # pass; report an infinite residual so the step gets rejected.
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
        return loss_mse(preds[self.val_idx], self.data.targets[self.val_idx])

    def jacobian(self, theta):
        return prediction_jacobian(self.model.with_params(theta), self.data,
                                   self.train_idx, states=self.states(theta))

    def gradient(self, theta):
        """Gradient of ``train_mse``."""
        return gradient_sse(self.model.with_params(theta), self.data, self.train_idx,
                            states=self.states(theta)) / len(self.train_idx)


def train_lm(model, data, train_idx, val_idx, cfg: TrainConfig):
    obj = RnnObjective(model, data, train_idx, val_idx)
    theta, rec = lm_least_squares(obj.residuals, obj.jacobian,
                                  model.params_to_vector(), cfg, obj.val_fn)
    return model.with_params(theta), rec


def train_br(model, data, train_idx, val_idx, cfg: TrainConfig):
    obj = RnnObjective(model, data, train_idx, val_idx)
    theta, rec = br_least_squares(obj.residuals, obj.jacobian,
                                  model.params_to_vector(), cfg, obj.val_fn,
                                  n_samples=len(obj.train_idx))
    return model.with_params(theta), rec


def train_scg(model, data, train_idx, val_idx, cfg: TrainConfig):
    obj = RnnObjective(model, data, train_idx, val_idx)
    theta, rec = scg_minimize(obj.train_mse, obj.gradient,
                              model.params_to_vector(), cfg, obj.val_fn)
    return model.with_params(theta), rec


_TRAINERS = {"lm": train_lm, "br": train_br, "scg": train_scg}


def train(model, data, train_idx, val_idx, cfg: TrainConfig):
    """Dispatch on ``cfg.algorithm``."""
    return _TRAINERS[cfg.algorithm](model, data, train_idx, val_idx, cfg)
