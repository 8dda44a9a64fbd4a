"""Second-order batch trainers: Levenberg-Marquardt, Bayesian-regularized
LM, and Moller's scaled conjugate gradient.

LM and BR share one damped Gauss-Newton core that minimizes
F = beta*SSE + alpha*|theta|^2: LM holds (alpha, beta) at (0, 1), and
BR re-estimates them from the evidence after every accepted step.  With
fewer residuals than weights (N < P), an epoch's trial steps and BR's
gamma come from one eigendecomposition of the N x N Gram matrix JJ'.

Each core is a generator that yields requests ``(kind, theta)`` and is
sent the answers; ``kind`` names the :class:`RnnObjective` method that
answers it (residuals, jacobian, products, train_mse, gradient or
val_mse).  The callable API (:func:`lm_least_squares`,
:func:`br_least_squares`, :func:`scg_minimize`) answers them with the
functions it is given, and its LM and BR cores ask for J alone.
:func:`train_repeats` trains one :class:`~aeroforecast.rnn.RnnModel` per
repeat, errors summed over the repeat's train-index subset, and answers
all repeats' requests with stacked kernel calls, through one caching
:class:`RnnObjective` each.  Its LM and BR cores ask for J'J and J'e in
place of J when N >= P, which the kernel sums without forming J.

A run stops with ``stop_reason`` "converged" (gradient norm below
``grad_tol``, or a zero SCG search direction), "damping_overflow" (no
improving step: LM/BR's mu passed ``mu_max``, or SCG's lambda passed
1e20), "val_patience" or "max_epochs" (the epoch budget ran out).

Epochs are 1-based and each logs its train and validation MSE first, so
an already-optimal start converges at epoch 1, and the budget's last
epoch takes no step.  Every trainer returns the weights of the epoch
with the lowest logged validation MSE (train MSE without a validation set).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

# ``forward`` is unused here but stays importable as ``trainers.forward``,
# where perfbench's traced mode wraps the forward pass.
from .rnn import (RnnModel, SequenceDataset, forward, forward_states,  # noqa: F401
                  gradient_sse, jacobian_products, loss_mse, prediction_jacobian,
                  state_error)

ALGORITHMS = ("lm", "br", "scg")
# Bytes of Gauss-Newton matrices that the LM or BR repeats advancing
# together may hold at once: P x min(N, P) each, that is J'J when N >= P,
# and when N < P the Jacobian that one stacked call forms for every
# repeat, then each repeat's J'Q.
GAUSS_NEWTON_BYTES = 4 << 20


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

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        for name in ("grad_tol", "mu0", "mu_inc", "mu_dec", "mu_max",
                     "scg_sigma", "scg_lambda0"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails this too
                raise ValueError(f"{name} must be > 0 and finite")
        if self.mu_inc <= 1:  # mu must grow, or a rejected step retries forever
            raise ValueError("mu_inc must be > 1")
        if self.val_patience < 1:
            raise ValueError("val_patience must be >= 1")


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
    gammas: list = field(default_factory=list)  # BR: gamma of each re-estimation before a step
    notes: list = field(default_factory=list)


class _EpochLog:
    """Per-epoch bookkeeping: curves, best snapshot, patience counter."""

    def __init__(self, patience):
        self.patience = patience
        self.record = TrainRecord()
        self._best_score = math.inf
        self._streak = 0

    def log(self, train_mse: float, theta: np.ndarray, val=None) -> bool:
        """Record one epoch; True when the validation patience trips.
        ``val`` is the validation MSE at theta (None: no validation set)."""
        rec = self.record
        rec.train_mse.append(float(train_mse))
        rec.val_mse.append(math.nan if val is None else float(val))
        rec.total_epochs += 1
        score = train_mse if val is None else val
        if rec.best_theta is None or score < self._best_score:
            self._best_score = score
            rec.best_epoch = rec.total_epochs
            rec.best_theta = np.array(theta, dtype=float)
        if val is None or self.patience is None:
            return False
        if rec.total_epochs >= 2 and rec.val_mse[-1] > rec.val_mse[-2]:
            self._streak += 1
        else:
            self._streak = 0
        return self._streak >= self.patience


def _drive(core, **answers):
    """Run a trainer core to its end, answering each request with the
    callable named by its kind; the record's ``seconds`` is the wall time."""
    started = time.perf_counter()
    try:
        kind, theta = next(core)
        while True:
            kind, theta = core.send(answers[kind](theta))
    except StopIteration as done:
        theta, rec = done.value
    rec.seconds = time.perf_counter() - started
    return theta, rec


def lm_least_squares(residual_fn, jacobian_fn, theta0, cfg: TrainConfig,
                     val_fn=None) -> tuple[np.ndarray, TrainRecord]:
    """Levenberg-Marquardt on 0.5-free SSE: solve (J'J + mu I) d = -J'e,
    the damped Gauss-Newton core with (alpha, beta) held at (0, 1)."""
    return _drive(_damped_gauss_newton(theta0, cfg, False, val_fn is not None),
                  residuals=residual_fn, jacobian=jacobian_fn, val_mse=val_fn)


def br_least_squares(residual_fn, jacobian_fn, theta0, cfg: TrainConfig,
                     val_fn=None, n_samples=None) -> tuple[np.ndarray, TrainRecord]:
    """Bayesian-regularized LM: the damped Gauss-Newton core from
    (alpha, beta) = (0, 1), re-estimated by :func:`_evidence_update` before
    every step but the first with N = ``n_samples`` (default: the residual
    count).  Validation stops training only with ``cfg.br_val_stop``."""
    return _drive(_damped_gauss_newton(theta0, cfg, True, val_fn is not None, n_samples),
                  residuals=residual_fn, jacobian=jacobian_fn, val_mse=val_fn)


def scg_minimize(objective_fn, gradient_fn, theta0, cfg: TrainConfig,
                 val_fn=None) -> tuple[np.ndarray, TrainRecord]:
    """Moller's scaled conjugate gradient on a full-batch objective (see
    :func:`_scaled_conjugate_gradient`)."""
    return _drive(_scaled_conjugate_gradient(theta0, cfg, val_fn is not None),
                  train_mse=objective_fn, gradient=gradient_fn, val_mse=val_fn)


def _damped_gauss_newton(theta0, cfg, bayesian, has_val, n_samples=None, products=False):
    """Minimize F = beta*SSE + alpha*|theta|^2 with damped Gauss-Newton
    steps: solve (beta J'J + (alpha + mu) I) d = -(beta J'e + alpha theta).

    A step is accepted only if it strictly decreases F (mu shrinks);
    otherwise mu grows and the step is retried within the same epoch.
    With ``bayesian``, (alpha, beta) are re-estimated in every epoch
    after the first, once it is logged and before its step; the budget's
    last epoch is logged only.

    With N >= P residuals every trial solves the P x P system from J'J;
    a core made with ``products`` then asks for the pair (J'J, J'e), the
    ``products`` request, rather than for J.  With N < P each epoch
    decomposes the N x N Gram matrix JJ' of J once and takes every trial
    from that (:func:`_dual_steps`); a LinAlgError of the decomposition
    does not depend on mu and is raised.  Between requests the core holds
    J'J, or the P x N matrix J'Q, and it lets go of them before it asks
    for the next epoch's J."""
    theta = np.array(theta0, dtype=float)
    alpha, beta = 0.0, 1.0
    mu = cfg.mu0
    log = _EpochLog(cfg.val_patience if cfg.br_val_stop or not bayesian else None)
    rec = log.record
    while True:
        r = yield "residuals", theta
        if not np.all(np.isfinite(r)):
            raise FloatingPointError(
                f"non-finite residuals during {'BR' if bayesian else 'LM'} training")
        sse = float(r @ r)
        val = (yield "val_mse", theta) if has_val else None
        if log.log(sse / len(r), theta, val):
            rec.stop_reason = "val_patience"
            break
        if rec.total_epochs >= cfg.max_epochs:
            break  # a step now would never be logged or returned
        dual = len(r) < theta.size
        if products and not dual:
            gram, Jr = yield "products", theta
        else:
            J = yield "jacobian", theta
            Jr = J.T @ r
            spectrum = _gram_spectrum(J, r) if dual else None
            gram = spectrum[0] if dual else J.T @ J  # the eigenvalues of JJ', or J'J
            del J
        if bayesian and rec.total_epochs > 1:  # every epoch after the first follows a step
            n = n_samples if n_samples is not None else len(r)
            alpha, beta = _evidence_update(gram, theta, sse, n, alpha, beta, mu, rec)
        g = beta * Jr + alpha * theta  # half the gradient of F
        if np.linalg.norm(2.0 * g) < cfg.grad_tol:
            rec.stop_reason = "converged"
            break
        step = (_dual_steps(*spectrum, theta, alpha, beta) if dual
                else _primal_steps(gram, g, alpha, beta))
        f_cur = beta * sse + alpha * float(theta @ theta)
        while mu <= cfg.mu_max:
            try:
                delta = step(mu)
            except np.linalg.LinAlgError:  # a singular primal system
                mu *= cfg.mu_inc
                continue
            trial = theta + delta
            r_trial = yield "residuals", trial
            f_trial = beta * float(r_trial @ r_trial) + alpha * float(trial @ trial)
            if np.isfinite(f_trial) and f_trial < f_cur:
                theta = trial
                mu = max(mu * cfg.mu_dec, 1e-300)
                rec.step_deltas.append(f_trial - f_cur)
                break
            mu *= cfg.mu_inc
        else:
            rec.stop_reason = "damping_overflow"  # no improving step
            rec.notes.append(f"mu exceeded mu_max={cfg.mu_max}")
            break
        gram = spectrum = step = None  # held no longer: the next epoch forms its own
    return rec.best_theta.copy(), rec


def _primal_steps(A, g, alpha, beta):
    """Trial step of damping mu by the P x P solve; scales A = J'J in place."""
    A *= beta  # in place: a scaled copy would add a P x P array
    diag = np.diag_indices_from(A)
    d = A[diag]  # each trial damps this diagonal in place, copying no P x P array

    def step(mu):
        A[diag] = d + (alpha + mu)
        return np.linalg.solve(A, -g)
    return step


def _gram_spectrum(J, r):
    """(lam, J'Q, Q'e) of the Gram matrix JJ' = Q diag(lam) Q', its
    rounding-negative eigenvalues clamped to 0 (JJ' is PSD)."""
    lam, Q = np.linalg.eigh(J @ J.T)
    np.maximum(lam, 0.0, out=lam)
    return lam, J.T @ Q, Q.T @ r


def _dual_steps(lam, JQ, Qr, theta, alpha, beta):
    """Trial step of damping mu from the Gram spectrum: with c = alpha + mu
    and w = beta / (c + beta lam), the push-through form of the primal
    solve is d = -(J'Q (w * (Q'e - (alpha/c) Q'J theta)) + (alpha/c) theta),
    in which alpha = 0 (all of LM) leaves no 1/c factor."""
    blam, Qt = beta * lam, JQ.T @ theta

    def step(mu):
        c = alpha + mu
        return -(JQ @ (beta / (c + blam) * (Qr - (alpha / c) * Qt)) + (alpha / c) * theta)
    return step


def _evidence_update(gram, theta, sse, n, alpha, beta, mu, rec):
    """MacKay's re-estimation of the effective parameter count gamma,
    appended to ``rec.gammas``; returns alpha = gamma / (2 |theta|^2) and
    beta = (N - gamma) / (2 SSE), both >= 1e-12.  At alpha = 0, gamma = P.

    ``gram`` is J'J (P x P), or the eigenvalues lam of JJ' when N < P.
    From J'J, gamma = P - 2 alpha tr(H^-1) with H = 2 beta J'J + 2 alpha I
    (LM damping for a singular H), clamped into [0, P].  From lam it is
    the same quantity, sum(beta lam / (beta lam + alpha)): J'J's other
    P - N eigenvalues are zero, so gamma <= N and needs no clamp."""
    n_params = theta.size
    gamma = float(n_params)
    if alpha != 0.0 and gram.ndim == 1:
        blam = beta * gram
        gamma = float(np.sum(blam / (blam + alpha)))
    elif alpha != 0.0:
        H = 2.0 * beta * gram
        H[np.diag_indices_from(H)] += 2.0 * alpha
        try:
            trace_inv = float(np.trace(np.linalg.inv(H)))
        except np.linalg.LinAlgError:
            H[np.diag_indices_from(H)] += mu
            trace_inv = float(np.trace(np.linalg.inv(H)))
            rec.notes.append("damped ill-conditioned Hessian in evidence update")
        gamma -= 2.0 * alpha * trace_inv
        if gamma < 0.0 or gamma > n_params:
            rec.notes.append(f"gamma {gamma:.6g} clamped into [0, {n_params}]")
            gamma = min(max(gamma, 0.0), float(n_params))
    rec.gammas.append(gamma)
    weight_norm = float(theta @ theta)
    alpha = max(gamma / (2.0 * max(weight_norm, 1e-300)), 1e-12)
    beta = max((n - gamma) / (2.0 * max(sse, 1e-300)), 1e-12)
    return alpha, beta


def _scaled_conjugate_gradient(theta0, cfg, has_val):
    """Moller's scaled conjugate gradient on a full-batch objective.

    Curvature along the search direction comes from a one-sided
    directional finite difference with step sigma/|p|; the scale lambda
    repairs non-positive curvature and is tuned by the comparison ratio
    of actual to predicted decrease.  The direction set restarts to
    steepest descent every n_params iterations.  A step accepted in the
    budget's second-to-last epoch asks for no gradient at its point, as
    no step follows it, so the last epoch cannot stop as "converged".
    """
    theta = np.array(theta0, dtype=float)
    n_params = theta.size
    lam = cfg.scg_lambda0
    lam_bar = 0.0
    r = -(yield "gradient", theta)  # negative gradient
    p = r.copy()
    success = True
    f_cur = float((yield "train_mse", theta))
    delta = 1.0  # overwritten on the first success pass
    k = 0
    log = _EpochLog(cfg.val_patience)
    rec = log.record
    while True:
        val = (yield "val_mse", theta) if has_val else None
        if log.log(f_cur, theta, val):
            rec.stop_reason = "val_patience"
            break
        p_norm2 = float(p @ p)
        if np.linalg.norm(r) < cfg.grad_tol or p_norm2 == 0.0:
            rec.stop_reason = "converged"
            break
        if lam > 1e20:
            rec.stop_reason = "damping_overflow"  # step size underflow: no progress possible
            rec.notes.append("lambda overflow; no improving step found")
            break
        if rec.total_epochs >= cfg.max_epochs:
            break  # a step now would never be logged or returned
        if success:
            sigma_k = cfg.scg_sigma / math.sqrt(p_norm2)
            s = ((yield "gradient", theta + sigma_k * p) - (-r)) / sigma_k
            delta = float(p @ s)
        delta += (lam - lam_bar) * p_norm2
        if delta <= 0.0:  # make the Hessian estimate positive definite
            lam_bar = 2.0 * (lam - delta / p_norm2)
            delta = -delta + lam * p_norm2
            lam = lam_bar
        mu_k = float(p @ r)
        alpha_k = mu_k / delta
        f_trial = float((yield "train_mse", theta + alpha_k * p))
        comparison = 2.0 * delta * (f_cur - f_trial) / (mu_k * mu_k)
        if not np.isfinite(comparison):
            comparison = -1.0  # hopeless step; grow lambda and retry
        if comparison >= 0.0:
            theta = theta + alpha_k * p
            rec.step_deltas.append(f_trial - f_cur)
            f_cur = f_trial
            lam_bar = 0.0
            success = True
            if rec.total_epochs + 1 < cfg.max_epochs:  # else the next epoch is logged only
                r_new = -(yield "gradient", theta)
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
    return rec.best_theta.copy(), rec


# ---------------------------------------------------------------------------
# RNN-facing side: errors summed over a train-index subset of the shared
# full sequence, validation MSE tracked on a disjoint subset.
# ---------------------------------------------------------------------------


class RnnObjective:
    """The answers a trainer core needs, for one model and sequence.

    Caches the forward states ``(H, preds)`` (or the FloatingPointError
    they raised) at the last parameter vector evaluated, keyed by its
    bytes; every answer at that point reuses them.  :func:`train_repeats`
    fills the caches of many objectives with one stacked forward pass.
    """

    def __init__(self, model: RnnModel, data: SequenceDataset, train_idx, val_idx):
        if len(train_idx) == 0:
            raise ValueError("empty training set")
        self.model = model
        self.data = data
        self.train_idx = np.asarray(train_idx, dtype=int)
        self.val_idx = np.asarray(val_idx if val_idx is not None else [], dtype=int)
        self.remember(None, None)

    def knows(self, theta) -> bool:
        return theta.tobytes() == self._key

    def remember(self, theta, states):
        self._key = None if theta is None else theta.tobytes()
        self._states = states

    def states(self, theta):
        if not self.knows(theta):
            try:
                if not np.isfinite(theta).all():  # with_params would raise ValueError
                    raise FloatingPointError("non-finite parameter vector")
                states = forward_states(self.model.with_params(theta), self.data)
            except FloatingPointError as exc:
                states = exc
            self.remember(theta, states)
        if isinstance(self._states, FloatingPointError):
            raise self._states
        return self._states

    def residuals(self, theta):
        # A non-finite trial point, or one far enough from the optimum to
        # overflow the forward pass, gets infinite residuals: its step is rejected.
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

    def products(self, theta):
        """J'J and J'e of the residuals, without forming J."""
        return jacobian_products(self.model.with_params(theta), self.data,
                                 self.train_idx, states=self.states(theta))

    def gradient(self, theta):
        """Gradient of ``train_mse``."""
        return gradient_sse(self.model.with_params(theta), self.data, self.train_idx,
                            states=self.states(theta)) / len(self.train_idx)


def train_repeats(models, datasets, train_idxs, val_idxs, cfg: TrainConfig) -> list:
    """Train one model per repeat (same shape, equally many training
    rows), all repeats advancing in lockstep with their own cores.

    Every round takes one request from each live repeat; one stacked
    forward pass and one stacked gradient serve all that need them.  A
    repeat that asks for its Jacobian (or, at N >= P, for J'J and J'e)
    waits until every live repeat of its group asks for one, and then one
    stacked call answers them all: one per epoch.  SCG repeats all
    advance together, LM and BR repeats in groups whose Gauss-Newton
    matrices fit ``GAUSS_NEWTON_BYTES``.  Returns per repeat the bytes it
    gets alone, (trained model, TrainRecord), or the exception it raised
    while the others carried on; ``seconds`` is the wall time over the
    repeats.
    """
    started = time.perf_counter()
    objectives = [RnnObjective(*args) for args in zip(models, datasets, train_idxs, val_idxs)]
    n_params = models[0].n_params
    together = len(objectives) if cfg.algorithm == "scg" else \
        max(1, GAUSS_NEWTON_BYTES // (8 * n_params * min(len(train_idxs[0]), n_params)))
    outcomes = [outcome for start in range(0, len(objectives), together)
                for outcome in _lockstep(objectives[start:start + together], cfg)]
    seconds = (time.perf_counter() - started) / len(objectives)
    for outcome in outcomes:
        if not isinstance(outcome, Exception):
            outcome[1].seconds = seconds
    return outcomes


def _lockstep(objectives, cfg):
    """(trained model, record), or the raised exception, per objective.

    Requests for J or for (J'J, J'e) wait at a barrier until they are all
    that is left; every other request is answered in the round it is made."""
    cores = [_scaled_conjugate_gradient(obj.model.params_to_vector(), cfg, len(obj.val_idx) > 0)
             if cfg.algorithm == "scg" else
             _damped_gauss_newton(obj.model.params_to_vector(), cfg, cfg.algorithm == "br",
                                  len(obj.val_idx) > 0, products=True)
             for obj in objectives]
    outcomes = [None] * len(cores)
    requests = {i: next(core) for i, core in enumerate(cores)}
    while requests:
        ready = {i: request for i, request in requests.items()
                 if request[0] not in ("jacobian", "products")} or dict(requests)
        answers = _prefetch(objectives, ready)
        for i, (kind, theta) in ready.items():
            try:  # an answer handed over is dropped here, so the core alone holds it
                requests[i] = cores[i].send(answers.pop(i) if i in answers
                                            else getattr(objectives[i], kind)(theta))
            except StopIteration as done:
                theta, rec = done.value
                outcomes[i] = (objectives[i].model.with_params(theta), rec)
                del requests[i]
            except Exception as exc:  # noqa: BLE001 - the other repeats carry on
                outcomes[i] = exc
                del requests[i]
    return outcomes


def _prefetch(objectives, requests):
    """Fill the forward-state caches this round's requests read, in one
    stacked call for every repeat whose point is new (a non-finite point
    is left to the objective, which reports it), and answer the
    gradient, Jacobian and products requests with one stacked call per
    kind.  Returns those answers by repeat; a request whose point failed
    the forward pass is left to the objective."""
    todo = {i: theta for i, (_, theta) in requests.items()
            if not objectives[i].knows(theta) and np.isfinite(theta).all()}
    if todo:
        H, preds = forward_states(*_together(objectives, todo), check=False)
        for (i, theta), H_r, preds_r in zip(todo.items(), H, preds):
            objectives[i].remember(theta, state_error(H_r, preds_r) or (H_r.copy(), preds_r))
    answers = {}
    for kind in ("gradient", "jacobian", "products"):
        todo = {i: theta for i, (k, theta) in requests.items() if k == kind
                and objectives[i].knows(theta) and isinstance(objectives[i]._states, tuple)}
        if not todo:
            continue
        model, data = _together(objectives, todo)
        states = tuple(np.stack(parts) for parts in zip(*(objectives[i]._states for i in todo)))
        rows = np.stack([objectives[i].train_idx for i in todo])
        if kind == "gradient":
            out = (grad / len(objectives[i].train_idx)
                   for i, grad in zip(todo, gradient_sse(model, data, rows, states)))
        elif kind == "jacobian":
            out = prediction_jacobian(model, data, rows, states)
        else:
            out = zip(*jacobian_products(model, data, rows, states))
        answers.update(zip(todo, out))
    return answers


def _together(objectives, thetas: dict):
    """One stacked model and dataset for the objectives ``thetas`` indexes."""
    objs = [objectives[i] for i in thetas]
    model = objs[0].model.with_params(np.stack(list(thetas.values())))
    data = objs[0].data
    if any(obj.data is not data for obj in objs):
        data = SequenceDataset(np.stack([obj.data.inputs for obj in objs]),
                               np.stack([obj.data.targets for obj in objs]))
    return model, data


def train(model, data, train_idx, val_idx, cfg: TrainConfig):
    """Train one model: the one-repeat case of :func:`train_repeats`."""
    (outcome,) = train_repeats([model], [data], [train_idx], [val_idx], cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
