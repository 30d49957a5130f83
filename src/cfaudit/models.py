"""Nuisance-model fitting from scratch on numpy.

Binary outcome regressions are penalized logistic fits, solved by IRLS
(Newton with step halving, so the penalized log-likelihood never decreases).
Group-membership models are multiclass feed-forward networks with a softmax
output: softmax-linear has no hidden layer (multinomial logistic regression;
Bishop, Pattern Recognition and Machine Learning, 2006, 4.3.4 and 5.1) and
mlp-1hidden one, and both share one forward pass, gradient and objective.
The softmax-linear model has a convex objective and is fitted to convergence
from zero weights by L-BFGS (Liu & Nocedal, 1989; Nocedal & Wright,
Numerical Optimization, 2006, Alg. 7.4 with the strong-Wolfe line search of
Alg. 3.5), at most config.epochs iterations. The single-hidden-layer network
with logistic activations and weight decay keeps config.epochs epochs of
full-batch gradient descent with step config.lr from a seeded initialization.
That budget acts as early stopping that the borrowing estimand relies on:
fitted by L-BFGS as well in a prototype, the internal network made the
borrowing weight select alpha = 0 whatever the external data's agreement.
Each fit reuses its work buffers, and the softmax matches numpy's axis=1
reductions bit for bit.

The l2 penalty applies to every coefficient, intercept included, so
penalized fits have a finite optimum even for constant outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import check_at_least, check_choice
from .dataset import AuditDataset, _check_codes
from .estimators import NuisanceEstimates

PROB_EPS = 1e-12
SEPARATION_BOUND = 30.0
# IRLS iteration cap, and the largest coefficient step that counts as converged.
IRLS_MAX_ITER = 100
IRLS_TOL = 1e-8


class ModelError(Exception):
    """A model fit or prediction that cannot run on its inputs."""


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _add_intercept(x):
    x = np.asarray(x, dtype=np.float64)
    return np.hstack([np.ones((x.shape[0], 1)), x])


@dataclass
class BinaryModel:
    coef: np.ndarray  # (p+1,) with intercept first
    converged: bool
    iterations: int
    ll_trace: list = field(default_factory=list)  # penalized log-likelihood per iteration


def _penalized_ll(beta, xb, y, l2):
    eta = xb @ beta
    # sum_i [y*eta - log(1 + e^eta)], stably
    ll = float(np.sum(y * eta) - np.sum(np.logaddexp(0.0, eta)))
    return ll - 0.5 * l2 * float(beta @ beta)


def fit_logistic(x, y, l2=0.0) -> BinaryModel:
    """Fit P(y=1|x) = sigmoid(intercept + x @ coef) maximizing the l2-penalized
    Bernoulli log-likelihood.

    IRLS takes at most IRLS_MAX_ITER damped Newton steps (step halving
    whenever a full step would reduce the objective). With l2 == 0 a
    coefficient exceeding the separation bound raises ModelError; set l2 > 0
    to fit separable or constant-outcome data.
    """
    xb = _add_intercept(x)
    y = np.asarray(y, dtype=np.float64)
    p1 = xb.shape[1]
    beta = np.zeros(p1)

    ll = _penalized_ll(beta, xb, y, l2)
    trace = [ll]
    converged = False
    it = 0
    for it in range(1, IRLS_MAX_ITER + 1):
        prob = sigmoid(xb @ beta)
        w = prob * (1.0 - prob)
        grad = xb.T @ (y - prob) - l2 * beta
        hess = (xb * w[:, None]).T @ xb + l2 * np.eye(p1)
        try:
            direction = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise ModelError("singular weighted design; add l2 or drop columns") from None

        # Step halving: accept the largest step that does not decrease the objective.
        scale = 1.0
        for _ in range(50):
            candidate = beta + scale * direction
            cand_ll = _penalized_ll(candidate, xb, y, l2)
            if cand_ll >= ll:
                break
            scale *= 0.5
        else:
            candidate = beta
            cand_ll = ll
        step = candidate - beta
        beta = candidate
        ll = cand_ll
        trace.append(ll)

        if l2 == 0.0 and np.max(np.abs(beta)) > SEPARATION_BOUND:
            raise ModelError("coefficients diverging; refit with l2 > 0")
        if np.max(np.abs(step)) < IRLS_TOL:
            converged = True
            break

    return BinaryModel(coef=beta, converged=converged, iterations=it, ll_trace=trace)


def predict_binary(model: BinaryModel, x) -> np.ndarray:
    """Predicted probabilities, clamped to (PROB_EPS, 1 - PROB_EPS)."""
    xb = _add_intercept(x)
    if xb.shape[1] != len(model.coef):
        raise ModelError(f"model expects {len(model.coef) - 1} columns, got {xb.shape[1] - 1}")
    return np.clip(sigmoid(xb @ model.coef), PROB_EPS, 1.0 - PROB_EPS)


# ---------------------------------------------------------------------------
# multiclass group-membership models


MULTICLASS_KINDS = ("softmax-linear", "mlp-1hidden")


@dataclass
class MulticlassConfig:
    kind: str = "softmax-linear"  # one of MULTICLASS_KINDS
    hidden: int = 100
    decay: float = 0.0  # weight-decay coefficient on the sum of squared weights
    epochs: int = 500  # L-BFGS iteration cap (softmax-linear); epochs (mlp-1hidden)
    lr: float = 0.5  # gradient-descent step of mlp-1hidden only

    def __post_init__(self):
        check_choice("kind", self.kind, MULTICLASS_KINDS)
        check_at_least("hidden", self.hidden, 1)
        check_at_least("decay", self.decay, 0)
        check_at_least("epochs", self.epochs, 0)
        if not self.lr > 0:  # NaN too
            raise ValueError(f"lr must be greater than 0; got {self.lr!r}")


@dataclass
class MulticlassModel:
    classes: np.ndarray  # sorted int labels; column j of a prediction is classes[j]
    params: tuple  # (w,) softmax-linear; (w1, w2) mlp-1hidden
    converged: bool  # the MLP's gradient descent never claims convergence
    iterations: int  # optimizer iterations (MLP: epochs) actually run
    objective: float  # final objective


def _row_sum(e):
    """Row sums by column sweeps in numpy's pairwise summation order: bit-equal
    to e.sum(axis=1) for entries other than -0.0."""
    n = e.shape[1]
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _row_sum(e[:, :half]) + _row_sum(e[:, half:])
    if n < 8:
        s, rest = e[:, 0].copy(), e[:, 1:]
    else:
        r = e[:, :8].copy()
        for i in range(8, n - n % 8, 8):
            r += e[:, i:i + 8]
        for _ in range(3):  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
            r = r[:, 0::2] + r[:, 1::2]
        s, rest = r[:, 0], e[:, n - n % 8:]
    for col in rest.T:
        s += col
    return s


def _softmax(z, out=None):
    """Row softmax, bit-equal to the one built on numpy's axis=1 reductions but
    far cheaper for few columns. Writes to out (may be z) or a fresh array."""
    m = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        np.maximum(m, z[:, j], out=m)
    e = np.subtract(z, m[:, None], out=out)
    np.exp(e, out=e)
    return np.divide(e, _row_sum(e)[:, None], out=e)


def _buffers(params, n, y_onehot=None):
    """Work arrays of one evaluation of the model with weights params on n
    rows; a fit reuses one set per epoch. The network's are two full
    (n, hidden + 1) blocks, so that no elementwise pass runs over a strided
    view: "hb" holds the hidden layer after a column of ones, and "back" the
    back-propagated error. Given the one-hot labels, "loss" is a zero (n, k)
    array whose label entries, at the flat indices "labels", take each
    evaluation's log-likelihoods."""
    k = params[-1].shape[1]
    buf = {"probs": np.empty((n, k)), "delta": np.empty((n, k))}
    if len(params) == 2:
        hidden = params[0].shape[1]
        # no product fills back's column 0, and the in-place products keep it 0
        buf.update(hb=np.empty((n, hidden + 1)), back=np.zeros((n, hidden + 1)))
    if y_onehot is not None:
        buf.update(loss=np.zeros((n, k)), labels=np.flatnonzero(y_onehot))
    return buf


def _forward(params, xb, buf):
    """Class probabilities, in buf["probs"]. The network's sigmoid hidden
    layer, after its column of ones, is computed in place in buf["hb"] and
    feeds the output softmax in place of xb."""
    if len(params) == 2:
        z = buf["hb"]
        # BLAS writes the product into the strided view, at the same shape as
        # xb @ w1, so bit for bit -(xb @ w1); column 0's exp(-inf) gives ones
        np.matmul(xb, np.negative(params[0]), out=z[:, 1:])
        z[:, 0] = -np.inf
        np.exp(z, out=z)
        xb = np.divide(1.0, np.add(1.0, z, out=z), out=z)
    return _softmax(np.matmul(xb, params[-1], out=buf["probs"]), out=buf["probs"])


def _gradients(params, xb, y_onehot, decay, buf):
    """The gradients of softmax_objective, one per weight matrix of params,
    leaving the class probabilities in buf["probs"]. The network's hidden
    layer is used up: buf["hb"] ends as 1 - hb."""
    probs = _forward(params, xb, buf)
    top = buf["hb"] if len(params) == 2 else xb  # the output layer's inputs
    delta_out = np.subtract(probs, y_onehot, out=buf["delta"])  # (n, k)
    g_out = top.T @ delta_out + 2.0 * decay * params[-1]
    if len(params) == 1:
        return (g_out,)
    w1, w2 = params
    back = buf["back"]
    np.matmul(delta_out, w2[1:].T, out=back[:, 1:])  # no intercept row
    back *= top
    back *= np.subtract(1.0, top, out=top)  # top's last use
    delta_hidden = back[:, 1:]
    if delta_hidden.shape[1] == 1:
        # numpy hands a one-column view to gemv with a stride of two, whose
        # bits differ from those of the contiguous column
        delta_hidden = delta_hidden.copy()
    return (xb.T @ delta_hidden + 2.0 * decay * w1, g_out)


def softmax_objective(params, xb, y_onehot, decay, buf=None):
    """Total cross-entropy plus decay * the sum of squared weights, with its
    gradients, of the membership model with weights params.

    params is (w,) for softmax-linear, the network with no hidden layer, and
    (w1, w2) for the network with one logistic hidden layer. xb includes the
    intercept column, and each weight matrix an intercept row. A fit passes
    its work buffers, made with its y_onehot, as buf.
    """
    buf = _buffers(params, len(xb), y_onehot) if buf is None else buf
    grads = _gradients(params, xb, y_onehot, decay, buf)
    # log-likelihoods at the label entries only. Summing the whole zero-filled
    # array keeps numpy's pairwise grouping: partial sums can differ from
    # those of y_onehot * log(probs) only in the sign of a zero, so the total
    # has the same bits
    picked = np.clip(np.take(buf["probs"], buf["labels"]), PROB_EPS, None)
    np.put(buf["loss"], buf["labels"], np.log(picked, out=picked))
    ll = np.sum(buf["loss"])
    return -ll + decay * sum(float(np.sum(w * w)) for w in params), grads


# L-BFGS memory and stopping rule. Memory and the max|g| bound are scipy
# L-BFGS-B's defaults. Its relative-decrease bound, 2.2e-9, stopped some
# four-class fits on 600 rows about 1e-6 above the objective that 500
# gradient-descent epochs reach; 1e-10 costs two to four more iterations.
LBFGS_MEMORY = 10
LBFGS_GTOL = 1e-5
LBFGS_FTOL = 1e-10
# Strong-Wolfe constants (sufficient decrease, curvature) and the evaluation
# cap of one line search.
_WOLFE_C1, _WOLFE_C2 = 1e-4, 0.9
_LINE_SEARCH_EVALS = 30


def _wolfe_step(fun, x, f0, g0, d, step):
    """Point x + step * d satisfying the strong Wolfe conditions, as
    (x, f, g), or None after _LINE_SEARCH_EVALS evaluations. Nocedal & Wright
    Alg. 3.5 (doubling the step until the minimum is bracketed) merged with
    Alg. 3.6 (zoom by safeguarded cubic interpolation)."""
    slope0 = float(np.vdot(g0, d))
    lo, f_lo, s_lo = 0.0, f0, slope0
    hi = None
    for _ in range(_LINE_SEARCH_EVALS):
        x_new = x + step * d
        f_new, g_new = fun(x_new)
        s_new = float(np.vdot(g_new, d))
        if not np.isfinite(f_new) or f_new > f0 + _WOLFE_C1 * step * slope0 or f_new >= f_lo:
            hi, f_hi, s_hi = step, f_new, s_new
        elif abs(s_new) <= -_WOLFE_C2 * slope0:
            return x_new, f_new, g_new
        else:
            if s_new * (1.0 if hi is None else hi - lo) >= 0.0:
                hi, f_hi, s_hi = lo, f_lo, s_lo
            lo, f_lo, s_lo = step, f_new, s_new
        if hi is None:
            step *= 2.0
            continue
        # minimiser of the cubic through both ends, kept 10% inside the bracket
        step = 0.5 * (lo + hi)
        if np.isfinite(f_hi):
            d1 = s_lo + s_hi - 3.0 * (f_lo - f_hi) / (lo - hi)
            disc = d1 * d1 - s_lo * s_hi
            if disc >= 0.0:
                d2 = np.copysign(np.sqrt(disc), hi - lo)
                denom = s_hi - s_lo + 2.0 * d2
                if denom != 0.0:
                    cubic = hi - (hi - lo) * (s_hi + d2 - d1) / denom
                    a, b = sorted((lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
                    step = min(max(cubic, a), b)
    return None


def _lbfgs(fun, x, max_iter):
    """Minimise fun from x by L-BFGS (Nocedal & Wright Alg. 7.4 and 7.5).

    fun(x) returns (value, gradient) with a freshly allocated gradient.
    Returns (x, value, converged, iterations); converged means max|g| <=
    LBFGS_GTOL or a relative decrease <= LBFGS_FTOL in the last iteration.
    A failed line search stops at the current point, not converged.
    """
    f, g = fun(x)
    pairs = []  # (s, y, 1 / y's), oldest first
    for it in range(max_iter):
        if np.max(np.abs(g)) <= LBFGS_GTOL:
            return x, f, True, it
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * np.vdot(s, d))
            d = d - alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            d = d * (np.vdot(s, y) / np.vdot(y, y))
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d = d + (a - rho * np.vdot(y, d)) * s
        found = _wolfe_step(fun, x, f, g, d, 1.0 if pairs else 1.0 / np.linalg.norm(g))
        if found is None:
            return x, f, False, it
        x_new, f_new, g_new = found
        s, y = x_new - x, g_new - g
        sy = float(np.vdot(s, y))
        if sy > 0.0:
            pairs = (pairs + [(s, y, 1.0 / sy)])[-LBFGS_MEMORY:]
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if decrease <= LBFGS_FTOL:
            return x, f, True, it + 1
    return x, f, bool(np.max(np.abs(g)) <= LBFGS_GTOL), max_iter


def _xavier_uniform(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def fit_multiclass(x, labels, config: MulticlassConfig, seed=0) -> MulticlassModel:
    """Fit class probabilities P(label | x) on full batches of int labels.

    softmax-linear minimises softmax_objective by L-BFGS from zero weights,
    for at most config.epochs iterations; mlp-1hidden runs config.epochs
    gradient-descent epochs of step config.lr from an initialization drawn
    from seed.
    Classes are the sorted unique labels, and training is deterministic.
    Raises ModelError unless there are two classes or more.
    """
    xb = _add_intercept(x)
    n = xb.shape[0]
    classes, columns = np.unique(np.asarray(labels), return_inverse=True)
    if len(columns) != n:
        raise ModelError(f"{len(columns)} labels for {n} rows")
    if len(classes) < 2:
        raise ModelError("need at least two distinct labels")
    y_onehot = np.zeros((n, len(classes)))
    y_onehot[np.arange(n), columns] = 1.0

    if config.kind == "softmax-linear":
        w0 = np.zeros((xb.shape[1], len(classes)))
        buf = _buffers((w0,), n, y_onehot)

        def objective(w):
            loss, (grad,) = softmax_objective((w,), xb, y_onehot, config.decay, buf)
            return loss, grad

        w, loss, converged, iterations = _lbfgs(objective, w0, config.epochs)
        params = (w,)
    else:
        rng = np.random.default_rng(seed)
        params = (_xavier_uniform(rng, xb.shape[1], config.hidden),
                  _xavier_uniform(rng, config.hidden + 1, len(classes)))
        buf = _buffers(params, n, y_onehot)
        for _ in range(config.epochs):
            for w, g in zip(params, _gradients(params, xb, y_onehot, config.decay, buf)):
                w -= (config.lr / n) * g
        loss, _ = softmax_objective(params, xb, y_onehot, config.decay, buf)
        converged, iterations = False, config.epochs
    return MulticlassModel(classes=classes, params=params, converged=converged,
                           iterations=iterations, objective=float(loss))


def predict_multiclass(model: MulticlassModel, x) -> np.ndarray:
    """Row-stochastic probability matrix over model.classes."""
    xb = _add_intercept(x)
    if xb.shape[1] != model.params[0].shape[0]:
        raise ModelError("covariate count differs from training")
    return _forward(model.params, xb, _buffers(model.params, xb.shape[0]))


def membership_probs(x, group_codes, x_eval, n_groups: int, config: MulticlassConfig,
                     seed=0) -> np.ndarray:
    """P(group | x_eval) over all n_groups group codes, column j for code j,
    from a membership model fitted on the rows (x, group_codes).

    With fewer than two codes present there is nothing to fit, and the model
    is the codes' frequencies. Codes absent from group_codes get (clamped)
    zero probability; rows are then renormalized so they stay strictly
    positive and sum to one.
    """
    codes = _check_codes(group_codes, n_groups, ModelError)
    # bincount, unlike a plain np.unique, needs no numpy.ma
    classes = np.flatnonzero(np.bincount(codes))
    if len(classes) < 2 and len(codes) == len(x):
        raw = np.ones((len(x_eval), len(classes)))
    else:  # fit_multiclass rejects a label count other than the row count
        model = fit_multiclass(x, codes, config, seed)
        raw = predict_multiclass(model, x_eval)
    out = np.zeros((raw.shape[0], n_groups))
    out[:, classes] = raw
    out = np.clip(out, PROB_EPS, None)
    return out / out.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# cross-fitting


@dataclass
class BinarySpec:
    kind: str = "logistic-IRLS"  # the only binary fit
    l2: float = 0.0

    def __post_init__(self):
        check_choice("kind", self.kind, ("logistic-IRLS",))
        check_at_least("l2", self.l2, 0)


@dataclass
class NuisanceModels:
    """The propensity pi, the untreated-outcome regressions mu, the internal
    and external group-membership models, and the cross-fitting folds."""

    pi: BinarySpec = field(default_factory=BinarySpec)
    mu: BinarySpec = field(default_factory=BinarySpec)
    h_internal: MulticlassConfig = field(default_factory=MulticlassConfig)
    h_external: MulticlassConfig = field(default_factory=MulticlassConfig)
    crossfit_k: int = 1

    def __post_init__(self):
        check_at_least("crossfit_k", self.crossfit_k, 1)


def _propensity_design(ds: AuditDataset) -> np.ndarray:
    # group one-hot with the first group as reference, then covariates, then s
    onehot = ds.group_codes[:, None] == np.arange(1, ds.schema.n_groups)
    return np.hstack([onehot.astype(np.float64), ds.x, ds.s[:, None].astype(np.float64)])


def _draw_plan(n, k, rng) -> np.ndarray:
    fold = np.repeat(np.arange(k), np.diff(np.linspace(0, n, k + 1).astype(int)))
    return fold[rng.permutation(n)]


def _complement_feasible(ds, train_mask) -> bool:
    d = ds.d[train_mask]
    if d.min() == d.max():
        return False
    y_untreated = ds.y[train_mask & (ds.d == 0)]
    if y_untreated.size == 0 or y_untreated.min() == y_untreated.max():
        return False
    return True


# Fold draws make_crossfit_plan tries before it gives up.
MAX_REDRAWS = 10


def make_crossfit_plan(ds: AuditDataset, k, seed) -> np.ndarray:
    """The fold id, in 0..k-1, of each row: a random assignment whose fold
    sizes differ by at most one.

    Each fold's training complement must contain both treatment arms and
    both outcome classes among untreated rows; infeasible draws are retried
    up to MAX_REDRAWS times before ModelError.
    """
    rng = np.random.default_rng(seed)
    for _ in range(MAX_REDRAWS):
        fold = _draw_plan(ds.n, k, rng)
        if all(_complement_feasible(ds, fold != f) for f in range(k)):
            return fold
    raise ModelError(f"no feasible {k}-fold split after {MAX_REDRAWS} draws")


def _fit_outcome_models(ds, train_idx, spec: BinarySpec):
    """mu models on untreated training rows: one per prediction stratum plus
    the unstratified version. Empty strata fall back to the unstratified fit."""
    untreated = train_idx[ds.d[train_idx] == 0]
    mu_star = fit_logistic(ds.x[untreated], ds.y[untreated], l2=spec.l2)
    mu_by_s = {}
    for s_val in (0, 1):
        stratum = untreated[ds.s[untreated] == s_val]
        if stratum.size == 0:
            mu_by_s[s_val] = mu_star
        else:
            mu_by_s[s_val] = fit_logistic(ds.x[stratum], ds.y[stratum], l2=spec.l2)
    return mu_by_s, mu_star


def cross_fit(ds: AuditDataset, models: NuisanceModels, seed=0, h_seed=0) -> NuisanceEstimates:
    """Out-of-fold nuisance predictions for every row.

    Each (held-out rows, training rows) pair fits the models on its training
    rows and predicts its held-out rows. With k = models.crossfit_k == 1 the
    one pair is (all rows, all rows): each model is fit once and predicts in
    sample (the GLM path). With k >= 2 each fold of make_crossfit_plan(ds,
    k, seed) is held out once and predicted by models trained on its
    complement. The group-membership model models.h_internal is always fit
    once on the full sample, with seed h_seed.
    """
    pi_design = _propensity_design(ds)
    n = ds.n
    propensity = np.empty(n)
    mu0_s1 = np.empty(n)
    mu0_s0 = np.empty(n)
    mu0_all = np.empty(n)

    if models.crossfit_k == 1:
        pairs = [(np.arange(n), np.arange(n))]
    else:
        fold = make_crossfit_plan(ds, models.crossfit_k, seed)
        pairs = [(np.flatnonzero(fold == f), np.flatnonzero(fold != f))
                 for f in range(models.crossfit_k)]
    for hold, train in pairs:
        pi_model = fit_logistic(pi_design[train], ds.d[train], l2=models.pi.l2)
        propensity[hold] = predict_binary(pi_model, pi_design[hold])
        mu_by_s, mu_star = _fit_outcome_models(ds, train, models.mu)
        mu0_s0[hold] = predict_binary(mu_by_s[0], ds.x[hold])
        mu0_s1[hold] = predict_binary(mu_by_s[1], ds.x[hold])
        mu0_all[hold] = predict_binary(mu_star, ds.x[hold])

    return NuisanceEstimates(
        propensity=propensity,
        mu0_s1=mu0_s1,
        mu0_s0=mu0_s0,
        mu0_all=mu0_all,
        group_prob=membership_probs(ds.x, ds.group_codes, ds.x, ds.schema.n_groups,
                                    models.h_internal, h_seed),
    )
