"""Adaptive borrowing of external group-membership information.

Group-membership probabilities from a model trained on external data are
convexly blended with internally trained ones; the blend weight alpha is
picked on a dense grid by predictive performance on the internal sample
(Brier score minimized, or one-vs-rest multiclass AUC maximized). Ties go
to the smallest alpha, so borrowing never happens when it buys nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import _check_codes
from .models import ModelError, _row_sum


BORROW_METRICS = ("brier", "auc")


@dataclass
class BlendedMembership:
    alpha: float
    h_star: np.ndarray  # alpha * external + (1 - alpha) * internal
    metric_curve: list[tuple[float, float]]  # (alpha, score) over the grid


def _columns(codes, shape) -> np.ndarray:
    """Group codes as column indices of a probability matrix of shape (rows, K)."""
    if np.shape(codes) != shape[:1]:
        raise ModelError("one probability row per group code required")
    return _check_codes(codes, shape[1], ModelError)


# The largest entry a probability matrix may hold. A blend
# alpha * a + (1 - alpha) * b of a, b in [0, 1] rounds to at most one ulp
# above 1, so the metrics accept the blends that select_alpha scores.
PROB_MAX = np.nextafter(1.0, 2.0)


def _probabilities(probs, name) -> np.ndarray:
    """probs as a float64 (rows, K) matrix. ValueError names the first row and
    column holding NaN, an infinity, a negative entry or one above PROB_MAX:
    the metrics would score it as a number, and the AUC keys need it."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ModelError(f"{name} must be a (rows, K) matrix; got shape {probs.shape}")
    outside = ~((probs >= 0.0) & (probs <= PROB_MAX))
    if outside.any():
        row, col = np.argwhere(outside)[0].tolist()
        raise ValueError(f"{name} row {row}, column {col} holds {float(probs[row, col])!r}, "
                         "not a probability in [0, 1]")
    return probs


def _one_hot(shape, codes) -> np.ndarray:
    """Code indicator matrix for probabilities of the given (rows, K) shape."""
    onehot = np.zeros(shape)
    onehot[np.arange(shape[0]), _columns(codes, shape)] = 1.0
    return onehot


def _brier(probs, onehot) -> float:
    return float(np.mean(np.sum((probs - onehot) ** 2, axis=1)))


# Probability cells per block of the Brier grid: a block scores as many grid
# points as fit, and at least one, so it takes 512 KiB or one point's n * K.
BRIER_CELLS = 1 << 16


def _brier_curve(h_external, h_internal, onehot, grid) -> list[float]:
    """_brier of the blend at each alpha of grid, bit for bit, over blocks of
    grid points. A block is the class-major (K, points, n) array of
    alpha * h_external + (1 - alpha) * h_internal - onehot, squared in place;
    _row_sum over its K rows sums in the order of _brier's axis=1 sum."""
    n, k = onehot.shape
    ext, inner, target = (np.ascontiguousarray(m.T)[:, None, :]
                          for m in (h_external, h_internal, onehot))
    step = max(1, BRIER_CELLS // max(1, n * k))
    scores = []
    for start in range(0, len(grid), step):
        alpha = grid[start:start + step, None]
        block = alpha * ext
        block += (1.0 - alpha) * inner
        block -= target
        np.square(block, out=block)
        per_row = _row_sum(block.reshape(k, -1).T).reshape(len(alpha), n)
        scores += np.mean(per_row, axis=1).tolist()
    return scores


def brier_score(probs, codes) -> float:
    """Mean squared distance between probability rows and the one-hot rows of
    their group codes; column j of probs belongs to code j.

    Ranges over [0, 2]; 0 for perfect one-hot predictions, 2 for confidently
    wrong ones. Lower is better.
    """
    probs = _probabilities(probs, "probs")
    return _brier(probs, _one_hot(probs.shape, codes))


def _binary_auc(scores, positives) -> float:
    # rank-based Mann-Whitney; average ranks make all-ties come out at 0.5 exactly.
    # A tie block at sorted positions [left, right) has 1-based average rank
    # (left + right + 1) / 2, so the integer sum over positives halved is the
    # exact rank sum.
    ordered = np.sort(scores)
    pos_scores = scores[positives]
    left = np.searchsorted(ordered, pos_scores, side="left")
    right = np.searchsorted(ordered, pos_scores, side="right")
    n_pos = len(pos_scores)
    n_neg = len(scores) - n_pos
    rank_sum = float(np.sum(left + right + 1)) / 2.0
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _auc_positives(shape, codes) -> list[tuple[int, np.ndarray]]:
    """(column, row mask) for each group code present, checked once."""
    codes = _columns(codes, shape)
    present = np.flatnonzero(np.bincount(codes))
    if len(present) < 2:
        raise ModelError("multiclass AUC needs at least two group codes")
    return [(j, codes == j) for j in present]


def multiclass_auc(probs, codes) -> float:
    """Unweighted mean of one-vs-rest AUCs over the group codes present;
    column j of probs belongs to code j."""
    probs = _probabilities(probs, "probs")
    return float(np.mean([_binary_auc(probs[:, j], mask)
                          for j, mask in _auc_positives(probs.shape, codes)]))


# Probability cells per class block of the AUC grid: a block holds as many
# classes as fit, and at least one, so its buffers take a few times 128 KiB.
AUC_CELLS = 1 << 14


def _auc_curve(h_external, h_internal, positives, grid) -> list[float]:
    """multiclass_auc of the blend at each alpha of grid, bit for bit, over
    blocks of classes.

    A block's blend alpha * h_external + (1 - alpha) * h_internal goes into a
    class-major buffer, whose bits, read as uint64 and shifted left by one,
    keep the order of the non-negative finite doubles (-0.0 lands on 0.0's
    key). The low bit is set for the class's negatives, so one row sort puts
    positives ahead of equal negatives, and the sorted positions of the
    positives add up to the Mann-Whitney U plus n_pos (n_pos - 1) / 2: the
    integer U and AUC = U / (n_pos n_neg) are _binary_auc's. A class whose
    sorted keys hold a positive and a negative of one value (neighbours that
    differ in the low bit alone) has a tie, which counts one half, and takes
    _binary_auc at that point.
    """
    n = h_internal.shape[0]
    aucs = np.empty((len(grid), len(positives)))
    place = np.arange(n, dtype=np.uint64)
    step = max(1, AUC_CELLS // n)
    for start in range(0, len(positives), step):
        block = positives[start:start + step]
        columns = [j for j, _ in block]
        ext, inner = (np.ascontiguousarray(h[:, columns].T) for h in (h_external, h_internal))
        negative = np.array([~mask for _, mask in block], dtype=np.uint64)
        n_pos = np.array([np.count_nonzero(mask) for _, mask in block])
        # sum of all positions, less the negatives', less n_pos (n_pos - 1) / 2
        u_base = n * (n - 1) // 2 - n_pos * (n_pos - 1) // 2
        pairs = n_pos * (n - n_pos)
        blend, part = np.empty_like(ext), np.empty_like(ext)
        keys = blend.view(np.uint64)
        neighbours = np.empty((len(block), n - 1), dtype=np.uint64)
        for g, alpha in enumerate(grid.tolist()):
            np.multiply(ext, alpha, out=blend)
            np.multiply(inner, 1.0 - alpha, out=part)
            blend += part
            keys <<= 1
            keys |= negative
            keys.sort(axis=1)
            np.bitwise_xor(keys[:, 1:], keys[:, :-1], out=neighbours)
            tied = np.flatnonzero((neighbours == 1).any(axis=1))
            keys &= 1
            aucs[g, start:start + len(block)] = (u_base - (keys @ place).astype(np.int64)) / pairs
            for i in tied.tolist():
                j, mask = block[i]
                blended = alpha * h_external[:, j] + (1.0 - alpha) * h_internal[:, j]
                aucs[g, start + i] = _binary_auc(blended, mask)
    return np.mean(aucs, axis=1).tolist()


def grid_intervals(grid_step: float) -> int:
    """Intervals of the alpha grid; ValueError unless the step divides [0, 1]
    evenly. O(1), so config checks can call it."""
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"alpha grid step must lie in (0, 1]; got {grid_step!r}")
    points = round(1.0 / grid_step)
    if abs(points * grid_step - 1.0) > 1e-9:
        raise ValueError(f"alpha grid step must divide 1 evenly; got {grid_step!r}")
    return points


def alpha_grid(grid_step: float) -> np.ndarray:
    return np.linspace(0.0, 1.0, grid_intervals(grid_step) + 1)


def select_alpha(h_external, h_internal, codes, metric="brier",
                 grid_step=0.001) -> BlendedMembership:
    """Pick the borrowing weight on the grid {0, grid_step, ..., 1}.

    Evaluates the chosen metric against the rows' group codes at every grid
    point on the blend alpha * h_external + (1 - alpha) * h_internal and
    keeps the best score, breaking ties toward the smallest alpha.
    """
    h_external = _probabilities(h_external, "h_external")
    h_internal = _probabilities(h_internal, "h_internal")
    if h_external.shape != h_internal.shape:
        raise ModelError("blend inputs must have identical shapes")
    grid = alpha_grid(grid_step)
    if metric == "brier":
        scores = _brier_curve(h_external, h_internal, _one_hot(h_internal.shape, codes), grid)
        best = np.argmin(scores)
    elif metric == "auc":
        positives = _auc_positives(h_internal.shape, codes)
        scores = _auc_curve(h_external, h_internal, positives, grid)
        best = np.argmax(scores)
    else:
        raise ValueError(f"unknown borrowing metric: {metric!r}")

    curve = list(zip(grid.tolist(), scores))
    alpha = curve[best][0]  # the first best score, so the smallest alpha on a tie
    h_star = alpha * h_external + (1.0 - alpha) * h_internal
    return BlendedMembership(alpha=alpha, h_star=h_star, metric_curve=curve)
