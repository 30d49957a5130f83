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
from .models import DimensionMismatch, ModelError, _row_sum


BORROW_METRICS = ("brier", "auc")


class SingleClassLabels(ModelError):
    pass


@dataclass
class BlendedMembership:
    alpha: float
    h_star: np.ndarray  # alpha * external + (1 - alpha) * internal
    metric_curve: list[tuple[float, float]]  # (alpha, score) over the grid


def _columns(codes, shape) -> np.ndarray:
    """Group codes as column indices of a probability matrix of shape (rows, K)."""
    if np.shape(codes) != shape[:1]:
        raise DimensionMismatch("one probability row per group code required")
    return _check_codes(codes, shape[1], DimensionMismatch)


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
    probs = np.asarray(probs, dtype=np.float64)
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
    present = np.unique(codes)
    if len(present) < 2:
        raise SingleClassLabels("multiclass AUC needs at least two group codes")
    return [(j, codes == j) for j in present]


def _auc(probs, positives) -> float:
    return float(np.mean([_binary_auc(probs[:, j], mask) for j, mask in positives]))


def multiclass_auc(probs, codes) -> float:
    """Unweighted mean of one-vs-rest AUCs over the group codes present;
    column j of probs belongs to code j."""
    probs = np.asarray(probs, dtype=np.float64)
    return _auc(probs, _auc_positives(probs.shape, codes))


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
    h_external = np.asarray(h_external, dtype=np.float64)
    h_internal = np.asarray(h_internal, dtype=np.float64)
    if h_external.shape != h_internal.shape:
        raise DimensionMismatch("blend inputs must have identical shapes")
    grid = alpha_grid(grid_step)
    if metric == "brier":
        scores = _brier_curve(h_external, h_internal, _one_hot(h_internal.shape, codes), grid)
        better = lambda a, b: a < b
    elif metric == "auc":
        positives = _auc_positives(h_internal.shape, codes)
        scores = []
        for alpha in grid:
            # the last blend stays alive while the next one is built, so the
            # allocator reuses its pages rather than returning them to the
            # system and faulting them in again (~10% of the search at n 3,000)
            blended = alpha * h_external + (1.0 - alpha) * h_internal
            scores.append(_auc(blended, positives))
        better = lambda a, b: a > b
    else:
        raise ValueError(f"unknown borrowing metric: {metric!r}")

    curve = []
    best_alpha, best_score = None, None
    for alpha, score in zip(grid.tolist(), scores):
        curve.append((alpha, score))
        if best_score is None or better(score, best_score):
            best_alpha, best_score = alpha, score

    h_star = best_alpha * h_external + (1.0 - best_alpha) * h_internal
    return BlendedMembership(alpha=best_alpha, h_star=h_star, metric_curve=curve)
