import re
import tracemalloc

import numpy as np
import pytest
from scipy.stats import rankdata

from cfaudit import borrowing
from cfaudit.borrowing import (BORROW_METRICS, PROB_MAX, _binary_auc, alpha_grid, brier_score,
                               multiclass_auc, select_alpha)
from cfaudit.models import ModelError


def keys(values):
    return np.asarray(values)


def test_brier_perfect_predictions_zero():
    labels = keys([0, 1, 2, 3])
    probs = np.eye(4)
    assert brier_score(probs, labels) == 0.0


def test_brier_uniform_four_classes():
    labels = keys([0, 3, 1, 2, 0])
    probs = np.full((5, 4), 0.25)
    # per row: 3*(1/4)^2 + (3/4)^2 = 0.75
    assert brier_score(probs, labels) == pytest.approx(0.75, abs=1e-15)


def test_brier_totally_wrong_is_two():
    labels = keys([0, 0, 0])
    probs = np.zeros((3, 4))
    probs[:, 1] = 1.0
    assert brier_score(probs, labels) == 2.0


def test_brier_dimension_mismatch():
    with pytest.raises(ModelError, match="one probability row per group code required"):
        brier_score(np.eye(4), keys([0, 1]))


def test_auc_perfect_separation():
    labels = keys([0, 0, 1, 1])
    probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
    assert multiclass_auc(probs, labels) == 1.0


def test_auc_constant_rows_half():
    labels = keys([0, 1, 0, 1, 1])
    probs = np.full((5, 2), 0.5)
    assert multiclass_auc(probs, labels) == 0.5


def test_auc_single_class_raises():
    with pytest.raises(ModelError, match="multiclass AUC needs at least two group codes"):
        multiclass_auc(np.full((3, 2), 0.5), keys([1, 1, 1]))


def test_auc_matches_pairwise_concordance_count():
    # brute-force oracle: count concordant / tied pairs per class, one vs rest
    rng = np.random.default_rng(0)
    labels = keys([0, 1, 2, 0, 1, 2])
    probs = rng.dirichlet(np.ones(3), size=6)

    def ovr_auc(scores, is_pos):
        total, favorable = 0, 0.0
        for i in range(len(scores)):
            for j in range(len(scores)):
                if is_pos[i] and not is_pos[j]:
                    total += 1
                    if scores[i] > scores[j]:
                        favorable += 1.0
                    elif scores[i] == scores[j]:
                        favorable += 0.5
        return favorable / total

    expected = np.mean([
        ovr_auc(probs[:, k], labels == k)
        for k in range(3)
    ])
    assert multiclass_auc(probs, labels) == pytest.approx(expected, abs=1e-12)


def test_alpha_grid_shape():
    grid = alpha_grid(0.001)
    assert len(grid) == 1001
    assert grid[0] == 0.0 and grid[-1] == 1.0
    with pytest.raises(ValueError):
        alpha_grid(0.3)


@pytest.mark.parametrize("metric", BORROW_METRICS)
def test_select_alpha_identical_inputs_tie_breaks_to_zero(metric):
    rng = np.random.default_rng(1)
    h = rng.dirichlet(np.ones(4), size=30)
    labels = keys(rng.integers(0, 4, 30))
    blend = select_alpha(h, h.copy(), labels, metric=metric, grid_step=0.01)
    assert blend.alpha == 0.0


def test_select_alpha_perfect_external_goes_to_one():
    rng = np.random.default_rng(2)
    n = 40
    lab_idx = rng.integers(0, 4, n)
    labels = keys(lab_idx)
    h_ext = np.zeros((n, 4))
    h_ext[np.arange(n), lab_idx] = 1.0
    h_int = np.full((n, 4), 0.25)
    blend = select_alpha(h_ext, h_int, labels, grid_step=0.001)
    assert blend.alpha == 1.0
    # cross-checked against a fine-grid brute force
    grid = alpha_grid(0.001)
    scores = [brier_score(a * h_ext + (1 - a) * h_int, labels) for a in grid]
    assert grid[int(np.argmin(scores))] == 1.0


def test_select_alpha_anticorrelated_external_goes_to_zero():
    rng = np.random.default_rng(3)
    n = 60
    lab_idx = rng.integers(0, 4, n)
    labels = keys(lab_idx)
    h_int = np.full((n, 4), 0.1)
    h_int[np.arange(n), lab_idx] = 0.7  # well calibrated-ish
    h_ext = np.full((n, 4), 0.7 / 3 + 0.1 / 3)
    h_ext[np.arange(n), lab_idx] = 0.0  # anti-correlated with truth
    h_ext = h_ext / h_ext.sum(axis=1, keepdims=True)
    blend = select_alpha(h_ext, h_int, labels, grid_step=0.001)
    assert blend.alpha == 0.0
    grid = alpha_grid(0.001)
    scores = [brier_score(a * h_ext + (1 - a) * h_int, labels) for a in grid]
    assert grid[int(np.argmin(scores))] == 0.0


def test_select_alpha_matches_bruteforce_oracle_fuzz():
    rng = np.random.default_rng(4)
    for trial in range(10):
        n = int(rng.integers(10, 40))
        labels = keys(rng.integers(0, 4, n))
        h_ext = rng.dirichlet(np.ones(4), size=n)
        h_int = rng.dirichlet(np.ones(4), size=n)
        for metric in ("brier", "auc"):
            blend = select_alpha(h_ext, h_int, labels,
                                 metric=metric, grid_step=0.01)
            grid = alpha_grid(0.01)
            if metric == "brier":
                scores = [brier_score(a * h_ext + (1 - a) * h_int, labels)
                          for a in grid]
                best = int(np.argmin(scores))
            else:
                scores = [multiclass_auc(a * h_ext + (1 - a) * h_int, labels)
                          for a in grid]
                best = int(np.argmax(scores))
            assert blend.alpha == grid[best]


def test_selected_blend_never_worse_than_internal():
    rng = np.random.default_rng(5)
    for trial in range(5):
        n = 50
        labels = keys(rng.integers(0, 4, n))
        h_ext = rng.dirichlet(np.ones(4), size=n)
        h_int = rng.dirichlet(np.ones(4), size=n)
        blend = select_alpha(h_ext, h_int, labels, grid_step=0.01)
        assert brier_score(blend.h_star, labels) <= \
            brier_score(h_int, labels) + 1e-15


def test_blend_stays_row_stochastic_across_grid():
    rng = np.random.default_rng(6)
    h_ext = rng.dirichlet(np.ones(4), size=20)
    h_int = rng.dirichlet(np.ones(4), size=20)
    for alpha in alpha_grid(0.05):
        blended = alpha * h_ext + (1 - alpha) * h_int
        assert np.all(np.abs(blended.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(blended >= 0.0)


def test_select_alpha_brier_curve_is_brier_score_bit_for_bit():
    rng = np.random.default_rng(8)
    labels = keys([3, 0, 3, 1, 0, 1, 3, 0, 1, 1, 3, 0])  # unsorted, class 2 absent
    h_ext = rng.dirichlet(np.ones(4), size=len(labels))
    h_int = rng.dirichlet(np.ones(4), size=len(labels))
    blend = select_alpha(h_ext, h_int, labels, grid_step=0.01)
    assert [a for a, _ in blend.metric_curve] == list(alpha_grid(0.01))
    for alpha, score in blend.metric_curve:
        assert score == brier_score(alpha * h_ext + (1 - alpha) * h_int, labels)
    with pytest.raises(ModelError, match=re.escape("group codes must lie in [0, 4); got 0..9")):
        select_alpha(h_ext, h_int, keys([*labels[:-1], 9]), grid_step=0.01)


@pytest.mark.parametrize("n", [1, 37, 600])
@pytest.mark.parametrize("k", [2, 4, 7, 8, 9, 24, 130, 300])
def test_blocked_brier_curve_is_brier_score_bit_for_bit(k, n, monkeypatch):
    rng = np.random.default_rng(k * 1000 + n)
    labels = keys(rng.integers(0, k, n))
    h_ext = rng.dirichlet(np.ones(k), size=n)
    h_int = rng.dirichlet(np.ones(k), size=n)
    grid = alpha_grid(0.01)
    want = [brier_score(a * h_ext + (1.0 - a) * h_int, labels) for a in grid]
    # the default budget, then blocks of 3 points: 101 = 33 * 3 + 2
    for cells in (borrowing.BRIER_CELLS, 3 * n * k):
        monkeypatch.setattr(borrowing, "BRIER_CELLS", cells)
        blend = select_alpha(h_ext, h_int, labels, grid_step=0.01)
        assert [a for a, _ in blend.metric_curve] == grid.tolist()
        assert [score for _, score in blend.metric_curve] == want
        assert blend.alpha == grid[int(np.argmin(want))]


def test_blocked_brier_ties_across_blocks_go_to_the_smallest_alpha(monkeypatch):
    n, k = 20, 4
    labels = keys(np.arange(n) % k)
    uniform = np.full((n, k), 0.25)  # every blend is exactly uniform
    monkeypatch.setattr(borrowing, "BRIER_CELLS", 3 * n * k)
    blend = select_alpha(uniform, uniform.copy(), labels, grid_step=0.01)
    scores = {score for _, score in blend.metric_curve}
    assert scores == {brier_score(uniform, labels)}
    assert blend.alpha == 0.0


def test_binary_auc_equals_rankdata_reference_bit_for_bit_with_ties():
    def reference(scores, positives):
        n_pos = int(np.sum(positives))
        n_neg = len(scores) - n_pos
        rank_sum = float(np.sum(rankdata(scores)[positives]))
        return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    rng = np.random.default_rng(11)
    for trial in range(500):
        n = int(rng.integers(2, 300))
        levels = int(rng.integers(1, 12))  # few distinct scores: long tie blocks
        scores = rng.integers(0, levels, n) / levels if trial % 3 else rng.random(n)
        positives = rng.random(n) < rng.uniform(0.05, 0.95)
        positives[0], positives[1] = True, False
        assert _binary_auc(scores, positives) == reference(scores, positives)


def test_select_alpha_auc_curve_is_multiclass_auc_bit_for_bit():
    rng = np.random.default_rng(12)
    labels = keys([3, 0, 3, 1, 0, 1, 3, 0, 1, 1, 3, 0])  # unsorted, class 2 absent
    h_ext = rng.dirichlet(np.ones(4), size=len(labels))
    h_int = np.round(rng.dirichlet(np.ones(4), size=len(labels)), 1)  # tied scores
    blend = select_alpha(h_ext, h_int, labels, metric="auc", grid_step=0.01)
    assert [a for a, _ in blend.metric_curve] == list(alpha_grid(0.01))
    for alpha, score in blend.metric_curve:
        assert score == multiclass_auc(alpha * h_ext + (1 - alpha) * h_int, labels)
    with pytest.raises(ModelError, match=re.escape("group codes must lie in [0, 4); got 0..9")):
        select_alpha(h_ext, h_int, keys([*labels[:-1], 9]), metric="auc")
    with pytest.raises(ModelError, match="multiclass AUC needs at least two group codes"):
        select_alpha(h_ext, h_int, keys([1] * len(labels)), metric="auc")


@pytest.mark.parametrize("bad", [-1, 4])
def test_out_of_range_codes_raise_model_error(bad):
    # a negative code must not wrap round to the last column
    rng = np.random.default_rng(13)
    codes = keys([0, 1, 2, 3, 0, bad])
    h = rng.dirichlet(np.ones(4), size=len(codes))
    message = re.escape(f"group codes must lie in [0, 4); got {min(bad, 0)}..{max(bad, 3)}")
    with pytest.raises(ModelError, match=message):
        brier_score(h, codes)
    with pytest.raises(ModelError, match=message):
        multiclass_auc(h, codes)
    for metric in ("brier", "auc"):
        with pytest.raises(ModelError, match=message):
            select_alpha(h, h.copy(), codes, metric=metric, grid_step=0.5)


def auc_case(k, n, seed):
    """Blend inputs whose AUC curve takes both the sort and the tie path.

    Class 0 has one row and, for k > 2, the last class is absent. The last
    row repeats row 1's probabilities and label, so equal keys of one class
    occur at every point; h_internal is rounded to 0.1, so positives tie with
    negatives at alpha 0; and one column holds -0.0 in both matrices for the
    rows of one label."""
    rng = np.random.default_rng(seed)
    present = k - 1 if k > 2 else k
    labels = rng.integers(1, present, n)
    labels[0] = 0
    h_ext = rng.dirichlet(np.ones(k), size=n)
    h_int = np.round(rng.dirichlet(np.ones(k), size=n), 1)
    if n > 2:
        h_ext[-1], h_int[-1], labels[-1] = h_ext[1], h_int[1], labels[1]
    signed = labels == labels[-1]
    h_ext[signed, 0] = h_int[signed, 0] = -0.0
    return h_ext, h_int, keys(labels)


@pytest.mark.parametrize("n", [2, 37, 3000])
@pytest.mark.parametrize("k", [2, 3, 24, 64, 130])
def test_auc_curve_is_multiclass_auc_bit_for_bit(k, n, monkeypatch):
    h_ext, h_int, labels = auc_case(k, n, seed=k * 10_000 + n)
    grid = alpha_grid(0.02)
    want = [multiclass_auc(a * h_ext + (1.0 - a) * h_int, labels) for a in grid]
    classes = len(np.unique(labels))
    # blocks of the default budget, of one class, and of a size that does not divide the classes
    budgets = [borrowing.AUC_CELLS, n] + [m * n for m in range(2, classes) if classes % m][:1]
    tie_path = []
    binary_auc = borrowing._binary_auc
    monkeypatch.setattr(borrowing, "_binary_auc",
                        lambda *args: tie_path.append(1) or binary_auc(*args))
    for cells in budgets:
        monkeypatch.setattr(borrowing, "AUC_CELLS", cells)
        tie_path.clear()
        blend = select_alpha(h_ext, h_int, labels, metric="auc", grid_step=0.02)
        assert [a for a, _ in blend.metric_curve] == grid.tolist()
        assert [score for _, score in blend.metric_curve] == want
        assert blend.alpha == grid[int(np.argmax(want))]
        if n > 2:  # ties at alpha 0 only: the sort path scores every other point
            assert 0 < len(tie_path) <= classes


def test_auc_grid_memory_is_bounded_by_the_class_blocks():
    rng = np.random.default_rng(15)
    n, k = 3000, 24
    labels = keys(rng.integers(0, k, n))
    h_ext = rng.dirichlet(np.ones(k), size=n)
    h_int = rng.dirichlet(np.ones(k), size=n)
    select_alpha(h_ext, h_int, labels, metric="auc", grid_step=0.008)  # lazy imports
    tracemalloc.start()
    try:
        select_alpha(h_ext, h_int, labels, metric="auc", grid_step=0.008)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # h_star and one temporary take 2 n K doubles (1.1 MiB). The peak read
    # 1.18 MiB at 2^14 cells and 3.5 MiB with one block of the whole matrix;
    # per-point blends of the whole matrix took it to 1.73 MiB
    assert peak < 2 * n * k * 8 + 4 * borrowing.AUC_CELLS * 8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, 1.5,
                                 np.nextafter(PROB_MAX, 2.0)])
def test_bad_probability_matrices_raise_before_any_grid_work(bad, monkeypatch):
    def grid_work(*args):
        raise AssertionError("the grid ran on a bad probability matrix")

    monkeypatch.setattr(borrowing, "_brier_curve", grid_work)
    monkeypatch.setattr(borrowing, "_auc_curve", grid_work)
    rng = np.random.default_rng(16)
    codes = keys([0, 1, 2, 3, 0, 1])
    good = rng.dirichlet(np.ones(4), size=len(codes))
    broken = good.copy()
    broken[4, 2] = broken[5, 0] = bad
    message = re.escape(f"row 4, column 2 holds {float(bad)!r}, not a probability")
    with pytest.raises(ValueError, match=message):
        brier_score(broken, codes)
    with pytest.raises(ValueError, match=message):
        multiclass_auc(broken, codes)
    for metric in BORROW_METRICS:
        for pair in ((broken, good), (good, broken)):
            with pytest.raises(ValueError, match=message):
                select_alpha(*pair, codes, metric=metric, grid_step=0.01)


def test_entries_up_to_an_ulp_above_one_and_negative_zero_are_probabilities():
    codes = keys([0, 1, 0, 1])
    probs = np.array([[PROB_MAX, 0.0], [-0.0, 1.0], [0.5, 0.5], [0.25, PROB_MAX]])
    assert multiclass_auc(probs, codes) == 1.0
    assert np.isfinite(brier_score(probs, codes))
    for metric in BORROW_METRICS:
        select_alpha(probs, probs.copy(), codes, metric=metric, grid_step=0.5)
