"""Simulation laboratory with a potential-outcome ground truth.

The generative process draws standard-normal covariates (informative columns
plus pure-noise columns with zero coefficients everywhere), samples the
protected-group vector from a softmax-linear model in the informative
covariates, both potential outcomes from logistic models, scores each unit
with a shared bagged-tree risk model, and finally assigns treatment from a
logistic model that sees the risk flag. External populations carry only
covariates and group labels; their group-model coefficients are first
multiplied by the agreement factor b in [-1, 1].

True error rates come from exact counting of (prediction, untreated outcome,
group) over a large validation draw, never from any estimator.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .config import check_at_least, encode
from .dataset import AuditDataset, Characteristic, ExternalDataset, SchemaSpec
from .estimators import METRICS, report_keys
from .models import BinarySpec, ModelError, MulticlassConfig, _softmax, sigmoid
from .pipeline import (FIT_ERRORS, PipelineConfig, internal_nuisances, map_tasks,
                       run_cells)


@dataclass(frozen=True)
class GroupKey:
    """The levels (a1, a2) of one simulated group."""

    levels: tuple[str, ...]


SIM_LEVELS = ("0", "1")
SIM_GROUPS = tuple(GroupKey(levels) for levels in itertools.product(SIM_LEVELS, SIM_LEVELS))
# columns of the group coefficient matrix follow SIM_GROUPS:
# (0,0) majority, (0,1) M2, (1,0) M1, (1,1) minority
INTERACTION_PAIRS = tuple(itertools.combinations(range(4), 2))
INTERACTION_TRIPLES = tuple(itertools.combinations(range(4), 3))


@dataclass
class DgpCoefficients:
    """Linear-predictor coefficients of the generative models.

    Layouts (intercept first, interaction terms last when enabled):
      group:     (4, 1 + p_informative [+ 10])      class scores for SIM_GROUPS
      y0, y1:    (1 + p_informative + 2 [+ 10],)    covariates then a1, a2
      treatment: (1 + p_informative + 3 [+ 10],)    covariates, a1, a2, then s
    """

    group: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    treatment: np.ndarray


def default_coefficients(p_informative: int = 10, interactions: bool = False) -> DgpCoefficients:
    """Artifact default parameterization: group shares near (55, 20, 20, 5)%
    with the last group rarest, moderate outcome prevalence, and treatment
    that responds to the risk flag. Defined for 10 informative covariates."""
    if p_informative != 10:
        raise ValueError("default coefficients are defined for 10 informative covariates")
    p = p_informative

    def vec(intercept, slopes):
        v = np.zeros(1 + p)
        v[0] = intercept
        for idx, val in slopes.items():
            v[1 + idx] = val
        return v

    group = np.vstack([
        vec(0.0, {}),                       # majority (0,0): reference scores
        vec(-1.15, {1: 0.8, 2: -0.4}),      # (0,1)
        vec(-1.15, {0: 0.8, 2: 0.4}),       # (1,0)
        vec(-2.45, {0: 0.5, 1: 0.5}),       # (1,1) minority
    ])
    y0 = np.concatenate([vec(-1.90, {0: 2.0, 1: 1.6, 2: -1.2, 3: 0.8}), [0.0, 0.0]])
    y1 = np.concatenate([vec(-2.70, {0: 2.0, 1: 1.6, 2: -1.2, 3: 0.8}), [0.0, 0.0]])
    treatment = np.concatenate([vec(-1.10, {0: 0.3}), [0.0, 0.0, 1.40]])

    if interactions:
        inter_group = np.tile(np.array([0.0, *([0.25] * 3), *([-0.25] * 3), 0.15, -0.15, 0.15]),
                              (4, 1)) * np.array([[0.0], [1.0], [-1.0], [0.5]])
        group = np.hstack([group, inter_group])
        inter_y = np.array([0.3, -0.3, 0.2, 0.0, 0.2, -0.2, 0.15, 0.0, -0.15, 0.1])
        y0 = np.concatenate([y0, inter_y])
        y1 = np.concatenate([y1, inter_y])
        treatment = np.concatenate([treatment, 0.5 * inter_y])
    return DgpCoefficients(group=group, y0=y0, y1=y1, treatment=treatment)


def default_sim_pipeline() -> PipelineConfig:
    """Pipeline defaults for simulation runs: lightly ridged logistic
    nuisances (small samples produce constant-outcome strata) and
    single-hidden-layer membership models as in the reference setup."""
    return PipelineConfig(
        pi=BinarySpec(l2=0.01),
        mu=BinarySpec(l2=0.01),
        h_internal=MulticlassConfig(kind="mlp-1hidden", hidden=100, decay=1.0),
        h_external=MulticlassConfig(kind="mlp-1hidden", hidden=100, decay=1.0),
        crossfit_k=1,
    )


@dataclass
class ScenarioConfig:
    n_internal: int = 1000
    n_external: int = 10000
    n_train: int = 1000
    n_validation: int = 50000
    b: float = 1.0  # external-agreement multiplier in [-1, 1]
    p_informative: int = 10
    p_noise: int = 0
    interactions: bool = False
    replications: int = 500
    seed: int = 0
    coefficients: DgpCoefficients | None = None  # None -> defaults
    positive_rate: float = 0.2
    n_trees: int = 100
    max_depth: int = 4
    pipeline: PipelineConfig = field(default_factory=default_sim_pipeline)

    def __post_init__(self):
        if not -1.0 <= self.b <= 1.0:
            raise ValueError(f"b must lie in [-1, 1]; got {self.b!r}")
        for name in ("n_internal", "n_external", "n_train", "n_validation",
                     "p_informative", "replications"):
            check_at_least(name, getattr(self, name), 1)
        check_at_least("p_noise", self.p_noise, 0)
        check_at_least("seed", self.seed, 0)
        _check_risk_settings(self.n_trees, self.max_depth, self.positive_rate)
        if self.coefficients is None:
            self.coefficients = default_coefficients(self.p_informative, self.interactions)
        self._check_shapes()

    def _check_shapes(self):
        n_inter = (len(INTERACTION_PAIRS) + len(INTERACTION_TRIPLES)) if self.interactions else 0
        f_group = 1 + self.p_informative + n_inter
        if self.coefficients.group.shape != (len(SIM_GROUPS), f_group):
            raise ValueError(f"group coefficients must have shape (4, {f_group})")
        f_y = 1 + self.p_informative + 2 + n_inter
        for name in ("y0", "y1"):
            if getattr(self.coefficients, name).shape != (f_y,):
                raise ValueError(f"{name} coefficients must have length {f_y}")
        if self.coefficients.treatment.shape != (f_y + 1,):
            raise ValueError(f"treatment coefficients must have length {f_y + 1}")


def sim_schema(cfg: ScenarioConfig) -> SchemaSpec:
    p_total = cfg.p_informative + cfg.p_noise
    covs = tuple(f"x{j + 1}" for j in range(p_total))
    return SchemaSpec(
        characteristics=(Characteristic("a1", SIM_LEVELS), Characteristic("a2", SIM_LEVELS)),
        treatment="d",
        outcome="y",
        prediction="s",
        covariates=covs,
        external_covariates=covs,
    )


@dataclass
class Population:
    x: np.ndarray
    group_codes: np.ndarray
    y0: np.ndarray | None = None
    y1: np.ndarray | None = None
    d: np.ndarray | None = None
    y: np.ndarray | None = None
    s: np.ndarray | None = None


def _interaction_block(x_inf) -> np.ndarray:
    cols = [x_inf[:, i] * x_inf[:, j] for i, j in INTERACTION_PAIRS]
    cols += [x_inf[:, i] * x_inf[:, j] * x_inf[:, k] for i, j, k in INTERACTION_TRIPLES]
    return np.column_stack(cols)


def _design(cfg, x, extra_cols=()):
    """[1, informative x, extra columns..., interactions] matching the
    coefficient layouts."""
    n = x.shape[0]
    parts = [np.ones((n, 1)), x[:, : cfg.p_informative]]
    parts.extend(np.asarray(c, dtype=np.float64).reshape(n, 1) for c in extra_cols)
    if cfg.interactions:
        parts.append(_interaction_block(x[:, : cfg.p_informative]))
    return np.hstack(parts)


def _sample_categorical(probs, rng):
    """One code per row of probs: how many of the row's first K - 1
    cumulative probabilities lie below its uniform. A row whose sum ends
    below the uniform gets code K - 1, never K."""
    u = rng.random(probs.shape[0])
    cum = np.cumsum(probs[:, :-1], axis=1)
    return np.sum(u[:, None] > cum, axis=1)


# Rows per block of the draws in _population_blocks. Blocks start every
# DRAW_ROWS rows and the last one runs to the end of the population, so no
# block is shorter than DRAW_ROWS unless the whole population is: BLAS
# multiplies short matrices with other kernels, whose last bits can differ.
# A design matrix or probability table then holds at most 2 * DRAW_ROWS rows.
DRAW_ROWS = 8192


def _row_blocks(n) -> list[slice]:
    starts = [DRAW_ROWS * i for i in range(max(1, n // DRAW_ROWS))]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _role_rows(cfg: ScenarioConfig, role: str) -> int:
    sizes = {"train": cfg.n_train, "validation": cfg.n_validation,
             "internal": cfg.n_internal, "external": cfg.n_external}
    if role not in sizes:
        raise ValueError(f"unknown role: {role!r}")
    return sizes[role]


def _population_blocks(cfg: ScenarioConfig, role: str, seed,
                       risk_model: "RiskModel | None" = None) -> Iterator[Population]:
    """The population of generate_population(cfg, role, seed, risk_model), one
    Population per block of _row_blocks(n), in row order.

    The random streams keep one layout: all of x first, then one uniform
    stream of n draws per variable, in the order group, y0, y1, treatment.
    A standard normal takes a varying number of 64-bit outputs, so one pass
    draws and discards x, block by block, to find where the uniforms start.
    A uniform takes exactly one output, so the rows [a, b) of stream k are
    read from a copy of that PCG64 state advanced by k * n + a. x is then
    drawn again, block by block, and no block needs more than its own rows.
    """
    n = _role_rows(cfg, role)
    if role == "internal" and risk_model is None:
        raise ValueError("internal populations need the risk model to assign treatment")
    blocks = _row_blocks(n)
    p = cfg.p_informative + cfg.p_noise
    rng = np.random.default_rng(seed)
    for rows in blocks:
        rng.standard_normal((rows.stop - rows.start, p))
    uniforms_start = rng.bit_generator.state

    def stream(k, rows):
        """A generator positioned at row rows.start of uniform stream k."""
        bits = np.random.PCG64()
        bits.state = uniforms_start
        bits.advance(k * n + rows.start)
        return np.random.Generator(bits)

    group_coef = cfg.coefficients.group * cfg.b if role == "external" else cfg.coefficients.group
    levels = np.array([[int(v) for v in g.levels] for g in SIM_GROUPS])  # code -> (a1, a2)
    rng = np.random.default_rng(seed)
    for rows in blocks:
        x = rng.standard_normal((rows.stop - rows.start, p))
        codes = _sample_categorical(_softmax(_design(cfg, x) @ group_coef.T), stream(0, rows))
        if role == "external":
            yield Population(x=x, group_codes=codes)
            continue
        a = levels[codes]

        def bernoulli(k, coef, *extra_cols):
            """One 0/1 draw per row from stream k and the logistic model coef
            in (x, a1, a2, extra columns)."""
            design = _design(cfg, x, (a[:, 0], a[:, 1], *extra_cols))
            return (stream(k, rows).random(len(x)) < sigmoid(design @ coef)).astype(np.int8)

        y0 = bernoulli(1, cfg.coefficients.y0)
        if role != "internal":
            s = risk_model.predict(x) if risk_model is not None else None
            yield Population(x=x, group_codes=codes, y0=y0, d=np.zeros(len(x), dtype=np.int8),
                             y=y0, s=s)
            continue
        y1 = bernoulli(2, cfg.coefficients.y1)
        s = risk_model.predict(x)
        d = bernoulli(3, cfg.coefficients.treatment, s)
        y = (d * y1 + (1 - d) * y0).astype(np.int8)
        yield Population(x=x, group_codes=codes, y0=y0, y1=y1, d=d, y=y, s=s)


def generate_population(cfg: ScenarioConfig, role: str, seed,
                        risk_model: "RiskModel | None" = None) -> Population:
    """Draw one population for the given role; bit-reproducible given seed.

    The rows come from _population_blocks, which fixes the layout of the
    random streams, and are written into preallocated outputs, so memory
    beyond the outputs does not grow with the population.

    Internal populations require the shared risk model, because treatment is
    assigned after scoring. External populations stop at (x, group). Train
    and validation populations are untreated (d = 0, y = y0) and stop after
    y0: their y1 is None, because nothing reads it."""
    n = _role_rows(cfg, role)
    out = {}
    for rows, block in zip(_row_blocks(n), _population_blocks(cfg, role, seed, risk_model)):
        for name, part in vars(block).items():
            if part is not None:
                if name not in out:
                    out[name] = np.empty((n, *part.shape[1:]), dtype=part.dtype)
                out[name][rows] = part
    return Population(**out)


# ---------------------------------------------------------------------------
# risk model: bagged depth-limited CART trees, Gini splits


@dataclass
class _Tree:
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray  # a leaf's children are the leaf itself
    right: np.ndarray
    value: np.ndarray


def _gini_scores(n_left, pos_left, n, pos):
    """Weighted Gini impurity of cuts that put n_left rows, pos_left of them
    positive, on the left of a node of n rows with pos positives."""
    n_right = n - n_left
    share_left = pos_left / n_left
    share_right = (pos - pos_left) / n_right
    gini_left = 1.0 - share_left ** 2 - (1.0 - share_left) ** 2
    gini_right = 1.0 - share_right ** 2 - (1.0 - share_right) ** 2
    return (n_left * gini_left + n_right * gini_right) / n


def _grow_tree(x, y, max_depth) -> _Tree:
    """One Gini tree on the rows x (n, p) with 0/1 labels y.

    The tree grows a level at a time from one stable argsort per feature
    (the presorting of CART, Breiman et al. 1984, and SLIQ, Mehta, Agrawal &
    Rissanen 1996). ``order[j]`` lists the rows of the level's open nodes node
    by node, each node's rows sorted by feature j with ties in row order, so
    no node sorts again. A node splits at its lowest score over every feature
    and every cut between distinct values, the first feature and then the
    first cut on ties, with the threshold at the cut's midpoint. Nodes are
    numbered level by level, the root 0; each level's left children come
    before its right ones.
    """
    n, p = x.shape
    xt = np.ascontiguousarray(x.T)
    y = y.astype(np.int64)
    # a level splits at most n / 2 nodes, each of two or more rows
    size = min(2 ** (max_depth + 1) - 1, 1 + max_depth * n)
    feature = np.full(size, -1, dtype=np.int64)
    threshold = np.zeros(size)
    left, right = np.arange(size), np.arange(size)
    value = np.empty(size)
    created = 1

    nodes, counts, positives = np.array([0]), np.array([n]), np.array([y.sum()])
    value[0] = positives[0] / n
    nodes = nodes[_can_split(counts, positives)]
    order = np.argsort(xt, axis=1, kind="stable")
    feature_ids = np.arange(p)[:, None]
    for depth in range(max_depth):
        if nodes.size == 0:
            break
        m, k_open = order.shape[1], nodes.size
        # feature j's rows of node k form block j * k_open + k of the flat lists
        starts = np.cumsum(counts) - counts
        block = (np.repeat(np.arange(k_open), counts) + k_open * feature_ids).ravel()
        block_start = (starts + m * feature_ids).ravel()
        xs = xt.ravel()[(order + n * feature_ids).ravel()]
        ys = y[order].ravel()
        below = np.cumsum(ys)
        before = below[block_start] - ys[block_start]
        cut = np.flatnonzero((xs[:-1] < xs[1:]) & (block[:-1] == block[1:]))
        b = block[cut]
        k = b % k_open
        score = _gini_scores((cut - block_start[b] + 1).astype(np.float64),
                             (below[cut] - before[b]).astype(np.float64),
                             counts[k], positives[k])
        # each node's first lowest score, in (feature, cut) order
        best = np.full(k_open, np.inf)
        np.minimum.at(best, k, score)
        first = np.full(k_open, score.size)
        hits = np.flatnonzero(score == best[k])
        np.minimum.at(first, k[hits], hits)
        split = first < score.size
        if not split.any():
            break

        win = first[split]
        parents = nodes[split]
        f = b[win] // k_open
        feature[parents] = f
        threshold[parents] = 0.5 * (xs[cut[win]] + xs[cut[win] + 1])
        n_split = parents.size
        kids = created + np.arange(2 * n_split)  # left children, then right ones
        created += kids.size
        left[parents], right[parents] = kids[:n_split], kids[n_split:]

        rows = order[0]
        at = np.repeat(np.cumsum(split) - 1, counts)  # rank of a row's node among the split
        in_split = np.repeat(split, counts)
        rows, at = rows[in_split], at[in_split]
        goes_right = ~(xt[f[at], rows] <= threshold[parents[at]])
        child = at + n_split * goes_right
        counts = np.bincount(child, minlength=kids.size)
        positives = np.bincount(child[y[rows] == 1], minlength=kids.size)
        value[kids] = positives / counts
        if depth + 1 == max_depth:
            break
        # stable partition: the open children's rows, lefts before rights,
        # each keeping its sorted order; other rows leave the lists
        is_open = _can_split(counts, positives)
        side = np.full(n, 2, dtype=np.int8)
        side[rows] = np.where(is_open[child], goes_right, 2)
        sides = side[order]
        order = np.concatenate([order[sides == 0].reshape(p, -1),
                                order[sides == 1].reshape(p, -1)], axis=1)
        nodes, counts, positives = kids[is_open], counts[is_open], positives[is_open]
    return _Tree(feature=feature[:created], threshold=threshold[:created],
                 left=left[:created], right=right[:created], value=value[:created])


def _can_split(counts, positives):
    return (counts >= 2) & (positives > 0) & (positives < counts)


# Tree x row cells per block of the all-tree walk in RiskModel.predict_score:
# it bounds the walk's work arrays to 512 KiB each, whatever the row count.
WALK_CELLS = 1 << 16


@dataclass
class RiskModel:
    trees: list
    threshold: float
    max_depth: int

    def predict_score(self, x) -> np.ndarray:
        """Mean leaf value over the trees for each row of x.

        All trees walk together, max_depth steps over blocks of rows. A leaf is
        its own child, so a row that reaches one stays there. The leaf values
        are added in tree order, as a running sum from the first tree."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        offsets = np.cumsum([0] + [len(t.feature) for t in self.trees[:-1]])
        feature = np.concatenate([t.feature for t in self.trees])
        if feature.max() >= x.shape[1]:
            raise ValueError(f"the trees split on column {feature.max()} of "
                             f"{x.shape[1]}-column rows")
        # children[2 * node] is the node's right child and children[2 * node + 1]
        # its left one. A leaf's are itself, whatever its row compares.
        children = np.empty((feature.size, 2), dtype=np.int64)
        children[:, 0] = np.concatenate([t.right + o for t, o in zip(self.trees, offsets)])
        children[:, 1] = np.concatenate([t.left + o for t, o in zip(self.trees, offsets)])
        leaf = np.flatnonzero(feature < 0)
        children[leaf] = leaf[:, None]
        children = children.ravel()
        feature = np.maximum(feature, 0)
        threshold = np.concatenate([t.threshold for t in self.trees])
        value = np.concatenate([t.value for t in self.trees])

        total = np.empty(x.shape[0])
        step = max(1, WALK_CELLS // len(self.trees))
        for start in range(0, x.shape[0], step):
            block = x[start:start + step]
            cells = block.ravel()
            row_base = np.arange(block.shape[0]) * block.shape[1]
            node = np.repeat(offsets[:, None], block.shape[0], axis=1)  # (trees, rows)
            for _ in range(self.max_depth):
                goes_left = cells[feature[node] + row_base] <= threshold[node]
                node = children[2 * node + goes_left]
            total[start:start + block.shape[0]] = np.cumsum(value[node], axis=0)[-1]
        return total / len(self.trees)

    def predict(self, x) -> np.ndarray:
        return (self.predict_score(x) >= self.threshold).astype(np.int8)


def _check_risk_settings(n_trees, max_depth, positive_rate) -> None:
    """Raise ValueError unless the risk model settings are in range."""
    check_at_least("n_trees", n_trees, 1)
    check_at_least("max_depth", max_depth, 1)
    if not 0.0 < positive_rate < 1.0:
        raise ValueError(f"positive_rate must lie in (0, 1); got {positive_rate}")


def train_risk_model(x, y, n_trees=100, max_depth=4, positive_rate=0.2,
                     seed=0) -> RiskModel:
    """Bagged classification trees scoring P(y=1|x), thresholded at the
    training-score quantile that flags the requested share of rows."""
    _check_risk_settings(n_trees, max_depth, positive_rate)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("the training outcome must be 0/1")
    if y.min() == y.max():
        raise ModelError("training outcome is constant")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    trees = []
    for child in root.spawn(n_trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, len(y), size=len(y))
        trees.append(_grow_tree(x[boot], y[boot], max_depth))
    model = RiskModel(trees=trees, threshold=0.0, max_depth=max_depth)
    scores = model.predict_score(x)
    k = min(int(np.floor(len(y) * (1.0 - positive_rate))), len(y) - 1)
    model.threshold = float(np.sort(scores)[k])
    return model


# ---------------------------------------------------------------------------
# oracle truth by exact counting


def _rate(events, conditions) -> float:
    return float(events) / int(conditions) if conditions else np.nan


def oracle_error_rates(validation: Iterable[Population], model: RiskModel) -> dict:
    """True counterfactual error rates counted from (s, y0, group) over a
    validation draw given as row blocks (a whole population is one block):
    {(group code or None, metric): rate}, per group and overall. Each block
    adds its integer (group, s, y0) cell counts, so a streamed draw is never
    held whole. NaN marks groups with an empty conditioning event."""
    k = len(SIM_GROUPS)
    counts = np.zeros(4 * k, dtype=np.int64)
    for block in validation:
        if block.y0 is None:
            raise ValueError("validation population must carry the untreated outcome")
        cell = 4 * block.group_codes + 2 * model.predict(block.x) + block.y0
        counts += np.bincount(cell, minlength=4 * k)
    counts = counts.reshape(k, 2, 2)  # [group, s, y0]
    rates = {}
    for code, c in [(None, counts.sum(axis=0)), *enumerate(counts)]:
        for metric, (flagged, outcome) in METRICS.items():
            rates[(code, metric)] = _rate(c[flagged, outcome], c[:, outcome].sum())
    return rates


# ---------------------------------------------------------------------------
# scenario running


def to_audit_dataset(pop: Population, schema: SchemaSpec) -> AuditDataset:
    if pop.d is None or pop.y is None or pop.s is None:
        raise ValueError("population lacks observed columns; generate with role='internal'")
    return AuditDataset(schema=schema, group_codes=pop.group_codes.astype(np.int64),
                        d=pop.d, y=pop.y, s=pop.s, x=pop.x)


def to_external_dataset(pop: Population, schema: SchemaSpec) -> ExternalDataset:
    return ExternalDataset(schema=schema, group_codes=pop.group_codes.astype(np.int64),
                           x=pop.x[:, schema.shared_index])


@dataclass
class ScenarioResult:
    oracle: dict  # oracle_error_rates of the validation draw
    cells: list  # (group code or None, metric, method) per column of values
    values: np.ndarray  # (replications, cells); NaN where inestimable
    alphas: list  # per replication; NaN when borrowing did not run

    def aggregate(self) -> list[dict]:
        """Per cell: mean and 95%-tile interval of the defined replicates,
        plus the NA share; oracle truth attached for plotting."""
        out = []
        for (group, metric, method), arr in zip(self.cells, self.values.T):
            good = arr[~np.isnan(arr)]
            na = int(np.sum(np.isnan(arr)))
            entry = {
                "group": group,
                "metric": metric,
                "method": method,
                "replications": len(arr),
                "na_count": na,
                "na_frac": na / len(arr),
                "mean": float(np.mean(good)) if good.size else None,
                "p2.5": float(np.percentile(good, 2.5)) if good.size else None,
                "p97.5": float(np.percentile(good, 97.5)) if good.size else None,
                "oracle": None,
            }
            truth = self.oracle[(group, metric)]
            if not np.isnan(truth):
                entry["oracle"] = truth
            out.append(entry)
        return out

    def mean_alpha(self) -> float:
        arr = np.asarray(self.alphas, dtype=np.float64)
        good = arr[~np.isnan(arr)]
        return float(np.mean(good)) if good.size else np.nan


# The settings that only a replication's external sample and its borrowing
# step read: sweep points that differ in no other setting share their risk
# model, their oracle, and each replication's internal sample and fits.
EXTERNAL_SETTINGS = ("b", "n_external")
EXTERNAL_PIPELINE_SETTINGS = ("h_external", "borrow", "borrow_metric", "alpha_grid_step")


def _shared_settings(cfg: ScenarioConfig) -> str:
    """cfg's settings less the external-side ones, as a comparable string."""
    settings = encode(cfg)
    for name in EXTERNAL_SETTINGS:
        del settings[name]
    for name in EXTERNAL_PIPELINE_SETTINGS:
        del settings["pipeline"][name]
    return repr(settings)


def _run_replication(args):
    """One replication of every point of a group: one internal sample and
    one fit of its nuisances, then each point's external sample and report.
    Returns each point's value per cell of its cells, and its alpha."""
    points, model, schema, child, cells = args
    sub = child.spawn(3)
    internal_seed, external_seed = sub[0], sub[1]
    pipeline_seed = int(sub[2].generate_state(1)[0] % (2**31 - 1))
    internal = to_audit_dataset(
        generate_population(points[0], "internal", internal_seed, risk_model=model), schema)
    try:
        nuisances = internal_nuisances(internal, points[0].pipeline, pipeline_seed)
    except FIT_ERRORS:
        return [(np.full(len(point_cells), np.nan), np.nan) for point_cells in cells]
    out = []
    for cfg, point_cells in zip(points, cells):
        external = None
        if "proposed-borrowing" in cfg.pipeline.reported_methods(external=True):
            external = to_external_dataset(
                generate_population(cfg, "external", external_seed), schema)
        out.append(run_cells(internal, external, cfg.pipeline, pipeline_seed, point_cells,
                             nuisances))
    return out


def run_sweep(points: list[ScenarioConfig], n_jobs: int = 1) -> list[ScenarioResult]:
    """run_scenario of each point, with the stages the points share run once.

    Points whose settings differ only in EXTERNAL_SETTINGS and
    EXTERNAL_PIPELINE_SETTINGS form a group. A group trains one risk model,
    counts one oracle, and per replication draws one internal sample and fits
    its nuisances once; each point draws its own external sample and selects
    its own alpha. Every result is bit for bit that of run_scenario(point).
    The (group, replication) tasks all run in one map_tasks call."""
    groups = {}
    for i, cfg in enumerate(points):
        groups.setdefault(_shared_settings(cfg), []).append(i)
    plans, tasks = [], []
    for members in groups.values():
        cfg = points[members[0]]
        children = np.random.SeedSequence(cfg.seed).spawn(3 + cfg.replications)
        schema = sim_schema(cfg)
        train = generate_population(cfg, "train", children[0])
        model = train_risk_model(train.x, train.y, n_trees=cfg.n_trees,
                                 max_depth=cfg.max_depth,
                                 positive_rate=cfg.positive_rate, seed=children[2])
        oracle = oracle_error_rates(_population_blocks(cfg, "validation", children[1]), model)
        group = [points[i] for i in members]
        cells = [report_keys(schema.n_groups, p.pipeline.reported_methods(external=True))
                 for p in group]
        plans.append((members, oracle, cells))
        tasks += [(group, model, schema, child, cells) for child in children[3:]]

    done = iter(map_tasks(_run_replication, tasks, n_jobs))
    results = [None] * len(points)
    for members, oracle, cells in plans:
        reps = list(itertools.islice(done, points[members[0]].replications))
        for j, i in enumerate(members):
            values, alphas = zip(*(rep[j] for rep in reps))
            results[i] = ScenarioResult(oracle=oracle, cells=cells[j],
                                        values=np.vstack(values), alphas=list(alphas))
    return results


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Full scenario: one shared risk model, oracle truth from the validation
    draw, then independent estimation replications (fresh internal and, when
    borrowing, external data each time). A replication whose model fit fails
    (ModelError, LinAlgError) becomes a row of NA; any other exception is a
    bug and propagates. Deterministic for a fixed seed; run_sweep([cfg],
    n_jobs) gives the same result in n_jobs worker processes."""
    return run_sweep([cfg])[0]
