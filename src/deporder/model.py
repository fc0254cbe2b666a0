"""Log-linear ordering models.

A model scores an ordering of a head and its dependents as the dot product
of a sparse weight vector with the feature counts of that ordering.  The
normalizer is exact: one table per configuration covers all n! orderings
in Steinhaus-Johnson-Trotter order and serves scoring, sampling, freeness,
the expected feature vector and training.  It is read off a permutation
table cached per n, which breaks every ordering into slot-pair states
(ordered element pair, l/m/r class, adjacency) and 3-5-slot windows; each
distinct state's feature names are built once per configuration.  `score`
extracts one ordering's features directly and is the reference the table
is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import AbstractSet, Iterable, Sequence

import numpy as np

from . import features
from .features import ExtendedSequence, identity_order, pair_groups, span_name
from .sjt import sjt_enumerate
from .treebank import HEAD_RELATION, LocalConfig, local_configs

MODEL_FORMAT_VERSION = 1
LN2 = math.log(2.0)
MAX_TRAIN_SIZE = 6  # training drops configurations with more elements


@dataclass
class TrainingMeta:
    """Convergence record for one optimization run.

    `objective` is the mean log-likelihood per training configuration at the
    final weights; `converged` is False when the iteration cap stopped the
    run first.
    """

    iterations: int
    objective: float
    grad_inf_norm: float
    converged: bool
    dropped_configs: int = 0
    objective_history: list[float] = field(default_factory=list)


@dataclass
class OrderingModel:
    """Weights for one (language, POS class) pair plus its H-feature whitelist.

    Features absent from `weights` have weight 0.  H features outside
    `h_whitelist` never fire for this model.
    """

    language: str
    pos_class: str
    weights: dict[str, float]
    h_whitelist: frozenset[str] = frozenset()
    training_meta: TrainingMeta | None = None


def uniform_model(language: str = "", pos_class: str = "N") -> OrderingModel:
    """All-zero weights: every ordering of a configuration is equally likely."""
    return OrderingModel(language, pos_class, {}, frozenset())


def score(model: OrderingModel, config: LocalConfig, order: tuple[int, ...]) -> float:
    """Log of the unnormalized probability of one ordering."""
    counts = features.extract(config, order, model.h_whitelist)
    w = model.weights
    return sum(w.get(name, 0.0) * c for name, c in counts.items())


@lru_cache(maxsize=None)  # one entry per n; sjt_enumerate rejects n > MAX_N
def _sjt_table(n: int):
    """The orderings of n elements as rows of numbered states.

    Returns (orders, codes, states, row_of).  `orders` are the n!
    permutations of 1..n in SJT order, identity first.  Row k of `codes`
    is ordering k with the head at element 1, BOS (element 0) in slot 0 and
    EOS (element n+1) in slot n+1; its columns follow `features.extract`'s
    loop: slot pair (i, j), then the window over slots i..j if it spans 3
    to 5 slots.  A pair's state is its ordered element pair, l/m/r class
    and adjacency, a window's its elements.  States are numbered by first
    occurrence; `states[s]` is (elements by slot, head slot, i, j,
    is_window) there.  With the head at element h, ordering k is row
    `row_of[h - 1][k]`, the ordering with elements 1 and h exchanged.
    """
    orders = tuple(perm for perm, _ in sjt_enumerate(n))
    rows = [(0, *perm, n + 1) for perm in orders]
    slots = np.array(rows)
    head_slot = np.argsort(slots, axis=1)[:, 1]
    columns = []
    for i in range(n + 1):
        for j in range(i + 1, n + 2):
            columns.append((i, j, False))
            if features.H_MIN_SPAN <= j - i <= features.H_MAX_SPAN:
                columns.append((i, j, True))
    base = n + 3
    codes = np.empty((len(orders), len(columns)), dtype=np.int32)
    for c, (i, j, window) in enumerate(columns):
        if window:  # digits are element + 1, so windows of any length differ
            codes[:, c] = 6 * base * base + sum(
                (slots[:, s] + 1) * base ** (s - i) for s in range(i, j + 1))
        else:
            dclass = 1 - (j < head_slot) + (i > head_slot)  # l=0, m=1, r=2
            codes[:, c] = ((slots[:, i] * base + slots[:, j]) * 3 + dclass) * 2 \
                + (j == i + 1)
    # number the states in order of first occurrence; pair codes stay below
    # 6 * base**2 and window codes below base**5 past that, so a dense index
    # over them is cheaper than sorting
    first = np.full(6 * base * base + base ** 5, codes.size, dtype=np.int32)
    np.minimum.at(first, codes.ravel(), np.arange(codes.size, dtype=np.int32))
    present = np.flatnonzero(first < codes.size)
    present = present[np.argsort(first[present])]
    number = np.zeros(first.size, dtype=np.min_scalar_type(len(present)))
    number[present] = np.arange(len(present))
    states = []
    for flat in first[present].tolist():
        k, c = divmod(flat, len(columns))
        states.append((rows[k], int(head_slot[k]), *columns[c]))
    digits = (n + 2) ** np.arange(n + 2)
    key = slots @ digits
    by_key = np.argsort(key)
    row_of = []
    for h in range(1, n + 1):
        swap = np.arange(n + 2)
        swap[[1, h]] = h, 1
        found = np.searchsorted(key, swap[slots] @ digits, sorter=by_key)
        row_of.append(by_key[found].astype(np.int16))
    return orders, number[codes], states, row_of


def _ordering_table(config: LocalConfig, whitelist: AbstractSet[str] | None
                    ) -> tuple[tuple, list[str], np.ndarray, np.ndarray]:
    """Every ordering of `config` as a row of table states and their names.

    Returns (orders, names, owner, codes): state `codes[k, c]` is what
    column c of ordering k fires, and it fires `names[m]` for every m with
    `owner[m]` equal to it, in firing order.  Row k thus lists
    `features.extract(config, orders[k], whitelist)` name by name in its
    firing order.  Names come from `pair_groups` and `span_name`, once per
    state of the shared `_sjt_table`.
    """
    seq = ExtendedSequence.from_config(config, identity_order(config.n))
    orders, codes, states, row_of = _sjt_table(config.n)
    head = seq.head_slot
    symbols = list(seq.slots)  # by table element: the head is element 1
    symbols[1], symbols[head] = symbols[head], symbols[1]
    names: list[str] = []
    owner: list[int] = []
    last_row = slots = None
    for state, (row, head_slot, i, j, window) in enumerate(states):
        if row is not last_row:  # states come grouped by ordering
            last_row, slots = row, tuple([symbols[e] for e in row])
        if window:
            name = span_name(slots, i, j)
            if whitelist is None or name in whitelist:
                names.append(name)
                owner.append(state)
        else:
            for group in pair_groups(slots, head_slot, i, j):
                names.extend(group)
                owner.extend((state,) * len(group))
    return orders, names, np.array(owner, dtype=np.intp), codes[row_of[head - 1]]


def _scored_table(model: OrderingModel, config: LocalConfig):
    orders, names, owner, codes = _ordering_table(config, model.h_whitelist)
    w = model.weights
    weight = np.bincount(owner, weights=[w.get(name, 0.0) for name in names],
                         minlength=int(codes.max()) + 1)
    scores = np.empty(len(orders))
    for start in range(0, len(orders), 1024):  # bounds the gathered block
        scores[start:start + 1024] = weight[codes[start:start + 1024]].sum(axis=1)
    return orders, names, owner, codes, scores


def enumerate_scores(model: OrderingModel, config: LocalConfig
                     ) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """All n! orderings in SJT order with their scores.

    The first ordering is the identity (the configuration's observed order).
    """
    orders, _, _, _, scores = _scored_table(model, config)
    return list(orders), scores


def _logsumexp(scores: np.ndarray) -> float:
    m = float(scores.max())
    return m + math.log(float(np.exp(scores - m).sum()))


def log_partition(model: OrderingModel, config: LocalConfig) -> float:
    _, scores = enumerate_scores(model, config)
    return _logsumexp(scores)


def log_partition_and_expectation(model: OrderingModel, config: LocalConfig
                                  ) -> tuple[float, dict[str, float]]:
    """Exact log normalizer and expected feature vector for one configuration.

    Each state's probability mass over all orderings is added to every
    name the state fires.
    """
    _, names, owner, codes, scores = _scored_table(model, config)
    logz = _logsumexp(scores)
    probs = np.exp(scores - logz)
    mass = np.bincount(codes.ravel(), weights=np.repeat(probs, codes.shape[1]))
    expected: dict[str, float] = {}
    for name, m in zip(names, mass[owner].tolist()):
        expected[name] = expected.get(name, 0.0) + m
    return logz, expected


def log_likelihood(model: OrderingModel, config: LocalConfig) -> float:
    """Log probability (nats) of the configuration's observed order."""
    _, scores = enumerate_scores(model, config)
    return float(scores[0]) - _logsumexp(scores)


def mean_log_likelihood(model: OrderingModel, configs: Sequence[LocalConfig]) -> float:
    if not configs:
        raise ValueError("no configurations")
    return sum(log_likelihood(model, c) for c in configs) / len(configs)


@dataclass
class TrainHyper:
    """Full-batch gradient ascent with backtracking line search."""

    max_iterations: int = 200
    grad_tolerance: float = 1e-5


class _CompiledCorpus:
    """Deduplicated training configurations with precomputed feature matrices."""

    def __init__(self, configs: Iterable[LocalConfig],
                 whitelist: AbstractSet[str] | None):
        self.name_index: dict[str, int] = {}
        self.groups: list[tuple[int, np.ndarray, np.ndarray, np.ndarray, int]] = []
        seen: dict[tuple, int] = {}
        order_counts: list[int] = []
        for config in configs:
            key = tuple(features.normalize_symbol(t, r) for t, r in config.elements)
            if key in seen:
                order_counts[seen[key]] += 1
                continue
            seen[key] = len(order_counts)
            order_counts.append(1)
            orders, names, owner, codes = _ordering_table(config, whitelist)
            local: dict[str, int] = {}
            rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
            ids = np.full((int(codes.max()) + 1, int(rank.max()) + 1), -1)
            ids[owner, rank] = [local.setdefault(name, len(local)) for name in names]
            # one row per ordering, its names in firing order; count each
            # name at its first firing, as features.extract does
            fired = ids[codes].reshape(len(orders), -1)
            row, pos = np.nonzero(fired >= 0)
            cells, first, counts = np.unique(row * len(local) + fired[row, pos],
                                             return_index=True, return_counts=True)
            by_firing = np.argsort(first)
            rows, local_cols = np.divmod(cells[by_firing], len(local))
            # hand out global ids in order of first appearance
            local_names = list(local)
            present, at = np.unique(local_cols, return_index=True)
            to_global = np.empty(len(local), dtype=np.int32)
            for lc in present[np.argsort(at)].tolist():
                to_global[lc] = self.name_index.setdefault(
                    local_names[lc], len(self.name_index))
            self.groups.append((len(orders), rows.astype(np.int32),
                                to_global[local_cols],
                                counts[by_firing].astype(float), seen[key]))
        self.multiplicities = order_counts
        self.total = sum(order_counts)

    @property
    def n_features(self) -> int:
        return len(self.name_index)

    def objective_and_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean log-likelihood per configuration and its gradient.

        The per-configuration mean has the same maximizer as the plain sum
        but keeps the line search well conditioned on large corpora.
        """
        total = 0.0
        grad = np.zeros(len(self.name_index))
        for n_perms, rows, cols, vals, group_id in self.groups:
            mult = self.multiplicities[group_id] / self.total
            s = np.bincount(rows, weights=vals * theta[cols], minlength=n_perms)
            m = s.max()
            logz = m + math.log(np.exp(s - m).sum())
            p = np.exp(s - logz)
            total += mult * (s[0] - logz)
            obs = rows == 0
            grad += np.bincount(cols[obs], weights=mult * vals[obs],
                                minlength=len(grad))
            grad -= np.bincount(cols, weights=mult * p[rows] * vals,
                                minlength=len(grad))
        return total, grad


def train(configs: Sequence[LocalConfig],
          whitelist: AbstractSet[str] | None = None,
          hyper: TrainHyper | None = None,
          language: str = "",
          pos_class: str = "N") -> OrderingModel:
    """Maximum-likelihood weights for the observed orders of `configs`.

    Each configuration's element order is its observed ordering.
    Configurations with more than `MAX_TRAIN_SIZE` elements are dropped.  When
    `whitelist` is None it is derived from the observed orders with
    `build_h_whitelist`.  The objective is concave; gradient ascent with
    backtracking runs until the gradient infinity norm falls below tolerance
    or the iteration cap is hit (recorded in `training_meta`).
    """
    hyper = hyper or TrainHyper()
    usable = [c for c in configs if c.n <= MAX_TRAIN_SIZE]
    dropped = len(configs) - len(usable)
    if not usable:
        raise ValueError("no usable training configurations")
    if whitelist is None:
        whitelist = features.build_h_whitelist(usable)

    corpus = _CompiledCorpus(usable, whitelist)
    theta = np.zeros(corpus.n_features)
    value, grad = corpus.objective_and_gradient(theta)
    history = [value]
    step = 1.0
    iterations = 0
    converged = bool(np.max(np.abs(grad), initial=0.0) <= hyper.grad_tolerance)
    while not converged and iterations < hyper.max_iterations:
        iterations += 1
        gg = float(grad @ grad)
        while True:
            candidate = theta + step * grad
            new_value, new_grad = corpus.objective_and_gradient(candidate)
            if new_value >= value + 1e-4 * step * gg or step < 1e-12:
                break
            step /= 2.0
        if new_value <= value and step < 1e-12:
            break  # no achievable ascent direction at float precision
        theta, value, grad = candidate, new_value, new_grad
        history.append(value)
        step *= 2.0
        converged = bool(np.max(np.abs(grad)) <= hyper.grad_tolerance)

    names = sorted(corpus.name_index, key=corpus.name_index.get)
    weights = {name: float(theta[corpus.name_index[name]])
               for name in names if theta[corpus.name_index[name]] != 0.0}
    meta = TrainingMeta(iterations, float(value),
                        float(np.max(np.abs(grad), initial=0.0)), converged,
                        dropped_configs=dropped, objective_history=history)
    return OrderingModel(language, pos_class, weights, frozenset(whitelist), meta)


def interpolate(superstrate: OrderingModel, substrate: OrderingModel,
                lam: float = 0.05) -> OrderingModel:
    """Per-feature blend (1-lam)*superstrate + lam*substrate over the sparse union.

    The H whitelists are unioned.  lam=0 reproduces the superstrate weights,
    lam=1 the substrate weights.
    """
    if superstrate.pos_class != substrate.pos_class:
        raise ValueError(
            f"POS class mismatch: {superstrate.pos_class!r} vs {substrate.pos_class!r}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"interpolation weight must be in [0, 1], got {lam}")
    blended: dict[str, float] = {}
    for name, w in superstrate.weights.items():
        blended[name] = (1.0 - lam) * w
    for name, w in substrate.weights.items():
        blended[name] = blended.get(name, 0.0) + lam * w
    blended = {name: w for name, w in blended.items() if w != 0.0}
    language = f"{substrate.language}~{superstrate.language}@{superstrate.pos_class}"
    return OrderingModel(language, superstrate.pos_class, blended,
                         superstrate.h_whitelist | substrate.h_whitelist)


def freeness(model_n: OrderingModel, model_v: OrderingModel,
             trees: Sequence) -> float:
    """Cross-entropy of the models on observed orders relative to uniform.

    Averages -log2 p(observed order) over every N and V head in the trees and
    divides by the matching average of log2 n!.  Heads with no dependents
    contribute zero to both sums.  Near 0 means rigid order, 1 means the
    models do no better than uniform.
    """
    numerator = 0.0
    denominator = 0.0
    nodes = 0
    for tree in trees:
        for pos_class, model in (("N", model_n), ("V", model_v)):
            for config in local_configs(tree, pos_class):
                nodes += 1
                if config.n == 1:
                    continue
                numerator -= log_likelihood(model, config) / LN2
                denominator += math.log(math.factorial(config.n)) / LN2
    if nodes == 0 or denominator == 0.0:
        raise ValueError("freeness undefined: no head with two or more elements")
    return numerator / denominator


def model_to_text(model: OrderingModel) -> str:
    """Line-oriented model file: header, then feature weights in name order.

    Whitelisted H features are written even at weight zero so the whitelist
    survives a round trip.  Weights are printed with full precision.
    """
    entries = {name: w for name, w in model.weights.items() if w != 0.0}
    for name in model.h_whitelist:
        entries.setdefault(name, model.weights.get(name, 0.0))
    lines = [f"#lang {model.language}",
             f"#pos {model.pos_class}",
             f"#version {MODEL_FORMAT_VERSION}"]
    for name in sorted(entries):
        lines.append(f"{name}\t{entries[name]!r}")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> OrderingModel:
    language = ""
    pos_class = ""
    weights: dict[str, float] = {}
    whitelist: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#lang "):
            language = line[len("#lang "):].strip()
        elif line.startswith("#pos "):
            pos_class = line[len("#pos "):].strip()
        elif line.startswith("#version "):
            version = line[len("#version "):].strip()
            if version != str(MODEL_FORMAT_VERSION):
                raise ValueError(f"unsupported model format version {version!r}")
        elif line.startswith("#"):
            raise ValueError(f"line {lineno}: unknown header {line!r}")
        else:
            name, sep, value = line.partition("\t")
            if not sep:
                raise ValueError(f"line {lineno}: expected <name>\\t<weight>")
            weights[name] = float(value)
            if name.startswith("H."):
                whitelist.add(name)
    if not pos_class:
        raise ValueError("model file lacks a #pos header")
    return OrderingModel(language, pos_class, weights, frozenset(whitelist))


def save_model(model: OrderingModel, path: str | Path) -> None:
    Path(path).write_text(model_to_text(model), encoding="utf-8")


def load_model(path: str | Path) -> OrderingModel:
    return model_from_text(Path(path).read_text(encoding="utf-8"))
