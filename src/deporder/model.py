"""Log-linear ordering models.

A model scores an ordering of a head and its dependents as the dot product
of a sparse weight vector with the feature counts of that ordering.  The
normalizer is exact: a permutation table cached per n lists all n!
orderings in Steinhaus-Johnson-Trotter order as slot-pair states (ordered
element pair, l/m/r class, adjacency) and 3-5-slot windows, and an
ordering's score is the sum of its states' weights.  `_states` codes each
state of a configuration by its elements' symbols.  Scoring, sampling and
freeness read each state's weight off those codes; training reads the same
codes, and turns a pair key's names and a whitelisted window's name into
feature ids, once per distinct configuration.  `score` extracts one
ordering's features directly and is the reference the table is tested
against.  `train` fits MAP weights under a Gaussian prior by L-BFGS over the
distinct training configurations, their tables stacked by size.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import AbstractSet, Iterable, Sequence

import numpy as np

from . import features
from .sjt import sjt_enumerate
from .treebank import (HEAD_RELATION, UNIVERSAL_RELATIONS, UPOS_TAGS, LocalConfig,
                       local_configs)

MODEL_FORMAT_VERSION = 1
LN2 = math.log(2.0)
MAX_TRAIN_SIZE = 6  # training drops configurations with more elements
PRIOR = 1.0  # precision of the Gaussian prior on each weight
GRAD_TOLERANCE = 1e-6  # training stops once the gradient's inf-norm is this small
MAX_ITERATIONS = 1000
HISTORY = 10  # curvature pairs kept by L-BFGS
GATHER_ROWS = 512  # orderings whose state weights are gathered at once


@dataclass
class TrainingMeta:
    """Convergence record for one optimization run.

    `objective` is the penalized mean log-likelihood per training
    configuration at the final weights (see `train`); `converged` is False
    when `MAX_ITERATIONS` or float precision stopped the run first.
    `evaluations` counts objective-plus-gradient calls, line search included.
    """

    iterations: int
    objective: float
    grad_inf_norm: float
    converged: bool
    dropped_configs: int = 0
    evaluations: int = 0


@dataclass
class OrderingModel:
    """Weights for one (language, POS class) pair plus its H-feature whitelist.

    Features absent from `weights` have weight 0.  H features outside
    `h_whitelist` never fire.  Neither may change once `enumerate_scores`
    has kept the model's weights by symbol code in `_lookup`.
    """

    language: str
    pos_class: str
    weights: dict[str, float]
    h_whitelist: frozenset[str] = frozenset()
    training_meta: TrainingMeta | None = None
    _lookup: tuple | None = field(default=None, init=False, repr=False, compare=False)


def score(model: OrderingModel, config: LocalConfig, order: tuple[int, ...]) -> float:
    """Log of the unnormalized probability of one ordering."""
    counts = features.extract(config, order, model.h_whitelist)
    w = model.weights
    return sum(w.get(name, 0.0) * c for name, c in counts.items())


# Every symbol a slot can hold, in a fixed order.  A symbol's digit is its
# index + 1 and 0 pads, so windows of 3 to 5 slots in base _BASE never share
# a code; codes stay below _BASE**5 < 2**53, so float64 products are exact.
SYMBOLS = tuple((t, r) for t in sorted(UPOS_TAGS)
                for r in sorted(UNIVERSAL_RELATIONS | {HEAD_RELATION})) \
    + ((features.BOS, features.BOS), (features.EOS, features.EOS))
_DIGIT = {symbol: k for k, symbol in enumerate(SYMBOLS, start=1)}
_BASE = len(SYMBOLS) + 1
_WINDOW_RADIX = float(_BASE) ** np.arange(features.H_MAX_SPAN + 1)
_PAIR_RADIX = np.array([6.0 * _BASE, 6.0])  # pair key: (a, b, class * 2 + adjacent)


@lru_cache(maxsize=None)  # one entry per n; sjt_enumerate rejects n > MAX_N
def _sjt_table(n: int):
    """The orderings of n elements as rows of numbered states.

    Returns (orders, codes, pairs, windows, row_of).  `orders` are the n!
    permutations of 1..n in SJT order, identity first.  Row k of `codes`
    is ordering k with the head at element 1, BOS (element 0) in slot 0 and
    EOS (element n+1) in slot n+1; its columns follow `features.extract`'s
    loop: slot pair (i, j), then the window over slots i..j if it spans 3
    to 5 slots.  States are numbered by first occurrence.  A pair state is
    a column (state, element a, element b, l/m/r class * 2 + adjacent) of
    `pairs`, a window state one (state, its elements, padded to 5 with n+2)
    of `windows`.  With the head at element h, ordering k is row
    `row_of[h - 1][k]`, the ordering with elements 1 and h exchanged.
    """
    orders = tuple(sjt_enumerate(n))
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
    number = np.zeros(first.size, dtype=np.intp)  # gathers fastest by intp
    number[present] = np.arange(len(present))
    pair = present < 6 * base * base
    p, w = present[pair], present[~pair] - 6 * base * base
    pairs = np.stack([np.flatnonzero(pair), p // 6 // base, p // 6 % base, p % 6])
    elements = w // base ** np.arange(features.H_MAX_SPAN + 1)[:, None] % base - 1
    windows = np.vstack([np.flatnonzero(~pair), np.where(elements < 0, n + 2, elements)])
    digits = (n + 2) ** np.arange(n + 2)
    key = slots @ digits
    by_key = np.argsort(key)
    row_of = []
    for h in range(1, n + 1):
        swap = np.arange(n + 2)
        swap[[1, h]] = h, 1
        found = np.searchsorted(key, swap[slots] @ digits, sorter=by_key)
        row_of.append(by_key[found].astype(np.int16))
    return orders, number[codes], pairs, windows, row_of


def _states(config: LocalConfig):
    """`config`'s orderings as rows of `_sjt_table` states, with the states'
    symbol codes.

    Returns (orders, codes, rows, pair_states, pair_keys, window_states,
    window_codes).  Ordering k of `orders` is row `rows[k]` of `codes`.  Pair
    state `pair_states[m]` has key `pair_keys[m]`: the digits of its two
    symbols and its l/m/r class * 2 + adjacent, in base (`_BASE`, `_BASE`, 6).
    Window state `window_states[m]` has code `window_codes[m]`: its symbols'
    digits, the first lowest, in base `_BASE`.
    """
    orders, codes, pairs, windows, row_of = _sjt_table(config.n)
    slots, head = features.observed_slots(config)
    symbols = list(slots)
    symbols[1], symbols[head] = symbols[head], symbols[1]  # the table's head is element 1
    digits = np.array([_DIGIT[s] for s in symbols] + [0], dtype=float)  # 0 pads windows
    return (orders, codes, row_of[head - 1],
            pairs[0], (_PAIR_RADIX @ digits[pairs[1:3]]).astype(np.intp) + pairs[3],
            windows[0], (_WINDOW_RADIX @ digits[windows[1:]]).astype(np.int64))


def _pair_names(key: int) -> list[str]:
    """The feature names a pair state of key `key` (see `_states`) fires, in
    firing order."""
    (a, b), tail = divmod(key // 6, _BASE), key % 6
    return [name for group in features.symbol_pair_groups(
        SYMBOLS[a - 1], SYMBOLS[b - 1], *divmod(tail, 2)) for name in group]


def _window_names(whitelist: AbstractSet[str]) -> dict[int, str]:
    """The whitelisted windows that can fire ("H." and 3 to 5 symbols of
    `SYMBOLS`) by window code (see `_states`)."""
    names = {}
    for name in whitelist:
        fields = name.split(".")
        digits = [_DIGIT.get(pair) for pair in zip(fields[1::2], fields[2::2])]
        if fields[0] == "H" and None not in digits and len(fields) in (7, 9, 11):
            names[sum(d * _BASE ** k for k, d in enumerate(digits))] = name
    return names


def enumerate_scores(model: OrderingModel, config: LocalConfig
                     ) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """All n! orderings in SJT order with their scores.

    The first ordering is the identity (the configuration's observed order).
    The orderings are `_sjt_table`'s own tuple, shared by every call for n.
    """
    orders, codes, rows, pair_states, pair_keys, window_states, window_codes = _states(config)
    if model._lookup is None:  # built once per model, then kept on it
        coded = {code: model.weights.get(name, 0.0)
                 for code, name in _window_names(model.h_whitelist).items()}
        coded[np.iinfo(np.int64).max] = 0.0  # past every window code
        model._lookup = ({}, *map(np.array, zip(*sorted(coded.items()))))
    pair_weight, index, window_weight = model._lookup
    keys = pair_keys.tolist()
    for key in set(keys).difference(pair_weight):  # names summed in firing order
        pair_weight[key] = 0.0
        for name in _pair_names(key):
            pair_weight[key] += model.weights.get(name, 0.0)
    state_weight = np.empty(len(pair_states) + len(window_states))
    state_weight[pair_states] = [pair_weight[key] for key in keys]
    found = index.searchsorted(window_codes)
    state_weight[window_states] = np.where(index[found] == window_codes, window_weight[found], 0.0)
    scores = np.empty(len(codes))  # each table row's summed state weights
    for k in range(0, len(codes), GATHER_ROWS):
        scores[k:k + GATHER_ROWS] = state_weight[codes[k:k + GATHER_ROWS]].sum(axis=1)
    return orders, scores[rows]


def log_likelihood(model: OrderingModel, config: LocalConfig) -> float:
    """Log probability (nats) of the configuration's observed order."""
    _, scores = enumerate_scores(model, config)
    m = float(scores.max())
    return float(scores[0]) - m - math.log(float(np.exp(scores - m).sum()))


class _CompiledCorpus:
    """Deduplicated training configurations, stacked by size into blocks.

    `groups` lists the distinct configurations' normalized keys, first seen
    first; `total` counts every configuration.  Configurations of size n
    share `_sjt_table(n)`'s rows, columns and `span` states, so a block
    (codes, span, owner, ids, weight) stacks the codes of the next up to
    `GATHER_ROWS // n!` (one at least), in size order, into a (groups, n!,
    columns) array.  Its state `i * span + s`, state s of group i, fires the
    feature ids `ids[owner == i * span + s]`: the names of its pair key, or
    its window's name if `whitelist` holds it.  Ids are numbered in state
    order, first seen first.  `weight[i]` is group i's count / `total`.
    """

    def __init__(self, configs: Iterable[LocalConfig], whitelist: AbstractSet[str]):
        distinct: dict[tuple, list] = {}  # key -> [first configuration, count]
        for config in configs:
            key = tuple(features.normalize_symbol(t, r) for t, r in config.elements)
            distinct.setdefault(key, [config, 0])[1] += 1
        self.groups = list(distinct)
        self.total = sum(count for _, count in distinct.values())
        self.name_index: dict[str, int] = {}
        self.blocks = []
        window_names = _window_names(whitelist)
        members = sorted(distinct.values(), key=lambda member: member[0].n)
        while members:
            n = members[0][0].n
            part = [m for m in members[:max(1, GATHER_ROWS // math.factorial(n))]
                    if m[0].n == n]
            del members[:len(part)]
            codes, owners, ids = [], [], []
            for i, (config, _) in enumerate(part):
                _, table, rows, pair_states, pair_keys, window_states, window_codes = \
                    _states(config)
                fired: list = [()] * (len(pair_states) + len(window_states))
                for state, key in zip(pair_states.tolist(), pair_keys.tolist()):
                    fired[state] = _pair_names(key)
                for state, code in zip(window_states.tolist(), window_codes.tolist()):
                    if code in window_names:
                        fired[state] = (window_names[code],)
                span = len(fired)
                codes.append(table[rows].astype(np.min_scalar_type(span)))
                owners.append(np.repeat(np.arange(span) + i * span, [len(f) for f in fired]))
                ids.append(np.array([self.name_index.setdefault(name, len(self.name_index))
                                     for names in fired for name in names], dtype=np.intp))
            self.blocks.append((np.stack(codes), span, np.concatenate(owners),
                                np.concatenate(ids),
                                np.array([count for _, count in part]) / self.total))

    def objective_and_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean log-likelihood per configuration and its gradient.

        The per-configuration mean has the same maximizer as the plain sum
        but keeps the line search well conditioned on large corpora.  The
        gradient is each state's observed-minus-expected mass times its
        group's `weight`, added to every feature id the state fires.
        """
        total, grad = 0.0, np.zeros(len(self.name_index))
        for codes, span, owner, ids, weight in self.blocks:
            state_weight = np.bincount(owner, theta[ids], len(codes) * span)
            states = codes + (np.arange(len(codes)) * span)[:, None, None]
            scores = state_weight[states].sum(axis=2)
            top = scores.max(axis=1, keepdims=True)
            logz = top + np.log(np.exp(scores - top).sum(axis=1, keepdims=True))
            total += float(weight @ (scores[:, 0] - logz[:, 0]))
            probs = np.exp(scores - logz) * -weight[:, None]
            probs[:, 0] += weight  # the observed ordering's states
            mass = np.bincount(states.ravel(), np.repeat(probs.ravel(), codes.shape[2]))
            grad += np.bincount(ids, mass[owner], len(grad))
        return total, grad


def usable_configs(configs: Sequence[LocalConfig], language: str,
                   pos_class: str) -> list[LocalConfig]:
    """The configurations of at most `MAX_TRAIN_SIZE` elements, which `train`
    fits; ValueError, naming the language and POS class, if there are none."""
    usable = [c for c in configs if c.n <= MAX_TRAIN_SIZE]
    if not usable:
        raise ValueError(
            f"{language} {pos_class}: no usable training configurations "
            f"(heads with more than {MAX_TRAIN_SIZE} elements dropped: {len(configs)})")
    return usable


def train(configs: Sequence[LocalConfig],
          whitelist: AbstractSet[str] | None = None,
          language: str = "",
          pos_class: str = "N") -> OrderingModel:
    """MAP weights for the observed orders of `configs` under a unit Gaussian prior.

    Each configuration's element order is its observed ordering.
    Configurations with more than `MAX_TRAIN_SIZE` elements are dropped.  When
    `whitelist` is None it is derived from the observed orders with
    `build_h_whitelist`.  The objective is the mean log-likelihood minus
    `0.5 * PRIOR * |theta|^2 / len(usable)`, a prior of precision `PRIOR` on
    the summed log-likelihood; it is strictly concave with a finite
    maximizer.  L-BFGS ascent (the last `HISTORY` curvature pairs, initial
    inverse curvature s.y / y.y, Armijo backtracking from step 1, or from
    1/|grad|_inf while no pair is kept) runs until the gradient infinity norm
    falls to `GRAD_TOLERANCE` or `MAX_ITERATIONS` is hit (recorded in
    `training_meta`).  Raises the ValueError of `usable_configs` when no
    configuration is left to train.
    """
    usable = usable_configs(configs, language, pos_class)
    dropped = len(configs) - len(usable)
    if whitelist is None:
        whitelist = features.build_h_whitelist(usable)

    corpus = _CompiledCorpus(usable, whitelist)
    precision = PRIOR / corpus.total

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = corpus.objective_and_gradient(theta)
        return value - 0.5 * precision * float(theta @ theta), grad - precision * theta

    theta = np.zeros(len(corpus.name_index))
    value, grad = objective(theta)
    evaluations = 1
    pairs: deque = deque(maxlen=HISTORY)  # (s, y, 1 / s.y), oldest first
    iterations = 0
    converged = bool(np.max(np.abs(grad), initial=0.0) <= GRAD_TOLERANCE)
    while not converged and iterations < MAX_ITERATIONS:
        iterations += 1
        # two-loop recursion: direction = H grad, H the inverse curvature of -f
        direction = grad.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * float(s @ direction))
            direction -= alphas[-1] * y
        if pairs:  # initial inverse curvature s.y / y.y from the newest pair
            _, y, rho = pairs[-1]
            direction /= rho * float(y @ y)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            direction += (alpha - rho * float(y @ direction)) * s
        slope = float(grad @ direction)
        if slope <= 0.0:  # not an ascent direction: restart along the gradient
            pairs.clear()
            direction, slope = grad, float(grad @ grad)
        step = 1.0 if pairs else min(1.0, 1.0 / float(np.max(np.abs(grad))))
        while True:
            candidate = theta + step * direction
            new_value, new_grad = objective(candidate)
            evaluations += 1
            if new_value >= value + 1e-4 * step * slope or step < 1e-12:
                break
            step /= 2.0
        if new_value <= value and step < 1e-12:
            break  # no achievable ascent direction at float precision
        s, y = candidate - theta, grad - new_grad
        curvature = float(s @ y)
        if curvature > 0.0:  # a pair without it would break H's positivity
            pairs.append((s, y, 1.0 / curvature))
        theta, value, grad = candidate, new_value, new_grad
        converged = bool(np.max(np.abs(grad)) <= GRAD_TOLERANCE)

    weights = {name: float(theta[i]) for name, i in corpus.name_index.items()
               if theta[i] != 0.0}
    meta = TrainingMeta(iterations, float(value),
                        float(np.max(np.abs(grad), initial=0.0)), converged,
                        dropped_configs=dropped, evaluations=evaluations)
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
    numerator: list[float] = []
    denominator: list[float] = []
    for tree in trees:
        for pos_class, model in (("N", model_n), ("V", model_v)):
            for config in local_configs(tree, pos_class):
                if config.n > 1:
                    numerator.append(-log_likelihood(model, config) / LN2)
                    denominator.append(math.log(math.factorial(config.n)) / LN2)
    # exact sums, so the result does not depend on the order of the trees
    total = math.fsum(denominator)
    if total == 0.0:
        raise ValueError("freeness undefined: no head with two or more elements")
    return math.fsum(numerator) / total


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
            try:
                weight = float(value)
            except ValueError:
                raise ValueError(f"line {lineno}: weight {value!r} is not a number") from None
            if not math.isfinite(weight):
                raise ValueError(f"line {lineno}: weight {value!r} is not finite")
            if name in weights:
                raise ValueError(f"line {lineno}: repeated feature {name!r}")
            weights[name] = weight
            if name.startswith("H."):
                whitelist.add(name)
    if not pos_class:
        raise ValueError("model file lacks a #pos header")
    return OrderingModel(language, pos_class, weights, frozenset(whitelist))


def save_model(model: OrderingModel, path: str | Path) -> None:
    Path(path).write_text(model_to_text(model), encoding="utf-8")


def load_model(path: str | Path) -> OrderingModel:
    return model_from_text(Path(path).read_text(encoding="utf-8"))
