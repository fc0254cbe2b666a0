"""Log-linear ordering models.

A model scores an ordering of a head and its dependents as the dot product
of a sparse weight vector with the feature counts of that ordering.  The
normalizer is exact: a permutation table cached per n lists all n!
orderings in Steinhaus-Johnson-Trotter order as slot-pair states (ordered
element pair, l/m/r class, adjacency) and 3-5-slot windows, and an
ordering's score is the sum of its states' weights.  `_states` codes each
state of a configuration by its elements' symbols.  Scoring, sampling and
freeness read each state's weight off those codes; training numbers each
distinct code that fires a feature, a pair key or a whitelisted window,
once per corpus, and maps those key numbers to feature ids in one table.
`score` extracts one ordering's features directly and is the reference the
table is tested against.  `train` fits MAP weights under a Gaussian prior
by L-BFGS over the distinct training configurations, scoring the orderings
of each multiset of elements once, one row per distinct arrangement, with
only the key numbers of states that fire a feature kept.  A model is its
weights: the H whitelist only picks which windows training fits.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import AbstractSet, Iterable, Sequence

import numpy as np

from . import DEFAULT_LAMBDA, SpecError, features
from .sjt import sjt_enumerate
from .treebank import (HEAD_RELATION, UNIVERSAL_RELATIONS, UPOS_TAGS, LocalConfig,
                       local_configs, read_input, read_records, write_whole)

MODEL_FORMAT_VERSION = 1
LN2 = math.log(2.0)
MAX_TRAIN_SIZE = 6  # training drops configurations with more elements
PRIOR = 1.0  # precision of the Gaussian prior on each weight
GRAD_TOLERANCE = 1e-6  # training stops once the gradient's inf-norm is this small
MAX_ITERATIONS = 1000
HISTORY = 10  # curvature pairs kept by L-BFGS
GATHER_ROWS = 512  # orderings whose state weights scoring gathers at once
BLOCK_ENTRIES = 1 << 17  # table entries (orderings x columns) training compiles at once
MEMO_MAX_N = 5  # largest configuration whose scores a model keeps


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
    evaluations: int = 0


@dataclass
class OrderingModel:
    """Weights for one (language, POS class) pair.

    Every weight fires, H weights included; features absent from `weights`
    have weight 0.  The weights may not change once `enumerate_scores` has
    kept them by symbol code, and its scores of heads of up to `MEMO_MAX_N`
    elements by observed slots, in `_lookup`.
    """

    language: str
    pos_class: str
    weights: dict[str, float]
    training_meta: TrainingMeta | None = None
    _lookup: tuple | None = field(default=None, init=False, repr=False, compare=False)


def score(model: OrderingModel, config: LocalConfig, order: tuple[int, ...]) -> float:
    """Log of the unnormalized probability of one ordering."""
    counts = features.extract(config, order)
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
_WINDOW_KEYS = 6 * _BASE * _BASE  # pair keys lie below; training keys windows from here


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

    `codes` and `row_of` are int16 (n = 7 has 5,968 states): 0.54 MB of
    codes at n = 7, not 2.2 MB of intp.  Read them by `take`, which casts
    only the chunk it reads to intp; fancy indexing by int16 is twice as
    slow.  The table is built a column at a time, with no n!-by-columns
    temporary.
    """
    orders = tuple(sjt_enumerate(n))
    slots = np.empty((len(orders), n + 2), dtype=np.intp)
    slots[:, 0], slots[:, 1:-1], slots[:, -1] = 0, orders, n + 1
    head_slot = np.argsort(slots, axis=1)[:, 1]
    columns = []
    for i in range(n + 1):
        for j in range(i + 1, n + 2):
            columns.append((i, j, False))
            if features.H_MIN_SPAN <= j - i <= features.H_MAX_SPAN:
                columns.append((i, j, True))
    base = n + 3

    def state_codes(i, j, window):  # one column's codes, before numbering
        if window:  # digits are element + 1, so windows of any length differ
            return 6 * base * base + sum(
                (slots[:, s] + 1) * base ** (s - i) for s in range(i, j + 1))
        dclass = 1 - (j < head_slot) + (i > head_slot)  # l=0, m=1, r=2
        return ((slots[:, i] * base + slots[:, j]) * 3 + dclass) * 2 + (j == i + 1)

    # number the states in order of first occurrence, row by row; pair codes
    # stay below 6 * base**2 and window codes below base**5 past that, so a
    # dense index over them is cheaper than sorting
    codes = np.empty((len(orders), len(columns)), dtype=np.int16)
    first = np.full(6 * base * base + base ** 5, codes.size, dtype=np.int32)
    row_starts = np.arange(len(orders), dtype=np.int32) * len(columns)
    for c, column in enumerate(columns):
        np.minimum.at(first, state_codes(*column), row_starts + c)
    present = np.flatnonzero(first < codes.size)
    present = present[np.argsort(first[present])]
    number = np.zeros(first.size, dtype=np.int16)
    number[present] = np.arange(len(present))
    for c, column in enumerate(columns):
        codes[:, c] = number.take(state_codes(*column))
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
    return orders, codes, pairs, windows, row_of


def _symbol_codes(digits: np.ndarray, pairs: np.ndarray, windows: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The pair keys and window codes (see `_states`) of one configuration of
    n elements, given its symbols' digits in `_sjt_table`'s element order,
    then a 0 that pads windows, and `_sjt_table(n)`'s `pairs` and `windows`;
    of many, a row each, given their digits' rows."""
    return ((_PAIR_RADIX @ digits.take(pairs[1:3], axis=-1)).astype(np.intp) + pairs[3],
            (_WINDOW_RADIX @ digits.take(windows[1:], axis=-1)).astype(np.int64))


def _states(slots: tuple[tuple[str, str], ...], head: int):
    """A configuration's orderings, given `features.observed_slots` of it, as
    rows of `_sjt_table` states, with the states' symbol codes.

    Returns (orders, codes, rows, pair_states, pair_keys, window_states,
    window_codes).  Ordering k of `orders` is row `rows[k]` of `codes`.  Pair
    state `pair_states[m]` has key `pair_keys[m]`: the digits of its two
    symbols and its l/m/r class * 2 + adjacent, in base (`_BASE`, `_BASE`, 6).
    Window state `window_states[m]` has code `window_codes[m]`: its symbols'
    digits, the first lowest, in base `_BASE`.
    """
    orders, codes, pairs, windows, row_of = _sjt_table(len(slots) - 2)
    digits = [_DIGIT[s] for s in slots] + [0]  # a 0 pads windows
    digits[1], digits[head] = digits[head], digits[1]  # the table's head is element 1
    pair_keys, window_codes = _symbol_codes(np.array(digits, dtype=float), pairs, windows)
    return (orders, codes, row_of[head - 1],
            pairs[0], pair_keys, windows[0], window_codes)


@lru_cache(maxsize=1 << 18)
def _pair_names(key: int) -> tuple[str, ...]:
    """The feature names a pair state of key `key` (see `_states`) fires, in
    firing order."""
    (a, b), tail = divmod(key // 6, _BASE), key % 6
    return tuple(features.symbol_pair_names(SYMBOLS[a - 1], SYMBOLS[b - 1], *divmod(tail, 2)))


def _window_names(h_names: Iterable[str]) -> tuple[np.ndarray, list]:
    """The windows among `h_names`, a model's H weight names or a training
    whitelist, that can fire ("H." and 3 to 5 symbols of `SYMBOLS`): their
    sorted window codes (see `_states`), then one past every window, and
    their names in that order, then None."""
    names = {np.iinfo(np.int64).max: None}
    for name in h_names:
        fields = name.split(".")
        digits = [_DIGIT.get(pair) for pair in zip(fields[1::2], fields[2::2])]
        if fields[0] == "H" and None not in digits and len(fields) in (7, 9, 11):
            names[sum(d * _BASE ** k for k, d in enumerate(digits))] = name
    codes = sorted(names)
    return np.array(codes, dtype=np.int64), [names[code] for code in codes]


class _Scored(tuple):
    """(orders, scores), as `enumerate_scores` returns them."""

    @cached_property
    def cdf(self) -> np.ndarray:
        """Running sums of the orderings' normalized probabilities, for sampling."""
        weights = np.exp(self[1] - self[1].max())
        return np.cumsum(weights / weights.sum())


def enumerate_scores(model: OrderingModel, config: LocalConfig
                     ) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """All n! orderings in SJT order with their scores.

    The first ordering is the identity (the configuration's observed order).
    The orderings are `_sjt_table`'s own tuple, shared by every call for n.
    The scores are read-only: a configuration of at most `MEMO_MAX_N`
    elements gets the very pair the model's first call for its observed
    slots returned, and with it the `cdf` that pair's first draw computed.
    """
    key = vars(config).get("observed_slots")  # kept on the configuration once built
    if key is None:
        key = vars(config)["observed_slots"] = features.observed_slots(config)
    slots, head = key
    if model._lookup is None:  # built once per model, then kept on it
        index, names = _window_names(n for n in model.weights if n.startswith("H."))
        model._lookup = ({}, index, np.array([model.weights.get(n, 0.0) for n in names]), {})
    pair_weight, index, window_weight, memo = model._lookup
    if slots in memo:
        return memo[slots]
    orders, codes, rows, pair_states, pair_keys, window_states, window_codes = \
        _states(slots, head)
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
        scores[k:k + GATHER_ROWS] = state_weight.take(codes[k:k + GATHER_ROWS]).sum(axis=1)
    scores = scores.take(rows)
    scores.flags.writeable = False
    scored = _Scored((orders, scores))
    if config.n <= MEMO_MAX_N:
        memo[slots] = scored
    return scored


def log_likelihood(model: OrderingModel, config: LocalConfig) -> float:
    """Log probability (nats) of the configuration's observed order."""
    _, scores = enumerate_scores(model, config)
    m = float(scores.max())
    return float(scores[0]) - m - math.log(float(np.exp(scores - m).sum()))


@lru_cache(maxsize=None)  # one entry per pattern of repeated symbols met
def _arrangements(symbols: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct arrangements of n elements, element e holding symbol
    number `symbols[e - 1]` (0 to n - 1): the rows of `_sjt_table(n)` whose
    symbol sequence no earlier row has; the distinct symbol sequences
    (slots 1 to n, in base n), sorted; and the index among those rows of
    each sequence's."""
    n = len(symbols)
    sequences = np.array(symbols)[np.array(_sjt_table(n)[0]) - 1] @ n ** np.arange(n)
    distinct, first = np.unique(sequences, return_index=True)
    return np.sort(first), distinct, first.argsort().argsort()


class _CompiledCorpus:
    """Deduplicated training configurations, scored once per element multiset.

    `groups` lists the distinct configurations' `features.observed_slots`
    keys, first seen first; `total` counts every configuration.  Groups
    whose head and dependents carry one multiset of symbols share its rows:
    `_sjt_table(n)`'s orderings of the head, then the dependents sorted by
    `_DIGIT`, less each whose symbol sequence an earlier one has, so a row
    stands for Π cᵢ! orderings, cᵢ the copies of each symbol.  Multiset g's
    rows start at `multiset_starts[g]` (`row_multiset` maps rows back), its
    groups' weights (count / `total`) add up to `multiset_weight[g]`, and
    `log_repeats` is Σ multiset weight × log Π cᵢ!.  Group i puts its weight
    on row `observed_rows[i]`, its observed arrangement, in `observed_mass`.

    Each distinct state key that fires a feature id, a pair key or a
    whitelisted window, is numbered once for the corpus, first seen first:
    key `owner[e]` fires id `ids[e]`, its names in firing order, and ids are
    numbered first seen first too.  A row keeps only its live entries, the
    states whose key fires an id, and has at least one.  `rows_by_key`
    lists the row of every live entry, key by key: key k's `key_counts[k]`
    entries from `key_starts[k]` on.  Multisets of one size are compiled
    together, as many as keep their tables within `BLOCK_ENTRIES` entries
    (one at least).
    """

    def __init__(self, configs: Iterable[LocalConfig], whitelist: AbstractSet[str]):
        distinct = Counter(map(features.observed_slots, configs))  # first seen first
        self.groups = list(distinct)
        self.total = sum(distinct.values())
        self.name_index: dict[str, int] = {}
        members: dict[tuple, list] = {}  # each multiset's (group, digits), first seen first
        for i, (slots, head) in enumerate(self.groups):
            digits = [_DIGIT[s] for s in slots[1:-1]]
            multiset = (digits[head - 1], *sorted(digits[:head - 1] + digits[head:]))
            members.setdefault(multiset, []).append((i, digits))
        window_codes, window_names = _window_names(whitelist)
        number, numbered = {-1: -1}, 0  # each state key's number, -1 if it fires nothing
        owner, ids, blocks, multiset_rows, multiset_counts = [], [], [], [], []
        self.observed_rows = np.empty(len(self.groups), dtype=np.intp)
        self.log_repeats, start = 0.0, 0  # start: the next multiset's first row
        bos, eos = _DIGIT[features.BOS, features.BOS], _DIGIT[features.EOS, features.EOS]
        pending = sorted(members, key=len)  # by size, then first seen
        while pending:
            n = len(pending[0])
            _, table, pairs, windows, _ = _sjt_table(n)
            part = [m for m in pending[:max(1, BLOCK_ENTRIES // table.size)] if len(m) == n]
            del pending[:len(part)]
            span = pairs.shape[1] + windows.shape[1]
            # every state of every multiset, head first, keyed by its pair
            # key or by _WINDOW_KEYS + its window's index in the whitelist
            pair_keys, codes = _symbol_codes(
                np.array([(bos, *m, eos, 0) for m in part], dtype=float), pairs, windows)
            found = window_codes.searchsorted(codes)
            state_keys = np.empty((len(part), span), dtype=np.int64)
            state_keys[:, pairs[0]] = pair_keys
            state_keys[:, windows[0]] = np.where(window_codes[found] == codes,
                                                 _WINDOW_KEYS + found, -1)
            unique, first, inverse = np.unique(state_keys.ravel(), return_index=True,
                                               return_inverse=True)
            for key in unique[np.argsort(first)].tolist():  # number keys first seen first
                if key not in number:
                    names = (_pair_names(key) if key < _WINDOW_KEYS
                             else (window_names[key - _WINDOW_KEYS],))
                    number[key] = numbered if names else -1
                    numbered += bool(names)
                    owner += [number[key]] * len(names)
                    ids += [self.name_index.setdefault(name, len(self.name_index))
                            for name in names]
            state_number = np.array([number[key] for key in unique.tolist()])[inverse]
            # each multiset's distinct arrangements, its symbols numbered in
            # order, and the row of each of its groups' observed arrangement
            kept = []
            for multiset in part:
                symbol = {d: s for s, d in enumerate(dict.fromkeys(multiset))}
                rows, sequences, index = _arrangements(tuple(symbol[d] for d in multiset))
                count = 0
                for i, digits in members[multiset]:
                    sequence = sum(symbol[d] * n ** k for k, d in enumerate(digits))
                    self.observed_rows[i] = start + index[sequences.searchsorted(sequence)]
                    count += distinct[self.groups[i]]
                self.log_repeats += count * math.log(math.factorial(n) // len(rows))
                multiset_counts.append(count)
                multiset_rows.append(len(rows))
                kept.append(rows)
                start += len(rows)
            # the live entries' key numbers row by row, and each row's count
            offsets = np.repeat(np.arange(len(part)) * span, [len(rows) for rows in kept])
            tables = state_number[table[np.concatenate(kept)] + offsets[:, None]]
            live = tables >= 0
            blocks.append((tables[live], np.count_nonzero(live, axis=1)))
        self.multiset_weight = np.array(multiset_counts) / self.total
        self.log_repeats /= self.total
        self.owner, self.ids = np.array(owner, dtype=np.intp), np.array(ids, dtype=np.intp)
        multiset_rows = np.array(multiset_rows)
        self.multiset_starts = np.cumsum(multiset_rows) - multiset_rows
        self.row_multiset = np.repeat(np.arange(len(multiset_rows)), multiset_rows)
        self.observed_mass = np.bincount(self.observed_rows, np.array(list(distinct.values()))
                                         / self.total, len(self.row_multiset))
        # the live entries' rows, key by key, each key's in row order, filled
        # block by block so that no step holds more than one block's
        # entries twice; every key is live in some kept row, as
        # `np.add.reduceat` needs: a row left out has the keys of the row
        # kept for it, column by column
        self.key_counts = sum(np.bincount(keys, minlength=numbered) for keys, _ in blocks)
        self.key_starts = np.cumsum(self.key_counts) - self.key_counts
        self.rows_by_key = np.empty(self.key_counts.sum(), dtype=np.intp)
        filled, start = self.key_starts.copy(), 0
        for keys, counts in blocks:
            order = np.argsort(keys.astype(np.min_scalar_type(numbered)), kind="stable")
            keys, block = keys[order], np.bincount(keys, minlength=numbered)
            # an entry goes to its key's first free slot plus its rank among
            # the block's entries of that key
            self.rows_by_key[(filled - np.cumsum(block) + block)[keys] + np.arange(len(keys))] \
                = np.repeat(np.arange(start, start + len(counts)), counts)[order]
            filled += block
            start += len(counts)

    def objective_and_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean log-likelihood per configuration and its gradient.

        The per-configuration mean has the same maximizer as the plain sum
        but keeps the line search well conditioned on large corpora.  A
        row's score sums its live entries' key weights, and each multiset's
        log-partition is its rows' log-sum-exp plus log Π cᵢ!, a constant
        the gradient does not see.  The gradient is each key's
        observed-minus-expected mass, summed over the rows of its live
        entries, added to every feature id the key fires.
        """
        key_weight = np.bincount(self.owner, theta[self.ids])
        scores = np.bincount(self.rows_by_key, np.repeat(key_weight, self.key_counts),
                             len(self.row_multiset))
        top = np.maximum.reduceat(scores, self.multiset_starts)
        probs = np.exp(scores - top.take(self.row_multiset))
        sums = np.add.reduceat(probs, self.multiset_starts)
        # products summed by numpy, not BLAS, whose threads stall on long vectors
        total = float((self.observed_mass * scores).sum()
                      - (self.multiset_weight * (top + np.log(sums))).sum()) - self.log_repeats
        mass = self.observed_mass - probs * (self.multiset_weight / sums).take(self.row_multiset)
        mass = np.add.reduceat(mass.take(self.rows_by_key), self.key_starts)
        return total, np.bincount(self.ids, mass[self.owner], len(self.name_index))


def usable_configs(configs: Sequence[LocalConfig], language: str,
                   pos_class: str) -> list[LocalConfig]:
    """The configurations of at most `MAX_TRAIN_SIZE` elements, which `train`
    fits; ValueError, naming the language and POS class and why, if there
    are none: the split has no head of the class, or every one is too big."""
    if not configs:
        raise ValueError(f"{language} {pos_class}: no usable training configurations "
                         f"(the split has no {pos_class} heads)")
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
                        float(np.max(np.abs(grad), initial=0.0)), converged, evaluations)
    return OrderingModel(language, pos_class, weights, meta)


def interpolate(superstrate: OrderingModel, substrate: OrderingModel,
                lam: float = DEFAULT_LAMBDA) -> OrderingModel:
    """Per-feature blend (1-lam)*superstrate + lam*substrate over the sparse union.

    lam=0 reproduces the superstrate weights, lam=1 the substrate weights;
    a blended weight of 0 is dropped.
    """
    if superstrate.pos_class != substrate.pos_class:
        raise ValueError(
            f"POS class mismatch: {superstrate.pos_class!r} vs {substrate.pos_class!r}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"interpolation weight must be in [0, 1], got {lam}")
    blended = {name: (1.0 - lam) * w for name, w in superstrate.weights.items()}
    for name, w in substrate.weights.items():
        blended[name] = blended.get(name, 0.0) + lam * w
    blended = {name: w for name, w in blended.items() if w != 0.0}
    language = f"{substrate.language}~{superstrate.language}@{superstrate.pos_class}"
    return OrderingModel(language, superstrate.pos_class, blended)


def freeness(model_n: OrderingModel, model_v: OrderingModel,
             trees: Sequence) -> float:
    """Cross-entropy of the models on observed orders relative to uniform.

    Averages -log2 p(observed order) over every N and V head in the trees and
    divides by the matching average of log2 n!.  Heads with no dependents
    contribute zero to both sums.  Near 0 means rigid order, 1 means the
    models do no better than uniform, and above 1 they predict the observed
    orders worse than uniform does.
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
    """Line-oriented model file: header, then the nonzero feature weights in
    name order, printed with full precision.  A weight of 0 scores as an
    absent one, so it is not written.
    """
    lines = [f"#lang {model.language}",
             f"#pos {model.pos_class}",
             f"#version {MODEL_FORMAT_VERSION}"]
    lines += (f"{name}\t{w!r}" for name, w in sorted(model.weights.items()) if w != 0.0)
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> OrderingModel:
    headers, records = read_records(text, ("lang", "pos", "version"))
    version = headers.get("version", (0, None))[1]
    if version is not None and version != str(MODEL_FORMAT_VERSION):
        raise ValueError(f"unsupported model format version {version!r}")
    weights: dict[str, float] = {}
    for lineno, name, sep, value in records:
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
    pos_class = headers.get("pos", (0, ""))[1]
    if not pos_class:
        raise ValueError("model file lacks a #pos header")
    if version is None:
        raise ValueError("model file lacks a #version header")
    return OrderingModel(headers.get("lang", (0, ""))[1], pos_class, weights)


def save_model(model: OrderingModel, path: str | Path) -> None:
    """Write `model_to_text(model)` to `path` whole (`treebank.write_whole`)."""
    write_whole(path, model_to_text(model))


def load_model(path: str | Path) -> OrderingModel:
    return read_input(path, "model file", model_from_text)


def load_language_models(model_dir: str | Path, language: str
                         ) -> tuple[OrderingModel, OrderingModel]:
    """Load the N and V models of one language from `<lang>-<class>.model` files."""
    model_dir = Path(model_dir)
    models = []
    for pos_class in ("N", "V"):
        path = model_dir / f"{language}-{pos_class}.model"
        if not path.exists():
            raise SpecError(f"missing model file {path}")
        model = load_model(path)
        if model.pos_class != pos_class:
            raise SpecError(f"{path} declares POS class {model.pos_class!r}")
        models.append(model)
    return models[0], models[1]
