"""Sparse ordering features over a permuted head+dependents sequence.

A sequence of n elements is extended with sentinel slots: slot 0 is
(BOS, BOS), slot n+1 is (EOS, EOS), slots 1..n hold the permuted elements
as (tag, relation) pairs, exactly one of which has the relation "head".

Feature names are stable dot-separated strings (model files depend on them
byte for byte).  Writing t for tags and r for relations:

  head direction   L.t_i.r_i   L.t_i   L.r_i          element i left of the head
  sibling          L.t_i.r_i.t_j.r_j   L.t_i.t_j   L.r_i.r_j
  positional       d.t_i.r_i.t_j.r_j   d.t_i.t_j   d.r_i.r_j
                   with d = l / m / r for both-left / straddling / both-right
                   of the head
  adjacency        A.t_i.r_i.t_j.r_j   A.t_i.t_j   A.r_i.r_j   for j = i+1
  higher-order     H.t_i.r_i. ... .t_j.r_j   over 3 to 5 contiguous slots

Each non-H feature naming both tags and relations comes with the two backoff
forms shown (tags only, relations only).  H features have no backoffs and
are subject to a whitelist of the most frequent names in training data.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import AbstractSet, Iterable

from .treebank import HEAD_RELATION, UNIVERSAL_RELATIONS, UPOS_TAGS, LocalConfig

BOS = "BOS"
EOS = "EOS"

H_WHITELIST_FRACTION = 0.10
H_MIN_SPAN = 2  # slot distance j - i, i.e. 3 slots
H_MAX_SPAN = 4  # 5 slots


def normalize_symbol(tag: str, relation: str) -> tuple[str, str]:
    """Bucket a (tag, relation) pair into the closed feature alphabet.

    Unknown tags become "X"; relations are reduced to their universal prefix,
    unknown prefixes become "dep".  The synthetic "head" relation is kept.
    """
    if tag not in UPOS_TAGS:
        tag = "X"
    if relation != HEAD_RELATION:
        relation = relation.split(":", 1)[0]
        if relation not in UNIVERSAL_RELATIONS:
            relation = "dep"
    return tag, relation


@dataclass(frozen=True)
class ExtendedSequence:
    """Permuted elements with sentinels; slots[0] is BOS, slots[n+1] is EOS."""

    slots: tuple[tuple[str, str], ...]
    head_slot: int

    @property
    def n(self) -> int:
        return len(self.slots) - 2

    @classmethod
    def from_config(cls, config: LocalConfig, order: tuple[int, ...]) -> "ExtendedSequence":
        n = config.n
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError(f"order {order!r} is not a permutation of 1..{n}")
        slots = [(BOS, BOS)]
        head_slot = 0
        for k, pos in enumerate(order, start=1):
            tag, rel = normalize_symbol(*config.elements[pos - 1])
            if rel == HEAD_RELATION:
                if head_slot:
                    raise ValueError("configuration has more than one head element")
                head_slot = k
            slots.append((tag, rel))
        slots.append((EOS, EOS))
        if not head_slot:
            raise ValueError("configuration has no head element")
        return cls(tuple(slots), head_slot)


def identity_order(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


@lru_cache(maxsize=1 << 18)
def symbol_pair_groups(a, b, dclass: int, adjacent: bool):
    """Feature-name groups fired by symbol `a` in a slot before symbol `b`'s,
    the slots both left of the head, straddling it or both right of it for
    `dclass` 0, 1 or 2.  Only the sentinels have tags BOS and EOS."""
    (ti, ri), (tj, rj) = a, b
    groups = []
    if rj == HEAD_RELATION and ti != BOS:
        groups.append((f"L.{ti}.{ri}", f"L.{ti}", f"L.{ri}"))
    if ti != BOS and tj != EOS and HEAD_RELATION not in (ri, rj):  # siblings
        d = "lmr"[dclass]
        groups.append((f"L.{ti}.{ri}.{tj}.{rj}", f"L.{ti}.{tj}", f"L.{ri}.{rj}"))
        groups.append((f"{d}.{ti}.{ri}.{tj}.{rj}", f"{d}.{ti}.{tj}", f"{d}.{ri}.{rj}"))
    if adjacent:
        groups.append((f"A.{ti}.{ri}.{tj}.{rj}", f"A.{ti}.{tj}", f"A.{ri}.{rj}"))
    return tuple(groups)


def pair_groups(slots, head_slot: int, i: int, j: int):
    """Feature-name groups fired by the ordered slot pair (i, j), i < j.

    Each group is a (full, tag-backoff, relation-backoff) triple, except the
    head-direction group whose backoffs drop one field each.
    """
    return symbol_pair_groups(slots[i], slots[j],
                              1 - (j < head_slot) + (i > head_slot), j == i + 1)


@lru_cache(maxsize=1 << 18)
def _span_name(symbols) -> str:
    return "H." + ".".join(f"{t}.{r}" for t, r in symbols)


def span_name(slots, i: int, j: int) -> str:
    """The higher-order k-gram name over contiguous slots i..j."""
    return _span_name(tuple(slots[i:j + 1]))


def pair_features(seq: ExtendedSequence, i: int, j: int) -> list[str]:
    """All non-H feature names fired by the pair (i, j), 0 <= i < j <= n+1."""
    if not 0 <= i < j <= seq.n + 1:
        raise ValueError(f"bad slot pair ({i}, {j}) for n={seq.n}")
    return [name for group in pair_groups(seq.slots, seq.head_slot, i, j)
            for name in group]


def hgram_features(seq: ExtendedSequence, i: int, j: int) -> list[str]:
    """The H feature over slots i..j, or [] when the span is not 3-5 slots."""
    if not 0 <= i < j <= seq.n + 1:
        raise ValueError(f"bad slot span ({i}, {j}) for n={seq.n}")
    if not H_MIN_SPAN <= j - i <= H_MAX_SPAN:
        return []
    return [span_name(seq.slots, i, j)]


def extract(config: LocalConfig, order: tuple[int, ...],
            whitelist: AbstractSet[str] | None = None) -> Counter:
    """Feature counts for one ordering of a configuration.

    `whitelist` restricts H features to the given names; None keeps all.
    Counts accumulate when the same name fires for several pairs.
    """
    seq = ExtendedSequence.from_config(config, order)
    slots, head_slot = seq.slots, seq.head_slot
    top = seq.n + 1
    counts: Counter = Counter()
    for i in range(top):
        for j in range(i + 1, top + 1):
            for group in pair_groups(slots, head_slot, i, j):
                counts.update(group)
            if H_MIN_SPAN <= j - i <= H_MAX_SPAN:
                name = span_name(slots, i, j)
                if whitelist is None or name in whitelist:
                    counts[name] += 1
    return counts


def iter_h_names(config: LocalConfig, order: tuple[int, ...]) -> Iterable[str]:
    """H feature names fired by one ordering (with multiplicity)."""
    seq = ExtendedSequence.from_config(config, order)
    top = seq.n + 1
    for i in range(top):
        for j in range(i + H_MIN_SPAN, min(i + H_MAX_SPAN, top) + 1):
            yield span_name(seq.slots, i, j)


def build_h_whitelist(configs: Iterable[LocalConfig]) -> set[str]:
    """Most frequent tenth of the H feature names fired by observed orders.

    The cutoff is ceil(0.10 * distinct names); ties at the cutoff are broken
    by lexicographic name order.  An empty corpus yields an empty set.
    """
    counts: Counter = Counter()
    for config in configs:
        counts.update(iter_h_names(config, identity_order(config.n)))
    if not counts:
        return set()
    keep = math.ceil(H_WHITELIST_FRACTION * len(counts))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {name for name, _ in ranked[:keep]}
