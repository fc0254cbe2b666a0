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


def observed_slots(config: LocalConfig) -> tuple[tuple[tuple[str, str], ...], int]:
    """The observed order's slots, BOS first and EOS last, and the head's slot.

    Raises ValueError unless exactly one element carries the head relation.
    """
    slots = ((BOS, BOS), *(normalize_symbol(*e) for e in config.elements), (EOS, EOS))
    heads = [k for k, (_, rel) in enumerate(slots) if rel == HEAD_RELATION]
    if len(heads) != 1:
        raise ValueError(f"configuration has {len(heads)} head elements, not one")
    return slots, heads[0]


@lru_cache(maxsize=1 << 18)
def symbol_pair_groups(a, b, dclass: int, adjacent: bool):
    """Feature-name groups fired by symbol `a` in a slot before symbol `b`'s,
    the slots both left of the head, straddling it or both right of it for
    `dclass` 0, 1 or 2.  Each group is a (full, tag-backoff, relation-backoff)
    triple, save the head-direction group, whose backoffs drop one field each.
    Only the sentinels have tags BOS and EOS."""
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


@lru_cache(maxsize=1 << 18)
def span_name(symbols: tuple) -> str:
    """The higher-order k-gram name over a tuple of contiguous slots' symbols."""
    return "H." + ".".join(f"{t}.{r}" for t, r in symbols)


def extract(config: LocalConfig, order: tuple[int, ...],
            whitelist: AbstractSet[str] | None = None) -> Counter:
    """Feature counts for one ordering of a configuration.

    `whitelist` restricts H features to the given names; None keeps all.
    Counts accumulate when the same name fires for several pairs.
    """
    observed, head = observed_slots(config)
    top = config.n + 1
    if sorted(order) != list(range(1, top)):
        raise ValueError(f"order {order!r} is not a permutation of 1..{config.n}")
    slots = (observed[0], *(observed[pos] for pos in order), observed[top])
    head_slot = order.index(head) + 1
    counts: Counter = Counter()
    for i in range(top):
        for j in range(i + 1, top + 1):
            dclass = 1 - (j < head_slot) + (i > head_slot)
            for group in symbol_pair_groups(slots[i], slots[j], dclass, j == i + 1):
                counts.update(group)
            if H_MIN_SPAN <= j - i <= H_MAX_SPAN:
                name = span_name(slots[i:j + 1])
                if whitelist is None or name in whitelist:
                    counts[name] += 1
    return counts


def build_h_whitelist(configs: Iterable[LocalConfig]) -> set[str]:
    """Most frequent tenth of the H feature names fired by observed orders.

    The cutoff is ceil(0.10 * distinct names); ties at the cutoff are broken
    by lexicographic name order.  An empty corpus yields an empty set.
    """
    counts: Counter = Counter()
    for config in configs:
        slots = observed_slots(config)[0]
        for i in range(len(slots)):
            for j in range(i + H_MIN_SPAN, min(i + H_MAX_SPAN + 1, len(slots))):
                counts[span_name(slots[i:j + 1])] += 1
    if not counts:
        return set()
    keep = math.ceil(H_WHITELIST_FRACTION * len(counts))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {name for name, _ in ranked[:keep]}
