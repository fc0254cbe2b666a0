import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deporder.features import (build_h_whitelist, extract, observed_slots,
                               span_name, symbol_pair_groups)
from deporder.treebank import LocalConfig

SUBTREE = LocalConfig((("DET", "det"), ("ADJ", "amod"), ("NOUN", "head")))
SUBTREE_SLOTS, SUBTREE_HEAD = observed_slots(SUBTREE)

# every feature the worked determiner-adjective-noun subtree fires in its
# observed order, derived by hand from the template definitions
SUBTREE_EXPECTED = {
    "A.BOS.BOS.DET.det": 1, "A.BOS.DET": 1, "A.BOS.det": 1,
    "L.DET.det.ADJ.amod": 1, "L.DET.ADJ": 1, "L.det.amod": 1,
    "l.DET.det.ADJ.amod": 1, "l.DET.ADJ": 1, "l.det.amod": 1,
    "A.DET.det.ADJ.amod": 1, "A.DET.ADJ": 1, "A.det.amod": 1,
    "L.DET.det": 1, "L.DET": 1, "L.det": 1,
    "L.ADJ.amod": 1, "L.ADJ": 1, "L.amod": 1,
    "A.ADJ.amod.NOUN.head": 1, "A.ADJ.NOUN": 1, "A.amod.head": 1,
    "A.NOUN.head.EOS.EOS": 1, "A.NOUN.EOS": 1, "A.head.EOS": 1,
    "H.BOS.BOS.DET.det.ADJ.amod": 1,
    "H.BOS.BOS.DET.det.ADJ.amod.NOUN.head": 1,
    "H.BOS.BOS.DET.det.ADJ.amod.NOUN.head.EOS.EOS": 1,
    "H.DET.det.ADJ.amod.NOUN.head": 1,
    "H.DET.det.ADJ.amod.NOUN.head.EOS.EOS": 1,
    "H.ADJ.amod.NOUN.head.EOS.EOS": 1,
}


def random_config(rnd, n):
    tags = ["DET", "ADJ", "NOUN", "ADV", "VERB", "ADP"]
    rels = ["det", "amod", "nsubj", "advmod", "dobj", "case"]
    head = rnd.randrange(n)
    elements = tuple(("NOUN", "head") if i == head
                     else (rnd.choice(tags), rnd.choice(rels))
                     for i in range(n))
    return LocalConfig(elements)


def permuted_slots(config, order):
    """The slots of `config` in `order`, sentinels included, and the head's slot."""
    slots, head = observed_slots(config)
    return (slots[0], *(slots[pos] for pos in order), slots[-1]), order.index(head) + 1


def slot_pair_groups(slots, head_slot, i, j):
    """The feature-name groups fired by the slot pair (i, j), i < j."""
    dclass = 1 - (j < head_slot) + (i > head_slot)
    return symbol_pair_groups(slots[i], slots[j], dclass, j == i + 1)


def pair_names(i, j):
    """All non-H feature names fired by SUBTREE's slot pair (i, j), i < j."""
    return {name for group in slot_pair_groups(SUBTREE_SLOTS, SUBTREE_HEAD, i, j)
            for name in group}


class TestPairFeatures:
    def test_head_direction_pair(self):
        assert pair_names(1, 3) == {"L.DET.det", "L.DET", "L.det"}

    def test_sibling_positional_adjacency_pair(self):
        assert pair_names(1, 2) == {
            "L.DET.det.ADJ.amod", "L.DET.ADJ", "L.det.amod",
            "l.DET.det.ADJ.amod", "l.DET.ADJ", "l.det.amod",
            "A.DET.det.ADJ.amod", "A.DET.ADJ", "A.det.amod",
        }

    def test_head_to_eos_pair(self):
        assert pair_names(3, 4) == {
            "A.NOUN.head.EOS.EOS", "A.NOUN.EOS", "A.head.EOS"}

    def test_sentinel_left_of_head_fires_nothing_directional(self):
        # BOS left of the head is not a real node, so no L features
        assert pair_names(0, 3) == set()

    def test_positional_direction_classes(self):
        config = LocalConfig((("NOUN", "nsubj"), ("NOUN", "head"),
                              ("NOUN", "dobj"), ("ADV", "advmod")))
        # read through `extract`, which assigns the classes
        fired = extract(config, (1, 2, 3, 4))
        assert "m.NOUN.nsubj.NOUN.dobj" in fired
        assert "l.NOUN.nsubj.NOUN.dobj" not in fired
        assert "r.NOUN.dobj.ADV.advmod" in fired
        assert "l.NOUN.nsubj.NOUN.dobj" in extract(config, (1, 3, 2, 4))


class TestHgramFeatures:
    def test_three_slot_span_with_bos(self):
        assert span_name(SUBTREE_SLOTS[0:3]) == "H.BOS.BOS.DET.det.ADJ.amod"

    def test_three_slot_span_inner(self):
        assert span_name(SUBTREE_SLOTS[1:4]) == "H.DET.det.ADJ.amod.NOUN.head"

    def test_span_length_bound(self):
        config = LocalConfig((("DET", "det"), ("ADJ", "amod"),
                              ("ADJ", "amod"), ("NOUN", "head")))
        slots = observed_slots(config)[0]
        fired = extract(config, (1, 2, 3, 4))
        assert span_name(slots[0:6]) not in fired  # six slots is past the limit
        assert span_name(slots[0:5]) in fired
        assert span_name(slots[0:2]) not in fired  # two slots fall short


class TestExtract:
    def test_worked_subtree_exact(self):
        assert dict(extract(SUBTREE, (1, 2, 3))) == SUBTREE_EXPECTED

    def test_lone_head(self):
        lone = LocalConfig((("PRON", "head"),))
        got = extract(lone, (1,), whitelist=set())
        assert dict(got) == {
            "A.BOS.BOS.PRON.head": 1, "A.BOS.PRON": 1, "A.BOS.head": 1,
            "A.PRON.head.EOS.EOS": 1, "A.PRON.EOS": 1, "A.head.EOS": 1,
        }
        with_h = extract(lone, (1,), whitelist=None)
        assert with_h["H.BOS.BOS.PRON.head.EOS.EOS"] == 1
        assert sum(with_h.values()) == 7

    def test_identical_dependents_exchangeable(self):
        config = LocalConfig((("ADJ", "amod"), ("ADJ", "amod"), ("NOUN", "head")))
        assert extract(config, (1, 2, 3)) == extract(config, (2, 1, 3))

    def test_counts_accumulate(self):
        config = LocalConfig((("ADJ", "amod"), ("ADJ", "amod"), ("NOUN", "head")))
        counts = extract(config, (1, 2, 3))
        assert counts["L.ADJ.amod"] == 2

    def test_whitelisting_only_removes(self):
        rnd = random.Random(5)
        for _ in range(20):
            config = random_config(rnd, rnd.randint(1, 5))
            order = tuple(rnd.sample(range(1, config.n + 1), config.n))
            full = extract(config, order, whitelist=None)
            fired_h = {name for name in full if name.startswith("H.")}
            assert extract(config, order, whitelist=fired_h) == full
            restricted = extract(config, order, whitelist=set())
            assert all(not name.startswith("H.") for name in restricted)
            assert set(restricted) <= set(full)

    def test_subtype_and_unknown_bucketing(self):
        config = LocalConfig((("VERB", "acl:rel"), ("BLORP", "zzz"),
                              ("NOUN", "head")))
        counts = extract(config, (1, 2, 3))
        assert counts["L.VERB.acl"] == 1
        assert counts["L.X.dep"] == 1

    def test_pure_function(self):
        a = extract(SUBTREE, (3, 1, 2))
        b = extract(SUBTREE, (3, 1, 2))
        assert a == b and a is not b

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            extract(SUBTREE, (1, 1, 2))

    @pytest.mark.parametrize("order", [(1, 2), (1, 2, 3, 4), (0, 1, 2), (2, 3, 4)])
    def test_order_not_a_permutation_rejected(self, order):
        with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3"):
            extract(SUBTREE, order)

    def test_headless_config_rejected(self):
        bad = LocalConfig((("DET", "det"),))
        with pytest.raises(ValueError, match="0 head elements"):
            extract(bad, (1,))


class TestTemplateInvariants:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=6))
    def test_head_direction_count_and_backoffs(self, seed, n):
        rnd = random.Random(seed)
        config = random_config(rnd, n)
        order = tuple(rnd.sample(range(1, n + 1), n))
        slots, head_slot = permuted_slots(config, order)
        counts = extract(config, order)

        left_of_head = head_slot - 1
        left_names = {f"L.{t}.{r}" for slot, (t, r) in enumerate(slots)
                      if 1 <= slot < head_slot}
        assert sum(counts[name] for name in left_names) == left_of_head

        # every full non-H name has both backoffs, counted at least as often
        for i in range(n + 1):
            for j in range(i + 1, n + 2):
                for group in slot_pair_groups(slots, head_slot, i, j):
                    full, tag_backoff, rel_backoff = group
                    assert counts[tag_backoff] >= counts[full] >= 1
                    assert counts[rel_backoff] >= counts[full]


class TestWhitelist:
    # a lone head fires exactly one H name (the single BOS..EOS span), which
    # makes the counting behavior easy to pin down
    TAGS = ["NOUN", "VERB", "ADJ", "ADV", "DET", "NUM", "ADP", "PRON",
            "PROPN", "AUX"]

    def lone(self, tag):
        return LocalConfig(((tag, "head"),))

    def name_of(self, tag):
        return f"H.BOS.BOS.{tag}.head.EOS.EOS"

    def test_top_decile_of_ten(self):
        # ten distinct H names with counts 10, 9, ..., 1: keep only the top one
        configs = []
        for rank, tag in enumerate(self.TAGS):
            configs.extend([self.lone(tag)] * (10 - rank))
        assert build_h_whitelist(configs) == {self.name_of("NOUN")}

    def test_empty_corpus(self):
        assert build_h_whitelist([]) == set()

    def test_lexicographic_tie_break(self):
        # two names tied at the cutoff count; the smaller name wins
        counts = [5, 5, 1, 1, 1, 1, 1, 1, 1, 1]
        configs = []
        for tag, copies in zip(self.TAGS, counts):
            configs.extend([self.lone(tag)] * copies)
        assert build_h_whitelist(configs) == {
            min(self.name_of("NOUN"), self.name_of("VERB"))}

    def test_ranked_rule_matches_direct_count(self):
        import collections
        import math as _math
        rnd = random.Random(31)
        configs = [random_config(rnd, rnd.randint(1, 5)) for _ in range(200)]
        counter = collections.Counter()
        for c in configs:  # the H names of the observed order, with their counts
            counter.update({name: count for name, count
                            in extract(c, tuple(range(1, c.n + 1))).items()
                            if name.startswith("H.")})
        keep = _math.ceil(0.10 * len(counter))
        expected = {name for name, _ in
                    sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:keep]}
        assert build_h_whitelist(configs) == expected
