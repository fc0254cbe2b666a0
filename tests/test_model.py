import itertools
import math
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from deporder import features
from deporder.features import extract, observed_slots
from deporder import model as model_module
from deporder.model import (BLOCK_ENTRIES, GATHER_ROWS, GRAD_TOLERANCE, MAX_TRAIN_SIZE,
                            MEMO_MAX_N, PRIOR, OrderingModel, _CompiledCorpus, _sjt_table,
                            _states, enumerate_scores, freeness, interpolate, load_model,
                            log_likelihood, model_from_text, model_to_text, score, train)
from deporder.sjt import sjt_enumerate
from deporder.synthesis import RngStream, sample_ordering
from deporder.treebank import (DepTree, LocalConfig, Token, filter_for_generation,
                               is_projective, local_configs)

from conftest import (fixture_training_inputs, load_split, log_partition, src_env,
                      train_fixture_model)

SUBTREE = LocalConfig((("DET", "det"), ("ADJ", "amod"), ("NOUN", "head")))
DET_PAIR = LocalConfig((("DET", "det"), ("X", "head")))
DET_MODEL = OrderingModel("hand", "N", {"A.BOS.BOS.DET.det": 1.0})
UNIFORM = OrderingModel("u", "N", {})  # all-zero weights

TAGS = ["DET", "ADJ", "NOUN", "ADV", "VERB", "ADP", "PRON"]
RELS = ["det", "amod", "nsubj", "advmod", "dobj", "case", "nmod"]


def random_config(rnd, n):
    head = rnd.randrange(n)
    elements = tuple(("NOUN", "head") if i == head
                     else (rnd.choice(TAGS), rnd.choice(RELS))
                     for i in range(n))
    return LocalConfig(elements)


def random_model(rnd, config, n_weights=15):
    """Random weights over features that actually fire for this configuration."""
    names = set(extract(config, tuple(range(1, config.n + 1))))
    shuffled = tuple(rnd.sample(range(1, config.n + 1), config.n))
    names |= set(extract(config, shuffled))
    chosen = rnd.sample(sorted(names), min(n_weights, len(names)))
    return OrderingModel("rand", "N", {name: rnd.gauss(0.0, 1.0) for name in chosen})


def brute_force_logz(model, config):
    scores = [score(model, config, p)
              for p in itertools.permutations(range(1, config.n + 1))]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_force_expectation(model, config, whitelist=None):
    """The log-partition and the expected feature counts, H features
    restricted to `whitelist` (None keeps all)."""
    logz = brute_force_logz(model, config)
    acc = {}
    for perm in itertools.permutations(range(1, config.n + 1)):
        p = math.exp(score(model, config, perm) - logz)
        for name, count in extract(config, perm, whitelist).items():
            acc[name] = acc.get(name, 0.0) + p * count
    return logz, acc


def fired_h_names(configs):
    """Every H name that some ordering of some configuration fires."""
    return frozenset(name for c in configs
                     for perm in itertools.permutations(range(1, c.n + 1))
                     for name in extract(c, perm) if name.startswith("H."))


def corpus_gradient(model, config):
    """The gradient by name of a one-configuration corpus's log-likelihood
    at the model's weights, every window it fires whitelisted: observed
    minus expected feature counts."""
    corpus = _CompiledCorpus([config], fired_h_names([config]))
    theta = np.array([model.weights.get(name, 0.0) for name in corpus.name_index])
    _, grad = corpus.objective_and_gradient(theta)
    return dict(zip(corpus.name_index, grad.tolist()))


def corpus_expectation(model, config):
    """Expected feature counts: observed counts minus `corpus_gradient`."""
    observed = extract(config, tuple(range(1, config.n + 1)))
    return {name: observed.get(name, 0) - g
            for name, g in corpus_gradient(model, config).items()}


class TestScore:
    def test_zero_weights(self):
        for perm in itertools.permutations((1, 2, 3)):
            assert score(UNIFORM, SUBTREE, perm) == 0.0

    def test_single_feature_fires(self):
        model = OrderingModel("t", "N", {"L.DET.det": 2.0})
        assert score(model, SUBTREE, (1, 2, 3)) == 2.0

    def test_single_feature_silent(self):
        model = OrderingModel("t", "N", {"L.DET.det": 2.0})
        assert score(model, SUBTREE, (3, 1, 2)) == 0.0  # DET right of head


def first_occurrence_numbering(n):
    """The states of `_sjt_table(n)`'s rows numbered apart from its code: each
    ordering's slots (BOS, the elements, EOS) read in `features.extract`'s
    pair loop, a pair state keyed by (element a, element b, l/m/r class,
    adjacent) and a window by its elements, and every key numbered densely
    by first occurrence over the rows read in order."""
    number, rows = {}, []
    for perm in sjt_enumerate(n):
        slots = (0, *perm, n + 1)
        head = slots.index(1)
        row = []
        for i in range(n + 1):
            for j in range(i + 1, n + 2):
                states = [("pair", slots[i], slots[j], 0 if j < head else 2 if i > head else 1,
                           j == i + 1)]
                if features.H_MIN_SPAN <= j - i <= features.H_MAX_SPAN:
                    states.append(slots[i:j + 1])
                row += [number.setdefault(state, len(number)) for state in states]
        rows.append(row)
    return np.array(rows)


class TestSjtTable:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_codes_are_int16_numbered_by_first_occurrence(self, n):
        codes = _sjt_table(n)[1]
        assert codes.dtype == np.int16 and codes.flags.c_contiguous
        assert np.array_equal(codes, first_occurrence_numbering(n))

    def test_largest_table_builds_without_factorial_temporaries(self):
        # an index over every (ordering, column) entry, or intp codes, would
        # take the traced peak to about 7 MB
        probe = ("import tracemalloc; from deporder.model import _sjt_table; "
                 "tracemalloc.start(); _sjt_table(7); "
                 "print(tracemalloc.get_traced_memory()[1])")
        result = subprocess.run([sys.executable, "-c", probe], env=src_env(),
                                capture_output=True, text=True, timeout=120)
        assert int(result.stdout) < 5_000_000, result.stderr


class TestIncrementalScoring:
    def test_exhaustive_small(self):
        rnd = random.Random(11)
        for n in range(1, 6):
            for _ in range(6):
                config = random_config(rnd, n)
                model = random_model(rnd, config)
                orders, scores = enumerate_scores(model, config)
                assert len(orders) == math.factorial(n)
                for order, s in zip(orders, scores):
                    assert abs(score(model, config, order) - s) < 1e-9

    @pytest.mark.parametrize("n", [6, 7])
    def test_sampled_large(self, n):
        rnd = random.Random(n)
        config = random_config(rnd, n)
        model = random_model(rnd, config)
        orders, scores = enumerate_scores(model, config)
        assert len(set(orders)) == math.factorial(n)
        check = rnd.sample(range(len(orders)), 200)
        for k in check:
            assert abs(score(model, config, orders[k]) - scores[k]) < 1e-9


# Weight or whitelist names that no window can fire: not H (one with the
# fields of a lone head's window), too few or too many fields, an odd field
# count (one a lone head's window plus a field), six symbols, an unknown tag
# or relation, a sentinel out of place.
NEVER_FIRING = frozenset({
    "", "H", "H.a", "L.DET.det", "L.BOS.BOS.NOUN.head.EOS.EOS",
    "H.DET.det.NOUN.head", "H.DET.det.NOUN.head.EOS", "H.BOS.BOS.NOUN.head.EOS.EOS.x",
    "H.BOS.BOS.DET.det.ADJ.amod.NOUN.head.ADP.case.EOS.EOS",
    "H.FOO.det.NOUN.head.EOS.EOS", "H.DET.nmod:poss.NOUN.head.EOS.EOS",
    "H.BOS.BOS.BOS.BOS.NOUN.head", "H.NOUN.head.EOS.EOS.EOS.EOS",
})


# one multiset, a repeated symbol among its dependents, in three observed
# orders with the head in a different slot each
ONE_MULTISET = [LocalConfig((("ADJ", "amod"), ("DET", "det"), ("ADJ", "amod"), ("NOUN", "head"))),
                LocalConfig((("NOUN", "head"), ("ADJ", "amod"), ("ADJ", "amod"), ("DET", "det"))),
                LocalConfig((("DET", "det"), ("ADJ", "amod"), ("NOUN", "head"), ("ADJ", "amod")))]


def name_table_scores(model, *configs):
    """Every ordering's score of `configs[0]` from the names a corpus of
    `configs`, which must form one multiset, gives its keys, with the
    model's H weight names whitelisted, as every weight fires: weights added
    per key by `np.bincount`, each state of `configs[0]` given the weight of
    its symbol key's number (a dead one 0.0), then each ordering's states,
    dead ones included, gathered and summed."""
    whitelist = {n for n in model.weights if n.startswith("H.")}
    corpus = _CompiledCorpus(configs, whitelist)
    assert len(corpus.multiset_starts) == 1
    numbers = state_numbers(corpus, whitelist)[0]
    key = observed_slots(configs[0])
    state_number = np.array([numbers.get(symbol, -1)
                             for symbol in state_symbols(key, whitelist)[0]])
    _, table, order_rows, *_ = _states(*key)
    codes = table[order_rows]
    names = list(corpus.name_index)
    key_weight = np.bincount(
        corpus.owner, [model.weights.get(names[i], 0.0) for i in corpus.ids.tolist()])
    state_weight = np.where(state_number >= 0, key_weight[state_number], 0.0)
    scores = np.empty(len(codes))
    for k in range(0, len(scores), GATHER_ROWS):
        scores[k:k + GATHER_ROWS] = state_weight[codes[k:k + GATHER_ROWS]].sum(axis=1)
    return tuple(sjt_enumerate(configs[0].n)), scores


def h_weight_models(rnd, config):
    """Models with random weights on a third of the names `config` fires
    and on `NEVER_FIRING`.  Of the weights on fired H names, they keep all,
    none, and those on a random half of the H names `config` fires."""
    fired = sorted(_CompiledCorpus([config], fired_h_names([config])).name_index)
    h_names = [name for name in fired if name.startswith("H.")]
    weights = {name: rnd.gauss(0.0, 1.0) for name in rnd.sample(fired, len(fired) // 3)}
    weights |= {name: rnd.gauss(0.0, 1.0) for name in NEVER_FIRING}
    for kept in (h_names, (), rnd.sample(h_names, len(h_names) // 2)):
        yield OrderingModel("rand", "N", {name: w for name, w in weights.items()
                                          if name in kept or name not in h_names})


def alike_pairs():
    """Pairs of configurations that differ only in a relation subtype, an
    unknown tag or a dependent labelled head, and so normalize alike."""
    def adj_noun_verb(deprel):  # ADJ and NOUN dependents of a VERB head
        return local_configs(DepTree((
            Token(1, "big", "big", "ADJ", head=3, deprel=deprel),
            Token(2, "dog", "dog", "NOUN", head=3, deprel="nsubj"),
            Token(3, "ran", "ran", "VERB", head=0, deprel="root"))), "V")[0]

    return [(LocalConfig((("DET", "det:poss"), ("ADJ", "amod"), ("NOUN", "head"))),
             LocalConfig((("DET", "det"), ("ADJ", "amod"), ("NOUN", "head")))),
            (LocalConfig((("FOO", "amod"), ("NOUN", "head"), ("ADP", "case"))),
             LocalConfig((("X", "amod"), ("NOUN", "head"), ("ADP", "case")))),
            (adj_noun_verb("head"), adj_noun_verb("nosuch"))]


def coded_cases(rnd):
    """Configurations of every size 1..7, unknown labels and repeated symbols."""
    return [random_config(rnd, n) for n in range(1, 8)] + [
        LocalConfig((("ADJ", "amod"),) * 3 + (("NOUN", "head"),)),
        LocalConfig((("FOO", "nmod:poss"), ("VERB", "head"),
                     ("NOUN", "weird"), ("NOUN", "nmod:tmod"))),
    ]


class TestSymbolCodedScores:
    def test_bit_identical_to_the_name_table(self):
        rnd = random.Random(83)
        for config in coded_cases(rnd):
            for model in h_weight_models(rnd, config):
                orders, scores = enumerate_scores(model, config)
                ref_orders, ref_scores = name_table_scores(model, config)
                assert orders == ref_orders
                assert scores.tobytes() == ref_scores.tobytes()
                for order, s in zip(orders, scores.tolist()):
                    assert abs(score(model, config, order) - s) < 1e-12
        # configurations alike once normalized compile to one group of two,
        # whose scores are each one's
        for pair in alike_pairs():
            assert pair[0].elements != pair[1].elements
            for model in h_weight_models(rnd, pair[0]):
                ref_scores = name_table_scores(model, *pair)[1]
                for config in pair:
                    assert enumerate_scores(model, config)[1].tobytes() == ref_scores.tobytes()
        # arrangements of one multiset compile to its rows, whose keys give
        # each arrangement's scores
        for model in h_weight_models(rnd, ONE_MULTISET[0]):
            for k, config in enumerate(ONE_MULTISET):
                ref_scores = name_table_scores(model, config, *ONE_MULTISET[:k],
                                               *ONE_MULTISET[k + 1:])[1]
                assert enumerate_scores(model, config)[1].tobytes() == ref_scores.tobytes()

    def test_one_model_over_many_configurations(self, xx_models, sov_n_model):
        # the model's pair-weight memo is shared by every configuration it
        # scores, so a key that mixed two symbol pairs up would show here
        rnd = random.Random(89)
        blended = interpolate(sov_n_model, xx_models[0])
        trees = load_split("xx", "dev") + load_split("xx", "test")
        configs = [c for t in filter_for_generation(trees)
                   for pos_class in ("N", "V") for c in local_configs(t, pos_class)]
        configs += [random_config(rnd, n) for n in (5, 6, 7) for _ in range(2)]
        for model in (blended, xx_models[1]):
            for config in configs:
                scores = enumerate_scores(model, config)[1]
                assert scores.tobytes() == name_table_scores(model, config)[1].tobytes()

    def test_scoring_builds_no_window_name(self, monkeypatch, xx_train_trees,
                                           xx_models, sov_n_model):
        def refuse(*args):
            raise AssertionError("a window name was built")

        kept = filter_for_generation(xx_train_trees)
        configs = [c for t in kept for c in local_configs(t, "N")]
        usable = [c for c in configs if c.n <= MAX_TRAIN_SIZE]
        whitelist = fixture_training_inputs("xx", "N")[1]
        # fresh models, so their symbol-coded weights are built under the patch
        model_n = interpolate(sov_n_model, xx_models[0])
        model_v = interpolate(xx_models[1], xx_models[1], 0.0)
        monkeypatch.setattr(features, "span_name", refuse)
        # training under an explicit whitelist names no window either
        assert _CompiledCorpus(usable, whitelist).name_index
        assert train(usable, whitelist).training_meta.converged
        for config in configs:
            enumerate_scores(model_n, config)
            sample_ordering(model_n, config, RngStream("guard", config.n))
        assert math.isfinite(freeness(model_n, model_v, kept))


class TestScoreMemo:
    @pytest.fixture
    def configs(self):
        rnd = random.Random(97)
        trees = filter_for_generation(load_split("xx", "dev") + load_split("xx", "test"))
        configs = [c for t in trees for c in local_configs(t, "N")]
        configs += [random_config(rnd, n) for n in range(2, 8) for _ in range(3)]
        # the same observed slots from other raw labels: a subtype, an
        # unknown tag and an unknown relation normalize onto the first
        configs += [LocalConfig((("DET", "det:poss"), ("NOUN", "head"))),
                    LocalConfig((("DET", "det"), ("NOUN", "head"))),
                    LocalConfig((("XYZ", "amod"), ("NOUN", "head"))),
                    LocalConfig((("X", "nosuch"), ("NOUN", "head"))),
                    LocalConfig((("X", "dep"), ("NOUN", "head")))]
        return configs

    def test_hit_equals_a_fresh_model_bit_for_bit(self, configs, xx_models,
                                                  sov_n_model):
        blended = interpolate(sov_n_model, xx_models[0])
        first = [enumerate_scores(blended, config) for config in configs]
        for config, (orders, scores) in zip(configs, first):
            hit = enumerate_scores(blended, config)
            fresh = enumerate_scores(interpolate(sov_n_model, xx_models[0]), config)
            assert hit[0] == fresh[0] == orders
            assert hit[1].tobytes() == fresh[1].tobytes()
            assert (hit[1] is scores) == (config.n <= MEMO_MAX_N)

    def test_nothing_above_the_bound_is_kept(self, configs, xx_models):
        blended = interpolate(xx_models[0], xx_models[0])
        for config in configs:
            enumerate_scores(blended, config)
        kept = {len(slots) - 2 for slots in blended._lookup[-1]}
        assert kept == set(range(1, MEMO_MAX_N + 1))

    def test_scores_are_read_only(self, xx_models):
        for config in (SUBTREE, random_config(random.Random(5), 7)):
            scores = enumerate_scores(xx_models[1], config)[1]
            with pytest.raises(ValueError):
                scores[0] = 1.0

    def test_freeness_unchanged(self, xx_train_trees, xx_models, sov_n_model,
                                monkeypatch):
        kept = filter_for_generation(xx_train_trees)

        def fresh():
            return (interpolate(sov_n_model, xx_models[0]),
                    interpolate(xx_models[1], xx_models[1]))

        cold = freeness(*fresh(), kept)
        models = fresh()
        assert freeness(*models, kept) == freeness(*models, kept) == cold
        monkeypatch.setattr(model_module, "MEMO_MAX_N", 0)
        assert freeness(*fresh(), kept) == cold


def compile_cases(rnd):
    """Configurations of every trainable size, unknown labels, repeated
    symbols and multisets in several orders, under H whitelists of every name they fire, none, and a random third of
    them plus `NEVER_FIRING`."""
    configs = [random_config(rnd, n) for n in range(1, 7) for _ in range(3)]
    configs += [
        LocalConfig((("ADJ", "amod"),) * 3 + (("NOUN", "head"),)),
        LocalConfig((("FOO", "nmod:poss"), ("VERB", "head"),
                     ("NOUN", "weird"), ("NOUN", "nmod:tmod"))),
        *ONE_MULTISET,
        # labels equal only once normalized: in one configuration, and in two
        # orders of one multiset
        LocalConfig((("NOUN", "nmod:tmod"), ("FOO", "amod"), ("VERB", "head"),
                     ("NOUN", "nmod"), ("X", "amod"))),
        LocalConfig((("NOUN", "nmod:tmod"), ("VERB", "head"))),
        LocalConfig((("VERB", "head"), ("NOUN", "nmod"))),
        # six elements, one symbol three times
        LocalConfig((("ADV", "advmod"), ("VERB", "head"), ("ADV", "advmod"),
                     ("NOUN", "nsubj"), ("ADV", "advmod"), ("ADP", "case"))),
    ]
    configs += configs[:2]  # repeats are compiled once
    h_names = sorted(fired_h_names(configs))
    return configs, (frozenset(h_names), frozenset(),
                     frozenset(rnd.sample(h_names, len(h_names) // 3)) | NEVER_FIRING)


def distinct_configs(configs):
    """First configuration of each `observed_slots` key, and the key counts."""
    first, counts = {}, Counter()
    for config in configs:
        key = observed_slots(config)
        first.setdefault(key, config)
        counts[key] += 1
    return list(first.values()), [counts[key] for key in first]


def multiset_config(key):
    """The configuration of the multiset of an `observed_slots` key: its
    head's symbol, then its dependents' sorted by digit."""
    slots, head = key
    dependents = sorted(slots[1:head] + slots[head + 1:-1], key=model_module._DIGIT.get)
    return LocalConfig((slots[head], *dependents))


def distinct_orders(config):
    """The orderings of `config` whose symbol sequence no earlier one has,
    in SJT order, each with its index among all n!."""
    first = {}
    for k, order in enumerate(sjt_enumerate(config.n)):
        first.setdefault(tuple(config.elements[e - 1] for e in order), (k, order))
    return list(first.values())


def corpus_rows(corpus):
    """Each row's live entries, a Counter of their key numbers, read off
    `rows_by_key`."""
    rows = [Counter() for _ in corpus.row_multiset]
    bounds = [*corpus.key_starts.tolist(), len(corpus.rows_by_key)]
    for k, (start, end) in enumerate(zip(bounds, bounds[1:])):
        for r in corpus.rows_by_key[start:end].tolist():
            rows[r][k] += 1
    return rows


def stacked_groups(corpus):
    """Each multiset's configuration (`multiset_config` of its first
    group), rows (`corpus_rows`) and weight, in row order, and its groups:
    each one's `observed_slots` key with its observed row's index among the
    multiset's.  Row k holds the live entries of the multiset's k-th
    distinct ordering (`distinct_orders`)."""
    rows = corpus_rows(corpus)
    bounds = [*corpus.multiset_starts.tolist(), len(rows)]
    members = [[] for _ in corpus.multiset_starts]
    for key, row in zip(corpus.groups, corpus.observed_rows.tolist()):
        members[corpus.row_multiset[row]].append((key, row))
    for g, (start, end) in enumerate(zip(bounds, bounds[1:])):
        yield (multiset_config(members[g][0][0]), rows[start:end], corpus.multiset_weight[g],
               [(key, row - start) for key, row in members[g]])


def key_names(corpus):
    """The names each key number fires, in firing order."""
    names = list(corpus.name_index)
    fires = [[] for _ in range(int(corpus.owner.max()) + 1)]
    for k, i in zip(corpus.owner.tolist(), corpus.ids.tolist()):
        fires[k].append(names[i])
    return fires


def state_symbols(key, whitelist):
    """Each state of the `_states` table of `observed_slots` key `key`: its
    symbol key, ("pair", pair key) or ("window", window code), and the names
    it fires under `whitelist`."""
    _, _, _, pair_states, pair_keys, window_states, window_codes = _states(*key)
    codes, window_names = model_module._window_names(whitelist)
    whitelisted = dict(zip(codes.tolist(), window_names))
    span = len(pair_states) + len(window_states)
    symbols, names = [None] * span, [()] * span
    for state, pair_key in zip(pair_states.tolist(), pair_keys.tolist()):
        symbols[state], names[state] = ("pair", pair_key), model_module._pair_names(pair_key)
    for state, code in zip(window_states.tolist(), window_codes.tolist()):
        symbols[state] = ("window", code)
        names[state] = (whitelisted[code],) if code in whitelisted else ()
    return symbols, names


def state_numbers(corpus, whitelist):
    """Each symbol key (see `state_symbols`) that fires under `whitelist`
    in a corpus's multisets, numbered first seen first, state by state of
    each multiset's `_states` table in row order; its names; and the sizes
    of the multisets it is met in.  Checks that these are the corpus's
    numbers: each multiset's rows hold exactly the numbers of the states
    that fire in its distinct orderings."""
    numbers, names, sizes = {}, {}, {}
    for config, rows, _, _ in stacked_groups(corpus):
        key = observed_slots(config)
        symbols, fired = state_symbols(key, whitelist)
        for symbol, symbol_names in zip(symbols, fired):
            if symbol_names:
                numbers.setdefault(symbol, len(numbers))
                names[symbol] = symbol_names
                sizes.setdefault(symbol, set()).add(config.n)
        _, table, order_rows, *_ = _states(*key)
        orders = distinct_orders(config)
        assert len(rows) == len(orders)
        for row, (k, _) in zip(rows, orders):
            assert row == Counter(numbers[symbols[state]]
                                  for state in table[order_rows[k]].tolist() if fired[state])
    return numbers, names, sizes


def groups_per_block(n):
    """How many multisets of n elements training compiles at once."""
    return max(1, BLOCK_ENTRIES // _sjt_table(n)[1].size)


def reference_objective(configs, whitelist, theta):
    """Mean log-likelihood and its gradient by feature name, configuration
    by configuration, by brute force over every ordering."""
    model = OrderingModel("t", "N", theta)
    value, grad = 0.0, Counter()
    for config in configs:
        identity = tuple(range(1, config.n + 1))
        logz, expected = brute_force_expectation(model, config, whitelist)
        value += (score(model, config, identity) - logz) / len(configs)
        observed = extract(config, identity, whitelist)
        for name in expected.keys() | observed.keys():
            grad[name] += (observed.get(name, 0)
                           - expected.get(name, 0.0)) / len(configs)
    return value, grad


def assert_matches_reference(configs, whitelist, rnd):
    corpus = _CompiledCorpus(configs, whitelist)
    theta = {name: rnd.gauss(0.0, 1.0) for name in corpus.name_index}
    value, grad = corpus.objective_and_gradient(np.array(list(theta.values())))
    ref_value, ref_grad = reference_objective(configs, whitelist, theta)
    assert abs(value - ref_value) < 1e-12
    assert ref_grad.keys() <= corpus.name_index.keys()
    for name, i in corpus.name_index.items():
        assert abs(grad[i] - ref_grad.get(name, 0.0)) < 1e-12
    return corpus


class TestCompiledRows:
    def test_rows_equal_extract(self):
        configs, whitelists = compile_cases(random.Random(67))
        distinct, counts = distinct_configs(configs)
        # multisets by size, then in order of first occurrence, each with
        # its configurations in order of first occurrence
        multisets = {}
        for config, count in zip(distinct, counts):
            multiset = multiset_config(observed_slots(config)).elements
            multisets.setdefault(multiset, []).append((config, count))
        in_rows = sorted(multisets.items(), key=lambda item: len(item[0]))
        assert max(len(observed) for _, observed in in_rows) == len(ONE_MULTISET)
        for whitelist in whitelists:
            corpus = _CompiledCorpus(configs, whitelist)
            names = list(corpus.name_index)
            assert list(corpus.name_index.values()) == list(range(len(names)))
            assert corpus.groups == [observed_slots(config) for config in distinct]
            assert corpus.total == sum(counts)
            assert corpus.observed_mass[corpus.observed_rows].tolist() \
                == [count / corpus.total for count in counts]
            # key numbers are dense, each firing an id, and each key's ids
            # lie together
            fires = key_names(corpus)
            assert all(fires) and corpus.owner.tolist() == sorted(corpus.owner.tolist())
            assert corpus.owner.dtype == corpus.ids.dtype == corpus.rows_by_key.dtype == np.intp
            # each key's entries lie together, and every key has one, as
            # `np.add.reduceat` needs
            assert len(corpus.key_counts) == len(fires) and corpus.key_counts.min() >= 1
            assert corpus.key_starts.tolist() \
                == (np.cumsum(corpus.key_counts) - corpus.key_counts).tolist()
            assert corpus.key_counts.sum() == len(corpus.rows_by_key)
            groups = list(stacked_groups(corpus))
            assert [config.elements for config, *_ in groups] == [m for m, _ in in_rows]
            assert corpus.row_multiset.tolist() \
                == [g for g, (_, rows, *_) in enumerate(groups) for _ in rows]
            log_repeats = 0.0
            for (config, rows, weight, members), (_, observed) in zip(groups, in_rows):
                # n! / (Π cᵢ!) rows, each an ordering that no earlier
                # ordering repeats by swapping equal symbols
                orders = distinct_orders(config)
                repeats = math.prod(map(math.factorial, Counter(config.elements).values()))
                assert len(rows) == len(orders) == math.factorial(config.n) // repeats
                assert weight == sum(count for _, count in observed) / corpus.total
                log_repeats += weight * math.log(repeats)
                for row, (_, order) in zip(rows, orders):
                    fired = Counter()
                    for k, count in row.items():
                        fired.update(fires[k] * count)
                    assert fired == extract(config, order, whitelist)
                # each configuration's row carries its observed symbols
                assert [key for key, _ in members] == [observed_slots(c) for c, _ in observed]
                for (slots, _), r in members:
                    assert tuple(config.elements[e - 1] for e in orders[r][1]) == slots[1:-1]
            assert abs(corpus.log_repeats - log_repeats) < 1e-12

    def test_every_row_is_live_and_keeps_every_firing_entry(self):
        # a dropped firing entry would lose a feature from a score or a
        # gradient
        configs, whitelists = compile_cases(random.Random(101))
        cases = [(configs, whitelist) for whitelist in whitelists]
        for language in ("xx", "sov", "nadj"):
            trees = [t for t in load_split(language) if is_projective(t)]
            for pos_class in ("N", "V"):
                usable = [c for t in trees for c in local_configs(t, pos_class)
                          if c.n <= MAX_TRAIN_SIZE]
                cases.append((usable, features.build_h_whitelist(usable)))
        sizes, met = set(), {}
        for configs, whitelist in cases:
            corpus = _CompiledCorpus(configs, whitelist)
            assert min(sum(row.values()) for row in corpus_rows(corpus)) >= 1
            sizes |= {config.n for config, *_ in stacked_groups(corpus)}
            # every row holds exactly the entries of its firing states, one
            # number per symbol key, dense and first seen first, state by
            # state in row order; a key's ids are its names in firing order
            numbers, names, key_sizes = state_numbers(corpus, whitelist)
            fires = key_names(corpus)
            assert sorted(numbers.values()) == list(range(len(fires)))
            for symbol, number in numbers.items():
                assert fires[number] == list(names[symbol])
                met.setdefault(symbol, set()).update(key_sizes[symbol])
        assert sizes == set(range(1, MAX_TRAIN_SIZE + 1))
        assert any(len(n) > 1 for n in met.values())  # a key met in two sizes


class TestObjective:
    def test_matches_per_configuration_reference(self):
        rnd = random.Random(71)
        configs, whitelists = compile_cases(rnd)
        for whitelist in whitelists:
            assert_matches_reference(configs, whitelist, rnd)

    def test_blocks_of_every_size_match_the_reference(self, monkeypatch):
        # several multisets of each size are compiled at once, those of size
        # 6 in more than one block, and compiling one multiset at a time
        # gives the same corpus
        rnd = random.Random(73)
        configs = [random_config(rnd, n) for n in range(1, 6) for _ in range(3)]
        configs += [random_config(rnd, 6) for _ in range(groups_per_block(6) + 2)]
        configs += configs[::4]
        blocks, symbol_codes = [], model_module._symbol_codes

        def counted(digits, *tables):
            blocks.append(len(digits))
            return symbol_codes(digits, *tables)

        monkeypatch.setattr(model_module, "_symbol_codes", counted)
        corpus = assert_matches_reference(configs, fired_h_names(configs), rnd)
        assert len(corpus.groups) == len(distinct_configs(configs)[0])
        sizes = [config.n for config, *_ in stacked_groups(corpus)]
        assert sizes == sorted(sizes) and sizes.count(6) > groups_per_block(6)
        partition = []
        for n, run in itertools.groupby(sizes):
            run, per_block = len(list(run)), groups_per_block(n)
            partition += [min(per_block, run - k) for k in range(0, run, per_block)]
        assert blocks == partition
        # every configuration of one element is the same
        assert min(blocks[1:]) > 1
        monkeypatch.setattr(model_module, "BLOCK_ENTRIES", 1)
        blocks.clear()
        single = _CompiledCorpus(configs, fired_h_names(configs))
        assert blocks == [1] * len(sizes)
        assert single.name_index == corpus.name_index
        for name in ("rows_by_key", "key_counts", "key_starts", "multiset_starts",
                     "observed_rows", "owner", "ids", "observed_mass", "multiset_weight"):
            assert getattr(single, name).tolist() == getattr(corpus, name).tolist()
        assert single.log_repeats == corpus.log_repeats

    def test_single_element_corpus_is_flat(self):
        configs = [LocalConfig((("NOUN", "head"),)),
                   LocalConfig((("VERB", "head"),)),
                   LocalConfig((("PROPN", "head"),))] * 2
        corpus = _CompiledCorpus(configs, fired_h_names(configs))
        value, grad = corpus.objective_and_gradient(
            np.linspace(-1.0, 1.0, len(corpus.name_index)))
        assert value == 0.0
        assert not grad.any()
        meta = train(configs, None).training_meta
        assert meta.converged and meta.iterations == 0

    def test_invariant_under_configuration_order(self):
        rnd = random.Random(79)
        configs, whitelists = compile_cases(rnd)
        shuffled = rnd.sample(configs, len(configs))
        for whitelist in whitelists:
            first = _CompiledCorpus(configs, whitelist)
            second = _CompiledCorpus(shuffled, whitelist)
            assert first.name_index.keys() == second.name_index.keys()
            theta = {name: rnd.gauss(0.0, 1.0) for name in first.name_index}
            value, grad = first.objective_and_gradient(
                np.array([theta[name] for name in first.name_index]))
            value2, grad2 = second.objective_and_gradient(
                np.array([theta[name] for name in second.name_index]))
            assert abs(value - value2) < 1e-12
            for name, i in first.name_index.items():
                assert abs(grad[i] - grad2[second.name_index[name]]) < 1e-12


class TestPartition:
    def test_uniform_n3(self):
        logz, expected = log_partition(UNIFORM, SUBTREE), corpus_expectation(UNIFORM, SUBTREE)
        assert abs(logz - math.log(6)) < 1e-12
        mean = {}
        for perm in itertools.permutations((1, 2, 3)):
            for name, c in extract(SUBTREE, perm).items():
                mean[name] = mean.get(name, 0.0) + c / 6.0
        for name in set(mean) | set(expected):
            assert abs(mean.get(name, 0.0) - expected.get(name, 0.0)) < 1e-12

    def test_two_permutation_hand_case(self):
        logz = log_partition(DET_MODEL, DET_PAIR)
        assert abs(logz - math.log(math.e + 1.0)) < 1e-12
        _, scores = enumerate_scores(DET_MODEL, DET_PAIR)
        p_det_first = math.exp(scores[0] - logz)
        assert abs(p_det_first - math.e / (math.e + 1.0)) < 1e-12

    def test_brute_force_oracle(self):
        rnd = random.Random(23)
        for _ in range(25):
            config = random_config(rnd, rnd.randint(1, 5))
            model = random_model(rnd, config)
            logz, expected = log_partition(model, config), corpus_expectation(model, config)
            bf_logz, bf_expected = brute_force_expectation(model, config)
            assert abs(math.exp(logz) - math.exp(bf_logz)) \
                < 1e-9 * math.exp(bf_logz)
            for name in set(expected) | set(bf_expected):
                assert abs(expected.get(name, 0.0)
                           - bf_expected.get(name, 0.0)) < 1e-9

    @pytest.mark.parametrize("n", [5, 6])
    def test_brute_force_oracle_large(self, n):
        rnd = random.Random(50 + n)
        config = random_config(rnd, n)
        model = random_model(rnd, config, n_weights=30)
        logz, expected = log_partition(model, config), corpus_expectation(model, config)
        bf_logz, bf_expected = brute_force_expectation(model, config)
        assert abs(logz - bf_logz) < 1e-9
        assert expected.keys() == bf_expected.keys()
        for name in bf_expected:
            assert abs(expected[name] - bf_expected[name]) < 1e-9

    def test_normalization(self):
        rnd = random.Random(37)
        for _ in range(40):
            config = random_config(rnd, rnd.randint(1, 6))
            model = random_model(rnd, config)
            _, scores = enumerate_scores(model, config)
            logz = log_partition(model, config)
            assert abs(float(np.exp(scores - logz).sum()) - 1.0) < 1e-9

    def test_size_cap(self):
        big = LocalConfig(tuple([("ADJ", "amod")] * 7 + [("NOUN", "head")]))
        with pytest.raises(ValueError):
            enumerate_scores(UNIFORM, big)

    # local_configs gives every configuration one head; only a hand-built
    # one can have none or two
    @pytest.mark.parametrize("config", [
        LocalConfig((("DET", "det"), ("ADJ", "amod"))),
        LocalConfig((("NOUN", "head"), ("ADJ", "amod"), ("NOUN", "head"))),
    ], ids=["no-head", "two-heads"])
    @pytest.mark.parametrize("call", [
        features.observed_slots,
        lambda config: enumerate_scores(UNIFORM, config),
        lambda config: train([config]),
        lambda config: train([config], whitelist=frozenset()),
    ], ids=["observed_slots", "enumerate_scores", "train", "train-given-whitelist"])
    def test_head_count_other_than_one_rejected(self, config, call):
        with pytest.raises(ValueError, match="head elements, not one"):
            call(config)


class TestGradient:
    def test_matches_finite_differences(self):
        rnd = random.Random(41)
        for _ in range(12):
            config = random_config(rnd, rnd.randint(2, 4))
            model = random_model(rnd, config, n_weights=8)
            names = sorted(model.weights)
            gradient = corpus_gradient(model, config)
            analytic = {n: gradient.get(n, 0.0) for n in names}
            step = 1e-5
            for name in names:
                hi = dict(model.weights)
                hi[name] += step
                lo = dict(model.weights)
                lo[name] -= step
                ll_hi = log_likelihood(OrderingModel("t", "N", hi), config)
                ll_lo = log_likelihood(OrderingModel("t", "N", lo), config)
                fd = (ll_hi - ll_lo) / (2 * step)
                denom = max(1.0, abs(analytic[name]), abs(fd))
                assert abs(analytic[name] - fd) / denom < 1e-4


FIXTURE_PATHS = {("xx", "N"): (36, 37), ("xx", "V"): (33, 39),
                 ("sov", "N"): (12, 15), ("sov", "V"): (15, 18),
                 ("nadj", "N"): (11, 13), ("nadj", "V"): (15, 18)}


class TestTrain:
    def test_separable_corpus_saturates(self, monkeypatch):
        model = train([DET_PAIR] * 100, set())
        _, scores = enumerate_scores(model, DET_PAIR)
        logz = log_partition(model, DET_PAIR)
        assert math.exp(scores[0] - logz) > 0.99
        assert model.training_meta.iterations <= 200
        # the objective never falls from one iteration to the next: stop the
        # same deterministic run after each k iterations and read its objective
        history = []
        for k in range(model.training_meta.iterations + 1):
            monkeypatch.setattr("deporder.model.MAX_ITERATIONS", k)
            history.append(train([DET_PAIR] * 100, set()).training_meta.objective)
        assert history[-1] == model.training_meta.objective
        assert all(b >= a for a, b in zip(history, history[1:]))

    def test_symmetric_corpus(self):
        flipped = LocalConfig((("X", "head"), ("DET", "det")))
        model = train([DET_PAIR] * 50 + [flipped] * 50, set())
        logz = log_partition(model, DET_PAIR)
        _, scores = enumerate_scores(model, DET_PAIR)
        assert abs(math.exp(scores[0] - logz) - 0.5) <= 1e-3

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train([], set())

    def test_large_configs_dropped(self):
        big = LocalConfig(tuple([("ADJ", "amod")] * 6 + [("NOUN", "head")]))
        assert model_to_text(train([DET_PAIR] * 4 + [big], set())) \
            == model_to_text(train([DET_PAIR] * 4, set()))
        with pytest.raises(ValueError):
            train([big], set())  # nothing usable left

    def test_unseen_features_stay_zero(self, sov_v_model):
        assert all(w != 0.0 for w in sov_v_model.weights.values())
        assert "L.INTJ.discourse" not in sov_v_model.weights

    @pytest.mark.parametrize("language", ["xx", "sov", "nadj"])
    @pytest.mark.parametrize("pos_class", ["N", "V"])
    def test_fixture_models_converge(self, language, pos_class):
        meta = train_fixture_model(language, pos_class).training_meta
        assert meta.converged
        assert meta.grad_inf_norm <= GRAD_TOLERANCE
        # the optimizer's path: a change that only rounds the objective
        # differently must keep (iterations, evaluations)
        assert (meta.iterations, meta.evaluations) == FIXTURE_PATHS[language, pos_class]

    def test_fixture_xx_training_is_cheap(self, xx_models):
        # conjugate gradients took 278 evaluations here, L-BFGS 76
        assert sum(m.training_meta.evaluations for m in xx_models) <= 100

    @pytest.mark.parametrize("language", ["xx", "sov", "nadj"])
    @pytest.mark.parametrize("pos_class", ["N", "V"])
    def test_saved_model_is_stationary(self, fixture_model_dir, language, pos_class):
        model = load_model(fixture_model_dir / f"{language}-{pos_class}.model")
        corpus = _CompiledCorpus(*fixture_training_inputs(language, pos_class))
        theta = np.array([model.weights.get(name, 0.0) for name in corpus.name_index])
        _, grad = corpus.objective_and_gradient(theta)
        penalized = grad - PRIOR / corpus.total * theta
        assert np.max(np.abs(penalized)) <= GRAD_TOLERANCE

    def test_matches_scipy_on_the_penalized_objective(self):
        minimize = pytest.importorskip("scipy.optimize").minimize
        configs, whitelist = fixture_training_inputs("xx", "N")
        model = train(configs, None)
        corpus = _CompiledCorpus(configs, whitelist)
        precision = PRIOR / corpus.total

        def negated(theta):
            value, grad = corpus.objective_and_gradient(theta)
            return (0.5 * precision * theta @ theta - value,
                    precision * theta - grad)

        result = minimize(negated, np.zeros(len(corpus.name_index)), jac=True,
                          method="L-BFGS-B",
                          options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 10_000})
        theta = np.array([model.weights.get(name, 0.0) for name in corpus.name_index])
        assert np.max(np.abs(theta - result.x)) < 1e-4
        assert abs(model.training_meta.objective + result.fun) < 1e-8

    def test_derived_whitelist(self):
        # the whitelist defaults to the top observed H names, and only they get weights
        configs = [SUBTREE] * 5
        h_weights = {n for n in train(configs).weights if n.startswith("H.")}
        assert h_weights and h_weights <= features.build_h_whitelist(configs)


class TestInterpolate:
    A = OrderingModel("ra", "N", {"a": 1.0, "H.a": 0.5})
    B = OrderingModel("rb", "N", {"b": 2.0, "H.b": -1.0})

    def test_superstrate_only(self):
        # H weights blend like any other, so the substrate's go at lam=0
        assert interpolate(self.A, self.B, 0.0).weights == {"a": 1.0, "H.a": 0.5}

    def test_substrate_only(self):
        assert interpolate(self.A, self.B, 1.0).weights == {"b": 2.0, "H.b": -1.0}

    def test_blend(self):
        out = interpolate(self.A, self.B)  # lam defaults to 0.05
        assert out.weights == pytest.approx({"a": 0.95, "H.a": 0.475, "b": 0.1, "H.b": -0.05})

    def test_shared_feature(self):
        a = OrderingModel("ra", "N", {"x": 2.0})
        b = OrderingModel("rb", "N", {"x": -2.0})
        out = interpolate(a, b, 0.25)
        assert out.weights == pytest.approx({"x": 1.0})

    def test_class_mismatch(self):
        with pytest.raises(ValueError):
            interpolate(self.A, OrderingModel("rb", "V", {}))

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            interpolate(self.A, self.B, 1.5)


class TestFreeness:
    def test_uniform_is_exactly_one(self, xx_train_trees):
        kept = filter_for_generation(xx_train_trees)
        assert freeness(UNIFORM, OrderingModel("u", "V", {}), kept) == 1.0

    def test_trained_models_beat_uniform(self, xx_train_trees, xx_models):
        kept = filter_for_generation(xx_train_trees)
        model_n, model_v = xx_models
        r = freeness(model_n, model_v, kept)
        assert 0.0 <= r < 1.0

    def test_rigid_language_near_zero(self, sov_n_model, sov_v_model):
        from conftest import load_split
        r = freeness(sov_n_model, sov_v_model, load_split("sov", "train"))
        assert r < 0.1  # the corpus is deterministic, so the fit is near perfect

    def test_invariant_under_tree_order(self, xx_train_trees, xx_models):
        kept = filter_for_generation(xx_train_trees)
        model_n, model_v = xx_models
        assert freeness(model_n, model_v, kept) \
            == freeness(model_n, model_v, list(reversed(kept)))

    def test_undefined_without_dependents(self):
        tree = DepTree((Token(1, "it", "it", "PRON", head=0, deprel="root"),))
        with pytest.raises(ValueError):
            freeness(UNIFORM, UNIFORM, [tree])


class TestModelFiles:
    def test_round_trip(self, sov_v_model):
        text = model_to_text(sov_v_model)
        again = model_from_text(text)
        assert model_to_text(again) == text
        assert again.language == sov_v_model.language
        assert again.pos_class == sov_v_model.pos_class
        assert again.weights == sov_v_model.weights  # every trained weight is nonzero

    def test_no_zero_weight_is_written(self):
        # a weight of 0 scores as an absent one, whatever its prefix
        model = OrderingModel("l", "N", {"H.BOS.BOS.X.head.EOS.EOS": 0.0, "L.DET.det": 0.0,
                                         "A.BOS.BOS.DET.det": -0.0, "l.DET.ADJ": 0.0,
                                         "L.ADJ": 1.0})
        text = model_to_text(model)
        assert text == "#lang l\n#pos N\n#version 1\nL.ADJ\t1.0\n"
        assert model_to_text(model_from_text(text)) == text

    def test_header_checks(self):
        with pytest.raises(ValueError):
            model_from_text("#lang x\n#pos N\n#version 99\n")
        with pytest.raises(ValueError):
            model_from_text("#lang x\n#version 1\n")
        with pytest.raises(ValueError, match="lacks a #version header"):
            model_from_text("#lang x\n#pos N\nL.ADJ\t1.0\n")

    def test_hand_built_scores_survive_a_round_trip(self):
        # every weight fires, H weights included, before and after a save and load
        model = OrderingModel("l", "N", {"H.BOS.BOS.DET.det.NOUN.head": 3.0,
                                         "H.DET.det.NOUN.head.EOS.EOS": 2.0,
                                         "H.BOS.BOS.NOUN.head.EOS.EOS": 1.5,
                                         "L.DET": 0.5, "L.ADJ": 0.0, "H.a": 4.0})
        again = model_from_text(model_to_text(model))
        lone = LocalConfig((("NOUN", "head"),))
        pair = LocalConfig((("DET", "det"), ("NOUN", "head")))
        assert enumerate_scores(model, lone)[1].tolist() == [1.5]
        assert enumerate_scores(model, pair)[1].tolist() == [5.5, 0.0]
        for config in (lone, pair, SUBTREE, random_config(random.Random(13), 5)):
            assert enumerate_scores(again, config)[1].tobytes() \
                == enumerate_scores(model, config)[1].tobytes()

    def test_reads_1_10_0_files(self, xx_models):
        # 1.10.0 also wrote a trained model's whitelisted windows at weight 0;
        # in xx-N those were the windows only a lone head fires
        text = model_to_text(xx_models[0])
        lines = text.splitlines(keepends=True)
        body = lines[3:] + [f"H.BOS.BOS.{tag}.head.EOS.EOS\t0.0\n" for tag in ("NOUN", "PRON", "PROPN")]
        old = model_from_text("".join(lines[:3] + sorted(body, key=lambda line: line.split("\t")[0])))
        assert model_to_text(old) == text
        configs = [LocalConfig(((tag, "head"),)) for tag in ("NOUN", "PRON", "PROPN")]
        configs += [c for t in load_split("xx") for c in local_configs(t, "N") if c.n <= 5]
        assert {c.n for c in configs} == set(range(1, 6))
        for config in configs:
            assert enumerate_scores(old, config)[1].tobytes() \
                == enumerate_scores(xx_models[0], config)[1].tobytes()

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "abc"])
    def test_bad_weight_names_its_line(self, weight):
        with pytest.raises(ValueError, match="line 4"):
            model_from_text(f"#lang x\n#pos N\n#version 1\nA.BOS.BOS.X.head\t{weight}\n")

    @pytest.mark.parametrize("line, message", [
        ("#weights 3", "line 4: unknown header '#weights 3'"),
        ("L.ADJ 1.0", "line 4: expected <name>\\t<weight>"),
    ], ids=["unknown-header", "no-tab"])
    def test_bad_line_named(self, line, message):
        with pytest.raises(ValueError) as err:
            model_from_text(f"#lang x\n#pos N\n#version 1\n{line}\n")
        assert str(err.value) == message

    def test_repeated_feature_rejected(self):
        with pytest.raises(ValueError, match="line 5: repeated feature 'L.ADJ'"):
            model_from_text("#lang x\n#pos N\n#version 1\nL.ADJ\t1.0\nL.ADJ\t2.0\n")

    def test_scores_identical_after_round_trip(self, sov_v_model):
        again = model_from_text(model_to_text(sov_v_model))
        rnd = random.Random(3)
        config = random_config(rnd, 4)
        for perm in itertools.permutations(range(1, 5)):
            assert score(sov_v_model, config, perm) == score(again, config, perm)
