import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from deporder import features
from deporder.features import extract, normalize_symbol
from deporder.model import (GATHER_ROWS, GRAD_TOLERANCE, MAX_TRAIN_SIZE, PRIOR,
                            OrderingModel, _CompiledCorpus, enumerate_scores,
                            freeness, interpolate, load_model, log_likelihood,
                            model_from_text, model_to_text, score, train)
from deporder.sjt import sjt_enumerate
from deporder.synthesis import RngStream, sample_ordering
from deporder.treebank import (LocalConfig, filter_for_generation,
                               is_projective, local_configs)

from conftest import load_split, log_partition, train_fixture_model

SUBTREE = LocalConfig((("DET", "det"), ("ADJ", "amod"), ("NOUN", "head")))
DET_PAIR = LocalConfig((("DET", "det"), ("X", "head")))
DET_MODEL = OrderingModel("hand", "N", {"A.BOS.BOS.DET.det": 1.0}, frozenset())
UNIFORM = OrderingModel("u", "N", {})  # all-zero weights

TAGS = ["DET", "ADJ", "NOUN", "ADV", "VERB", "ADP", "PRON"]
RELS = ["det", "amod", "nsubj", "advmod", "dobj", "case", "nmod"]


def random_config(rnd, n):
    head = rnd.randrange(n)
    elements = tuple(("NOUN", "head") if i == head
                     else (rnd.choice(TAGS), rnd.choice(RELS))
                     for i in range(n))
    return LocalConfig(elements)


def random_model(rnd, config, n_weights=15, with_h=True):
    """Random weights over features that actually fire for this configuration."""
    names = set(extract(config, tuple(range(1, config.n + 1))))
    shuffled = tuple(rnd.sample(range(1, config.n + 1), config.n))
    names |= set(extract(config, shuffled))
    chosen = rnd.sample(sorted(names), min(n_weights, len(names)))
    weights = {name: rnd.gauss(0.0, 1.0) for name in chosen}
    whitelist = frozenset(n for n in names if n.startswith("H.")) if with_h \
        else frozenset()
    return OrderingModel("rand", "N", weights, whitelist)


def brute_force_logz(model, config):
    scores = [score(model, config, p)
              for p in itertools.permutations(range(1, config.n + 1))]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_force_expectation(model, config):
    logz = brute_force_logz(model, config)
    acc = {}
    for perm in itertools.permutations(range(1, config.n + 1)):
        p = math.exp(score(model, config, perm) - logz)
        for name, count in extract(config, perm, model.h_whitelist).items():
            acc[name] = acc.get(name, 0.0) + p * count
    return logz, acc


def fired_h_names(configs):
    """Every H name that some ordering of some configuration fires."""
    return frozenset(name for c in configs
                     for perm in itertools.permutations(range(1, c.n + 1))
                     for name in extract(c, perm) if name.startswith("H."))


def corpus_gradient(model, config):
    """The gradient by name of a one-configuration corpus's log-likelihood
    at the model's weights: observed minus expected feature counts."""
    corpus = _CompiledCorpus([config], model.h_whitelist)
    theta = np.array([model.weights.get(name, 0.0) for name in corpus.name_index])
    _, grad = corpus.objective_and_gradient(theta)
    return dict(zip(corpus.name_index, grad.tolist()))


def corpus_expectation(model, config):
    """Expected feature counts: observed counts minus `corpus_gradient`."""
    observed = extract(config, tuple(range(1, config.n + 1)), model.h_whitelist)
    return {name: observed.get(name, 0) - g
            for name, g in corpus_gradient(model, config).items()}


class TestScore:
    def test_zero_weights(self):
        for perm in itertools.permutations((1, 2, 3)):
            assert score(UNIFORM, SUBTREE, perm) == 0.0

    def test_single_feature_fires(self):
        model = OrderingModel("t", "N", {"L.DET.det": 2.0}, frozenset())
        assert score(model, SUBTREE, (1, 2, 3)) == 2.0

    def test_single_feature_silent(self):
        model = OrderingModel("t", "N", {"L.DET.det": 2.0}, frozenset())
        assert score(model, SUBTREE, (3, 1, 2)) == 0.0  # DET right of head


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


# Whitelisted names that no window can fire: not H (one with the fields of
# a lone head's window), too few or too many fields, an odd field count (one
# a lone head's window plus a field), six symbols, an unknown tag or
# relation, a sentinel out of place.
NEVER_FIRING = frozenset({
    "", "H", "H.a", "L.DET.det", "L.BOS.BOS.NOUN.head.EOS.EOS",
    "H.DET.det.NOUN.head", "H.DET.det.NOUN.head.EOS", "H.BOS.BOS.NOUN.head.EOS.EOS.x",
    "H.BOS.BOS.DET.det.ADJ.amod.NOUN.head.ADP.case.EOS.EOS",
    "H.FOO.det.NOUN.head.EOS.EOS", "H.DET.nmod:poss.NOUN.head.EOS.EOS",
    "H.BOS.BOS.BOS.BOS.NOUN.head", "H.NOUN.head.EOS.EOS.EOS.EOS",
})


def name_table_scores(model, config):
    """Every ordering's score from the names a one-configuration corpus
    gives its states under the model's H whitelist: weights added per state
    by `np.bincount`, then each ordering's states gathered and summed."""
    corpus = _CompiledCorpus([config], model.h_whitelist)
    (codes, span, owner, ids, _), = corpus.blocks
    names = list(corpus.name_index)
    state_weight = np.bincount(
        owner, [model.weights.get(names[i], 0.0) for i in ids.tolist()], span)
    scores = np.empty(codes.shape[1])
    for k in range(0, len(scores), GATHER_ROWS):
        scores[k:k + GATHER_ROWS] = state_weight[codes[0, k:k + GATHER_ROWS]].sum(axis=1)
    return tuple(sjt_enumerate(config.n)), scores


def whitelist_models(rnd, config):
    """Models with random weights on a third of the names `config` fires
    and on names that never fire, under the H whitelists: every H name it
    fires, none, and a random half of them plus `NEVER_FIRING`.  H weights
    outside the whitelist must stay silent."""
    fired = sorted(_CompiledCorpus([config], fired_h_names([config])).name_index)
    h_names = [name for name in fired if name.startswith("H.")]
    weights = {name: rnd.gauss(0.0, 1.0) for name in rnd.sample(fired, len(fired) // 3)}
    weights |= {name: rnd.gauss(0.0, 1.0) for name in NEVER_FIRING}
    for whitelist in (h_names, (), rnd.sample(h_names, len(h_names) // 2) + [*NEVER_FIRING]):
        yield OrderingModel("rand", "N", weights, frozenset(whitelist))


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
            for model in whitelist_models(rnd, config):
                orders, scores = enumerate_scores(model, config)
                ref_orders, ref_scores = name_table_scores(model, config)
                assert orders == ref_orders
                assert scores.tobytes() == ref_scores.tobytes()
                for order, s in zip(orders, scores.tolist()):
                    assert abs(score(model, config, order) - s) < 1e-12

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
        whitelist = xx_models[0].h_whitelist
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


def compile_cases(rnd):
    """Configurations of every trainable size, unknown labels and repeats,
    under H whitelists of every name they fire, none, and a random third of
    them plus `NEVER_FIRING`."""
    configs = [random_config(rnd, n) for n in range(1, 7) for _ in range(3)]
    configs += [
        LocalConfig((("ADJ", "amod"),) * 3 + (("NOUN", "head"),)),
        LocalConfig((("FOO", "nmod:poss"), ("VERB", "head"),
                     ("NOUN", "weird"), ("NOUN", "nmod:tmod"))),
    ]
    configs += configs[:2]  # repeats are compiled once
    h_names = sorted(fired_h_names(configs))
    return configs, (frozenset(h_names), frozenset(),
                     frozenset(rnd.sample(h_names, len(h_names) // 3)) | NEVER_FIRING)


def distinct_configs(configs):
    """First configuration of each normalized key, and the key counts."""
    first, counts = {}, Counter()
    for config in configs:
        key = tuple(normalize_symbol(t, r) for t, r in config.elements)
        first.setdefault(key, config)
        counts[key] += 1
    return list(first.values()), [counts[key] for key in first]


def stacked_groups(corpus):
    """Each group's (codes, owner, ids) read out of its block, in block
    order, with its block weight."""
    for codes, span, owner, ids, weight in corpus.blocks:
        for i, table in enumerate(codes):
            mine = (owner >= i * span) & (owner < (i + 1) * span)
            yield table, owner[mine] - i * span, ids[mine], weight[i]


def reference_objective(configs, whitelist, theta):
    """Mean log-likelihood and its gradient by feature name, configuration
    by configuration, by brute force over every ordering."""
    model = OrderingModel("t", "N", theta, frozenset(
        n for n in theta if n.startswith("H.")))
    value, grad = 0.0, Counter()
    for config in configs:
        identity = tuple(range(1, config.n + 1))
        logz, expected = brute_force_expectation(model, config)
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
        # blocks hold the configurations by size, then in order of first occurrence
        in_blocks = sorted(zip(distinct, counts), key=lambda item: item[0].n)
        for whitelist in whitelists:
            corpus = _CompiledCorpus(configs, whitelist)
            names = list(corpus.name_index)
            assert list(corpus.name_index.values()) == list(range(len(names)))
            assert len(corpus.groups) == len(distinct)
            assert corpus.total == sum(counts)
            for codes, *_ in corpus.blocks:
                assert len(codes) == 1 or len(codes) * codes.shape[1] <= GATHER_ROWS
            groups = list(stacked_groups(corpus))
            assert len(groups) == len(in_blocks)
            for (codes, owner, ids, weight), (config, count) in zip(groups, in_blocks):
                assert len(codes) == math.factorial(config.n)
                assert weight == count / corpus.total
                fires = [[] for _ in range(int(codes.max()) + 1)]
                for state, i in zip(owner.tolist(), ids.tolist()):
                    fires[state].append(names[i])
                for k, perm in enumerate(sjt_enumerate(config.n)):
                    fired = Counter(name for state in codes[k]
                                    for name in fires[state])
                    assert fired == extract(config, perm, whitelist)


class TestObjective:
    def test_matches_per_configuration_reference(self):
        rnd = random.Random(71)
        configs, whitelists = compile_cases(rnd)
        for whitelist in whitelists:
            assert_matches_reference(configs, whitelist, rnd)

    def test_blocks_of_every_size_match_the_reference(self):
        # enough distinct configurations of sizes 5 and 6 to fill more
        # than one block each
        rnd = random.Random(73)
        configs = [random_config(rnd, n) for n in range(1, 5) for _ in range(3)]
        for n in (5, 6):
            configs += [random_config(rnd, n)
                        for _ in range(GATHER_ROWS // math.factorial(n) + 2)]
        configs += configs[::4]
        corpus = assert_matches_reference(configs, fired_h_names(configs), rnd)
        assert len(corpus.groups) == len(distinct_configs(configs)[0])
        for n in (5, 6):
            assert sum(codes.shape[1] == math.factorial(n)
                       for codes, *_ in corpus.blocks) > 1

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
            for name, c in extract(SUBTREE, perm, frozenset()).items():
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
                ll_hi = log_likelihood(
                    OrderingModel("t", "N", hi, model.h_whitelist), config)
                ll_lo = log_likelihood(
                    OrderingModel("t", "N", lo, model.h_whitelist), config)
                fd = (ll_hi - ll_lo) / (2 * step)
                denom = max(1.0, abs(analytic[name]), abs(fd))
                assert abs(analytic[name] - fd) / denom < 1e-4


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
        model = train([DET_PAIR] * 4 + [big], set())
        assert model.training_meta.dropped_configs == 1
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

    def test_fixture_xx_training_is_cheap(self, xx_models):
        # conjugate gradients took 278 evaluations here, L-BFGS 76
        assert sum(m.training_meta.evaluations for m in xx_models) <= 100

    @pytest.mark.parametrize("language", ["xx", "sov", "nadj"])
    @pytest.mark.parametrize("pos_class", ["N", "V"])
    def test_saved_model_is_stationary(self, fixture_model_dir, language, pos_class):
        model = load_model(fixture_model_dir / f"{language}-{pos_class}.model")
        trees = [t for t in load_split(language) if is_projective(t)]
        configs = [c for t in trees for c in local_configs(t, pos_class)
                   if c.n <= MAX_TRAIN_SIZE]
        corpus = _CompiledCorpus(configs, model.h_whitelist)
        theta = np.array([model.weights.get(name, 0.0) for name in corpus.name_index])
        _, grad = corpus.objective_and_gradient(theta)
        penalized = grad - PRIOR / corpus.total * theta
        assert np.max(np.abs(penalized)) <= GRAD_TOLERANCE

    def test_matches_scipy_on_the_penalized_objective(self):
        minimize = pytest.importorskip("scipy.optimize").minimize
        trees = [t for t in load_split("xx") if is_projective(t)]
        configs = [c for t in trees for c in local_configs(t, "N")
                   if c.n <= MAX_TRAIN_SIZE]
        model = train(configs, None)
        corpus = _CompiledCorpus(configs, model.h_whitelist)
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
        model = train([SUBTREE] * 5)  # whitelist defaults to the top observed H names
        assert model.h_whitelist
        assert all(n.startswith("H.") for n in model.h_whitelist)


class TestInterpolate:
    A = OrderingModel("ra", "N", {"a": 1.0}, frozenset({"H.a"}))
    B = OrderingModel("rb", "N", {"b": 2.0}, frozenset({"H.b"}))

    def test_superstrate_only(self):
        out = interpolate(self.A, self.B, 0.0)
        assert out.weights == {"a": 1.0}
        assert out.h_whitelist == {"H.a", "H.b"}

    def test_substrate_only(self):
        assert interpolate(self.A, self.B, 1.0).weights == {"b": 2.0}

    def test_blend(self):
        out = interpolate(self.A, self.B, 0.05)
        assert out.weights == pytest.approx({"a": 0.95, "b": 0.1})

    def test_shared_feature(self):
        a = OrderingModel("ra", "N", {"x": 2.0}, frozenset())
        b = OrderingModel("rb", "N", {"x": -2.0}, frozenset())
        out = interpolate(a, b, 0.25)
        assert out.weights == pytest.approx({"x": 1.0})

    def test_class_mismatch(self):
        with pytest.raises(ValueError):
            interpolate(self.A, OrderingModel("rb", "V", {}, frozenset()))

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
        from deporder.treebank import DepTree, Token
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
        assert again.h_whitelist == sov_v_model.h_whitelist
        nonzero = {k: v for k, v in sov_v_model.weights.items() if v != 0.0}
        for name, weight in nonzero.items():
            assert again.weights[name] == weight

    def test_whitelist_survives_at_zero_weight(self):
        model = OrderingModel("l", "N", {}, frozenset({"H.BOS.BOS.X.head"}))
        text = model_to_text(model)
        assert "H.BOS.BOS.X.head\t0.0" in text
        assert model_from_text(text).h_whitelist == {"H.BOS.BOS.X.head"}

    def test_header_checks(self):
        with pytest.raises(ValueError):
            model_from_text("#lang x\n#pos N\n#version 99\n")
        with pytest.raises(ValueError):
            model_from_text("#lang x\n#version 1\n")

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "abc"])
    def test_bad_weight_names_its_line(self, weight):
        with pytest.raises(ValueError, match="line 4"):
            model_from_text(f"#lang x\n#pos N\n#version 1\nA.BOS.BOS.X.head\t{weight}\n")

    def test_repeated_feature_rejected(self):
        with pytest.raises(ValueError, match="line 5: repeated feature 'L.ADJ'"):
            model_from_text("#lang x\n#pos N\n#version 1\nL.ADJ\t1.0\nL.ADJ\t2.0\n")

    def test_scores_identical_after_round_trip(self, sov_v_model):
        again = model_from_text(model_to_text(sov_v_model))
        rnd = random.Random(3)
        config = random_config(rnd, 4)
        for perm in itertools.permutations(range(1, 5)):
            assert score(sov_v_model, config, perm) == score(again, config, perm)
