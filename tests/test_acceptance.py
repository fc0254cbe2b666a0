"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 9's real-treebank check needs local UD 1.2 data and is
skipped unless the UD12_DIR environment variable points at a directory laid
out as <root>/<lang>/<lang>-ud-{train,dev,test}.conllu.
"""

import itertools
import math
import os
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from deporder.features import extract
from deporder.langmodel import BOS, perplexity, select_source, tag_sequences, train_trigram
from deporder.model import (OrderingModel, _CompiledCorpus, enumerate_scores,
                            freeness, log_likelihood, score, train)
from deporder.sjt import sjt_enumerate
from deporder.synthesis import (LanguageSpec, RngStream, sample_ordering,
                                synthesize_language)
from deporder.treebank import (LocalConfig, filter_for_generation,
                               is_projective, local_configs, parse_conllu,
                               touched_fraction)

from conftest import UD_ROOT, load_split, log_partition

TAGS = ["DET", "ADJ", "NOUN", "ADV", "VERB", "ADP", "PRON"]
RELS = ["det", "amod", "nsubj", "advmod", "dobj", "case", "nmod"]


def announce(number, name):
    print(f"\n[criterion {number:02d}] PASS  {name}")


def random_config(rnd, n):
    head = rnd.randrange(n)
    elements = tuple(("NOUN", "head") if i == head
                     else (rnd.choice(TAGS), rnd.choice(RELS))
                     for i in range(n))
    return LocalConfig(elements)


def random_model(rnd, config, n_weights=12):
    names = sorted(set(extract(config, tuple(range(1, config.n + 1))))
                   | set(extract(config, tuple(range(config.n, 0, -1)))))
    chosen = rnd.sample(names, min(n_weights, len(names)))
    weights = {name: rnd.gauss(0.0, 1.0) for name in chosen}
    whitelist = frozenset(n for n in names if n.startswith("H."))
    return OrderingModel("rand", "N", weights, whitelist)


def test_criterion_01_sjt_correctness():
    start = time.perf_counter()
    for n in range(1, 8):
        perms = list(sjt_enumerate(n))
        for previous, perm in zip(perms, perms[1:]):
            # the single adjacent transposition between consecutive orders
            i, j = [k for k in range(n) if previous[k] != perm[k]]
            assert j == i + 1 and (perm[i], perm[j]) == (previous[j], previous[i])
        assert len(set(perms)) == math.factorial(n)
    assert len(list(sjt_enumerate(7))) == 5040
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"
    announce(1, f"SJT enumeration, n=1..7 in {elapsed:.2f}s")


def test_criterion_02_incremental_scoring_equals_full():
    rnd = random.Random(202)
    start = time.perf_counter()
    for _ in range(500):
        config = random_config(rnd, rnd.randint(1, 5))
        model = random_model(rnd, config)
        orders, scores = enumerate_scores(model, config)
        for order, incremental in zip(orders, scores):
            assert abs(score(model, config, order) - incremental) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    announce(2, f"incremental scores match re-extraction on 500 walks "
                f"in {elapsed:.1f}s")


def test_criterion_03_normalization():
    rnd = random.Random(303)
    for _ in range(200):
        config = random_config(rnd, rnd.randint(1, 7))
        model = random_model(rnd, config)
        _, scores = enumerate_scores(model, config)
        logz = log_partition(model, config)
        assert abs(float(np.exp(scores - logz).sum()) - 1.0) < 1e-9
    announce(3, "probabilities sum to 1 +- 1e-9 on 200 random models, n<=7")


def test_criterion_04_gradient_check():
    rnd = random.Random(404)
    step = 1e-5
    for _ in range(50):
        config = random_config(rnd, rnd.randint(2, 4))
        model = random_model(rnd, config, n_weights=6)
        # training's gradient on a one-configuration corpus: observed minus
        # expected feature counts
        corpus = _CompiledCorpus([config], model.h_whitelist)
        _, grad = corpus.objective_and_gradient(
            np.array([model.weights.get(name, 0.0) for name in corpus.name_index]))
        gradient = dict(zip(corpus.name_index, grad.tolist()))
        for name in sorted(model.weights):
            analytic = gradient.get(name, 0.0)
            hi, lo = dict(model.weights), dict(model.weights)
            hi[name] += step
            lo[name] -= step
            fd = (log_likelihood(OrderingModel("t", "N", hi, model.h_whitelist),
                                 config)
                  - log_likelihood(OrderingModel("t", "N", lo, model.h_whitelist),
                                   config)) / (2 * step)
            assert abs(analytic - fd) / max(1.0, abs(analytic), abs(fd)) < 1e-4
    announce(4, "analytic gradient matches central differences on 50 instances")


def test_criterion_05_sampler_exactness():
    config = LocalConfig((("DET", "det"), ("ADJ", "amod"), ("NOUN", "head")))
    model = OrderingModel("hand", "N",
                          {"L.DET.det": 0.7, "A.ADJ.amod.NOUN.head": -0.9,
                           "l.DET.ADJ": 0.4},
                          frozenset())
    orders, scores = enumerate_scores(model, config)
    logz = log_partition(model, config)
    exact = {o: math.exp(s - logz) for o, s in zip(orders, scores)}
    rng = RngStream("acceptance-gof")
    counts = Counter(sample_ordering(model, config, rng)
                     for _ in range(100_000))
    observed = [counts[o] for o in orders]
    expectation = [100_000 * exact[o] for o in orders]
    result = scipy.stats.chisquare(observed, expectation)
    assert result.pvalue > 0.001, result

    pair = LocalConfig((("DET", "det"), ("X", "head")))
    pair_model = OrderingModel("hand", "N", {"A.BOS.BOS.DET.det": 1.0},
                               frozenset())
    rng = RngStream("acceptance-two")
    freq = sum(sample_ordering(pair_model, pair, rng) == (1, 2)
               for _ in range(10_000)) / 10_000
    assert abs(freq - math.e / (math.e + 1.0)) < 0.01
    announce(5, f"sampler chi-square p={result.pvalue:.3f}; "
                f"two-order case frequency {freq:.3f}")


def test_criterion_06_training_sanity():
    true_model = OrderingModel(
        "truth", "N",
        {"L.DET.det": 0.8, "A.NOUN.head.EOS.EOS": -0.5, "L.ADJ.amod": 0.3,
         "A.BOS.BOS.DET.det": 0.4},
        frozenset())
    shapes = [
        (("DET", "det"), ("NOUN", "head")),
        (("DET", "det"), ("ADJ", "amod"), ("NOUN", "head")),
        (("ADJ", "amod"), ("NOUN", "head"), ("DET", "det")),
        (("NOUN", "head"), ("ADV", "advmod"), ("DET", "det")),
    ]

    def sample_corpus(size, label):
        corpus = []
        for k in range(size):
            elements = shapes[k % len(shapes)]
            base = LocalConfig(elements)
            order = sample_ordering(true_model, base,
                                    RngStream("train-sanity", label, k))
            corpus.append(LocalConfig(tuple(elements[i - 1] for i in order)))
        return corpus

    learned = train(sample_corpus(10_000, "fit"), set())
    heldout = sample_corpus(2_000, "held")
    gap = abs(sum(log_likelihood(learned, c) - log_likelihood(true_model, c)
                  for c in heldout)) / len(heldout)
    assert gap < 0.02, f"held-out gap {gap:.4f} nats"

    pair = LocalConfig((("DET", "det"), ("X", "head")))
    flipped = LocalConfig((("X", "head"), ("DET", "det")))
    symmetric = train([pair] * 50 + [flipped] * 50, set())
    p = math.exp(score(symmetric, pair, (1, 2)) - log_partition(symmetric, pair))
    assert abs(p - 0.5) <= 1e-3
    announce(6, f"held-out gap {gap:.4f} nats; symmetric corpus p={p:.4f}")


def test_criterion_07_feature_fidelity():
    subtree = LocalConfig((("DET", "det"), ("ADJ", "amod"), ("NOUN", "head")))
    fired = extract(subtree, (1, 2, 3), whitelist=None)
    published = ["L.DET.det", "L.ADJ.amod", "L.DET.det.ADJ.amod",
                 "l.DET.det.ADJ.amod", "A.BOS.BOS.DET.det",
                 "A.DET.det.ADJ.amod", "A.ADJ.amod.NOUN.head",
                 "A.NOUN.head.EOS.EOS"]
    for name in published:
        assert fired[name] == 1, name
    backoffs = ["L.DET", "L.det", "L.ADJ", "L.amod",
                "L.DET.ADJ", "L.det.amod", "l.DET.ADJ", "l.det.amod",
                "A.BOS.DET", "A.BOS.det", "A.DET.ADJ", "A.det.amod",
                "A.ADJ.NOUN", "A.amod.head", "A.NOUN.EOS", "A.head.EOS"]
    hgrams = ["H.BOS.BOS.DET.det.ADJ.amod",
              "H.BOS.BOS.DET.det.ADJ.amod.NOUN.head",
              "H.BOS.BOS.DET.det.ADJ.amod.NOUN.head.EOS.EOS",
              "H.DET.det.ADJ.amod.NOUN.head",
              "H.DET.det.ADJ.amod.NOUN.head.EOS.EOS",
              "H.ADJ.amod.NOUN.head.EOS.EOS"]
    assert dict(fired) == {name: 1 for name in published + backoffs + hgrams}
    announce(7, "worked subtree fires exactly the documented features, count 1")


def test_criterion_08_synthesis_invariants(fixture_model_dir, tmp_path):
    spec = LanguageSpec.parse("xx~nadj@N~sov@V", seed=0)
    outputs = []
    for run in ("first", "second"):
        out_dir = synthesize_language(spec, UD_ROOT / "xx", fixture_model_dir,
                                      tmp_path / run)
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert outputs[0] == outputs[1]

    source = {t.source_id: t for t in load_split("xx")}
    trees = parse_conllu(
        (tmp_path / "first" / spec.dirname /
         f"{spec.dirname}-ud-train.conllu").read_text())
    assert len(trees) == 47  # 50 minus the filtered sentences
    for tree in trees:
        assert is_projective(tree)
        original = source[tree.source_id]
        assert sorted((t.form, t.lemma, t.upos, t.deprel) for t in tree.tokens) \
            == sorted((t.form, t.lemma, t.upos, t.deprel)
                      for t in original.tokens)
        orig_indices = sorted(int(t.misc.rsplit("OrigIdx=", 1)[1])
                              for t in tree.tokens)
        assert orig_indices == list(range(1, len(original.tokens) + 1))
    announce(8, "synthesis is projective, multiset-preserving, aligned, "
                "and byte-stable")


def test_criterion_09_freeness_uniform():
    kept = filter_for_generation(load_split("xx"))
    value = freeness(OrderingModel("u", "N", {}), OrderingModel("u", "V", {}), kept)
    assert value == 1.0
    announce(9, "uniform model freeness is exactly 1.0")


UD12_DIR = os.environ.get("UD12_DIR")


@pytest.mark.skipif(not UD12_DIR, reason="UD12_DIR not set; real-treebank "
                    "freeness check runs only with local UD 1.2 data")
@pytest.mark.parametrize("lang,expected_r,expected_t", [
    ("hi", 0.20, 96.0),
    ("la_itt", 0.72, 90.0),
])
def test_criterion_09_freeness_real_data(lang, expected_r, expected_t):
    root = Path(UD12_DIR) / lang
    trees = parse_conllu(
        (root / f"{lang}-ud-train.conllu").read_text(encoding="utf-8"),
        "lenient")
    projective = [t for t in trees if is_projective(t)]
    models = {}
    for pos_class in ("N", "V"):
        configs = [c for t in projective for c in local_configs(t, pos_class)]
        models[pos_class] = train(configs, None, language=lang,
                                  pos_class=pos_class)
    kept = filter_for_generation(trees)
    touched = 100.0 * touched_fraction(kept)
    assert abs(touched - expected_t) <= 2.0
    dev = parse_conllu(
        (root / f"{lang}-ud-dev.conllu").read_text(encoding="utf-8"),
        "lenient")
    dev_kept = filter_for_generation(dev)
    value = freeness(models["N"], models["V"], dev_kept)
    assert abs(value - expected_r) <= 0.05
    announce(9, f"{lang}: R={value:.2f}, T={touched:.1f}%")


def test_criterion_10_language_models():
    corpus = tag_sequences(load_split("xx"))
    lm = train_trigram(corpus, mode="tag")
    predictable = lm.vocabulary - {BOS}
    for history in list(lm.histories)[:30] + [("ADV", "SYM")]:
        total = sum(2.0 ** lm.log2_conditional(history[0], history[1], w)
                    for w in predictable)
        assert abs(total - 1.0) < 1e-9

    tiny = train_trigram([["A"]], mode="word")
    assert abs(perplexity(tiny, [["A"]]) - 1.5) < 1e-9

    generator = train_trigram(tag_sequences(load_split("sov")), mode="tag")
    decoy = train_trigram([["PUNCT", "SYM", "INTJ"]] * 5, mode="tag")
    rnd = random.Random(10)
    target = []
    symbols = sorted(generator.vocabulary - {BOS})
    for _ in range(900):
        seq, history = [], (BOS, BOS)
        while len(seq) < 25:
            probs = [2.0 ** generator.log2_conditional(*history, w)
                     for w in symbols]
            u = rnd.random() * sum(probs)
            acc, pick = 0.0, symbols[-1]
            for w, p in zip(symbols, probs):
                acc += p
                if acc >= u:
                    pick = w
                    break
            if pick == "</s>":
                break
            seq.append(pick)
            history = (history[1], pick)
        target.append(seq)
    assert sum(map(len, target)) >= 10_000
    winner, _ = select_source([("decoy", decoy), ("generator", generator)],
                              target)
    assert winner == "generator"
    announce(10, "add-1 conditionals normalize; hand perplexity exact; "
                 "generating source selected")


def test_criterion_11_head_final_attainability(sov_v_model):
    fig_tree = parse_conllu(
        (Path(__file__).parent / "fixtures" / "fig1.conllu").read_text())[0]
    main_verb = next(c for c in local_configs(fig_tree, "V")
                     if c.source[1] == fig_tree.root.index)
    head_pos = [rel for _, rel in main_verb.elements].index("head") + 1
    movable = [k for k, (tag, rel) in enumerate(main_verb.elements, start=1)
               if rel != "head" and tag != "PUNCT"]

    def head_final(order):
        slot_of = {element: slot for slot, element in enumerate(order, 1)}
        return all(slot_of[k] < slot_of[head_pos] for k in movable)

    # oracle first: the enumerated probability mass of head-final orders
    orders, scores = enumerate_scores(sov_v_model, main_verb)
    logz = log_partition(sov_v_model, main_verb)
    exact_mass = sum(math.exp(s - logz)
                     for o, s in zip(orders, scores) if head_final(o))
    assert exact_mass > 0.8, f"enumerated head-final mass {exact_mass:.3f}"

    rng = RngStream("acceptance-fig1")
    hits = sum(head_final(sample_ordering(sov_v_model, main_verb, rng))
               for _ in range(1_000))
    assert hits / 1_000 > 0.8
    announce(11, f"verb-final mass {exact_mass:.3f}, "
                 f"sampled frequency {hits / 1000:.3f}")
