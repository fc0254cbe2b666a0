import math
import os
import re
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from deporder import synthesis
from deporder.model import OrderingModel, enumerate_scores, load_model, save_model
from deporder.synthesis import (DEFAULT_LAMBDA, SPLITS, LanguageSpec, RngStream,
                                SpecError, cross_product_specs,
                                load_language_models, permute_tree,
                                sample_ordering, synthesize_language)
from deporder.treebank import (DepTree, LocalConfig, Token,
                               filter_for_generation, generation_drop_reason,
                               is_projective, parse_conllu, serialize_conllu)

from conftest import UD_ROOT, chain_conllu, load_split, log_partition

DET_PAIR = LocalConfig((("DET", "det"), ("X", "head")))
DET_MODEL = OrderingModel("hand", "N", {"A.BOS.BOS.DET.det": 1.0}, frozenset())


class TestLanguageSpec:
    @pytest.mark.parametrize("name,fields", [
        ("en", ("en", None, None)),
        ("en~fr@N", ("en", "fr", None)),
        ("en~hi@V", ("en", None, "hi")),
        ("en~fr@N~hi@V", ("en", "fr", "hi")),
        ("la_itt~grc_proiel@N~ja_ktc@V", ("la_itt", "grc_proiel", "ja_ktc")),
    ])
    def test_parse_and_dirname_round_trip(self, name, fields):
        spec = LanguageSpec.parse(name)
        assert (spec.substrate, spec.superstrate_n, spec.superstrate_v) == fields
        assert spec.dirname == name
        assert spec.lam == DEFAULT_LAMBDA and spec.seed == 0

    @pytest.mark.parametrize("bad", [
        "", "en~fr@X", "en~fr", "en~fr@N~de@N", "en~hi@V~fr@N", "e n", "en~@N",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(SpecError):
            LanguageSpec.parse(bad)

    def test_cross_product_count(self):
        languages = [f"l{i:02d}" for i in range(37)]
        names = cross_product_specs(languages)
        assert len(names) == 53_428
        assert len(set(names)) == 53_428
        assert "l00" in names
        assert "l00~l00@N~l00@V" in names  # self-permutation entries count


class TestRngStream:
    def test_deterministic(self):
        a = RngStream(0, "en~fr@N", "train", 7)
        b = RngStream(0, "en~fr@N", "train", 7)
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]

    def test_distinct_keys_distinct_streams(self):
        draws = {RngStream(0, "en~fr@N", split, k).uniform()
                 for split in ("train", "dev") for k in range(10)}
        assert len(draws) == 20

    def test_key_reflects_derivation(self, fixture_model_dir, tmp_path, monkeypatch):
        # each kept sentence's stream is keyed (seed, spec dirname, split,
        # 0-based ordinal in the split, dropped sentences counted)
        keys = []

        class Recording(RngStream):
            def __init__(self, *key_parts):
                super().__init__(*key_parts)
                keys.append(self.key.split("\x1f"))

        monkeypatch.setattr(synthesis, "RngStream", Recording)
        spec = LanguageSpec.parse("xx~sov@V", seed=3)
        synthesize_language(spec, UD_ROOT / "xx", fixture_model_dir, tmp_path)
        assert keys == [["3", "xx~sov@V", split, str(k)] for split in SPLITS
                        for k, tree in enumerate(load_split("xx", split))
                        if generation_drop_reason(tree) is None]


class TestSampleOrdering:
    def test_single_element_skips_rng(self):
        lone = LocalConfig((("PRON", "head"),))
        rng = RngStream("lone")
        fresh = RngStream("lone")
        assert sample_ordering(OrderingModel("u", "N", {}), lone, rng) == (1,)
        assert rng.uniform() == fresh.uniform()  # no draw was consumed

    def test_uniform_frequencies(self):
        config = LocalConfig((("DET", "det"), ("ADJ", "amod"), ("NOUN", "head")))
        model = OrderingModel("u", "N", {})
        rng = RngStream("uniform-check")
        counts = Counter(sample_ordering(model, config, rng)
                         for _ in range(60_000))
        assert len(counts) == 6
        for order, hits in counts.items():
            assert abs(hits / 60_000 - 1 / 6) < 0.01

    def test_two_permutation_frequency(self):
        rng = RngStream("det-first")
        hits = sum(sample_ordering(DET_MODEL, DET_PAIR, rng) == (1, 2)
                   for _ in range(10_000))
        expected = math.e / (math.e + 1.0)
        assert abs(hits / 10_000 - expected) < 0.01

    def test_size_cap(self):
        big = LocalConfig(tuple([("ADJ", "amod")] * 7 + [("NOUN", "head")]))
        with pytest.raises(ValueError):
            sample_ordering(OrderingModel("u", "N", {}), big, RngStream("big"))

    def test_matches_enumerated_distribution(self):
        config = LocalConfig((("NOUN", "nsubj"), ("VERB", "head"),
                              ("NOUN", "dobj")))
        model = OrderingModel("t", "V",
                              {"L.NOUN.nsubj": 0.9, "A.VERB.head.EOS.EOS": -0.4},
                              frozenset())
        orders, scores = enumerate_scores(model, config)
        logz = log_partition(model, config)
        exact = {o: math.exp(s - logz) for o, s in zip(orders, scores)}
        rng = RngStream("gof")
        counts = Counter(sample_ordering(model, config, rng)
                         for _ in range(30_000))
        for order, p in exact.items():
            assert abs(counts[order] / 30_000 - p) < 0.01


class TestPermuteTree:
    def test_no_models_is_identity_plus_origidx(self, fig1_tree):
        out = permute_tree(fig1_tree, None, None, RngStream("id"))
        assert [t.form for t in out.tokens] == [t.form for t in fig1_tree.tokens]
        assert [t.head for t in out.tokens] == [t.head for t in fig1_tree.tokens]
        assert [t.misc for t in out.tokens] == \
            [f"OrigIdx={i}" for i in range(1, 11)]

    def test_head_final_verb_attainable(self, fig1_tree, sov_v_model):
        sentences = {
            " ".join(t.form for t in
                     permute_tree(fig1_tree, None, sov_v_model,
                                  RngStream("hindi-like", k)).tokens)
            for k in range(50)}
        assert ("Every move Google makes this particular future closer brings ."
                in sentences)

    def test_noun_adjective_swap_attainable(self, fig1_tree, nadj_n_model):
        sentences = {
            " ".join(t.form for t in
                     permute_tree(fig1_tree, nadj_n_model, None,
                                  RngStream("french-like", k)).tokens)
            for k in range(50)}
        assert any("this future particular" in s for s in sentences)

    def test_multiset_preserved_and_projective(self, xx_train_trees, xx_models):
        kept = filter_for_generation(xx_train_trees)
        model_n, model_v = xx_models
        for k, tree in enumerate(kept):
            out = permute_tree(tree, model_n, model_v, RngStream("inv", k))
            assert is_projective(out)
            assert sorted((t.form, t.lemma, t.upos, t.deprel) for t in out.tokens) \
                == sorted((t.form, t.lemma, t.upos, t.deprel) for t in tree.tokens)
            orig = sorted(int(t.misc.rsplit("OrigIdx=", 1)[1]) for t in out.tokens)
            assert orig == list(range(1, len(tree.tokens) + 1))
            assert out.ranges == ()

    def test_tree_deeper_than_the_recursion_limit(self, xx_models):
        (chain,) = parse_conllu(chain_conllu(1200))
        out = permute_tree(chain, xx_models[0], None, RngStream("chain"))
        assert parse_conllu(serialize_conllu([out]), "strict") == [out]
        assert is_projective(out)
        assert sorted(t.form for t in out.tokens) == sorted(t.form for t in chain.tokens)

    def test_unfiltered_input_rejected(self):
        crossing = DepTree((
            Token(1, "a", "a", "NOUN", head=3, deprel="dobj"),
            Token(2, "b", "b", "VERB", head=0, deprel="root"),
            Token(3, "c", "c", "VERB", head=2, deprel="ccomp"),
            Token(4, "d", "d", "ADV", head=2, deprel="advmod")))
        with pytest.raises(ValueError):
            permute_tree(crossing, None, None, RngStream("bad"))

    def test_misc_appends_to_existing(self):
        tree = DepTree((
            Token(1, "a", "a", "DET", head=2, deprel="det", misc="SpaceAfter=No"),
            Token(2, "b", "b", "NOUN", head=0, deprel="root")))
        out = permute_tree(tree, None, None, RngStream("misc"))
        assert out.tokens[0].misc == "SpaceAfter=No|OrigIdx=1"

    def test_deps_remapped_or_cleared(self, sov_v_model):
        tree = DepTree((
            Token(1, "a", "a", "NOUN", head=3, deprel="nsubj", deps="3:nsubj"),
            Token(2, "b", "b", "NOUN", head=3, deprel="dobj", deps="0:root|3:dobj"),
            Token(3, "c", "c", "VERB", head=0, deprel="root", deps="bad:x"),
            Token(4, ".", ".", "PUNCT", head=3, deprel="punct", deps="3.1:odd")))
        out = permute_tree(tree, None, sov_v_model, RngStream("deps"))
        by_orig = {int(t.misc.rsplit("OrigIdx=", 1)[1]): t for t in out.tokens}
        new_of = {orig: tok.index for orig, tok in by_orig.items()}
        assert by_orig[1].deps == f"{new_of[3]}:nsubj"
        assert by_orig[2].deps == f"0:root|{new_of[3]}:dobj"
        assert by_orig[3].deps == "_"
        assert by_orig[4].deps == "_"


@pytest.fixture(scope="session")
def out_root(tmp_path_factory, fixture_model_dir):
    root = tmp_path_factory.mktemp("synth")
    spec = LanguageSpec.parse("xx~nadj@N~sov@V")
    synthesize_language(spec, UD_ROOT / "xx", fixture_model_dir, root)
    return root


class TestSynthesizeLanguage:
    def test_directory_layout(self, out_root):
        out = out_root / "xx~nadj@N~sov@V"
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.tsv",
                         "xx~nadj@N~sov@V-ud-dev.conllu",
                         "xx~nadj@N~sov@V-ud-test.conllu",
                         "xx~nadj@N~sov@V-ud-train.conllu"]

    def test_manifest_contents(self, out_root):
        manifest = dict(
            line.split("\t", 1) for line in
            (out_root / "xx~nadj@N~sov@V" / "manifest.tsv")
            .read_text().splitlines())
        assert manifest["spec"] == "xx~nadj@N~sov@V"
        assert manifest["seed"] == "0"
        assert manifest["train_kept"] == "47"
        assert manifest["train_dropped_nonprojective"] == "2"
        assert manifest["train_dropped_fanout"] == "1"
        dropped = manifest["train_dropped_ids"].split(",")
        assert "xx-train-np1" in dropped and "xx-train-fan1" in dropped
        assert int(manifest["train_multiword_lines_dropped"]) == 3
        assert int(manifest["train_deps_fields_cleared"]) == 1
        assert manifest["lambda"] == "0.05"

    def test_outputs_parse_and_align(self, out_root):
        out = out_root / "xx~nadj@N~sov@V"
        for split in ("train", "dev", "test"):
            trees = parse_conllu(
                (out / f"xx~nadj@N~sov@V-ud-{split}.conllu").read_text())
            assert all(is_projective(t) for t in trees)
            for tree in trees:
                orig = sorted(int(t.misc.rsplit("OrigIdx=", 1)[1])
                              for t in tree.tokens)
                assert orig == list(range(1, len(tree.tokens) + 1))

    def test_byte_identical_rerun(self, out_root, fixture_model_dir,
                                  tmp_path_factory):
        other = tmp_path_factory.mktemp("synth-again")
        spec = LanguageSpec.parse("xx~nadj@N~sov@V")
        synthesize_language(spec, UD_ROOT / "xx", fixture_model_dir, other)
        for name in ("manifest.tsv", "xx~nadj@N~sov@V-ud-train.conllu",
                     "xx~nadj@N~sov@V-ud-dev.conllu",
                     "xx~nadj@N~sov@V-ud-test.conllu"):
            assert (other / "xx~nadj@N~sov@V" / name).read_bytes() \
                == (out_root / "xx~nadj@N~sov@V" / name).read_bytes()

    def test_self_permutation(self, fixture_model_dir, tmp_path):
        spec = LanguageSpec.parse("sov~sov@N~sov@V")
        out = synthesize_language(spec, UD_ROOT / "sov", fixture_model_dir,
                                  tmp_path)
        trees = parse_conllu((out / "sov~sov@N~sov@V-ud-train.conllu").read_text())
        assert len(trees) == 40

    def test_plain_substrate_spec(self, fixture_model_dir, tmp_path):
        spec = LanguageSpec.parse("xx")
        out = synthesize_language(spec, UD_ROOT / "xx", fixture_model_dir,
                                  tmp_path)
        trees = parse_conllu((out / "xx-ud-train.conllu").read_text())
        source = {t.source_id: t for t in load_split("xx")}
        for tree in trees:  # no superstrates: order untouched, alignment added
            assert [t.form for t in tree.tokens] \
                == [t.form for t in source[tree.source_id].tokens]

    def test_missing_models_rejected(self, tmp_path):
        spec = LanguageSpec.parse("xx~sov@V")
        with pytest.raises(SpecError):
            synthesize_language(spec, UD_ROOT / "xx", tmp_path / "nope", tmp_path)

    def test_missing_split_rejected(self, fixture_model_dir, tmp_path):
        spec = LanguageSpec.parse("xx~sov@V")
        with pytest.raises(FileNotFoundError):
            synthesize_language(spec, tmp_path / "empty", fixture_model_dir,
                                tmp_path)

    def test_interrupted_rewrite_leaves_no_manifest(self, fixture_model_dir,
                                                    tmp_path, monkeypatch):
        spec = LanguageSpec.parse("xx~sov@V")
        out = synthesize_language(spec, UD_ROOT / "xx", fixture_model_dir, tmp_path)
        assert (out / "manifest.tsv").exists()
        placed, real_replace = [], os.replace

        def fail_after_first(src, dst):
            if placed:
                raise OSError("disk full")
            placed.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(synthesis.os, "replace", fail_after_first)
        with pytest.raises(OSError, match="disk full"):
            synthesize_language(spec, UD_ROOT / "xx", fixture_model_dir, tmp_path)
        assert placed == ["xx~sov@V-ud-train.conllu"]
        assert not (out / "manifest.tsv").exists()

    def test_load_language_models_checks_class(self, tmp_path):
        save_model(OrderingModel("zz", "V", {}, frozenset()),
                   tmp_path / "zz-N.model")
        save_model(OrderingModel("zz", "V", {}, frozenset()),
                   tmp_path / "zz-V.model")
        with pytest.raises(SpecError):
            load_language_models(tmp_path, "zz")


class TestSpecInputs:
    @pytest.mark.parametrize("name,languages", [
        ("xx~nadj@N~sov@V", ("xx", "nadj", "sov")),
        ("xx~xx@N~xx@V", ("xx",)),
        ("xx~sov@V", ("xx", "sov")),
        ("xx", ()),
    ])
    def test_each_model_file_read_once(self, name, languages,
                                       fixture_model_dir, tmp_path,
                                       monkeypatch):
        reads = Counter()

        def counting_load(path):
            reads[path.name] += 1
            return load_model(path)

        monkeypatch.setattr(synthesis, "load_model", counting_load)
        synthesize_language(LanguageSpec.parse(name), UD_ROOT / "xx",
                            fixture_model_dir, tmp_path)
        assert reads == Counter(f"{lang}-{pos_class}.model"
                                for lang in languages for pos_class in "NV")

    def test_missing_model_file_writes_nothing(self, fixture_model_dir,
                                               tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        for path in fixture_model_dir.iterdir():
            if path.name != "sov-V.model":
                shutil.copy(path, models)
        with pytest.raises(SpecError):
            synthesize_language(LanguageSpec.parse("xx~sov@V"), UD_ROOT / "xx",
                                models, tmp_path / "out")
        assert not (tmp_path / "out" / "xx~sov@V").exists()

    @pytest.mark.parametrize("dev_text,error", [
        (None, FileNotFoundError),
        ("1\tbroken\n\n", ValueError),
    ])
    def test_bad_dev_split_writes_nothing(self, dev_text, error,
                                          fixture_model_dir, tmp_path):
        substrate = tmp_path / "xx"
        substrate.mkdir()
        for split in ("train", "test"):
            shutil.copy(UD_ROOT / "xx" / f"xx-ud-{split}.conllu", substrate)
        if dev_text is not None:
            (substrate / "xx-ud-dev.conllu").write_text(dev_text)
        with pytest.raises(error):
            synthesize_language(LanguageSpec.parse("xx~sov@V"), substrate,
                                fixture_model_dir, tmp_path / "out",
                                mode="strict")
        assert not (tmp_path / "out" / "xx~sov@V").exists()
