import errno
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deporder import treebank
from deporder.treebank import (ConlluError, DepTree, Token, UPOS_TAGS,
                               children_map, filter_for_generation,
                               generation_drop_reason, is_projective,
                               local_configs, max_fanout, parse_conllu, read_input,
                               read_records, serialize_conllu, touched_fraction,
                               write_whole)

from deporder.langmodel import (lm_from_text, load_lm, save_lm, tag_sequences,
                                train_trigram, word_sequences)
from deporder.model import load_model, model_from_text, save_model

from conftest import FIXTURES, UD_ROOT, load_split, read_trees


def make_tree(rows, source_id="t"):
    """rows: (index, form, upos, head, deprel)"""
    tokens = tuple(Token(i, form, form.lower(), upos, "_", "_", head, rel)
                   for i, form, upos, head, rel in rows)
    return DepTree(tokens, source_id=source_id)


CHAIN3 = make_tree([(1, "a", "NOUN", 2, "nsubj"),
                    (2, "b", "VERB", 0, "root"),
                    (3, "c", "NOUN", 2, "dobj")])


class TestParse:
    def test_fig1_structure(self, fig1_tree):
        assert len(fig1_tree.tokens) == 10
        assert fig1_tree.root.form == "brings"
        assert fig1_tree.root.index == 5
        makes = fig1_tree.tokens[3]
        assert makes.form == "makes"
        assert makes.deprel == "acl:rel"
        assert makes.head == 2  # the relative clause hangs off "move"
        assert fig1_tree.source_id == "fig1"

    def test_empty_input(self):
        assert parse_conllu("") == []
        assert parse_conllu("\n\n") == []

    def test_single_token_sentence(self):
        trees = parse_conllu("1\tX\tx\tNOUN\t_\t_\t0\troot\t_\t_\n\n")
        assert len(trees) == 1
        assert trees[0].root.form == "X"

    def test_comments_preserved(self):
        text = "# sent_id = demo\n# text = X\n1\tX\tx\tNOUN\t_\t_\t0\troot\t_\t_\n\n"
        tree = parse_conllu(text)[0]
        assert tree.comments == ("# sent_id = demo", "# text = X")
        assert tree.source_id == "demo"

    def test_range_lines_are_not_tokens(self):
        text = ("1\tdel\t_\tADP\t_\t_\t2\tcase\t_\t_\n"
                "2-3\tdela\t_\t_\t_\t_\t_\t_\t_\t_\n"
                "2\tde\t_\tADP\t_\t_\t4\tcase\t_\t_\n"
                "3\tla\t_\tDET\t_\t_\t4\tdet\t_\t_\n"
                "4\tcasa\t_\tNOUN\t_\t_\t0\troot\t_\t_\n\n")
        tree = parse_conllu(text)[0]
        assert len(tree.tokens) == 4
        assert tree.ranges == ((2, "2-3\tdela\t_\t_\t_\t_\t_\t_\t_\t_"),)
        assert serialize_conllu([tree]) == text

    # (text, message fragment, ConlluError.line)
    STRICT_ERRORS = [
        ("1\tX\tx\tNOUN\t_\t_\t0\troot\t_\n\n", "10 columns", 1),
        ("1\tX\tx\tNOUN\t_\t_\tq\troot\t_\t_\n\n", "non-integer head", 1),
        ("1\tX\tx\tNOUN\t_\t_\t2\tdep\t_\t_\n"
         "2\tY\ty\tNOUN\t_\t_\t1\tdep\t_\t_\n\n", "root", 1),
        ("1\tX\tx\tNOUN\t_\t_\t0\troot\t_\t_\n"
         "2\tY\ty\tNOUN\t_\t_\t0\troot\t_\t_\n\n", "root", 1),
        ("1\tX\tx\tNOUN\t_\t_\t2\tdep\t_\t_\n"
         "2\tY\ty\tNOUN\t_\t_\t1\tdep\t_\t_\n"
         "3\tZ\tz\tNOUN\t_\t_\t0\troot\t_\t_\n\n", "cycle", 1),
        ("1\tX\tx\tNOUN\t_\t_\t1\troot\t_\t_\n\n", "own head", 1),
        ("1\tX\tx\tBLORP\t_\t_\t0\troot\t_\t_\n\n", "POS", 1),
        ("1\tX\tx\tNOUN\t_\t_\t0\tzzz\t_\t_\n\n", "relation", 1),
        # a line fault in the second block
        ("1\tX\tx\tNOUN\t_\t_\t0\troot\t_\t_\n\n"
         "# sent_id = b\n1\tY\ty\tNOUN\t_\t_\t0\troot\t_\t_\n"
         "3\tZ\tz\tNOUN\t_\t_\t1\tdep\t_\t_\n\n", "out of sequence", 5),
        # a block fault is reported at the block's first line
        ("1\tX\tx\tNOUN\t_\t_\t0\troot\t_\t_\n\n\n"
         "# sent_id = b\n1\tY\ty\tNOUN\t_\t_\t3\tdep\t_\t_\n"
         "2\tZ\tz\tNOUN\t_\t_\t0\troot\t_\t_\n\n", "out of range", 4),
        ("\n \n# only a comment\n# and another\n\n", "no token lines", 3),
    ]

    # ids name each case by its text and fragment, as pytest would
    @pytest.mark.parametrize("bad,fragment,line", STRICT_ERRORS,
                             ids=[f"{bad}-{fragment}" for bad, fragment, _ in STRICT_ERRORS])
    def test_strict_errors_positioned(self, bad, fragment, line):
        with pytest.raises(ConlluError) as err:
            parse_conllu(bad, "strict")
        assert fragment in str(err.value)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: ")

    def test_lenient_passes_unknown_values_through(self):
        text = "1\tX\tx\tBLORP\t_\t_\t0\tzzz:sub\t_\t_\n\n"
        tree = parse_conllu(text, "lenient")[0]
        assert tree.tokens[0].upos == "BLORP"
        assert tree.tokens[0].deprel == "zzz:sub"
        assert serialize_conllu([tree]) == text

    def test_lenient_skips_broken_sentences(self):
        text = ("1\tX\tx\tNOUN\t_\t_\t0\troot\t_\n\n"  # 9 columns
                "1\tY\ty\tNOUN\t_\t_\t0\troot\t_\t_\n\n")
        trees = parse_conllu(text, "lenient")
        assert [t.tokens[0].form for t in trees] == ["Y"]

    def test_lenient_skip_takes_no_ordinal(self):
        one = "1\tX\tx\tNOUN\t_\t_\t0\troot\t_\t_\n"
        text = f"{one}\n1\tX\tx\tNOUN\t_\t_\t0\troot\t_\n{one}\n{one}\n"
        assert [t.source_id for t in parse_conllu(text, "lenient")] == ["s1", "s2"]

    def test_lenient_skips_late_comment(self, caplog):
        # kept, the comment would be written back above the first token
        text = ("# sent_id = c\n1\tX\tx\tNOUN\t_\t_\t0\troot\t_\t_\n"
                "# late\n2\tY\ty\tADJ\t_\t_\t1\tamod\t_\t_\n\n")
        with caplog.at_level("WARNING", logger="deporder.treebank"):
            assert parse_conllu(text, "lenient") == []
        assert [r.getMessage() for r in caplog.records] == [
            "skipping malformed sentence: line 3: comment after token lines"]
        with pytest.raises(ConlluError, match="line 3: comment after token lines"):
            parse_conllu(text, "strict")

    @pytest.mark.parametrize("bad,line", [
        ("1\tX\tx\tNOUN\t_\t_\t0\troot\t_\n", 3),  # the block's first line
        ("# c\n1\tX\tx\tNOUN\t_\t_\t0\troot\t_\n", 4),
        ("# only a comment\n", 3),
    ])
    def test_lenient_skip_is_logged(self, bad, line, caplog):
        one = "1\tY\ty\tNOUN\t_\t_\t0\troot\t_\t_\n"
        with caplog.at_level("WARNING", logger="deporder.treebank"):
            trees = parse_conllu(f"{one}\n{bad}\n{one}", "lenient")
        assert len(trees) == 2
        record, = caplog.records
        assert record.getMessage().startswith(
            f"skipping malformed sentence: line {line}: ")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            parse_conllu("", "fuzzy")


class TestSerialize:
    @pytest.mark.parametrize("path", sorted(UD_ROOT.glob("*/*.conllu")) +
                             [FIXTURES / "fig1.conllu"])
    def test_fixture_round_trip_bytes(self, path):
        text = path.read_text(encoding="utf-8")
        assert serialize_conllu(parse_conllu(text)) == text

    def test_misc_passthrough(self):
        tree = parse_conllu(
            "1\tX\tx\tNOUN\t_\t_\t0\troot\t_\tOrigIdx=7\n\n")[0]
        assert tree.tokens[0].misc == "OrigIdx=7"
        assert serialize_conllu([tree]).splitlines()[0].endswith("OrigIdx=7")

    def test_two_trees_two_blocks(self):
        one = "1\tX\tx\tNOUN\t_\t_\t0\troot\t_\t_"
        out = serialize_conllu(parse_conllu(f"{one}\n\n{one}\n\n"))
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 2
        assert out.endswith("\n")


def ancestor_walk_projective(tree):
    """Reference: for every arc, walk up from each token strictly inside it."""
    head_of = {t.index: t.head for t in tree.tokens}

    def under(node, ancestor):
        while node != 0:
            node = head_of[node]
            if node == ancestor:
                return True
        return False

    return all(under(k, t.head)
               for t in tree.tokens if t.head
               for k in range(min(t.head, t.index) + 1, max(t.head, t.index)))


def random_tree(rng, n):
    """A random tree over positions 1..n: each node, in a shuffled order,
    takes its head among the nodes placed before it."""
    order = rng.sample(range(1, n + 1), n)
    heads = {order[0]: 0}
    for k, node in enumerate(order[1:], start=1):
        heads[node] = order[rng.randrange(k)]
    return make_tree([(i, "w", "NOUN", heads[i], "root" if heads[i] == 0 else "dep")
                      for i in range(1, n + 1)])


class TestProjectivity:
    def test_fig1_projective(self, fig1_tree):
        assert is_projective(fig1_tree)

    def test_adjacent_arcs(self):
        assert is_projective(CHAIN3)

    def test_crossing_arcs(self):
        crossing = make_tree([(1, "a", "NOUN", 3, "dobj"),
                              (2, "b", "VERB", 0, "root"),
                              (3, "c", "VERB", 2, "ccomp"),
                              (4, "d", "ADV", 2, "advmod")])
        assert not ancestor_walk_projective(crossing)  # the 3->1 arc crosses
        assert not is_projective(crossing)

    def test_span_test_equals_ancestor_walk(self):
        rng = random.Random(8)
        outcomes = []
        for _ in range(20000):
            tree = random_tree(rng, rng.randint(1, 10))
            outcomes.append(ancestor_walk_projective(tree))
            assert is_projective(tree) == outcomes[-1], tree
        assert 0.2 < outcomes.count(False) / len(outcomes) < 0.8


class TestFilter:
    def fan_tree(self, dependents):
        rows = [(i, "w", "ADJ", dependents + 1, "amod")
                for i in range(1, dependents + 1)]
        rows.append((dependents + 1, "h", "NOUN", 0, "root"))
        return make_tree(rows, source_id="fan")

    def test_boundary_below_limit_kept(self):
        tree = self.fan_tree(6)
        assert generation_drop_reason(tree) is None
        assert filter_for_generation([tree]) == [tree]

    def test_boundary_at_limit_dropped(self):
        tree = self.fan_tree(7)
        assert max_fanout(tree) == 8
        assert generation_drop_reason(tree) == "fanout"
        assert filter_for_generation([tree]) == []

    def test_nonprojective_reason(self):
        bad = make_tree([(1, "a", "NOUN", 3, "dobj"),
                         (2, "b", "VERB", 0, "root"),
                         (3, "c", "VERB", 2, "ccomp"),
                         (4, "d", "ADV", 2, "advmod")], source_id="np")
        assert filter_for_generation([bad]) == []
        assert generation_drop_reason(bad) == "nonprojective"

    def test_idempotent(self, xx_train_trees):
        kept = filter_for_generation(xx_train_trees)
        assert filter_for_generation(kept) == kept
        assert all(generation_drop_reason(tree) is None for tree in kept)


class TestLocalConfigs:
    def test_fig1_future(self, fig1_tree):
        configs = {c.source[1]: c for c in local_configs(fig1_tree, "N")}
        future = configs[8]
        assert future.elements == (("DET", "det"), ("ADJ", "amod"), ("NOUN", "head"))
        assert future.n == 3

    def test_fig1_brings(self, fig1_tree):
        configs = {c.source[1]: c for c in local_configs(fig1_tree, "V")}
        brings = configs[5]
        # head plus nsubj, dobj, advmod, punct dependents
        assert brings.elements == (("NOUN", "nsubj"), ("VERB", "head"),
                                   ("NOUN", "dobj"), ("ADV", "advmod"),
                                   ("PUNCT", "punct"))
        assert brings.n == 5

    def test_subtype_preserved(self, fig1_tree):
        configs = {c.source[1]: c for c in local_configs(fig1_tree, "N")}
        move = configs[2]
        assert ("VERB", "acl:rel") in move.elements

    def test_dependent_labelled_head_is_dep(self):
        tree = make_tree([(1, "big", "ADJ", 2, "head"),
                          (2, "dog", "NOUN", 0, "root")])
        config, = local_configs(tree, "N")
        assert config.elements == (("ADJ", "dep"), ("NOUN", "head"))

    def test_childless_head(self):
        tree = make_tree([(1, "it", "PRON", 2, "nsubj"),
                          (2, "is", "VERB", 0, "root")])
        configs = local_configs(tree, "N")
        assert len(configs) == 1 and configs[0].n == 1

    def test_unknown_class(self, fig1_tree):
        with pytest.raises(ValueError):
            local_configs(fig1_tree, "Z")

    def test_dependent_sum_identity(self, xx_train_trees):
        for tree in xx_train_trees:
            deps = children_map(tree)
            total = sum(len(v) for h, v in deps.items() if h != 0)
            assert total == len(tree.tokens) - 1


class TestTouched:
    def test_range_and_fig1(self, fig1_tree, xx_train_trees):
        assert touched_fraction([fig1_tree]) == 1.0
        t = touched_fraction(xx_train_trees)
        assert 0.0 <= t <= 1.0
        assert touched_fraction([]) == 0.0


_FORMS = st.text(st.characters(whitelist_categories=("Lu", "Ll")),
                 min_size=1, max_size=8)
_RELS = st.sampled_from(["nsubj", "dobj", "det", "amod", "advmod",
                         "nmod", "case", "acl:relcl", "nmod:poss"])


@st.composite
def dep_trees(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    root = draw(st.integers(min_value=1, max_value=n))
    heads = {}
    for i in range(1, n + 1):
        if i == root:
            heads[i] = 0
        else:
            heads[i] = draw(st.integers(min_value=1, max_value=n)
                            .filter(lambda h, i=i: h != i))
    reached = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for child, head in heads.items():
            if head == node and child not in reached:
                reached.add(child)
                frontier.append(child)
    assume(len(reached) == n)
    tokens = tuple(
        Token(i, draw(_FORMS), draw(_FORMS),
              draw(st.sampled_from(sorted(UPOS_TAGS))), "_",
              draw(st.sampled_from(["_", "Case=Nom", "Num=Sing|Case=Acc"])),
              heads[i],
              "root" if heads[i] == 0 else draw(_RELS),
              "_",
              draw(st.sampled_from(["_", "SpaceAfter=No", "X=1|Y=2"])))
        for i in range(1, n + 1))
    comments = tuple(f"# note = {draw(_FORMS)}"
                     for _ in range(draw(st.integers(0, 2))))
    return DepTree(tokens, comments)


class TestRoundTripProperty:
    @settings(max_examples=120, deadline=None)
    @given(dep_trees())
    def test_serialize_then_parse_identity(self, tree):
        parsed = parse_conllu(serialize_conllu([tree]), "strict")
        assert len(parsed) == 1
        assert parsed[0].tokens == tree.tokens
        assert parsed[0].comments == tree.comments
        assert parsed[0].ranges == tree.ranges

    @settings(max_examples=60, deadline=None)
    @given(st.lists(dep_trees(), min_size=0, max_size=3))
    def test_parse_then_serialize_identity(self, trees):
        text = serialize_conllu(trees)
        assert serialize_conllu(parse_conllu(text, "strict")) == text


class TestWriteWhole:
    @pytest.mark.parametrize("kind", ["model", "lm"])
    def test_failed_save_leaves_the_previous_file(self, kind, xx_models, tmp_path,
                                                  monkeypatch):
        # the new artifact is longer than the 4 KiB the full disk takes
        if kind == "model":
            (old, new), save, load = xx_models, save_model, load_model
            entries = lambda artifact: artifact.weights
        else:
            trees = load_split("xx")
            old = train_trigram(tag_sequences(trees), "tag")
            new = train_trigram(word_sequences(trees), "word", oov_threshold=1)
            save, load, entries = save_lm, load_lm, lambda artifact: artifact.trigrams
        target = tmp_path / f"xx.{kind}"
        save(old, target)
        before = target.read_bytes()

        def full_disk(path, text, encoding=None):
            with open(path, "w", encoding=encoding) as out:
                out.write(text[:4096])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full_disk)
        with pytest.raises(OSError, match="No space left on device"):
            save(new, target)
        assert target.read_bytes() == before
        assert entries(load(target)) == entries(old)
        assert list(tmp_path.iterdir()) == [target]  # no `.tmp` left behind

    def test_failed_rename_leaves_no_tmp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        target.write_text("old\n")

        def failed_rename(source, destination):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(treebank.os, "replace", failed_rename)
        with pytest.raises(OSError, match="cross-device"):
            write_whole(target, "new\n")
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "old\n"


class TestReadRecords:
    def test_headers_and_records(self):
        headers, records = read_records(
            "#pos N\n\n  \nL.ADJ\t1.0\n#lang  xx \nno tab\na\tb\tc\n", ("lang", "pos"))
        assert headers == {"pos": (1, "N"), "lang": (5, "xx")}
        assert records == [(4, "L.ADJ", "\t", "1.0"), (6, "no tab", "", ""),
                           (7, "a", "\t", "b\tc")]

    @pytest.mark.parametrize("line", ["#lang", "#lang\txx", "# lang xx", "#langs xx"])
    def test_unknown_header(self, line):
        with pytest.raises(ValueError) as err:
            model_from_text(f"#pos N\n#version 1\n{line}\n")
        assert str(err.value) == f"line 3: unknown header {line!r}"

    def test_empty_value_is_a_header(self):
        assert model_from_text("#lang \n#pos N\n#version 1\n").language == ""

    @pytest.mark.parametrize("text, message", [
        ("#pos N\n#version 1\n#pos V\n", "line 3: repeated header '#pos V'"),
        ("#pos N\n#version 2\n#version 1\n", "line 3: repeated header '#version 1'"),
    ])
    def test_repeated_header(self, text, message):
        with pytest.raises(ValueError) as err:
            model_from_text(text)
        assert str(err.value) == message

    def test_header_faults_come_before_record_faults(self):
        # two faults: the framing's is reported, whatever their order
        with pytest.raises(ValueError) as err:
            model_from_text("#lang x\n#pos N\n#version 99\n#weights 3\n")
        assert str(err.value) == "line 4: unknown header '#weights 3'"
        with pytest.raises(ValueError) as err:
            lm_from_text("#mode tag\nNOUN NOUN NOUN\tx\n#order 3\n")
        assert str(err.value) == "line 3: unknown header '#order 3'"


class TestReadInput:
    def test_parse_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("text\n", encoding="utf-8")

        def parse(text):
            raise ValueError("line 1: bad")

        with pytest.raises(ValueError) as err:
            read_input(path, "test file", parse)
        assert str(err.value) == f"{path}: line 1: bad"

    def test_conllu_error_keeps_type_and_line(self, tmp_path):
        path = tmp_path / "bad.conllu"
        path.write_text("1\tw\tw\tNOUN\t_\t_\t1\troot\t_\t_\n\n", encoding="utf-8")
        with pytest.raises(ConlluError) as err:
            read_input(path, "treebank file", parse_conllu)
        assert err.value.line == 1
        assert str(err.value) == f"{path}: line 1: token 1 is its own head"

    def test_undecodable_file_named(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_bytes(b"#lang x\n\xff\n")
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError) as err:
            load_lm(tmp_path / "none.lm")
        assert str(err.value) == f"missing language model {tmp_path / 'none.lm'}"

    def test_os_error_passes_unchanged(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            read_input(tmp_path, "directory", str)
