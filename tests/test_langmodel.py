import math
import random

import pytest

from deporder.langmodel import (BOS, EOS, OOV, TrigramLM, lm_from_text,
                                lm_to_text, perplexity, select_source,
                                tag_sequences, train_trigram)
from deporder.treebank import UPOS_TAGS

from conftest import load_split


def uniform_lm(mode="tag"):
    """No counts at all: every conditional is the add-1 fallback 1/V."""
    vocab = frozenset(UPOS_TAGS | {BOS, EOS})
    return TrigramLM(mode, vocab, {}, {})


def sample_from_lm(lm, rnd, n_sequences, max_len=30):
    """Test-side sampler: walk the conditionals position by position."""
    symbols = sorted(lm.vocabulary - {BOS})
    sequences = []
    for _ in range(n_sequences):
        seq = []
        history = (BOS, BOS)
        while len(seq) < max_len:
            probs = [2.0 ** lm.log2_conditional(history[0], history[1], w)
                     for w in symbols]
            total = sum(probs)
            u = rnd.random() * total
            acc = 0.0
            pick = symbols[-1]
            for w, p in zip(symbols, probs):
                acc += p
                if acc >= u:
                    pick = w
                    break
            if pick == EOS:
                break
            seq.append(pick)
            history = (history[1], pick)
        sequences.append(seq)
    return sequences


class TestTrain:
    def test_one_sequence_hand_case(self):
        lm = train_trigram([["A"]], mode="word")
        # the lone word falls under the OOV threshold, so the prediction
        # vocabulary is {OOV, EOS}
        assert lm.prediction_vocab_size == 2
        p = 2.0 ** lm.log2_conditional(BOS, BOS, lm.map_symbol("A"))
        assert p == pytest.approx(2 / 3, abs=1e-12)

    def test_unseen_trigram_under_seen_history(self):
        lm = train_trigram([["NOUN", "VERB"]] * 4, mode="tag")
        v = lm.prediction_vocab_size
        k = lm.histories[(BOS, BOS)]
        p = 2.0 ** lm.log2_conditional(BOS, BOS, "ADJ")
        assert p == pytest.approx(1 / (k + v), abs=1e-12)

    def test_unseen_history_uniform(self):
        lm = train_trigram([["NOUN"]], mode="tag")
        p = 2.0 ** lm.log2_conditional("ADV", "ADV", "NOUN")
        assert p == pytest.approx(1 / lm.prediction_vocab_size, abs=1e-12)

    def test_oov_threshold_boundary(self):
        seqs = [["rare"] * 9 + ["common"] * 10]
        lm = train_trigram(seqs, mode="word", oov_threshold=10)
        assert "rare" not in lm.vocabulary
        assert "common" in lm.vocabulary
        assert lm.map_symbol("rare") == OOV

    @pytest.mark.parametrize("mode, other", [("tag", "X"), ("word", OOV)])
    def test_sentinel_spelled_token_is_no_boundary(self, mode, other):
        lm = train_trigram([[BOS, EOS] * 6], mode=mode, oov_threshold=1)
        assert lm.map_symbol(BOS) == lm.map_symbol(EOS) == other
        assert set(lm.trigrams) == {(BOS, BOS, other), (BOS, other, other),
                                    (other, other, other), (other, other, EOS)}
        assert lm.sequence_log2prob([BOS, EOS]) == lm.sequence_log2prob([other] * 2)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_trigram([], mode="tag")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            train_trigram([["A"]], mode="char")

    def test_conditionals_sum_to_one(self):
        corpus = tag_sequences(load_split("xx"))
        lm = train_trigram(corpus, mode="tag")
        histories = list(lm.histories)[:20] + [("ADV", "NUM"), (BOS, "SYM")]
        predictable = lm.vocabulary - {BOS}
        for history in histories:
            total = sum(2.0 ** lm.log2_conditional(history[0], history[1], w)
                        for w in predictable)
            assert abs(total - 1.0) < 1e-9

    def test_word_mode_sum_to_one(self):
        corpus = [["a", "b", "a", "c"] * 5, ["b", "a"] * 6]
        lm = train_trigram(corpus, mode="word", oov_threshold=5)
        predictable = lm.vocabulary - {BOS}
        for history in list(lm.histories) + [("zzz", "qqq")]:
            total = sum(2.0 ** lm.log2_conditional(history[0], history[1], w)
                        for w in predictable)
            assert abs(total - 1.0) < 1e-9


class TestPerplexity:
    def test_uniform_lm_gives_vocab_size(self):
        lm = uniform_lm()
        pp = perplexity(lm, [["NOUN", "VERB"], ["ADJ"]])
        assert pp == pytest.approx(lm.prediction_vocab_size, abs=1e-9)

    def test_hand_value(self):
        lm = train_trigram([["A"]], mode="word")
        assert perplexity(lm, [["A"]]) == pytest.approx(1.5, abs=1e-9)

    def test_reordering_invariance(self):
        corpus = tag_sequences(load_split("xx"))
        lm = train_trigram(corpus, mode="tag")
        eval_seqs = tag_sequences(load_split("xx", "dev"))
        assert perplexity(lm, eval_seqs) \
            == perplexity(lm, list(reversed(eval_seqs)))

    def test_training_data_beats_shuffled(self):
        corpus = tag_sequences(load_split("sov"))
        lm = train_trigram(corpus, mode="tag")
        base = perplexity(lm, corpus)
        rnd = random.Random(17)
        shuffled_pps = []
        for _ in range(20):
            shuffled = [rnd.sample(seq, len(seq)) for seq in corpus]
            shuffled_pps.append(perplexity(lm, shuffled))
        assert base <= sum(shuffled_pps) / len(shuffled_pps)

    def test_oov_mapping_on_eval(self):
        lm = train_trigram([["a"] * 20], mode="word")
        with_oov = perplexity(lm, [["zzz"]])
        assert math.isfinite(with_oov) and with_oov > 0


class TestSelectSource:
    def test_single_candidate(self):
        lm = train_trigram([["NOUN"]], mode="tag")
        winner, table = select_source([("only", lm)], [["NOUN"]])
        assert winner == "only"
        assert table == [("only", table[0][1], 1)]

    def test_generating_lm_wins(self):
        generator = train_trigram(tag_sequences(load_split("sov")), mode="tag")
        rnd = random.Random(5)
        target = sample_from_lm(generator, rnd, 400)
        assert sum(map(len, target)) > 2000
        decoy = train_trigram([["PUNCT", "SYM", "INTJ", "X"]] * 10, mode="tag")
        winner, table = select_source(
            [("decoy", decoy), ("generator", generator)], target)
        assert winner == "generator"
        assert [row[0] for row in table] == ["generator", "decoy"]
        assert table[0][1] > table[1][1]

    def test_tie_break_lexicographic(self):
        lm = train_trigram([["NOUN", "VERB"]], mode="tag")
        winner, table = select_source([("ab", lm), ("aa", lm)], [["NOUN"]])
        assert winner == "aa"
        assert [row[0] for row in table] == ["aa", "ab"]

    def test_duplication_invariance(self):
        a = train_trigram(tag_sequences(load_split("sov")), mode="tag")
        b = train_trigram(tag_sequences(load_split("nadj")), mode="tag")
        target = tag_sequences(load_split("sov", "dev"))
        once, _ = select_source([("a", a), ("b", b)], target)
        twice, _ = select_source([("a", a), ("b", b)], target + target)
        assert once == twice

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_source([], [["NOUN"]])


class TestPersistence:
    def test_round_trip(self):
        lm = train_trigram(tag_sequences(load_split("nadj")), mode="tag")
        text = lm_to_text(lm)
        again = lm_from_text(text)
        assert lm_to_text(again) == text
        assert again.vocabulary == lm.vocabulary
        assert again.trigrams == lm.trigrams
        assert again.histories == lm.histories

    def test_word_mode_round_trip(self):
        lm = train_trigram([["a", "b"] * 8, ["b", "c"] * 6], mode="word",
                           oov_threshold=3)
        again = lm_from_text(lm_to_text(lm))
        assert again.oov_threshold == 3
        assert again.vocabulary == lm.vocabulary
        eval_seqs = [["a", "zzz", "b"]]
        assert perplexity(again, eval_seqs) == perplexity(lm, eval_seqs)

    def test_whitespace_symbols_rejected(self):
        lm = train_trigram([["a b"] * 12], mode="word", oov_threshold=1)
        with pytest.raises(ValueError):
            lm_to_text(lm)

    def test_vocab_size_mismatch_detected(self):
        lm = train_trigram([["NOUN"]], mode="tag")
        text = lm_to_text(lm).replace("#vocab_size 19", "#vocab_size 7")
        with pytest.raises(ValueError):
            lm_from_text(text)

    @pytest.mark.parametrize("line", [
        "NOUN NOUN NOUN\tabc", "NOUN NOUN NOUN\t-5", "NOUN NOUN NOUN\t2.5",
        "#oov_threshold x", "#oov_threshold -1", "#vocab_size 19.0",
    ])
    def test_bad_count_names_its_line(self, line):
        with pytest.raises(ValueError, match="line 2: "):
            lm_from_text(f"#mode tag\n{line}\n")

    def test_repeated_trigram_rejected(self):
        # with both lines kept the history would count 3 against a trigram
        # count of 2, and the conditionals would sum to 0.952
        with pytest.raises(ValueError,
                           match="line 3: repeated trigram 'NOUN NOUN NOUN'"):
            lm_from_text("#mode tag\nNOUN NOUN NOUN\t1\nNOUN NOUN NOUN\t2\n")

    @pytest.mark.parametrize("line, message", [
        ("#order 3", "line 2: unknown header '#order 3'"),
        ("NOUN NOUN NOUN 5", "line 2: expected `w1 w2 w3\\t<count>`"),
    ], ids=["unknown-header", "no-tab"])
    def test_bad_line_named(self, line, message):
        with pytest.raises(ValueError) as err:
            lm_from_text(f"#mode tag\n{line}\n")
        assert str(err.value) == message

    # the conditionals after a history must sum to 1, so every trigram on
    # file must be one that a padded sequence produces; with `NOUN NOUN FOO`
    # kept, those after (NOUN, NOUN) would sum to 0.783
    @pytest.mark.parametrize("gram", [
        "NOUN NOUN FOO", "FOO NOUN NOUN", "NOUN NOUN <s>", "<s> <s> <s>",
        "</s> NOUN NOUN", "NOUN </s> NOUN", "NOUN </s> </s>", "NOUN <s> NOUN",
        "</s> <s> NOUN",
    ])
    def test_impossible_trigram_rejected(self, gram):
        with pytest.raises(ValueError,
                           match=f"line 3: no sequence has the trigram {gram}$"):
            lm_from_text(f"#mode tag\n#vocab_size 19\n{gram}\t5\n")

    @pytest.mark.parametrize("mode", ["tag", "word"])
    def test_every_trained_trigram_loads(self, mode):
        # the padding events are all possible ones: an empty sentence and
        # the first and last positions of every other
        lm = train_trigram([[], ["NOUN"], ["DET", "NOUN", "VERB"] * 4], mode=mode,
                           oov_threshold=1)
        assert {(BOS, BOS, EOS), (BOS, BOS, "NOUN"), (BOS, "NOUN", EOS)} <= set(lm.trigrams)
        assert lm_from_text(lm_to_text(lm)).trigrams == lm.trigrams

    def test_missing_mode_rejected(self):
        with pytest.raises(ValueError):
            lm_from_text("#vocab_size 3\n")
