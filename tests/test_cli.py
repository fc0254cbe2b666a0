import argparse
import concurrent.futures
import filecmp
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from deporder import cli
from deporder.cli import (EXIT_BAD_DATA, EXIT_MISMATCH, EXIT_MISSING_INPUT,
                          EXIT_OK, build_parser, main)
from deporder.model import OrderingModel, save_model

from conftest import UD_ROOT, chain_conllu


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-models")
    for lang in ("xx", "sov", "nadj"):
        code = main(["train", "--treebank", str(UD_ROOT / lang),
                     "--out", str(out)])
        assert code == EXIT_OK
    return out


class TestTrainCommand:
    def test_produces_both_model_files(self, tmp_path, capsys):
        code, out, _ = run(capsys, "train", "--treebank", str(UD_ROOT / "sov"),
                           "--out", str(tmp_path))
        assert code == EXIT_OK
        for pos_class in ("N", "V"):
            path = tmp_path / f"sov-{pos_class}.model"
            header = path.read_text().splitlines()[:2]
            assert header == ["#lang sov", f"#pos {pos_class}"]
        assert out.splitlines()[0] == \
            "lang\tpos\tconfigs\titerations\tobjective\tconverged"

    def test_unconverged_class_warns(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("deporder.model.MAX_ITERATIONS", 1)
        code, out, err = run(capsys, "train", "--treebank", str(UD_ROOT / "xx"),
                             "--out", str(tmp_path))
        assert code == EXIT_OK
        assert out.splitlines()[0] == \
            "lang\tpos\tconfigs\titerations\tobjective\tconverged"
        assert [row.split("\t")[3:6:2] for row in out.splitlines()[1:]] \
            == [["1", "False"], ["1", "False"]]
        warnings = err.splitlines()
        assert len(warnings) == 2
        assert warnings[0].startswith("warning: xx N: ")
        assert warnings[1].startswith("warning: xx V: ")

    def test_deterministic_artifacts(self, tmp_path, capsys):
        for sub in ("a", "b"):
            code, _, _ = run(capsys, "train", "--treebank",
                             str(UD_ROOT / "nadj"), "--out",
                             str(tmp_path / sub))
            assert code == EXIT_OK
        for name in ("nadj-N.model", "nadj-V.model"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_missing_treebank(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--treebank",
                           str(tmp_path / "missing"), "--out", str(tmp_path))
        assert code == EXIT_MISSING_INPUT
        assert "missing" in err

    def test_untrainable_class_writes_nothing(self, tmp_path, capsys):
        treebank = tmp_path / "nouns"
        treebank.mkdir()
        (treebank / "nouns-ud-train.conllu").write_text(
            "1\tthe\tthe\tDET\t_\t_\t2\tdet\t_\t_\n"
            "2\tdog\tdog\tNOUN\t_\t_\t0\troot\t_\t_\n\n")
        code, out, err = run(capsys, "train", "--treebank", str(treebank),
                             "--out", str(tmp_path / "models"))
        assert code == EXIT_BAD_DATA
        assert "no usable training configurations" in err
        assert out == ""
        assert not (tmp_path / "models").exists()

    # a VERB head over 5 ADVs and a NOUN has 7 elements, one more than training takes
    WIDE_VERB = "".join(
        f"{i}\tw\tw\t{tag}\t_\t_\t{head}\t{rel}\t_\t_\n" for i, tag, head, rel in
        [(1, "DET", 2, "det"), (2, "NOUN", 3, "nsubj"), (3, "VERB", 0, "root")]
        + [(i, "ADV", 3, "advmod") for i in range(4, 9)]) + "\n"

    @pytest.mark.parametrize("text, message", [
        ("1\truns\trun\tVERB\t_\t_\t0\troot\t_\t_\n\n",
         "error: lg N: no usable training configurations "
         "(heads with more than 6 elements dropped: 0)"),
        ("",
         "error: lg N: no usable training configurations "
         "(heads with more than 6 elements dropped: 0)"),
        (WIDE_VERB,
         "error: lg V: no usable training configurations "
         "(heads with more than 6 elements dropped: 1)"),
    ], ids=["verb-only", "empty", "wide-verb"])
    def test_untrainable_class_named(self, tmp_path, capsys, text, message):
        (tmp_path / "lg").mkdir()
        (tmp_path / "lg" / "lg-ud-train.conllu").write_text(text)
        code, out, err = run(capsys, "train", "--treebank", str(tmp_path / "lg"),
                             "--out", str(tmp_path / "models"))
        assert (code, err, out) == (EXIT_BAD_DATA, message + "\n", "")

    def test_untrainable_class_fits_nothing(self, tmp_path, capsys, monkeypatch):
        # V has nothing to train, so N must not be fitted first
        from deporder import model
        fitted, real_train = [], model.train

        def recording_train(*args, **kwargs):
            fitted.append(kwargs["pos_class"])
            return real_train(*args, **kwargs)

        monkeypatch.setattr(model, "train", recording_train)
        (tmp_path / "lg").mkdir()
        (tmp_path / "lg" / "lg-ud-train.conllu").write_text(self.WIDE_VERB)
        code, _, _ = run(capsys, "train", "--treebank", str(tmp_path / "lg"),
                         "--out", str(tmp_path / "models"))
        assert (code, fitted) == (EXIT_BAD_DATA, [])


class TestParseModes:
    """`train` parses strictly unless --lenient; `permute` leniently unless --strict."""

    @pytest.fixture
    def data(self, tmp_path):
        root = tmp_path / "data"
        shutil.copytree(UD_ROOT / "xx", root / "xx")
        train = root / "xx" / "xx-ud-train.conllu"
        lines = train.read_text(encoding="utf-8").split("\n")
        k = next(k for k, line in enumerate(lines) if "\tNOUN\t" in line)
        lines[k] = lines[k].replace("\tNOUN\t", "\tBLORP\t")
        train.write_text("\n".join(lines), encoding="utf-8")
        return root, k + 1

    def test_train(self, data, tmp_path, capsys):
        root, lineno = data
        code, _, err = run(capsys, "train", "--treebank", str(root / "xx"),
                           "--out", str(tmp_path / "strict"))
        assert code == EXIT_BAD_DATA
        assert f"line {lineno}: unknown POS tag 'BLORP'" in err
        code, _, _ = run(capsys, "train", "--treebank", str(root / "xx"),
                         "--out", str(tmp_path / "lenient"), "--lenient")
        assert code == EXIT_OK

    def test_permute(self, data, trained_dir, tmp_path, capsys):
        root, lineno = data
        argv = ["permute", "--spec", "xx~sov@V", "--data", str(root),
                "--models", str(trained_dir)]
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "lenient"))
        assert code == EXIT_OK
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "strict"),
                           "--strict")
        assert code == EXIT_BAD_DATA
        assert f"line {lineno}: unknown POS tag 'BLORP'" in err
        assert not (tmp_path / "strict" / "xx~sov@V").exists()


class TestHeadLabel:
    """A dependent labelled `head`, the marker `local_configs` gives the head."""

    @pytest.fixture
    def data(self, tmp_path):
        root = tmp_path / "data"
        shutil.copytree(UD_ROOT / "xx", root / "xx")
        for path in (root / "xx").glob("*.conllu"):
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace("\tamod\t", "\thead\t"), encoding="utf-8")
        lines = (root / "xx" / "xx-ud-train.conllu").read_text().split("\n")
        return root, next(k for k, line in enumerate(lines, 1) if "\thead\t" in line)

    def test_train(self, data, tmp_path, capsys):
        root, lineno = data
        argv = ["train", "--treebank", str(root / "xx"), "--out", str(tmp_path)]
        assert run(capsys, *argv, "--lenient")[0] == EXIT_OK
        code, _, err = run(capsys, *argv)
        assert code == EXIT_BAD_DATA
        assert f"line {lineno}: unknown relation 'head'" in err

    def test_permute(self, data, trained_dir, tmp_path, capsys):
        root, lineno = data
        argv = ["permute", "--spec", "xx~xx@N", "--data", str(root),
                "--models", str(trained_dir)]
        assert run(capsys, *argv, "--out", str(tmp_path / "lenient"))[0] == EXIT_OK
        out = (tmp_path / "lenient" / "xx~xx@N" / "xx~xx@N-ud-train.conllu").read_text()
        assert "\thead\t" in out and "\tdep\t" not in out
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "strict"), "--strict")
        assert code == EXIT_BAD_DATA
        assert f"line {lineno}: unknown relation 'head'" in err


class TestPermuteCommand:
    def test_byte_identical_reruns(self, trained_dir, tmp_path, capsys):
        for sub in ("one", "two"):
            code, out, _ = run(capsys, "permute",
                               "--spec", "xx~nadj@N~sov@V",
                               "--data", str(UD_ROOT),
                               "--models", str(trained_dir),
                               "--out", str(tmp_path / sub),
                               "--seed", "0")
            assert code == EXIT_OK
        left = tmp_path / "one" / "xx~nadj@N~sov@V"
        right = tmp_path / "two" / "xx~nadj@N~sov@V"
        match, mismatch, errors = filecmp.cmpfiles(
            left, right, [p.name for p in left.iterdir()], shallow=False)
        assert not mismatch and not errors
        assert len(match) == 4

    def test_seed_changes_output(self, trained_dir, tmp_path, capsys):
        outputs = []
        for seed in ("0", "1"):
            run(capsys, "permute", "--spec", "xx~sov@V",
                "--data", str(UD_ROOT), "--models", str(trained_dir),
                "--out", str(tmp_path / seed), "--seed", seed)
            outputs.append((tmp_path / seed / "xx~sov@V" /
                            "xx~sov@V-ud-train.conllu").read_bytes())
        assert outputs[0] != outputs[1]

    def test_bad_spec_is_mismatch(self, trained_dir, tmp_path, capsys):
        code, _, err = run(capsys, "permute", "--spec", "xx~zz@Q",
                           "--data", str(UD_ROOT), "--models",
                           str(trained_dir), "--out", str(tmp_path))
        assert code == EXIT_MISMATCH

    def test_missing_model_is_mismatch(self, tmp_path, capsys):
        code, _, _ = run(capsys, "permute", "--spec", "xx~sov@V",
                         "--data", str(UD_ROOT), "--models",
                         str(tmp_path / "none"), "--out", str(tmp_path))
        assert code == EXIT_MISMATCH


    def test_non_finite_weight_is_bad_data(self, trained_dir, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(trained_dir, models)
        path = models / "sov-V.model"
        lines = path.read_text().splitlines()
        lines[5] = lines[5].split("\t")[0] + "\tnan"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "permute", "--spec", "xx~sov@V",
                           "--data", str(UD_ROOT), "--models", str(models),
                           "--out", str(tmp_path / "out"))
        assert code == EXIT_BAD_DATA
        assert "line 6" in err
        assert not (tmp_path / "out" / "xx~sov@V").exists()
        code, out, err = run(capsys, "stats", "--treebank", str(UD_ROOT / "sov"),
                             "--models", str(models))
        assert code == EXIT_BAD_DATA
        assert "line 6" in err
        assert out == ""

    def test_file_system_error_exit_code(self, trained_dir, tmp_path, capsys):
        not_a_directory = tmp_path / "file"
        not_a_directory.write_text("")
        code, _, err = run(capsys, "permute", "--spec", "xx~sov@V",
                           "--data", str(UD_ROOT), "--models", str(trained_dir),
                           "--out", str(not_a_directory))
        assert code == EXIT_MISSING_INPUT
        assert err.startswith("error: ")


def _kill_worker(*args):
    os._exit(1)


class TestBatchCommand:
    def test_serial_and_parallel_agree(self, trained_dir, tmp_path, capsys):
        specs = tmp_path / "specs.txt"
        specs.write_text("xx~sov@V\n  # indented comment\nsov~nadj@N\n"
                         "# comment line\n")
        for sub, jobs in (("serial", "1"), ("parallel", "2")):
            code, out, _ = run(capsys, "batch", "--specs", str(specs),
                               "--data", str(UD_ROOT),
                               "--models", str(trained_dir),
                               "--out", str(tmp_path / sub),
                               "--jobs", jobs)
            assert code == EXIT_OK
            assert sorted(out.splitlines()) == ["done\tsov~nadj@N",
                                                "done\txx~sov@V"]
        for spec in ("xx~sov@V", "sov~nadj@N"):
            for path in sorted((tmp_path / "serial" / spec).iterdir()):
                twin = tmp_path / "parallel" / spec / path.name
                assert twin.read_bytes() == path.read_bytes()

    def test_jobs_env_var(self, trained_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DEPORDER_JOBS", "2")
        specs = tmp_path / "specs.txt"
        specs.write_text("xx~sov@V\n")
        code, out, _ = run(capsys, "batch", "--specs", str(specs),
                           "--data", str(UD_ROOT),
                           "--models", str(trained_dir),
                           "--out", str(tmp_path / "env"))
        assert code == EXIT_OK
        assert out.splitlines() == ["done\txx~sov@V"]

    @pytest.mark.parametrize("env, argv", [(None, ["--jobs", "-3"]),
                                           (None, ["--jobs", "0"]),
                                           ("abc", []), ("2.5", [])])
    def test_bad_jobs_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                     env, argv):
        if env is None:
            monkeypatch.delenv("DEPORDER_JOBS", raising=False)
        else:
            monkeypatch.setenv("DEPORDER_JOBS", env)
        with pytest.raises(SystemExit) as err:
            main(["batch", "--specs", str(tmp_path / "specs.txt"),
                  "--data", str(UD_ROOT), "--models", str(tmp_path),
                  "--out", str(tmp_path / "out"), *argv])
        assert err.value.code == 2
        assert "not a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failure_reported(self, trained_dir, tmp_path, capsys):
        specs = tmp_path / "specs.txt"
        specs.write_text("xx~sov@V\nmissing~sov@V\n")
        code, out, err = run(capsys, "batch", "--specs", str(specs),
                             "--data", str(UD_ROOT),
                             "--models", str(trained_dir),
                             "--out", str(tmp_path / "out"))
        assert code == EXIT_BAD_DATA
        assert "done\txx~sov@V" in out
        assert "missing~sov@V" in err


    def test_file_system_error_fails_each_spec(self, trained_dir, tmp_path,
                                               capsys):
        specs = tmp_path / "specs.txt"
        specs.write_text("xx~sov@V\nsov~nadj@N\n")
        not_a_directory = tmp_path / "file"
        not_a_directory.write_text("")
        for jobs in ("1", "2"):
            code, out, err = run(capsys, "batch", "--specs", str(specs),
                                 "--data", str(UD_ROOT),
                                 "--models", str(trained_dir),
                                 "--out", str(not_a_directory), "--jobs", jobs)
            assert code == EXIT_BAD_DATA
            assert out == ""
            assert sorted(line.split("\t")[:2] for line in err.splitlines()) \
                == [["failed", "sov~nadj@N"], ["failed", "xx~sov@V"]]

    def test_duplicate_names_run_once(self, trained_dir, tmp_path, capsys):
        specs = tmp_path / "specs.txt"
        specs.write_text("xx~sov@V\nsov~nadj@N\nxx~sov@V\n")
        code, out, _ = run(capsys, "batch", "--specs", str(specs),
                           "--data", str(UD_ROOT),
                           "--models", str(trained_dir),
                           "--out", str(tmp_path / "out"), "--jobs", "2")
        assert code == EXIT_OK
        assert sorted(out.splitlines()) == ["done\tsov~nadj@N",
                                            "done\txx~sov@V"]

    def test_report_follows_spec_list(self, trained_dir, tmp_path, capsys):
        # the slow N+V spec comes first, so a pool finishes the others before it
        names = ["xx~nadj@N~sov@V", "sov", "missing~sov@V", "nadj~xx@V", "xx"]
        specs = tmp_path / "specs.txt"
        specs.write_text("\n".join(names) + "\n")
        reports = []
        for jobs in ("1", "2", "2"):
            code, out, err = run(capsys, "batch", "--specs", str(specs),
                                 "--data", str(UD_ROOT),
                                 "--models", str(trained_dir),
                                 "--out", str(tmp_path / "out"), "--jobs", jobs)
            assert code == EXIT_BAD_DATA
            reports.append((out, err))
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert reports[0][0].splitlines() == [
            f"done\t{name}" for name in names if name != "missing~sov@V"]
        assert reports[0][1].startswith("failed\tmissing~sov@V\t")

    def test_deep_tree_spec_done(self, trained_dir, tmp_path, capsys):
        # a 1,200-level chain is deeper than Python's default recursion limit
        data, models = tmp_path / "data", tmp_path / "models"
        shutil.copytree(UD_ROOT / "xx", data / "xx")
        shutil.copytree(trained_dir, models)
        (data / "cc").mkdir()
        for split in ("train", "dev", "test"):
            (data / "cc" / f"cc-ud-{split}.conllu").write_text(chain_conllu(1200))
        for pos_class in ("N", "V"):
            save_model(OrderingModel("cc", pos_class, {}),
                       models / f"cc-{pos_class}.model")
        specs = tmp_path / "specs.txt"
        specs.write_text("cc~xx@N\nxx~sov@V\n")
        code, out, err = run(capsys, "batch", "--specs", str(specs),
                             "--data", str(data), "--models", str(models),
                             "--out", str(tmp_path / "out"))
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines() == ["done\tcc~xx@N", "done\txx~sov@V"]

    def test_dead_worker_fails_each_spec(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_synthesize_one", _kill_worker)
        specs = tmp_path / "specs.txt"
        specs.write_text("xx~sov@V\nsov~nadj@N\n")
        code, out, err = run(capsys, "batch", "--specs", str(specs),
                             "--data", str(UD_ROOT), "--models", str(tmp_path),
                             "--out", str(tmp_path / "out"), "--jobs", "2")
        assert code == EXIT_BAD_DATA
        assert out == ""
        assert [line.split("\t")[:2] for line in err.splitlines()] \
            == [["failed", "xx~sov@V"], ["failed", "sov~nadj@N"]]

    @pytest.mark.parametrize("env, argv, specs, workers", [
        (None, ["--jobs", "64"], 3, [3]), (None, ["--jobs", "2"], 3, [2]),
        ("64", [], 3, [3]), (None, ["--jobs", "64"], 1, []),
        (None, ["--jobs", "1"], 3, [])])
    def test_no_more_workers_than_specs(self, tmp_path, capsys, monkeypatch,
                                        env, argv, specs, workers):
        started = []

        class RecordingPool:
            """Records its size and runs each call inline; starts no process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, call):
                future = concurrent.futures.Future()
                future.set_result(call())
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_synthesize_one", lambda name, *rest: tmp_path / name)
        if env is not None:
            monkeypatch.setenv("DEPORDER_JOBS", env)
        names = [f"l{k}" for k in range(specs)]
        (tmp_path / "specs.txt").write_text("".join(f"{name}\n" for name in names))
        code, out, _ = run(capsys, "batch", "--specs", str(tmp_path / "specs.txt"),
                           "--data", str(tmp_path), "--models", str(tmp_path),
                           "--out", str(tmp_path / "out"), *argv)
        assert code == EXIT_OK
        assert out.splitlines() == [f"done\t{name}" for name in names]
        assert started == workers

    def test_spec_queued_after_a_worker_died_fails(self):
        class BrokenPool:
            def submit(self, call):
                raise concurrent.futures.BrokenExecutor("a worker died")

        outcome = cli._queue(BrokenPool(), print)
        with pytest.raises(concurrent.futures.BrokenExecutor):
            outcome()


class TestStatsCommand:
    def test_layout(self, capsys):
        code, out, _ = run(capsys, "stats", "--treebank", str(UD_ROOT / "xx"))
        assert code == EXIT_OK
        header, row = out.splitlines()
        assert header == "lang\tsents_kept\tsents\ttokens_kept\ttokens\tT\tR"
        fields = row.split("\t")
        assert fields[0] == "xx"
        assert (fields[1], fields[2]) == ("47", "50")
        assert float(fields[5]) > 80.0  # touched percentage
        assert fields[6] == "NA"

    def test_freeness_column_with_models(self, trained_dir, capsys):
        code, out, _ = run(capsys, "stats", "--treebank", str(UD_ROOT / "sov"),
                           "--models", str(trained_dir))
        assert code == EXIT_OK
        r_value = float(out.splitlines()[1].split("\t")[6])
        assert 0.0 <= r_value < 0.2  # rigid fixture language


class TestPerplexityCommand:
    def test_train_and_eval(self, tmp_path, capsys):
        lm_path = tmp_path / "sov.lm"
        code, out, _ = run(capsys, "perplexity",
                           "--train", str(UD_ROOT / "sov" / "sov-ud-train.conllu"),
                           "--eval", str(UD_ROOT / "sov" / "sov-ud-dev.conllu"),
                           "--mode", "tag", "--save-lm", str(lm_path))
        assert code == EXIT_OK
        header, row = out.splitlines()
        assert header == "eval\tmode\tpositions\tperplexity"
        assert float(row.split("\t")[3]) > 1.0
        assert lm_path.exists()

    def test_saved_lm_reusable(self, tmp_path, capsys):
        lm_path = tmp_path / "m.lm"
        run(capsys, "perplexity",
            "--train", str(UD_ROOT / "sov" / "sov-ud-train.conllu"),
            "--eval", str(UD_ROOT / "sov" / "sov-ud-dev.conllu"),
            "--save-lm", str(lm_path))
        code, out, _ = run(capsys, "perplexity", "--lm", str(lm_path),
                           "--eval", str(UD_ROOT / "sov" / "sov-ud-dev.conllu"))
        assert code == EXIT_OK

    def test_negative_oov_threshold_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["perplexity", "--mode", "word", "--oov-threshold", "-1",
                  "--train", str(UD_ROOT / "sov" / "sov-ud-train.conllu"),
                  "--eval", str(UD_ROOT / "sov" / "sov-ud-dev.conllu"),
                  "--save-lm", str(tmp_path / "m.lm")])
        assert err.value.code == 2
        assert "'-1' is not a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "m.lm").exists()

    def test_mode_mismatch(self, tmp_path, capsys):
        lm_path = tmp_path / "m.lm"
        run(capsys, "perplexity",
            "--train", str(UD_ROOT / "sov" / "sov-ud-train.conllu"),
            "--eval", str(UD_ROOT / "sov" / "sov-ud-dev.conllu"),
            "--save-lm", str(lm_path))
        code, _, _ = run(capsys, "perplexity", "--lm", str(lm_path),
                         "--mode", "word",
                         "--eval", str(UD_ROOT / "sov" / "sov-ud-dev.conllu"))
        assert code == EXIT_MISMATCH

    def test_empty_eval_writes_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty.conllu"
        empty.write_text("", encoding="utf-8")
        lm_path = tmp_path / "out.lm"
        code, out, err = run(capsys, "perplexity",
                             "--train", str(UD_ROOT / "sov" / "sov-ud-train.conllu"),
                             "--eval", str(empty), "--save-lm", str(lm_path))
        assert code == EXIT_BAD_DATA
        assert "nothing to evaluate" in err
        assert out == ""
        assert not lm_path.exists()


class TestSelectCommand:
    def test_ranked_table(self, tmp_path, capsys):
        for lang in ("sov", "nadj"):
            run(capsys, "perplexity",
                "--train", str(UD_ROOT / lang / f"{lang}-ud-train.conllu"),
                "--eval", str(UD_ROOT / lang / f"{lang}-ud-dev.conllu"),
                "--save-lm", str(tmp_path / f"{lang}.lm"))
        code, out, _ = run(capsys, "select",
                           "--target", str(UD_ROOT / "sov" / "sov-ud-test.conllu"),
                           "--candidates", str(tmp_path / "sov.lm"),
                           str(tmp_path / "nadj.lm"))
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "language\tlog2prob\trank"
        assert lines[1].startswith("sov\t") and lines[1].endswith("\t1")
        assert lines[2].startswith("nadj\t") and lines[2].endswith("\t2")

    def test_empty_target_is_bad_data(self, tmp_path, capsys):
        run(capsys, "perplexity",
            "--train", str(UD_ROOT / "sov" / "sov-ud-train.conllu"),
            "--eval", str(UD_ROOT / "sov" / "sov-ud-dev.conllu"),
            "--save-lm", str(tmp_path / "sov.lm"))
        empty = tmp_path / "empty.conllu"
        empty.write_text("", encoding="utf-8")
        code, out, err = run(capsys, "select", "--target", str(empty),
                             "--candidates", str(tmp_path / "sov.lm"))
        assert code == EXIT_BAD_DATA
        assert "nothing to evaluate" in err
        assert out == ""


class TestValidateCommand:
    def test_valid_directory(self, capsys):
        code, out, _ = run(capsys, "validate", str(UD_ROOT / "xx"))
        assert code == EXIT_OK
        assert len(out.splitlines()) == 3
        assert all(line.startswith("OK\t") for line in out.splitlines())

    def test_invalid_file(self, tmp_path, capsys):
        (tmp_path / "bad.conllu").write_text(
            "1\tX\tx\tNOUN\t_\t_\t0\troot\t_\n\n")
        code, _, err = run(capsys, "validate", str(tmp_path))
        assert code == EXIT_BAD_DATA
        assert "FAIL\tbad.conllu" in err

    def test_missing_directory(self, tmp_path, capsys):
        code, _, _ = run(capsys, "validate", str(tmp_path / "nope"))
        assert code == EXIT_MISSING_INPUT

    # one valid sentence (lines 1-2), then a faulty one from line 3; the
    # message names the faulty token's line, or a structural fault's first
    @pytest.mark.parametrize("rows, line, message", [
        ([(1, "NOUN", 1, "root")], 3, "token 1 is its own head"),
        ([(1, "NOUN", 0, "root"), (2, "NOUN", 0, "root")], 3,
         "expected exactly one root, found 2"),
        ([(1, "VERB", 0, "root"), (2, "NOUN", 3, "nmod"), (3, "NOUN", 2, "nmod")], 3,
         "head indices contain a cycle"),
        ([(1, "VERB", 0, "root"), (3, "NOUN", 1, "nsubj")], 4,
         "token id 3 out of sequence"),
        ([(1, "VERB", 0, "root"), (2, "NOUN", 5, "nsubj")], 3,
         "head 5 of token 2 out of range"),
        ([(1, "BLORP", 0, "root")], 3, "unknown POS tag 'BLORP'"),
    ], ids=["self-headed", "two-roots", "cycle", "id-out-of-sequence",
            "head-out-of-range", "unknown-tag"])
    def test_tree_fault(self, tmp_path, capsys, rows, line, message):
        sentence = "".join(f"{index}\tw\tw\t{upos}\t_\t_\t{head}\t{rel}\t_\t_\n"
                           for index, upos, head, rel in rows)
        (tmp_path / "bad.conllu").write_text(
            "1\tok\tok\tNOUN\t_\t_\t0\troot\t_\t_\n\n" + sentence + "\n")
        code, out, err = run(capsys, "validate", str(tmp_path))
        assert code == EXIT_BAD_DATA
        assert out == ""
        assert err.splitlines() == [f"FAIL\tbad.conllu\tline {line}: {message}"]


class TestParser:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--no-such-flag"])
        assert err.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_help_documents_every_flag(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        for name, sub in subparsers.choices.items():
            text = sub.format_help()
            for action in sub._actions:
                assert action.help != argparse.SUPPRESS
                for option in action.option_strings:
                    assert option in text, (name, option)

    def test_exit_codes_documented(self):
        text = build_parser().format_help()
        for line in ("exit codes:", "missing input", "model or spec mismatch"):
            assert line in text

    def test_defaults(self):
        parser = build_parser()
        permute = parser.parse_args(["permute", "--spec", "a", "--data", "b",
                                     "--models", "c", "--out", "d"])
        assert permute.seed == 0
        assert permute.lam == 0.05
        assert not permute.strict
        ppl = parser.parse_args(["perplexity", "--eval", "x", "--train", "y"])
        assert ppl.oov_threshold == 10
        assert ppl.mode == "tag"


SRC = Path(__file__).parents[1] / "src"
SOV = UD_ROOT / "sov"

# runs `deporder ARGS` in a fresh interpreter and reports the exit code and
# whether numpy was imported
NUMPY_PROBE = """import sys
from deporder import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, "numpy" in sys.modules)
"""


class TestNumpyOnlyWhereNeeded:
    """Only the subcommands that train, score or sample import numpy."""

    @pytest.fixture(scope="class")
    def lm_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("probe-lms")
        for lang in ("sov", "nadj"):
            assert main(["perplexity",
                         "--train", str(UD_ROOT / lang / f"{lang}-ud-train.conllu"),
                         "--eval", str(UD_ROOT / lang / f"{lang}-ud-dev.conllu"),
                         "--save-lm", str(out / f"{lang}.lm")]) == EXIT_OK
        return out

    @pytest.mark.parametrize("argv, loads_numpy", [
        (["perplexity", "--train", str(SOV / "sov-ud-train.conllu"),
          "--eval", str(SOV / "sov-ud-dev.conllu")], False),
        (["perplexity", "--lm", "{lms}/sov.lm",
          "--eval", str(SOV / "sov-ud-dev.conllu")], False),
        (["select", "--target", str(SOV / "sov-ud-test.conllu"),
          "--candidates", "{lms}/sov.lm", "{lms}/nadj.lm"], False),
        (["validate", str(UD_ROOT / "xx")], False),
        (["stats", "--treebank", str(UD_ROOT / "xx")], False),
        (["--version"], False),
        (["stats", "--treebank", str(SOV), "--models", "{models}"], True),
        (["train", "--treebank", str(UD_ROOT / "xx"), "--out", "{tmp}"], True),
    ], ids=["perplexity-train", "perplexity-lm", "select", "validate", "stats",
            "version", "stats-models", "train"])
    def test_numpy_imported(self, argv, loads_numpy, lm_dir, trained_dir, tmp_path):
        argv = [arg.format(lms=lm_dir, models=trained_dir, tmp=tmp_path)
                for arg in argv]
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv],
                                env=dict(os.environ, PYTHONPATH=path),
                                capture_output=True, text=True, timeout=120)
        assert result.stdout.splitlines()[-1] == f"0 {loads_numpy}", result.stderr
