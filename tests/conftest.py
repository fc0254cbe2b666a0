import math
import os
from pathlib import Path

import numpy as np
import pytest

from deporder.features import build_h_whitelist
from deporder.model import MAX_TRAIN_SIZE, enumerate_scores, save_model, train
from deporder.treebank import is_projective, local_configs, parse_conllu

FIXTURES = Path(__file__).parent / "fixtures"
UD_ROOT = FIXTURES / "ud"
SRC = Path(__file__).parents[1] / "src"


def src_env():
    """The environment of a fresh interpreter that imports deporder from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def read_trees(path, mode="strict"):
    return parse_conllu(Path(path).read_text(encoding="utf-8"), mode)


def load_split(language, split="train"):
    return read_trees(UD_ROOT / language / f"{language}-ud-{split}.conllu")


def log_partition(model, config):
    """Log of the sum of exp(score) over every ordering `enumerate_scores` lists."""
    scores = enumerate_scores(model, config)[1]
    top = float(scores.max())
    return top + math.log(float(np.exp(scores - top).sum()))


def chain_conllu(length):
    """One projective sentence of `length` nouns, each heading the next."""
    return "".join(f"{i}\tw{i}\tw{i}\tNOUN\t_\t_\t{i - 1}\t{'nmod' if i > 1 else 'root'}"
                   "\t_\t_\n" for i in range(1, length + 1)) + "\n"


def fixture_configs(language, pos_class):
    """The configurations of a fixture language's projective train trees."""
    trees = [t for t in load_split(language) if is_projective(t)]
    return [c for t in trees for c in local_configs(t, pos_class)]


def train_fixture_model(language, pos_class):
    return train(fixture_configs(language, pos_class), None,
                 language=language, pos_class=pos_class)


def fixture_training_inputs(language, pos_class):
    """The configurations `train_fixture_model` fits and the H whitelist
    `train` derives from them, which picks the windows it fits."""
    usable = [c for c in fixture_configs(language, pos_class) if c.n <= MAX_TRAIN_SIZE]
    return usable, build_h_whitelist(usable)


@pytest.fixture(scope="session")
def fig1_tree():
    return read_trees(FIXTURES / "fig1.conllu")[0]


@pytest.fixture(scope="session")
def xx_train_trees():
    return load_split("xx")


@pytest.fixture(scope="session")
def sov_v_model():
    return train_fixture_model("sov", "V")


@pytest.fixture(scope="session")
def sov_n_model():
    return train_fixture_model("sov", "N")


@pytest.fixture(scope="session")
def nadj_n_model():
    return train_fixture_model("nadj", "N")


@pytest.fixture(scope="session")
def xx_models():
    return train_fixture_model("xx", "N"), train_fixture_model("xx", "V")


def save_fixture_models(directory):
    """Train every fixture-language model into `directory`."""
    for language in ("xx", "sov", "nadj"):
        for pos_class in ("N", "V"):
            save_model(train_fixture_model(language, pos_class),
                       directory / f"{language}-{pos_class}.model")


@pytest.fixture(scope="session")
def fixture_model_dir(tmp_path_factory):
    """All fixture-language models saved under one directory."""
    out = tmp_path_factory.mktemp("models")
    save_fixture_models(out)
    return out
