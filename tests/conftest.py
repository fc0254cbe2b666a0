import math
from pathlib import Path

import numpy as np
import pytest

from deporder.model import enumerate_scores, save_model, train
from deporder.treebank import is_projective, local_configs, parse_conllu

FIXTURES = Path(__file__).parent / "fixtures"
UD_ROOT = FIXTURES / "ud"


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


def train_fixture_model(language, pos_class):
    trees = [t for t in load_split(language) if is_projective(t)]
    configs = [c for t in trees for c in local_configs(t, pos_class)]
    return train(configs, None, language=language, pos_class=pos_class)


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
