"""The public API: `deporder.__all__` and the README Library example."""

import re
from pathlib import Path

import pytest

import deporder
from deporder import synthesis
from deporder.treebank import DepTree

from conftest import UD_ROOT

README = Path(__file__).parents[1] / "README.md"


PUBLIC_NAMES = [
    "ConlluError", "DepTree", "LanguageSpec", "LocalConfig", "OrderingModel",
    "RngStream", "SpecError", "Token", "TrainingMeta", "TrigramLM",
    "build_h_whitelist", "cross_product_specs", "extract",
    "filter_for_generation", "freeness", "interpolate", "is_projective",
    "load_lm", "load_model", "local_configs", "parse_conllu", "permute_tree",
    "perplexity", "sample_ordering", "save_lm", "save_model", "score",
    "serialize_conllu", "sjt_enumerate", "synthesize_language",
    "touched_fraction", "train", "train_trigram",
]


def test_public_names_are_pinned():
    # adding or removing a public name is an API change: update this list
    # and the package version together
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert deporder.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in deporder.__all__ if not hasattr(deporder, name)]
    assert not missing
    assert len(set(deporder.__all__)) == len(deporder.__all__)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from deporder import *", namespace)
    assert [name for name in deporder.__all__ if name not in namespace] == []
    assert namespace["train"] is deporder.model.train


def test_spec_error_has_one_definition():
    assert deporder.SpecError is synthesis.SpecError


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        deporder.no_such_name


def test_readme_library_example_runs(monkeypatch):
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    monkeypatch.chdir(UD_ROOT / "xx")  # the example opens xx-ud-train.conllu
    namespace: dict = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["model"].pos_class == "V"
    assert namespace["model"].training_meta.converged
    assert isinstance(namespace["permuted"], DepTree)
