"""Dependent-order models for dependency treebanks.

Learn log-linear models of how noun and verb dependents are ordered in real
treebanks, use them to synthesize treebanks with resampled word order, and
measure corpora with trigram language models.

Public names load their module on first use, so code that only reads
treebanks or language models never imports numpy.
"""

import importlib

__version__ = "1.7.0"

DEFAULT_SEED = 0
DEFAULT_LAMBDA = 0.05


class SpecError(ValueError):
    """Invalid language spec string or missing model for a spec."""


# the public names each submodule defines
_EXPORTS = {
    "treebank": "ConlluError DepTree LocalConfig Token "
                "filter_for_generation is_projective local_configs parse_conllu "
                "serialize_conllu touched_fraction",
    "features": "build_h_whitelist extract",
    "sjt": "sjt_enumerate",
    "model": "OrderingModel TrainingMeta freeness interpolate load_model "
             "save_model score train",
    "synthesis": "LanguageSpec RngStream cross_product_specs permute_tree "
                 "sample_ordering synthesize_language",
    "langmodel": "TrigramLM load_lm perplexity save_lm train_trigram",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = sorted([*_MODULE_OF, "SpecError"])


def __getattr__(name: str):
    if name in _EXPORTS:  # `import deporder` then `deporder.model`
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
