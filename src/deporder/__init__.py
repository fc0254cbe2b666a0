"""Dependent-order models for dependency treebanks.

Learn log-linear models of how noun and verb dependents are ordered in real
treebanks, use them to synthesize treebanks with resampled word order, and
measure corpora with trigram language models.
"""

__version__ = "1.4.0"

from .treebank import (ConlluError, DepTree, FilterReport, LocalConfig, Token,
                       filter_for_generation, is_projective, local_configs,
                       parse_conllu, serialize_conllu, touched_fraction)
from .features import (ExtendedSequence, build_h_whitelist, extract,
                       hgram_features, pair_features)
from .sjt import sjt_enumerate
from .model import (OrderingModel, TrainingMeta, freeness, interpolate,
                    load_model, log_partition, log_partition_and_expectation,
                    save_model, score, train, uniform_model)
from .synthesis import (LanguageSpec, RngStream, SpecError,
                        cross_product_specs, permute_tree, sample_ordering,
                        synthesize_language)
from .langmodel import (TrigramLM, load_lm, perplexity, save_lm,
                        select_source, train_trigram)

__all__ = [
    "ConlluError", "DepTree", "ExtendedSequence", "FilterReport",
    "LanguageSpec", "LocalConfig", "OrderingModel", "RngStream", "SpecError",
    "Token", "TrainingMeta", "TrigramLM", "build_h_whitelist",
    "cross_product_specs", "extract", "filter_for_generation", "freeness",
    "hgram_features", "interpolate", "is_projective", "load_lm", "load_model",
    "local_configs", "log_partition", "log_partition_and_expectation",
    "pair_features", "parse_conllu", "permute_tree", "perplexity",
    "sample_ordering", "save_lm", "save_model", "score", "serialize_conllu",
    "sjt_enumerate", "synthesize_language", "touched_fraction", "train",
    "train_trigram", "uniform_model",
]
