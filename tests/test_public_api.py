"""The names `from tiltlab import *` exports, pinned."""
import tiltlab as tl

PUBLIC = [
    "Alphabet", "ApproxPoint", "BoundCheck", "CategoricalSource", "CrossEntropyRange",
    "HiddenMarkovSource", "MarkovSource", "MeasureBundle", "OrderEquivalence", "RankTable",
    "RateCurve", "SequenceSource", "SetReport", "TypicalSetSpec", "WordMeasures",
    "alpha_for_cross_entropy", "alpha_for_entropy", "approx", "approx_guesswork",
    "approx_pmf_curve", "approx_rank", "approx_set_size", "bound_ledger", "build_rank_table",
    "builtin_spec_path", "cross_entropy", "cross_entropy_range", "cross_varentropy",
    "default_alpha_grid", "entropy", "enumerate_word_log_probs", "errors", "guesswork",
    "guesswork_pmf", "information", "interpolated_log_rank", "letters", "load_source",
    "measure_bundle", "measures", "numeric", "order_equivalent", "rate_curve",
    "rate_derivatives", "rate_g", "rate_i", "rate_points", "rate_r", "rates",
    "relative_entropy", "renyi_entropy", "reverse", "source_from_dict", "sources",
    "stationary_distribution", "string_log_prob", "tilt", "tilted_family_sample",
    "typical_set", "uniform", "validate", "varentropy", "word_measures",
]


def test_all_is_the_decided_list():
    # "guesswork" is the submodule; the one-line wrappers guesswork_pmf,
    # bound_ledger, reverse and tilted_family_sample stay public
    assert tl.__all__ == PUBLIC
