"""tiltlab: exact and approximate guesswork analysis for string-sources."""

__version__ = "0.1.0"

from .approx import (
    ApproxPoint,
    WordMeasures,
    approx_guesswork,
    approx_pmf_curve,
    approx_rank,
    approx_set_size,
    default_alpha_grid,
    interpolated_log_rank,
    word_measures,
)
from .guesswork import (
    BoundCheck,
    OrderEquivalence,
    RankTable,
    SetReport,
    TypicalSetSpec,
    build_rank_table,
    guesswork_pmf,
    order_equivalent,
    bound_ledger,
    typical_set,
)
from .measures import (
    MeasureBundle,
    cross_entropy,
    cross_varentropy,
    entropy,
    information,
    measure_bundle,
    relative_entropy,
    renyi_entropy,
    varentropy,
)
from .rates import (
    CrossEntropyRange,
    RateCurve,
    alpha_for_cross_entropy,
    alpha_for_entropy,
    cross_entropy_range,
    rate_curve,
    rate_derivatives,
    rate_g,
    rate_i,
    rate_points,
    rate_r,
)
from .sources import (
    Alphabet,
    CategoricalSource,
    HiddenMarkovSource,
    MarkovSource,
    SequenceSource,
    builtin_spec_path,
    enumerate_word_log_probs,
    letters,
    load_source,
    reverse,
    source_from_dict,
    stationary_distribution,
    string_log_prob,
    tilt,
    tilted_family_sample,
    uniform,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
