"""Moments and spec normalization against the reference bodies, bit for bit,
and the malformed specs the parser must reject."""
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tiltlab as tl
from tiltlab import cli
from tiltlab import measures as ms
from tiltlab import sources as src
from tiltlab.errors import SourceSpecError, TiltlabError

import reference_measures as ref


def as_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def named_alphabet(k):
    return tl.Alphabet(tuple(f"s{i}" for i in range(k)))


@st.composite
def sources_with_zeros(draw):
    """Sources with 2..77 symbols, weights over six decades, some of them 0."""
    k = draw(st.integers(2, 77))
    weights = np.array(
        draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=k, max_size=k))
    )
    assume(weights.sum() > 0)
    return tl.CategoricalSource(named_alphabet(k), weights / weights.sum())


@settings(max_examples=150, deadline=None)
@given(sources_with_zeros(), st.floats(0.01, 20.0), st.booleans(), st.integers(0, 10**6))
def test_moments_match_reference_bits(source, magnitude, negate, n):
    # negative orders need full support
    alpha = -magnitude if negate and np.all(source.theta > 0) else magnitude
    tilted = tl.tilt(source, alpha)
    for rho in (source, tilted):
        assert as_bits(ms.entropy(rho)) == as_bits(ref.entropy(rho))
        assert as_bits(ms.entropy(rho, n)) == as_bits(ref.entropy(rho, n))
        assert as_bits(ms.varentropy(rho, n)) == as_bits(ref.varentropy(rho, n))
        assert as_bits(ms.cross_entropy(rho, source, n)) == as_bits(
            ref.cross_entropy(rho, source, n)
        )
        assert as_bits(ms.cross_varentropy(rho, source, n)) == as_bits(
            ref.cross_varentropy(rho, source, n)
        )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 77).flatmap(
        lambda k: st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k)
    ),
    st.floats(0.01, 20.0),
    st.integers(1, 40),
)
def test_iid_approx_level_matches_reference_bits(weights, magnitude, n):
    weights = np.array(weights)
    source = tl.CategoricalSource(named_alphabet(weights.size), weights / weights.sum())
    try:
        tl.validate(source)
    except TiltlabError:
        assume(False)
    for point in tl.approx_pmf_curve(source, n, alpha_grid=[-magnitude, magnitude]):
        tilted = tl.tilt(source, point.alpha)
        assert as_bits(point.level_nats) == as_bits(ref.iid_approx_level(tilted, source, n))


@st.composite
def near_stochastic(draw, n_rows):
    """Rows of 1..77 entries, some 0, whose sums miss 1 by up to 4e-13."""
    k = draw(st.integers(1, 77))
    rows = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=n_rows * k, max_size=n_rows * k))
    ).reshape(n_rows, k)
    assume(np.all(rows.sum(axis=1) > 0))
    rows = rows / rows.sum(axis=1, keepdims=True)
    return rows * (1.0 + draw(st.floats(-4e-13, 4e-13)))


@settings(max_examples=100, deadline=None)
@given(near_stochastic(1), st.integers(1, 6).flatmap(near_stochastic))
def test_spec_normalization_matches_reference_bits(vector, matrix):
    vector = vector[0].tolist()
    assert as_bits(src._normalized(vector, "probs", 1)) == as_bits(
        ref._normalized_vector(vector, "probs")
    )
    matrix = matrix.tolist()
    assert as_bits(src._normalized(matrix, "transition", 2)) == as_bits(
        ref._normalized_rows(matrix, "transition")
    )


MARKOV = {"kind": "markov", "alphabet": ["a", "b"], "transition": [[0.5, 0.5], [0.1, 0.9]]}
HMM = {
    "kind": "hmm",
    "alphabet": ["a", "b"],
    "transition": [[0.9, 0.1], [0.2, 0.8]],
    "emission": [[0.7, 0.3], [0.1, 0.9]],
}
CATEGORICAL = {"kind": "categorical", "alphabet": ["a", "b"]}

MALFORMED = {
    "ragged transition rows": {**MARKOV, "transition": [[0.5, 0.5], [1.0]]},
    "ragged emission rows": {**HMM, "emission": [[0.7, 0.3], [1.0]]},
    "empty probs": {**CATEGORICAL, "probs": []},
    "0-d probs": {**CATEGORICAL, "probs": 0.5},
    "missing probs": CATEGORICAL,
    "non-numeric probs": {**CATEGORICAL, "probs": {"a": 0.5, "b": 0.5}},
    "matrix probs": {**CATEGORICAL, "probs": [[0.5, 0.5]]},
    "vector transition": {**MARKOV, "transition": [0.5, 0.5]},
    "negative probs": {**CATEGORICAL, "probs": [1.5, -0.5]},
    "markov initial off by 1e-9": {**MARKOV, "initial": [0.5, 0.5 + 1e-9]},
    "hmm initial off by 1e-9": {**HMM, "initial": [0.5, 0.5 + 1e-9]},
    "hmm initial matrix": {**HMM, "initial": [[0.5, 0.5]]},
    "markov initial unknown string": {**MARKOV, "initial": "uniform"},
    "hmm initial unknown string": {**HMM, "initial": "Stationary"},
    "alphabet 5": {**CATEGORICAL, "alphabet": 5, "probs": [0.2, 0.8]},
    "alphabet null": {**CATEGORICAL, "alphabet": None, "probs": [0.2, 0.8]},
    "alphabet string": {**CATEGORICAL, "alphabet": "ab", "probs": [0.2, 0.8]},
    "hmm states null": {**HMM, "states": None},
    "hmm states list": {**HMM, "states": [2]},
    "hmm states float": {**HMM, "states": 2.0},
    "hmm states disagree": {**HMM, "states": 3},
    "probs wrong length": {**CATEGORICAL, "probs": [0.2, 0.3, 0.5]},
    # singular as well as the wrong shape: the shape must be reported
    "markov transition 3x3 on 2 symbols": {**MARKOV, "transition": np.eye(3).tolist()},
    "markov transition 2x3": {**MARKOV, "transition": [[0.2, 0.3, 0.5], [0.5, 0.5, 0.0]]},
    "hmm transition not square": {**HMM, "transition": [[1.0], [1.0]]},
    "emission wrong shape": {**HMM, "emission": [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]]},
    "markov initial wrong length": {**MARKOV, "initial": [0.2, 0.3, 0.5]},
    # numpy would parse these as (0.2, 0.8), (0, 1), (1.0, 0.5) and (0.5, 0.5)
    "probs strings": {**CATEGORICAL, "probs": ["0.2", "0.8"]},
    "probs booleans": {**CATEGORICAL, "probs": [False, True]},
    "probs boolean and decimal": {**CATEGORICAL, "probs": [True, 0.5]},
    "probs decimal and string": {**CATEGORICAL, "probs": [0.5, "0.5"]},
    "probs one string": {**CATEGORICAL, "probs": "0.5"},
    "probs one boolean": {**CATEGORICAL, "probs": True},
    "transition boolean row": {**MARKOV, "transition": [[0.5, 0.5], [True, False]]},
    "emission string entry": {**HMM, "emission": [[0.7, 0.3], ["0.5", 0.5]]},
    "hmm initial booleans": {**HMM, "initial": [True, False]},
}
SPEC_FIELDS = ("kind", "alphabet", "states", "probs", "transition", "emission", "initial")


@pytest.mark.parametrize("spec", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_specs_raise_source_spec_error(spec):
    with pytest.raises(SourceSpecError):
        tl.source_from_dict(spec)


@pytest.mark.parametrize("spec", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_specs_exit_2(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["guesswork", "--source", str(path), "--n", "1"]) == 2
    assert capsys.readouterr().err.startswith("tiltlab: config error: ")


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_spec_messages_name_the_field(tmp_path, capsys, case):
    # every case id names the field it breaks
    field = next(word for word in case.split() if word in SPEC_FIELDS)
    with pytest.raises(SourceSpecError, match=field):
        tl.source_from_dict(MALFORMED[case])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(MALFORMED[case]))
    assert cli.main(["guesswork", "--source", str(path), "--n", "1"]) == 2
    assert field in capsys.readouterr().err


def test_integer_spec_entries_still_load():
    source = tl.source_from_dict({**CATEGORICAL, "probs": [1, 0]})
    assert as_bits(source.theta) == as_bits([1.0, 0.0])


VALID = {"categorical": {**CATEGORICAL, "probs": [0.2, 0.8]}, "markov": MARKOV, "hmm": HMM}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)
# vectors and matrices whose rows often sum to 1, in every shape
ROWS = st.lists(st.sampled_from([0.0, 0.5, 1.0]), max_size=4)
NEAR_SPEC_VALUES = ROWS | st.lists(ROWS, max_size=4)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(VALID)), st.sampled_from(SPEC_FIELDS), JSON_VALUES | NEAR_SPEC_VALUES)
def test_any_json_value_in_any_field_loads_or_raises_source_spec_error(kind, field, value):
    spec = json.loads(json.dumps({**VALID[kind], field: value}))
    try:
        tl.source_from_dict(spec)
    except SourceSpecError:
        pass


@pytest.mark.parametrize("spec", [MARKOV, HMM], ids=["markov", "hmm"])
def test_explicit_initial_within_slack_is_renormalized(spec):
    source = tl.source_from_dict({**spec, "initial": [0.25, 0.75 + 9e-13]})
    assert as_bits(source.initial) == as_bits(ref._normalized_vector([0.25, 0.75 + 9e-13], "i"))


@pytest.mark.parametrize("spec", [MARKOV, HMM], ids=["markov", "hmm"])
def test_numpy_initial_matches_the_list_form(spec):
    listed = tl.source_from_dict({**spec, "initial": [0.25, 0.75]})
    arrayed = tl.source_from_dict({**spec, "initial": np.array([0.25, 0.75])})
    assert as_bits(listed.initial) == as_bits(ref._normalized_vector([0.25, 0.75], "i"))
    for field in ("transition", "emission", "initial"):
        if hasattr(listed, field):
            assert as_bits(getattr(arrayed, field)) == as_bits(getattr(listed, field))
