"""The names `from tiltlab import *` exports, pinned; no private helper
left behind without a caller in the library; and the real rule on every
float parameter."""
import ast
import dataclasses
import inspect
from pathlib import Path

import tiltlab as tl

from test_real_arguments import REAL_ARGUMENTS, REAL_GRIDS

#: the library's modules; tests, perfbench and scripts are not callers
MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "tiltlab").glob("*.py"))

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


def private_definitions(tree: ast.Module):
    """Each name with one leading underscore that the module defines at its
    top level or in the body of a top-level class."""
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for node in (node for body in bodies for node in body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def loaded_names(tree: ast.Module):
    """Every name the module reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_private_helper_has_a_library_caller():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}
    loaded = {name for tree in trees.values() for name in loaded_names(tree)}
    orphans = [f"{module}: {name}" for module, tree in trees.items()
               for name in private_definitions(tree) if name not in loaded]
    assert "sources.py" in trees
    assert orphans == []


#: dataclasses the library returns: their float fields are outputs, not inputs
OUTPUTS = (
    tl.ApproxPoint, tl.BoundCheck, tl.CrossEntropyRange, tl.MeasureBundle,
    tl.OrderEquivalence, tl.RateCurve, tl.SetReport, tl.WordMeasures,
)


def float_parameters():
    """(name, parameter) of each public function parameter and input
    dataclass field whose annotation mentions float."""
    for name in tl.__all__:
        obj = getattr(tl, name)
        if inspect.isfunction(obj):
            params = [(p.name, p.annotation) for p in inspect.signature(obj).parameters.values()]
        elif dataclasses.is_dataclass(obj) and obj not in OUTPUTS:
            params = [(f.name, f.type) for f in dataclasses.fields(obj) if f.init]
        else:
            continue
        yield from ((name, param) for param, annotation in params if "float" in str(annotation))


def test_every_float_parameter_has_the_real_rule():
    collected = set(float_parameters())
    assert {("tilt", "alpha"), ("TypicalSetSpec", "epsilon"), ("rate_g", "t")} <= collected
    assert sorted(collected - set(REAL_ARGUMENTS) - set(REAL_GRIDS)) == []
