"""Exact engine for size-weighted tree automata and their generating functions.

Importing the package runs none of its layers.  Each layer module is put in
``sys.modules`` (and bound here) unexecuted, through
``importlib.util.LazyLoader``, and runs on the first access to one of its
attributes; a public name read from the package runs the layer that defines
it.  The layers that the CLI and ``closure``, ``compile``, ``decide``,
``species`` and ``core`` need from other layers are reached through their
modules (``from . import core`` and ``core.evaluate(...)`` at call time), so
running a layer does not run the layers it only names.  Value classes are
made by ``core.record``, so a layer that defines one runs ``core``, which
every command that runs a layer runs anyway.  A command runs only the layers
it calls; every layer is still in ``sys.modules`` as soon as the package is
imported.

A layer also offers names that another module defines: code that few
commands run is kept in modules of its own (``_trees``, ``_reader``,
``_format``, ``_shift`` and ``_languages``).  ``_FORWARDS``
below says where each such name lives, and the layer's module-level
``__getattr__`` reads it from there on first use, through ``_forward``, so
the module that defines it runs only then.
"""

import importlib.util
import sys

from . import errors

# public names, by the layer that defines them
_EXPORTS = {
    "core": "Automaton RankedAlphabet Tree automaton_from_json automaton_to_json "
            "enumerate_trees evaluate kron make_arity_distinct parse_tree tree_size "
            "unify_alphabets",
    "exactmath": "MultiPolynomial Rational SizeRational UniPolynomial "
                 "normalize_common_denominator parse_size_rational poly_integer_roots "
                 "size_rational_eval",
    "series": "SeriesPrefix VectorSeriesPrefix brute_force_coefficient coefficients "
              "generating_prefix s_derive series_add series_cauchy series_scale",
    "closure": "FinalVector absorb_final_vector gf_add gf_cauchy gf_derive gf_integrate "
               "gf_inverse gf_mul_shifted gf_scale gf_shift_backward gf_shift_forward ts_add "
               "ts_hadamard ts_scale",
    "compile": "DAEquation DFiniteRecurrence RDS compile_cda compile_dfinite compile_rda "
               "da_to_rds parse_da parse_dfinite parse_rds taylor_oracle",
    "decide": "check_equiv_genfun check_equiv_tree_series check_zero_genfun "
              "check_zero_tree_series compute_bound emit_differential_system",
    "species": "SpeciesSpec count_species diffsys_to_rds parse_species species_to_diffsys "
               "species_to_rds",
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}

# names that a layer offers but another module defines: (layer, home module) -> names
_FORWARDS = {
    ("core", "_trees"): "ENUMERATION_GUARD Tree check_tree compositions count_trees "
                        "enumerate_trees evaluate format_tree kron mu_tildes parse_tree tree_size",
    ("core", "_reader"): "automaton_from_json",
    ("core", "_format"): "automaton_to_json",
    ("core", "closure"): "FinalVector absorb_final_vector",
    ("exactmath", "_format"): "format_multipoly format_size_rational format_unipoly",
    ("exactmath", "_reader"): "parse_size_rational",
    ("closure", "_shift"): "gf_cauchy gf_derive gf_integrate gf_inverse gf_mul_shifted "
                           "gf_shift_backward gf_shift_forward",
    ("compile", "_languages"): "DAEquation DFiniteRecurrence compile_cda compile_dfinite "
                               "da_to_rds parse_da parse_dfinite taylor_oracle",
}


def _forward(module: str, name: str):
    """``name`` of the layer ``module`` (its ``__name__``), read from the
    module that ``_FORWARDS`` says defines it."""
    layer = module.rpartition(".")[2]
    for (owner, home), names in _FORWARDS.items():
        if owner == layer and name in names.split():
            return getattr(sys.modules[f"{__name__}.{home}"], name)
    raise AttributeError(f"module {module!r} has no attribute {name!r}")


def _lazy(layer: str):
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


exactmath = _lazy("exactmath")
core = _lazy("core")
_trees = _lazy("_trees")
series = _lazy("series")
closure = _lazy("closure")
_expr = _lazy("_expr")
compile = _lazy("compile")
_languages = _lazy("_languages")
decide = _lazy("decide")
species = _lazy("species")
# modules split off layers are registered but not bound, so the package's
# names stay the ones it has always offered; __getattr__ finds them
for _split in ("_format", "_reader", "_shift"):
    _lazy(_split)
del _split

__all__ = sorted([*_HOME, *_EXPORTS, "errors"])


def __getattr__(name):
    layer = _HOME.get(name)
    if layer is not None:
        return getattr(globals()[layer], name)
    module = sys.modules.get(f"{__name__}.{name}")  # `from . import _shift` in a layer
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return module


def __dir__():
    return sorted({*globals(), *_HOME})
