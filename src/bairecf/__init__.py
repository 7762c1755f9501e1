"""Exact continued-fraction words, sequence spaces, and finite ultrametrics.

The package keeps every computation in integer or Fraction arithmetic: digit
expansions of rationals and quadratic surds, the rational interval family the
words index, first-difference distances on integer sequence spaces, and a
finite-space pipeline from metric tables to refining covers, ultrametrics,
and digit-stream embeddings.

Each public name is listed once, under the module that defines it, and that
module is imported when one of its names is first read (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "rational": ("Rational", "euclid_div", "parse_rational", "format_rational"),
    "surd": ("Ordering", "QuadraticSurd", "parse_surd", "format_surd"),
    "cf": ("CFWord", "expand_rational", "evaluate", "evaluate_with_tail", "convergents",
           "expand_surd", "parse_cf", "format_cf"),
    "baire": ("BairePrefix", "Baire2Prefix", "Distance", "InsufficientPrecisionError",
              "first_difference", "baire_distance", "cylinder_of_ball", "WHOLE_SPACE",
              "psi_map", "psi_inverse", "parse_point", "format_point"),
    "cover": ("IntervalQ", "CoverMember", "CoverReport", "interval_of", "member_of",
              "children", "locate", "verify_cover_properties"),
    "homeo": ("PhiApproximation", "BallImageCheck", "phi_forward", "phi_inverse",
              "check_ball_image"),
    "report": ("PropertyCheck",),
    "ultra": ("DistanceTable", "FiniteSpace", "UnseparatedPairError", "CoverSequence",
              "UltrametricReport", "BallPropertiesReport", "BaseEqualityReport",
              "disjointify", "build_cover_sequence", "ultrametric_from_covers",
              "verify_ultrametric", "verify_ball_properties", "verify_base_equality",
              "sierpinski_embed", "table_from_json", "covers_from_json"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_MODULE_OF[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
