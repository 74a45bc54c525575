"""fiberdt: exact generating series and invariants for curve-fibered 3-folds.

The package computes, in exact integer arithmetic:

* Hodge-polynomial and Euler generating series for Hilbert schemes of points
  on a surface, for nested Hilbert schemes, and for the one-extra-point
  ideal-sheaf moduli spaces of a 3-fold fibered in curves over the surface;
* the Donaldson-Thomas numbers attached to those moduli spaces in the
  trivial-canonical setting (they vanish, and the code verifies it);
* truncated Hom-space dimensions for monomial-ideal local models, exhibiting
  the tangent-space dimension jump at an embedded doubled point.

Every analytic formula is paired with an independent brute-force route
(partition enumeration at the Euler level, direct integer recurrences for
specializations, re-substitution for linear solves).
"""

# Every public name is loaded from its submodule on first access (PEP 562),
# so that a request imports only the modules it runs.
_SOURCES = {
    "geometry": (
        "FibrationSpec",
        "HodgeDiamond",
        "InvalidDiamond",
        "K_TRIVIAL_SURFACE_NAMES",
        "curve_diamond",
        "registry_lookup",
        "surface_names",
        "surface_with_euler_number",
    ),
    "formulas": (
        "dt_table",
        "euler_sequence",
        "hilbert_euler_direct",
        "hodge_series",
        "ideal_sheaf_euler_direct",
        "moduli_dimension",
        "verify_series",
    ),
    "localhom": (
        "HomSolution",
        "LINE_IDEAL",
        "LINE_WITH_EMBEDDED_POINT_IDEAL",
        "MonomialIdeal",
        "POINT_IDEAL",
        "hom_dimension",
        "standard_monomials",
        "syzygy_pairs",
        "tangent_jump_report",
        "verify_hom_solution",
    ),
    "oracles": (
        "Partition",
        "addable_boxes",
        "colored_partitions_count",
        "nested_colored_count",
        "partitions_of",
    ),
    "polyseries": ("BivariatePolynomial", "TruncatedSeries", "series_product"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
