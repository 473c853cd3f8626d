"""Guarded array regions: the paper's summary representation (section 3).

Range triples, rectangular regular array regions, GARs ``[P, R]``, GAR
lists with union semantics, their set operations, and the GAR simplifier.
Each name loads its submodule on first use (:mod:`repro.lazy`).
"""

from ..lazy import exports

__all__, __getattr__ = exports(__name__, {
    "gar": ("GAR", "GARList"),
    "gar_ops": (
        "gar_intersect", "gar_subtract", "intersect_lists",
        "lists_intersect_empty", "subtract_lists", "union_lists",
    ),
    "gar_simplify": ("simplify_gar_list",),
    "ranges": (
        "Range", "range_covers", "range_difference", "range_intersect",
        "range_union",
    ),
    "region": ("OMEGA_DIM", "RegularRegion"),
    "region_ops": (
        "region_covers", "region_difference", "region_intersect",
        "region_union",
    ),
})
