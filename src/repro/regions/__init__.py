"""Guarded array regions: the paper's summary representation (section 3).

Range triples, rectangular regular array regions, GARs ``[P, R]``, GAR
lists with union semantics, their set operations, and the GAR simplifier.
"""

from .gar import GAR, GARList
from .gar_ops import (
    gar_intersect,
    gar_subtract,
    intersect_lists,
    lists_intersect_empty,
    subtract_lists,
    union_lists,
)
from .gar_simplify import simplify_gar_list
from .ranges import Range, range_covers, range_difference, range_intersect, range_union
from .region import OMEGA_DIM, RegularRegion
from .region_ops import region_covers, region_difference, region_intersect, region_union

__all__ = [
    "GAR",
    "GARList",
    "OMEGA_DIM",
    "Range",
    "RegularRegion",
    "gar_intersect",
    "gar_subtract",
    "intersect_lists",
    "lists_intersect_empty",
    "range_covers",
    "range_difference",
    "range_intersect",
    "range_union",
    "region_covers",
    "region_difference",
    "region_intersect",
    "region_union",
    "simplify_gar_list",
    "subtract_lists",
    "union_lists",
]
