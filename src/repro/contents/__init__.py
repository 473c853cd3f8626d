"""The partial-order array-content abstract domain (docs/frontier.md).

Infers per-array, per-segment *value* facts — closed affine forms,
monotonicity, and element bounds — for arrays a routine initializes in
one clean defining loop, and exports them as extra conversion context
(index-array forms, guard bounds) that the symbolic comparer and the
GAR machinery consume transparently.  This is the mechanical version of
the paper's section-6 "forward substitution by hand" for subscript
arrays like ARC2D's ``JPLUS``/``JMINUS``.
"""

from .domain import ContentFact, Monotone
from .infer import ContentFacts, infer_program, infer_unit

__all__ = [
    "ContentFact",
    "ContentFacts",
    "Monotone",
    "infer_program",
    "infer_unit",
]
