"""Exact computer-algebra kernel and verification harness for the
Yangian of the general linear Lie superalgebra gl(M|N)."""

from .algebra import Algebra, Element, GenIndex, algebra, embed_gl, supercommutator
from .grammar import element_to_text, parse_element, parse_series, series_to_text
from .series import SeriesTail

__all__ = [
    "Algebra",
    "Element",
    "GenIndex",
    "SeriesTail",
    "algebra",
    "element_to_text",
    "embed_gl",
    "parse_element",
    "parse_series",
    "series_to_text",
    "supercommutator",
]
