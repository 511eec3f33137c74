"""Plane helpers that only the tests need."""

from c4lab.plane import IncidenceStructure


def index_of_triple(q: int, a: int, b: int, c: int) -> int:
    """Inverse of plane.triple_of_index; the triple must already be normalized."""
    if a == 1:
        return 1 + q + b * q + c
    if a == 0 and b == 1:
        return 1 + c
    if (a, b, c) == (0, 0, 1):
        return 0
    raise ValueError(f"triple ({a},{b},{c}) is not normalized")


def dual(s: IncidenceStructure) -> IncidenceStructure:
    """The dual structure: line p holds the lines of s through point p."""
    return IncidenceStructure(s.n_lines, [s.point_lines(p) for p in range(s.n_points)])
