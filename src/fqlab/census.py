"""Censuses of graph orders certified by the bounded quotient search.

Each quotient order m with s | m, s the vertex stabilizer order, gives
the graph order m/s, certified by the quotient's coset table.  Only
``census`` loads this module, and it loads no graph code.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalInvariantError
from .fpgroup import CosetTable, Presentation, fq_up_to, smooth_quotients


class CensusEntry(NamedTuple):
    """One certified graph order.

    ``certificate_index`` is the quotient group order backing the
    entry and ``table`` its coset table; ``flagged`` marks orders below
    four, where the quotient is too degenerate for the coset graph to
    be trusted simple.
    """

    order: int
    certificate_index: int
    flagged: bool
    table: CosetTable


class CensusResult(NamedTuple):
    """Sorted census entries plus the parameters that produced them."""

    max_index: int
    stabilizer_order: int
    entries: tuple[CensusEntry, ...]
    complete: bool


def _census(found, s: int, max_index: int) -> CensusResult:
    """One entry of graph order m/s per quotient order m with s | m."""
    entries = tuple(
        CensusEntry(m // s, m, m // s < 4, found.certificates[m])
        for m in found.orders
        if m % s == 0
    )
    return CensusResult(max_index, s, entries, found.complete)


def cubic_census(max_index: int, allow_partial: bool = False) -> CensusResult:
    """Orders of connected cubic graphs carrying arc-regular symmetry.

    Such a symmetry group is generated by a vertex rotation of order
    exactly three and an edge swap of order exactly two, so its finite
    images are the order-preserving quotients of the free product of a
    three-cycle and a two-cycle; each image of order m yields a coset
    graph on m/3 vertices.
    """
    found = smooth_quotients((3, 2), max_index, allow_partial)
    for m in found.orders:
        if m % 3:
            raise InternalInvariantError(f"order {m} despite an order-3 generator")
    return _census(found, 3, max_index)


def amalgam_census(
    pres: Presentation, stabilizer_order: int, max_index: int, allow_partial: bool = False
) -> CensusResult:
    """Census over a user-supplied presentation with a declared vertex
    stabilizer order s: each finite quotient of order m with s | m
    yields the graph order m/s.

    Quotient orders not divisible by s are dropped: the declared
    stabilizer cannot embed in such an image, so no coset graph of the
    promised valency exists there.
    """
    if stabilizer_order < 1:
        raise ValueError("stabilizer order must be >= 1")
    return _census(fq_up_to(pres, max_index, allow_partial), stabilizer_order, max_index)
