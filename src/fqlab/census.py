"""Censuses of graph orders certified by the bounded quotient search.

An amalgam is presented with the arc-transitive convention: the
generators but the last span the vertex stabilizer, the last reverses
an arc, and the stabilizer order s is checked per table.  A quotient
table of order m certifies the graph order m/s exactly when the
stabilizer's generators have an image of exactly s elements and the
reverser's image lies outside it (Djoković & Miller, JCTB 29 (1980);
Conder & Lorimer, JCTB 47 (1989)).  Only ``census`` loads this module,
and it loads no graph code.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalInvariantError
from .fpgroup import CosetTable, Presentation, free_product_of_cyclics, fq_up_to, subgroup_image


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
    """Sorted census entries and whether the search finished."""

    entries: tuple[CensusEntry, ...]
    complete: bool


def amalgam_census(
    pres: Presentation, stabilizer_order: int, max_index: int, allow_partial: bool = False
) -> CensusResult:
    """Census over an amalgam presented in the convention above.

    Every search table is regular, so the stabilizer's image is the
    orbit of coset 0 under its generators' columns; a graph order's
    certificate is the first table in search order that passes.
    """
    s = stabilizer_order
    if s < 1:
        raise ValueError("stabilizer order must be >= 1")
    last = pres.n_gens - 1

    def keep(t: CosetTable) -> bool:
        image = subgroup_image(t, range(last))
        if len(image) != s or t.rows[0][2 * last] in image:
            return False
        if t.n_cosets % s:
            raise InternalInvariantError(f"order {t.n_cosets} holds a subgroup of order {s}")
        return True

    found = fq_up_to(pres, max_index, allow_partial, keep=keep)
    entries = tuple(
        CensusEntry(m // s, m, m // s < 4, found.certificates[m]) for m in found.orders
    )
    return CensusResult(entries, found.complete)


def cubic_census(max_index: int, allow_partial: bool = False) -> CensusResult:
    """Orders of connected cubic graphs carrying arc-regular symmetry:
    the census of the free product of a vertex rotation of order three
    and an edge swap of order two, with the rotation as stabilizer."""
    return amalgam_census(free_product_of_cyclics((3, 2)), 3, max_index, allow_partial)
