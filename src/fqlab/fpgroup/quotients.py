"""Finite quotient order sets, with coset-table certificates.

Every finite quotient of order n corresponds to a normal subgroup of
index n, so order sets come straight out of the normal low-index
search.  Each order keeps one certificate: the standardized table of
the smallest normal subgroup realizing it, re-checkable independently
with ``verify_regular_table``: well-formed and regular, so each
relator closes everywhere once it closes at coset 0.

A budget exhaustion can leave the listing incomplete; results carry a
``complete`` flag and incomplete ones are refused by downstream
consumers unless explicitly requested.
"""

from __future__ import annotations

from typing import NamedTuple

from ..budgets import MAX_RELATOR_LETTERS
from ..errors import ResourceBudgetError, SearchBudgetError
from ..orbit import orbit
from .coset import CosetTable
from .lowindex import low_index_normal_subgroups
from .presentation import Presentation


class FqResult(NamedTuple):
    """Quotient orders up to a limit, each with one certificate table."""

    certificates: dict[int, CosetTable]
    complete: bool

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.certificates))


def fq_up_to(
    pres: Presentation,
    limit: int,
    allow_partial: bool = False,
    keep=None,
) -> FqResult:
    """All finite quotient orders up to the limit, or with ``keep`` only
    those of the tables it accepts; each order's certificate is its first
    kept table in search order."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    try:
        tables, complete = low_index_normal_subgroups(pres, limit), True
    except SearchBudgetError as err:
        if not allow_partial:
            raise
        tables, complete = getattr(err, "partial", []), False
    certificates: dict[int, CosetTable] = {}
    for t in tables:
        if keep is None or keep(t):
            certificates.setdefault(t.n_cosets, t)
    return FqResult(certificates, complete)


def oq_up_to(
    pres: Presentation,
    limit: int,
    allow_partial: bool = False,
) -> FqResult:
    """Odd finite quotient orders up to the limit."""
    return fq_up_to(pres, limit, allow_partial, keep=lambda t: t.n_cosets % 2 == 1)


def subgroup_image(t: CosetTable, gens) -> list[int]:
    """The cosets reached from coset 0 along the columns of the given
    generators.  In a regular table coset g is the group element g, so
    this is the image of the subgroup those generators span."""
    cols = [2 * i for i in gens]
    return orbit(0, lambda x: [t.rows[x][c] for c in cols])


def _letter_names(k: int) -> tuple[str, ...]:
    if k <= 26:
        return tuple(chr(ord("a") + i) for i in range(k))
    return tuple(f"x{i + 1}" for i in range(k))


def free_product_of_cyclics(cyclic_orders) -> Presentation:
    """Presentation with one generator per factor, of that exact order."""
    orders = tuple(cyclic_orders)
    if not orders:
        raise ValueError("need at least one cyclic factor")
    for s in orders:
        if not isinstance(s, int) or s < 2:
            raise ValueError(f"cyclic factor orders must be integers >= 2, got {s!r}")
        if s > MAX_RELATOR_LETTERS:
            raise ResourceBudgetError(
                f"cyclic factor order {s} exceeds the {MAX_RELATOR_LETTERS}-letter budget"
            )
    names = _letter_names(len(orders))
    relators = tuple(tuple([i + 1] * s) for i, s in enumerate(orders))
    return Presentation(names, relators)


def smooth_quotients(
    cyclic_orders,
    max_index: int,
    allow_partial: bool = False,
) -> FqResult:
    """Quotient orders of a free product of cyclic groups where every
    factor keeps its full order.

    A quotient counts only if the image of each factor's generator has
    order exactly the factor's order, not a proper divisor: the size of
    ``subgroup_image`` of that generator alone.
    """
    orders = tuple(cyclic_orders)

    def keep(t: CosetTable) -> bool:
        return all(len(subgroup_image(t, (i,))) == s for i, s in enumerate(orders))

    return fq_up_to(free_product_of_cyclics(orders), max_index, allow_partial, keep=keep)
