"""Finite permutation groups from small generating sets.

A group is held as its generators; its element set is closed from them
only when a question needs it (cap 10^5).  Orbits, point stabilizers
and conjugacy classes work from generators alone, the first and last
through one breadth-first routine, ``orbit``; a point stabilizer is
always given by its Schreier generators, never by filtering elements;
normality is tested by conjugating generators by generators; a quotient
by a normal subgroup labels each element with its coset and closes the
coset action of the group's generators; subgroups generated by
order-restricted elements scan the element set, so they are desk scale.
Normal subgroups are the joins of the subgroups that conjugacy classes
generate, computed once per group.
The closure sifts its generators, so a long redundant generating list
costs little more than a short one.  Permutations are tuples of
0-based images; composition is "left then right", so cosets and coset
actions are right-handed throughout.

The checks in this module back three structural facts used elsewhere:
the subgroup generated by odd-order elements maps onto its counterpart
in any quotient; a group whose order is anchored at a prime p has a
quotient that is a cyclic-by-p split extension with complement order
dividing p - 1; and quasiprimitive groups of order above 2 have a
transitive odd-generated part.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass
from operator import itemgetter
from typing import TypeVar

from .budgets import ELEMENT_CAP, NORMAL_SUBGROUP_CAP
from .errors import GroupTooLargeError, InputSyntaxError, InternalInvariantError

Perm = tuple[int, ...]
T = TypeVar("T", bound=Hashable)


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(g: Perm, h: Perm) -> Perm:
    """Apply g, then h."""
    if len(g) == 1:
        # itemgetter with one index returns the item, not a tuple
        return (h[g[0]],)
    return itemgetter(*g)(h)


def inverse(g: Perm) -> Perm:
    out = [0] * len(g)
    for i, x in enumerate(g):
        out[x] = i
    return tuple(out)


def conjugate(g: Perm, b: Perm) -> Perm:
    """b^-1 g b under left-then-right composition."""
    return compose(compose(inverse(b), g), b)


def perm_order(g: Perm) -> int:
    """The lcm of the cycle lengths."""
    seen = [False] * len(g)
    out = 1
    for start in range(len(g)):
        if seen[start]:
            continue
        # start is the least point of its cycle, so the walk never meets
        # a point that an earlier start marked
        x = g[start]
        length = 1
        while x != start:
            seen[x] = True
            x = g[x]
            length += 1
        if length > 1:
            out = math.lcm(out, length)
    return out


def cycle_decomposition(g: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, 0-based, each starting at its smallest point."""
    seen = [False] * len(g)
    out = []
    for start in range(len(g)):
        if seen[start] or g[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = g[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = g[x]
        out.append(tuple(cyc))
    return out


def format_perm(g: Perm) -> str:
    """1-based cycle notation; the identity prints as ``()``."""
    cycles = cycle_decomposition(g)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles)


def parse_perm(text: str, degree: int | None = None, line: int | None = None) -> Perm:
    """Parse 1-based cycle notation like ``(1 2 3)(4 5)``.

    A point may appear at most once across all cycles; anything else is
    not a bijection and is rejected.
    """
    mapping: dict[int, int] = {}
    maxpt = 0
    i = 0
    text = text.strip()
    if not text:
        raise InputSyntaxError("empty permutation", line=line)
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise InputSyntaxError(f"expected '(' in permutation, found {ch!r}", line=line, column=i + 1)
        j = text.find(")", i)
        if j < 0:
            raise InputSyntaxError("unclosed cycle", line=line, column=i + 1)
        body = text[i + 1 : j].replace(",", " ").split()
        pts = []
        for tok in body:
            if not tok.isdigit() or int(tok) < 1:
                raise InputSyntaxError(f"bad point {tok!r}", line=line, column=i + 1)
            pts.append(int(tok) - 1)
        for k, p in enumerate(pts):
            if p in mapping:
                raise InputSyntaxError(f"point {p + 1} repeated", line=line, column=i + 1)
            mapping[p] = pts[(k + 1) % len(pts)]
            maxpt = max(maxpt, p + 1)
        i = j + 1
    if degree is None:
        degree = max(maxpt, 1)
    elif maxpt > degree:
        raise InputSyntaxError(f"point {maxpt} exceeds degree {degree}", line=line)
    images = list(range(degree))
    for src, dst in mapping.items():
        images[src] = dst
    return tuple(images)


def extend_perm(g: Perm, degree: int) -> Perm:
    if len(g) > degree:
        raise ValueError("cannot shrink a permutation")
    return g + tuple(range(len(g), degree))


class PermGroup:
    """A permutation group held as generators plus an on-demand element set."""

    __slots__ = ("degree", "generators", "_elements", "_element_set", "_normal", "_cap")

    def __init__(self, degree: int, generators: tuple[Perm, ...], element_cap: int = ELEMENT_CAP):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        for g in generators:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise ValueError(f"not a bijection on {degree} points: {g}")
        self.degree = degree
        self.generators = tuple(generators)
        self._elements: tuple[Perm, ...] | None = None
        self._element_set: frozenset[Perm] | None = None
        self._normal: tuple[PermGroup, ...] | None = None
        self._cap = element_cap

    @property
    def elements(self) -> tuple[Perm, ...]:
        """All elements, lexicographically sorted.  Computed once, then cached.

        The closure sifts the generators: one already in the subgroup
        built so far is skipped, and a new one g extends that subgroup H
        by a breadth-first search that starts from H g and multiplies by
        the kept generators only.  A word that leaves H first leaves it
        through g, so the search misses nothing; each kept generator at
        least doubles H, so at most log2 of the order are kept, and a
        long redundant generating list costs one membership test per
        entry.
        """
        if self._elements is None:
            known = {identity(self.degree)}
            kept: list[Perm] = []
            for g in self.generators:
                if g in known:
                    continue
                kept.append(g)
                # known is the subgroup H and g lies outside it, so the
                # coset H g is disjoint from H
                frontier = [compose(x, g) for x in known]
                while frontier:
                    known.update(frontier)
                    if len(known) > self._cap:
                        raise GroupTooLargeError(
                            f"closure exceeded the {self._cap} element cap"
                        )
                    nxt = []
                    for x in frontier:
                        for h in kept:
                            y = compose(x, h)
                            if y not in known:
                                known.add(y)
                                nxt.append(y)
                    frontier = nxt
            self._elements = tuple(sorted(known))
            self._element_set = frozenset(known)
        return self._elements

    @property
    def element_set(self) -> frozenset[Perm]:
        if self._element_set is None:
            self.elements
        return self._element_set

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Perm) -> bool:
        return g in self.element_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.element_set == other.element_set

    def __hash__(self) -> int:
        return hash((self.degree, self.element_set))

    def __repr__(self) -> str:
        n = len(self._elements) if self._elements is not None else "?"
        return f"PermGroup(degree={self.degree}, order={n})"


def close(generators, degree: int | None = None, element_cap: int = ELEMENT_CAP) -> PermGroup:
    """Group generated by the given permutations, elements populated."""
    gens = tuple(generators)
    if degree is None:
        if not gens:
            raise ValueError("need a degree for the empty generating set")
        degree = len(gens[0])
    G = PermGroup(degree, gens, element_cap)
    G.elements
    return G


def trivial_group(degree: int) -> PermGroup:
    return close((), degree)


def orbit(seed: T, step: Callable[[T], Iterable[T]]) -> list[T]:
    """Everything reachable from seed, breadth-first: seed, then each new
    neighbor in the order step(x) yields the neighbors of x."""
    out = [seed]
    seen = {seed}
    # the loop also visits what it appends
    for x in out:
        for y in step(x):
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


def orbits(group: PermGroup) -> list[tuple[int, ...]]:
    """Orbit partition of the points, each orbit sorted, ordered by minimum."""
    return orbits_of(group.generators, group.degree)


def orbits_of(generators, degree: int) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    out = []
    for start in range(degree):
        if start not in seen:
            orb = orbit(start, lambda x: (g[x] for g in generators))
            seen.update(orb)
            out.append(tuple(sorted(orb)))
    return out


def is_transitive(group: PermGroup) -> bool:
    return len(orbits(group)) == 1


def orbit_transversal(generators, degree: int, base: int) -> dict[int, Perm]:
    """Orbit of the base point with, for each point, a word mapping base there."""
    gens = tuple(generators)
    trans = {base: identity(degree)}
    frontier = [base]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = g[x]
                if y not in trans:
                    trans[y] = compose(trans[x], g)
                    nxt.append(y)
        frontier = nxt
    return trans


def stabilizer_generators(generators, degree: int, base: int) -> list[Perm]:
    """Generators of the stabilizer of a point, no element listing needed.

    For each orbit point x and generator g, the loop word
    t_x g t_{x.g}^-1 fixes the base; those loops generate the stabilizer.
    """
    gens = tuple(generators)
    trans = orbit_transversal(gens, degree, base)
    out = []
    seen = set()
    for x, t in trans.items():
        for g in gens:
            word = compose(compose(t, g), inverse(trans[g[x]]))
            if word[base] != base:
                raise InternalInvariantError("loop word moved the base point")
            if word not in seen and word != identity(degree):
                seen.add(word)
                out.append(word)
    return out


def torsion_subgroup(group: PermGroup, pred: Callable[[int], bool]) -> PermGroup:
    """Subgroup generated by every element whose order satisfies pred.

    The generating set is order-defined, hence closed under
    conjugation, so the result is normal in the group.
    """
    gens = tuple(g for g in group.elements if pred(perm_order(g)))
    return close(gens, group.degree, group._cap)


def is_normal(group: PermGroup, sub: PermGroup) -> bool:
    """Is the subgroup invariant under conjugation by the group?

    Conjugating the subgroup's generators by the group's generators
    suffices: conjugation is a homomorphism, so the conjugates of the
    generators generate the conjugate subgroup, and invariance under
    generators propagates to all products.  Raises if sub is not in fact
    a subgroup of group.
    """
    if sub.degree != group.degree or not sub.element_set <= group.element_set:
        raise ValueError("not a subgroup of the given group")
    members = sub.element_set
    return all(
        compose(compose(b_inv, n), b) in members
        for b, b_inv in _with_inverses(group.generators)
        for n in sub.generators
    )


def _with_inverses(generators) -> list[tuple[Perm, Perm]]:
    return [(b, inverse(b)) for b in generators]


def normal_subgroups(group: PermGroup) -> list[PermGroup]:
    """Every normal subgroup exactly once, sorted by order then elements.

    Computed once per group; each call returns a fresh list.  Built as
    the join-closure of the subgroups generated by conjugacy classes: a
    normal subgroup is a union of classes, so it is the join of the
    subgroups its classes generate, and joins of normal subgroups are
    normal, so the fixpoint reaches all of them and nothing else.
    A class is the orbit of one element under conjugation by the
    generators; a join closes the generators of both sides.
    """
    if group._normal is not None:
        return list(group._normal)
    if group.order > NORMAL_SUBGROUP_CAP:
        raise GroupTooLargeError(
            f"order {group.order} exceeds the normal-subgroup cap {NORMAL_SUBGROUP_CAP}"
        )
    conjugators = _with_inverses(group.generators)
    triv = trivial_group(group.degree)
    found: dict[frozenset[Perm], PermGroup] = {triv.element_set: triv}
    atoms = []
    classified: set[Perm] = set()
    for g in group.elements:
        if g in classified:
            continue
        cls = orbit(g, lambda x: (compose(compose(b_inv, x), b) for b, b_inv in conjugators))
        classified.update(cls)
        atom = close(cls, group.degree, group._cap)
        if atom.element_set not in found:
            found[atom.element_set] = atom
            atoms.append(atom)
    worklist = list(found.values())
    while worklist:
        current = worklist.pop()
        for atom in atoms:
            if atom.element_set <= current.element_set:
                continue
            join = close(current.generators + atom.generators, group.degree, group._cap)
            if join.element_set not in found:
                found[join.element_set] = join
                worklist.append(join)
    group._normal = tuple(sorted(found.values(), key=lambda n: (n.order, n.elements)))
    return list(group._normal)


def quotient_with_map(group: PermGroup, sub: PermGroup) -> tuple[PermGroup, dict[Perm, int]]:
    """Coset action of the group on a normal subgroup's right cosets.

    Returns the regular representation Q of the quotient (degree = index,
    order = index), generated by the images of the group's generators,
    together with the label of each element: the number of its coset,
    cosets being numbered by their least elements, so coset 0 is sub.
    Q acts regularly and the image of x moves coset 0 to coset x, so the
    image of x is the q in Q with q[0] == label[x].
    """
    if not is_normal(group, sub):
        raise ValueError("subgroup is not normal")
    nset = sub.elements
    # elements are sorted, so the first unlabelled one is the least
    # element of its coset and becomes that coset's representative
    label: dict[Perm, int] = {}
    reps: list[Perm] = []
    for g in group.elements:
        if g not in label:
            for n in nset:
                label[compose(n, g)] = len(reps)
            reps.append(g)
    gens = tuple(tuple(label[compose(rep, g)] for rep in reps) for g in group.generators)
    Q = close(gens, len(reps), group._cap)
    if Q.order * sub.order != group.order:
        raise InternalInvariantError("coset action order mismatch")
    return Q, label


def quotient(group: PermGroup, sub: PermGroup) -> PermGroup:
    return quotient_with_map(group, sub)[0]


@dataclass(frozen=True)
class GroupShape:
    """Coarse isomorphism shape: cyclic, dihedral, or other.

    ``parameter`` is the cyclic order for cyclic groups and the rotation
    subgroup order n for dihedral groups of order 2n.
    """

    tag: str
    parameter: int = 0


def shape(group: PermGroup) -> GroupShape:
    """Classify as cyclic, dihedral, or other.

    Cyclic wins ties: an order-2 group is cyclic, never dihedral.  The
    Klein four-group counts as dihedral with rotation order 2.

    Dihedral of order 2h means an involution b outside <r> inverts some r
    of order h.  An involution in <r> inverts r only if r*r = 1, and then
    the group is the Klein four-group either way, so <r> is never listed.
    """
    n = group.order
    orders = {g: perm_order(g) for g in group.elements}
    if max(orders.values()) == n:
        return GroupShape("cyclic", n)
    if n % 2 == 0:
        half = n // 2
        involutions = [b for b, k in orders.items() if k == 2]
        for r, k in orders.items():
            if k == half and any(conjugate(r, b) == inverse(r) for b in involutions):
                return GroupShape("dihedral", half)
    return GroupShape("other", 0)


@dataclass(frozen=True)
class OddPartEntry:
    kernel_order: int
    matched: bool


@dataclass(frozen=True)
class OddPartReport:
    """Per-kernel comparison of odd-generated parts across a quotient."""

    group_order: int
    entries: tuple[OddPartEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.matched for e in self.entries)


def verify_odd_quotient(group: PermGroup) -> OddPartReport:
    """Check, for every normal subgroup, that quotienting commutes with
    taking the odd-generated part."""
    odd_part = torsion_subgroup(group, lambda k: k % 2 == 1)
    entries = []
    for N in normal_subgroups(group):
        Q, label = quotient_with_map(group, N)
        lhs = {q[0] for q in torsion_subgroup(Q, lambda k: k % 2 == 1).elements}
        rhs = {label[x] for x in odd_part.elements}
        entries.append(OddPartEntry(N.order, lhs == rhs))
    return OddPartReport(group.order, tuple(entries))


@dataclass(frozen=True)
class SylowQuotientReport:
    """Witness decomposition of the distinguished quotient at a prime.

    The quotient has order prime * complement_order, a normal subgroup
    of order prime, and a cyclic complement quotient whose order divides
    prime - 1.
    """

    prime: int
    group_order: int
    kernel_order: int
    complement_order: int
    quotient: PermGroup

    @property
    def quotient_order(self) -> int:
        return self.prime * self.complement_order


def normal_sylow_quotient(group: PermGroup, p: int) -> SylowQuotientReport:
    """Quotient by the coprime part of the centralizer of the Sylow p-part.

    Requires the group order to be anchored at p (p divides exactly
    once, no divisor above 1 in the class of 1 mod p): then the Sylow
    p-subgroup P is normal, its centralizer splits as P times a
    p-coprime part K, K is normal, and G/K is a split extension of P by
    a cyclic group of order dividing p - 1.
    """
    from .numtheory import np_contains

    n = group.order
    if not np_contains(n, p):
        raise ValueError(f"group order {n} is not anchored at {p}")
    z = next((g for g in group.elements if perm_order(g) == p), None)
    if z is None:
        raise InternalInvariantError(f"no element of order {p} found")
    P = close((z,), group.degree, group._cap)
    if not is_normal(group, P):
        raise InternalInvariantError("Sylow subgroup not normal despite anchored order")
    cent = tuple(
        g for g in group.elements if compose(g, z) == compose(z, g)
    )
    k_elems = tuple(g for g in cent if math.gcd(perm_order(g), p) == 1)
    K = PermGroup(group.degree, k_elems, group._cap)
    if len(K.elements) != len(k_elems):
        raise InternalInvariantError("coprime part of the centralizer is not closed")
    if len(cent) != p * len(k_elems):
        raise InternalInvariantError("centralizer does not split as expected")
    if not is_normal(group, K):
        raise InternalInvariantError("coprime part of the centralizer is not normal")
    Q, label = quotient_with_map(group, K)
    z_bar = next(q for q in Q.elements if q[0] == label[z])
    Pbar = close((z_bar,), Q.degree, group._cap)
    if Pbar.order != p or not is_normal(Q, Pbar):
        raise InternalInvariantError("image of the Sylow part is not normal of order p")
    comp = quotient(Q, Pbar)
    sh = shape(comp)
    if sh.tag != "cyclic" or (p - 1) % comp.order != 0:
        raise InternalInvariantError("complement is not cyclic of order dividing p - 1")
    return SylowQuotientReport(p, n, K.order, comp.order, Q)


def is_quasiprimitive(group: PermGroup) -> bool:
    """Is every nontrivial normal subgroup transitive?  Requires transitivity."""
    if not is_transitive(group):
        raise ValueError("group is not transitive")
    return all(N.order == 1 or is_transitive(N) for N in normal_subgroups(group))


@dataclass(frozen=True)
class QuasiprimitiveOddReport:
    group_order: int
    quasiprimitive: bool
    odd_part_transitive: bool
    exempt: bool

    @property
    def passed(self) -> bool:
        if not self.quasiprimitive or self.exempt:
            return True
        return self.odd_part_transitive


def verify_quasiprimitive_odd(group: PermGroup) -> QuasiprimitiveOddReport:
    """Quasiprimitive groups of order above 2 must have a transitive
    odd-generated part; order 2 is the lone exception."""
    qp = is_quasiprimitive(group)
    odd_part = torsion_subgroup(group, lambda k: k % 2 == 1)
    return QuasiprimitiveOddReport(group.order, qp, is_transitive(odd_part), group.order == 2)


@dataclass(frozen=True)
class RestrictedQuotientReport:
    """Outcome of the non-cyclic-quotient check at a modulus."""

    group_order: int
    modulus: int
    status: str  # "verified", "violated", or "hypotheses fail"
    quotient_shape: GroupShape | None = None

    @property
    def passed(self) -> bool:
        return self.status != "violated"


def verify_restricted_quotient(group: PermGroup, a: int) -> RestrictedQuotientReport:
    """When the order sits in the admissible union set for a and elements
    of order dividing a generate the whole group, the quotient by the
    odd-order-dividing-a part must not be cyclic."""
    from .numtheory import sp_contains

    n = group.order
    if not sp_contains(n, a):
        return RestrictedQuotientReport(n, a, "hypotheses fail")
    if torsion_subgroup(group, lambda k: a % k == 0).order != n:
        return RestrictedQuotientReport(n, a, "hypotheses fail")
    core = torsion_subgroup(group, lambda k: k % 2 == 1 and a % k == 0)
    sh = shape(quotient(group, core))
    status = "violated" if sh.tag == "cyclic" else "verified"
    return RestrictedQuotientReport(n, a, status, sh)
