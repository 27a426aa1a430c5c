"""Finite permutation groups from small generating sets.

A group is held as its generators; its element set is closed from them
only when a question needs it (cap 10^5).  Orbits, point stabilizers
and normal closures work from generators alone; a point stabilizer is
always given by its Schreier generators, never by filtering elements;
normality, quotients and subgroups generated by order-restricted
elements are direct scans of the element set, so they are desk scale.
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
from dataclasses import dataclass

from .budgets import ELEMENT_CAP, NORMAL_SUBGROUP_CAP
from .errors import GroupTooLargeError, InputSyntaxError, InternalInvariantError
from .numtheory import np_contains, sp_contains

Perm = tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(g: Perm, h: Perm) -> Perm:
    """Apply g, then h."""
    return tuple(h[x] for x in g)


def inverse(g: Perm) -> Perm:
    out = [0] * len(g)
    for i, x in enumerate(g):
        out[x] = i
    return tuple(out)


def conjugate(g: Perm, b: Perm) -> Perm:
    """b^-1 g b under left-then-right composition."""
    return compose(compose(inverse(b), g), b)


def perm_order(g: Perm) -> int:
    out = 1
    for c in cycle_decomposition(g):
        out = math.lcm(out, len(c))
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

    __slots__ = ("degree", "generators", "_elements", "_element_set", "_cap")

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


def orbits(group: PermGroup) -> list[tuple[int, ...]]:
    """Orbit partition of the points, each orbit sorted, ordered by minimum."""
    return orbits_of(group.generators, group.degree)


def orbits_of(generators, degree: int) -> list[tuple[int, ...]]:
    seen = [False] * degree
    out = []
    for start in range(degree):
        if seen[start]:
            continue
        orb = [start]
        seen[start] = True
        idx = 0
        while idx < len(orb):
            x = orb[idx]
            idx += 1
            for g in generators:
                y = g[x]
                if not seen[y]:
                    seen[y] = True
                    orb.append(y)
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


def _selector_predicate(selector):
    if callable(selector):
        return selector
    if selector == "odd":
        return lambda k: k % 2 == 1
    name, sep, arg = str(selector).partition(":")
    if sep == ":" and arg.isdigit() and int(arg) >= 1:
        a = int(arg)
        if name == "divides":
            return lambda k: a % k == 0
        if name == "odd_and_divides":
            return lambda k: k % 2 == 1 and a % k == 0
    raise ValueError(f"unknown order selector {selector!r}")


def torsion_subgroup(group: PermGroup, selector) -> PermGroup:
    """Subgroup generated by every element whose order matches the selector.

    Selectors: "odd", "divides:a", "odd_and_divides:a", or any predicate
    on element orders.  The generating set is order-defined, hence
    closed under conjugation, so the result is normal in the group.
    """
    pred = _selector_predicate(selector)
    gens = tuple(g for g in group.elements if pred(perm_order(g)))
    return close(gens, group.degree, group._cap)


def normal_closure(group: PermGroup, seed_elements) -> PermGroup:
    """Smallest normal subgroup of the group containing the seeds.

    Each generator of the closure is conjugated by each generator of
    the group; a conjugate outside the closure joins its generators.
    Once every generator's conjugates lie inside, the closure is
    normal.  Each growth at least doubles it, so it is re-closed at
    most log2 of the group order times.
    """
    gens = list(seed_elements)
    for s in gens:
        if s not in group.element_set:
            raise ValueError("seed element outside the group")
    N = close(gens, group.degree, group._cap)
    queue = list(gens)
    while queue:
        x = queue.pop()
        for b in group.generators:
            y = conjugate(x, b)
            if y not in N.element_set:
                gens.append(y)
                queue.append(y)
                N = close(gens, group.degree, group._cap)
    return N


def is_normal(group: PermGroup, sub: PermGroup) -> bool:
    """Is the subgroup invariant under conjugation by the group?

    Conjugation by generators suffices: invariance propagates to all
    products.  Raises if sub is not in fact a subgroup of group.
    """
    if sub.degree != group.degree or not sub.element_set <= group.element_set:
        raise ValueError("not a subgroup of the given group")
    for n in sub.elements:
        for g in group.generators:
            if conjugate(n, g) not in sub.element_set:
                return False
    return True


def normal_subgroups(group: PermGroup, order_cap: int = NORMAL_SUBGROUP_CAP) -> list[PermGroup]:
    """Every normal subgroup exactly once, sorted by order then elements.

    Built as the join-closure of the normal closures of cyclic
    subgroups: any normal subgroup is the join of the closures of its
    own cyclic subgroups, so the fixpoint reaches all of them, and joins
    of normal subgroups are normal, so it reaches nothing else.
    """
    if group.order > order_cap:
        raise GroupTooLargeError(
            f"order {group.order} exceeds the normal-subgroup cap {order_cap}"
        )
    found: dict[frozenset[Perm], PermGroup] = {}
    triv = trivial_group(group.degree)
    found[triv.element_set] = triv
    atoms = []
    seen_cyclic = set()
    for g in group.elements:
        if g == identity(group.degree):
            continue
        cyc = frozenset(_cyclic_elements(g))
        if cyc in seen_cyclic:
            continue
        seen_cyclic.add(cyc)
        nc = normal_closure(group, (g,))
        if nc.element_set not in found:
            found[nc.element_set] = nc
            atoms.append(nc)
    worklist = list(found.values())
    while worklist:
        current = worklist.pop()
        for atom in atoms:
            if atom.element_set <= current.element_set:
                continue
            join = close(tuple(current.element_set | atom.element_set), group.degree, group._cap)
            if join.element_set not in found:
                found[join.element_set] = join
                worklist.append(join)
    return sorted(found.values(), key=lambda n: (n.order, n.elements))


def _cyclic_elements(g: Perm) -> list[Perm]:
    out = [g]
    x = g
    e = identity(len(g))
    while x != e:
        x = compose(x, g)
        out.append(x)
    return out


def quotient_with_map(group: PermGroup, sub: PermGroup) -> tuple[PermGroup, dict[Perm, Perm]]:
    """Coset action of the group on a normal subgroup's right cosets.

    Returns the regular representation of the quotient (degree = index,
    order = index) together with the element-to-image map.
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
    phi: dict[Perm, Perm] = {}
    for g in group.elements:
        phi[g] = tuple(label[compose(rep, g)] for rep in reps)
    images = sorted(set(phi.values()))
    Q = PermGroup(len(reps), tuple(phi[g] for g in group.generators), group._cap)
    Q._elements = tuple(images)
    Q._element_set = frozenset(images)
    if Q.order * sub.order != group.order:
        raise InternalInvariantError("coset action order mismatch")
    return Q, phi


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
    """
    n = group.order
    orders = {g: perm_order(g) for g in group.elements}
    if max(orders.values()) == n:
        return GroupShape("cyclic", n)
    if n % 2 == 0:
        half = n // 2
        rotations = [g for g, k in orders.items() if k == half]
        for r in rotations:
            cyc = set(_cyclic_elements(r))
            for b, k in orders.items():
                if k == 2 and b not in cyc and conjugate(r, b) == inverse(r):
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
    odd_part = torsion_subgroup(group, "odd")
    entries = []
    for N in normal_subgroups(group):
        Q, phi = quotient_with_map(group, N)
        lhs = torsion_subgroup(Q, "odd").element_set
        rhs = frozenset(phi[x] for x in odd_part.elements)
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
    Q, phi = quotient_with_map(group, K)
    Pbar = close(tuple(phi[x] for x in P.elements), Q.degree, group._cap)
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
    for N in normal_subgroups(group):
        if N.order > 1 and len(orbits_of(N.generators or N.elements, N.degree)) > 1:
            return False
    return True


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
    odd_part = torsion_subgroup(group, "odd")
    transitive = (
        len(orbits_of(odd_part.generators or odd_part.elements, group.degree)) == 1
    )
    return QuasiprimitiveOddReport(group.order, qp, transitive, group.order == 2)


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
    n = group.order
    if not sp_contains(n, a):
        return RestrictedQuotientReport(n, a, "hypotheses fail")
    if torsion_subgroup(group, f"divides:{a}").order != n:
        return RestrictedQuotientReport(n, a, "hypotheses fail")
    core = torsion_subgroup(group, f"odd_and_divides:{a}")
    sh = shape(quotient(group, core))
    status = "violated" if sh.tag == "cyclic" else "verified"
    return RestrictedQuotientReport(n, a, status, sh)
