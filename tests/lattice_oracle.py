"""Normal subgroups by closing joins from generators, kept as a test oracle.

``fqlab.permgroup.normal_subgroups`` builds each join of two normal
subgroups as a union of cosets and never closes it.  This oracle keeps
the route it replaced: every join is closed again from the generators
of both sides.  Its atoms are the subgroups generated by conjugacy
classes, each class computed by conjugating with every element of the
group rather than by an orbit under the generators.  The fixpoint of
joins is the set of all normal subgroups, returned as element sets.
``conjugate`` composes tuples, apart from the element index's
conjugation rows that the package conjugates by.
"""

from fqlab.permgroup import close, compose, inverse


def conjugate(g, b):
    """b^-1 g b under left-then-right composition."""
    return compose(compose(inverse(b), g), b)


def closure_join_lattice(group):
    """Element sets of every normal subgroup of ``group``, as a set."""
    atoms = []
    classified = set()
    for g in group.elements:
        if g not in classified:
            cls = {conjugate(g, b) for b in group.elements}
            classified |= cls
            atoms.append(close(sorted(cls), group.degree))
    trivial = close((), group.degree)
    found = {trivial.element_set: trivial}
    for atom in atoms:
        found.setdefault(atom.element_set, atom)
    worklist = list(found.values())
    while worklist:
        current = worklist.pop()
        for atom in atoms:
            if atom.element_set <= current.element_set:
                continue
            join = close(current.generators + atom.generators, group.degree)
            if join.element_set not in found:
                found[join.element_set] = join
                worklist.append(join)
    return set(found)
