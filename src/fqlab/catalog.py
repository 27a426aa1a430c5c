"""Named fixture groups in cycle notation.

One group per line: ``name: (1 2 3), (1 2)(3 4)``.  Points are 1-based
in the notation; the common degree of a group is the largest point any
of its generators moves (at least 1).  Blank lines and ``#`` comments
are skipped.  The parser rejects anything that is not a bijection,
including a point repeated across the cycles of one permutation.
Cycle notation is read and written here only, so this module holds
``parse_perm`` and ``format_perm``, which writes the cycles that
``permgroup.cycle_decomposition`` walks; only ``verify`` loads it.
"""

from __future__ import annotations

from .errors import InputSyntaxError
from .permgroup import Perm, PermGroup, cycle_decomposition


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


# Small groups used by the verification sweeps.  Orders range over
# 1..200 with every structure the sweeps exercise: cyclic chains,
# dihedral and quaternion 2-groups, split metacyclic groups whose
# orders are anchored at 3, 5, 7, 11, 13, direct products, and the
# simple groups on 5 and 7 points.
DEFAULT_CATALOG = """\
C1: ()
C2: (1 2)
C3: (1 2 3)
C4: (1 2 3 4)
C5: (1 2 3 4 5)
C6: (1 2 3 4 5 6)
C7: (1 2 3 4 5 6 7)
C8: (1 2 3 4 5 6 7 8)
C9: (1 2 3 4 5 6 7 8 9)
C10: (1 2)(3 4 5 6 7)
C12: (1 2 3 4)(5 6 7)
C15: (1 2 3)(4 5 6 7 8)
V4: (1 2)(3 4), (1 3)(2 4)
C2xC4: (1 2), (3 4 5 6)
C2xC2xC2: (1 2), (3 4), (5 6)
C2xC6: (1 2), (3 4 5 6 7 8)
C3xC3: (1 2 3), (4 5 6)
C5xC5: (1 2 3 4 5), (6 7 8 9 10)
S3: (1 2 3), (1 2)
D8: (1 2 3 4), (1 3)
D10: (1 2 3 4 5), (2 5)(3 4)
D12: (1 2 3 4 5 6), (2 6)(3 5)
D14: (1 2 3 4 5 6 7), (2 7)(3 6)(4 5)
Q8: (1 2 3 4)(5 6 7 8), (1 5 3 7)(2 8 4 6)
A4: (1 2 3), (1 2)(3 4)
S4: (1 2 3 4), (1 2)
A5: (1 2 3 4 5), (1 2 3)
S5: (1 2 3 4 5), (1 2)
F20: (1 2 3 4 5), (2 3 5 4)
F21: (1 2 3 4 5 6 7), (2 3 5)(4 7 6)
F39: (1 2 3 4 5 6 7 8 9 10 11 12 13), (1 3 9)(2 6 5)(4 12 10)(7 8 11)
F55: (1 2 3 4 5 6 7 8 9 10 11), (2 4 10 6 5)(3 7 8 11 9)
C3xS3: (1 2 3), (4 5 6), (4 5)
C2xA4: (1 2), (3 4 5), (3 4)(5 6)
S3xS3: (1 2 3), (1 2), (4 5 6), (4 5)
PSL27: (1 2 3 4 5 6 7), (1 8)(2 7)(3 4)(5 6)
"""


def parse_catalog(text: str) -> dict[str, PermGroup]:
    """Parse catalog text into named groups, preserving order.

    Groups are left unclosed, so a closure past the element cap is met
    in the first sweep that lists the group, whose message names it."""
    out: dict[str, PermGroup] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, rest = line.partition(":")
        name = name.strip()
        if sep != ":" or not name:
            raise InputSyntaxError("expected 'name: generators'", line=lineno)
        if name in out:
            raise InputSyntaxError(f"duplicate group name {name!r}", line=lineno)
        gen_texts = [t.strip() for t in rest.split(",") if t.strip()]
        if not gen_texts:
            raise InputSyntaxError(f"no generators for {name!r}", line=lineno)
        perms = [parse_perm(t, line=lineno) for t in gen_texts]
        degree = max(len(p) for p in perms)
        out[name] = PermGroup(degree, tuple(extend_perm(p, degree) for p in perms))
    return out


def serialize_catalog(groups: dict[str, PermGroup]) -> str:
    lines = []
    for name, G in groups.items():
        gens = ", ".join(format_perm(g) for g in G.generators) or "()"
        lines.append(f"{name}: {gens}")
    return "\n".join(lines) + "\n"


def load_catalog() -> dict[str, PermGroup]:
    """The built-in fixture set."""
    return parse_catalog(DEFAULT_CATALOG)
