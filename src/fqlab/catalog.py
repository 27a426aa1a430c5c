"""Named fixture groups in cycle notation.

One group per line: ``name: (1 2 3), (1 2)(3 4)``.  Points are 1-based
in the notation; the common degree of a group is the largest point any
of its generators moves (at least 1).  Blank lines and ``#`` comments
are skipped.  The parser rejects anything that is not a bijection,
including a point repeated across the cycles of one permutation.
"""

from __future__ import annotations

from .errors import InputSyntaxError
from .permgroup import PermGroup, close, extend_perm, format_perm, parse_perm

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
    """Parse catalog text into named groups, preserving order."""
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
        out[name] = close(tuple(extend_perm(p, degree) for p in perms), degree)
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
