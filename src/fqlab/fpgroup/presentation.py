"""Presentation text format: parsing, printing, word algebra.

Grammar (UTF-8 text, one directive per line):

    gens: <name> <name> ...
    rels: <word>, <word>, ...

Words are juxtapositions of terms; a term is a generator name with an
optional ^<signed int>, a parenthesized word with an optional exponent,
or a commutator [u, v] which expands to u^-1 v^-1 u v.  At the top
level of a relator, ``u = v`` abbreviates u v^-1.  The ``rels:`` line
may be absent or empty and may repeat.  ``#`` starts a comment.

Words are stored as tuples of nonzero signed integers: letter +k is
generator k-1, letter -k its inverse.  Stored words are always freely
reduced.  No word, expanded or stored, may exceed ``MAX_RELATOR_LETTERS``:
the parser checks each power before expanding it and each word as its
terms join, and raises ResourceBudgetError.
"""

from __future__ import annotations

import re

from ..budgets import MAX_RELATOR_LETTERS
from ..errors import InputSyntaxError, ResourceBudgetError

Word = tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[+-]?\d+")


def free_reduce(letters) -> Word:
    out: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("zero is not a letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_word(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def concat_words(*ws: Word) -> Word:
    out: list[int] = []
    for w in ws:
        out.extend(w)
    return free_reduce(out)


def word_exponents(w: Word, n_gens: int) -> list[int]:
    """Exponent sum of each generator; the word's image in the free
    abelian group."""
    out = [0] * n_gens
    for x in w:
        out[abs(x) - 1] += 1 if x > 0 else -1
    return out


class Presentation:
    """A finite presentation: ordered generator names plus relator words."""

    def __init__(self, generator_names: tuple[str, ...], relators: tuple[Word, ...]) -> None:
        self.generator_names = generator_names
        self.relators = relators
        if not self.generator_names:
            raise ValueError("a presentation needs at least one generator")
        seen = set()
        for name in self.generator_names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad generator name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        n = len(self.generator_names)
        for w in self.relators:
            if not w:
                raise ValueError("empty relator")
            if len(w) > MAX_RELATOR_LETTERS:
                raise ResourceBudgetError(
                    f"a relator of {len(w)} letters exceeds the {MAX_RELATOR_LETTERS}-letter budget"
                )
            if w != free_reduce(w):
                raise ValueError(f"relator not freely reduced: {w}")
            for x in w:
                if not 1 <= abs(x) <= n:
                    raise ValueError(f"letter {x} outside generator range")

    def __eq__(self, other) -> bool:
        return type(other) is Presentation and vars(self) == vars(other)

    @property
    def n_gens(self) -> int:
        return len(self.generator_names)


class _Tokens:
    """Token stream over one logical line, tracking the source column."""

    def __init__(self, text: str, line: int, col_offset: int):
        self.text = text
        self.line = line
        self.off = col_offset
        self.pos = 0

    def error(self, msg: str) -> InputSyntaxError:
        return InputSyntaxError(msg, line=self.line, column=self.off + self.pos + 1)

    def check_length(self, n: int) -> None:
        if n > MAX_RELATOR_LETTERS:
            raise ResourceBudgetError(
                f"a word of {n} letters exceeds the {MAX_RELATOR_LETTERS}-letter budget"
                f" (line {self.line}, column {self.off + self.pos + 1})"
            )

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_name(self) -> str | None:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group()

    def take_char(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def take_int(self) -> int:
        self.skip_ws()
        m = _INT_RE.match(self.text, self.pos)
        if m is None:
            raise self.error("expected an integer exponent")
        self.pos = m.end()
        return int(m.group())

    def at_end(self) -> bool:
        return self.peek() == ""


def _parse_word(ts: _Tokens, gen_index: dict[str, int], stop: str) -> list[int]:
    """Letters of a juxtaposition of terms, until a stop character."""
    letters: list[int] = []
    while True:
        ch = ts.peek()
        if ch == "" or ch in stop:
            return letters
        letters.extend(_parse_term(ts, gen_index))
        ts.check_length(len(letters))


def _apply_exponent(ts: _Tokens, letters: list[int]) -> list[int]:
    if not ts.take_char("^"):
        return letters
    e = ts.take_int()
    ts.check_length(len(letters) * abs(e))
    if e >= 0:
        return letters * e
    return [-x for x in reversed(letters)] * (-e)


def _parse_term(ts: _Tokens, gen_index: dict[str, int]) -> list[int]:
    if ts.take_char("("):
        inner = _parse_word(ts, gen_index, ")")
        if not ts.take_char(")"):
            raise ts.error("expected ')'")
        return _apply_exponent(ts, inner)
    if ts.take_char("["):
        u = _parse_word(ts, gen_index, ",]")
        if not ts.take_char(","):
            raise ts.error("expected ',' in commutator")
        v = _parse_word(ts, gen_index, "]")
        if not ts.take_char("]"):
            raise ts.error("expected ']'")
        uinv = [-x for x in reversed(u)]
        vinv = [-x for x in reversed(v)]
        return uinv + vinv + u + v
    name = ts.take_name()
    if name is None:
        raise ts.error(f"expected a generator name, found {ts.peek()!r}")
    if name not in gen_index:
        raise ts.error(f"undeclared generator {name!r}")
    return _apply_exponent(ts, [gen_index[name] + 1])


def _parse_relator(ts: _Tokens, gen_index: dict[str, int]) -> Word:
    lhs = _parse_word(ts, gen_index, "=,")
    if ts.take_char("="):
        rhs = _parse_word(ts, gen_index, "=,")
        if ts.peek() == "=":
            raise ts.error("chained '=' not allowed")
        return free_reduce(lhs + [-x for x in reversed(rhs)])
    return free_reduce(lhs)


def parse_presentation(text: str) -> Presentation:
    """Parse the two-directive presentation format."""
    names: list[str] | None = None
    gen_index: dict[str, int] = {}
    relators: list[Word] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head, sep, rest = line.partition(":")
        key = head.strip()
        if sep != ":" or key not in ("gens", "rels"):
            raise InputSyntaxError(
                "expected a 'gens:' or 'rels:' directive", line=lineno, column=1
            )
        if key == "gens":
            if names is not None:
                raise InputSyntaxError("duplicate 'gens:' line", line=lineno, column=1)
            names = rest.split()
            for i, name in enumerate(names):
                if not _NAME_RE.fullmatch(name):
                    raise InputSyntaxError(f"bad generator name {name!r}", line=lineno)
                if name in gen_index:
                    raise InputSyntaxError(f"duplicate generator {name!r}", line=lineno)
                gen_index[name] = i
            if not names:
                raise InputSyntaxError("no generators declared", line=lineno)
        else:
            if names is None:
                raise InputSyntaxError("'rels:' before 'gens:'", line=lineno, column=1)
            ts = _Tokens(rest, lineno, len(head) + 1)
            while not ts.at_end():
                w = _parse_relator(ts, gen_index)
                if w:
                    relators.append(w)
                if not ts.take_char(","):
                    break
            if not ts.at_end():
                raise ts.error("unexpected trailing text")
    if names is None:
        raise InputSyntaxError("missing 'gens:' line", line=1, column=1)
    return Presentation(tuple(names), tuple(relators))


def word_to_text(w: Word, names: tuple[str, ...]) -> str:
    if not w:
        raise ValueError("empty word has no text form")
    parts = []
    i = 0
    while i < len(w):
        x = w[i]
        j = i
        while j < len(w) and w[j] == x:
            j += 1
        run = j - i
        e = run if x > 0 else -run
        name = names[abs(x) - 1]
        parts.append(name if e == 1 else f"{name}^{e}")
        i = j
    return " ".join(parts)


def format_presentation(pres: Presentation) -> str:
    """Printable form; parsing it back gives an equal Presentation."""
    lines = ["gens: " + " ".join(pres.generator_names)]
    if pres.relators:
        lines.append("rels: " + ", ".join(word_to_text(w, pres.generator_names) for w in pres.relators))
    return "\n".join(lines) + "\n"
