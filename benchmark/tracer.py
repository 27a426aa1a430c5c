"""Spans and counters around the public functions of fqlab's layers.

``install()`` wraps, from outside the package, every public function of
``fqlab.numtheory``, ``fqlab.fpgroup``, ``fqlab.permgroup``,
``fqlab.graphs`` and ``fqlab.cli``, plus the methods that do a layer's
heavy lifting: ``SieveSet.segment_bits``, ``SieveSet.admissible_primes``,
``CosetTable.image_group`` and the first evaluation of
``PermGroup.elements`` (the closure).  Every module-level name bound to
a wrapped function is rebound, so ``from .x import f`` call sites are
traced too.  The library files themselves are not touched.

A span's self time is its duration minus the time of the spans it
called.  Spans are aggregated by name in memory and written out once,
when the command exits.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import fqlab.cli
import fqlab.fpgroup
import fqlab.graphs
import fqlab.numtheory
import fqlab.permgroup
from fqlab.errors import GroupTooLargeError
from fqlab.fpgroup import classify, coset, lowindex, presentation, quotients, snf

TRACED_MODULES = (
    fqlab.numtheory,
    fqlab.permgroup,
    fqlab.graphs,
    fqlab.cli,
    classify,
    coset,
    lowindex,
    presentation,
    quotients,
    snf,
)

# Called once per element, letter or integer: a span there would cost
# more than the work it times and would hide that work from its caller.
PRIMITIVES = frozenset(
    {
        "identity",
        "compose",
        "inverse",
        "conjugate",
        "perm_order",
        "cycle_decomposition",
        "format_perm",
        "parse_perm",
        "extend_perm",
        "is_prime",
        "factor",
        "divisors",
        "pp_contains",
        "ratio_string",
        "letter_to_col",
        "col_to_letter",
        "free_reduce",
        "invert_word",
        "concat_words",
        "word_exponents",
        "word_to_text",
        "build_parser",
        "main",
    }
)

SEARCH = "fpgroup.low_index_normal_subgroups"


class Spans:
    """Self time, total time and calls per span name, plus counters."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        # open spans, innermost last: [name, time spent in child spans]
        self._open: list[list] = [["", 0.0]]

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._open)

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(args, result) runs on normal return."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._open.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self._open.pop()
                self._open[-1][1] += took
                self.self_s[name] += took - frame[1]
                self.total_s[name] += took
                self.calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def write(self, path: str, import_s: float) -> None:
        summary = {
            "import_s": import_s,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "calls": self.calls,
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


def _layer(module_name: str) -> str:
    return module_name.split(".")[1]


def install() -> Spans:
    spans = Spans()
    counts = spans.counts

    def count(key, size=len):
        def after(args, result):
            counts[key] += size(result)

        return after

    def leaf(args, result):
        if spans.inside(SEARCH):
            counts["fpgroup.leaves"] += 1

    extra = {
        "primes_up_to": count("numtheory.primes_listed"),
        "low_index_normal_subgroups": count("fpgroup.tables"),
        "smooth_quotients": count("fpgroup.smooth_kept", lambda r: len(r.tables)),
    }

    wrapped = {}
    for module in TRACED_MODULES:
        layer = _layer(module.__name__)
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and name not in PRIMITIVES
            ):
                wrapped[obj] = spans.wrap(f"{layer}.{name}", obj, extra.get(name))

    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("fqlab"):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])

    SieveSet = fqlab.numtheory.SieveSet
    SieveSet.segment_bits = spans.wrap(
        "numtheory.SieveSet.segment_bits",
        SieveSet.segment_bits,
        count("numtheory.ints_sieved"),
    )
    SieveSet.admissible_primes = spans.wrap(
        "numtheory.SieveSet.admissible_primes", SieveSet.admissible_primes
    )
    CosetTable = coset.CosetTable
    CosetTable.image_group = spans.wrap(
        "fpgroup.CosetTable.image_group", CosetTable.image_group, leaf
    )

    PermGroup = fqlab.permgroup.PermGroup
    close_group = spans.wrap("permgroup.closure", PermGroup.elements.fget)

    def elements(group):
        if group._elements is not None:
            return group._elements
        try:
            result = close_group(group)
        except GroupTooLargeError:
            counts["permgroup.cap_hits"] += 1
            raise
        counts["permgroup.closures"] += 1
        counts["permgroup.closure_elements"] += len(result)
        return result

    PermGroup.elements = property(elements, doc=PermGroup.elements.__doc__)
    return spans
