"""Finitely presented groups: parsing, quotient search and density classification.

Every name below loads its submodule on first use (PEP 562), so a
command imports only the submodules it runs: ``classify`` loads
``classify``, ``coset``, ``presentation`` and ``snf``; ``fq``, ``oq``,
``smooth`` and ``census`` load ``quotients``, ``lowindex``, ``coset``
and ``presentation``; none loads ``permgroup``.  The density
classification reads its relation matrices off walks across coset
tables (``classify.fox_walk``), with no subgroup presentation or
Schreier rewriting.  Each command is a fresh process, so the records
here are ``typing.NamedTuple``s or plain classes, cheap to build at
import.
"""

import importlib

_SUBMODULE = {
    "DensityClass": "classify",
    "abelianization": "classify",
    "classify_density": "classify",
    "index_two_subgroups": "classify",
    "verify_images": "classify",
    "CosetTable": "coset",
    "verify_regular_table": "coset",
    "low_index_normal_subgroups": "lowindex",
    "Presentation": "presentation",
    "Word": "presentation",
    "format_presentation": "presentation",
    "free_reduce": "presentation",
    "invert_word": "presentation",
    "parse_presentation": "presentation",
    "word_exponents": "presentation",
    "word_to_text": "presentation",
    "FqResult": "quotients",
    "fq_up_to": "quotients",
    "free_product_of_cyclics": "quotients",
    "oq_up_to": "quotients",
    "smooth_quotients": "quotients",
    "subgroup_image": "quotients",
    "SmithForm": "snf",
    "null_column_witness": "snf",
    "smith_normal_form": "snf",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value
