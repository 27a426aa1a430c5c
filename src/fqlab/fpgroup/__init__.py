"""Finitely presented groups: parsing, quotient search and density classification."""

from .classify import (
    DensityClass,
    abelianization,
    classify_density,
    index_two_subgroups,
    verify_cyclic_witness,
    verify_dihedral_witness,
)
from .coset import (
    CosetTable,
    SchreierData,
    schreier_data,
    verify_table,
)
from .lowindex import low_index_normal_subgroups
from .presentation import (
    Presentation,
    Word,
    concat_words,
    format_presentation,
    free_reduce,
    invert_word,
    parse_presentation,
    word_exponents,
    word_to_text,
)
from .quotients import FqResult, fq_up_to, free_product_of_cyclics, oq_up_to, smooth_quotients
from .snf import SmithForm, null_column_witness, smith_normal_form

__all__ = [
    "CosetTable",
    "DensityClass",
    "FqResult",
    "Presentation",
    "SchreierData",
    "SmithForm",
    "Word",
    "abelianization",
    "classify_density",
    "concat_words",
    "format_presentation",
    "fq_up_to",
    "free_product_of_cyclics",
    "free_reduce",
    "index_two_subgroups",
    "invert_word",
    "low_index_normal_subgroups",
    "null_column_witness",
    "oq_up_to",
    "parse_presentation",
    "schreier_data",
    "smith_normal_form",
    "smooth_quotients",
    "verify_table",
    "word_exponents",
    "word_to_text",
]
