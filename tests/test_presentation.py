"""Presentation text format and free-word algebra."""

import pytest
from schreier_oracle import concat_words

from fqlab.budgets import MAX_RELATOR_LETTERS
from fqlab.errors import InputSyntaxError, ResourceBudgetError
from fqlab.fpgroup import (
    Presentation,
    format_presentation,
    free_reduce,
    invert_word,
    parse_presentation,
    word_exponents,
    word_to_text,
)


def test_free_reduce():
    assert free_reduce([1, -1]) == ()
    assert free_reduce([1, 2, -2, -1]) == ()
    assert free_reduce([1, 2, -2, 1]) == (1, 1)
    assert free_reduce([2, -1, 1, -2, 3]) == (3,)
    assert free_reduce([]) == ()


def test_invert_and_concat():
    w = (1, 2, -3)
    assert invert_word(w) == (3, -2, -1)
    assert free_reduce(concat_words(w, invert_word(w))) == ()
    assert concat_words((1,), (-1, 2)) == (2,)


def test_word_exponents():
    assert word_exponents((1, 1, -2, 3, -1), 3) == [1, -1, 1]
    assert word_exponents((), 2) == [0, 0]


def test_parse_simple():
    p = parse_presentation("gens: a b\nrels: a^2, b^2\n")
    assert p.generator_names == ("a", "b")
    assert p.relators == ((1, 1), (2, 2))


def test_parse_inverse_exponents_and_parens():
    p = parse_presentation("gens: a b\nrels: (a b)^2, a^-3\n")
    assert p.relators == ((1, 2, 1, 2), (-1, -1, -1))


def test_parse_commutator_and_equation():
    p = parse_presentation(
        "gens: x y t\nrels: [x,y], t^4, t^-1 x t = y, t^-1 y t = x^-1\n"
    )
    assert p.relators[0] == (-1, -2, 1, 2)
    assert p.relators[1] == (3, 3, 3, 3)
    # u = v becomes u v^-1
    assert p.relators[2] == (-3, 1, 3, -2)
    assert p.relators[3] == (-3, 2, 3, 1)


def test_parse_comments_and_blank_lines():
    p = parse_presentation("# header\ngens: a\n\nrels: a^3  # cube\n")
    assert p.relators == ((1, 1, 1),)


def test_parse_relators_may_span_lines():
    p = parse_presentation("gens: a b\nrels: a^2\nrels: b^2\n")
    assert p.relators == ((1, 1), (2, 2))


def test_parse_free_group():
    p = parse_presentation("gens: x\nrels:\n")
    assert p.n_gens == 1
    assert p.relators == ()


def test_parse_trivial_relator_dropped():
    p = parse_presentation("gens: a\nrels: a a^-1, a^2\n")
    assert p.relators == ((1, 1),)


def test_parse_errors_carry_positions():
    with pytest.raises(InputSyntaxError) as e:
        parse_presentation("rels: a\n")
    assert e.value.line == 1
    with pytest.raises(InputSyntaxError) as e:
        parse_presentation("gens: a\nrels: c\n")
    assert e.value.line == 2
    assert e.value.column == 8
    with pytest.raises(InputSyntaxError):
        parse_presentation("gens: a\nrels: a^2, (a\n")
    with pytest.raises(InputSyntaxError):
        parse_presentation("gens: a b\nrels: a = b = a\n")
    with pytest.raises(InputSyntaxError):
        parse_presentation("gens: 1x\nrels:\n")
    with pytest.raises(InputSyntaxError):
        parse_presentation("gens: a a\nrels:\n")
    with pytest.raises(InputSyntaxError):
        parse_presentation("bogus: z\n")
    with pytest.raises(InputSyntaxError):
        parse_presentation("gens: a\nrels: a^\n")


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation((), ())
    with pytest.raises(ValueError):
        Presentation(("a",), ((2,),))  # letter out of range
    with pytest.raises(ValueError):
        Presentation(("a",), ((1, -1),))  # not freely reduced
    with pytest.raises(ValueError):
        Presentation(("a",), ((),))  # empty relator


def test_words_past_the_letter_budget_raise_before_expanding():
    cap = MAX_RELATOR_LETTERS
    assert parse_presentation(f"gens: a b\nrels: a^{cap}\n").relators == ((1,) * cap,)
    # each power is checked before it is multiplied out, and each word
    # as its terms join, so nested commutators cannot double unchecked
    for rels, column in [
        (f"a^{cap + 1}", 13),
        ("a^-300000000 b", 19),
        (f"(a b)^{cap // 2 + 1}", 17),
        (f"a^{cap} b", 15),
        ("[" * 12 + "a, b" + "], b" * 12, 60),
    ]:
        with pytest.raises(ResourceBudgetError, match=f"line 2, column {column}"):
            parse_presentation(f"gens: a b\nrels: {rels}\n")
    # an equation joins two words that each fit
    with pytest.raises(ResourceBudgetError, match=f"relator of {2 * cap} letters"):
        parse_presentation(f"gens: a b\nrels: a^{cap} = b^{cap}\n")
    with pytest.raises(ResourceBudgetError):
        Presentation(("a",), ((1,) * (cap + 1),))


def test_word_to_text_runs():
    names = ("a", "b")
    assert word_to_text((1, 1, 1), names) == "a^3"
    assert word_to_text((1, -2, -2), names) == "a b^-2"
    with pytest.raises(ValueError):
        word_to_text((), names)


def test_format_round_trip():
    texts = [
        "gens: a b\nrels: a^2, b^2\n",
        "gens: x y t\nrels: [x,y], t^4, t^-1 x t = y, t^-1 y t = x^-1\n",
        "gens: x\nrels:\n",
        "gens: a b\nrels: a^2, b^3, (a b)^7, ([a,b])^4\n",
    ]
    for text in texts:
        p = parse_presentation(text)
        assert parse_presentation(format_presentation(p)) == p
