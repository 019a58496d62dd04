import random
import string

import pytest
from hypothesis import example, given, strategies as st

from obstruction.formulas import (
    FALSE,
    TRUE,
    ParseError,
    and_,
    atom,
    common,
    distributed,
    know,
    not_,
    or_,
    parse,
    render,
)
from obstruction.solver import random_positive_formula


def test_parse_knowledge_of_disjunction():
    phi = parse("K[0] (input(0,1) | input(1,1) | input(2,1))")
    assert phi.kind == "know" and phi.agent == 0
    body = phi.children[0]
    assert body.kind == "or"
    assert [(c.agent, c.value) for c in body.children] == [(0, 1), (1, 1), (2, 1)]


def test_parse_false():
    assert parse("false") is FALSE


def test_parse_distributed_atom():
    phi = parse("D[{0,1}] input(1,3)")
    assert phi is distributed({0, 1}, atom(1, 3))


def test_hash_consing_shares_nodes():
    a = parse("input(0,1) & K[1] input(0,1)")
    b = parse("input(0,1) & K[1] input(0,1)")
    assert a is b
    assert a.children[0] is a.children[1].children[0]


def test_empty_disjunction_is_false():
    assert or_() is FALSE
    assert and_() is TRUE
    assert TRUE is not_(FALSE)


def test_single_child_collapses():
    p = atom(0, 0)
    assert or_(p) is p
    assert and_(p) is p


def test_nested_connectives_flatten():
    p, q, r = atom(0, 0), atom(1, 1), atom(2, 2)
    assert or_(p, or_(q, r)) is or_(p, q, r)
    assert and_(and_(p, q), r) is and_(p, q, r)


def test_positive_examples():
    p, q = atom(0, 0), atom(1, 1)
    assert and_(not_(q), common({0, 1}, not_(p))).positive
    assert not or_(p, not_(or_(q, common({0, 1}, p)))).positive
    assert p.positive


def test_positive_modal_under_negation_is_rejected():
    assert not not_(know(0, atom(0, 0))).positive
    assert not not_(distributed({0}, atom(0, 0))).positive


def test_render_parse_spec_shapes():
    texts = [
        "false",
        "input(0,1)",
        "!false",
        "!(input(0,0) & input(1,0)) | C[{0,1}] (input(0,0) | input(1,0))",
        "K[0] !input(1,2)",
        "D[{0,2}] (input(0,0) | input(1,1) & input(2,2))",
        "!!input(0,0)",
    ]
    for text in texts:
        phi = parse(text)
        assert parse(render(phi)) is phi


def test_precedence_and_over_or():
    phi = parse("input(0,0) & input(1,1) | input(2,2)")
    assert phi.kind == "or"
    assert phi.children[0].kind == "and"


def test_modal_binds_tighter_than_and():
    phi = parse("K[0] input(0,0) & input(1,1)")
    assert phi.kind == "and"
    assert phi.children[0].kind == "know"


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("input(0,1) |")
    assert err.value.position == 12
    with pytest.raises(ParseError):
        parse("K[x] input(0,0)")
    with pytest.raises(ParseError):
        parse("input(0 1)")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError, match="trailing"):
        parse("false false")


def test_values_may_be_negative():
    assert parse("input(0,-1)") is atom(0, -1)
    assert render(atom(2, -12)) == "input(2,-12)"
    with pytest.raises(ParseError, match="unexpected character '-'") as err:
        parse("input(0,- 1)")
    assert err.value.position == 8


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("input(0,²)", "expected a number, found '²'", 8),
        ("K[²] false", "expected a number, found '²'", 2),
        ("input(0,1²)", "expected ')', found '²'", 9),
    ],
)
def test_integers_are_decimal_digits(text, message, position):
    # '²' passes `str.isdigit` but is no decimal digit, and `int` rejects it.
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert parse("input(0,٣)") is atom(0, 3)


@pytest.mark.parametrize(
    "text, position",
    [("input(-1,0)", 6), ("K[-1] false", 2), ("C[{0,-1}] false", 5), ("D[{-2}] false", 3)],
)
def test_negative_agents_are_parse_errors_at_their_position(text, position):
    with pytest.raises(ParseError, match="agent ids are nonnegative") as err:
        parse(text)
    assert err.value.position == position


@pytest.mark.parametrize(
    "build",
    [
        lambda: atom(-1, 0),
        lambda: know(-1, FALSE),
        lambda: common([-1], FALSE),
        lambda: distributed([0, -2], FALSE),
    ],
    ids=["atom", "know", "common", "distributed"],
)
def test_negative_agents_are_rejected(build):
    with pytest.raises(ValueError, match="agent ids are nonnegative"):
        build()


def test_agent_set_requires_entry():
    with pytest.raises(ParseError):
        parse("C[{}] input(0,0)")


@st.composite
def formulas(draw, max_depth=4):
    if max_depth == 0:
        return draw(
            st.sampled_from(
                [FALSE, atom(0, 0), atom(1, 1), atom(2, 2), atom(1, 3), atom(0, -1), atom(2, -12)]
            )
        )
    kind = draw(st.integers(0, 7))
    if kind <= 1:
        return draw(formulas(max_depth=0))
    sub = formulas(max_depth=max_depth - 1)
    if kind == 2:
        return not_(draw(sub))
    if kind == 3:
        return or_(draw(sub), draw(sub))
    if kind == 4:
        return and_(draw(sub), draw(sub))
    if kind == 5:
        return know(draw(st.integers(0, 2)), draw(sub))
    group = draw(st.sets(st.integers(0, 2), min_size=1, max_size=3))
    if kind == 6:
        return common(group, draw(sub))
    return distributed(group, draw(sub))


@given(formulas())
def test_render_round_trips(phi):
    assert parse(render(phi)) is phi


# Every class of character the lexer tells apart: the grammar's symbols, ASCII
# digits, '-', a digit `int` rejects ('²') and one it reads ('٣'), letters and
# whitespace.
EDIT_CHARS = "!&|(){}[],0123456789-²٣" + string.ascii_letters + "_ \t\n"


@given(
    formulas(),
    st.sampled_from(["insert", "delete", "replace"]),
    st.integers(0),
    st.sampled_from(EDIT_CHARS),
)
@example(atom(0, 1), "replace", 8, "²")
def test_one_character_edits_parse_or_raise_parse_errors(phi, edit, where, char):
    text = render(phi)
    i = where % (len(text) + (edit == "insert"))
    rest = text[i:] if edit == "insert" else text[i + 1:]
    text = text[:i] + ("" if edit == "delete" else char) + rest
    try:
        parsed = parse(text)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
    else:
        assert parse(render(parsed)) is parsed


def _plain_mentions(phi):
    own = set(phi.agents or ())
    if phi.kind in ("atom", "know"):
        own.add(phi.agent)
    for c in phi.children:
        own |= _plain_mentions(c)
    return own


def _plain_modal(phi):
    return phi.kind in ("know", "common", "dist") or any(map(_plain_modal, phi.children))


def _plain_positive(phi):
    if phi.kind == "not":
        return not _plain_modal(phi.children[0])
    return all(map(_plain_positive, phi.children))


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_node_facts_match_recursive_definitions(seed, depth):
    rng = random.Random(seed)
    drawn = random_positive_formula(rng, [0, 1, 2], [0, 1], depth=depth)
    for phi in (drawn, not_(drawn)):
        assert phi.mentions == _plain_mentions(phi)
        assert phi.modal == _plain_modal(phi)
        assert phi.positive == _plain_positive(phi)


def test_connectives_take_only_formulas():
    with pytest.raises(TypeError, match="^expected a Formula, got 1$"):
        or_(1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: atom(True, 0),
        lambda: atom(0, False),
        lambda: know(True, FALSE),
        lambda: common([True, 0], FALSE),
        lambda: distributed([False], FALSE),
    ],
    ids=["atom-agent", "atom-value", "know", "common", "distributed"],
)
def test_bool_agents_and_values_are_rejected(build):
    # A bool hashes and compares as its int, so it would intern as the int's
    # node and render as `True`, which `parse` rejects.
    with pytest.raises(TypeError, match="integer"):
        build()
    assert render(atom(1, 0)) == "input(1,0)"
    assert render(know(1, atom(0, 1))) == "K[1] input(0,1)"
    assert render(common([1, 0], FALSE)) == "C[{0,1}] false"
