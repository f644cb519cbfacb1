"""Concrete syntax: precedence, associativity, errors, printing, metrics."""

import copy
import pickle
import random
import sys

import pytest

from qtlab.formulas import (
    And,
    ArityError,
    Atom,
    Count,
    DiamondFuture,
    DiamondPast,
    FalseConst,
    FormulaSyntaxError,
    Implies,
    LexicalError,
    MAX_NESTING,
    Not,
    Or,
    ParseError,
    Pnueli,
    Since,
    TrueConst,
    Until,
    _Parser,
    format_formula,
    height,
    metrics,
    parse_formula,
)
from gen import random_formula

P, Q, R = Atom("P"), Atom("Q"), Atom("R")


# ----------------------------------------------------------------- the nodes

def test_formula_nodes_are_values():
    """A node equals and hashes like a node of its class with equal fields,
    refuses assignment, prints its fields, checks its index and comes back
    equal through copy, deepcopy and pickle."""
    assert And(P, Q) == And(P, Q) and hash(And(P, Q)) == hash(And(P, Q))
    assert And(P, Q) != Or(P, Q) and Until(P, Q) != Since(P, Q) and Not(P) != DiamondPast(P)
    assert Count(2, P) != Count(3, P) and Count(2, P) != Count(2, Q)
    assert TrueConst() == TrueConst() != FalseConst() and And(P, Q) != (P, Q)
    f = Until(P, Count(2, P))
    assert repr(f) == "Until(left=Atom(name='P'), right=Count(n=2, operand=Atom(name='P')))"
    assert repr(Pnueli([P, TrueConst()])) == "Pnueli(args=(Atom(name='P'), TrueConst()))"
    with pytest.raises(AttributeError):
        f.left = Q
    with pytest.raises(AttributeError):
        P.name = "Q"
    with pytest.raises(AttributeError):
        del f.right
    for make, message in [(lambda: Count(True, P), "counting index must be an int, not bool"),
                          (lambda: Count(0, P), "counting index must be at least 1"),
                          (lambda: Pnueli([]), "a run modality needs at least one argument")]:
        with pytest.raises(ArityError, match=message):
            make()
    assert type(Pnueli([P, Q]).args) is tuple and Pnueli([P, Q]) == Pnueli((P, Q))
    text = "Pn2(P, C3(!Q)) S (F1 P -> O1 true | false) & P U Q"
    g = parse_formula(text)
    assert hash(parse_formula(text)) == hash(g)
    for copied in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert copied == g and hash(copied) == hash(g) and repr(copied) == repr(g)


# -------------------------------------------------------------------- parsing

def test_precedence_ladder():
    f = parse_formula("!P & Q -> R | Q2")
    assert f == Implies(And(Not(P), Q), Or(R, Atom("Q2")))


def test_temporal_binds_tighter_than_and():
    assert parse_formula("P & Q U R") == And(P, Until(Q, R))
    assert parse_formula("P U Q & R") == And(Until(P, Q), R)


def test_until_since_right_associative_same_level():
    assert parse_formula("P U Q S R") == Until(P, Since(Q, R))
    assert parse_formula("P S Q U R") == Since(P, Until(Q, R))


def test_implies_right_associative():
    assert parse_formula("P -> Q -> R") == Implies(P, Implies(Q, R))


def test_unary_operators_stack():
    assert parse_formula("!F1 O1 P") == Not(DiamondFuture(DiamondPast(P)))


def test_calls():
    assert parse_formula("C2(P)") == Count(2, P)
    assert parse_formula("C12(P U Q)") == Count(12, Until(P, Q))
    assert parse_formula("Pn3(P, Q, R)") == Pnueli((P, Q, R))
    assert parse_formula("Pn1(true)") == Pnueli((TrueConst(),))


def test_constants_and_identifiers():
    assert parse_formula("true | false") == Or(TrueConst(), FalseConst())
    assert parse_formula("F1x") == Atom("F1x")  # not the F1 keyword
    assert parse_formula("C2x") == Atom("C2x")


def test_reserved_call_shapes_are_not_atoms():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("Pn2")
    assert exc.value.expected == frozenset({"("})


PRIMARY = frozenset({"!", "(", "C<n>(", "F1", "O1", "Pn<n>(", "atom", "false", "true"})


SYNTAX_ERRORS = [
    ("P ->", 4, PRIMARY),
    ("P |", 3, PRIMARY),
    ("P &", 3, PRIMARY),
    ("P U", 3, PRIMARY),
    ("P S", 3, PRIMARY),
    ("!", 1, PRIMARY),
    ("F1", 2, PRIMARY),
    ("O1", 2, PRIMARY),
    ("P -> -> Q", 5, PRIMARY),
    ("P U S Q", 4, PRIMARY),
    ("C2(P U)", 6, PRIMARY),
    ("Pn2(P, !)", 8, PRIMARY),
    ("true false", 5, frozenset({"end of input"})),
    ("P Q", 2, frozenset({"end of input"})),
    ("(P", 2, frozenset({")"})),
]


@pytest.mark.parametrize("text, position, expected", SYNTAX_ERRORS,
                         ids=[text for text, _, _ in SYNTAX_ERRORS])
def test_syntax_errors_carry_position_and_expected(text, position, expected):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text)
    assert exc.value.position == position
    assert exc.value.expected == expected


def test_lexical_error_position():
    with pytest.raises(LexicalError) as exc:
        parse_formula("P @ Q")
    assert exc.value.position == 2


def test_arity_errors():
    with pytest.raises(ArityError):
        parse_formula("C0(P)")
    with pytest.raises(ArityError):
        parse_formula("Pn0(P)")
    with pytest.raises(ArityError):
        parse_formula("Pn2(P)")
    with pytest.raises(ArityError):
        parse_formula("Pn2(P, Q, R)")
    with pytest.raises(ArityError):
        Count(0, P)
    with pytest.raises(ArityError):
        Pnueli(())


def test_only_formulas_print():
    with pytest.raises(TypeError, match="not a formula"):
        format_formula("P")


def test_all_parse_errors_are_parse_errors():
    for bad in ["", ")", "P |", "C2(P", "P & & Q", "Pn2(P,)"]:
        with pytest.raises(ParseError):
            parse_formula(bad)


# ------------------------------------------------------------------- printing

def test_print_minimal_parens():
    cases = [
        (Not(Until(P, Q)), "!(P U Q)"),
        (DiamondFuture(Not(P)), "F1 !P"),
        (Not(DiamondFuture(P)), "!F1 P"),
        (Until(Until(P, Q), R), "(P U Q) U R"),
        (Until(P, Until(Q, R)), "P U Q U R"),
        (And(P, Until(Q, R)), "P & Q U R"),
        (Or(And(P, Q), R), "P & Q | R"),
        (And(P, Or(Q, R)), "P & (Q | R)"),
        (Or(P, Or(Q, R)), "P | (Q | R)"),
        (Implies(Implies(P, Q), R), "(P -> Q) -> R"),
        (Implies(P, Implies(Q, R)), "P -> Q -> R"),
        (Count(2, Until(P, Q)), "C2(P U Q)"),
        (Pnueli((P, Not(Q))), "Pn2(P,!Q)"),
        (Until(DiamondFuture(P), Q), "F1 P U Q"),
    ]
    for ast, text in cases:
        assert format_formula(ast) == text
        assert parse_formula(text) == ast


def test_print_parse_roundtrip_fuzz():
    rng = random.Random(2024)
    for _ in range(300):
        f = random_formula(rng, modal_budget=3, atoms=("P", "Q", "R"), size=10)
        assert parse_formula(format_formula(f)) == f


# -------------------------------------------------------------------- metrics

def test_metrics_examples():
    depth, atoms = metrics(parse_formula("F1 (P U Q)"))
    assert depth == 2 and atoms == frozenset({"P", "Q"})
    assert metrics(parse_formula("true"))[0] == 0
    assert metrics(parse_formula("!P & Q"))[0] == 0
    assert metrics(parse_formula("Pn3(P, F1 Q, R)")) == (2, frozenset({"P", "Q", "R"}))
    assert metrics(parse_formula("C4(P)"))[0] == 1
    assert metrics(parse_formula("O1 P -> Q")) == (1, frozenset({"P", "Q"}))
    assert metrics(parse_formula("P S O1 Q")) == (2, frozenset({"P", "Q"}))
    assert metrics(parse_formula("O1 (P -> C2(false S Q))")) == (3, frozenset({"P", "Q"}))
    assert metrics(parse_formula("false -> true")) == (0, frozenset())


# ------------------------------------------------------------------- nesting

AT_LIMIT = [
    "!" * MAX_NESTING + "P",
    "(" * MAX_NESTING + "P" + ")" * MAX_NESTING,
    "C1(" * MAX_NESTING + "P" + ")" * MAX_NESTING,
    " U ".join(["P"] * (MAX_NESTING + 1)),
    " & ".join(["P"] * (MAX_NESTING + 1)),
]
PAST_LIMIT = [
    "!" * (MAX_NESTING + 1) + "P",
    "!" * 3000 + "P",
    "(" * (MAX_NESTING + 1) + "P" + ")" * (MAX_NESTING + 1),
    "Pn1(" * (MAX_NESTING + 1) + "P" + ")" * (MAX_NESTING + 1),
    " -> ".join(["P"] * (MAX_NESTING + 2)),
    " | ".join(["P"] * (MAX_NESTING + 2)),
    " & ".join(["P"] * 3000),
]


@pytest.mark.parametrize("text", AT_LIMIT)
def test_nesting_at_the_limit_parses_and_prints(text):
    f = parse_formula(text)
    assert height(f) <= MAX_NESTING
    assert parse_formula(format_formula(f)) == f


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("text, frames_per_level", [
    (AT_LIMIT[0], 2),
    (AT_LIMIT[1], 8),
    (AT_LIMIT[2], 8),
    (AT_LIMIT[3], 2),
    (AT_LIMIT[4], 0),  # left associative: no recursion per operator
    (" -> ".join(["P"] * (MAX_NESTING + 1)), 2),
], ids=["!", "(", "C1(", "U", "&", "->"])
def test_parser_frames_per_nesting_level(monkeypatch, text, frames_per_level):
    """The parser recurses once per nesting level, and each level's Python
    frames must leave the default recursion limit of 1000 room at MAX_NESTING."""
    depths = []
    primary = _Parser.primary

    def spy(self):
        depths.append(_stack_depth())
        return primary(self)

    monkeypatch.setattr(_Parser, "primary", spy)
    base = _stack_depth()
    parse_formula(text)
    # 8 frames cover the fixed entry path: parse_formula down to the spy
    assert max(depths) - base <= frames_per_level * MAX_NESTING + 8


@pytest.mark.parametrize("text", PAST_LIMIT)
def test_nesting_past_the_limit_is_a_parse_error(text):
    with pytest.raises(FormulaSyntaxError, match="nest"):
        parse_formula(text)
