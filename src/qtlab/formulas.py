"""Formula ASTs, concrete syntax, and the printer that inverts the parser.

Grammar, loosest to tightest:

    implies   :=  or ('->' implies)?              right associative
    or        :=  and ('|' and)*
    and       :=  temporal ('&' temporal)*
    temporal  :=  unary (('U' | 'S') temporal)?   right associative, same level
    unary     :=  ('!' | 'F1' | 'O1') unary | primary
    primary   :=  'true' | 'false' | ident | '(' implies ')'
               |  'C'<nat> '(' implies ')'
               |  'Pn'<nat> '(' implies (',' implies)* ')'

``U``/``S`` are the strict, non-matching until and since; ``F1``/``O1`` the
existential open unit windows, future and past; ``C<n>`` asks for n witness
points in the next unit window; ``Pn<n>`` for a strictly increasing run of
witnesses, one per argument, inside the next unit window.  ``C<nat>`` and
``Pn<nat>`` shapes are reserved words, not atoms.

``format_formula`` emits minimal parentheses and ``parse_formula(format_formula(f))``
returns ``f`` structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Tuple


class ParseError(ValueError):
    """Formula text rejected; carries the position and the expected-token set."""

    def __init__(self, message: str, position: int, expected: frozenset[str] = frozenset()):
        self.position = position
        self.expected = expected
        detail = f"at position {position}: {message}"
        if expected:
            detail += f" (expected {', '.join(sorted(expected))})"
        super().__init__(detail)


class LexicalError(ParseError):
    pass


class FormulaSyntaxError(ParseError):
    pass


class ArityError(ParseError):
    """C0, Pn0, or a Pnueli call whose argument count differs from its index."""


# Deepest nesting the parser accepts: bracket and operator levels in the text,
# and operator levels in the tree.  The recursive walks over formulas (the
# parser, evaluate, the oracle, the printer) stay well inside Python's default
# recursion limit of 1000 below it.
MAX_NESTING = 100


# ----------------------------------------------------------------------- AST

class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class TrueConst(Formula):
    pass


@dataclass(frozen=True)
class FalseConst(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Until(Formula):
    """Strict non-matching until: some future witness of the right operand with
    the left operand holding on the whole open interior."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Since(Formula):
    """Mirror image of Until into the past."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class DiamondFuture(Formula):
    """The operand holds somewhere in the open window (t, t+1)."""

    operand: Formula


@dataclass(frozen=True)
class DiamondPast(Formula):
    """The operand holds somewhere in the open window (t-1, t)."""

    operand: Formula


@dataclass(frozen=True)
class Count(Formula):
    """At least n distinct witness points of the operand in (t, t+1)."""

    n: int
    operand: Formula

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ArityError("counting index must be at least 1", 0)


@dataclass(frozen=True)
class Pnueli(Formula):
    """Strictly increasing witnesses t < t_1 < ... < t_n < t+1, the i-th
    satisfying the i-th argument."""

    args: Tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) < 1:
            raise ArityError("a run modality needs at least one argument", 0)

    @property
    def n(self) -> int:
        return len(self.args)


# --------------------------------------------------------------------- lexer

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<arrow>->)"
    r"|(?P<punct>[|&!(),])"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
)
_COUNT_RE = re.compile(r"C(\d+)\Z")
_PNUELI_RE = re.compile(r"Pn(\d+)\Z")

_KEYWORDS = {"U": "U", "S": "S", "F1": "F1", "O1": "O1", "true": "true", "false": "false"}


@dataclass(frozen=True)
class _Token:
    kind: str  # one of -> | & ! ( ) , U S F1 O1 true false count pnueli ident end
    text: str
    pos: int
    index: int = 0  # the n of C<n> / Pn<n>


def _lex(text: str) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise LexicalError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "ws":
            pos = m.end()
            continue
        token_text = m.group()
        if m.lastgroup in ("arrow", "punct"):
            out.append(_Token(token_text, token_text, pos))
        else:
            if token_text in _KEYWORDS:
                out.append(_Token(_KEYWORDS[token_text], token_text, pos))
            elif cm := _COUNT_RE.match(token_text):
                out.append(_Token("count", token_text, pos, int(cm.group(1))))
            elif pm := _PNUELI_RE.match(token_text):
                out.append(_Token("pnueli", token_text, pos, int(pm.group(1))))
            else:
                out.append(_Token("ident", token_text, pos))
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


# -------------------------------------------------------------------- parser

_PRIMARY_EXPECTED = frozenset(
    {"atom", "true", "false", "(", "!", "F1", "O1", "C<n>(", "Pn<n>("}
)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def eat(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise FormulaSyntaxError(
                f"unexpected {self.cur.text or 'end of input'!r}",
                self.cur.pos,
                frozenset({kind}),
            )
        return self.eat()

    def nested(self, parse: Callable[[], Formula]) -> Formula:
        """Parse one level deeper, refusing text nested past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise FormulaSyntaxError(f"nesting deeper than {MAX_NESTING} levels", self.cur.pos)
        self.depth += 1
        inner = parse()
        self.depth -= 1
        return inner

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.cur.kind == "->":
            self.eat()
            return Implies(left, self.nested(self.implies))
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.cur.kind == "|":
            self.eat()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.temporal()
        while self.cur.kind == "&":
            self.eat()
            left = And(left, self.temporal())
        return left

    def temporal(self) -> Formula:
        left = self.unary()
        if self.cur.kind == "U":
            self.eat()
            return Until(left, self.nested(self.temporal))
        if self.cur.kind == "S":
            self.eat()
            return Since(left, self.nested(self.temporal))
        return left

    def unary(self) -> Formula:
        kind = self.cur.kind
        if kind == "!":
            self.eat()
            return Not(self.nested(self.unary))
        if kind == "F1":
            self.eat()
            return DiamondFuture(self.nested(self.unary))
        if kind == "O1":
            self.eat()
            return DiamondPast(self.nested(self.unary))
        return self.primary()

    def primary(self) -> Formula:
        tok = self.cur
        if tok.kind == "true":
            self.eat()
            return TrueConst()
        if tok.kind == "false":
            self.eat()
            return FalseConst()
        if tok.kind == "ident":
            self.eat()
            return Atom(tok.text)
        if tok.kind == "(":
            self.eat()
            inner = self.nested(self.implies)
            self.expect(")")
            return inner
        if tok.kind == "count":
            self.eat()
            if tok.index < 1:
                raise ArityError("C0 is not a modality: the index starts at 1", tok.pos)
            self.expect("(")
            inner = self.nested(self.implies)
            self.expect(")")
            return Count(tok.index, inner)
        if tok.kind == "pnueli":
            self.eat()
            if tok.index < 1:
                raise ArityError("Pn0 is not a modality: the index starts at 1", tok.pos)
            self.expect("(")
            args = [self.nested(self.implies)]
            while self.cur.kind == ",":
                self.eat()
                args.append(self.nested(self.implies))
            self.expect(")")
            if len(args) != tok.index:
                raise ArityError(
                    f"{tok.text} takes exactly {tok.index} arguments, got {len(args)}",
                    tok.pos,
                )
            return Pnueli(tuple(args))
        raise FormulaSyntaxError(
            f"unexpected {tok.text or 'end of input'!r}", tok.pos, _PRIMARY_EXPECTED
        )


def parse_formula(text: str) -> Formula:
    parser = _Parser(_lex(text))
    formula = parser.implies()
    if parser.cur.kind != "end":
        raise FormulaSyntaxError(
            f"trailing input {parser.cur.text!r}", parser.cur.pos, frozenset({"end of input"})
        )
    if height(formula) > MAX_NESTING:  # long chains of left-associative & and |
        raise FormulaSyntaxError(f"operators nested deeper than {MAX_NESTING} levels", 0)
    return formula


# ------------------------------------------------------------------- printer

_LEVEL_IMPLIES, _LEVEL_OR, _LEVEL_AND, _LEVEL_TEMPORAL, _LEVEL_UNARY, _LEVEL_ATOM = range(1, 7)


def _level(f: Formula) -> int:
    if isinstance(f, (Not, DiamondFuture, DiamondPast)):
        return _LEVEL_UNARY
    if isinstance(f, (Until, Since)):
        return _LEVEL_TEMPORAL
    if isinstance(f, And):
        return _LEVEL_AND
    if isinstance(f, Or):
        return _LEVEL_OR
    if isinstance(f, Implies):
        return _LEVEL_IMPLIES
    return _LEVEL_ATOM


def _child(f: Formula, min_level: int) -> str:
    text = format_formula(f)
    return f"({text})" if _level(f) < min_level else text


def format_formula(f: Formula) -> str:
    """Minimal-parenthesis concrete syntax; parse(format(f)) == f."""
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, FalseConst):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + _child(f.operand, _LEVEL_UNARY)
    if isinstance(f, DiamondFuture):
        return "F1 " + _child(f.operand, _LEVEL_UNARY)
    if isinstance(f, DiamondPast):
        return "O1 " + _child(f.operand, _LEVEL_UNARY)
    if isinstance(f, Until):
        return _child(f.left, _LEVEL_UNARY) + " U " + _child(f.right, _LEVEL_TEMPORAL)
    if isinstance(f, Since):
        return _child(f.left, _LEVEL_UNARY) + " S " + _child(f.right, _LEVEL_TEMPORAL)
    if isinstance(f, And):
        return _child(f.left, _LEVEL_AND) + " & " + _child(f.right, _LEVEL_AND + 1)
    if isinstance(f, Or):
        return _child(f.left, _LEVEL_OR) + " | " + _child(f.right, _LEVEL_OR + 1)
    if isinstance(f, Implies):
        return _child(f.left, _LEVEL_IMPLIES + 1) + " -> " + _child(f.right, _LEVEL_IMPLIES)
    if isinstance(f, Count):
        return f"C{f.n}({format_formula(f.operand)})"
    if isinstance(f, Pnueli):
        return f"Pn{f.n}(" + ",".join(format_formula(a) for a in f.args) + ")"
    raise TypeError(f"not a formula: {f!r}")


_MODAL = (Until, Since, DiamondFuture, DiamondPast, Count, Pnueli)


def metrics(f: Formula) -> tuple[int, frozenset[str]]:
    """(modal depth, atom names). Boolean connectives are depth-transparent."""
    if isinstance(f, Atom):
        return 0, frozenset({f.name})
    parts = [metrics(c) for c in children(f)]
    if not parts:
        return 0, frozenset()
    depth = max(d for d, _ in parts) + isinstance(f, _MODAL)
    return depth, frozenset().union(*(a for _, a in parts))


def children(f: Formula) -> Tuple[Formula, ...]:
    """The direct subformulas, left to right."""
    if isinstance(f, (Not, DiamondFuture, DiamondPast, Count)):
        return (f.operand,)
    if isinstance(f, (And, Or, Implies, Until, Since)):
        return (f.left, f.right)
    if isinstance(f, Pnueli):
        return f.args
    return ()


def height(f: Formula) -> int:
    """Operator levels on the longest root-to-leaf path (0 for a leaf),
    computed without recursion so that any tree can be measured."""
    best, stack = 0, [(f, 0)]
    while stack:
        node, depth = stack.pop()
        best = max(best, depth)
        stack.extend((c, depth + 1) for c in children(node))
    return best


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every node of the tree, parents before children."""
    yield f
    for c in children(f):
        yield from subformulas(c)
