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
returns ``f`` structurally.  The lexer's keywords, the parser and the printer
all read one table of connectives, ``_CONNECTIVES``: each connective's token,
class, level and associativity are stated there and nowhere else.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, NamedTuple, Tuple


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

_set = object.__setattr__  # how a constructor gets past _read_only


def _read_only(self: object, name: str, *value: object) -> None:
    """``__setattr__`` and ``__delattr__`` of an immutable object."""
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class Formula:
    """An immutable node whose ``__reduce__`` is the constructor call that builds
    it: copy and pickle make that call, and two nodes are equal, and hash alike,
    exactly when their calls are.  Each shape names its fields in ``_fields``."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    __setattr__ = __delattr__ = _read_only


class TrueConst(Formula):
    __slots__ = ()


class FalseConst(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class _Unary(Formula):
    __slots__ = _fields = ("operand",)

    def __init__(self, operand: Formula):
        _set(self, "operand", operand)


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Until(_Binary):
    """Strict non-matching until: some future witness of the right operand with
    the left operand holding on the whole open interior."""

    __slots__ = ()


class Since(_Binary):
    """Mirror image of Until into the past."""

    __slots__ = ()


class DiamondFuture(_Unary):
    """The operand holds somewhere in the open window (t, t+1)."""

    __slots__ = ()


class DiamondPast(_Unary):
    """The operand holds somewhere in the open window (t-1, t)."""

    __slots__ = ()


class Count(Formula):
    """At least n distinct witness points of the operand in (t, t+1)."""

    __slots__ = _fields = ("n", "operand")

    def __init__(self, n: int, operand: Formula):
        if type(n) is not int:
            raise ArityError(f"counting index must be an int, not {type(n).__name__}", 0)
        if n < 1:
            raise ArityError("counting index must be at least 1", 0)
        _set(self, "n", n)
        _set(self, "operand", operand)


class Pnueli(Formula):
    """Strictly increasing witnesses t < t_1 < ... < t_n < t+1, the i-th
    satisfying the i-th argument."""

    __slots__ = _fields = ("args",)

    def __init__(self, args: Iterable[Formula]):
        _set(self, "args", tuple(args))
        if len(self.args) < 1:
            raise ArityError("a run modality needs at least one argument", 0)

    @property
    def n(self) -> int:
        return len(self.args)


# -------------------------------------------------------- connective table

class _Connective(NamedTuple):
    token: str
    cls: type
    level: int  # 1 binds loosest
    right: bool = False  # right associative


# levels of the prefix connectives and of the constants, above every binary one
_PREFIX, _ATOMIC = 5, 6

# Every connective once: the lexer's symbols and keywords, the parser's
# precedence climbing and the printer's parentheses all come from here.
_CONNECTIVES = (
    _Connective("->", Implies, 1, right=True),
    _Connective("|", Or, 2),
    _Connective("&", And, 3),
    _Connective("U", Until, 4, right=True),
    _Connective("S", Since, 4, right=True),
    _Connective("!", Not, _PREFIX),
    _Connective("F1", DiamondFuture, _PREFIX),
    _Connective("O1", DiamondPast, _PREFIX),
    _Connective("true", TrueConst, _ATOMIC),
    _Connective("false", FalseConst, _ATOMIC),
)
_BY_TOKEN = {c.token: c for c in _CONNECTIVES}
_BY_CLASS = {c.cls: c for c in _CONNECTIVES}


# --------------------------------------------------------------------- lexer

_WORDS = frozenset(c.token for c in _CONNECTIVES if c.token.isidentifier())
# longest first, so that no symbol is cut short by one that prefixes it
_SYMBOLS = sorted({c.token for c in _CONNECTIVES} - _WORDS | {"(", ")", ","},
                  key=len, reverse=True)
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    rf"|(?P<symbol>{'|'.join(map(re.escape, _SYMBOLS))})"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
)
_INDEXED_RE = re.compile(r"(C|Pn)(\d+)\Z")  # C<n> and Pn<n>: the head is the token kind


class _Token(NamedTuple):
    kind: str  # a connective's token, ( ) , C Pn ident or end
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
        if m.lastgroup == "symbol" or token_text in _WORDS:
            out.append(_Token(token_text, token_text, pos))
        elif im := _INDEXED_RE.match(token_text):
            head, digits = im.groups()
            try:
                index = int(digits)
            except ValueError:  # int() refuses more digits than Python's limit
                raise LexicalError(f"{head}<n> index of {len(digits)} digits "
                                   "is too long to read", pos) from None
            out.append(_Token(head, token_text, pos, index))
        else:
            out.append(_Token("ident", token_text, pos))
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


# -------------------------------------------------------------------- parser

_PRIMARY_EXPECTED = frozenset(
    {"atom", "(", "C<n>(", "Pn<n>("}
    | {c.token for c in _CONNECTIVES if c.level >= _PREFIX}
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

    def nested(self, parse: Callable[..., Formula], *args: int) -> Formula:
        """Parse one level deeper, refusing text nested past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise FormulaSyntaxError(f"nesting deeper than {MAX_NESTING} levels", self.cur.pos)
        self.depth += 1
        inner = parse(*args)
        self.depth -= 1
        return inner

    def binary(self, level: int = 1) -> Formula:
        """Precedence climbing: the longest formula whose binary connectives
        outside brackets bind at level or tighter."""
        left = self.unary()
        while (op := _BY_TOKEN.get(self.cur.kind)) is not None and level <= op.level < _PREFIX:
            self.eat()
            if op.right:
                right = self.nested(self.binary, op.level)
            else:
                right = self.binary(op.level + 1)
            left = op.cls(left, right)
        return left

    def unary(self) -> Formula:
        op = _BY_TOKEN.get(self.cur.kind)
        if op is None or op.level != _PREFIX:
            return self.primary()
        self.eat()
        return op.cls(self.nested(self.unary))

    def primary(self) -> Formula:
        tok = self.cur
        op = _BY_TOKEN.get(tok.kind)
        if op is not None and op.level == _ATOMIC:
            self.eat()
            return op.cls()
        if tok.kind == "ident":
            self.eat()
            return Atom(tok.text)
        if tok.kind == "(":
            self.eat()
            inner = self.nested(self.binary)
            self.expect(")")
            return inner
        if tok.kind == "C" or tok.kind == "Pn":
            self.eat()
            if tok.index < 1:
                raise ArityError(f"{tok.kind}0 is not a modality: the index starts at 1", tok.pos)
            self.expect("(")
            args = [self.nested(self.binary)]
            while tok.kind == "Pn" and self.cur.kind == ",":  # C<n> reads one argument
                self.eat()
                args.append(self.nested(self.binary))
            self.expect(")")
            if tok.kind == "C":
                return Count(tok.index, args[0])
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
    formula = parser.binary()
    if parser.cur.kind != "end":
        raise FormulaSyntaxError(
            f"trailing input {parser.cur.text!r}", parser.cur.pos, frozenset({"end of input"})
        )
    if height(formula) > MAX_NESTING:  # long chains of left-associative & and |
        raise FormulaSyntaxError(f"operators nested deeper than {MAX_NESTING} levels", 0)
    return formula


# ------------------------------------------------------------------- printer

def _child(f: Formula, min_level: int) -> str:
    text = format_formula(f)
    op = _BY_CLASS.get(type(f))
    return f"({text})" if op is not None and op.level < min_level else text


def format_formula(f: Formula) -> str:
    """Minimal-parenthesis concrete syntax; parse(format(f)) == f."""
    op = _BY_CLASS.get(type(f))
    if op is None:
        kind = type(f)
        if kind is Atom:
            return f.name
        if kind is Count:
            return f"C{f.n}({format_formula(f.operand)})"
        if kind is Pnueli:
            return f"Pn{f.n}(" + ",".join(format_formula(a) for a in f.args) + ")"
        raise TypeError(f"not a formula: {f!r}")
    if op.level == _ATOMIC:
        return op.token
    if op.level == _PREFIX:
        # a keyword needs a space, or it would lex as one word with its operand
        space = " " if op.token.isidentifier() else ""
        return op.token + space + _child(f.operand, _PREFIX)
    # the operand on the associative side may share the connective's level
    left = _child(f.left, op.level + op.right)
    right = _child(f.right, op.level + (not op.right))
    return f"{left} {op.token} {right}"


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
    """The operands of the root connective, left to right."""
    if isinstance(f, (_Unary, Count)):
        return (f.operand,)
    if isinstance(f, _Binary):
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
