"""Expression trees for chart components.

The grammar is deliberately small: numbers, ``pi``, chart variables
``u1..u6``, named parameters, ``+ - * /``, integer powers ``^``, and the
unary functions ``sin``, ``cos``, ``sqrt`` plus unary minus.  Every catalog
chart is expressible in it, and each primitive has a hand-verified jet lift.

Trees are frozen dataclasses, so structurally equal subtrees hash equal and
the jet evaluator can share work between components (all the catalog charts
reuse sin/cos factors heavily).

``parse(to_string(tree)) == tree`` holds for every parsed tree: the printer
inserts parentheses wherever reparsing would otherwise re-associate.
``parse`` refuses a source nested deeper than ``MAX_DEPTH`` levels with an
``ExprSyntaxError``, as every tree walk recurses once per level.

``parse`` is memoized by its source string (a bounded cache; a syntax
error is raised again on every call), so every chart built from the same
strings shares the same tree objects, which is safe because no node can be
changed; ``facts`` keeps what chart validation reads of a tree (the
largest variable index, the parameter names) beside it, by the same key.
The catalog builders rely on it: each passes one template per component,
with named ``Param`` leaves where the numbers go, and its values as the
chart's ``params``, so all members of a family hold the same trees.

``eval_jet`` reads a ``Param`` leaf's value from ``params``.  A scalar is a
constant jet, the one the number as a literal gives.  A 1-d array of
values is a (P, L) constant jet, one value on each row of a stacked block:
``scan`` stacks the members of a family that way.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import jets


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class ExprEvalError(ValueError):
    """Evaluation failed (domain violation, unknown parameter, ...)."""


FUNCTIONS = ("sin", "cos", "sqrt")


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    """A number, compared and hashed by the ``float.hex`` of its value, so
    equal leaves have equal bits and a memo keeps 0.0 and -0.0 apart."""

    value: float = field(compare=False)
    key: str = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "key", float(self.value).hex())


@dataclass(frozen=True)
class Pi(Expr):
    pass


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 0-based; prints as u<index+1>


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'neg' | 'sin' | 'cos' | 'sqrt'
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # '+' | '-' | '*' | '/'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: int


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
)

_VAR_RE = re.compile(r"^u([1-9][0-9]*)$")


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


# the most levels of nesting an expression may have: each node and each
# parenthesized group is one level.  Parsing and every tree walk recurse
# once per level, so a deeper source would end in a RecursionError.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each rule returns its tree and that tree's depth
    in levels, and ``open`` counts the groups, calls and negations around
    the current token, so a node at depth d under them sits at least
    ``open + d`` levels deep in the whole tree."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str):
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        raise ExprSyntaxError(f"expected {text!r}", tok.line, tok.column)

    def node(self, tok: _Token, e: Expr, depth: int) -> tuple[Expr, int]:
        """``e`` with its depth, or a syntax error at ``tok`` if it lies
        deeper than ``MAX_DEPTH`` levels."""
        if self.open + depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                                  tok.line, tok.column)
        return e, depth

    def nested(self, tok: _Token, rule) -> tuple[Expr, int]:
        """``rule()`` parsed one level inside ``tok`` (a group, call or
        negation), refused at ``tok`` before it recurses too deep: what it
        parses is at least one level deep."""
        self.open += 1
        self.node(tok, None, 1)
        e, depth = rule()
        self.open -= 1
        return e, depth

    def parse(self) -> Expr:
        e, _ = self.expression()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.column)
        return e

    def expression(self) -> tuple[Expr, int]:
        left, depth = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            right, rdepth = self.term()
            left, depth = self.node(tok, Binary(tok.text, left, right), 1 + max(depth, rdepth))
        return left, depth

    def term(self) -> tuple[Expr, int]:
        left, depth = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            right, rdepth = self.factor()
            left, depth = self.node(tok, Binary(tok.text, left, right), 1 + max(depth, rdepth))
        return left, depth

    def factor(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            nxt = self.peek()
            after = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            # fold a minus applied directly to a literal into the constant, so
            # printed negative constants reparse to the identical tree;
            # -2^2 keeps the conventional reading -(2^2) and is not folded
            if nxt.kind == "num" and not (
                after is not None and after.kind == "op" and after.text == "^"
            ):
                self.advance()
                return Const(-float(nxt.text)), 1
            arg, depth = self.nested(tok, self.factor)
            return Unary("neg", arg), depth + 1
        return self.power()

    def power(self) -> tuple[Expr, int]:
        base, depth = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            caret = self.advance()
            sign = 1
            tok = self.peek()
            if tok.kind == "op" and tok.text == "-":
                self.advance()
                sign = -1
                tok = self.peek()
            if tok.kind != "num" or not re.fullmatch(r"\d+", tok.text):
                raise ExprSyntaxError("expected integer exponent", tok.line, tok.column)
            self.advance()
            return self.node(caret, Power(base, sign * int(tok.text)), depth + 1)
        return base, depth

    def atom(self) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "num":
            return Const(float(tok.text)), 1
        if tok.kind == "ident":
            name = tok.text
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if name not in FUNCTIONS:
                    raise ExprSyntaxError(
                        f"unknown function {name!r}", tok.line, tok.column
                    )
                self.advance()
                arg, depth = self.nested(tok, self.expression)
                self.expect(")")
                return Unary(name, arg), depth + 1
            if name == "pi":
                return Pi(), 1
            m = _VAR_RE.match(name)
            if m:
                return Var(int(m.group(1)) - 1), 1
            return Param(name), 1
        if tok.kind == "op" and tok.text == "(":
            e, depth = self.nested(tok, self.expression)
            self.expect(")")
            return e, depth + 1
        raise ExprSyntaxError(f"unexpected token {tok.text or 'end of input'!r}",
                              tok.line, tok.column)


@functools.lru_cache(maxsize=1024)
def parse(source: str) -> Expr:
    return _Parser(_tokenize(source)).parse()


@functools.lru_cache(maxsize=1024)
def _source_facts(source: str) -> tuple[int, frozenset[str]]:
    e = parse(source)
    return max_var_index(e), frozenset(free_params(e))


def facts(e: Expr | str) -> tuple[int, frozenset[str]]:
    """``(max_var_index(e), free_params(e))``, for a source string those of
    ``parse(e)``.  A string's facts are cached by the string, as its tree
    is, so the members of a family walk their shared trees once; a tree is
    walked on every call (hashing a tree for a cache would walk it too)."""
    if isinstance(e, str):
        return _source_facts(e)
    return max_var_index(e), frozenset(free_params(e))


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Unary) and e.op == "neg":
        return _PREC_NEG
    if isinstance(e, Power):
        return _PREC_POW
    if isinstance(e, Const) and e.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


def to_string(e: Expr) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return f"u{e.index + 1}"
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = to_string(e.arg)
            # constants are always parenthesized: "-2.0" would reparse as the
            # folded negative literal rather than an explicit negation node
            if _prec(e.arg) < _PREC_NEG or isinstance(e.arg, Const):
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.op}({to_string(e.arg)})"
    if isinstance(e, Binary):
        left = to_string(e.left)
        if _prec(e.left) < _PREC[e.op]:
            left = f"({left})"
        right = to_string(e.right)
        # strict on the right so reparsing cannot re-associate the chain
        if _prec(e.right) <= _PREC[e.op]:
            right = f"({right})"
        return f"{left} {e.op} {right}"
    if isinstance(e, Power):
        base = to_string(e.base)
        if _prec(e.base) <= _PREC_POW:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def free_params(e: Expr) -> set[str]:
    if isinstance(e, Param):
        return {e.name}
    if isinstance(e, Unary):
        return free_params(e.arg)
    if isinstance(e, Binary):
        return free_params(e.left) | free_params(e.right)
    if isinstance(e, Power):
        return free_params(e.base)
    return set()


def max_var_index(e: Expr) -> int:
    """Largest 0-based variable index used, or -1 if none."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Unary):
        return max_var_index(e.arg)
    if isinstance(e, Binary):
        return max(max_var_index(e.left), max_var_index(e.right))
    if isinstance(e, Power):
        return max_var_index(e.base)
    return -1


def eval_jet(e: Expr, sp: jets.JetSpace, var_jets, params: dict, errors: list,
             memo: dict | None = None) -> np.ndarray:
    """Evaluate over order-4 jets of ``sp``, arrays (..., L); ``errors`` has
    one entry per point (None while it has no error), and ``memo`` shares
    equal subtrees within one call.

    ``chart.eval_jet_stack`` passes (P, L) variable jets, one row per point
    of a block (a lone point is a block of one); constant subtrees stay (L,)
    jets that broadcast against them, except those over a parameter with
    one value per row, which are (P, L): such a row gives the pair products
    of the broadcast constant of its value, ``jets.JetSpace`` sums each
    coefficient in table order, and ``jets.elementary`` takes each row's
    series on its own, so each row has the bits of its value's own pass.
    A row outside the domain of ``sqrt``, ``/`` or a negative power at
    degree 0 records the ``JetDomainError`` its point alone raises and turns
    NaN, which ``jets.elementary`` passes through.
    """
    if memo is None:
        memo = {}
    hit = memo.get(e)
    if hit is not None:
        return hit
    if isinstance(e, Const):
        out = sp.constant(e.value)
    elif isinstance(e, Pi):
        out = sp.constant(math.pi)
    elif isinstance(e, Var):
        out = var_jets[e.index]
    elif isinstance(e, Param):
        try:
            value = params[e.name]
        except KeyError:
            raise ExprEvalError(f"unknown parameter {e.name!r}") from None
        if np.ndim(value) > 0:              # one value per row
            out = np.zeros((len(value), sp.size))
            out[:, 0] = value
        else:
            out = sp.constant(value)
    elif isinstance(e, Unary):
        x = eval_jet(e.arg, sp, var_jets, params, errors, memo)
        if e.op == "sqrt":
            x = _domain(errors, x, "sqrt")
        out = jets.elementary(sp, e.op, x)
    elif isinstance(e, Binary):
        a = eval_jet(e.left, sp, var_jets, params, errors, memo)
        b = eval_jet(e.right, sp, var_jets, params, errors, memo)
        if e.op == "+":
            out = a + b
        elif e.op == "-":
            out = a - b
        elif e.op == "*":
            out = sp.mul(a, b)
        else:
            out = sp.mul(a, jets.elementary(sp, "recip", _domain(errors, b, "recip", 0.0)))
    elif isinstance(e, Power):
        x = eval_jet(e.base, sp, var_jets, params, errors, memo)
        if e.exponent < 0:
            x = _domain(errors, x, "recip")
        out = jets.elementary(sp, "pow_int", x, exponent=e.exponent)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[e] = out
    return out


def _domain(errors: list, x: np.ndarray, fn: str, value: float | None = None) -> np.ndarray:
    """``x`` with NaN rows where its degree-0 value is outside the domain of
    ``fn`` (sqrt: <= 0, recip: 0), each such point's error recorded; the
    message gives ``value``, else the row's own value."""
    c0 = np.broadcast_to(x[..., 0], (len(errors),))
    bad = c0 <= 0.0 if fn == "sqrt" else c0 == 0.0
    if not bad.any():
        return x
    jets.fail(errors, bad, lambda p: jets.JetDomainError(
        fn, float(c0[p]) if value is None else value))
    return np.where(bad[:, None], np.nan, x)
