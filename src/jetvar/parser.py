"""Expression grammar of the command line.

Atoms: `t`; `q` with prime suffixes (`q'`, `q''`, ...) or an immediately
adjacent `q^(k)` with a literal integer k (`q^(0)` is `q` itself).  Any
other identifier is a named parameter, except `log(...)` and the builtin
calls `sigma(n)`, `schippers(n)`, `presch()`, `L2()`, which expand to their
expressions.  Operators `+ - * / ^` are left-associative with `^` above
unary minus above `* /` above `+ -`; exponents must reduce to integer
constants.  There is no implicit multiplication.

The jet suffix binds only when written without whitespace: `q^(2)` is the
second jet, while `q ^(2)` and `q^(1+1)` are the square of q.

There is no parse tree: each production returns the value of its text,
and each operator is applied as soon as its right operand is read.  The
value is a Polynomial while the text is polynomial, so sums, differences,
products and powers take no gcd.  A division, a negative power, a log or a
builtin gives a canonical Expr; a Polynomial operand is lifted to one over
the denominator 1, which is already in lowest terms.  parse_expr returns
the Expr of the whole text.
The whole text is lexed first, so a bad character is reported before any
arithmetic; after that, errors come in reading order, and a computation
error (division by zero, a bad log or exponent) in a prefix is raised
before a syntax error further on.
"""

from __future__ import annotations

from collections import namedtuple

from .atoms import TIME, Jet, Param
from .errors import ParseError, UnsupportedExponent
from .expr import Expr, log
from .hierarchy import _NO_ORDER, _WITH_ORDER
from .poly import P_ONE, Polynomial, decimal_int

_OPS = set("+-*/^(),")
# ASCII only: str.isdigit also accepts digits such as "²" that int() rejects
_DIGITS = set("0123456789")
_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_PREC = 30
# deepest nesting the parser accepts; deeper input is a ParseError, which
# keeps the recursive parse and every later walk far from Python's limit
_MAX_DEPTH = 100


_Token = namedtuple("_Token", "kind value line col")


def _lex(text: str):
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(k=1):
        nonlocal i, col
        i += k
        col += k

    while i < n:
        ch = text[i]
        if ch in " \t\r":
            advance()
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in _DIGITS:
            start, scol = i, col
            while i < n and text[i] in _DIGITS:
                advance()
            tokens.append(_Token("int", decimal_int(text[start:i]), line, scol))
            continue
        if ch.isalpha():  # a name starts with a letter, as Param requires
            start, scol = i, col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                advance()
            name = text[start:i]
            if name == "q":
                if i < n and text[i] == "'":
                    primes = 0
                    while i < n and text[i] == "'":
                        primes += 1
                        advance()
                    tokens.append(_Token("jet", primes, line, scol))
                    continue
                if text[i:i + 2] == "^(":
                    j = i + 2
                    while j < n and text[j] in _DIGITS:
                        j += 1
                    if j > i + 2 and j < n and text[j] == ")":
                        order = decimal_int(text[i + 2:j])
                        advance(j + 1 - i)
                        tokens.append(_Token("jet", order, line, scol))
                        continue
                tokens.append(_Token("jet", 0, line, scol))
                continue
            tokens.append(_Token("name", name, line, scol))
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, line, col))
            advance()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.value != op:
            raise ParseError(f"expected {op!r}", tok.line, tok.col)
        return self.next()

    def parse(self) -> Polynomial | Expr:
        e = self.expression(0)
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError("unexpected trailing input", tok.line, tok.col)
        return e

    def expression(self, min_prec: int) -> Polynomial | Expr:
        # every parenthesis, log call, unary minus and operator of higher
        # precedence nests one level
        if self.depth == _MAX_DEPTH:
            tok = self.peek()
            raise ParseError(
                f"expression nested more than {_MAX_DEPTH} levels deep",
                tok.line, tok.col)
        self.depth += 1
        e = self._operators(min_prec)
        self.depth -= 1
        return e

    def _operators(self, min_prec: int) -> Polynomial | Expr:
        left = self.unary()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.value not in _BIN_PREC:
                return left
            prec = _BIN_PREC[tok.value]
            if prec < min_prec:
                return left
            op = self.next()
            # all operators associate to the left
            right = self.expression(prec + 1)
            if op.value == "^":
                k = _exponent(right, op)
                if type(left) is Polynomial and k >= 0:
                    left = left.pow(k)
                else:
                    left = _lift(left) ** k
            elif op.value == "/":
                left = _lift(left) / _lift(right)
            elif type(left) is Polynomial and type(right) is Polynomial:
                left = (left.add(right) if op.value == "+" else
                        left.sub(right) if op.value == "-" else left.mul(right))
            else:
                left, right = _lift(left), _lift(right)
                left = (left + right if op.value == "+" else
                        left - right if op.value == "-" else left * right)

    def unary(self) -> Polynomial | Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            self.next()
            e = self.expression(_UNARY_PREC + 1)
            return e.neg() if type(e) is Polynomial else -e
        return self.primary()

    def primary(self) -> Polynomial | Expr:
        tok = self.next()
        if tok.kind == "int":
            return Polynomial.const(tok.value)
        if tok.kind == "jet":
            return Polynomial.atom(Jet(tok.value))
        if tok.kind == "op" and tok.value == "(":
            inner = self.expression(0)
            self.expect_op(")")
            return inner
        if tok.kind == "name":
            name = tok.value
            if name == "t":
                return Polynomial.atom(TIME)
            nxt = self.peek()
            calls = nxt.kind == "op" and nxt.value == "("
            if name == "log":
                if not calls:
                    raise ParseError("log requires an argument in parentheses",
                                     tok.line, tok.col)
                self.next()
                inner = self.expression(0)
                self.expect_op(")")
                return log(_lift(inner))
            if calls and name in _WITH_ORDER:
                self.next()
                arg = self.peek()
                if arg.kind != "int":
                    raise ParseError(f"{name} requires a literal integer order",
                                     arg.line, arg.col)
                self.next()
                self.expect_op(")")
                return _WITH_ORDER[name](arg.value)
            if calls and name in _NO_ORDER:
                self.next()
                self.expect_op(")")
                return _NO_ORDER[name]()
            return Polynomial.atom(Param(name))
        raise ParseError("expected an expression", tok.line, tok.col)


def _lift(e: Polynomial | Expr) -> Expr:
    """The Expr of a production's value."""
    return Expr(e, P_ONE, _reduced=True) if type(e) is Polynomial else e


def _exponent(e: Polynomial | Expr, op_tok: _Token) -> int:
    if e.is_const:
        if type(e) is Polynomial:
            return e.const_value()
        v = e.const_value()
        if v.denominator == 1:
            return int(v)
    raise UnsupportedExponent("exponent must be an integer constant",
                              op_tok.line, op_tok.col)


def parse_expr(src: str) -> Expr:
    """Canonical Expr of the source text."""
    return _lift(_Parser(_lex(src)).parse())
