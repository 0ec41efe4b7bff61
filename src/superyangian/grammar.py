"""Textual grammar for elements and series (parse + print, exact round trip).

One tokenizer reads both grammars, and one recursive-descent reader
follows their productions:

    element  := ['+'|'-'] term (('+'|'-') term)*
    term     := rational  |  [rational '*'] legword ('(x)' legword)*
    legword  := factor ('*' factor)*
    factor   := 'T[i,j,r]' | '1'
    rational := digits ['/' digits]

    series   := ['+'|'-'] sterm (('+'|'-') sterm)* '+' 'O(u^-D)'
    sterm    := (rational | '{' element '}') ['*' 'u^-k']

A `1` before `(x)` is the factor 1 of that leg, so `1 (x) T[1,1,1]` is
1 (x) T[1,1,1].  A bare rational term takes the leg count of the other
terms, one leg when there are none.  Whitespace is insignificant, but
juxtaposition is neither a sum nor a product: `2 3` and
`T[1,1,1] T[2,2,1]` are errors.  The printer is canonical: terms sorted
by monomial, coefficients always explicit, e.g.

    -1*T[1,2,1]*T[2,1,1] + 1*T[1,1,1] - 1*T[2,2,1]

and on more than one leg every term spells out its legs, so that the
text keeps the leg count: `3*1 (x) 1`, and zero is `0*1 (x) 1`.

The trailing O-term of a series is mandatory and encodes the order.
Series coefficients are 1-leg elements: a scalar is written as its
rational, any other in braces, the same element rule read from the same
tokens:

    1 + 2*u^-1 - 1/3*u^-3 + O(u^-4)
    1 + { -1*T[1,1,1] + 1*T[2,2,1] }*u^-2 + O(u^-3)
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import Algebra, Element
from .series import SeriesTail, rational_from_text, rational_to_text


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# a token's kind is the name of its group, or for `op` its text
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<gen>T\[\s*(?P<i>\d+)\s*,\s*(?P<j>\d+)\s*,\s*(?P<r>\d+)\s*\])"
    r"|(?P<rat>\d+(?:/\d+)?)"
    r"|(?P<upow>u\^-(?P<power>\d+))"
    r"|(?P<oterm>O\(\s*u\^-(?P<order>\d+)\s*\))"
    r"|(?P<op>\(x\)|[-+*{}]))"
)


class _Reader:
    """Recursive descent over the tokens of `text`, up to `end`."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        pos = 0
        while (m := _TOKEN_RE.match(text, pos)) is not None:
            kind = m.lastgroup
            self.tokens.append((m.group(kind) if kind == "op" else kind, m))
            pos = m.end()
        rest = text[pos:].lstrip()
        if rest:
            raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        self.at = 0
        self.end = len(self.tokens)

    def peek(self, ahead: int = 0) -> str | None:
        at = self.at + ahead
        return self.tokens[at][0] if at < self.end else None

    def take(self) -> re.Match:
        self.at += 1
        return self.tokens[self.at - 1][1]

    def pos(self) -> int:
        """Where the next token starts (the end of the text after the last)."""
        if self.at < len(self.tokens):
            m = self.tokens[self.at][1]
            return m.start(m.lastgroup)
        return len(self.text)

    def at_one(self) -> bool:
        """Whether the next token is the rational 1, maybe the factor 1."""
        return self.peek() == "rat" and self.tokens[self.at][1].group("rat") == "1"

    def rational(self) -> Fraction:
        """The next token, a rational; a zero denominator is an error there."""
        start = self.pos()
        try:
            return rational_from_text(self.take().group("rat"))
        except ValueError as exc:
            raise ParseError(str(exc), start) from None

    def expected(self, what: str) -> ParseError:
        """The error at the next token, which is not `what`."""
        if self.peek() is None:  # the end of an element, or of a series before its O-term
            return ParseError("dangling operator at end of input", self.pos())
        return ParseError(f"expected {what}", self.pos())

    def signed_terms(self, read, close: str | None = None) -> list:
        """['+'|'-'] term (('+'|'-') term)* up to the token `close` (the
        end when None), each term read by `read()`: (sign, term) pairs."""
        terms = []
        while True:
            sign = -1 if self.peek() == "-" else 1
            if self.peek() in ("+", "-"):
                self.at += 1
            terms.append((sign, read()))
            if self.peek() == close:
                return terms
            if self.peek() not in ("+", "-"):
                raise ParseError("expected '+' or '-'", self.pos())

    def element(self, alg: Algebra, close: str | None = None) -> Element:
        terms = self.signed_terms(lambda: self.term(alg), close)
        nlegs = next((len(mon) for _, (_, mon, _) in terms if mon is not None), 1)
        for _, (_, mon, start) in terms:
            if mon is not None and len(mon) != nlegs:
                raise ParseError("inconsistent leg counts", start)
        return alg.element([(sign * coeff, [()] * nlegs if mon is None else mon)
                            for sign, (coeff, mon, _) in terms])

    def term(self, alg: Algebra) -> tuple:
        """(coefficient, legwords, start); legwords is None for a scalar."""
        start = self.pos()
        coeff = Fraction(1)
        if self.peek() == "rat" and not (self.at_one() and self.peek(1) == "(x)"):
            coeff = self.rational()
            if self.peek() != "*":
                return coeff, None, start
            self.at += 1
        elif self.peek() not in ("gen", "rat"):
            raise self.expected("a term")
        legwords = [self.legword(alg)]
        while self.peek() == "(x)":
            self.at += 1
            legwords.append(self.legword(alg))
        return coeff, legwords, start

    def legword(self, alg: Algebra) -> tuple:
        word = self.factor(alg)
        while self.peek() == "*":
            self.at += 1
            word += self.factor(alg)
        return word

    def factor(self, alg: Algebra) -> tuple:
        """The letters of one factor: () for the factor 1."""
        if self.peek() == "gen":
            start = self.pos()
            i, j, r = (int(x) for x in self.take().group("i", "j", "r"))
            if not (1 <= i <= alg.dim and 1 <= j <= alg.dim and r >= 1):
                raise ParseError(f"generator T[{i},{j},{r}] out of range", start)
            return ((i, j, r),)
        if self.at_one():
            self.at += 1
            return ()
        if self.peek() is None:
            m = self.tokens[self.at - 1][1]  # the operator that wants a factor
            raise ParseError("dangling operator", m.start(m.lastgroup))
        raise self.expected("T[i,j,r] or 1")

    def series_term(self, alg: Algebra, order: int) -> tuple:
        """(coefficient, r) of one sterm."""
        start = self.pos()
        if self.peek() == "{":
            if all(kind != "}" for kind, _ in self.tokens[self.at:self.end]):
                raise ParseError("unbalanced braces", start)
            self.at += 1
            coeff = self.element(alg, "}")
            if coeff.legs != 1:
                raise ParseError("series coefficients have one leg", start)
            self.at += 1
        elif self.peek() == "rat":
            coeff = alg.scalar(self.rational())
        else:
            raise self.expected("a coefficient")
        if self.peek() != "*":
            return coeff, 0
        self.at += 1
        if self.peek() != "upow":
            raise self.expected("u^-k after '*'")
        m = self.take()
        r = int(m.group("power"))
        if r > order:
            raise ParseError(f"coefficient u^-{r} beyond stated order {order}", m.end())
        return coeff, r


def parse_element(alg: Algebra, text: str) -> Element:
    """Parse an element; the input need not be normal-ordered."""
    reader = _Reader(text)
    if not reader.tokens:
        raise ParseError("empty element", 0)
    return reader.element(alg)


def _signed_sum(pieces) -> str:
    """`a - b + c` from (negative, text) pairs."""
    out = []
    for negative, body in pieces:
        sign = ("- " if negative else "+ ") if out else ("-" if negative else "")
        out.append(sign + body)
    return " ".join(out)


def element_to_text(x: Element) -> str:
    pieces = []
    for mon in sorted(x.terms or {((),) * x.legs: 0}):
        coeff = x.terms.get(mon, 0)
        mag = rational_to_text(abs(coeff))
        body = " (x) ".join("*".join(f"T[{g.i},{g.j},{g.r}]" for g in word) or "1"
                            for word in mon)
        pieces.append((coeff < 0, mag if mon == ((),) else f"{mag}*{body}"))
    return _signed_sum(pieces)


def series_to_text(series: SeriesTail) -> str:
    """Print a series; the mandatory O-term encodes the order.  A
    coefficient with a term other than a scalar is printed in braces, a
    scalar as its rational."""
    pieces = []
    for r, coeff in enumerate(series.coeffs):
        if coeff.terms.keys() - {((),)}:
            negative, body = False, "{ " + element_to_text(coeff) + " }"
        else:
            q = coeff.scalar_part()
            if not q:
                continue
            negative, body = q < 0, rational_to_text(abs(q))
        pieces.append((negative, body if r == 0 else f"{body}*u^-{r}"))
    return f"{_signed_sum(pieces or [(False, '0')])} + O(u^-{series.order + 1})"


def first_residual_text(series: SeriesTail) -> str:
    """`u^-r: x` for the first nonzero coefficient x of a nonzero
    SeriesTail (every caller reports a residual)."""
    r = next(r for r, c in enumerate(series.coeffs) if c)
    return f"u^-{r}: {element_to_text(series.coeffs[r])}"


def parse_series(text: str, alg: Algebra) -> SeriesTail:
    """Parse a series whose coefficients are 1-leg elements of `alg`."""
    reader = _Reader(text)
    if [kind for kind, _ in reader.tokens[-2:]] != ["+", "oterm"]:
        raise ParseError("missing O(u^-D) term", len(text))
    reader.end -= 2
    order = int(reader.tokens[-1][1].group("order")) - 1
    if order < 0:
        raise ParseError("order must be >= 0", reader.tokens[-2][1].start("op"))
    entries: dict = {}
    for sign, (coeff, r) in reader.signed_terms(lambda: reader.series_term(alg, order)):
        entries[r] = entries.get(r, alg.zero(1)) + (coeff if sign > 0 else -coeff)
    return SeriesTail.from_map(alg, order, entries)
