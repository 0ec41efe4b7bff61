"""Textual grammar for elements and series (parse + print, exact round trip).

Element grammar:

    element  := term (('+'|'-') term)*
    term     := rational '*' legword ('(x)' legword)*  |  rational
    legword  := factor ('*' factor)*
    factor   := 'T[i,j,r]' | '1'

Whitespace is insignificant.  The printer is canonical: terms sorted by
monomial, coefficients always explicit, e.g.

    -1*T[1,2,1]*T[2,1,1] + 1*T[1,1,1] - 1*T[2,2,1]

Series grammar (the trailing O-term is mandatory and encodes the order):

    1 + 2*u^-1 - 1/3*u^-3 + O(u^-4)

Element-valued series carry their coefficients in braces:

    1 + { -1*T[1,1,1] + 1*T[2,2,1] }*u^-2 + O(u^-3)
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import Algebra, Element, element_ring
from .series import RATIONALS, Ring, SeriesTail, rational_from_text, rational_to_text


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<gen>T\[\s*\d+\s*,\s*\d+\s*,\s*\d+\s*\])"
    r"|(?P<rat>-?\d+(?:/\d+)?)"
    r"|(?P<legsep>\(x\))"
    r"|(?P<op>[+\-*])"
    r"|(?P<one>1))"
)

_GEN_RE = re.compile(r"T\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), pos))
        pos = m.end()
    return tokens


def parse_element(alg: Algebra, text: str, legs: int | None = None) -> Element:
    """Parse an element; the input need not be normal-ordered."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty element", 0)
    raw_terms = []
    idx = 0
    sign = Fraction(1)
    pending_term = False
    while idx < len(tokens):
        kind, value, pos = tokens[idx]
        if kind == "op" and value in "+-":
            sign = Fraction(1) if value == "+" else Fraction(-1)
            pending_term = True
            idx += 1
            continue
        coeff = Fraction(1)
        # optional leading rational ('1' may be a factor or a coefficient;
        # treat it as a coefficient when followed by '*')
        if kind == "rat" or (
            kind == "one"
            and idx + 1 < len(tokens)
            and tokens[idx + 1][0] == "op"
            and tokens[idx + 1][1] == "*"
        ):
            coeff = rational_from_text(value)
            idx += 1
            if idx < len(tokens) and tokens[idx][0] == "op" and tokens[idx][1] == "*":
                idx += 1
            else:
                # bare rational term
                raw_terms.append((sign * coeff, None, pos))
                sign = Fraction(1)
                pending_term = False
                continue
        legwords = [[]]
        expect_factor = True
        while idx < len(tokens):
            kind, value, pos = tokens[idx]
            if kind == "gen":
                i, j, r = (int(x) for x in _GEN_RE.match(value).groups())
                if not (1 <= i <= alg.dim and 1 <= j <= alg.dim and r >= 1):
                    raise ParseError(f"generator T[{i},{j},{r}] out of range", pos)
                legwords[-1].append((i, j, r))
                idx += 1
                expect_factor = False
            elif kind in ("one", "rat") and value == "1":
                idx += 1
                expect_factor = False
            elif kind == "op" and value == "*":
                idx += 1
                expect_factor = True
            elif kind == "legsep":
                legwords.append([])
                idx += 1
                expect_factor = True
            else:
                break
        if expect_factor:
            raise ParseError("dangling operator", pos)
        raw_terms.append((sign * coeff, [tuple(w) for w in legwords], pos))
        sign = Fraction(1)
        pending_term = False
    if pending_term:
        raise ParseError("dangling operator at end of input", len(text))
    if not raw_terms:
        raise ParseError("no terms", 0)
    nlegs = legs
    for _, mon, pos in raw_terms:
        if mon is not None:
            if nlegs is None:
                nlegs = len(mon)
            elif len(mon) != nlegs:
                raise ParseError("inconsistent leg counts", pos)
    if nlegs is None:
        nlegs = 1 if legs is None else legs
    return alg.element([(coeff, [()] * nlegs if mon is None else mon)
                        for coeff, mon, _ in raw_terms])


def element_to_text(x: Element) -> str:
    if x.is_zero():
        return "0"
    pieces = []
    for mon in sorted(x.terms):
        coeff = x.terms[mon]
        legtexts = []
        for word in mon:
            if word:
                legtexts.append("*".join(f"T[{g.i},{g.j},{g.r}]" for g in word))
            else:
                legtexts.append("1")
        body = " (x) ".join(legtexts)
        mag = rational_to_text(abs(coeff))
        if all(not w for w in mon):
            piece = mag  # pure scalar term
        else:
            piece = f"{mag}*{body}"
        if not pieces:
            pieces.append(piece if coeff > 0 else f"-{piece}")
        else:
            pieces.append(f"+ {piece}" if coeff > 0 else f"- {piece}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

_OTERM_RE = re.compile(r"\+\s*O\(\s*u\^-(\d+)\s*\)\s*$")
_UPOW_RE = re.compile(r"u\^-(\d+)")


def series_to_text(series: SeriesTail, element_coeffs: bool = False) -> str:
    """Print a series; the mandatory O-term encodes the order."""
    pieces = []
    for r, coeff in enumerate(series.coeffs):
        if element_coeffs:
            if coeff.is_zero():
                continue
            scal = coeff.scalar_part()
            if len(coeff.terms) == 1 and scal:
                body, negative = rational_to_text(abs(scal)), scal < 0
            else:
                body, negative = "{ " + element_to_text(coeff) + " }", False
        else:
            if coeff == 0:
                continue
            body, negative = rational_to_text(abs(coeff)), coeff < 0
        if r > 0:
            body = f"{body}*u^-{r}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    if not pieces:
        pieces.append("0")
    pieces.append(f"+ O(u^-{series.order + 1})")
    return " ".join(pieces)


def first_residual_text(series: SeriesTail) -> str:
    """`u^-r: x` for the first nonzero coefficient x of an element-valued
    SeriesTail; "0" when every coefficient vanishes."""
    for r, c in enumerate(series.coeffs):
        if not c.is_zero():
            return f"u^-{r}: {element_to_text(c)}"
    return "0"


def parse_series(text: str, alg: Algebra | None = None) -> SeriesTail:
    """Parse a series; with `alg` given, coefficients are elements."""
    m = _OTERM_RE.search(text)
    if m is None:
        raise ParseError("missing O(u^-D) term", len(text))
    order = int(m.group(1)) - 1
    if order < 0:
        raise ParseError("order must be >= 0", m.start())
    body = text[: m.start()]
    if alg is None:
        ring: Ring = RATIONALS
        make_scalar = Fraction
    else:
        ring = element_ring(alg)
        make_scalar = lambda q: alg.scalar(q)  # noqa: E731
    entries: dict[int, object] = {}
    pos = 0
    sign = 1
    n = len(body)
    while pos < n:
        ch = body[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "+":
            sign = 1
            pos += 1
            continue
        if ch == "-":
            sign = -1
            pos += 1
            continue
        if ch == "{":
            if alg is None:
                raise ParseError("brace coefficient in a scalar series", pos)
            depth = 1
            end = pos + 1
            while end < n and depth:
                if body[end] == "{":
                    depth += 1
                elif body[end] == "}":
                    depth -= 1
                end += 1
            if depth:
                raise ParseError("unbalanced braces", pos)
            coeff = parse_element(alg, body[pos + 1 : end - 1], legs=1)
            pos = end
        else:
            mrat = re.compile(r"-?\d+(?:/\d+)?").match(body, pos)
            if mrat is None:
                raise ParseError(f"expected coefficient, got {body[pos:pos+8]!r}", pos)
            coeff = make_scalar(rational_from_text(mrat.group()))
            pos = mrat.end()
        r = 0
        rest = body[pos:].lstrip()
        if rest.startswith("*"):
            mu = _UPOW_RE.match(rest[1:].lstrip())
            if mu is None:
                raise ParseError("expected u^-k after '*'", pos)
            r = int(mu.group(1))
            pos = pos + body[pos:].index("*") + 1
            pos = pos + body[pos:].index("u") + len(mu.group())
        if r > order:
            raise ParseError(f"coefficient u^-{r} beyond stated order {order}", pos)
        if sign < 0:
            coeff = -coeff
        prev = entries.get(r)
        entries[r] = coeff if prev is None else prev + coeff
        sign = 1
    filtered = {
        r: c
        for r, c in entries.items()
        if not (c.is_zero() if alg is not None else c == 0)
    }
    return SeriesTail.from_map(ring, order, filtered)
