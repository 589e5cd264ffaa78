"""Parser for Laurent polynomial and scalar text.

Grammar (whitespace ignored; positions reported on errors):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := power (('*'|'/') power)*
    power    := atom ['^' exponent]
    exponent := ['-'] INT | '(' ['-'] INT ')'
    atom     := INT | 'z' | 'x'INT | '(' expr ')'

Values are multivariate Laurent polynomials over the coefficient field
(Q, or Q(z) when 'z' occurs).  Division and negative powers require the
divisor or base to be a single term, so '(z-1)/(z^2+1)' and 'x1^-2' work and
'1/(x1+1)' is rejected.  The parser expands products, so '(z^2+1)*(x1+x2-5)'
parses to the expanded polynomial, within the MAX_* limits below; past them
it raises ExpansionTooLarge before expanding.  A text is tokenized once:
an omitted rank and field are read off the tokens that the parser reads.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import ExpansionTooLarge, PolySyntaxError, RankMismatch, RankTooLarge
from .scalars import FIELD_Q, FIELD_QZ, RationalFunction

# Largest rank (and variable index) accepted: exponent tuples have this many
# entries, so text like 'x99999999999' is rejected before any is built.
MAX_RANK = 64
# Expansion limits: the exponent of a base other than one term with
# coefficient 1 or -1, the term pairs of a product, and the size of its
# coefficients (the digit limit also bounds exponents).
MAX_POWER = 64
MAX_TERM_PAIRS = 2**16
MAX_COEFF_DIGITS = 4300  # Python's int-to-str limit
MAX_Z_DEGREE = 256
_MAX_COEFF_BITS = int(MAX_COEFF_DIGITS * math.log2(10))


def _check_rank(rank):
    if rank > MAX_RANK:
        raise RankTooLarge(f"rank {rank} exceeds the largest supported rank {MAX_RANK}")


def _read_int(text, i, j):
    try:
        return int(text[i:j])
    except ValueError:  # a digit int() rejects, like '²', or too many digits
        raise PolySyntaxError("unreadable integer", i) from None


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", _read_int(text, i, j), i))
            i = j
            continue
        if ch == "z":
            tokens.append(("z", None, i))
            i += 1
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolySyntaxError("variable needs an index, like x1", i)
            index = _read_int(text, i + 1, j)
            _check_rank(index)
            tokens.append(("var", index, i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, None, i))
            i += 1
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def _check_product_size(degree, bits):
    """Refuse a product whose coefficients may pass the digit or z-degree
    bound: degree and bits are bounds on their z-degree and bit length."""
    if degree > MAX_Z_DEGREE or bits > _MAX_COEFF_BITS:
        raise ExpansionTooLarge(
            f"a product coefficient may exceed {MAX_COEFF_DIGITS} digits "
            f"or z-degree {MAX_Z_DEGREE}"
        )


def _power_too_large(k, pos):
    return ExpansionTooLarge(
        f"exponent {k} exceeds {MAX_POWER} on a base other than one term "
        f"with coefficient 1 or -1 (at position {pos})"
    )


def _size(terms):
    """(largest z-degree, largest numerator or denominator bit length) of
    the coefficients, a Q(z) one read as its numerator and monic denominator
    over Q.  An integer coefficient c of num or den over the positive leading
    coefficient l of den is (c/g)/(l/g) in lowest terms, g = gcd(c, l)."""
    degree = bits = 0
    for c in terms.values():
        if isinstance(c, RationalFunction):
            lead = c.den[0]
            degree = max(degree, len(c.num) - 1, len(c.den) - 1)
            for x in c.num + c.den:
                g = math.gcd(x, lead)
                bits = max(bits, (x // g).bit_length(), (lead // g).bit_length())
        else:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return degree, bits


class _Terms:
    """Mutable term map {exponent tuple: coefficient} during parsing."""

    __slots__ = ("rank", "field", "terms")

    def __init__(self, rank, field, terms=None):
        self.rank = rank
        self.field = field
        self.terms = terms if terms is not None else {}

    @classmethod
    def const(cls, rank, field, c):
        coeff = Fraction(c) if field == FIELD_Q else RationalFunction.const(c)
        return cls(rank, field, {(0,) * rank: coeff})

    @classmethod
    def scalar(cls, rank, field, s):
        return cls(rank, field, {(0,) * rank: s})

    @classmethod
    def variable(cls, rank, field, k):
        exp = tuple(1 if i == k else 0 for i in range(rank))
        one = Fraction(1) if field == FIELD_Q else RationalFunction.const(1)
        return cls(rank, field, {exp: one})

    def _clean(self):
        self.terms = {e: c for e, c in self.terms.items() if c != 0}
        return self

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return _Terms(self.rank, self.field, out)._clean()

    def __neg__(self):
        return _Terms(self.rank, self.field, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        pairs = len(self.terms) * len(other.terms)
        if pairs > MAX_TERM_PAIRS:
            raise ExpansionTooLarge(f"a product of {pairs} term pairs exceeds {MAX_TERM_PAIRS}")
        (d1, b1), (d2, b2) = _size(self.terms), _size(other.terms)
        # each product coefficient is a sum of at most this many products
        parts = pairs * (min(d1, d2) + 1)
        _check_product_size(d1 + d2, b1 + b2 + parts.bit_length())
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return _Terms(self.rank, self.field, out)._clean()

    def single_term(self):
        if len(self.terms) != 1:
            return None
        return next(iter(self.terms.items()))

    def inverse(self, pos):
        single = self.single_term()
        if single is None:
            raise PolySyntaxError("can only divide by a single term", pos)
        e, c = single
        if c == 0:
            raise PolySyntaxError("division by zero", pos)
        inv = (Fraction(1) / c) if isinstance(c, Fraction) else (RationalFunction.const(1) / c)
        return _Terms(self.rank, self.field, {tuple(-x for x in e): inv})

    def power(self, k, pos):
        if k < 0:
            return self.inverse(pos).power(-k, pos)
        if k and all(c == 0 for c in self.terms.values()):
            return self  # zero to a positive power is zero: no expansion to bound
        single = self.single_term()
        if single is not None and single[1] in (1, -1):
            e, c = single
            return _Terms(self.rank, self.field, {tuple(k * x for x in e): c if k % 2 else c * c})
        if k > MAX_POWER:
            raise _power_too_large(k, pos)
        out = _Terms.const(self.rank, self.field, 1)
        base = self
        while True:
            if k & 1:
                out = out * base
            k >>= 1
            if not k:
                return out
            base = base * base


class _Parser:
    def __init__(self, tokens, rank, field):
        self.tokens = tokens
        self.pos = 0
        self.rank = rank
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise PolySyntaxError(f"expected {kind}, found {tok[0]}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        val = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolySyntaxError(f"unexpected {tok[0]}", tok[2])
        return val

    def expr(self):
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        val = self.term()
        if sign < 0:
            val = -val
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            val = val + (-rhs if op == "-" else rhs)
        return val

    def term(self):
        """A product of powers.  When the product so far is one term and
        the next factor is x_k or x_k^e, ±e is added to exponent k of that
        term in place: the same term, and the same bound and errors, as
        multiplying by the term x_k^(±e) with coefficient 1."""
        val = self.power()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            if self.peek()[0] == "var" and len(val.terms) == 1:
                k, e = self.variable(), 1
                if self.peek()[0] == "^":
                    self.take()
                    e = self.exponent()
                # the bound of a product with a coefficient-1 term: z-degree
                # 0 and 1 bit, one pair and one part of 1 bit
                degree, bits = _size(val.terms)
                _check_product_size(degree, bits + 2)
                exp, c = val.single_term()
                exp = list(exp)
                exp[k] += -e if op == "/" else e
                val.terms = {tuple(exp): c} if c != 0 else {}
                continue
            rhs = self.power()
            val = val * (rhs.inverse(pos) if op == "/" else rhs)
        return val

    def power(self):
        """An atom and its exponent.  z^e is built as the canonical z^e or
        1/z^|e| at once: the same coefficient, and the same bound and
        errors, as powering the term z."""
        is_z = self.peek()[0] == "z"
        val = self.atom()
        if self.peek()[0] != "^":
            return val
        _, _, pos = self.take()
        k = self.exponent()
        if not is_z:
            return val.power(k, pos)
        if abs(k) > MAX_POWER:
            raise _power_too_large(abs(k), pos)
        mono = (1,) + (0,) * abs(k)
        num, den = (mono, (1,)) if k >= 0 else ((1,), mono)
        return _Terms.scalar(self.rank, self.field, RationalFunction.canonical(num, den))

    def variable(self):
        """The 0-based index of the variable token taken, within the rank."""
        _, value, pos = self.take()
        if value < 1 or value > self.rank:
            raise RankMismatch(f"variable x{value} outside rank {self.rank} (position {pos})")
        return value - 1

    def exponent(self):
        parens = False
        if self.peek()[0] == "(":
            self.take()
            parens = True
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.take("int")
        if parens:
            self.take(")")
        return sign * tok[1]

    def atom(self):
        tok = self.peek()
        kind, value, pos = tok
        if kind == "int":
            self.take()
            return _Terms.const(self.rank, self.field, value)
        if kind == "z":
            self.take()
            if self.field != FIELD_QZ:
                raise PolySyntaxError("the variable z needs the field Q(z)", pos)
            return _Terms.scalar(self.rank, self.field, RationalFunction.canonical((1, 0), (1,)))
        if kind == "var":
            return _Terms.variable(self.rank, self.field, self.variable())
        if kind == "(":
            self.take()
            val = self.expr()
            self.take(")")
            return val
        raise PolySyntaxError(f"unexpected {kind}", pos)


def scan_field(text) -> str:
    """Q(z) when the text holds a z, else Q: in a text that parses, each z is a token."""
    return FIELD_QZ if "z" in text else FIELD_Q


def parse_terms(text, rank=None, field=None):
    """(rank, field, {exponent tuple: coefficient}) from one token pass: an
    omitted rank is the largest variable index (at least 1), an omitted field
    Q(z) when z occurs.  Only a bare zero like '0' or '0^3' leaves a zero."""
    if rank is not None:
        _check_rank(rank)
    tokens = _tokenize(text)
    if rank is None:
        rank = max([1] + [value for kind, value, _ in tokens if kind == "var"])
    if field is None:
        field = FIELD_QZ if any(kind == "z" for kind, _, _ in tokens) else FIELD_Q
    try:
        terms = _Parser(tokens, rank, field).parse().terms
    except RecursionError:
        raise PolySyntaxError("parentheses nested too deeply", 0) from None
    if any(abs(x).bit_length() > _MAX_COEFF_BITS for e in terms for x in e):
        raise ExpansionTooLarge(f"an exponent may exceed {MAX_COEFF_DIGITS} digits")
    return rank, field, terms


def parse_scalar(text, field):
    """A single coefficient per the scalar grammar."""
    terms = parse_terms(text, 0, field)[2]
    if not terms:
        from .errors import ZeroInput

        raise ZeroInput(f"scalar {text!r} is zero")
    return terms[()]


def parse_poly_z(text) -> RationalFunction:
    """A plain polynomial in z (den of length 1), for place strings."""
    f = parse_scalar(text, FIELD_QZ)
    if len(f.den) > 1:
        raise PolySyntaxError(f"{text!r} is not a polynomial in z", 0)
    return f
