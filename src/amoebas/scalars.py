"""Exact coefficient fields, places, and valuations.

Rational numbers are plain ``fractions.Fraction``; rational functions in one
variable ``z`` over Q are coprime pairs of integer polynomials in sympy's
dense order, and their arithmetic is sympy's dense arithmetic over ZZ
(imported on first use: sympy is slow to load), except with a constant
operand, which only scales by integers.  ``Poly``, a dense
polynomial over Q with no arithmetic, is the value type of the places and of
printed coefficients, which show a monic denominator.  Places of Q
are the primes and the archimedean absolute value.  Places of Q(z) are the
monic irreducible polynomials and the degree place at infinity; the place at a
monic irreducible q carries weight deg(q) and infinity weight 1, which makes
the product formula an exact integer identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FactorizationTooLarge,
    InternalInvariantError,
    InvalidPlace,
    PlaceFieldMismatch,
    ZeroInput,
)

FIELD_Q = "Q"
FIELD_QZ = "Q(z)"


# ---------------------------------------------------------------------------
# polynomials over Q (places and printing) and rational functions over Q
# (arithmetic, on sympy's dense integer polynomials)


class Poly:
    """Dense univariate polynomial over Q in the variable z: the value type
    of the places q and of printed coefficients; it does no arithmetic.

    Coefficients are stored low degree first with trailing zeros trimmed, so
    equal polynomials have equal tuples.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        """Degree, with deg 0 = -1 by convention."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if not self.coeffs:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def monic(self):
        if not self.coeffs:
            return self
        lead = self.leading
        return Poly(c / lead for c in self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                body = str(abs(c))
            else:
                zpart = "z" if e == 1 else f"z^{e}"
                body = zpart if abs(c) == 1 else f"{abs(c)}*{zpart}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def _integer_coeffs(f: Poly) -> list[int]:
    """f with its denominators cleared, high degree first (sympy's dense
    order); primitive when f is monic."""
    den = math.lcm(*(c.denominator for c in f.coeffs))
    return [c.numerator * (den // c.denominator) for c in reversed(f.coeffs)]


class RationalFunction:
    """Element of Q(z) as num / den, two tuples of ints high degree first
    (sympy's dense order), coprime in Z[z], with a positive leading
    coefficient in den; zero is ((), (1,)).  This form is unique, so equal
    values have equal pairs.  Every operation with two nonconstant operands
    ends in one ``dup_cancel`` over ZZ, which keeps coefficient growth down
    without any division in Q; one with a constant operand divides out the
    integer content alone.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        from sympy.polys.densebasic import dup_strip
        from sympy.polys.domains import ZZ
        from sympy.polys.euclidtools import dup_cancel

        num, den = dup_strip(list(num)), dup_strip(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        num, den = dup_cancel(num, den, ZZ)
        self.num = tuple(map(int, num))
        self.den = tuple(map(int, den))

    @classmethod
    def canonical(cls, num, den):
        """num / den from a pair already in the canonical form, uncancelled."""
        out = object.__new__(cls)
        out.num, out.den = num, den
        return out

    @classmethod
    def const(cls, c):
        c = Fraction(c)
        return cls.canonical((c.numerator,) if c else (), (c.denominator,))

    def is_zero(self):
        return not self.num

    def is_constant(self):
        return len(self.num) <= 1 and len(self.den) == 1

    def view(self) -> tuple[Poly, Poly]:
        """(numerator, denominator) over Q with the denominator monic: the
        form that is printed and whose sizes the parser bounds."""
        lead = self.den[0]
        return tuple(Poly(Fraction(c, lead) for c in reversed(p)) for p in (self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RationalFunction", self.num, self.den))

    def __neg__(self):
        return RationalFunction.canonical(tuple(-c for c in self.num), self.den)

    def _combine(self, other, op):
        """self op other for op in '+-*/': sympy's dense arithmetic over ZZ
        on the integer pairs, then the one cancel of the constructor.  When
        one operand is a constant, the products only scale by integers and
        only the integer content can cancel: the other operand's num and den
        are coprime, so no polynomial of positive degree divides both parts
        of the result.  That path needs no sympy."""
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if op == "/" and other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if self.is_constant() or other.is_constant():
            return _combine_scaled(self, other, op)
        from sympy.polys.densearith import dup_add, dup_mul, dup_sub
        from sympy.polys.domains import ZZ

        a, b, c, d = map(list, (self.num, self.den, other.num, other.den))
        mul = lambda f, g: dup_mul(f, g, ZZ)
        if op == "*":
            return RationalFunction(mul(a, c), mul(b, d))
        if op == "/":
            return RationalFunction(mul(a, d), mul(b, c))
        cross = (dup_add if op == "+" else dup_sub)(mul(a, d), mul(c, b), ZZ)
        return RationalFunction(cross, mul(b, d))

    def __add__(self, other):
        return self._combine(other, "+")

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, "-")

    def __rsub__(self, other):
        return _as_ratfunc(other) - self

    def __mul__(self, other):
        return self._combine(other, "*")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._combine(other, "/")

    def __rtruediv__(self, other):
        return _as_ratfunc(other) / self

    def __str__(self):
        num, den = self.view()
        if den.degree == 0:
            return str(num)
        return f"({num})/({den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def _scale(f, g):
    """f * g for integer polynomials, high degree first, one of degree <= 0."""
    if len(f) > len(g):
        f, g = g, f
    return tuple(f[0] * x for x in g) if f else ()


def _combine_scaled(x, y, op):
    """x op y when x or y is a constant: integer scaling and addition, then
    the integer content divided out and den's leading coefficient made
    positive."""
    a, b, c, d = x.num, x.den, y.num, y.den
    if op == "/":
        c, d = d, c
    den = _scale(b, d)
    if op in "*/":
        num = _scale(a, c)
    else:
        p, q = _scale(a, d), _scale(c, b)
        width = max(len(p), len(q))
        p, q = (0,) * (width - len(p)) + p, (0,) * (width - len(q)) + q
        sign = 1 if op == "+" else -1
        num = tuple(u + sign * v for u, v in zip(p, q))
        num = num[next((i for i, u in enumerate(num) if u), len(num)):]
    if not num:
        return RationalFunction.canonical((), (1,))
    g = math.gcd(*num, *den) * (1 if den[0] > 0 else -1)
    return RationalFunction.canonical(tuple(u // g for u in num), tuple(u // g for u in den))


def _as_ratfunc(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction.const(x)
    return NotImplemented


def field_of(a) -> str:
    if isinstance(a, Fraction):
        return FIELD_Q
    if isinstance(a, RationalFunction):
        return FIELD_QZ
    raise TypeError(f"not a scalar: {a!r}")


# ---------------------------------------------------------------------------
# factorization over Z and Q[z]: sympy's (imported lazily: it is slow to load),
# bar the rho that splits integers


# A number below 10**MAX_COFACTOR_DIGITS is factored in full: rho splits
# each composite piece first, and sympy's factorint finishes the pieces below
# FACTOR_LIMIT and those rho does not split, which on a 2-core VM takes 1-2 s
# for two 15-digit primes and about 35 s for two 20-digit primes.
MAX_COFACTOR_DIGITS = 30
# A larger one loses its prime factors below FACTOR_LIMIT by trial division.
# Every piece of what is left is then decided from its size first, since
# each test below runs on integers whose cost grows with their bit length:
# past PRIME_BITS bits it is refused; a perfect power is split into its
# root; a prime is kept; past RHO_BITS bits a composite is refused; else
# rho splits off a factor within RHO_STEPS evaluations of its map or the
# piece is refused.  RHO_STEPS ends _rho's round r = 2**14, by which it finds
# every cycle mod p of length up to 2**15 entered by step 32766: about
# 2*sqrt(p) evaluations find a prime p, so rho reaches about 10**9.  On a
# 2-core VM the slowest accepted cases measured are 37 9-digit primes (1021
# bits, 2.4 s) and a 4096-bit prime (0.7 s, almost all in isprime).
FACTOR_LIMIT = 10**5
PRIME_BITS = 4096
RHO_BITS = 1024
RHO_STEPS = 2**16


def _rho(m: int) -> int | None:
    """A factor 1 < d < m of the composite m, or None if Pollard rho finds
    none within RHO_STEPS evaluations of x -> x^2 + 1 from 2.

    Brent's cycle finding (R. P. Brent, "An improved Monte Carlo
    factorization algorithm", BIT 20 (1980) 176-184): in the round of each
    power of two r, x stays where the round starts and y runs 2r steps past
    it; the differences x - y of the last r steps are multiplied mod m, so
    that one gcd serves a block of steps, and a block whose gcd is m is
    retraced step by step."""
    block = 128
    y, r, q, g, steps = 2, 1, 1, 1, 0
    while g == 1:
        if steps + r > RHO_STEPS:
            return None
        x = y
        for _ in range(r):
            y = (y * y + 1) % m
        steps += r
        k = 0
        while k < r and g == 1:
            n = min(block, r - k)
            if steps + n > RHO_STEPS:
                return None
            start = y
            for _ in range(n):
                y = (y * y + 1) % m
                q = q * (x - y) % m
            g = math.gcd(q, m)
            k += n
            steps += n
        r *= 2
    if g == m:
        g = 1
        while g == 1:
            start = (start * start + 1) % m
            g = math.gcd(x - start, m)
    return g if g < m else None


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n|, primes ascending; ignores the sign.

    Raises FactorizationTooLarge on a piece past PRIME_BITS bits, a
    composite past RHO_BITS bits, or a composite that rho does not split."""
    if n == 0:
        raise ZeroInput("cannot factor zero")
    import sympy

    n, out = abs(n), {}
    if n >= 10**MAX_COFACTOR_DIGITS:
        for p in sympy.sieve.primerange(FACTOR_LIMIT):
            if n % p == 0:
                out[p] = sympy.multiplicity(p, n)
                n //= p ** out[p]
    pending = [(n, 1)] if n > 1 else []
    while pending:
        m, e = pending.pop()
        if m < 10**MAX_COFACTOR_DIGITS:
            if m >= FACTOR_LIMIT and sympy.isprime(m):
                out[m] = out.get(m, 0) + e
                continue
            if m < FACTOR_LIMIT or (d := _rho(m)) is None:
                for p, f in sympy.factorint(m).items():
                    out[p] = out.get(p, 0) + e * f
                continue
        elif m.bit_length() > PRIME_BITS:
            raise FactorizationTooLarge(
                f"a factor of {m.bit_length()} bits is left after trial division to "
                f"{FACTOR_LIMIT}; factoring stops past {PRIME_BITS} bits"
            )
        elif power := sympy.perfect_power(m):
            pending.append((power[0], e * power[1]))
            continue
        elif sympy.isprime(m):
            out[m] = out.get(m, 0) + e
            continue
        elif m.bit_length() > RHO_BITS:
            raise FactorizationTooLarge(
                f"a composite factor of {m.bit_length()} bits is left after trial division "
                f"to {FACTOR_LIMIT}; splitting stops past {RHO_BITS} bits"
            )
        elif (d := _rho(m)) is None:
            raise FactorizationTooLarge(
                f"no factor of a composite of {m.bit_length()} bits is found in "
                f"{RHO_STEPS} rho steps"
            )
        if not (1 < d < m and m % d == 0):
            raise InternalInvariantError(f"rho returned {d}, which does not split {m}")
        pending += [(d, e), (m // d, e)]
    return dict(sorted(out.items()))


def irreducible_factors(f: Poly) -> tuple[Poly, ...]:
    """Distinct monic irreducible factors of f over Q, sorted."""
    if not f.coeffs:
        raise ZeroInput("zero polynomial")
    if f.degree <= 0:
        return ()
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    _, factors = dup_factor_list(_integer_coeffs(f), ZZ)
    out = [Poly(int(c) for c in reversed(fac)).monic() for fac, _mult in factors]
    return tuple(sorted(out, key=lambda p: (p.degree, p.coeffs)))


def is_irreducible(q: Poly) -> bool:
    if q.degree < 1:
        return False
    facs = irreducible_factors(q)
    return len(facs) == 1 and facs[0] == q.monic()


def ord_at(f, q: Poly) -> int:
    """Multiplicity of the monic irreducible q in the nonzero integer
    polynomial f (dense, high degree first).  By Gauss's lemma a primitive
    polynomial divides f over Q exactly when it does over Z, so f is divided
    by the primitive integer form of q over ZZ."""
    if not f:
        raise ZeroInput("zero polynomial")
    from sympy.polys.densearith import dup_div
    from sympy.polys.domains import ZZ

    p = _integer_coeffs(q)
    f = list(f)
    count = 0
    while len(f) >= len(p):
        d, r = dup_div(f, p, ZZ)
        if r:
            break
        f = d
        count += 1
    return count


# ---------------------------------------------------------------------------
# places


@dataclass(frozen=True)
class FinitePrime:
    p: int

    def __post_init__(self):
        bits = self.p.bit_length()
        if bits > PRIME_BITS:  # refused from its size: the cost of isprime grows with it
            raise InvalidPlace(f"a prime place has at most {PRIME_BITS} bits, not {bits}")
        import sympy

        if not sympy.isprime(self.p):
            raise InvalidPlace(f"{self.p} is not prime")


@dataclass(frozen=True)
class ArchimedeanQ:
    pass


@dataclass(frozen=True)
class FiniteIrreducible:
    q: Poly

    def __post_init__(self):
        if not self.q.coeffs or self.q.leading != 1:
            raise InvalidPlace(f"{self.q} is not monic")
        if not is_irreducible(self.q):
            raise InvalidPlace(f"{self.q} is not irreducible over Q")


def _factored(place_type, attribute, value):
    """The place of a prime that ``factor_int`` returned, or of a factor
    that ``irreducible_factors`` returned (monic and irreducible already),
    built without place_type's check, which would prove it again."""
    place = object.__new__(place_type)
    object.__setattr__(place, attribute, value)
    return place


@dataclass(frozen=True)
class FunctionFieldInfinity:
    pass


@dataclass(frozen=True)
class GenericPlace:
    """Pseudo-place standing for the cofinite set of places where every
    coefficient under consideration is a unit (all valuations zero)."""


ARCH = ArchimedeanQ()
FF_INFINITY = FunctionFieldInfinity()
GENERIC = GenericPlace()


def place_to_str(place) -> str:
    if isinstance(place, FinitePrime):
        return f"p:{place.p}"
    if isinstance(place, FiniteIrreducible):
        return f"q:{place.q}"
    if isinstance(place, FunctionFieldInfinity):
        return "inf"
    if isinstance(place, ArchimedeanQ):
        return "arch"
    if isinstance(place, GenericPlace):
        return "generic"
    raise InvalidPlace(f"not a place: {place!r}")


def place_from_str(text: str):
    text = text.strip()
    if text == "inf":
        return FF_INFINITY
    if text == "arch":
        return ARCH
    if text == "generic":
        return GENERIC
    if text.startswith("p:"):
        body = text[2:]
        if not body.lstrip("-").isdigit():
            raise InvalidPlace(f"bad prime in {text!r}")
        return FinitePrime(int(body))
    if text.startswith("q:"):
        from .parsing import parse_poly_z

        return FiniteIrreducible(parse_poly_z(text[2:]).monic())
    raise InvalidPlace(f"cannot parse place {text!r}")


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(a, place) -> int:
    """Order of vanishing of the nonzero scalar a at the finite place."""
    if isinstance(a, Fraction):
        if a == 0:
            raise ZeroInput("valuation of zero is undefined")
        if isinstance(place, FinitePrime):
            return _int_valuation(a.numerator, place.p) - _int_valuation(
                a.denominator, place.p
            )
        raise PlaceFieldMismatch(f"{place_to_str(place)} is not a finite place of Q")
    if isinstance(a, RationalFunction):
        if a.is_zero():
            raise ZeroInput("valuation of zero is undefined")
        if isinstance(place, FiniteIrreducible):
            return ord_at(a.num, place.q) - ord_at(a.den, place.q)
        if isinstance(place, FunctionFieldInfinity):
            return len(a.den) - len(a.num)
        raise PlaceFieldMismatch(f"{place_to_str(place)} is not a finite place of Q(z)")
    raise TypeError(f"not a scalar: {a!r}")


def place_weight(place):
    """Normalization weight: the float log p, or the exact int deg q, or 1
    at infinity."""
    if isinstance(place, FinitePrime):
        return math.log(place.p)
    if isinstance(place, FiniteIrreducible):
        return place.q.degree
    if isinstance(place, FunctionFieldInfinity):
        return 1
    raise PlaceFieldMismatch(f"{place_to_str(place)} has no finite-place weight")


def log_abs(a, place):
    """Minus the log of the normalized absolute value of a at the place: a
    float over Q, an exact int at the places of Q(z)."""
    if isinstance(place, ArchimedeanQ):
        if not isinstance(a, Fraction):
            raise PlaceFieldMismatch("archimedean place only applies to rationals")
        if a == 0:
            raise ZeroInput("absolute value of zero")
        return math.log(a.denominator) - math.log(abs(a.numerator))
    return valuation(a, place) * place_weight(place)


def _support(a):
    """The finite places where the nonzero scalar a has nonzero valuation:
    the primes of its numerator, then of its denominator, each ascending;
    over Q(z) the irreducible factors of num, then of den, then infinity
    when their degrees differ.  Numerator and denominator are coprime, so no
    place repeats."""
    if isinstance(a, Fraction):
        for n in (a.numerator, a.denominator):
            yield from (_factored(FinitePrime, "p", p) for p in factor_int(n))
        return
    for poly in (a.num, a.den):
        factors = irreducible_factors(Poly(reversed(poly)))
        yield from (_factored(FiniteIrreducible, "q", q) for q in factors)
    if len(a.num) != len(a.den):
        yield FF_INFINITY


def support_places(values) -> frozenset:
    """Finite places where some entry of the list has nonzero valuation."""
    values = list(values)
    if len({field_of(a) for a in values}) > 1:
        raise PlaceFieldMismatch("mixed coefficient fields")
    out = set()
    for a in values:
        if not a:
            raise ZeroInput("support of zero is undefined")
        out.update(_support(a))
    return frozenset(out)


def product_formula_residual(a):
    """Sum of log_abs(a, p) over all places: ARCH first over Q, then the
    finite places in the order of _support.

    Exactly zero in exact arithmetic.  For rational functions every term is
    an int, so the int 0 is returned for every nonzero input; for rationals
    the float rounding residual is returned.
    """
    field = field_of(a)
    if not a:
        raise ZeroInput("product formula for zero")
    places = [ARCH, *_support(a)] if field == FIELD_Q else _support(a)
    total = 0
    for place in places:  # not sum(), which compensates float sums from Python 3.12 on
        total += log_abs(a, place)
    return total
