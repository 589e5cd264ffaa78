"""Exact coefficient fields, places, and valuations.

Rational numbers are plain ``fractions.Fraction``; rational functions in one
variable ``z`` over Q are reduced fractions of dense polynomials.  Places of Q
are the primes and the archimedean absolute value.  Places of Q(z) are the
monic irreducible polynomials and the degree place at infinity; the place at a
monic irreducible q carries weight deg(q) and infinity weight 1, which makes
the product formula an exact integer identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FactorizationTooLarge, InvalidPlace, PlaceFieldMismatch, ZeroInput

FIELD_Q = "Q"
FIELD_QZ = "Q(z)"


# ---------------------------------------------------------------------------
# univariate polynomials over Q


class Poly:
    """Dense univariate polynomial over Q in the variable z.

    Coefficients are stored low degree first with trailing zeros trimmed, so
    equal polynomials have equal tuples.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls((Fraction(c),))

    @property
    def degree(self):
        """Degree, with deg 0 = -1 by convention."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero():
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return Poly(q), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading
        return Poly(c / lead for c in self.coeffs)

    def __str__(self):
        if self.is_zero():
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


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Poly")


Z = Poly((0, 1))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q (zero when both are zero).

    A nonzero constant argument gives 1 at once.  Otherwise sympy takes the
    gcd over Z of the coefficients with denominators cleared, which avoids
    the coefficient growth of Euclid over Q; the monic gcd is unique, so
    making it monic gives the same polynomial.
    """
    if a.degree == 0 or b.degree == 0:
        return Poly.const(1)
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dup_gcd

    def integer_coeffs(f):
        den = math.lcm(*(c.denominator for c in f.coeffs))
        return [c.numerator * (den // c.denominator) for c in reversed(f.coeffs)]

    g = dup_gcd(integer_coeffs(a), integer_coeffs(b), ZZ)
    return Poly(int(c) for c in reversed(g)).monic()


# ---------------------------------------------------------------------------
# rational functions over Q


class RationalFunction:
    """Reduced fraction of polynomials over Q with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = Poly.const(1) if den is None else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly.const(1)
        else:
            g = poly_gcd(num, den)
            if g.degree >= 1:
                num, r1 = divmod(num, g)
                den, r2 = divmod(den, g)
                assert r1.is_zero() and r2.is_zero()
            lead = den.leading
            if lead != 1:
                num = Poly(c / lead for c in num.coeffs)
                den = Poly(c / lead for c in den.coeffs)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c):
        return cls(Poly.const(c))

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree <= 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        if self.is_zero():
            return Fraction(0)
        return self.num.coeffs[0]

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_ratfunc(other) + (-self)

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_ratfunc(other) / self

    def __str__(self):
        if self.den == Poly.const(1):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def _as_ratfunc(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction.const(x)
    if isinstance(x, Poly):
        return RationalFunction(x)
    return NotImplemented


def field_of(a) -> str:
    if isinstance(a, Fraction):
        return FIELD_Q
    if isinstance(a, RationalFunction):
        return FIELD_QZ
    raise TypeError(f"not a scalar: {a!r}")


def scalar_to_str(a) -> str:
    return str(a)


# ---------------------------------------------------------------------------
# factorization over Z and Q[z] is sympy's (imported lazily: it is slow to load)


# Trial-division limit (and the matching rho and p-1 effort) of the first,
# bounded factoring pass.  It splits products of 7-digit primes in full.
FACTOR_LIMIT = 10**5
# A composite cofactor left by that pass is factored in full only below
# 10**MAX_COFACTOR_DIGITS: on a 2-core VM sympy takes 1-2 s for two
# 15-digit primes and about 35 s for two 20-digit primes.
MAX_COFACTOR_DIGITS = 30


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n|, primes ascending; ignores the sign.

    Raises FactorizationTooLarge when the bounded pass leaves a composite
    cofactor of more than MAX_COFACTOR_DIGITS digits."""
    if n == 0:
        raise ZeroInput("cannot factor zero")
    import sympy

    out = {}
    for q, e in sympy.factorint(abs(n), limit=FACTOR_LIMIT).items():
        if sympy.isprime(q):
            out[q] = out.get(q, 0) + e
            continue
        if q >= 10**MAX_COFACTOR_DIGITS:
            raise FactorizationTooLarge(
                f"a composite factor of {q.bit_length()} bits is left after trial "
                f"division to {FACTOR_LIMIT}; factoring stops past "
                f"{MAX_COFACTOR_DIGITS} digits"
            )
        for p, f in sympy.factorint(q).items():
            out[p] = out.get(p, 0) + e * f
    return dict(sorted(out.items()))


def irreducible_factors(f: Poly) -> tuple[Poly, ...]:
    """Distinct monic irreducible factors of f over Q, sorted."""
    if f.is_zero():
        raise ZeroInput("zero polynomial")
    if f.degree <= 0:
        return ()
    import sympy

    expr = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)],
        sympy.Symbol("z"),
        domain="QQ",
    )
    _, factors = expr.factor_list()
    out = []
    for fac, _mult in factors:
        cs = [Fraction(int(c.numerator), int(c.denominator)) for c in fac.all_coeffs()]
        out.append(Poly(reversed(cs)).monic())
    return tuple(sorted(out, key=lambda p: (p.degree, p.coeffs)))


def is_irreducible(q: Poly) -> bool:
    if q.degree < 1:
        return False
    facs = irreducible_factors(q)
    return len(facs) == 1 and facs[0] == q.monic()


def ord_at(f: Poly, q: Poly) -> int:
    """Multiplicity of the irreducible q in the nonzero polynomial f."""
    if f.is_zero():
        raise ZeroInput("zero polynomial")
    count = 0
    while f.degree >= q.degree:
        d, r = divmod(f, q)
        if not r.is_zero():
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
        if self.q.is_zero() or self.q.leading != 1:
            raise InvalidPlace(f"{self.q} is not monic")
        if not is_irreducible(self.q):
            raise InvalidPlace(f"{self.q} is not irreducible over Q")


def _factor_place(q: Poly) -> FiniteIrreducible:
    """The place of a factor that ``irreducible_factors`` returned, which is
    monic and irreducible already, so it is not factored again."""
    place = object.__new__(FiniteIrreducible)
    object.__setattr__(place, "q", q)
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
            return a.den.degree - a.num.degree
        raise PlaceFieldMismatch(f"{place_to_str(place)} is not a finite place of Q(z)")
    raise TypeError(f"not a scalar: {a!r}")


def place_weight(place) -> float:
    """Normalization weight: log p, deg q, or 1 at infinity."""
    if isinstance(place, FinitePrime):
        return math.log(place.p)
    if isinstance(place, FiniteIrreducible):
        return float(place.q.degree)
    if isinstance(place, FunctionFieldInfinity):
        return 1.0
    raise PlaceFieldMismatch(f"{place_to_str(place)} has no finite-place weight")


def log_abs(a, place) -> float:
    """Minus the log of the normalized absolute value of a at the place."""
    if isinstance(place, ArchimedeanQ):
        if not isinstance(a, Fraction):
            raise PlaceFieldMismatch("archimedean place only applies to rationals")
        if a == 0:
            raise ZeroInput("absolute value of zero")
        return math.log(a.denominator) - math.log(abs(a.numerator))
    return valuation(a, place) * place_weight(place)


def support_places(values) -> frozenset:
    """Finite places where some entry of the list has nonzero valuation."""
    values = list(values)
    if not values:
        return frozenset()
    fields = {field_of(a) for a in values}
    if len(fields) > 1:
        raise PlaceFieldMismatch("mixed coefficient fields")
    out = set()
    if fields == {FIELD_Q}:
        for a in values:
            if a == 0:
                raise ZeroInput("support of zero is undefined")
            for n in (a.numerator, a.denominator):
                for p in factor_int(n):
                    out.add(FinitePrime(p))
    else:
        for a in values:
            if a.is_zero():
                raise ZeroInput("support of zero is undefined")
            for poly in (a.num, a.den):
                for q in irreducible_factors(poly):
                    out.add(_factor_place(q))
            if valuation(a, FF_INFINITY) != 0:
                out.add(FF_INFINITY)
    return frozenset(out)


def product_formula_residual(a):
    """Sum of -log|a|_p over all places.

    Exactly zero in exact arithmetic.  For rational functions the sum is the
    exact integer sum(deg q * ord_q) + ord_infinity and the int 0 is returned
    for every nonzero input; for rationals the float rounding residual is
    returned.
    """
    if isinstance(a, Fraction):
        if a == 0:
            raise ZeroInput("product formula for zero")
        total = log_abs(a, ARCH)
        for n in (a.numerator, a.denominator):
            for p in factor_int(n):
                total += valuation(a, FinitePrime(p)) * math.log(p)
        return total
    if isinstance(a, RationalFunction):
        if a.is_zero():
            raise ZeroInput("product formula for zero")
        total = valuation(a, FF_INFINITY)
        seen = set()
        for poly in (a.num, a.den):
            for q in irreducible_factors(poly):
                if q not in seen:
                    seen.add(q)
                    total += q.degree * valuation(a, _factor_place(q))
        return total
    raise TypeError(f"not a scalar: {a!r}")
