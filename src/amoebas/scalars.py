"""Exact coefficient fields, places, and valuations.

Rational numbers are plain ``fractions.Fraction``; rational functions in one
variable ``z`` over Q are coprime pairs of integer polynomials in sympy's
dense order, and their arithmetic is sympy's dense arithmetic over ZZ
(imported on first use: sympy is slow to load) followed by one cancel,
except with a constant operand, which only scales by integers, and in a
sum, difference or product of two polynomials, whose integer result needs
no cancel.  A polynomial is a rational function whose den has length 1; a
monic one has a primitive num.  Coefficients print over the leading
coefficient of den, so the printed denominator is monic.  Places of Q
are the primes and the archimedean absolute value.  Places of Q(z) are the
monic irreducible polynomials and the degree place at infinity; the place at a
monic irreducible q carries weight deg(q) and infinity weight 1, which makes
the product formula an exact integer identity.  The places of a coefficient
are the irreducible factors of its numerator and denominator.  A polynomial
that an exact integer test proves irreducible is its own factor: degree 1, a
quadratic whose discriminant is not a square, or Eisenstein's criterion at a
prime of the gcd of the coefficients below the leading one, when that gcd is
below FACTOR_LIMIT.  Every other polynomial falls through to sympy's
Zassenhaus factoring.
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
# rational functions over Q, on sympy's dense integer polynomials; a
# polynomial is one whose den has length 1


class RationalFunction:
    """Element of Q(z) as num / den, two tuples of ints high degree first
    (sympy's dense order), coprime in Z[z], with a positive leading
    coefficient in den; zero is ((), (1,)).  This form is unique, so equal
    values have equal pairs.  An operation with two nonconstant operands
    ends in one ``dup_cancel`` over ZZ, which keeps coefficient growth down
    without any division in Q, unless both are polynomials and it is not a
    division: then the result is a polynomial over 1 and needs none.  One
    with a constant operand divides out the integer content alone.
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

    def monic(self):
        """self over the leading coefficient of num over that of den, or
        zero.  A monic polynomial is its primitive integer num over
        (num[0],): the form of the places q and of the factors."""
        return self / Fraction(self.num[0], self.den[0]) if self.num else self

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its Fraction, so it hashes as that Fraction
        if self.is_constant():
            return hash(Fraction(self.num[0] if self.num else 0, self.den[0]))
        return hash(("RationalFunction", self.num, self.den))

    def __neg__(self):
        return RationalFunction.canonical(tuple(-c for c in self.num), self.den)

    def _combine(self, other, op):
        """self op other for op in '+-*/': sympy's dense arithmetic over ZZ
        on the integer pairs, then the one cancel of the constructor.  When
        one operand is a constant, the products only scale by integers and
        only the integer content can cancel: the other operand's num and den
        are coprime, so no polynomial of positive degree divides both parts
        of the result.  When both are polynomials (den 1), a sum, difference
        or product is a polynomial over 1, already canonical.  Those paths
        need no sympy."""
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if op == "/" and other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if self.is_constant() or other.is_constant():
            return _combine_scaled(self, other, op)
        if op != "/" and self.den == other.den == (1,):
            num = _mul(self.num, other.num) if op == "*" else _add(self.num, other.num, op)
            return RationalFunction.canonical(num, (1,))
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
        """num and den over den's leading coefficient, so that the printed
        denominator is monic."""
        lead = self.den[0]
        if len(self.den) == 1:
            return _dense_str(self.num, lead)
        return f"({_dense_str(self.num, lead)})/({_dense_str(self.den, lead)})"

    def __repr__(self):
        return f"RationalFunction({self})"


def _dense_str(ints, lead):
    """The polynomial with coefficients ints / lead (high degree first,
    lead > 0) as text: terms from the top degree down, zero terms left out,
    each coefficient a reduced fraction, left out where it is 1 before a
    power of z."""
    parts = []
    for e, x in zip(range(len(ints) - 1, -1, -1), ints):
        if not x:
            continue
        c = abs(Fraction(x, lead))
        if e == 0:
            body = str(c)
        else:
            zpart = "z" if e == 1 else f"z^{e}"
            body = zpart if c == 1 else f"{c}*{zpart}"
        parts.append(("-" if x < 0 else "+" if parts else "") + body)
    return "".join(parts) or "0"


def _scale(f, g):
    """f * g for integer polynomials, high degree first, one of degree <= 0."""
    if len(f) > len(g):
        f, g = g, f
    return tuple(f[0] * x for x in g) if f else ()


def _mul(f, g):
    """f * g for nonzero integer polynomials, high degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return tuple(out)


def _add(p, q, op):
    """p + q or p - q (op '+' or '-') for integer polynomials, high degree
    first, with leading zeros stripped."""
    width = max(len(p), len(q))
    p, q = (0,) * (width - len(p)) + p, (0,) * (width - len(q)) + q
    sign = 1 if op == "+" else -1
    num = tuple(u + sign * v for u, v in zip(p, q))
    return num[next((i for i, u in enumerate(num) if u), len(num)):]


def _combine_scaled(x, y, op):
    """x op y when x or y is a constant: integer scaling and addition, then
    the integer content divided out and den's leading coefficient made
    positive."""
    a, b, c, d = x.num, x.den, y.num, y.den
    if op == "/":
        c, d = d, c
    den = _scale(b, d)
    num = _scale(a, c) if op in "*/" else _add(_scale(a, d), _scale(c, b), op)
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


def _proved_irreducible(f) -> bool:
    """Whether an exact integer test proves the integer polynomial f (high
    degree first, degree at least 1) irreducible over Q.  The tests run on
    its primitive part g = a_n z^n + ... + a_0: deg g = 1; deg g = 2 and the
    discriminant is not a square; or Eisenstein's criterion at a prime p of
    gcd(a_{n-1}, ..., a_0) with p^2 not dividing a_0 (p does not divide a_n,
    as g is primitive), that gcd being factored only below FACTOR_LIMIT.
    False says only that no test applies."""
    content = math.gcd(*f)
    g = [c // content for c in f]
    if len(g) == 2:
        return True
    if len(g) == 3:
        a, b, c = g
        disc = b * b - 4 * a * c
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    tail = math.gcd(*g[1:])
    return 1 < tail < FACTOR_LIMIT and any(g[-1] % (p * p) for p in factor_int(tail))


def _factor_list(f) -> dict[RationalFunction, int]:
    """{monic irreducible factor over Q: multiplicity} of the integer
    polynomial f (high degree first) of degree at least 1, sorted by degree,
    then by the monic coefficients from the constant term up.

    When ``_proved_irreducible`` proves f irreducible (a linear factor, a
    quadratic with a non-square discriminant, or an Eisenstein polynomial)
    the answer is f made monic, once; every other f is factored by sympy's
    ``dup_factor_list`` (Zassenhaus: modular factoring and Hensel lifting),
    which gives the same answer on those."""
    if _proved_irreducible(f):
        return {RationalFunction.canonical(tuple(f), (1,)).monic(): 1}
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list

    _, factors = dup_factor_list(list(f), ZZ)
    out = {}
    for fac, mult in factors:
        q = RationalFunction.canonical(tuple(map(int, fac)), (1,)).monic()
        out[q] = out.get(q, 0) + mult
    key = lambda item: (len(item[0].num), [Fraction(c, item[0].den[0]) for c in item[0].num[::-1]])
    return dict(sorted(out.items(), key=key))


def irreducible_factors(f: RationalFunction) -> tuple[RationalFunction, ...]:
    """Distinct monic irreducible factors of the polynomial f over Q, sorted;
    a RationalFunction whose den has length > 1 raises ValueError."""
    if not f:
        raise ZeroInput("zero polynomial")
    if len(f.den) > 1:
        raise ValueError(f"{f} is not a polynomial")
    if len(f.num) <= 1:
        return ()
    return tuple(_factor_list(f.num))


def is_irreducible(q: RationalFunction) -> bool:
    if len(q.num) <= 1:
        return False
    facs = irreducible_factors(q)
    return len(facs) == 1 and facs[0] == q.monic()


def ord_at(f, q: RationalFunction) -> int:
    """Multiplicity of the monic irreducible q in the nonzero integer
    polynomial f (dense, high degree first).  By Gauss's lemma a primitive
    polynomial divides f over Q exactly when it does over Z, so f is divided
    by q.num, the primitive integer form of q, over ZZ."""
    if not f:
        raise ZeroInput("zero polynomial")
    from sympy.polys.densearith import dup_div
    from sympy.polys.domains import ZZ

    p = list(q.num)
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
    """The place of a monic irreducible polynomial q, a RationalFunction
    whose den has length 1."""

    q: RationalFunction

    def __post_init__(self):
        if len(self.q.den) > 1 or not self.q or self.q.num[0] != self.q.den[0]:
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
        return len(place.q.num) - 1
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


def valuations(values) -> list[dict]:
    """{place: v(a)} at the finite places where v(a) != 0, for each nonzero
    scalar a of the list: the primes of its numerator, then of its
    denominator, each ascending; over Q(z) the irreducible factors of num,
    then of den, each sorted, then infinity when their degrees differ.
    Numerator and denominator are coprime, so no place repeats, and the
    multiplicities of their factorizations are the valuations.  Each
    distinct numerator and denominator (an integer up to sign, or an
    integer polynomial) is factored once per call."""
    values = list(values)
    if len({field_of(a) for a in values}) > 1:
        raise PlaceFieldMismatch("mixed coefficient fields")
    factored = {}

    def factors(n):
        if n not in factored:
            if isinstance(n, int):
                found = {_factored(FinitePrime, "p", p): e for p, e in factor_int(n).items()}
            elif len(n) > 1:
                found = {_factored(FiniteIrreducible, "q", q): e for q, e in _factor_list(n).items()}
            else:
                found = {}
            factored[n] = found
        return factored[n]

    out = []
    for a in values:
        if not a:
            raise ZeroInput("support of zero is undefined")
        num, den = (abs(a.numerator), a.denominator) if isinstance(a, Fraction) else (a.num, a.den)
        v = dict(factors(num))
        v.update((place, -e) for place, e in factors(den).items())
        if isinstance(a, RationalFunction) and len(a.num) != len(a.den):
            v[FF_INFINITY] = len(a.den) - len(a.num)
        out.append(v)
    return out


def product_formula_residual(a):
    """Sum of log_abs(a, p) over all places: ARCH first over Q, then the
    finite places in the order of valuations, each log_abs read off the
    factorization as v(a) times the place's weight.

    Exactly zero in exact arithmetic.  For rational functions every term is
    an int, so the int 0 is returned for every nonzero input; for rationals
    the float rounding residual is returned.
    """
    field = field_of(a)
    if not a:
        raise ZeroInput("product formula for zero")
    total = log_abs(a, ARCH) if field == FIELD_Q else 0
    for place, v in valuations([a])[0].items():  # not sum(), which compensates float sums from Python 3.12 on
        total += v * place_weight(place)
    return total
