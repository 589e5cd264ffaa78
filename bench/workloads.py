"""Seeded inputs for the four benchmark workloads.

Every op is built from ``random.Random(f"{workload}/{seed}/{index}")`` (for
systems, from the system's index), plus exponent supports from fixed pools,
so the same seed always gives the same inputs, and op ``i`` does not depend
on how many ops a run reaches.  Ops come in fixed cycles of classes, so
every run holds each class in the same proportion.

Coefficients are kept in structured form next to the text the program
receives, so the oracles know every valuation without asking the program.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

Q = "Q"
QZ = "Q(z)"

# Distinct monic irreducible factors for small Q(z) coefficients.
SMALL_FACTORS = {"z": 1, "z-1": 1, "z+1": 1, "z-2": 1, "z^2+1": 2, "z+3": 1}


@dataclass(frozen=True)
class Coef:
    """const * prod(num) / prod(den) with num/den monic irreducible factors
    in z (empty for coefficients in Q)."""

    const: Fraction
    num: tuple = ()
    den: tuple = ()

    def text(self) -> str:
        c = f"({self.const})"
        if not self.num and not self.den:
            return c
        top = "*".join([c] + [f"({q})" for q in self.num])
        if not self.den:
            return f"({top})"
        bottom = "*".join(f"({q})" for q in self.den)
        return f"({top}/({bottom}))"


@dataclass(frozen=True)
class Poly:
    """A Laurent polynomial as (exponent tuple, Coef) terms."""

    rank: int
    field: str
    terms: tuple
    degrees: dict = field(default_factory=dict, compare=False, hash=False)

    def text(self) -> str:
        parts = []
        for exp, c in self.terms:
            mono = "*".join(
                f"x{k + 1}^{a}" if a != 1 else f"x{k + 1}" for k, a in enumerate(exp) if a
            )
            parts.append(c.text() + ("*" + mono if mono else ""))
        return " + ".join(parts)


@dataclass
class Op:
    """One timed call.  ``kind`` is cli, disjoint or arch; ``check`` holds
    what the oracle needs; ``cycle_end`` marks the last op of a cycle."""

    index: int
    kind: str
    label: str
    argv: list | None = None
    call: dict | None = None
    check: dict = field(default_factory=dict)
    cycle_end: bool = False


# ---------------------------------------------------------------------------
# number helpers (independent of the program)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


SMALL_PRIMES = tuple(p for p in range(2, 64) if is_prime(p))


def rand_fraction(rng, num, den):
    n = 0
    while n == 0:
        n = rng.randint(-num, num)
    return Fraction(n, rng.randint(1, den))


def rand_exponents(rng, rank, count, spread=2):
    out = set()
    while len(out) < count:
        out.add(tuple(rng.randint(-spread, spread) for _ in range(rank)))
    return sorted(out)


def one_place_per_term(rng, terms, fld, powers=(-1, 1, 2)):
    """Coefficients that each carry their own prime (Q) or irreducible
    factor (Q(z)), so that a polynomial of s terms has exactly s special
    places (s + 1 over Q(z), where z^2+1 on the first term adds infinity)."""
    if fld == Q:
        primes = rng.sample(SMALL_PRIMES[:6], terms)
        return [Coef(rng.choice((1, -1)) * Fraction(p) ** rng.choice(powers)) for p in primes]
    linear = rng.sample([q for q, d in SMALL_FACTORS.items() if d == 1], terms - 1)
    return [Coef(Fraction(rng.choice((1, -1)) * rng.randint(1, 3)), (q,))
            for q in ["z^2+1"] + linear]


def bad_places(poly, primes=SMALL_PRIMES):
    """Expected special places: the support of the ratios a_j / a_1, as a
    set of keys (prime ints for Q; factor strings and "inf" for Q(z))."""
    c1 = poly.terms[0][1]
    out = set()
    for _, c in poly.terms[1:]:
        if poly.field == Q:
            r = c.const / c1.const
            for n in (r.numerator, r.denominator):
                n = abs(n)
                for p in primes:
                    while n % p == 0:
                        out.add(p)
                        n //= p
                if n != 1:
                    raise ValueError(f"{r} has a prime factor outside the known set")
        else:
            counts = {}
            for q in c.num + c1.den:
                counts[q] = counts.get(q, 0) + 1
            for q in c.den + c1.num:
                counts[q] = counts.get(q, 0) - 1
            out |= {q for q, k in counts.items() if k}
            deg = sum(poly.degrees[q] * k for q, k in counts.items())
            if deg:
                out.add("inf")
    return out


def valuation(c: Coef, place, degrees):
    """Valuation of a coefficient at a place key (p int, factor string, inf)."""
    if place == "generic":
        return 0
    if isinstance(place, int):
        v = 0
        for n, sign in ((c.const.numerator, 1), (c.const.denominator, -1)):
            n = abs(n)
            while n % place == 0:
                n //= place
                v += sign
        return v
    if place == "inf":
        return sum(degrees[q] for q in c.den) - sum(degrees[q] for q in c.num)
    return c.num.count(place) - c.den.count(place)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    classes: tuple = ()
    run_cycles = 1  # cycles of a timed run with --seconds 20
    trace_cycles = 1  # cycles of a traced run

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def rng(self, i):
        return random.Random(f"{self.name}/{self.seed}/{i}")

    def cycles(self):
        """Endless cycles of ops, one op per class; indices run on."""
        i = 0
        while True:
            ops = [self.make(i + k, label, self.rng(i + k)) for k, label in enumerate(self.classes)]
            ops[-1].cycle_end = True
            i += len(ops)
            yield ops

    def setup(self, program, lap):
        """Library objects the ops need; built inside setup time, calling
        ``lap`` between the pieces so that the set-up clock can calibrate."""

    def round_robin(self, i, same_class, pool):
        """Element of pool for op i, taking pool in turn across the ops of
        the classes that ``same_class`` accepts (one op per class)."""
        cycle, pos = divmod(i, len(self.classes))
        slots = [p for p, label in enumerate(self.classes) if same_class(label)]
        return pool[(cycle * len(slots) + slots.index(pos)) % len(pool)]


class Hypersurface(Workload):
    """CLI ``adelic`` on random Laurent polynomials; 20% heavy tail."""

    name = "hypersurface"
    # (rank, terms, field); the last two of each cycle are the tail
    SHAPES = {
        "r2s4q": (2, 4, Q),
        "r2s4qz": (2, 4, QZ),
        "r2s5q": (2, 5, Q),
        "r3s4q": (3, 4, Q),
        "r3s4qz": (3, 4, QZ),
        "r2s6q": (2, 6, Q),
        "r3s5q": (3, 5, Q),
    }
    # sorted by cost the cycle reads r2s4q x2, r2s4qz, r3s4q x2, r3s4qz x2,
    # r2s5q, tail x2: the median falls between the two rank-3 classes, whose
    # costs overlap, and the p90 inside the tail
    classes = ("r2s4q", "r2s4qz", "r3s4q", "r3s4qz", "r2s5q",
               "r3s4q", "r2s4q", "r3s4qz", "r2s6q", "r3s5q")
    run_cycles = 10
    trace_cycles = 2

    def make(self, i, label, rng):
        """Exponent supports come from a fixed pool per class, one pass per
        run in a seeded order; the seed draws the coefficients.  So the
        generic skeletons, which depend on the support alone, cost the same
        for every seed, and the spread across seeds stays small."""
        rank, terms, fld = self.SHAPES[label]
        size = self.classes.count(label) * self.run_cycles
        offset = random.Random(f"{self.name}/{self.seed}/offset").randrange(size)
        k = self.round_robin(i, label.__eq__, range(offset, offset + size)) % size
        exps = rand_exponents(random.Random(f"{self.name}/support/{label}/{k}"), rank, terms)
        poly = Poly(rank, fld, tuple(zip(exps, one_place_per_term(rng, terms, fld))),
                    dict(SMALL_FACTORS))
        return Op(i, "cli", label, argv=adelic_argv(poly),
                  check={"oracle": "adelic", "poly": poly})


def _eisenstein(rng, p, degree):
    """A monic Eisenstein polynomial at p (irreducible over Q), as text."""
    coeffs = [p * rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(degree)]
    while coeffs[0] % (p * p) == 0:
        coeffs[0] += p
    parts = [f"z^{degree}"]
    for k in range(degree - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else ("*z" if k == 1 else f"*z^{k}")
        parts.append(f"{'+' if c > 0 else '-'}{abs(c)}{mono}")
    return "".join(parts)


class Coefficients(Workload):
    """Few terms, expensive coefficients: 6-7 digit prime products over Q,
    degree 4-5 irreducible factors over Q(z)."""

    name = "coefficients"
    classes = ("adelic_q", "pf_q", "adelic_qz", "pf_qz", "adelic_q3", "pf_q")
    run_cycles = 36
    trace_cycles = 6

    def _big_q(self, rng, nprimes):
        # a narrow range keeps the cost of trial division alike across seeds
        ps = [random_prime(rng, 1_000_000, 1_300_000) for _ in range(nprimes)]
        sign = rng.choice([1, -1])
        return Coef(Fraction(sign * math.prod(ps))), ps

    def _big_qz(self, rng, degrees):
        degree = rng.choice([4, 5])
        fac = _eisenstein(rng, rng.choice([2, 3, 5, 7]), degree)
        degrees[fac] = degree
        other = rng.choice(sorted(SMALL_FACTORS))
        num, den = ((fac,), (other,)) if rng.random() < 0.5 else ((other,), (fac,))
        return Coef(rand_fraction(rng, 9, 5), num, den)

    def make(self, i, label, rng):
        if label in ("adelic_q", "adelic_q3"):
            # rank and the place of the coefficient 1 are fixed per class:
            # they decide how many big numbers bad_places factors
            terms, rank = (3, 2) if label == "adelic_q3" else (2, 3)
            exps = rand_exponents(rng, rank, terms)
            coefs, primes = [Coef(Fraction(1))], set()
            for _ in exps[1:]:
                c, ps = self._big_q(rng, 2)
                coefs.append(c)
                primes |= set(ps)
            poly = Poly(rank, Q, tuple(zip(exps, coefs)))
            return Op(i, "cli", label, argv=adelic_argv(poly),
                      check={"oracle": "adelic", "poly": poly,
                             "primes": tuple(sorted(primes))})
        if label == "adelic_qz":
            degrees = dict(SMALL_FACTORS)
            rank = rng.choice([2, 3])
            exps = rand_exponents(rng, rank, rng.choice([2, 3]))
            coefs = [Coef(Fraction(1))] + [self._big_qz(rng, degrees) for _ in exps[1:]]
            poly = Poly(rank, QZ, tuple(zip(exps, coefs)), degrees)
            return Op(i, "cli", label, argv=adelic_argv(poly),
                      check={"oracle": "adelic", "poly": poly})
        if label == "pf_q":
            a, _ = self._big_q(rng, 2)
            b, _ = self._big_q(rng, 1)
            text = str(a.const / abs(b.const))
            return Op(i, "cli", label, argv=["product-formula", f"--a={text}"],
                      check={"oracle": "product_formula", "field": Q, "a": text})
        degrees = dict(SMALL_FACTORS)
        c = self._big_qz(rng, degrees)
        text = c.text()[1:-1]
        return Op(i, "cli", label, argv=["product-formula", f"--a={text}"],
                  check={"oracle": "product_formula", "field": QZ, "a": text})


# The two acceptance systems (rank 3 over Q(z), rank 4 over Q).
def _acceptance_systems():
    one, m1 = Coef(Fraction(1)), Coef(Fraction(-1))
    qz = [
        ((1, 0, 0), one), ((0, 1, 0), m1), ((0, 0, 0), m1),
    ], [
        ((1, 0, 0), one), ((0, 0, 1), m1), ((0, 0, 0), Coef(Fraction(-1), (), ("z",))),
    ], [
        ((0, 1, 0), one), ((0, 0, 1), m1), ((0, 0, 0), Coef(Fraction(1), ("z-1",), ("z",))),
    ]
    q = [
        ((1, 0, 0, 0), one), ((0, 1, 0, 0), m1), ((0, 0, 0, 0), m1),
    ], [
        ((1, 0, 0, 0), one), ((0, 0, 1, 0), m1), ((0, 0, 0, 0), Coef(Fraction(-2))),
    ], [
        ((0, 1, 0, 0), one), ((0, 0, 1, 0), m1), ((0, 0, 0, 0), m1),
    ]
    return {
        "accept_qz3": (3, QZ, [(Poly(3, QZ, tuple(t), dict(SMALL_FACTORS)), None) for t in qz]),
        "accept_q4": (4, Q, [(Poly(4, Q, tuple(t)), None) for t in q]),
    }


class System(Workload):
    """CLI ``prevariety --place P`` for the generic place and every bad
    place, then ``check-halfspace --system``, per system."""

    name = "system"
    # a cycle of systems; each system contributes 1 + #places + 1 ops.
    # Sorted by cost the 14 ops of a cycle read: random prevariety x4,
    # rank-3 acceptance prevariety x4, rank-4 acceptance prevariety x2,
    # random checks x2, then the two acceptance checks.  So the median
    # falls among the rank-3 acceptance ops and the p90 among the rank-4
    # acceptance checks, which are the same for every seed.
    classes = ("accept_qz3", "rand_r3c2", "accept_q4", "rand_r3c2map")
    run_cycles = 5
    trace_cycles = 1

    def _random_system(self, shape_rng, rng, label):
        """Two trinomials in rank 3.  Supports and maps come from shape_rng,
        drawn from a fixed pool like the hypersurface supports; the seed
        draws signs and which coefficient is +-2, so p:2 is the only bad
        place."""
        rank = 3
        cons = []
        for k in range(2):
            use_map = "map" in label and k == 0
            crank = rank - 1 if use_map else rank
            exps = rand_exponents(shape_rng, crank, 3, spread=1)
            sizes = [2, 1, 1]
            rng.shuffle(sizes)
            coefs = [Coef(Fraction(rng.choice([1, -1]) * m)) for m in sizes]
            mat = None
            while use_map and (mat is None or _int_rank(mat) < crank):
                mat = [[shape_rng.randint(-1, 1) for _ in range(rank)] for _ in range(crank)]
            cons.append((Poly(crank, Q, tuple(zip(exps, coefs))), mat))
        return rank, Q, cons

    def cycles(self):
        """Endless cycles of systems; each system gives several ops."""
        systems = _acceptance_systems()
        offset = random.Random(f"{self.name}/{self.seed}/offset").randrange(self.run_cycles)
        i = j = cycle = 0
        while True:
            ops = []
            shape = (cycle + offset) % self.run_cycles
            cycle += 1
            for label in self.classes:
                if label.startswith("accept"):
                    rank, fld, cons = systems[label]
                else:
                    shape_rng = random.Random(f"{self.name}/structure/{label}/{shape}")
                    rank, fld, cons = self._random_system(shape_rng, self.rng(j), label)
                ops += self._system_ops(i + len(ops), j, label, rank, fld, cons, self.rng(j))
                j += 1
            ops[-1].cycle_end = True
            i += len(ops)
            yield ops

    def _system_ops(self, start, j, label, rank, fld, cons, rng):
        path = os.path.join(self.workdir, f"system{j}.json")
        obj = {"rank": rank, "field": fld, "constraints": []}
        for poly, mat in cons:
            c = {"f": poly.text()}
            if mat is not None:
                c["map"] = mat
                c["rank"] = poly.rank
            obj["constraints"].append(c)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        places = set()
        for poly, _ in cons:
            places |= bad_places(poly)
        places = ["generic"] + sorted(places, key=str)
        system = {"rank": rank, "field": fld, "constraints": cons, "id": j,
                  "places": places}
        ops = []
        for place in places:
            ops.append(Op(start + len(ops), "cli", f"{label}:prevariety",
                          argv=["prevariety", "--system", path, "--place", place_arg(place)],
                          check={"oracle": "prevariety", "system": system, "place": place}))
        direction, boundary = rand_halfspace(rng, rank)
        ops.append(Op(start + len(ops), "cli", f"{label}:check",
                      argv=["check-halfspace", "--system", path,
                            "--halfspace", halfspace_text(direction, boundary)],
                      check={"oracle": "check_halfspace", "system": system,
                             "direction": direction, "boundary": boundary}))
        return ops


class Query(Workload):
    """Library calls: halfspace checks on adelic amoebas built during setup,
    and archimedean point verdicts near the origin."""

    name = "query"
    # (rank, terms, field), three of each.  When the sampler finds no
    # witness at a rank-3 point over Q it sweeps all its phase circles,
    # about 1 s for the default 200 against 1-50 ms for every other op, and
    # how many such points a seed draws varies widely.  So halfspace checks
    # use rank-2 amoebas over Q, whose sampler sweeps one circle, and
    # amoebas over Q(z), which have no archimedean place; the rank-3 point
    # verdicts use unimodular trinomials, where the triangle test is exact,
    # and ARCH_TRIALS circles.
    AMOEBAS = ((2, 4, Q), (2, 3, Q), (2, 4, QZ), (3, 4, QZ)) * 3
    POINT_POLYS = ((2, 4, Q), (2, 3, Q), (3, 3, Q), (3, 3, Q)) * 3
    # four halfspace checks (1-170 ms) to two point verdicts (1-20 ms), so
    # the median falls inside the halfspace checks, not between the kinds
    classes = ("disjoint", "arch", "disjoint_bnd", "disjoint", "arch_r3", "disjoint_bnd")
    run_cycles = 90
    trace_cycles = 6
    # Coordinates of directions and points are nonzero: at a point with a
    # zero coordinate, sampled_inside gives up on the whole phase sweep when
    # the slice at phase 0 degenerates and raises DegenerateSlice, e.g.
    # check-halfspace --f "x1^-2*x2 - 1 + x2^2" --halfspace "dir:-1,0".
    NONZERO = (-2, -1, 1, 2)
    ARCH_TRIALS = 20

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)

        def polys(kind, shapes):
            """Supports from a fixed pool, as in Hypersurface.  Amoeba
            coefficients carry one prime or factor per term to the first
            power, so every seed's amoebas have the same complexes up to
            relabelling and the seed draws the halfspaces.  Point polynomials
            get coefficients of like size from the seed, so that points near
            the origin are not lopsided and the triangle test and the sampler
            run."""
            out = []
            for k, (rank, terms, fld) in enumerate(shapes):
                support_rng = random.Random(f"{self.name}/support/{kind}{k}")
                exps = rand_exponents(support_rng, rank, terms)
                while kind == "point" and rank == 3 and not unimodular(exps):
                    exps = rand_exponents(support_rng, rank, terms)
                rng = random.Random(f"{self.name}/{seed}/{kind}{k}")
                if kind == "point":
                    coefs = [Coef(rand_fraction(rng, 3, 2)) for _ in exps]
                else:
                    coefs = one_place_per_term(rng, terms, fld, powers=(1,))
                out.append(Poly(rank, fld, tuple(zip(exps, coefs)), dict(SMALL_FACTORS)))
            return out

        self.polys = polys("amoeba", self.AMOEBAS)
        self.point_polys = polys("point", self.POINT_POLYS)

    def setup(self, program, lap):
        def parse(poly):
            return program.laurent.parse_poly(poly.text(), rank=poly.rank, field=poly.field)

        amoebas = []
        for p in self.polys:
            amoebas.append(program.tropical.adelic_amoeba(parse(p)))
            lap()
        return {"amoebas": amoebas, "points": [parse(p) for p in self.point_polys]}

    def make(self, i, label, rng):
        if label.startswith("arch"):
            rank = 3 if label == "arch_r3" else 2
            pool = [k for k, p in enumerate(self.point_polys) if p.rank == rank]
            k = self.round_robin(i, label.__eq__, pool)
            point = tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(2, 6))
                          for _ in range(rank))
            return Op(i, "arch", label,
                      call={"poly": k, "point": point, "rng": rng.randrange(1 << 30),
                            "trials": self.ARCH_TRIALS},
                      check={"oracle": "arch", "poly": self.point_polys[k]})
        k = self.round_robin(i, lambda lb: lb.startswith("disjoint"), range(len(self.polys)))
        rank = self.polys[k].rank
        direction, boundary = rand_halfspace(
            rng, rank, with_boundary=label == "disjoint_bnd", values=self.NONZERO)
        return Op(i, "disjoint", label,
                  call={"amoeba": k, "direction": direction, "boundary": boundary,
                        "rng": rng.randrange(1 << 30)},
                  check={"oracle": "disjoint", "poly": self.polys[k], "amoeba": k,
                         "direction": direction, "boundary": boundary})


WORKLOADS = {w.name: w for w in (Hypersurface, System, Query, Coefficients)}


# ---------------------------------------------------------------------------
# small helpers


def adelic_argv(poly):
    return ["adelic", "--f", poly.text(), "--rank", str(poly.rank), "--field", poly.field]


def place_arg(place) -> str:
    if place == "generic" or place == "inf":
        return place
    if isinstance(place, int):
        return f"p:{place}"
    return f"q:{place}"


def rand_halfspace(rng, rank, with_boundary=None, values=(-2, -1, 0, 1, 2)):
    """A random direction and, optionally, one unit boundary generator that
    the direction does not lie in the span of."""
    if with_boundary is None:
        with_boundary = rng.random() < 0.5
    while True:
        direction = tuple(rng.choice(values) for _ in range(rank))
        if not any(direction):
            continue
        if not with_boundary:
            return direction, ()
        k = rng.randrange(rank)
        if any(x for m, x in enumerate(direction) if m != k):
            return direction, (tuple(int(m == k) for m in range(rank)),)


def halfspace_text(direction, boundary) -> str:
    text = "dir:" + ",".join(map(str, direction))
    if boundary:
        text += " bnd:" + ";".join(",".join(map(str, g)) for g in boundary)
    return text


def unimodular(exps) -> bool:
    """Whether a trinomial's two exponent differences extend to a lattice
    basis: the 2x2 minors of their matrix have gcd one."""
    u0, u1, u2 = exps
    d1 = [a - b for a, b in zip(u0, u2)]
    d2 = [a - b for a, b in zip(u1, u2)]
    n = len(d1)
    minors = [d1[i] * d2[j] - d1[j] * d2[i] for i in range(n) for j in range(i + 1, n)]
    return math.gcd(*minors) == 1


def _int_rank(mat) -> int:
    rows = [[Fraction(x) for x in r] for r in mat]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank
