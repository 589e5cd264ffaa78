"""Exact output checks, run outside the timed region.

The checks use their own rational arithmetic: a Fourier-Motzkin point
finder for cells, an argmin over the terms for tie sets, and Gaussian
elimination for halfspace membership.  They only borrow the program's
parser to learn how it prints a place of Q(z).  Each check returns a list
of problems; an empty list means the op's output passed.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from workloads import QZ, SMALL_PRIMES, bad_places, place_arg, valuation

RANDOM_POINTS = 6
SEGMENT_POINTS = 6


# ---------------------------------------------------------------------------
# exact geometry


def cells_from_json(obj):
    """[(equalities, inequalities, tie set or None)] with Fraction rows."""
    out = []
    for d in obj["cells"]:
        eqs = [([Fraction(x) for x in c["row"]], Fraction(c["rhs"])) for c in d["equalities"]]
        ineqs = [([Fraction(x) for x in c["row"]], Fraction(c["rhs"])) for c in d["inequalities"]]
        tie = frozenset(d["tie_set"]) if d.get("tie_set") is not None else None
        out.append((eqs, ineqs, tie))
    return out


def cells_from_complex(C):
    """The same form from a library PolyhedralComplex."""
    out = []
    for cell in C.cells:
        P = cell.polyhedron
        eqs = [([Fraction(x) for x in r], Fraction(b)) for r, b in P.equalities]
        ineqs = [([Fraction(x) for x in r], Fraction(b)) for r, b in P.inequalities]
        out.append((eqs, ineqs, cell.tie_set))
    return out


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def in_cell(cell, x):
    eqs, ineqs, _ = cell
    return all(dot(r, x) == b for r, b in eqs) and all(dot(r, x) <= b for r, b in ineqs)


def _normalize(row, rhs):
    """Scale a row so its first nonzero entry has absolute value one."""
    lead = next((abs(a) for a in row if a != 0), None)
    if lead is None:
        return tuple(row), rhs
    return tuple(a / lead for a in row), rhs / lead


def relint_point(rank, eqs, ineqs):
    """A rational point in the relative interior of {eqs, ineqs}, or None.

    Equalities are substituted away first; the remaining inequalities are
    projected by Fourier-Motzkin, and back-substitution picks the midpoint
    of each fiber interval, which lands in the relative interior.
    """
    if eqs:
        (row, b), rest = eqs[0], eqs[1:]
        p = next((k for k, a in enumerate(row) if a != 0), None)
        if p is None:
            return relint_point(rank, rest, ineqs) if b == 0 else None

        def sub(r, c):
            f = r[p] / row[p]
            return [a - f * g for a, g in zip(r, row)], c - f * b

        x = relint_point(rank, [sub(r, c) for r, c in rest], [sub(r, c) for r, c in ineqs])
        if x is None:
            return None
        x[p] = (b - sum(row[k] * x[k] for k in range(rank) if k != p)) / row[p]
        return x
    k = next((k for r, _ in ineqs for k, a in enumerate(r) if a != 0), None)
    if k is None:
        return [Fraction(0)] * rank if all(c >= 0 for _, c in ineqs) else None
    upper = [(r, c) for r, c in ineqs if r[k] > 0]
    lower = [(r, c) for r, c in ineqs if r[k] < 0]
    projected = {_normalize(r, c) for r, c in ineqs if r[k] == 0}
    for ru, cu in upper:
        for rl, cl in lower:
            fu, fl = -rl[k], ru[k]
            projected.add(_normalize(
                [fu * a + fl * g for a, g in zip(ru, rl)], fu * cu + fl * cl))
    x = relint_point(rank, [], [(list(r), c) for r, c in sorted(projected)])
    if x is None:
        return None
    x[k] = Fraction(0)

    def bound(r, c):
        return (c - dot(r, x)) / r[k]

    hi = min((bound(r, c) for r, c in upper), default=None)
    lo = max((bound(r, c) for r, c in lower), default=None)
    if lo is not None and hi is not None:
        if lo > hi:
            return None
        x[k] = (lo + hi) / 2
    elif lo is not None:
        x[k] = lo + 1
    elif hi is not None:
        x[k] = hi - 1
    return x


def argmin(exps, shifts, x):
    vals = [dot(u, x) + c for u, c in zip(exps, shifts)]
    best = min(vals)
    return frozenset(i for i, v in enumerate(vals) if v == best)


def in_open_halfspace(direction, boundary, w):
    """Whether w = sum(l_a g_a) + t * direction with t > 0 (exact)."""
    cols = [list(map(Fraction, g)) for g in boundary] + [list(map(Fraction, direction))]
    n, m = len(w), len(cols)
    rows = [[cols[j][i] for j in range(m)] + [Fraction(w[i])] for i in range(n)]
    r = 0
    pivots = []
    for c in range(m):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [a / rows[r][c] for a in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(rows[i][m] != 0 for i in range(r, n)):
        return False
    t = next((rows[i][m] for i, c in enumerate(pivots) if c == m - 1), None)
    return t is not None and t > 0


# ---------------------------------------------------------------------------
# hypersurface complexes


def segment_tie_point(exps, shifts, a, b):
    """First point of the segment a -> b where the argmin changes, or None."""
    d = [y - x for x, y in zip(a, b)]
    alpha = [dot(u, a) + c for u, c in zip(exps, shifts)]
    beta = [dot(u, d) for u in exps]
    i0 = min(range(len(exps)), key=lambda i: (alpha[i], beta[i]))
    crossings = [
        (alpha[j] - alpha[i0]) / (beta[i0] - beta[j])
        for j in range(len(exps))
        if beta[j] < beta[i0]
    ]
    if not crossings:
        return None
    t = min(crossings)
    return [x + t * y for x, y in zip(a, d)]


def rand_point(rng, rank):
    return [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rank)]


def check_hypersurface_complex(where, rank, exps, shifts, cells, rng):
    problems = []
    if not cells:
        return [f"{where}: empty complex"]
    ties = [c[2] for c in cells]
    if len(set(ties)) != len(ties):
        problems.append(f"{where}: repeated tie set")
    for cell in cells:
        x = relint_point(rank, cell[0], cell[1])
        if x is None:
            problems.append(f"{where}: empty cell {sorted(cell[2])}")
            continue
        if not in_cell(cell, x):
            problems.append(f"{where}: relative-interior point outside its cell")
        tie = argmin(exps, shifts, x)
        if tie != cell[2] or len(tie) < 2:
            problems.append(f"{where}: cell labeled {sorted(cell[2])} has argmin {sorted(tie)}")
    for _ in range(RANDOM_POINTS):
        x = rand_point(rng, rank)
        member = any(in_cell(c, x) for c in cells)
        if member != (len(argmin(exps, shifts, x)) >= 2):
            problems.append(f"{where}: membership disagrees with the argmin at {x}")
    for _ in range(SEGMENT_POINTS):
        x = segment_tie_point(exps, shifts, rand_point(rng, rank), rand_point(rng, rank))
        if x is None:
            continue
        tie = argmin(exps, shifts, x)
        hits = [c for c in cells if in_cell(c, x)]
        if not hits or not hits[0][2] <= tie:
            problems.append(f"{where}: tie point {x} (argmin {sorted(tie)}) not covered")
    return problems


class Oracle:
    """Holds the state that checks of later ops need: printed place names of
    Q(z) factors, prevariety complexes per system, and query amoebas."""

    def __init__(self, program):
        self.program = program
        self.place_names = {}
        self.prevarieties = {}
        self.amoebas = {}

    def place_name(self, key):
        if isinstance(key, str) and key not in ("generic", "inf"):
            if key not in self.place_names:
                poly = self.program.parsing.parse_poly_z(key).monic()
                self.place_names[key] = f"q:{poly}"
            return self.place_names[key]
        return place_arg(key)

    def check(self, op, obj):
        return getattr(self, "_" + op.check["oracle"])(op, obj)

    # -- adelic (hypersurface and coefficients workloads)

    def _adelic(self, op, obj):
        poly = op.check["poly"]
        expected = bad_places(poly, op.check.get("primes", SMALL_PRIMES))
        names = {self.place_name(k): k for k in expected}
        got = [s["place"] for s in obj["special"]]
        problems = []
        if sorted(got) != sorted(names) or got != sorted(got):
            problems.append(f"special places {got}, expected {sorted(names)}")
        exps = [e for e, _ in poly.terms]
        rng = random.Random(f"oracle/{op.index}")
        complexes = [("generic", obj["generic"])] + [(s["place"], s["complex"]) for s in obj["special"]]
        for name, cx in complexes:
            key = "generic" if name == "generic" else names.get(name)
            if key is None:
                continue
            shifts = [valuation(c, key, poly.degrees) for _, c in poly.terms]
            problems += check_hypersurface_complex(
                name, poly.rank, exps, shifts, cells_from_json(cx), rng)
        return problems

    # -- product formula (coefficients workload)

    def _product_formula(self, op, obj):
        res = obj.get("residual")
        if obj.get("a") != op.check["a"]:
            return ["echoed scalar differs from the input"]
        if op.check["field"] == QZ:
            ok = obj.get("exact_zero") is True and res == 0 and isinstance(res, int)
        else:
            ok = isinstance(res, (int, float)) and abs(res) < 1e-9
        return [] if ok else [f"product formula residual {res!r}"]

    # -- systems

    def _constraint_ties(self, system, place, x):
        """Whether every pulled-back constraint ties at x."""
        for poly, mat in system["constraints"]:
            y = x if mat is None else [dot(r, x) for r in mat]
            shifts = [valuation(c, place, poly.degrees) for _, c in poly.terms]
            if len(argmin([e for e, _ in poly.terms], shifts, y)) < 2:
                return False
        return True

    def _prevariety(self, op, obj):
        system, place = op.check["system"], op.check["place"]
        if obj.get("place") != self.place_name(place):
            return [f"place echo {obj.get('place')!r}"]
        problems = []
        cells = cells_from_json(obj["complex"])
        points = []
        for cell in cells:
            x = relint_point(system["rank"], cell[0], cell[1])
            if x is None or not in_cell(cell, x):
                problems.append("empty prevariety cell")
                continue
            points.append(x)
            if not self._constraint_ties(system, place, x):
                problems.append(f"cell point {x} is off a pulled-back hypersurface")
        self.prevarieties[(system["id"], place)] = (cells, points)
        return problems

    def _check_witnesses(self, report, places, cells_of, on_complex, direction, boundary):
        """Shared part of the halfspace checks: place list, meets witnesses
        in cell and halfspace, no cell point in the halfspace when disjoint."""
        problems = []
        got = [c["place"] for c in report["nonarchimedean"]]
        if got != places:
            return [f"checked places {got}, expected {places}"]
        for check in report["nonarchimedean"]:
            name = check["place"]
            cells, points = cells_of(name)
            if check["verdict"] == "meets":
                w = [Fraction(x) for x in check["witness"]]
                if not in_open_halfspace(direction, boundary, w):
                    problems.append(f"{name}: witness {w} outside the open halfspace")
                if cells is not None and not any(in_cell(c, w) for c in cells):
                    problems.append(f"{name}: witness {w} in no cell")
                if not on_complex(name, w):
                    problems.append(f"{name}: witness {w} is not a tie point")
            elif any(in_open_halfspace(direction, boundary, x) for x in points or ()):
                problems.append(f"{name}: disjoint, but a cell point lies in the halfspace")
        return problems

    def _check_halfspace(self, op, obj):
        system = op.check["system"]
        keys = {self.place_name(k): k for k in system["places"]}
        places = ["generic"] + sorted(n for n in keys if n != "generic")

        def cells_of(name):
            return self.prevarieties.get((system["id"], keys[name]), (None, None))

        def on_complex(name, w):
            return self._constraint_ties(system, keys[name], w)

        report = obj["report"]
        problems = self._check_witnesses(
            report, places, cells_of, on_complex, op.check["direction"], op.check["boundary"])
        problems += self._overall(report, obj["verdict"])
        return problems

    @staticmethod
    def _overall(report, verdict):
        meets = any(c["verdict"] == "meets" for c in report["nonarchimedean"])
        meets = meets or any(a["verdict"] == "meets" for a in report["archimedean"] or ())
        if report["overall"] != ("meets" if meets else "disjoint") or verdict != report["overall"]:
            return [f"overall verdict {report['overall']!r} disagrees with its parts"]
        return []

    # -- query workload

    def prepare_amoebas(self, polys, amoebas):
        """Cells, relative-interior points and place keys of the setup amoebas."""
        for k, (poly, am) in enumerate(zip(polys, amoebas)):
            keys = {self.place_name(key): key for key in bad_places(poly)}
            keys["generic"] = "generic"
            table = {}
            for name, C in [("generic", am.generic)] + [
                (self.program.scalars.place_to_str(p), C) for p, C in am.special
            ]:
                cells = cells_from_complex(C)
                points = [relint_point(poly.rank, c[0], c[1]) for c in cells]
                table[name] = (cells, points)
            self.amoebas[k] = (keys, table)

    def _disjoint(self, op, obj):
        poly = op.check["poly"]
        keys, table = self.amoebas[op.check["amoeba"]]
        places = ["generic"] + sorted(n for n in keys if n != "generic")
        exps = [e for e, _ in poly.terms]

        def on_complex(name, w):
            shifts = [valuation(c, keys[name], poly.degrees) for _, c in poly.terms]
            return len(argmin(exps, shifts, w)) >= 2

        problems = self._check_witnesses(
            obj, places, lambda name: table.get(name, (None, None)), on_complex,
            op.check["direction"], op.check["boundary"])
        for a in obj["archimedean"] or ():
            problems += check_arch_verdict(poly, a)
        problems += self._overall(obj, obj["overall"])
        return problems

    def _arch(self, op, obj):
        return check_arch_verdict(op.check["poly"], obj)


def check_arch_verdict(poly, verdict):
    """Float cross-checks of an archimedean point verdict over Q."""
    v = [float(Fraction(x)) for x in verdict["point"]]
    mags = [abs(float(c.const)) * math.exp(-sum(a * x for a, x in zip(u, v)))
            for u, c in poly.terms]
    total = sum(mags)
    cert = verdict["certificate"]
    if verdict["verdict"] == "certified-outside":
        if not any(r >= (total - r) * (1 - 1e-9) for r in mags):
            return [f"certified outside at {v}, but no term dominates"]
    elif verdict["verdict"] == "meets":
        if cert["kind"] == "triangle" and any(r > (total - r) * (1 + 1e-9) for r in mags):
            return [f"triangle inside at {v}, but a term dominates"]
        if "witness" in cert:
            x = [complex(re, im) for re, im in cert["witness"]]
            for xk, vk in zip(x, v):
                if abs(abs(xk) - math.exp(-vk)) > 1e-8 * math.exp(-vk):
                    return [f"witness modulus off at {v}"]
            value = sum(
                float(c.const) * math.prod(xk ** a for xk, a in zip(x, u))
                for u, c in poly.terms
            )
            if abs(value) > 1e-8 * total:
                return [f"witness residual {abs(value):.3g} at {v}"]
    return []
