"""Command-line front end.

Subcommands: trop, adelic, prevariety, check-halfspace, classify, ekl-check,
product-formula, plot, one handler each in ``COMMANDS``.  A handler returns
its payload; ``run`` adds ``schema_version`` and ``command`` and emits
canonical JSON (sorted keys, stable ordering) so identical inputs give
byte-identical output.  Exit codes: 0 success, 2 input error, 3
internal invariant failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import plot
from .classify import (
    GRID,
    Halfspace,
    adelic_disjoint,
    ekl_consistency_check,
    theorem1_report,
)
from .errors import AmoebaError, InternalInvariantError, PointTooLarge
from .laurent import parse_poly, poly_to_json
from .parsing import parse_scalar, scan_field
from .polyhedral import complex_to_json
from .scalars import (
    FIELD_Q,
    FIELD_QZ,
    place_from_str,
    place_to_str,
    product_formula_residual,
)
from .tropical import Constraint, PrevarietySystem, adelic_amoeba, prevariety, trop_hypersurface

SCHEMA_VERSION = 1
# Sampler trials per scanned half-line: grid points times --trials (classify
# and ekl-check scan GRID = 20 points on each half-line).  An evidence-only
# point costs a few ms per trial, so this bounds one half-line's scan to
# about a minute; ekl-check scans one half-line per candidate vertex cone.
MAX_SCAN_TRIALS = 20_000
# The largest decimal exponent, in magnitude, of plot's --extent, --center
# and --radius: Fraction(text) builds 10**exponent, so text past it is
# refused before that integer is built.  Its 14 285 bits are past every
# bound the values meet later (2**4096 on a scan's term exponents, the
# float range on the viewport), and a mantissa takes as many digits.
MAX_DECIMAL_EXPONENT = 4300


def parse_halfspace(text: str, rank: int) -> Halfspace:
    """Syntax: ``dir:<csv>`` optionally followed by ``bnd:<csv>;<csv>...``;
    a second ``dir:`` chunk is an error."""
    direction = None
    boundary = []
    for chunk in text.split():
        if chunk.startswith("dir:"):
            if direction is not None:
                raise ValueError("halfspace has more than one dir: chunk")
            direction = tuple(int(x) for x in chunk[4:].split(","))
        elif chunk.startswith("bnd:"):
            for vec in chunk[4:].split(";"):
                if vec:
                    boundary.append(tuple(int(x) for x in vec.split(",")))
        else:
            raise ValueError(f"unrecognized halfspace chunk {chunk!r}")
    if direction is None:
        raise ValueError("halfspace needs a dir:<csv> chunk")
    return Halfspace(rank, direction, tuple(boundary))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _known_keys(obj, keys, what):
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"{what} takes only the keys {', '.join(map(repr, keys))}, not {unknown[0]!r}")


def load_system(path: str) -> PrevarietySystem:
    """Read a system file: ``{"rank": n, "field": "Q" | "Q(z)" (optional),
    "constraints": [{"f": text, "map": integer rows (optional), "rank": m
    (optional)}, ...]}``; a file off this schema, a key outside it
    included, raises ValueError before any text is parsed, so that a
    misspelt "map" or "field" is not read as an omitted one.  Every
    constraint is parsed over one field: an omitted "field" is Q(z) when any
    constraint names z, else Q."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("a system file must hold a JSON object")
    _known_keys(obj, ("rank", "field", "constraints"), "a system")
    rank = obj.get("rank")
    if not _is_int(rank) or rank < 1:
        raise ValueError('a system needs a positive integer "rank"')
    field = obj.get("field")
    if field not in (None, FIELD_Q, FIELD_QZ):
        raise ValueError(f'"field" must be "{FIELD_Q}" or "{FIELD_QZ}"')
    cons = obj.get("constraints")
    if not isinstance(cons, list) or not cons:
        raise ValueError('a system needs a nonempty "constraints" list')
    if not all(isinstance(c, dict) and isinstance(c.get("f"), str) for c in cons):
        raise ValueError('each constraint needs a string "f"')
    for c in cons:
        _known_keys(c, ("f", "map", "rank"), "a constraint")
    if field is None:
        field = FIELD_QZ if FIELD_QZ in {scan_field(c["f"]) for c in cons} else FIELD_Q
    constraints = []
    for c in cons:
        mat = c.get("map")
        if mat is not None and not (
            isinstance(mat, list)
            and all(isinstance(r, list) and all(map(_is_int, r)) for r in mat)
        ):
            raise ValueError('a constraint "map" must be a list of integer rows')
        crank = c.get("rank", len(mat) if mat is not None else rank)
        if not _is_int(crank) or crank < 1:
            raise ValueError('a constraint "rank" must be a positive integer')
        poly = parse_poly(c["f"], rank=crank, field=field)
        constraints.append(
            Constraint(poly, tuple(tuple(r) for r in mat) if mat is not None else None)
        )
    return PrevarietySystem(rank, tuple(constraints))


def emit(obj, out_path=None) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _poly(ns):
    if ns.f is None:
        raise ValueError("need --f")
    return parse_poly(ns.f, rank=ns.rank, field=ns.field)


def _source(ns):
    """The hypersurface of --f or the system of --system; both have .rank
    and .field."""
    if ns.f is not None and ns.system is not None:
        raise ValueError("give --f or --system, not both")
    if ns.f:
        return _poly(ns)
    if ns.system:
        return load_system(ns.system)
    raise ValueError("need --f or --system")


def _trials(ns, points=GRID) -> int:
    """--trials, checked for a scan of the given number of grid points."""
    if ns.trials < 1:
        raise ValueError("--trials must be at least 1")
    if points * ns.trials > MAX_SCAN_TRIALS:
        raise ValueError(
            f"{points} grid points times --trials {ns.trials} exceeds {MAX_SCAN_TRIALS}"
        )
    return ns.trials


def _trop(ns):
    f, place = _poly(ns), place_from_str(ns.place)
    return {
        "f": poly_to_json(f),
        "place": place_to_str(place),
        "complex": complex_to_json(trop_hypersurface(f, place)),
    }


def _adelic(ns):
    f = _poly(ns)
    am = adelic_amoeba(f)
    return {
        "f": poly_to_json(f),
        "generic": complex_to_json(am.generic),
        "special": [
            {"place": place_to_str(p), "complex": complex_to_json(C)} for p, C in am.special
        ],
    }


def _prevariety(ns):
    system = load_system(ns.system)
    place = place_from_str(ns.place)
    C = prevariety(system, place)
    return {"place": place_to_str(place), "complex": complex_to_json(C)}


def _check_halfspace(ns):
    trials = _trials(ns, ns.grid)
    if ns.grid < 1:
        raise ValueError("--grid must be at least 1")
    source = _source(ns)
    H = parse_halfspace(ns.halfspace, source.rank)
    report = adelic_disjoint(adelic_amoeba(source), H, grid=ns.grid, trials=trials)
    return {"verdict": report.overall, "report": report.to_json()}


def _classify(ns):
    trials = _trials(ns)
    source = _source(ns)
    H = parse_halfspace(ns.halfspace, source.rank)
    image = None
    if ns.image_f:
        image = parse_poly(
            ns.image_f, rank=source.rank - len(H.boundary), field=ns.field or source.field
        )
    report = theorem1_report(
        source,
        H,
        image_hypersurface=image,
        declared_codim_gt_one=ns.declare_codim_gt_1,
        trials=trials,
    )
    return {"report": report.to_json()}


def _ekl_check(ns):
    trials = _trials(ns)
    return {"report": ekl_consistency_check(_poly(ns), trials=trials).to_json()}


def _product_formula(ns):
    value = product_formula_residual(parse_scalar(ns.a, ns.field or scan_field(ns.a)))
    return {"a": ns.a, "residual": value, "exact_zero": value == 0}


def _decimal(text, flag, error):
    """Fraction(text), refused with error when its decimal exponent exceeds
    MAX_DECIMAL_EXPONENT in magnitude."""
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*$", text, re.IGNORECASE)
    if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
        raise error(f"{flag} has a decimal exponent past {MAX_DECIMAL_EXPONENT} in magnitude")
    return Fraction(text)


def _plot(ns):
    if not ns.svg:
        raise ValueError("plot needs --out")
    f = _poly(ns)
    if ns.arch_scan:
        center = tuple(_decimal(x, "--center", PointTooLarge) for x in ns.center.split(","))
        radius = _decimal(ns.radius, "--radius", PointTooLarge)
        svg = plot.render_arch_scan_svg(f, center=center, radius=radius, grid_n=ns.grid_n)
    else:
        C = trop_hypersurface(f, place_from_str(ns.place))
        svg = plot.render_complex_svg(C, extent=_decimal(ns.extent, "--extent", ValueError))
    with open(ns.svg, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return {"written": ns.svg}


COMMANDS = {
    "trop": _trop,
    "adelic": _adelic,
    "prevariety": _prevariety,
    "check-halfspace": _check_halfspace,
    "classify": _classify,
    "ekl-check": _ekl_check,
    "product-formula": _product_formula,
    "plot": _plot,
}


def run(ns) -> int:
    """Run the handler of ns.command and emit its payload.  The JSON goes to
    --out when the command has one (plot's --out is its SVG, dest ``svg``)."""
    payload = COMMANDS[ns.command](ns)
    emit(
        {"schema_version": SCHEMA_VERSION, "command": ns.command, **payload},
        getattr(ns, "out", None),
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args returns a
    fresh namespace on every call, so no state carries over."""
    ap = argparse.ArgumentParser(
        prog="amoeba",
        description="Exact tropicalizations and adelic amoebas of Laurent hypersurfaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, poly=True, out="out", out_help="write JSON here instead of stdout"):
        p = sub.add_parser(name, help=help)
        if poly:
            p.add_argument("--f", help="Laurent polynomial, like 'z*x1+(z-1)*x2+(z-2)'")
            p.add_argument("--rank", type=int, help="ambient rank (inferred if omitted)")
            p.add_argument("--field", choices=[FIELD_Q, FIELD_QZ], help="coefficient field")
        p.add_argument("--out", dest=out, help=out_help)
        return p

    def halfspace_query(p):
        p.add_argument("--system", help="JSON system file (alternative to --f)")
        p.add_argument("--halfspace", required=True, help="dir:<csv> [bnd:<csv>;<csv>...]")

    def trials(p):
        p.add_argument("--trials", type=int, default=200, help="sampler trials per point")

    p = command("trop", "tropicalization at one place")
    p.add_argument("--place", default="generic", help="p:2, q:z-1, inf, or generic")

    command("adelic", "generic skeleton plus all special places")

    p = command("prevariety", "intersection of pulled-back tropicalizations", poly=False)
    p.add_argument("--system", required=True, help="JSON file with rank/field/constraints")
    p.add_argument("--place", default="generic")

    p = command("check-halfspace", "halfspace vs adelic amoeba")
    halfspace_query(p)
    p.add_argument("--grid", type=int, default=GRID, help="archimedean grid points")
    trials(p)

    p = command("classify", "disjointness trichotomy report")
    halfspace_query(p)
    p.add_argument(
        "--image-f",
        dest="image_f",
        help="hypersurface of the quotient image (over --field, else the source's field)",
    )
    p.add_argument(
        "--declare-codim-gt-1",
        dest="declare_codim_gt_1",
        action="store_true",
        help="declare that the quotient image has codimension greater than one",
    )
    trials(p)

    trials(command("ekl-check", "trichotomy on the first vertex-cone half-line found disjoint"))

    p = command("product-formula", "sum of -log|a|_p over all places", poly=False)
    p.add_argument("--a", required=True, help="scalar, like '(z^2-1)/z' or '12'")
    p.add_argument("--field", choices=[FIELD_Q, FIELD_QZ])

    p = command(
        "plot",
        "SVG of a rank-2 complex or an archimedean scan",
        out="svg",
        out_help="write the SVG here (JSON goes to stdout)",
    )
    p.add_argument("--place", default="generic")
    p.add_argument("--extent", default="4", help="viewport half-width")
    p.add_argument("--arch-scan", dest="arch_scan", action="store_true")
    p.add_argument("--center", default="0,0", help="scan center")
    p.add_argument("--radius", default="3", help="scan half-width")
    p.add_argument("--grid-n", dest="grid_n", type=int, default=41, help="scan resolution")
    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return run(ns)
    except (AmoebaError, ValueError, OSError, AssertionError) as exc:
        internal = isinstance(exc, (InternalInvariantError, AssertionError))
        code = "internal-invariant" if internal else getattr(exc, "code", "input-error")
        error = {"error": {"code": code, "message": str(exc)}}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 3 if internal else 2


if __name__ == "__main__":
    sys.exit(main())
