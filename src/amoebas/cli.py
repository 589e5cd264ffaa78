"""Command-line front end.

Subcommands: trop, adelic, prevariety, check-halfspace, classify, ekl-check,
product-formula, plot.  Results are canonical JSON (sorted keys, stable
ordering) so identical inputs and seeds give byte-identical output.  Exit
codes: 0 success, 2 input error, 3 internal invariant failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import plot
from .classify import (
    Halfspace,
    adelic_disjoint,
    default_arch_grid,
    ekl_consistency_check,
    theorem1_report,
)
from .errors import AmoebaError, InternalInvariantError
from .laurent import parse_poly, poly_to_json
from .parsing import parse_scalar, scan_field
from .polyhedral import complex_to_json
from .scalars import (
    FIELD_Q,
    FIELD_QZ,
    GENERIC,
    place_from_str,
    place_to_str,
    product_formula_residual,
)
from .tropical import (
    Constraint,
    PrevarietySystem,
    adelic_amoeba,
    adelic_amoeba_of_system,
    prevariety,
    trop_hypersurface,
)

SCHEMA_VERSION = 1


def parse_halfspace(text: str, rank: int) -> Halfspace:
    """Syntax: ``dir:<csv>`` optionally followed by ``bnd:<csv>;<csv>...``."""
    direction = None
    boundary = []
    for chunk in text.split():
        if chunk.startswith("dir:"):
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


def load_system(path: str) -> PrevarietySystem:
    """Read a system file: ``{"rank": n, "field": "Q" | "Q(z)" (optional),
    "constraints": [{"f": text, "map": integer rows (optional), "rank": m
    (optional)}, ...]}``; a file off this schema raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("a system file must hold a JSON object")
    rank = obj.get("rank")
    if not _is_int(rank) or rank < 1:
        raise ValueError('a system needs a positive integer "rank"')
    field = obj.get("field")
    if field not in (None, FIELD_Q, FIELD_QZ):
        raise ValueError(f'"field" must be "{FIELD_Q}" or "{FIELD_QZ}"')
    cons = obj.get("constraints")
    if not isinstance(cons, list) or not cons:
        raise ValueError('a system needs a nonempty "constraints" list')
    constraints = []
    for c in cons:
        if not isinstance(c, dict) or not isinstance(c.get("f"), str):
            raise ValueError('each constraint needs a string "f"')
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


def _poly_from_options(opt):
    return parse_poly(opt["f"], rank=opt.get("rank"), field=opt.get("field"))


def _seed(opt):
    if opt.get("seed") is not None:
        return int(opt["seed"])
    env = os.environ.get("AMOEBA_SEED")
    return int(env) if env else 0


def _source_and_rank(opt):
    if opt.get("f"):
        f = _poly_from_options(opt)
        return f, f.rank
    if opt.get("system"):
        system = load_system(opt["system"])
        return system, system.rank
    raise ValueError("need --f or --system")


def run(cmd: str, opt: dict) -> int:
    if cmd == "trop":
        f = _poly_from_options(opt)
        place = place_from_str(opt["place"]) if opt.get("place") else GENERIC
        C = trop_hypersurface(f, place)
        emit(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "trop",
                "f": poly_to_json(f),
                "place": place_to_str(place),
                "complex": complex_to_json(C),
            },
            opt.get("out"),
        )
        return 0
    if cmd == "adelic":
        f = _poly_from_options(opt)
        am = adelic_amoeba(f)
        emit(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "adelic",
                "f": poly_to_json(f),
                "generic": complex_to_json(am.generic),
                "special": [
                    {"place": place_to_str(p), "complex": complex_to_json(C)}
                    for p, C in am.special
                ],
            },
            opt.get("out"),
        )
        return 0
    if cmd == "prevariety":
        system = load_system(opt["system"])
        place = place_from_str(opt["place"]) if opt.get("place") else GENERIC
        C = prevariety(system.constraints, place, system.rank)
        emit(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "prevariety",
                "place": place_to_str(place),
                "complex": complex_to_json(C),
            },
            opt.get("out"),
        )
        return 0
    if cmd == "check-halfspace":
        source, rank = _source_and_rank(opt)
        H = parse_halfspace(opt["halfspace"], rank)
        amoeba = (
            adelic_amoeba(source)
            if not isinstance(source, PrevarietySystem)
            else adelic_amoeba_of_system(source)
        )
        grid = default_arch_grid(H, int(opt["grid"])) if opt.get("grid") else None
        report = adelic_disjoint(
            amoeba,
            H,
            arch_grid=grid,
            trials=int(opt.get("trials") or 200),
            tol=float(opt.get("tol") or 1e-9),
            rng=_seed(opt),
        )
        emit(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "check-halfspace",
                "verdict": report.overall,
                "report": report.to_json(),
            },
            opt.get("out"),
        )
        return 0
    if cmd == "classify":
        source, rank = _source_and_rank(opt)
        H = parse_halfspace(opt["halfspace"], rank)
        image = None
        if opt.get("image_f"):
            image = parse_poly(
                opt["image_f"],
                rank=rank - len(H.boundary),
                field=opt.get("field") or scan_field(opt["image_f"]),
            )
        report = theorem1_report(
            source,
            H,
            image_hypersurface=image,
            declared_codim_gt_one=bool(opt.get("declare_codim_gt_1")),
            trials=int(opt.get("trials") or 200),
            tol=float(opt.get("tol") or 1e-9),
            rng=_seed(opt),
        )
        emit(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "classify",
                "report": report.to_json(),
            },
            opt.get("out"),
        )
        return 0
    if cmd == "ekl-check":
        f = _poly_from_options(opt)
        report = ekl_consistency_check(
            f,
            trials=int(opt.get("trials") or 200),
            tol=float(opt.get("tol") or 1e-9),
            rng=_seed(opt),
        )
        emit(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "ekl-check",
                "report": report.to_json(),
            },
            opt.get("out"),
        )
        return 0
    if cmd == "product-formula":
        field = opt.get("field") or scan_field(opt["a"])
        value = product_formula_residual(parse_scalar(opt["a"], field))
        emit(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "product-formula",
                "a": opt["a"],
                "residual": value,
                "exact_zero": value == 0,
            },
            opt.get("out"),
        )
        return 0
    if cmd == "plot":
        out = opt.get("out")
        if not out:
            raise ValueError("plot needs --out")
        f = _poly_from_options(opt)
        if opt.get("arch_scan"):
            center = tuple(Fraction(x) for x in (opt.get("center") or "0,0").split(","))
            svg = plot.render_arch_scan_svg(
                f,
                center=center,
                radius=Fraction(opt.get("radius") or 3),
                grid_n=int(opt.get("grid_n") or 41),
            )
        else:
            place = place_from_str(opt["place"]) if opt.get("place") else GENERIC
            C = trop_hypersurface(f, place)
            svg = plot.render_complex_svg(C, extent=Fraction(opt.get("extent") or 4))
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(svg)
        emit({"schema_version": SCHEMA_VERSION, "command": "plot", "written": out})
        return 0
    raise ValueError(f"unknown command {cmd!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="amoeba",
        description="Exact tropicalizations and adelic amoebas of Laurent hypersurfaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common_poly(p):
        p.add_argument("--f", help="Laurent polynomial, like 'z*x1+(z-1)*x2+(z-2)'")
        p.add_argument("--rank", type=int, help="ambient rank (inferred if omitted)")
        p.add_argument("--field", choices=["Q", "Q(z)"], help="coefficient field")
        p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("trop", help="tropicalization at one place")
    common_poly(p)
    p.add_argument("--place", help="p:2, q:z-1, inf, or generic", default="generic")

    p = sub.add_parser("adelic", help="generic skeleton plus all special places")
    common_poly(p)

    p = sub.add_parser("prevariety", help="intersection of pulled-back tropicalizations")
    p.add_argument("--system", required=True, help="JSON file with rank/field/constraints")
    p.add_argument("--place", default="generic")
    p.add_argument("--out")

    p = sub.add_parser("check-halfspace", help="halfspace vs adelic amoeba")
    common_poly(p)
    p.add_argument("--system", help="JSON system file (alternative to --f)")
    p.add_argument("--halfspace", required=True, help="dir:<csv> [bnd:<csv>;<csv>...]")
    p.add_argument("--grid", type=int, help="archimedean grid points (default 20)")
    p.add_argument("--trials", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("classify", help="disjointness trichotomy report")
    common_poly(p)
    p.add_argument("--system")
    p.add_argument("--halfspace", required=True)
    p.add_argument("--image-f", dest="image_f", help="hypersurface of the quotient image")
    p.add_argument(
        "--declare-codim-gt-1",
        dest="declare_codim_gt_1",
        action="store_true",
        help="declare that the quotient image has codimension greater than one",
    )
    p.add_argument("--trials", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("ekl-check", help="half-line search and zero membership")
    common_poly(p)
    p.add_argument("--trials", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("product-formula", help="sum of -log|a|_p over all places")
    p.add_argument("--a", required=True, help="scalar, like '(z^2-1)/z' or '12'")
    p.add_argument("--field", choices=["Q", "Q(z)"])
    p.add_argument("--out")

    p = sub.add_parser("plot", help="SVG of a rank-2 complex or an archimedean scan")
    common_poly(p)
    p.add_argument("--place", default="generic")
    p.add_argument("--extent", help="viewport half-width (default 4)")
    p.add_argument("--arch-scan", dest="arch_scan", action="store_true")
    p.add_argument("--center", help="scan center, like '0,0'")
    p.add_argument("--radius", help="scan half-width (default 3)")
    p.add_argument("--grid-n", dest="grid_n", type=int, help="scan resolution")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    opt = {k: v for k, v in vars(ns).items() if k != "command"}
    try:
        return run(ns.command, opt)
    except (AmoebaError, ValueError, OSError, json.JSONDecodeError) as exc:
        if isinstance(exc, (InternalInvariantError,)):
            code, status = exc.code, 3
        else:
            code = getattr(exc, "code", "input-error")
            status = 2
        sys.stderr.write(
            json.dumps({"error": {"code": code, "message": str(exc)}}, sort_keys=True)
            + "\n"
        )
        return status
    except AssertionError as exc:
        sys.stderr.write(
            json.dumps(
                {"error": {"code": "internal-invariant", "message": str(exc)}},
                sort_keys=True,
            )
            + "\n"
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
