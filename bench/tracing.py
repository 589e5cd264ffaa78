"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each listed function with a wrapper in every
loaded ``amoebas`` module that holds the same object, so calls made through
``from .polyhedral import lp_solve`` are seen as well.  A span is
``[name, op id, parent index, start, end, info]``; ``info`` is a small
summary of the arguments and result, taken after the call.  Spans stay in
memory; ``layer_metrics`` turns them into the per-layer numbers.
"""
from __future__ import annotations

import functools
import math
import sys
import time

# the three unbounded caches of the polyhedral layer, read only if present
CACHED = ("dimension", "affine_hull_rows", "_implicit_equality_flags")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _lp_info(args, kwargs, res):
    P = _arg(args, kwargs, 1, "P")
    rows = len(P.equalities) + len(P.inequalities)
    cols = 2 * P.rank + len(P.inequalities)
    outcome = type(res).__name__
    farkas_missing = outcome == "LPInfeasible" and res.farkas is None
    return outcome, farkas_missing, rows * cols


def _pairs(args, kwargs, res):
    s = len(_arg(args, kwargs, 0, "data").exponents)
    return s * (s - 1) // 2, len(res.cells)


# module -> {function name: info(args, kwargs, result) or None}; every
# function here feeds a metric of layer_metrics
WRAPPED = {
    "parsing": dict.fromkeys(("parse_terms", "parse_scalar", "scan_rank", "scan_field", "parse_poly_z")),
    "scalars": dict.fromkeys((
        "factor_int", "is_prime", "irreducible_factors", "is_irreducible", "rational_roots",
        "valuation")),
    "laurent": {
        "bad_places": lambda a, k, r: len(r),
        "newton_polytope": None,
    },
    "lattices": dict.fromkeys((
        "identity", "mat_mul", "mat_vec", "smith_normal_form", "smith_invariants",
        "integer_kernel", "quotient_map", "primitive_vector", "rank_of_rows",
        "in_rational_span", "independent_subset")),
    "polyhedral": {
        "lp_solve": _lp_info,
        "poly_contains": None,
        "remove_redundancy": lambda a, k, r: (
            len(_arg(a, k, 0, "P").inequalities), len(r.inequalities)),
        "prune_to_maximal": lambda a, k, r: (len(_arg(a, k, 0, "polys")), len(r)),
        "project": None,
    },
    "tropical": {
        "corner_locus": _pairs,
        "trop_hypersurface": lambda a, k, r: len(r.cells),
        "prevariety": lambda a, k, r: len(r.cells),
    },
    "archimedean": {
        "sign_exp_sum": None,
        "lopsided_outside": lambda a, k, r: bool(r),
        "triangle_exact_membership": lambda a, k, r: r in ("inside", "outside"),
        "sampled_inside": lambda a, k, r: r is not None,
    },
    "classify": {
        "halfspace_meets_complex": lambda a, k, r: (
            len(_arg(a, k, 1, "C").cells), r is not None),
        "classify_arch_point": lambda a, k, r: r.verdict,
    },
    "cli": {"main": None, "emit": None},
}

FACTOR = {"factor_int", "is_prime", "irreducible_factors", "is_irreducible", "rational_roots"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.enabled = False
        self.layer_of = {}
        self.cached = []

    def install(self):
        """Wrap every listed function that exists; returns the count."""
        mods = {n: m for n, m in sys.modules.items() if n == "amoebas" or n.startswith("amoebas.")}
        poly = mods.get("amoebas.polyhedral")
        self.cached = [
            fn for fn in (getattr(poly, name, None) for name in CACHED)
            if hasattr(fn, "cache_info")
        ]
        count = 0
        for layer, funcs in WRAPPED.items():
            mod = mods.get(f"amoebas.{layer}")
            if mod is None:
                continue
            for name, info in funcs.items():
                fn = getattr(mod, name, None)
                if not callable(fn):
                    continue
                wrapper = self._wrap(name, fn, info)
                self.layer_of[name] = layer
                for other in mods.values():
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, attr, wrapper)
                count += 1
        return count

    def cache_counts(self):
        hits = misses = 0
        for fn in self.cached:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if info is not None:
                try:
                    rec[5] = info(args, kwargs, res)
                except Exception:
                    rec[5] = None
            return res

        return wrapper


def layer_metrics(spans, layer_of):
    """Per-layer counts, times and ratios from the recorded spans."""
    n = len(spans)
    child = [0.0] * n
    for name, _op, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    names = [s[0] for s in spans]

    def parent_name(i):
        p = spans[i][2]
        return names[p] if p >= 0 else None

    def has_ancestor(i, target):
        p = spans[i][2]
        while p >= 0:
            if names[p] == target:
                return True
            p = spans[p][2]
        return False

    m = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for key in METRIC_KEYS:
        m[key] = 0
    pieces = {}
    for i, (name, _op, parent, t0, t1, info) in enumerate(spans):
        dur = t1 - t0
        self_s = dur - child[i]
        layer = layer_of.get(name)
        outer_layer = layer_of.get(parent_name(i)) != layer
        if layer == "parsing":
            add("parsing.calls", outer_layer)
            add("parsing.self_s", self_s)
        elif layer == "lattices":
            add("lattices.calls", outer_layer)
            add("lattices.self_s", self_s)
        if name in FACTOR:
            add("scalars.factor_calls", parent_name(i) not in FACTOR)
            add("scalars.factor_self_s", self_s)
        elif name == "valuation":
            add("scalars.valuation_calls", 1)
            add("scalars.valuation_self_s", self_s)
        elif name == "bad_places":
            add("laurent.bad_places_s", dur)
            add("laurent.places_found", info or 0)
        elif name == "newton_polytope":
            add("laurent.newton_polytope_s", dur)
        elif name == "lp_solve":
            add("polyhedral.lp_self_s", self_s)
            if parent_name(i) != "lp_solve" and info is not None:
                outcome, farkas_missing, cells = info
                add("polyhedral.lp_calls", 1)
                add({"LPOptimal": "polyhedral.lp_optimal",
                     "LPUnbounded": "polyhedral.lp_unbounded"}.get(
                         outcome, "polyhedral.lp_infeasible"), 1)
                add("polyhedral.lp_farkas_missing", farkas_missing)
                add("polyhedral.lp_tableau_cells", cells)
                if has_ancestor(i, "corner_locus"):
                    add("tropical.corner_locus_lp_calls", 1)
        elif name == "remove_redundancy":
            add("polyhedral.remove_redundancy_s", dur)
            if info:
                add("polyhedral.redundancy_rows_in", info[0])
                add("polyhedral.redundancy_rows_kept", info[1])
        elif name == "poly_contains":
            add("polyhedral.poly_contains_calls", 1)
        elif name == "prune_to_maximal":
            add("polyhedral.prune_s", dur)
            if info:
                add("polyhedral.prune_in", info[0])
                add("polyhedral.prune_kept", info[1])
        elif name == "project":
            add("polyhedral.project_s", dur)
        elif name == "corner_locus":
            add("tropical.corner_locus_s", dur)
            add("tropical.corner_locus_self_s", self_s)
            if info:
                add("tropical.pairs_tested", info[0])
                add("tropical.cells_kept", info[1])
        elif name == "trop_hypersurface" and parent_name(i) == "prevariety":
            pieces.setdefault(spans[i][2], []).append(info or 0)
        elif name == "prevariety":
            add("tropical.prevariety_s", dur)
            add("tropical.prevariety_self_s", self_s)
            add("tropical.prevariety_cells", info or 0)
        elif name == "sign_exp_sum":
            add("archimedean.sign_exp_sum_calls", 1)
            add("archimedean.sign_exp_sum_self_s", self_s)
        elif name == "lopsided_outside":
            add("archimedean.lopsided_calls", 1)
            add("archimedean.lopsided_certified", bool(info))
        elif name == "triangle_exact_membership":
            add("archimedean.triangle_calls", 1)
            add("archimedean.triangle_decided", bool(info))
        elif name == "sampled_inside":
            add("archimedean.sampler_calls", 1)
            add("archimedean.sampler_s", dur)
            add("archimedean.sampler_hits", bool(info))
        elif name == "halfspace_meets_complex":
            add("classify.halfspace_calls", 1)
            add("classify.halfspace_s", dur)
            if info:
                add("classify.halfspace_cells", info[0])
                add("classify.halfspace_meets", info[1])
        elif name == "classify_arch_point":
            add("classify.arch_points", 1)
            add("classify.arch_certified", info == "certified-outside")
            add("classify.arch_evidence_only", info == "evidence-only")
        elif name == "main" and layer_of.get(name) == "cli":
            add("cli.ops", 1)
        elif name == "emit":
            add("cli.emit_s", dur)
    m["tropical.product_pieces"] = sum(math.prod(c) for c in pieces.values())
    m["polyhedral.lp_mean_us"] = ratio(m["polyhedral.lp_self_s"] * 1e6, m["polyhedral.lp_calls"])
    m["tropical.cell_yield"] = ratio(m["tropical.cells_kept"], m["tropical.pairs_tested"])
    m["tropical.lp_per_pair"] = ratio(m["tropical.corner_locus_lp_calls"], m["tropical.pairs_tested"])
    m["tropical.product_yield"] = ratio(m["tropical.prevariety_cells"], m["tropical.product_pieces"])
    m["archimedean.sampler_hit_ratio"] = ratio(
        m["archimedean.sampler_hits"], m["archimedean.sampler_calls"])
    m["trace.spans"] = n
    return m


def ratio(a, b):
    return a / b if b else 0.0


# name -> unit for every per-layer metric the traced run prints
UNITS = {
    "parsing.calls": "count", "parsing.self_s": "s",
    "scalars.factor_calls": "count", "scalars.factor_self_s": "s",
    "scalars.valuation_calls": "count", "scalars.valuation_self_s": "s",
    "laurent.bad_places_s": "s", "laurent.places_found": "count",
    "laurent.newton_polytope_s": "s",
    "lattices.calls": "count", "lattices.self_s": "s",
    "polyhedral.lp_calls": "count", "polyhedral.lp_optimal": "count",
    "polyhedral.lp_unbounded": "count", "polyhedral.lp_infeasible": "count",
    "polyhedral.lp_farkas_missing": "count", "polyhedral.lp_self_s": "s",
    "polyhedral.lp_mean_us": "us", "polyhedral.lp_tableau_cells": "count",
    "polyhedral.lp_share": "ratio",
    "polyhedral.cache_hits": "count", "polyhedral.cache_misses": "count",
    "polyhedral.remove_redundancy_s": "s", "polyhedral.redundancy_rows_in": "count",
    "polyhedral.redundancy_rows_kept": "count", "polyhedral.poly_contains_calls": "count",
    "polyhedral.prune_s": "s", "polyhedral.prune_in": "count",
    "polyhedral.prune_kept": "count", "polyhedral.project_s": "s",
    "tropical.corner_locus_s": "s", "tropical.corner_locus_self_s": "s",
    "tropical.pairs_tested": "count", "tropical.cells_kept": "count",
    "tropical.cell_yield": "ratio", "tropical.corner_locus_lp_calls": "count",
    "tropical.lp_per_pair": "ratio",
    "tropical.prevariety_s": "s", "tropical.prevariety_self_s": "s",
    "tropical.product_pieces": "count", "tropical.prevariety_cells": "count",
    "tropical.product_yield": "ratio",
    "archimedean.sign_exp_sum_calls": "count", "archimedean.sign_exp_sum_self_s": "s",
    "archimedean.lopsided_calls": "count", "archimedean.lopsided_certified": "count",
    "archimedean.triangle_calls": "count", "archimedean.triangle_decided": "count",
    "archimedean.sampler_calls": "count", "archimedean.sampler_s": "s",
    "archimedean.sampler_hits": "count", "archimedean.sampler_hit_ratio": "ratio",
    "classify.halfspace_calls": "count", "classify.halfspace_s": "s",
    "classify.halfspace_cells": "count", "classify.halfspace_meets": "count",
    "classify.arch_points": "count", "classify.arch_certified": "count",
    "classify.arch_evidence_only": "count",
    "cli.ops": "count", "cli.emit_s": "s", "cli.output_bytes": "bytes",
    "trace.ops": "count", "trace.spans": "count", "trace.op_s": "s",
    "trace.ops_per_s_norm_traced": "ops/s", "trace.ops_per_s_norm_untraced": "ops/s",
    "trace.overhead": "ratio",
}
METRIC_KEYS = tuple(k for k in UNITS if not k.startswith("trace."))
