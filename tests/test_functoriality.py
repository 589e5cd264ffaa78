"""Functoriality of the adelic amoeba under monomial maps.

Multiplying f by a monomial x^a shifts every exponent by a: at a point w each
term's value moves by the same <a, w>, so the same terms tie.  The tropical
hypersurface at every place and the set of special places do not change.
"""
import json

from hypothesis import event, given, settings
from hypothesis import strategies as st

from amoebas.laurent import make_laurent
from amoebas.polyhedral import complex_to_json
from amoebas.scalars import place_to_str
from amoebas.tropical import adelic_amoeba

from conftest import outcome
from test_archimedean import small_q_polys
from test_classify import small_qz_polys


def _adelic_json(f):
    """Every place of f's adelic amoeba, generic first, with the canonical
    JSON bytes of its complex."""
    am = adelic_amoeba(f)
    places = [("generic", am.generic)] + [(place_to_str(p), C) for p, C in am.special]
    return [(name, json.dumps(complex_to_json(C), sort_keys=True)) for name, C in places]


class TestMonomialFactor:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(small_q_polys(), small_qz_polys()), st.data())
    def test_same_places_and_bytes(self, f, data):
        a = data.draw(st.tuples(*[st.integers(-3, 3)] * f.rank))
        terms = [(tuple(x + y for x, y in zip(u, a)), c) for u, c in f.terms]
        kind, got = outcome(_adelic_json, make_laurent(f.rank, f.field, terms))
        assert (kind, got) == outcome(_adelic_json, f)
        if kind == "ok":
            event(f"{f.field}, {len(got) - 1} special places")
