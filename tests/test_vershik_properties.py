"""Property test of the Vershik coder: wherever the encoder determines a
code, decoding it gives the point back exactly.

Points are module points with small free coordinates, some of them moved
to a rational layer, and points decoded from random consistent codes, on
the quartic and e2* models.
"""
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ietlab.builders import e2star_model, quartic_model  # noqa: E402
from ietlab.lattice import unit_representative  # noqa: E402
from ietlab.vershik import random_consistent_code, vershik_decode, vershik_encode  # noqa: E402

MODELS = {"quartic": quartic_model(), "e2star": e2star_model()}
DEPTH = 96


@st.composite
def points(draw):
    """(model, x): x in [0, total) of the drawn model."""
    model = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        while True:
            try:
                return model, vershik_decode(model, random_consistent_code(model, rng))
            except ValueError:
                continue
    zfree = draw(st.lists(st.integers(-6, 6), min_size=model.n - 1, max_size=model.n - 1))
    x = unit_representative(model, zfree)
    return model, x * Fraction(1, draw(st.sampled_from((1, 1, 2, 3))))


@settings(max_examples=80, deadline=None)
@given(points())
def test_decode_inverts_encode_where_determined(point):
    model, x = point
    code = vershik_encode(model, x, depth=DEPTH)
    if code.determined:
        assert vershik_decode(model, code) == x
    else:
        assert code.t == DEPTH
