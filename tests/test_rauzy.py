import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from ietlab import algebraic, numberfield, polynomials, rauzy
from ietlab.algebraic import isolate, real_roots, root_in
from ietlab.cli import census_report, main
from ietlab.iet import IET, Permutation, check_self_similar
from ietlab.matrices import charpoly, identity, is_primitive, mat_mul, mat_vec
from ietlab.numberfield import NumberField
from ietlab.polynomials import IntPoly, is_irreducible
from ietlab.rauzy import (
    RauzyCycle,
    census_rows,
    class_of,
    enumerate_cycles,
    rauzy_step,
    rauzy_type0_perm,
    rauzy_type1_perm,
    self_similar_from_cycle,
    step_matrix,
    survey,
    walk_from,
)

QUARTIC = IntPoly((1, -7, 13, -7, 1))


def quartic_iet():
    K = NumberField(root_in(QUARTIC, Fraction(1, 5), Fraction(1, 4)))
    r = K.generator_element()
    lengths = [
        r,
        1 - 4 * r + r * r,
        1 - 4 * r + 5 * r * r - r**3,
        -1 + 7 * r - 6 * r * r + r**3,
    ]
    return K, r, IET(Permutation([4, 2, 1, 3]), lengths)


def test_renormalization_loop_closes():
    K, r, E = quartic_iet()
    visited, P, end_pi, end_len = walk_from(E.perm, E.lengths, 8)
    assert [v.images for v, _ in visited] == [
        (4, 2, 1, 3),
        (4, 3, 2, 1),
        (2, 4, 3, 1),
        (3, 2, 4, 1),
        (3, 2, 4, 1),
        (4, 3, 2, 1),
        (4, 1, 3, 2),
        (4, 2, 1, 3),
    ]
    assert [t for _, t in visited] == [0, 1, 0, 0, 1, 0, 1, 1]
    assert P == [[1, 1, 1, 1], [0, 2, 1, 0], [1, 2, 2, 1], [1, 1, 1, 2]]
    for a, b in zip(end_len, E.lengths):
        assert a == r * b  # the loop contracts the lengths by rho exactly


def test_step_consistency():
    K, r, E = quartic_iet()
    pi, lengths = E.perm, E.lengths
    for _ in range(6):
        t, pi2, lengths2, A = rauzy_step(pi, lengths)
        back = mat_vec(A, list(lengths2))
        assert tuple(back) == tuple(lengths)
        pi, lengths = pi2, lengths2


def test_equal_intervals_rejected():
    K = NumberField(root_in(IntPoly((-1, -1, 1)), 1, 2))
    half = K.from_rational(Fraction(1, 2))
    with pytest.raises(ValueError):
        rauzy_step(Permutation([2, 1]), (half, half))


def test_rauzy_graph_small(rauzy_graph):
    cls3 = rauzy_graph(3)
    assert len(cls3) == 1 and len(cls3[0]) == 3
    cls4 = rauzy_graph(4)
    assert sorted(len(c) for c in cls4) == [6, 7]
    assert len(class_of((4, 2, 1, 3))) == 7
    with pytest.raises(ValueError):
        rauzy_graph(8)


def test_class_of_is_the_graph_component(rauzy_graph):
    # every vertex up to N = 6; for N = 7 every tenth vertex of each class,
    # its smallest included (all 3,447 vertices take several seconds)
    for N in range(2, 8):
        for cls in rauzy_graph(N):
            for v in cls if N < 7 else cls[::10]:
                assert class_of(v) == cls


def test_class_of_rejects_bad_input():
    with pytest.raises(ValueError):
        class_of((2, 1, 3))  # reducible: {1, 2} is invariant
    with pytest.raises(ValueError):
        class_of((1, 1, 2))  # not a permutation


def test_golden_cycle():
    cls2 = class_of((2, 1))
    assert cls2 == [(2, 1)]
    rows = survey(cls2, 2)
    assert rows[1] == (0, 0)  # single-step loops are not primitive
    assert rows[2] == (1, 1)
    cyc = next(c for c in enumerate_cycles(cls2, 2) if c.length == 2 and c.is_qualifying())
    assert cyc.charpoly() == IntPoly((1, -3, 1))
    E, rho = self_similar_from_cycle(cyc)
    assert E.perm == Permutation([2, 1])
    # rho = (3 - sqrt5)/2
    assert float(rho) == pytest.approx(0.3819660112501051, rel=1e-12)
    ok, sigma = check_self_similar(E, rho)
    assert ok


def test_no_cubic_candidates(rauzy_graph):
    cls3 = rauzy_graph(3)[0]
    rows = survey(cls3, 6)
    assert all(rows[L] == (0, 0) for L in range(3, 7))


def test_quartic_census_length_eight():
    cls = class_of((4, 2, 1, 3))
    rows = survey(cls, 8)
    assert rows[8] == (1, 1)
    hits = [c for c in enumerate_cycles(cls, 8) if c.length == 8 and c.is_qualifying()]
    assert len(hits) == 1
    assert hits[0].charpoly() == QUARTIC
    steps = hits[0].steps
    r = [v for v, _ in steps].index((4, 2, 1, 3))
    cyc = RauzyCycle(steps[r:] + steps[:r])
    E, rho = self_similar_from_cycle(cyc)
    assert float(rho) == pytest.approx(0.22777710423438124, rel=1e-12)
    # lengths agree with the printed closed forms in rho = 1/beta
    rh = rho
    forms = [
        rh,
        1 - 4 * rh + rh * rh,
        1 - 4 * rh + 5 * rh * rh - rh**3,
        -1 + 7 * rh - 6 * rh * rh + rh**3,
    ]
    assert list(E.lengths) == forms
    ok, sigma = check_self_similar(E, rho)
    assert ok
    assert sigma.rules[1] == (1, 4, 3)


def test_self_reciprocal_filter_on_survey_hits():
    cls = class_of((4, 2, 1, 3))
    for cyc in enumerate_cycles(cls, 9):
        if cyc.is_qualifying():
            p = cyc.charpoly()
            assert p.coeffs == p.coeffs[::-1]


def test_seven_interval_class_sizes(rauzy_graph):
    classes = rauzy_graph(7)
    assert any(len(c) == 294 for c in classes)
    e2_class = class_of((5, 4, 6, 2, 7, 3, 1))
    assert len(e2_class) == 294


CENSUS_BASES = [(2, 1), (3, 2, 1), (4, 3, 2, 1), (4, 2, 1, 3), (5, 4, 3, 2, 1)]


def unpruned_cycles(cls_verts, Lmax):
    """Reference census: every walk from every base, deduplicated through
    the least rotation of its steps."""
    cls_verts = [tuple(v) for v in cls_verts]
    edges = {v: (rauzy_type0_perm(v), rauzy_type1_perm(v)) for v in cls_verts}
    seen = set()
    for start in cls_verts:
        stack = [(start, ())]
        while stack:
            v, steps = stack.pop()
            if steps and v == start:
                key = min(steps[r:] + steps[:r] for r in range(len(steps)))
                if key not in seen:
                    seen.add(key)
                    yield steps
            if len(steps) < Lmax:
                for t in (0, 1):
                    stack.append((edges[v][t], steps + ((v, t),)))


def reference_step_matrix(images, t):
    """The step matrix entry by entry: type 0 is the identity plus
    A[N-1][k-1] = 1; type 1 keeps e_1..e_k, sends column k+1 to
    e_k + e_N and column j > k+1 to e_{j-1} (k the 1-based position of N)."""
    N = len(images)
    k = list(images).index(N) + 1
    A = identity(N)
    if t == 0:
        A[N - 1][k - 1] += 1
        return A
    for j in range(k + 1, N + 1):
        A[j - 1][j - 1] = 0
        A[j - 2][j - 1] = 1
    if k < N:
        A[N - 1][k] = 1
    return A


@pytest.mark.parametrize("base", CENSUS_BASES)
def test_pruned_census_matches_unpruned_search(base):
    cls = class_of(base)
    shuffled = cls[:]
    random.Random(repr(base)).shuffle(shuffled)
    caps = list(range(1, 11)) + ([12] if base == (4, 3, 2, 1) else [])
    for verts in (cls, shuffled):
        for cap in caps:
            got = [c.steps for c in enumerate_cycles(verts, cap)]
            assert got == list(unpruned_cycles(verts, cap))


def test_quartic_class_census_to_twelve():
    rows = survey(class_of((4, 3, 2, 1)), 12)
    assert all(rows[L] == (0, 0) for L in range(1, 8))
    assert [rows[L] for L in range(8, 13)] == [(1, 1), (6, 3), (7, 4), (30, 10), (80, 27)]
    assert sum(q for q, _ in rows.values()) == 124


def test_pattern_primitivity_matches_the_integer_product():
    # the census classes to cap 9 and the 294-vertex e2* class to cap 4
    cycles = [c for base in CENSUS_BASES for c in enumerate_cycles(class_of(base), 9)]
    cycles += enumerate_cycles(class_of((5, 4, 6, 2, 7, 3, 1)), 4)
    primitive = 0
    for cyc in cycles:
        P = cyc.product
        assert cyc.is_primitive() == is_primitive(P)
        assert cyc.is_qualifying() == (is_primitive(P) and is_irreducible(charpoly(P)))
        primitive += cyc.is_primitive()
    assert 0 < primitive < len(cycles)


def test_census_work_counts(monkeypatch):
    # cap 10 on (4321): 328 cycles are built, and of them only the 21
    # primitive ones get a characteristic polynomial
    built = []
    init = RauzyCycle.__init__
    monkeypatch.setattr(RauzyCycle, "__init__", lambda c, *a: built.append(c) or init(c, *a))
    polys = []
    monkeypatch.setattr(rauzy, "charpoly", lambda M: polys.append(M) or charpoly(M))
    cls = class_of((4, 3, 2, 1))
    assert sum(1 for _ in enumerate_cycles(cls, 10)) == len(built) == 328
    built.clear()
    survey(cls, 10)
    assert len(built) == 328
    assert len(polys) == sum(c.is_primitive() for c in built) == 21
    # one enumeration that qualifies every loop and builds the 14 qualifying
    # ones proves each primitive charpoly irreducible or not once, and
    # factors nothing: the Perron root comes from the proven charpoly
    counts = {"is_irreducible": 0, "factor": 0}

    def counting(name, f):
        def counted(*args):
            counts[name] += 1
            return f(*args)

        return counted

    monkeypatch.setattr(rauzy, "is_irreducible", counting("is_irreducible", is_irreducible))
    for module in (polynomials, algebraic, numberfield):
        monkeypatch.setattr(module, "factor", counting("factor", polynomials.factor))
    qualifying = [c for c in enumerate_cycles(cls, 10) if c.is_qualifying()]
    assert len(qualifying) == 14
    for c in qualifying:
        self_similar_from_cycle(c)
    assert counts == {"is_irreducible": 21, "factor": 0}


def test_primitive_loops_with_a_reducible_charpoly_keep_their_perron_data():
    # at cap 10 on (4321), 7 of the 21 primitive loops do not qualify: six
    # have the charpoly (x - 1)^2 (x^2 - 7x + 1), one (x^2 - 6x + 1)(x^2 - 3x + 1).
    # They take beta from the factors, a quadratic unit with beta + 1/beta = s
    cycles = list(enumerate_cycles(class_of((4, 3, 2, 1)), 10))
    for c in cycles:
        if c.is_qualifying():
            assert isolate(c.charpoly()) == real_roots(c.charpoly())
    reducible = [c for c in cycles if c.is_primitive() and not c.is_qualifying()]
    expected = {(1, -9, 16, -9, 1): 7, (1, -9, 20, -9, 1): 6}  # charpoly: s
    charpolys = sorted(c.charpoly().coeffs for c in reducible)
    assert charpolys == [(1, -9, 16, -9, 1)] * 6 + [(1, -9, 20, -9, 1)]
    for c in reducible:
        s = expected[c.charpoly().coeffs]
        E, rho = self_similar_from_cycle(c)
        K = rho.field
        beta = K.generator_element()
        assert K.minpoly == IntPoly((1, -s, 1)) and beta > 1
        assert rho == s - beta
        assert E.perm.images == c.base and E.total == 1
        assert all(x.sign() > 0 for x in E.lengths)
        assert mat_vec(c.product, E.lengths) == [beta * x for x in E.lengths]
    # a loop that is not primitive has no Perron data
    flat = next(c for c in cycles if not c.is_primitive())
    with pytest.raises(ValueError, match="not primitive"):
        self_similar_from_cycle(flat)


def test_step_matrix_and_product_match_the_entrywise_reference():
    for base in CENSUS_BASES:
        for v in class_of(base):
            for t in (0, 1):
                assert step_matrix(v, t) == reference_step_matrix(v, t)
    for cyc in enumerate_cycles(class_of((5, 4, 3, 2, 1)), 8):
        P = identity(5)
        for v, t in cyc.steps:
            P = mat_mul(P, reference_step_matrix(v, t))
        assert cyc.product == P


def test_canonical_key_is_the_least_rotation():
    for cyc in enumerate_cycles(class_of((5, 4, 3, 2, 1)), 9):
        steps = cyc.steps
        for r in range(len(steps)):
            turned = RauzyCycle(steps[r:] + steps[:r])
            assert turned.canonical_key() == min(steps[i:] + steps[:i] for i in range(len(steps)))


def test_walk_from_product_is_the_step_product():
    K, r, E = quartic_iet()
    visited, P, _, _ = walk_from(E.perm, E.lengths, 16)
    Q = identity(4)
    images = E.perm.images
    for pi, t in visited:
        Q = mat_mul(Q, reference_step_matrix(images, t))
        images = pi.images
    assert P == Q


def test_cli_census_report(capsys):
    assert main(["report", "census", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    cls = class_of((4, 3, 2, 1))
    rows = survey(cls, 10)
    assert {int(L): tuple(row) for L, row in out["rows"].items()} == rows
    assert len(out["cycles"]) == sum(q for q, _ in rows.values()) == 14
    hits = [c for c in enumerate_cycles(cls, 10) if c.is_qualifying()]
    assert out["cycles"] == [
        {"base": list(c.base), "labels": list(c.edge_labels), "charpoly": list(c.charpoly().coeffs)}
        for c in hits
    ]
    assert out["rows"] == {str(L): list(row) for L, row in census_rows(hits, 10).items()}
    # L below 1 is a usage error: argparse exits with status 2
    with pytest.raises(SystemExit) as exit_info:
        main(["report", "census", "0"])
    assert exit_info.value.code == 2


def test_cli_census_is_one_pass(monkeypatch):
    # 328 distinct cycles up to length 10: one is_qualifying call each
    calls = []
    is_qualifying = RauzyCycle.is_qualifying
    monkeypatch.setattr(RauzyCycle, "is_qualifying", lambda c: calls.append(c) or is_qualifying(c))
    report = json.dumps(census_report(10))
    assert len(calls) == len({c.canonical_key() for c in calls}) == 328
    # the report of the earlier two-pass census, byte for byte
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "2611c5917af2f0c8978538817a0246eaae40fc4b4f6538bc39f24a82252e2c25"
    )


def test_python_m_ietlab_runs_from_a_checkout():
    root = pathlib.Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "ietlab", "report", "census", "4"],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert json.loads(out) == census_report(4)
