"""Inputs, operations and exact checks of the three benchmark workloads.

Every operation's exact output is reduced to a short digest.  The
operations a seed can draw come from finite, fixed sets (the item
universes below), and `golden.json` holds the digest of every item as
recorded at the commit that added this benchmark, so any seed's outputs
are checked against recorded values.  The random Vershik codes are the
one open-ended input; their round trip is checked exactly instead.

ietlab functions are always called through their module
(``vershik.vershik_encode``), so the tracer's patches are seen.
"""
from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from ietlab import builders, lattice, matrices, polynomials, rauzy, vershik
from ietlab.numberfield import FieldElement
from ietlab.polynomials import IntPoly

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# -- paper_report ------------------------------------------------------------
CENSUS_BASE = (4, 3, 2, 1)
CENSUS_CAP = 10
EK_RANGE = tuple(range(1, 13))
EK_PER_PASS = 4

# -- lattice_walk ------------------------------------------------------------
WALK_MODELS = ("quartic", "e2star", "ek1", "ek2", "ek4")
SHORT_STEPS = 1 << 15
LONG_STEPS = 1 << 21
LONG_MODEL = "quartic"
WALKS_PER_MODEL = 2
LAYER0_STARTS = 6
RATIONAL_STARTS = 10
DENSITY_GRID = 12  # subintervals [a/12, b/12)
DENSITY_BOX = {3: 24, 4: 8}  # half-width of the box, by lattice rank
CROSS_CHECK_SHARE = 0.1
CROSS_CHECK_STEPS = 32

# -- exact_coding ------------------------------------------------------------
CODING_MODELS = ("quartic", "e2star")
BOX = 3  # free coordinates range over [-BOX, BOX]
# every run encodes all points of these boxes (125 + 49), in seeded order:
# a fixed census keeps the encode percentiles free of sampling noise
ENCODE_BOX = {"quartic": 2, "e2star": 3}
ENCODE_DEPTH = 24
ENCODES_PER_ROUND = 16
ROUNDTRIP_DEPTH = 256
ROUNDTRIP_TRIES = 50
ORBIT_STEPS = 48
ORBITS_PER_MODEL = 2
TILE_DEPTH = {"quartic": 3, "e2star": 2}


def build(name: str):
    """A fresh model by name: quartic, e2star or ek<k>."""
    if name == "quartic":
        return builders.quartic_model()
    if name == "e2star":
        return builders.e2star_model()
    if name.startswith("ek"):
        return builders.ek_model(int(name[2:]))
    raise ValueError(f"unknown model {name}")


# -- digests -------------------------------------------------------------------


def canon(obj):
    """A JSON-ready canonical form of an exact output.

    Field elements become their power-basis coordinates, which do not
    depend on the module basis the field carries.
    """
    if isinstance(obj, FieldElement):
        return ["K"] + [str(Fraction(c)) for c in obj.power_coords]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, IntPoly):
        return ["P"] + list(obj.coeffs)
    if isinstance(obj, lattice.LatticePoint):
        return [[str(c) for c in obj.layer], list(obj.z)]
    if isinstance(obj, vershik.VershikCode):
        return [[[m.rule, m.cut] for m in obj.transient], [[m.rule, m.cut] for m in obj.period]]
    if isinstance(obj, dict):
        return [[canon(k), canon(v)] for k, v in sorted(obj.items())]
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    text = json.dumps(canon(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


class Tally:
    """Operations attempted, failed and rejected, with the failure notes."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.quiet = contextlib.nullcontext  # wraps the checks; a traced run pauses tracing
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.notes = []

    def fail(self, what: str):
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)

    def expect(self, key: str, value: str) -> bool:
        want = self.golden.get(key)
        if want is None:
            self.fail(f"{key}: no recorded value")
            return False
        if want != value:
            self.fail(f"{key}: got {value}, recorded {want}")
            return False
        return True


# -- paper_report ----------------------------------------------------------------


def report_ks(seed: int):
    rng = random.Random(f"paper_report/{seed}")
    return sorted(rng.sample(EK_RANGE, EK_PER_PASS))


def factor_list(fac):
    content, pieces = fac
    return [content, sorted([list(p.coeffs), m] for p, m in pieces)]


def census():
    """Census rows of the (4321) class up to the cap, and the
    self-similar IET of every qualifying cycle."""
    cls = rauzy.class_of(CENSUS_BASE)
    rows = rauzy.survey(cls, CENSUS_CAP)
    cycles = 0
    built = []
    for cyc in rauzy.enumerate_cycles(cls, CENSUS_CAP):
        cycles += 1
        if cyc.is_qualifying():
            E, rho = rauzy.self_similar_from_cycle(cyc)
            built.append((cyc.canonical_key(), cyc.charpoly(), E.perm.images, E.lengths, rho))
    return {"rows": rows, "cycles": sorted(built, key=lambda r: r[0])}, cycles


def model_report(model):
    """The paper's invariants of one model."""
    S, consistent = lattice.drift_vector(model)
    out = {"drift": list(S), "drift_zero": S.is_zero, "consistent": consistent}
    if model.R is not None:
        out["spectrum"] = list(lattice.spectrum_check(model))
        out["d_T"] = [vershik.d_T(model, T) for T in range(1, 6)]
        er = vershik.exponent_report(model)
        out["eq_flag"] = er.eq_flag
        out["beta2_multiplicity"] = er.beta2_multiplicity
        out["factor_R"] = factor_list(polynomials.factor(matrices.charpoly(model.R)))
        out["factor_M"] = factor_list(
            polynomials.factor(matrices.charpoly(model.sigma.incidence()))
        )
    else:
        out["factor_minpoly"] = factor_list(polynomials.factor(model.field.minpoly))
    return out


def report_pass(ks, between=None):
    """One full report; returns (timings, digests by golden key, models).
    between(), if given, runs untimed between the census and the models."""
    t0 = time.perf_counter()
    table, cycles = census()
    census_s = time.perf_counter() - t0
    if between is not None:
        between()
    t1 = time.perf_counter()
    reports = {}
    models = {}
    for name in ["quartic", "e2star"] + [f"ek{k}" for k in ks]:
        models[name] = build(name)
        reports[name] = model_report(models[name])
    models_s = time.perf_counter() - t1
    digests = {f"census/{CENSUS_CAP}": digest(table)}
    digests.update({f"model/{name}": digest(r) for name, r in reports.items()})
    timings = {
        "report_s": census_s + models_s,
        "census_s": census_s,
        "census_cycles": cycles,
        "models_s": models_s,
        "models": len(reports),
    }
    return timings, digests, models


# -- lattice_walk ------------------------------------------------------------------


def _domain_point(model, rng, den):
    """A field point in [0, total) with power coordinates in (1/den)Z."""
    K = model.field
    g = K.generator_element()
    while True:
        x = K.zero
        power = K.one
        for _ in range(model.n):
            x = x + power * Fraction(rng.randint(-3 * den, 3 * den), den)
            power = power * g
        x = x - math.floor(float(x))
        if x.sign() >= 0 and (x - model.total).sign() < 0:
            return x


def walk_starts(model):
    """The fixed start list of a model: atom left endpoints (singular
    orbits), points of layer 0, and points of rational layers xi != 0."""
    starts = [model.point_of(left) for left, _ in model.E.atoms()]
    rng = random.Random(f"starts/{model.name}")
    for _ in range(LAYER0_STARTS):
        starts.append(model.point_of(_domain_point(model, rng, 1)))
    made = 0
    while made < RATIONAL_STARTS:
        p = model.point_of(_domain_point(model, rng, rng.choice((3, 4, 5, 6))))
        if any(p.layer):
            starts.append(p)
            made += 1
    return starts


def walk_key(name, idx, steps):
    return f"walk/{name}/{idx}/{steps}"


def check_walk(model, start, end, counts, steps, tally, what):
    """z_k - z_0 = projection * counts and the endpoint in the domain."""
    ok = sum(counts) == steps
    for r in range(model.n):
        moved = sum(model.projection[r][i] * counts[i] for i in range(model.E.N))
        ok = ok and end.z[r] - start.z[r] == moved
    x = model.value_of(end)
    ok = ok and x.sign() >= 0 and (x - model.total).sign() < 0
    if not ok:
        tally.fail(f"{what}: lattice ledger or domain check failed")
    return ok


def cross_check(model, start, tally, what):
    """The lattice walk agrees with the exact map for a short k."""
    end, _, _ = model.psi_orbit(start, CROSS_CHECK_STEPS)
    _, y = model.E.orbit(model.value_of(start), CROSS_CHECK_STEPS)
    if model.value_of(end) != y:
        tally.fail(f"{what}: psi_orbit disagrees with the exact map")


def density_key(name, a, b):
    return f"density/{name}/{a}/{b}"


def density(model, a, b):
    """Box density of phi(M intersect [a/12, b/12)); returns (value, points)."""
    k = DENSITY_BOX[model.n]
    member = lattice.interval_predicate(model, Fraction(a, DENSITY_GRID), Fraction(b, DENSITY_GRID))
    return lattice.density_estimate(model, member, k), model.module.b * (2 * k) ** (model.n - 1)


class WalkInputs:
    """Models and start lists of one lattice_walk run."""

    rounds = 1  # the rounds a run needs at least

    def __init__(self, models):
        self.models = models
        self.starts = {name: walk_starts(m) for name, m in models.items()}


def timed_walk(inp: WalkInputs, name, idx, steps, tally: Tally, acc: dict):
    """One psi_orbit call from start idx, timed, checked and digested;
    returns (milliseconds, digest)."""
    model = inp.models[name]
    start = inp.starts[name][idx]
    t = time.perf_counter()
    end, counts, _ = model.psi_orbit(start, steps)
    dt = time.perf_counter() - t
    acc["walk_s"] += dt
    acc["steps"] += steps
    tally.attempted += 1
    key = walk_key(name, idx, steps)
    value = digest([end, counts])
    with tally.quiet():
        if check_walk(model, start, end, counts, steps, tally, key):
            tally.expect(key, value)
    return dt * 1e3, value


def long_walk(inp: WalkInputs, seed: int, tally: Tally, acc: dict):
    """One single-call walk of LONG_STEPS steps from a seeded start."""
    idx = random.Random(f"lattice_walk/{seed}/long").randrange(len(inp.starts[LONG_MODEL]))
    timed_walk(inp, LONG_MODEL, idx, LONG_STEPS, tally, acc)


def walk_round(inp: WalkInputs, seed: int, r: int, tally: Tally, acc: dict, out: list):
    """Short walks and density estimates on every model."""
    rng = random.Random(f"lattice_walk/{seed}/{r}")
    for name, model in inp.models.items():
        for _ in range(WALKS_PER_MODEL):
            idx = rng.randrange(len(inp.starts[name]))
            ms, value = timed_walk(inp, name, idx, SHORT_STEPS, tally, acc)
            acc["walk_ms"].append(ms)
            out.append(value)
            if rng.random() < CROSS_CHECK_SHARE:
                with tally.quiet():
                    cross_check(model, inp.starts[name][idx], tally, walk_key(name, idx, SHORT_STEPS))
        a, b = sorted(rng.sample(range(DENSITY_GRID + 1), 2))
        t = time.perf_counter()
        value, points = density(model, a, b)
        acc["density_s"] += time.perf_counter() - t
        acc["points"] += points
        tally.attempted += 1
        out.append(str(value))
        tally.expect(density_key(name, a, b), str(value))


# -- exact_coding ------------------------------------------------------------------


def box_points(n_free: int, half_width: int = BOX):
    return list(itertools.product(range(-half_width, half_width + 1), repeat=n_free))


def zkey(zfree) -> str:
    return ",".join(str(c) for c in zfree)


def encode_key(name, zfree):
    return f"encode/{name}/{zkey(zfree)}/{ENCODE_DEPTH}"


def orbit_key(name, zfree):
    return f"orbit/{name}/{zkey(zfree)}/{ORBIT_STEPS}"


def tiles_key(name):
    return f"tiles/{name}/{TILE_DEPTH[name]}"


def tiles_digest(model, tiles, tally, what):
    """Tiles sorted by position must tile [0, total) exactly; the digest
    is of their count and chains in that order."""
    ordered = sorted(tiles, key=lambda rec: float(rec[1]))
    cursor = model.field.zero
    ok = True
    for _, left, length in ordered:
        ok = ok and left == cursor and length.sign() > 0
        cursor = cursor + length
    if not ok or cursor != model.total:
        tally.fail(f"{what}: tiles do not tile the domain exactly")
    return digest([len(ordered), [[[m.rule, m.cut] for m in c] for c, _, _ in ordered]])


def box_input(model, zfree, tally):
    """The module point in [0, 1) with the given free coordinates."""
    with tally.quiet():
        return lattice.unit_representative(model, zfree)


class CodingInputs:
    """Models of one exact_coding run and its seeded encode census."""

    def __init__(self, models, seed: int):
        self.models = models
        self.census = [
            (name, zfree)
            for name, m in models.items()
            for zfree in box_points(m.n - 1, ENCODE_BOX[name])
        ]
        random.Random(f"exact_coding/{seed}/census").shuffle(self.census)
        self.rounds = -(-len(self.census) // ENCODES_PER_ROUND)  # to finish the census


def coding_round(inp: CodingInputs, seed: int, r: int, tally: Tally, acc: dict, out: list):
    """A slice of the encode census, then on every model exact orbits from
    box points, a decode/encode round trip of a random code, and tile
    enumeration."""
    rng = random.Random(f"exact_coding/{seed}/{r}")
    for name, zfree in inp.census[r * ENCODES_PER_ROUND:(r + 1) * ENCODES_PER_ROUND]:
        model = inp.models[name]
        x = box_input(model, zfree, tally)
        t = time.perf_counter()
        code = vershik.vershik_encode(model, x, depth=ENCODE_DEPTH)
        acc["encode_ms"].append((time.perf_counter() - t) * 1e3)
        tally.attempted += 1
        if not code.determined:
            tally.rejected += 1  # undetermined at the depth cap
        value = digest(code)
        out.append(value)
        tally.expect(encode_key(name, zfree), value)

    for name, model in inp.models.items():
        box = box_points(model.n - 1)
        for _ in range(ORBITS_PER_MODEL):
            zfree = rng.choice(box)
            x = box_input(model, zfree, tally)
            t = time.perf_counter()
            word, y = model.E.orbit(x, ORBIT_STEPS)
            acc["orbit_s"] += time.perf_counter() - t
            acc["steps"] += ORBIT_STEPS
            tally.attempted += 1
            value = digest([word, y])
            out.append(value)
            tally.expect(orbit_key(name, zfree), value)

        for _ in range(ROUNDTRIP_TRIES):
            code = vershik.random_consistent_code(model, rng)
            tally.attempted += 1
            try:
                x = vershik.vershik_decode(model, code)
            except ValueError:
                tally.rejected += 1  # geometrically invalid code
                continue
            again = vershik.vershik_encode(model, x, depth=ROUNDTRIP_DEPTH)
            tally.attempted += 1
            out.append(digest([code, again]))
            if not again.determined:
                tally.rejected += 1
            elif vershik.vershik_decode(model, again) != x:
                tally.fail(f"roundtrip/{name}: decode(encode(x)) != x for {code.to_line()}")
            break
        else:
            tally.fail(f"roundtrip/{name}: no valid random code in {ROUNDTRIP_TRIES} tries")

        t = time.perf_counter()
        tiles = vershik.enumerate_tiles(model, TILE_DEPTH[name])
        acc["tiles_s"] += time.perf_counter() - t
        acc["tiles"] += len(tiles)
        tally.attempted += 1
        with tally.quiet():
            value = tiles_digest(model, tiles, tally, tiles_key(name))
        out.append(value)
        tally.expect(tiles_key(name), value)
