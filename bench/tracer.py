"""In-memory span tracer for the ietlab benchmark.

The tracer wraps ietlab's public functions and methods at the names
where callers look them up.  Several modules import by name
(``from .polynomials import factor``), so patching ``polynomials.factor``
alone would miss the calls made through ``numberfield.factor``: every
module namespace that binds the original object is patched, and methods
are patched on their class under every attribute name that holds them
(``__add__`` and ``__radd__`` are one function).

Each call is a span with a start, an end and the span that caused it.
Per span name the tracer keeps the call count, the total duration and
the self time, which is the duration minus the time covered by the
span's direct children (spans nest, since the benchmark is
single-threaded).  Arithmetic-level spans are too many to keep one by
one; they are aggregated only.  All other spans are also kept as
records and written out when the run ends.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter

# (module, attribute, span name) for module-level functions
FUNCTIONS = (
    ("polynomials", "factor", "polynomials.factor"),
    ("polynomials", "is_irreducible", "polynomials.is_irreducible"),
    ("polynomials", "resultant", "polynomials.resultant"),
    ("algebraic", "real_roots", "algebraic.real_roots"),
    ("matrices", "charpoly", "matrices.charpoly"),
    ("matrices", "det", "matrices.det"),
    ("numberfield", "perron_pair", "numberfield.perron_pair"),
    ("numberfield", "eigen_moduli_squared", "numberfield.eigen_moduli_squared"),
    ("modules", "module_normalize", "modules.module_normalize"),
    ("iet", "induce", "iet.induce"),
    ("iet", "check_self_similar", "iet.check_self_similar"),
    ("rauzy", "class_of", "rauzy.class_of"),
    ("rauzy", "survey", "rauzy.survey"),
    ("rauzy", "self_similar_from_cycle", "rauzy.self_similar_from_cycle"),
    ("lattice", "drift_vector", "lattice.drift_vector"),
    ("lattice", "spectrum_check", "lattice.spectrum_check"),
    ("lattice", "density_estimate", "lattice.density_estimate"),
    ("lattice", "unit_representative", "lattice.unit_representative"),
    ("vershik", "vershik_encode", "vershik.encode"),
    ("vershik", "vershik_decode", "vershik.decode"),
    ("vershik", "enumerate_tiles", "vershik.enumerate_tiles"),
    ("vershik", "random_consistent_code", "vershik.random_consistent_code"),
    ("vershik", "d_T", "vershik.d_T"),
    ("vershik", "exponent_report", "vershik.exponent_report"),
    ("builders", "quartic_model", "builders.quartic_model"),
    ("builders", "e2star_model", "builders.e2star_model"),
    ("builders", "ek_model", "builders.ek_model"),
)

# (module, class, attribute, span name) for methods
METHODS = (
    ("numberfield", "FieldElement", "__add__", "numberfield.add"),
    ("numberfield", "FieldElement", "__sub__", "numberfield.sub"),
    ("numberfield", "FieldElement", "__rsub__", "numberfield.sub"),
    ("numberfield", "FieldElement", "__mul__", "numberfield.mul"),
    ("numberfield", "FieldElement", "inverse", "numberfield.inverse"),
    ("numberfield", "FieldElement", "__truediv__", "numberfield.div"),
    ("numberfield", "FieldElement", "__rtruediv__", "numberfield.div"),
    ("numberfield", "FieldElement", "sign", "numberfield.sign"),
    ("algebraic", "RealAlgebraic", "refine", "algebraic.refine"),
    ("modules", "ModuleData", "from_m_coords", "modules.from_m_coords"),
    ("iet", "IET", "atom_of", "iet.atom_of"),
    ("iet", "IET", "apply", "iet.apply"),
    ("iet", "IET", "orbit", "iet.orbit"),
    ("lattice", "LatticeModel", "__init__", "lattice.LatticeModel"),
    ("lattice", "LatticeModel", "psi_orbit", "lattice.psi_orbit"),
)

# aggregated only: these run up to millions of times per run
HOT = frozenset({
    "numberfield.add", "numberfield.sub", "numberfield.mul", "numberfield.inverse",
    "numberfield.div", "numberfield.sign", "algebraic.refine", "modules.from_m_coords",
    "iet.atom_of", "iet.apply", "lattice.predicate",
})

# span name -> the enclosing span names whose calls it is counted inside
INSIDE = {
    "iet.atom_of": ("lattice.psi_orbit",),
    "modules.from_m_coords": ("lattice.predicate",),
}
CONTEXTS = frozenset(c for cs in INSIDE.values() for c in cs)

MAX_RECORDS = 200_000

MODULES = (
    "polynomials", "algebraic", "matrices", "numberfield", "iet", "rauzy",
    "modules", "lattice", "substitution", "vershik", "builders",
)


class Tracer:
    """Span aggregates plus a bounded list of span records."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}        # name -> [calls, total_s, self_s]
        self.inside = Counter()  # "child@context" -> calls
        self.counters = Counter()  # work counted from arguments and results
        self.records = []      # (id, parent id, name, start, end)
        self.dropped = 0
        self._stack = []       # frames [child time, record id]
        self._open = Counter()
        self._next_id = 0
        self._t0 = clock()
        self._undo = []
        self.enabled = True

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block are not traced."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, name, fn, post=None):
        """fn wrapped in a span called `name`; post(tracer, args, kwargs,
        result) runs after the call, outside the span."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, open_, inside, records = self._stack, self._open, self.inside, self.records
        keep = name not in HOT
        is_context = name in CONTEXTS
        inside_keys = [(c, f"{name}@{c}") for c in INSIDE.get(name, ())]
        perf = self.clock
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            for ctx, key in inside_keys:
                if open_[ctx]:
                    inside[key] += 1
            parent = stack[-1][1] if stack else -1
            if keep:
                rid = tracer._next_id
                tracer._next_id += 1
            else:
                rid = parent
            frame = [0.0, rid]
            stack.append(frame)
            if is_context:
                open_[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if is_context:
                    open_[name] -= 1
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    if len(records) < MAX_RECORDS:
                        records.append((rid, parent, name, start - tracer._t0, end - tracer._t0))
                    else:
                        tracer.dropped += 1
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Patch every lookup site of the traced ietlab names."""
        mods = [importlib.import_module(f"ietlab.{m}") for m in MODULES]
        by_name = dict(zip(MODULES, mods))
        for mod_name, attr, name in FUNCTIONS:
            orig = getattr(by_name[mod_name], attr)
            self._patch_bindings(mods, orig, self.wrap(name, orig, _POST.get(name)))
        # interval_predicate returns a closure; the closure is the predicate
        orig = by_name["lattice"].interval_predicate
        factory = self._predicate_factory(orig)
        self._patch_bindings(mods, orig, self.wrap("lattice.interval_predicate", factory))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(by_name[mod_name], cls_name)
            orig = vars(cls)[attr]
            self._patch_bindings([cls], orig, self.wrap(name, orig, _POST.get(name)))
        return self

    def _patch_bindings(self, owners, orig, wrapped):
        """Rebind every name in `owners` that holds `orig`."""
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is orig:
                    self._set(owner, key, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _predicate_factory(self, interval_predicate):
        tracer = self

        def make(*args, **kwargs):
            member = interval_predicate(*args, **kwargs)
            inner = tracer.wrap("lattice.predicate", member)
            key = "modules.from_m_coords@lattice.predicate"

            def predicate(reduced):
                before = tracer.inside[key]
                out = inner(reduced)
                if tracer.inside[key] != before:
                    tracer.counters["lattice.predicate.exact"] += 1
                return out

            return predicate

        return make

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready aggregates: {stats, inside, counters, spans}."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "inside": dict(self.inside),
            "counters": dict(self.counters),
            "spans": sum(v[0] for v in self.stats.values()),
            "dropped": self.dropped,
        }


def _count_steps(tracer, args, kwargs, result):
    k = kwargs["k"] if "k" in kwargs else args[2]
    tracer.counters["lattice.psi_orbit.steps"] += k


def _count_levels(tracer, args, kwargs, result):
    tracer.counters["vershik.encode.levels"] += result.t + result.T


_POST = {
    "lattice.psi_orbit": _count_steps,
    "vershik.encode": _count_levels,
}


def merge(summaries) -> dict:
    """Sum several summaries (one per cold report pass)."""
    out = {"stats": {}, "inside": Counter(), "counters": Counter(), "spans": 0, "dropped": 0}
    for s in summaries:
        for k, v in s["stats"].items():
            acc = out["stats"].setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += v[i]
        out["inside"].update(s["inside"])
        out["counters"].update(s["counters"])
        out["spans"] += s["spans"]
        out["dropped"] += s["dropped"]
    out["inside"] = dict(out["inside"])
    out["counters"] = dict(out["counters"])
    return out


def layer_metrics(summary: dict, units: int = 1) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from a summary.

    Calls and self times are divided by `units` (the number of cold
    passes for paper_report, 1 otherwise); means and shares are ratios of
    the whole run.  A layer the workload does not reach reports 0.
    """
    stats = summary["stats"]
    inside = summary["inside"]
    counters = summary["counters"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2] / units

    def mean_us(name):
        n = calls(name)
        return total(name) / n * 1e6 if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    steps = counters.get("lattice.psi_orbit.steps", 0)
    fallbacks = inside.get("iet.atom_of@lattice.psi_orbit", 0)
    points = calls("lattice.predicate")
    levels = counters.get("vershik.encode.levels", 0)
    m = {}
    for name in ("polynomials.factor", "polynomials.is_irreducible"):
        m[f"{name}.calls"] = calls(name) / units
        m[f"{name}.self_s"] = self_s(name)
    m["algebraic.real_roots.self_s"] = self_s("algebraic.real_roots")
    m["algebraic.refine.calls"] = calls("algebraic.refine") / units
    m["algebraic.refine.self_s"] = self_s("algebraic.refine")
    m["matrices.charpoly.self_s"] = self_s("matrices.charpoly")
    m["matrices.det.self_s"] = self_s("matrices.det")
    m["numberfield.sign.calls"] = calls("numberfield.sign") / units
    m["numberfield.sign.mean_us"] = mean_us("numberfield.sign")
    m["numberfield.add.mean_us"] = mean_us("numberfield.add")
    m["numberfield.mul.calls"] = calls("numberfield.mul") / units
    m["numberfield.mul.mean_us"] = mean_us("numberfield.mul")
    m["numberfield.inverse.calls"] = calls("numberfield.inverse") / units
    m["numberfield.inverse.mean_us"] = mean_us("numberfield.inverse")
    m["numberfield.perron_pair.self_s"] = self_s("numberfield.perron_pair")
    m["modules.module_normalize.self_s"] = self_s("modules.module_normalize")
    m["modules.from_m_coords.predicate_calls"] = (
        inside.get("modules.from_m_coords@lattice.predicate", 0) / units
    )
    m["iet.atom_of.calls"] = calls("iet.atom_of") / units
    m["iet.atom_of.mean_us"] = mean_us("iet.atom_of")
    m["iet.induce.self_s"] = self_s("iet.induce")
    m["rauzy.survey.self_s"] = self_s("rauzy.survey")
    m["rauzy.self_similar_from_cycle.self_s"] = self_s("rauzy.self_similar_from_cycle")
    m["rauzy.cycles_qualifying"] = calls("rauzy.self_similar_from_cycle") / units
    m["lattice.psi_orbit.ns_per_step"] = ratio(total("lattice.psi_orbit"), steps) * 1e9
    m["lattice.exact_fallbacks"] = fallbacks / units
    m["lattice.exact_fallback_share"] = ratio(fallbacks, steps)
    m["lattice.predicate.us_per_point"] = ratio(total("lattice.predicate"), points) * 1e6
    m["lattice.predicate.exact_share"] = ratio(counters.get("lattice.predicate.exact", 0), points)
    m["lattice.LatticeModel.self_s"] = self_s("lattice.LatticeModel")
    m["vershik.encode.levels"] = levels / units
    m["vershik.encode.us_per_level"] = ratio(total("vershik.encode"), levels) * 1e6
    for name in ("vershik.decode", "vershik.enumerate_tiles", "vershik.d_T",
                 "vershik.exponent_report", "builders.quartic_model",
                 "builders.e2star_model", "builders.ek_model"):
        m[f"{name}.self_s"] = self_s(name)
    m["trace.spans"] = summary["spans"] / units
    return m
