"""Benchmark of ietlab: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ietlab is imported from ./src.  The last
line of standard output is a JSON object {correct, attempted, failed,
metrics}.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics of a separate
traced run, whose span aggregates and span records are also written to
.bench_out/.  The lines before it name every figure with its unit.
The exit code is 0 only when every output matched its check.

See bench/README.md for the workloads and what each metric measures.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 3
# seconds that calibrate() takes on the development machine at its usual
# speed; end-to-end times are scaled by CAL_REF_S / (measured calibration)
CAL_REF_S = 0.010
CAL_REPS = 3  # calibrations between rounds, and before, between and after the stages of a cold pass
WORKLOADS = ("paper_report", "lattice_walk", "exact_coding")
OUT_DIR = Path(".bench_out")

if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
from tracer import MODULES  # noqa: E402  (tracer imports no ietlab code)


def import_ietlab() -> float:
    """Import every ietlab module from ./src; returns the seconds taken."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    t = time.perf_counter()
    for m in MODULES:
        importlib.import_module(f"ietlab.{m}")
    return time.perf_counter() - t


def tail_percentile(samples, q: float):
    """Nearest-rank q-quantile; raises unless at least ten samples lie
    beyond it, so a p90 needs 100 samples."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n - rank < 10:
        raise ValueError(f"only {n - rank} of {n} samples lie beyond the {q} quantile")
    return sorted(samples)[rank - 1]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: float compares and adds like
    the lattice fast path, then Fraction arithmetic like the exact layers.
    The host's speed drifts by tens of percent between runs; run next to
    the workload, this loop drifts with it."""
    t = time.perf_counter()
    bounds = (0.1, 0.35, 0.6, 1.0)
    taus = (0.3, -0.1, 0.2, -0.45)
    x = 0.05
    for _ in range(6000):
        for i, b in enumerate(bounds):
            if x < b:
                break
        x += taus[i]
        if x < 0.0:
            x += 1.0
        elif x >= 1.0:
            x -= 1.0
    a, b = Fraction(3, 7), Fraction(-5, 11)
    for i in range(1, 400):
        a = (a * b + Fraction(i, i + 3)) / (1 + a * a)
        if a.denominator > 10**60:
            a = Fraction(a.numerator % 1000, 997)
    return time.perf_counter() - t


def machine_speed(cal_s) -> float:
    """How much faster than the reference the machine ran: CAL_REF_S over
    the median calibration time."""
    return CAL_REF_S / statistics.median(cal_s)


def generator_bits(model) -> float:
    """-log2 of the width of the field generator's isolating interval."""
    g = model.field.generator
    width = g.hi - g.lo
    if width == 0:
        return math.inf
    return math.log2(width.denominator) - math.log2(width.numerator)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Result:
    """Figures of one run: the end-to-end slots, the named figures the
    slots stand for, and the per-layer metrics of a traced run."""

    def __init__(self):
        self.metrics = {}
        self.named = []

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def figure(self, name, value, unit, note=""):
        self.named.append((name, value, unit, note))


# -- paper_report ----------------------------------------------------------------


def cold_pass(seed: int, trace: bool) -> dict:
    """One report in a fresh interpreter (bench/cold_report.py)."""
    cmd = [sys.executable, str(BENCH / "cold_report.py"), "--seed", str(seed),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"cold report pass failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_paper_report(args, tally, res, tracer_out):
    """Cold passes for --seconds.  A traced run alternates untraced and
    traced passes; the tracing overhead is the median ratio of a pair."""
    import tracer as tr

    passes, ratios = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        order = (False, True) if len(ratios) % 2 == 0 else (True, False)
        got = {traced: cold_pass(args.seed, traced) for traced in (order if args.trace else (False,))}
        for p in got.values():
            for key, value in p["digests"].items():
                tally.attempted += 1
                tally.expect(key, value)
        if args.trace:
            ratios.append(got[True]["timings"]["report_s"] / got[False]["timings"]["report_s"])
        passes.append(got[bool(args.trace)])
    if args.trace:
        summary = tr.merge(p["trace"] for p in passes)
        layers = tr.layer_metrics(summary, units=len(passes))
        layers["trace.overhead_share"] = statistics.median(ratios) - 1
        layers.update(passes[-1]["bits"])
        tracer_out["summary"] = summary
        tracer_out["records"] = [p["records"] for p in passes]
        return layers
    # each stage of a pass is scaled by the calibrations on either side of it
    t = [p["timings"] for p in passes]
    cal = [p["cal_s"] for p in passes]
    before = [machine_speed(c["before"]) for c in cal]
    census_speed = [machine_speed(c["before"] + c["between"]) for c in cal]
    models_speed = [machine_speed(c["between"] + c["after"]) for c in cal]
    report_ref_s = [x["census_s"] * sc + x["models_s"] * sm
                    for x, sc, sm in zip(t, census_speed, models_speed)]
    census = [x["census_cycles"] / x["census_s"] for x in t]
    reported = [x["models"] / x["models_s"] for x in t]
    import_s = [p["import_s"] for p in passes]
    res.metric("setup_s", statistics.median(i * v for i, v in zip(import_s, before)), "s")
    res.metric("peak_rss_mb", max(p["rss_kb"] for p in passes) / 1024, "MB")
    res.metric("op_p50_ref_ms", statistics.median(report_ref_s) * 1e3, "ms")
    res.metric("main_ref_per_s", statistics.median(c / v for c, v in zip(census, census_speed)), "1/s")
    res.metric("side_ref_per_s", statistics.median(m / v for m, v in zip(reported, models_speed)), "1/s")
    res.figure("setup_raw_s", statistics.median(import_s), "s", "import of ietlab")
    res.figure("report_s", statistics.median(x["report_s"] for x in t), "s",
               f"median of {len(passes)} cold passes")
    res.figure("census_cycles_per_s", statistics.median(census), "1/s")
    res.figure("model_reports_per_s", statistics.median(reported), "1/s")
    res.figure("machine_speed", statistics.median(census_speed + models_speed), "x",
               f"{3 * CAL_REPS} calibrations per pass")
    return None


# -- lattice_walk and exact_coding --------------------------------------------------


def warm(models):
    for m in models.values():
        m.psi_orbit(m.point_of(m.field.zero), 1)  # fills the float cache
    return models


def build_models(names, W):
    return warm({name: W.build(name) for name in names})


def calibrations():
    return [calibrate() for _ in range(CAL_REPS)]


def timed_builds(names, W):
    """SETUP_REPS fresh builds between speed calibrations; returns (median
    seconds, machine speed during the builds, last models)."""
    times = []
    cal_s = calibrations()
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        models = build_models(names, W)
        times.append(time.perf_counter() - t)
    cal_s += calibrations()
    return statistics.median(times), machine_speed(cal_s), models


def new_acc():
    return {"walk_s": 0.0, "steps": 0, "walk_ms": [], "density_s": 0.0, "points": 0,
            "orbit_s": 0.0, "encode_ms": [], "tiles_s": 0.0, "tiles": 0}


def add(total, part, speed=1.0):
    """Add the figures of `part` to `total`, its times multiplied by speed."""
    for key, value in part.items():
        if isinstance(value, list):
            total[key] += [v * speed for v in value]
        elif key.endswith("_s"):
            total[key] += value * speed
        else:
            total[key] += value


def calibrated(work, acc, ref, cal_before):
    """work(part) between two calibrations: its figures go to acc as
    measured and to ref scaled by the machine speed on either side.
    Returns the calibrations made after it."""
    part = new_acc()
    work(part)
    cal_after = calibrations()
    add(acc, part)
    add(ref, part, machine_speed(cal_before + cal_after))
    return cal_after


def busy_s(acc) -> float:
    """Seconds spent inside timed ietlab calls."""
    return (acc["walk_s"] + acc["density_s"] + acc["orbit_s"] + acc["tiles_s"]
            + sum(acc["encode_ms"]) / 1e3)


def run_rounds(args, one_round, min_rounds, tally, acc, ref):
    """Rounds 0, 1, ... until --seconds have passed and at least
    min_rounds ran, each between speed calibrations; returns the number
    of rounds."""
    start = time.perf_counter()
    cal = calibrations()
    r = 0
    while r < min_rounds or time.perf_counter() - start < args.seconds:
        cal = calibrated(lambda part: one_round(r, tally, part, []), acc, ref, cal)
        r += 1
    return r


def run_sampled(args, tally, res, tracer_out, import_s):
    """lattice_walk and exact_coding: set up, then rounds of seeded
    operations for --seconds.  A traced run runs every round twice,
    untraced and traced; the tracing overhead is the median ratio."""
    import tracer as tr
    import workloads as W

    walk = args.workload == "lattice_walk"
    names = W.WALK_MODELS if walk else W.CODING_MODELS

    def rounds_on(models):
        if walk:
            inputs = W.WalkInputs(models)
            return inputs, lambda r, t, a, out: W.walk_round(inputs, args.seed, r, t, a, out)
        inputs = W.CodingInputs(models, args.seed)
        return inputs, lambda r, t, a, out: W.coding_round(inputs, args.seed, r, t, a, out)

    acc = new_acc()
    if args.trace:
        tracer = tr.Tracer()
        tally.quiet = tracer.paused  # inputs and checks are the benchmark's own work
        tracer.install()
        models = {name: W.build(name) for name in names}
        tracer.uninstall()
        inputs, one_round = rounds_on(warm(models))
        tracer.install()
        if walk:
            W.long_walk(inputs, args.seed, tally, acc)
        ratios = []

        def paired(r, tally, acc, out):
            """Round r untraced and traced, in alternating order."""
            got = {}
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                if not traced:
                    tracer.uninstall()
                got[traced] = new_acc()
                one_round(r, tally, got[traced], out)
                if not traced:
                    tracer.install()
            ratios.append(busy_s(got[True]) / busy_s(got[False]))

        run_rounds(args, paired, inputs.rounds, tally, acc, new_acc())
        tracer.uninstall()
        summary = tracer.summary()
        layers = tr.layer_metrics(summary)
        layers["trace.overhead_share"] = statistics.median(ratios) - 1
        for name in ("quartic", "e2star"):
            layers[f"numberfield.generator_bits.{name}"] = generator_bits(models[name])
        tracer_out["summary"] = summary
        tracer_out["records"] = tracer.records
        return layers

    build_s, setup_speed, models = timed_builds(names, W)
    inputs, one_round = rounds_on(models)
    ref = new_acc()  # times scaled to the reference machine speed
    if walk:
        calibrated(lambda part: W.long_walk(inputs, args.seed, tally, part),
                   acc, ref, calibrations())
    rounds = run_rounds(args, one_round, inputs.rounds, tally, acc, ref)

    res.metric("setup_s", (import_s + build_s) * setup_speed, "s")
    res.figure("setup_raw_s", import_s + build_s, "s", f"import + median of {SETUP_REPS} builds")
    res.metric("peak_rss_mb", peak_rss_mb(), "MB")
    if walk:
        ops, main, side = "walk_ms", ("steps", "walk_s"), ("points", "density_s")
        res.figure(f"walk_{W.SHORT_STEPS}_p50_ms", statistics.median(acc[ops]), "ms",
                   f"{len(acc[ops])} walks")
        res.figure("walk_steps_per_s", acc["steps"] / acc["walk_s"], "1/s",
                   f"{acc['steps']} steps, one walk of {W.LONG_STEPS}")
        res.figure("density_points_per_s", acc["points"] / acc["density_s"], "1/s",
                   f"{acc['points']} points")
    else:
        ops, main, side = "encode_ms", ("steps", "orbit_s"), ("tiles", "tiles_s")
        res.figure("encode_p50_ms", statistics.median(acc[ops]), "ms", f"{len(acc[ops])} encodes")
        res.figure("encode_p90_ms", tail_percentile(acc[ops], 0.9), "ms",
                   f"{len(acc[ops])} encodes")
        res.figure("exact_steps_per_s", acc["steps"] / acc["orbit_s"], "1/s",
                   f"{acc['steps']} steps")
        res.figure("tiles_per_s", acc["tiles"] / acc["tiles_s"], "1/s", f"{acc['tiles']} tiles")
    res.metric("op_p50_ref_ms", statistics.median(ref[ops]), "ms")
    res.metric("main_ref_per_s", ref[main[0]] / ref[main[1]], "1/s")
    res.metric("side_ref_per_s", ref[side[0]] / ref[side[1]], "1/s")
    res.figure("machine_speed", busy_s(ref) / busy_s(acc), "x",
               f"time-weighted, {CAL_REPS} calibrations between rounds")
    res.figure("rounds", rounds, "count")
    return None


# -- entry point ---------------------------------------------------------------------


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    try:
        import_s = import_ietlab()
        import workloads as W
        golden = W.load_golden()
    except (ImportError, OSError) as exc:
        print(f"bench: cannot load ietlab or the recorded outputs: {exc}", file=sys.stderr)
        return 2
    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    tally = W.Tally(golden)
    res = Result()
    tracer_out = {}
    if args.workload == "paper_report":
        layers = run_paper_report(args, tally, res, tracer_out)
    else:
        layers = run_sampled(args, tally, res, tracer_out, import_s)

    res.figure("failed_share", tally.failed / max(tally.attempted, 1), "share",
               f"{tally.failed} of {tally.attempted}; {tally.rejected} rejected as documented")
    for note in tally.notes:
        print(f"FAILED {note}", file=sys.stderr)
    if layers is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"env": env, "layers": layers, **tracer_out}, fh)
        for name in sorted(layers):
            print(f"layer {name} = {layers[name]:.6g}")
        print(f"trace written to {path}")
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
    else:
        for name, value, unit, note in res.named:
            print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
        metrics = res.metrics
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.failed == 0 else 1


def layer_unit(name: str) -> str:
    for suffix, unit in ((".self_s", "s"), (".mean_us", "us"), (".us_per_point", "us"),
                         (".us_per_level", "us"), (".ns_per_step", "ns"), ("_share", "share"),
                         (".generator_bits.quartic", "bits"), (".generator_bits.e2star", "bits")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
