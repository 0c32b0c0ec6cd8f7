"""One cold paper_report pass, run by bench/run.py in a fresh interpreter.

    python3 bench/cold_report.py --seed N --trace 0|1

Prints one JSON line: import and stage timings, the output digests, the
peak resident set size and, when traced, the span aggregates and span
records of the pass.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys

from run import CAL_REPS, calibrate, generator_bits, import_ietlab


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_s = import_ietlab()
    import workloads as W

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    def calibrations():
        return [calibrate() for _ in range(CAL_REPS)]

    cal_s = {"before": calibrations()}
    timings, digests, models = W.report_pass(
        W.report_ks(args.seed), between=lambda: cal_s.update(between=calibrations())
    )
    cal_s["after"] = calibrations()
    out = {
        "cal_s": cal_s,
        "import_s": import_s,
        "timings": timings,
        "digests": digests,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        out["records"] = tracer.records
        out["bits"] = {
            f"numberfield.generator_bits.{name}": generator_bits(models[name])
            for name in ("quartic", "e2star")
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
