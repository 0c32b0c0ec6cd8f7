"""Self-tests of the benchmark's helpers.

    python3 -m pytest -q bench/selftest.py

Kept out of the repository's test suite (the file name does not match
test_*.py): the digest test runs real workload rounds and takes about
half a minute.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tr  # noqa: E402

run.import_ietlab()
import workloads as W  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    assert run.tail_percentile(samples, 0.9) == 90
    assert run.tail_percentile(list(range(1, 21)), 0.5) == 10
    with pytest.raises(ValueError, match="only 9 of 99 samples"):
        run.tail_percentile(list(range(99)), 0.9)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_child_coverage():
    # t0, outer start, inner start, inner end, inner start, inner end, outer end
    t = tr.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 10.0]))
    inner = t.wrap("inner", lambda: None)
    outer = t.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert t.stats["outer"] == [1, 9.0, 4.0]
    assert t.stats["inner"] == [2, 5.0, 5.0]
    # records: inner spans point at the outer span
    (i1, p1, n1, *_), (i2, p2, *_), (io, po, no, so, eo) = t.records
    assert (n1, no) == ("inner", "outer")
    assert p1 == p2 == io and po == -1
    assert (so, eo) == (1.0, 10.0)


def test_patching_reaches_names_imported_by_other_modules():
    from ietlab import numberfield, polynomials

    orig = polynomials.factor
    t = tr.Tracer().install()
    try:
        assert numberfield.factor is polynomials.factor is not orig
        numberfield.factor(polynomials.IntPoly((-2, 0, 1)))
    finally:
        t.uninstall()
    assert polynomials.factor is orig and numberfield.factor is orig
    assert t.stats["polynomials.factor"][0] == 1


def test_layer_metrics_ratios():
    summary = {
        "stats": {"lattice.psi_orbit": [2, 0.003, 0.002], "iet.atom_of": [4, 0.004, 0.004]},
        "inside": {"iet.atom_of@lattice.psi_orbit": 3},
        "counters": {"lattice.psi_orbit.steps": 3000},
        "spans": 6,
        "dropped": 0,
    }
    m = tr.layer_metrics(summary)
    assert m["lattice.psi_orbit.ns_per_step"] == pytest.approx(1000.0)
    assert m["lattice.exact_fallbacks"] == 3
    assert m["lattice.exact_fallback_share"] == pytest.approx(1e-3)
    assert m["iet.atom_of.mean_us"] == pytest.approx(1000.0)
    assert m["polynomials.factor.calls"] == 0


def _round_digests(workload, seed):
    tally = W.Tally(W.load_golden())
    acc = run.new_acc()
    out = []
    if workload == "lattice_walk":
        inputs = W.WalkInputs(run.build_models(W.WALK_MODELS, W))
        W.walk_round(inputs, seed, 0, tally, acc, out)
    else:
        inputs = W.CodingInputs(run.build_models(W.CODING_MODELS, W), seed)
        W.coding_round(inputs, seed, 0, tally, acc, out)
    assert tally.failed == 0, tally.notes
    return out


@pytest.mark.parametrize("workload", ["lattice_walk", "exact_coding"])
def test_digests_repeat_for_one_seed(workload):
    first = _round_digests(workload, 7)
    assert first and first == _round_digests(workload, 7)


def test_report_digests_repeat_and_match_the_record():
    golden = W.load_golden()
    _, first, _ = W.report_pass((1, 5))
    _, second, _ = W.report_pass((1, 5))
    assert first == second
    assert all(golden[k] == v for k, v in first.items())
