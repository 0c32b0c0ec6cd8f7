"""Record the digest of every item a benchmark seed can draw.

    python3 bench/record_golden.py

Writes bench/golden.json.  Run it only when the benchmark's item
universes change; the workloads compare every output against it.
"""
from __future__ import annotations

import json
import sys

from run import import_ietlab


def main() -> int:
    import_ietlab()
    import workloads as W

    golden = {}

    def put(key, value):
        golden[key] = value
        if len(golden) % 50 == 0:
            print(f"{len(golden)} items", file=sys.stderr, flush=True)

    _, digests, _ = W.report_pass(W.EK_RANGE)
    for key, value in digests.items():
        put(key, value)

    for name in W.WALK_MODELS:
        model = W.build(name)
        starts = W.walk_starts(model)
        lengths = [W.SHORT_STEPS] + ([W.LONG_STEPS] if name == W.LONG_MODEL else [])
        for idx, start in enumerate(starts):
            for steps in lengths:
                end, counts, _ = model.psi_orbit(start, steps)
                put(W.walk_key(name, idx, steps), W.digest([end, counts]))
        for a in range(W.DENSITY_GRID):
            for b in range(a + 1, W.DENSITY_GRID + 1):
                value, _ = W.density(model, a, b)
                put(W.density_key(name, a, b), str(value))

    tally = W.Tally({})
    for name in W.CODING_MODELS:
        model = W.build(name)
        for zfree in W.box_points(model.n - 1):
            x = W.lattice.unit_representative(model, zfree)
            word, y = model.E.orbit(x, W.ORBIT_STEPS)
            put(W.orbit_key(name, zfree), W.digest([word, y]))
            code = W.vershik.vershik_encode(model, x, depth=W.ENCODE_DEPTH)
            put(W.encode_key(name, zfree), W.digest(code))
        tiles = W.vershik.enumerate_tiles(model, W.TILE_DEPTH[name])
        put(W.tiles_key(name), W.tiles_digest(model, tiles, tally, W.tiles_key(name)))
    if tally.failed:
        raise AssertionError("; ".join(tally.notes))

    with open(W.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} items to {W.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
