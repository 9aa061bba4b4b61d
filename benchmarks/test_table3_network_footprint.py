"""Table 3: rebasing vs XNoise extra per-round network footprint (§6.3).

Rebasing transmits a model-sized noise-correction vector (grows linearly
with the model); XNoise ships seed bookkeeping (constant in the model,
~quadratic in the sample size, slightly shrinking with dropout).

The second test measures the same shape *on the wire*, per direction:
real XNoise+SecAgg rounds behind the serialization boundary, where
XNoise's extra down/up footprint is byte-identical across model
dimensions while SecAgg's masked-vector uplink scales with them.
"""

import pytest
from conftest import print_header

from repro.xnoise.rebasing import table3_row

MODEL_SIZES = [5_000_000, 50_000_000, 500_000_000]
SAMPLES = [100, 200, 300]
RATES = [0.0, 0.1, 0.2, 0.3]


def test_table3_footprint_grid(once):
    def build():
        return {
            (size, n, d): table3_row(size, n, d)
            for size in MODEL_SIZES
            for n in SAMPLES
            for d in RATES
        }

    grid = once(build)
    print_header(
        "Table 3 — extra per-round MB for a surviving client "
        "(r = rebasing, X = XNoise)"
    )
    header = " | ".join(f"{s // 1_000_000:>4}M r {'X':>5}" for s in MODEL_SIZES)
    print(f"{'d':>4} {'n':>4} | {header}")
    for d in RATES:
        for n in SAMPLES:
            cells = []
            for size in MODEL_SIZES:
                row = grid[(size, n, d)]
                cells.append(f"{row.rebasing_mb:>6.1f} {row.xnoise_mb:>5.1f}")
            print(f"{d:>3.0%} {n:>4} | " + " | ".join(cells))

    # Column shape: rebasing linear in model size; XNoise constant.
    for n in SAMPLES:
        for d in RATES:
            r5 = grid[(5_000_000, n, d)]
            r500 = grid[(500_000_000, n, d)]
            assert r500.rebasing_mb == pytest.approx(100 * r5.rebasing_mb)
            assert r500.xnoise_mb == r5.xnoise_mb

    # Paper's anchor cells.
    assert grid[(5_000_000, 100, 0.0)].rebasing_mb == pytest.approx(11.9, abs=0.1)
    assert grid[(500_000_000, 100, 0.0)].rebasing_mb == pytest.approx(1192.1, abs=2)
    assert grid[(5_000_000, 100, 0.0)].xnoise_mb == pytest.approx(0.6, abs=0.1)
    assert grid[(5_000_000, 200, 0.0)].xnoise_mb == pytest.approx(2.4, abs=0.2)
    assert grid[(5_000_000, 300, 0.0)].xnoise_mb == pytest.approx(5.4, abs=0.4)

    # XNoise shrinks (weakly) as dropout grows; always beats rebasing.
    for size in MODEL_SIZES:
        for n in SAMPLES:
            col = [grid[(size, n, d)].xnoise_mb for d in RATES]
            assert all(a >= b - 1e-9 for a, b in zip(col, col[1:]))
            assert all(
                grid[(size, n, d)].xnoise_mb < grid[(size, n, d)].rebasing_mb
                for d in RATES
            )


def _measured_round_split(dimension, xnoise):
    """(down, up) measured wire bytes of one real round at ``dimension``."""
    from repro.engine import RoundEngine, SerializingTransport, run_sync
    from repro.secagg.driver import arun_secagg_round
    from repro.secagg.types import SecAggConfig
    from repro.utils.rng import derive_rng
    from repro.xnoise.protocol import XNoiseConfig, arun_xnoise_round

    n, threshold = 6, 4
    config = SecAggConfig(
        threshold=threshold, bits=16, dimension=dimension, dh_group="modp512"
    )
    rng = derive_rng("table3-measured", dimension)
    inputs = {
        u: rng.integers(0, 1 << 16, size=dimension) for u in range(1, n + 1)
    }
    engine = RoundEngine(transport=SerializingTransport())
    if xnoise:
        xconfig = XNoiseConfig(
            secagg=config, n_sampled=n, tolerance=2, target_variance=4.0
        )
        signals = {u: v - (1 << 15) for u, v in inputs.items()}
        run_sync(arun_xnoise_round(xconfig, signals, None, engine=engine))
    else:
        run_sync(arun_secagg_round(config, inputs, None, engine=engine))
    return engine.trace.round_traffic_split(0)


def test_measured_xnoise_extra_is_direction_constant(once):
    """Table 3's column shape, measured on the wire per direction.

    XNoise's *extra* footprint over plain SecAgg — seed-share
    ciphertexts down, reveals and shares up — must be byte-identical
    across model dimensions (the model-sized masked vectors cancel in
    the difference), while SecAgg's own uplink grows with the model:
    the measured analogue of "rebasing linear, XNoise constant".
    """
    SMALL, LARGE = 64, 1024

    def run_all():
        return {
            (dim, x): _measured_round_split(dim, x)
            for dim in (SMALL, LARGE)
            for x in (False, True)
        }

    splits = once(run_all)
    print_header(
        "Table 3 (measured) — per-direction wire bytes, XNoise extra "
        "over SecAgg"
    )
    for dim in (SMALL, LARGE):
        sec, xn = splits[(dim, False)], splits[(dim, True)]
        print(f"d={dim:>5}: secagg (down {sec.down:>7,d} | up {sec.up:>7,d})"
              f"  xnoise (down {xn.down:>7,d} | up {xn.up:>7,d})"
              f"  extra (down {xn.down - sec.down:>6,d} | "
              f"up {xn.up - sec.up:>6,d})")

    extras = {
        dim: (
            splits[(dim, True)].down - splits[(dim, False)].down,
            splits[(dim, True)].up - splits[(dim, False)].up,
        )
        for dim in (SMALL, LARGE)
    }
    # XNoise's extra cost is model-size independent, per direction —
    # byte for byte.
    assert extras[SMALL] == extras[LARGE]
    assert extras[SMALL][0] > 0 and extras[SMALL][1] > 0
    # SecAgg's own uplink is the model-sized term (the masked vectors).
    assert splits[(LARGE, False)].up > splits[(SMALL, False)].up
    assert splits[(LARGE, False)].down == splits[(SMALL, False)].down
