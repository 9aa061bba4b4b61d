"""Fig.-9-style measured (not modeled) per-round wire traffic.

Every prior traffic number in this repo came from a cost model or the
protocol's own byte-size bookkeeping.  This benchmark runs real rounds
behind the :mod:`repro.wire` serialization boundary and reports the
**measured** per-stage framed bytes — for plain SecAgg, the integrated
XNoise+SecAgg protocol, and chunk-pipelined execution — then pins the
qualitative shape: XNoise pays a per-round premium for its seed
bookkeeping (constant in the model dimension), and chunking re-sends
per-chunk protocol overhead but never changes what the vectors
themselves cost.
"""

import numpy as np
from conftest import print_header

from repro.engine import RoundEngine, SerializingTransport, run_sync
from repro.secagg.driver import arun_secagg_round
from repro.secagg.types import SecAggConfig
from repro.utils.rng import derive_rng
from repro.xnoise.protocol import (
    XNoiseConfig,
    arun_xnoise_round,
    xnoise_round_components,
)

N_CLIENTS = 6
THRESHOLD = 4
DIMENSION = 64
BITS = 16
CHUNK_COUNTS = [1, 2, 4]


def _secagg_config(dimension=DIMENSION):
    return SecAggConfig(
        threshold=THRESHOLD, bits=BITS, dimension=dimension, dh_group="modp512"
    )


def _xnoise_config(dimension=DIMENSION):
    return XNoiseConfig(
        secagg=_secagg_config(dimension),
        n_sampled=N_CLIENTS,
        tolerance=2,
        target_variance=4.0,
    )


def _inputs(dimension=DIMENSION):
    rng = derive_rng("measured-traffic", dimension)
    return {
        u: rng.integers(0, 1 << BITS, size=dimension)
        for u in range(1, N_CLIENTS + 1)
    }


def _engine():
    return RoundEngine(transport=SerializingTransport())


def _measure_secagg():
    engine = _engine()
    run_sync(arun_secagg_round(_secagg_config(), _inputs(), None, engine=engine))
    return engine.trace


def _measure_xnoise():
    engine = _engine()
    signals = {u: v - (1 << (BITS - 1)) for u, v in _inputs().items()}
    run_sync(arun_xnoise_round(_xnoise_config(), signals, None, engine=engine))
    return engine.trace


def _measure_chunked(n_chunks):
    engine = _engine()
    signals = {u: v - (1 << (BITS - 1)) for u, v in _inputs().items()}

    def factory(_j, chunk_inputs):
        dim = next(iter(chunk_inputs.values())).shape[0]
        return xnoise_round_components(_xnoise_config(dim), chunk_inputs)

    chunked = run_sync(engine.run_chunked_round(factory, signals, n_chunks))
    return engine.trace, chunked.trace_round


def test_measured_per_round_traffic(once):
    def run_all():
        secagg = _measure_secagg()
        xnoise = _measure_xnoise()
        chunked = {m: _measure_chunked(m) for m in CHUNK_COUNTS}
        return secagg, xnoise, chunked

    secagg, xnoise, chunked = once(run_all)

    print_header(
        f"Measured per-round framed bytes over the wire "
        f"(n={N_CLIENTS}, t={THRESHOLD}, d={DIMENSION}, b={BITS})"
    )
    print(f"{'stage':24s} {'SecAgg':>10s} {'XNoise':>10s}")
    sec_stages = secagg.stage_traffic(0)
    xn_stages = xnoise.stage_traffic(0)
    for label in xn_stages:
        print(
            f"{label:24s} {sec_stages.get(label, 0):>10,d} "
            f"{xn_stages[label]:>10,d}"
        )
    sec_total = secagg.round_traffic_bytes(0)
    xn_total = xnoise.round_traffic_bytes(0)
    print(f"{'total':24s} {sec_total:>10,d} {xn_total:>10,d}")
    print()
    print("chunk-pipelined XNoise+SecAgg (m sub-rounds):")
    totals = {}
    for m, (trace, trace_round) in chunked.items():
        totals[m] = trace.round_traffic_bytes(trace_round)
        print(f"  m={m}: {totals[m]:>10,d} B "
              f"({totals[m] / xn_total:5.2f}x the unchunked round)")

    # Every c-comp stage of the real protocol moved measured bytes.
    assert all(v > 0 for k, v in xn_stages.items() if k in (
        "advertise_keys", "share_keys", "masked_input", "unmask"))

    # XNoise rides on SecAgg: same vectors, extra seed-share bookkeeping.
    assert xn_total > sec_total

    # Chunking re-pays per-chunk protocol overhead (keys, shares): total
    # bytes grow with m, strictly — the §4.1 speedup buys time, not bytes.
    assert totals[1] < totals[2] < totals[4]
    # ...but the premium is bounded: overhead per chunk is at most the
    # protocol's fixed cost, so m=4 stays within m× the m=1 round.
    assert totals[4] < 4 * totals[1]

    # The masked-vector *upload* costs the same in both protocols (d
    # int64 coordinates per survivor); XNoise's stage total is larger
    # only because the routed ShareKeys inboxes — the stage's request
    # payloads — also carry the encrypted noise-seed shares.
    from repro.secagg.types import MaskedInputMsg
    from repro.wire import KIND_RESPONSE
    from repro.wire.codecs import encode_payload_frame

    upload = len(encode_payload_frame(
        KIND_RESPONSE,
        MaskedInputMsg.from_vector(1, np.zeros(DIMENSION, dtype=np.int64), BITS),
    ))
    sec_masked = sec_stages["masked_input"]
    xn_masked = xn_stages["masked_input"]
    assert xn_masked > sec_masked >= N_CLIENTS * upload


def _measure_secagg_split(dimension):
    engine = _engine()
    run_sync(
        arun_secagg_round(
            _secagg_config(dimension), _inputs(dimension), None, engine=engine
        )
    )
    return engine.trace


def test_measured_direction_split(once):
    """The per-direction shape behind the paper's network story: the
    masked-vector *uplink* is the model-sized client cost (it scales
    with d and dominates at realistic dimensions), while every other
    per-direction component — key adverts, routed share inboxes, unmask
    reveals — is model-size independent."""
    SMALL, LARGE = 256, 4096

    def run_both():
        return _measure_secagg_split(SMALL), _measure_secagg_split(LARGE)

    small, large = once(run_both)
    print_header(
        f"Measured per-direction framed bytes (SecAgg, n={N_CLIENTS}, "
        f"t={THRESHOLD}, b={BITS})"
    )
    print(f"{'stage':24s} {'down@' + str(SMALL):>12s} {'up@' + str(SMALL):>12s}"
          f" {'down@' + str(LARGE):>12s} {'up@' + str(LARGE):>12s}")
    small_split = small.stage_traffic_split(0)
    large_split = large.stage_traffic_split(0)
    for label in small_split:
        s, lg = small_split[label], large_split[label]
        if s.total or lg.total:
            print(f"{label:24s} {s.down:>12,d} {s.up:>12,d} "
                  f"{lg.down:>12,d} {lg.up:>12,d}")
    s_tot, l_tot = small.round_traffic_split(0), large.round_traffic_split(0)
    print(f"{'total':24s} {s_tot.down:>12,d} {s_tot.up:>12,d} "
          f"{l_tot.down:>12,d} {l_tot.up:>12,d}")

    # Directional invariant at every granularity.
    for trace in (small, large):
        for span in trace.spans:
            assert span.up_bytes + span.down_bytes == span.traffic_bytes
        agg = trace.round_traffic_split(0)
        assert agg.total == trace.round_traffic_bytes(0)

    # The masked-input uplink is the model-sized term: it grows with d
    # while its downlink (the routed share inboxes) does not move.
    assert large_split["masked_input"].up > small_split["masked_input"].up
    assert large_split["masked_input"].down == small_split["masked_input"].down

    # Every *other* directional component is model-size independent.
    for label in small_split:
        if label == "masked_input":
            continue
        assert large_split[label] == small_split[label]

    # At a realistic model size the masked-input uplink dominates the
    # whole SecAgg client cost — both the round's entire downlink and
    # the sum of every other uplink component, as in the paper.
    masked_up = large_split["masked_input"].up
    assert masked_up > l_tot.down
    assert masked_up > l_tot.up - masked_up

