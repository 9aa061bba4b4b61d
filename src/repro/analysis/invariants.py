"""The invariant → enforcement map.

ARCHITECTURE.md ends with a numbered list, "Invariants the test suite
pins".  Each entry here names, for one invariant label, the analysis
rules that mechanically enforce its shape and/or the pinning test files
that enforce its values.  ``tests/analysis/test_invariant_map.py``
asserts that every numbered invariant in ARCHITECTURE.md appears here,
that every named test file exists, and that every named rule is
registered — so the document, the rules, and the tests cannot drift
apart silently.
"""

from __future__ import annotations

#: invariant label → {"rules": [...], "tests": [...]} — at least one of
#: the two lists is non-empty for every entry.
INVARIANT_MAP: dict[str, dict[str, list[str]]] = {
    # Engine + in-process transport ≡ reference drivers, bit for bit.
    "1": {
        "rules": [],
        "tests": ["tests/engine/test_parity.py"],
    },
    # Traced chunked execution ≡ Appendix-C build_schedule prediction.
    "2": {
        "rules": [],
        "tests": ["tests/engine/test_round_engine.py"],
    },
    # Concurrent-round traces are scheduling-order independent and equal
    # the offline discrete-event replay.
    "2a": {
        "rules": ["determinism", "async-hygiene"],
        "tests": [
            "tests/engine/test_determinism.py",
            "tests/engine/test_arbiter.py",
        ],
    },
    # Dropout at any stage yields a correct aggregate or a clean abort.
    "3": {
        "rules": [],
        "tests": ["tests/secagg/test_dropout_stages.py"],
    },
    # Chunking never changes the privacy trajectory.
    "4": {
        "rules": [],
        "tests": ["tests/core/test_session_engine.py"],
    },
    # Wire transports ≡ the in-process round; strict total decoding is
    # what keeps a byte-level mismatch from misparsing instead of
    # failing.
    "5": {
        "rules": ["strict-decoder"],
        "tests": [
            "tests/engine/test_parity.py",
            "tests/engine/test_socket_transport.py",
        ],
    },
    # Traced traffic equals the framed bytes on the socket, both ends.
    "6": {
        "rules": ["strict-decoder", "zero-copy"],
        "tests": [
            "tests/engine/test_socket_transport.py",
            "tests/wire/test_link.py",
        ],
    },
    # up_bytes + down_bytes == traffic_bytes, by construction.
    "7": {
        "rules": [],
        "tests": ["tests/test_timeline.py", "tests/fleet/test_links.py"],
    },
    # Fleet availability reproduces the legacy dropout draws exactly.
    "8": {
        "rules": ["determinism"],
        "tests": [
            "tests/fleet/test_fleet.py",
            "tests/core/test_session_engine.py",
        ],
    },
    # Every hot path is bit-identical to its retained *_reference twin.
    "9": {
        "rules": ["parity-twin", "headroom-guard", "zero-copy"],
        "tests": [
            "tests/crypto/test_hotpath_parity.py",
            "tests/wire/test_encode_parity.py",
            "tests/wire/test_codec_oracle.py",
        ],
    },
    # Fleet scale: the columns ≡ the reference builder row for row, and
    # every fleet query ≡ the same question of the reference device (no
    # boxed object, so no identity to keep); an id outside the
    # population is refused by name.
    "10": {
        "rules": ["parity-twin", "determinism"],
        "tests": [
            "tests/fleet/test_profile.py",
            "tests/fleet/test_fleet.py",
            "tests/fleet/test_availability_stream.py",
        ],
    },
    # The unmask plane ≡ collect_unmask_reference bit for bit at every
    # worker count, including the headroom-guard fallback.
    "11": {
        "rules": ["parity-twin", "headroom-guard"],
        "tests": ["tests/secagg/test_unmask_plane.py"],
    },
    # The ring-width data plane: bit-packed masked vectors (element
    # width, pad rule, wire version 5), the fused reducing-pack /
    # unpack-add pair (sanitized), ring-width PRG draws, one wire-size
    # definition, masked-input admission, announced native fallback
    # (PRG stream, bit packer, Skellam noise loop, modexp ≡ pow).
    "12": {
        "rules": ["strict-decoder", "zero-copy"],
        "tests": [
            "tests/wire/test_bitpack.py",
            "tests/secagg/test_codec.py",
            "tests/secagg/test_malformed_masked_input.py",
            "tests/secagg/test_masked_input_sender.py",
            "tests/crypto/test_hotpath_parity.py",
            "tests/engine/test_socket_transport.py",
            "tests/test_native_fallback.py",
            "tests/test_native_matrix.py",
            "tests/crypto/test_modexp.py",
            "tests/dp/test_sampler.py",
        ],
    },
    # Every pairwise key is agreed once a round, one agree call per
    # neighbourhood (2 a client, |dropped| for the coordinator);
    # executed agreement/decrypt counts equal secagg/complexity.py's.
    "13": {
        "rules": [],
        "tests": [
            "tests/secagg/test_complexity.py",
            "tests/xnoise/test_protocol.py",
            "tests/secagg/test_adversarial.py",
        ],
    },
    # The noise plane: a seed's noise vector is specified in
    # dp/sampler.py (goldens), is the Skellam distribution it claims,
    # kernel ≡ numpy twin, and XNoise enforcement is exact under fixed
    # seeds.
    "14": {
        "rules": [],
        "tests": [
            "tests/xnoise/test_noise_vectors.py",
            "tests/dp/test_sampler.py",
            "tests/xnoise/test_protocol.py",
            "tests/test_native_matrix.py",
        ],
    },
    # The mask plane: a mask is the wire unpacking of its seed's stream
    # (goldens), the in-place fold ≡ expand-then-add on kernel and twin,
    # under the accumulators' 2**63 guard.
    "15": {
        "rules": ["parity-twin", "headroom-guard"],
        "tests": [
            "tests/crypto/test_mask_vectors.py",
            "tests/crypto/test_hotpath_parity.py",
            "tests/secagg/test_unmask_plane.py",
            "tests/test_native_matrix.py",
        ],
    },
    # One stream on every compression path (portable C, SHA-NI, the
    # sixteen AVX-512 lanes): probed at load, forced path by path in test.
    "16": {
        "rules": [],
        "tests": [
            "tests/test_native_matrix.py",
            "tests/test_native_fallback.py",
        ],
    },
    # The transform plane: ascending-stage butterflies, kernel ≡ twin ≡ goldens.
    "17": {
        "rules": [],
        "tests": [
            "tests/dp/test_transform_vectors.py",
            "tests/dp/test_skellam.py",
            "tests/test_native_matrix.py",
        ],
    },
    # An O(d) coordinator on a one-pass data plane: after
    # MaskedInputCollection one d-vector and no client's masked input
    # (executed memory walk), one admission door, arrival fold ≡
    # reference drivers on every transport.
    "18": {
        "rules": [],
        "tests": [
            "tests/secagg/test_coordinator_memory.py",
            "tests/secagg/test_malformed_masked_input.py",
            "tests/engine/test_parity.py",
            "tests/engine/test_round_engine.py",
        ],
    },
}
