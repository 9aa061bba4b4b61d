"""Asymptotic cost accounting: O(n) vs O(log n) clients, O(n²) server."""

from collections import Counter

import pytest

from repro.crypto.dh import DHGroup
from repro.secagg.complexity import (
    crossover_population,
    fixed_upload_bytes,
    secagg_client_cost,
    secagg_plus_client_cost,
    secagg_server_cost,
)
from repro.secagg.types import ProtocolAbort
from repro.wire import KIND_REQUEST
from repro.wire.codecs import encode_payload_frame


def _request_nbytes(op, payload) -> int:
    """Wire bytes of the request the coordinator sends for ``op``."""
    return len(encode_payload_frame(KIND_REQUEST, (op, payload)))


class TestClientAsymptotics:
    def test_secagg_linear_in_n(self):
        c100 = secagg_client_cost(100)
        c1000 = secagg_client_cost(1000)
        assert c1000.key_agreements == pytest.approx(
            10 * c100.key_agreements, rel=0.02
        )
        assert c1000.upload_bytes_fixed > 9 * c100.upload_bytes_fixed

    def test_secagg_plus_logarithmic_in_n(self):
        c100 = secagg_plus_client_cost(100)
        c10000 = secagg_plus_client_cost(10_000)
        # log₂(10000)/log₂(100) = 2 — nowhere near the 100× of SecAgg.
        assert c10000.key_agreements <= 2.5 * c100.key_agreements

    def test_plus_beats_full_at_scale(self):
        for n in (64, 256, 1024):
            full = secagg_client_cost(n)
            plus = secagg_plus_client_cost(n)
            assert plus.total_crypto_ops < full.total_crypto_ops
            assert plus.mask_expansions < full.mask_expansions

    def test_crossover_is_small(self):
        n = crossover_population()
        assert 3 < n < 50
        # Below the crossover the degree is clamped to n−1 (no gain).
        below = secagg_plus_client_cost(4)
        assert below.key_agreements == secagg_client_cost(4).key_agreements


class TestFixedUploadIsTheMeasuredOne:
    @pytest.mark.parametrize("dh_group", ["modp512", "modp2048"])
    @pytest.mark.parametrize("malicious", [False, True])
    def test_analytic_fixed_upload_equals_measured_uplink(self, malicious, dh_group):
        """The byte term comes from the codecs, so a wire-faithful round
        measures exactly it: every client uploads its key advertisement
        and one ciphertext per neighbor (+ one signature when signed),
        with keys and the shared mask key at the group's widths."""
        import numpy as np

        from repro.crypto.signature import SchnorrSignature
        from repro.engine import RoundEngine, SerializingTransport, run_sync
        from repro.secagg import SecAggConfig, arun_secagg_round
        from repro.wire import encode_value

        n = 6
        config = SecAggConfig(
            threshold=4, bits=16, dimension=4, malicious=malicious, dh_group=dh_group
        )
        inputs = {u: np.zeros(4, dtype=np.int64) for u in range(1, n + 1)}
        engine = RoundEngine(transport=SerializingTransport())
        run_sync(arun_secagg_round(config, inputs, engine=engine))
        traffic = engine.trace.stage_traffic_split(0)
        signature = len(encode_value(SchnorrSignature(0, 0))) - 1  # replaces a None
        assert traffic["advertise_keys"].up + traffic["share_keys"].up == n * (
            fixed_upload_bytes(n - 1, dh_group) + malicious * signature
        )

    def test_modp2048_upload_is_the_width_it_always_was(self):
        # Taken from the tree that shared every mask key at 256 bytes
        # (2,837 and 14,667 B): modp2048's q has 2,047 bits, so its
        # secret width is still 256.  Payload version 7 sheds 44 B from
        # each ciphertext's plaintext, the framing the recipient knows.
        assert fixed_upload_bytes(5) == fixed_upload_bytes(5, "modp2048") == 2837 - 5 * 44
        assert fixed_upload_bytes(31, "modp2048") == 14667 - 31 * 44


class _ParentWidth(DHGroup):
    """A group dealing its mask keys at 256 bytes whatever q is — what
    every client did before keys were shared at the secret width."""

    @property
    def secret_bytes(self) -> int:
        return 256


class TestMaskKeyAtTheSecretWidth:
    """On ``modp512`` a client shares s^SK at 64 bytes: 5 field chunks,
    not the 18 of a 256-byte key, so every share of it is 13 × 16 =
    208 B smaller — inside each ShareKeys ciphertext sent, again inside
    each one routed, and in each share revealed in Unmasking."""

    @staticmethod
    def _round(n, threshold, dropped, parent_dealers=()):
        import numpy as np

        from repro.crypto.dh import KeyAgreement, resolve_group
        from repro.crypto.shamir import ShamirSecretSharing
        from repro.crypto.suite import Suite
        from repro.engine import RoundEngine, SerializingTransport, run_sync
        from repro.secagg import DropoutSchedule, SecAggConfig, arun_secagg_round
        from repro.secagg.client import SecAggClient

        config = SecAggConfig(
            threshold=threshold, bits=16, dimension=8, dh_group="modp512"
        )
        counts = Counter()
        key_widths = []
        real_share = ShamirSecretSharing.share
        real_share_keys = SecAggClient.share_keys
        real_masked, real_unmask = SecAggClient.masked_input, SecAggClient.unmask

        def share(self, secret_list, ids, entropy):
            key_widths.append(len(secret_list[0]))
            return real_share(self, secret_list, ids, entropy)

        def share_keys(self, *args):
            ciphertexts = real_share_keys(self, *args)
            counts["sent"] += len(ciphertexts)
            return ciphertexts

        def masked_input(self, ciphertexts, *args, **kwargs):
            counts["routed"] += len(set(ciphertexts) - {self.id})
            return real_masked(self, ciphertexts, *args, **kwargs)

        def unmask(self, *args, **kwargs):
            msg = real_unmask(self, *args, **kwargs)
            counts["revealed"] += len(msg.s_sk_shares)
            return msg

        def factory(u):
            if u not in parent_dealers:
                return SecAggClient(u, config)
            group = resolve_group(config.dh_group)
            ka = KeyAgreement(_ParentWidth(p=group.p, g=group.g, q=group.q))
            return SecAggClient(u, config, suite=Suite(ka=ka))

        inputs = {u: np.full(8, 1000 * u, dtype=np.int64) for u in range(1, n + 1)}
        engine = RoundEngine(transport=SerializingTransport())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ShamirSecretSharing, "share", share)
            patch.setattr(SecAggClient, "share_keys", share_keys)
            patch.setattr(SecAggClient, "masked_input", masked_input)
            patch.setattr(SecAggClient, "unmask", unmask)
            result = run_sync(arun_secagg_round(
                config, inputs, DropoutSchedule.before_upload(dropped),
                client_factory=factory, engine=engine,
            ))
        expected = sum(inputs[u] for u in result.u3) % config.modulus
        np.testing.assert_array_equal(result.aggregate, expected)
        split = engine.trace.round_traffic_split(0)
        return split.down + split.up, counts, key_widths

    def test_saving_is_208_bytes_per_agreement_on_many_clients(self):
        n, t, dropped = 32, 17, {5, 17, 30}
        now, counts, widths = self._round(n, t, dropped)
        assert set(widths) == {64}
        parent, parent_counts, widths = self._round(
            n, t, dropped, parent_dealers=range(1, n + 1)
        )
        assert set(widths) == {256} and parent_counts == counts
        # Sent + routed + revealed is the round's agreement count:
        # 992 + 899 + 87 = 1,978 (TestKeyAgreementsAreTheExecutedOnes).
        assert counts == {"sent": 992, "routed": 899, "revealed": 87}
        assert parent - now == 208 * sum(counts.values()) == 411_424

    def test_a_256_byte_key_dealer_aborts_the_round_by_name(self):
        """Why payload version 7 took a number: a ShareKeys plaintext
        carries no chunk counts or secret lengths, so its recipient
        parses it against its own dealing shape.  A dealer still sharing
        at 256 bytes beside dealers at 64 is refused by name — the round
        ends in a ProtocolAbort, never a wrong sum."""
        with pytest.raises(
            ProtocolAbort,
            match=r"bad ciphertext from 3: SharePayload of 352 bytes; "
            r"the dealing shape \(64, 32\) needs 144",
        ):
            self._round(8, 5, {6}, parent_dealers={3})

class TestKeyAgreementsAreTheExecutedOnes:
    def test_a_round_with_dropouts_agrees_exactly_the_counted_keys(self, monkeypatch):
        """``key_agreements = 2·neighbors`` is what a client executes —
        one c- and one s-channel key per peer, each agreed once, in one
        ``agree`` call per stage (the whole neighbourhood under one
        secret) — and the coordinator agrees |dropped|·|U3| to cancel
        pairwise masks, one call per dropped client.  The shape is the
        perf benchmark's ``many_clients`` round."""
        from collections import Counter

        import numpy as np

        from repro.crypto.dh import KeyAgreement
        from repro.secagg import DropoutSchedule, SecAggConfig, run_secagg_round
        from repro.secagg.client import SecAggClient

        calls, agreements = Counter(), Counter()
        real = KeyAgreement.agree

        # Keyed on the secret's public half: a client's c- or s-key, or
        # 0 for the coordinator's reconstructed s_u^SK.  (The driver's
        # server shares its clients' suite, so one KA object serves both.)
        def counting(self, mine, peer_publics):
            calls[mine.public] += 1
            agreements[mine.public] += len(peer_publics)
            return real(self, mine, peer_publics)

        monkeypatch.setattr(KeyAgreement, "agree", counting)

        n, dropped = 32, {5, 17, 30}
        config = SecAggConfig(threshold=17, bits=16, dimension=8, dh_group="modp512")
        inputs = {u: np.full(8, u, dtype=np.int64) for u in range(1, n + 1)}
        clients: dict[int, SecAggClient] = {}

        def factory(u: int) -> SecAggClient:
            clients[u] = SecAggClient(u, config)
            return clients[u]

        result = run_secagg_round(
            config, inputs, DropoutSchedule.before_upload(dropped),
            client_factory=factory,
        )
        assert sorted(set(inputs) - set(result.u3)) == sorted(dropped)

        def pop(counter, c):
            return counter.pop(c._c_pair.public, 0) + counter.pop(c._s_pair.public, 0)

        per_client = {u: pop(agreements, c) for u, c in clients.items()}
        client_calls = {u: pop(calls, c) for u, c in clients.items()}
        cost = secagg_client_cost(n)
        for u, count in per_client.items():
            # A client that left before uploading never derived masks.
            left = u in dropped
            assert count == (cost.ciphertexts_sent if left else cost.key_agreements), u
            assert client_calls[u] == (1 if left else 2), u
        assert set(agreements) == set(calls) == {0}
        server_agreements, server_calls = agreements[0], calls[0]
        assert server_agreements == len(dropped) * len(result.u3)
        assert server_calls == len(dropped)
        # 1,978 agreements in 64 calls: 2·29 + 3 by clients, 3 by the coordinator.
        assert sum(per_client.values()) + server_agreements == 992 + 899 + 87
        assert sum(client_calls.values()) + server_calls == 64


class TestControlPlaneSendsWhatFig5Sends:
    """One measured ``serialized`` round: a ShareKeys request is the
    roster and the recipient's own neighbour ids — O(n) ints a client,
    not the O(n²) whole graph — and a semi-honest round is four
    exchanges per live client, the malicious one keeps its fifth."""

    @staticmethod
    def _measured_round(monkeypatch, config, n, dropped):
        import numpy as np

        from repro.engine import RoundEngine, SerializingTransport, run_sync
        from repro.secagg import DropoutSchedule, arun_secagg_round
        from repro.secagg.driver import make_secagg_clients, resolve_round_pki
        from repro.wire import codecs

        frames = []
        real = codecs.encode_payload_frame

        def counting(kind, payload):
            frames.append(kind)
            return real(kind, payload)

        monkeypatch.setattr(codecs, "encode_payload_frame", counting)

        pki = resolve_round_pki(config, None, None)
        clients = make_secagg_clients(config, list(range(1, n + 1)), pki, 0, None)
        share_requests = {}
        for u, client in clients.items():
            def recording(roster, neighbors, u=u, share_keys=client.share_keys):
                share_requests[u] = (roster, neighbors)
                return share_keys(roster, neighbors)

            client.share_keys = recording

        inputs = {u: np.full(config.dimension, u, dtype=np.int64) for u in clients}
        engine = RoundEngine(transport=SerializingTransport())
        result = run_sync(arun_secagg_round(
            config, inputs, DropoutSchedule.before_upload(dropped),
            pki=pki, client_factory=clients.__getitem__, engine=engine,
        ))
        return result, engine.trace.stage_traffic_split(0), share_requests, frames

    @pytest.mark.parametrize(
        "n, threshold, dropped, degree, frames",
        [
            (8, 5, {3, 6}, None, 2 * (8 + 8 + 6 + 6)),
            # The perf benchmark's many_clients shape: 302 frames on wire
            # version 5 (whole graph, a ConsistencyCheck of Nones).
            (32, 17, {5, 17, 30}, None, 244),
            (16, 4, {2}, 6, 2 * (16 + 16 + 15 + 15)),
        ],
    )
    def test_semi_honest_round(self, monkeypatch, n, threshold, dropped, degree, frames):
        from repro.secagg import SecAggConfig

        config = SecAggConfig(
            threshold=threshold, bits=16, dimension=8, dh_group="modp512",
            graph_degree=degree,
        )
        result, traffic, requests, sent = self._measured_round(
            monkeypatch, config, n, dropped
        )
        assert sorted(set(result.u1) - set(result.u3)) == sorted(dropped)
        assert result.u4 == result.u3 == result.u5
        assert "consistency_check" not in traffic
        assert len(sent) == frames == 2 * sum(
            len(u) for u in (result.u1, result.u2, result.u3, result.u5)
        )

        everyone = set(result.u1)
        for u, (roster, neighbors) in requests.items():
            assert sorted(roster) == result.u1
            assert neighbors == sorted(neighbors) and u not in neighbors
            if degree is None:
                assert set(neighbors) == everyone - {u}
            else:
                assert len(neighbors) == degree and set(neighbors) < everyone
        assert traffic["share_keys"].down == sum(
            _request_nbytes("share_keys", requests[u]) for u in result.u2
        )

    def test_malicious_round_keeps_its_fifth_exchange(self, monkeypatch):
        from repro.secagg import SecAggConfig

        config = SecAggConfig(
            threshold=5, bits=16, dimension=8, malicious=True, dh_group="modp512"
        )
        result, traffic, requests, sent = self._measured_round(
            monkeypatch, config, 8, {3, 6}
        )
        assert result.u4 == result.u3 == [1, 2, 4, 5, 7, 8]
        assert len(sent) == 2 * (8 + 8 + 6 + 6) + 2 * len(result.u4)
        assert traffic["consistency_check"].down == len(result.u3) * _request_nbytes(
            "consistency_check", result.u3
        )
        assert traffic["share_keys"].down == sum(
            _request_nbytes("share_keys", requests[u]) for u in result.u2
        )

    def test_declared_workflow_is_eight_operations_or_ten(self):
        from repro.secagg import SecAggConfig, SecAggServer, SecAggWorkflowServer

        def ops(malicious):
            config = SecAggConfig(threshold=2, malicious=malicious, dh_group="modp512")
            return SecAggWorkflowServer(SecAggServer(config)).workflow_order()

        assert ops(False) == [
            "advertise_keys", "collect_advertise", "share_keys", "route_shares",
            "masked_input", "collect_masked", "unmask", "collect_unmask",
        ]
        assert ops(True) == ops(False)[:6] + [
            "consistency_check", "collect_consistency", "unmask", "collect_unmask",
        ]


class TestServerAsymptotics:
    def test_quadratic_under_dropout_full_graph(self):
        """Dropped×survivors mask reconstruction is the O(n²) term."""
        s100 = secagg_server_cost(100, dropout_rate=0.2)
        s1000 = secagg_server_cost(1000, dropout_rate=0.2)
        ratio = s1000.mask_expansions / s100.mask_expansions
        assert ratio > 50  # ~100× for a 10× population

    def test_secagg_plus_server_nearly_linear(self):
        s100 = secagg_server_cost(100, dropout_rate=0.2, degree=20)
        s1000 = secagg_server_cost(1000, dropout_rate=0.2, degree=30)
        ratio = s1000.mask_expansions / s100.mask_expansions
        assert ratio < 20  # O(n·k) with k = O(log n)

    def test_no_dropout_is_linear(self):
        s = secagg_server_cost(500, dropout_rate=0.0)
        assert s.mask_expansions == 500  # self-masks only

    def test_validation(self):
        with pytest.raises(ValueError):
            secagg_client_cost(1)
        with pytest.raises(ValueError):
            secagg_plus_client_cost(1)
        with pytest.raises(ValueError):
            secagg_server_cost(10, dropout_rate=1.0)


class TestCountsMatchProtocolDefinition:
    def test_client_counts_against_fig5(self):
        """n = 5, full graph: 4 peers → 8 agreements, 10 shares (s_sk and
        b over U1 incl. self), 4 ciphertexts, 5 mask expansions."""
        c = secagg_client_cost(5)
        assert c.key_agreements == 8
        assert c.shares_generated == 10
        assert c.ciphertexts_sent == 4
        assert c.mask_expansions == 5

    def test_server_counts_small_example(self):
        """n = 6, 2 dropped: 4 self-masks + 2×4 pairwise recomputations."""
        s = secagg_server_cost(6, dropout_rate=1 / 3)
        assert s.reconstructions == 6
        assert s.mask_expansions == 4 + 2 * 4
