"""Adversarial/failure-injection tests against the protocol state machines.

Fig. 5's abort arms exist to stop active attacks; these tests drive the
client and server stage methods directly with malformed or malicious
inputs and assert that honest parties abort (never silently continue).
"""

import numpy as np
import pytest

from repro.crypto.pki import PublicKeyInfrastructure
from repro.crypto.signature import SchnorrSignature
from repro.secagg.client import SecAggClient, consistency_message
from repro.secagg.server import SecAggServer
from repro.secagg.types import (
    AdvertiseKeysMsg,
    ProtocolAbort,
    SecAggConfig,
)

CFG = SecAggConfig(threshold=3, bits=16, dimension=8, dh_group="modp512")


def make_round(n=5, config=CFG):
    clients = {u: SecAggClient(u, config) for u in range(1, n + 1)}
    server = SecAggServer(config)
    adverts = {u: c.advertise_keys() for u, c in clients.items()}
    requests = server.collect_advertise(adverts)
    roster = requests[1][0]
    graph = {u: nbrs for u, (_, nbrs) in requests.items()}
    return clients, server, roster, graph


class TestRosterAttacks:
    def test_duplicate_public_keys_rejected(self):
        """A server replaying one client's keys under two identities is
        caught by the all-keys-distinct assertion."""
        clients, server, roster, graph = make_round()
        cloned = dict(roster)
        victim = roster[1]
        cloned[2] = AdvertiseKeysMsg(
            sender=2, c_public=victim.c_public, s_public=victim.s_public
        )
        with pytest.raises(ProtocolAbort):
            clients[3].share_keys(cloned, graph[3])

    def test_client_missing_from_roster_aborts(self):
        clients, server, roster, graph = make_round()
        without_me = {u: m for u, m in roster.items() if u != 3}
        with pytest.raises(ProtocolAbort):
            clients[3].share_keys(without_me, graph[3])

    def test_undersized_roster_aborts(self):
        config = SecAggConfig(threshold=4, bits=16, dimension=8, dh_group="modp512")
        clients = {u: SecAggClient(u, config) for u in range(1, 6)}
        adverts = {u: c.advertise_keys() for u, c in clients.items()}
        tiny = {u: adverts[u] for u in (1, 2, 3)}
        with pytest.raises(ProtocolAbort, match="roster of 3 below threshold 4"):
            clients[1].share_keys(tiny, [2, 3])

    def test_forged_key_signature_rejected_in_malicious_mode(self):
        pki = PublicKeyInfrastructure()
        config = SecAggConfig(
            threshold=3, bits=16, dimension=8, malicious=True, dh_group="modp512"
        )
        signers = {u: pki.register(u) for u in range(1, 5)}
        clients = {
            u: SecAggClient(u, config, signer=signers[u], pki=pki)
            for u in range(1, 5)
        }
        adverts = {u: c.advertise_keys() for u, c in clients.items()}
        # The server swaps client 2's advertised keys for its own choice,
        # keeping the (now mismatched) signature.
        impostor = SecAggClient(99, config, signer=signers[2], pki=pki)
        fake = impostor.advertise_keys()
        adverts[2] = AdvertiseKeysMsg(
            sender=2, c_public=fake.c_public, s_public=fake.s_public,
            signature=adverts[2].signature,
        )
        with pytest.raises(ProtocolAbort, match="bad key signature from 2"):
            clients[1].share_keys(adverts, [2, 3, 4])

    def test_zero_padded_duplicate_key_rejected(self):
        """Keys are compared as group elements at one width: a replayed
        key spelled with a leading zero byte is not a new key."""
        clients, server, roster, graph = make_round()
        cloned = dict(roster)
        victim = roster[1]
        cloned[2] = AdvertiseKeysMsg(
            sender=2,
            c_public=b"\x00" + victim.c_public,
            s_public=b"\x00" + victim.s_public,
        )
        with pytest.raises(ProtocolAbort, match="bad public key from 2"):
            clients[3].share_keys(cloned, graph[3])

    def test_resplit_signed_keys_rejected_in_malicious_mode(self):
        """The signature covers ``c ∥ s``; moving the split point keeps
        the signed bytes (so the peer's own signature still verifies)
        but changes both keys.  It survives the wire — the record does
        not know the group — and is refused at the roster boundary."""
        from repro.wire import decode_payload, encode_payload

        pki = PublicKeyInfrastructure()
        config = SecAggConfig(
            threshold=3, bits=16, dimension=8, malicious=True, dh_group="modp512"
        )
        signers = {u: pki.register(u) for u in range(1, 5)}
        clients = {
            u: SecAggClient(u, config, signer=signers[u], pki=pki)
            for u in range(1, 5)
        }
        adverts = {u: c.advertise_keys() for u, c in clients.items()}
        clients[4].share_keys(adverts, [1, 2, 3])  # the honest roster is fine
        c, s = adverts[2].c_public, adverts[2].s_public
        resplit = AdvertiseKeysMsg(
            sender=2, c_public=c[:-1], s_public=c[-1:] + s,
            signature=adverts[2].signature,
        )
        assert pki.verifier(2).verify(
            resplit.c_public + resplit.s_public, resplit.signature
        )
        adverts[2] = resplit
        roster = decode_payload(encode_payload(adverts))
        assert roster[2] == resplit
        with pytest.raises(ProtocolAbort, match="bad public key from 2"):
            clients[1].share_keys(roster, [2, 3, 4])

    @pytest.mark.parametrize("field", ["c_public", "s_public"])
    @pytest.mark.parametrize("mangle", [
        lambda key: b"\x00" + key, lambda key: key[1:], lambda key: bytes(len(key)),
    ])
    def test_server_refuses_to_broadcast_a_wrong_width_key(self, field, mangle):
        import dataclasses

        clients = {u: SecAggClient(u, CFG) for u in range(1, 6)}
        adverts = {u: c.advertise_keys() for u, c in clients.items()}
        adverts[2] = dataclasses.replace(
            adverts[2], **{field: mangle(getattr(adverts[2], field))}
        )
        with pytest.raises(ProtocolAbort, match="bad public key from 2"):
            SecAggServer(CFG).collect_advertise(adverts)


class TestShareKeysRequestAttacks:
    """The ShareKeys request is ``(roster, the recipient's neighbour ids)``;
    whatever else arrives ends in a named abort before any share is cut."""

    @pytest.fixture
    def no_shares_cut(self):
        from unittest import mock

        from repro.crypto.shamir import ShamirSecretSharing

        with mock.patch.object(ShamirSecretSharing, "share") as share:
            yield
        share.assert_not_called()

    def test_whole_graph_dict_refused(self, no_shares_cut):
        """What a version-5 coordinator sent: every client's neighbour set."""
        clients, server, roster, graph = make_round()
        whole = {u: set(nbrs) for u, nbrs in graph.items()}
        with pytest.raises(ProtocolAbort, match="collection of client ids"):
            clients[1].share_keys(roster, whole)

    def test_whole_graph_dict_refused_across_the_wire(self, no_shares_cut):
        from repro.secagg.workflow import SecAggWorkflowClient
        from repro.wire import decode_payload, encode_payload

        clients, server, roster, graph = make_round()
        whole = {u: set(nbrs) for u, nbrs in graph.items()}
        client = SecAggWorkflowClient(clients[1], np.zeros(8, dtype=np.int64))
        request = decode_payload(encode_payload((roster, whole)))
        with pytest.raises(ProtocolAbort, match="collection of client ids"):
            client.handle("share_keys", request)

    @pytest.mark.parametrize("neighbors", [[2, 3, "4"], [2, 3, 4.0], [2, 3, True], 7, None])
    def test_non_id_neighbors_refused(self, neighbors, no_shares_cut):
        clients, server, roster, graph = make_round()
        with pytest.raises(ProtocolAbort, match="collection of client ids"):
            clients[1].share_keys(roster, neighbors)

    def test_neighbor_outside_the_roster_refused(self, no_shares_cut):
        clients, server, roster, graph = make_round()
        with pytest.raises(ProtocolAbort, match=r"neighbors \[9\] missing from roster"):
            clients[1].share_keys(roster, [2, 3, 4, 9])

    def test_self_as_neighbor_refused(self, no_shares_cut):
        clients, server, roster, graph = make_round()
        with pytest.raises(ProtocolAbort, match="client 1 listed as its own neighbor"):
            clients[1].share_keys(roster, [1, 2, 3, 4])

    def test_fewer_than_threshold_neighbors_refused(self, no_shares_cut):
        clients, server, roster, graph = make_round()
        with pytest.raises(ProtocolAbort, match="only 2 neighbors; threshold 3"):
            clients[1].share_keys(roster, [2, 3])
        with pytest.raises(ProtocolAbort, match="only 2 neighbors; threshold 3"):
            clients[1].share_keys(roster, [2, 2, 3, 3])  # repeats are one neighbour

    def test_shares_are_cut_for_exactly_the_checked_neighbors(self):
        clients, server, roster, graph = make_round()
        assert graph[1] == [2, 3, 4, 5]
        assert sorted(clients[1].share_keys(roster, (5, 2, 4))) == [2, 4, 5]


class TestCiphertextAttacks:
    def _shared_round(self):
        clients, server, roster, graph = make_round()
        outboxes = {u: clients[u].share_keys(roster, graph[u]) for u in clients}
        inboxes = server.route_shares(outboxes)
        return clients, server, inboxes

    def test_tampered_ciphertext_aborts_unmasking(self):
        clients, server, inboxes = self._shared_round()
        box = dict(inboxes[1])
        blob = bytearray(box[2])
        blob[len(blob) // 2] ^= 0x01
        box[2] = bytes(blob)
        clients[1].masked_input(box, np.zeros(8, dtype=np.int64))
        with pytest.raises(ProtocolAbort):
            clients[1].unmask(sorted(clients), None, dropped=[], survivors=sorted(clients))

    def test_misrouted_ciphertext_detected(self):
        """A ciphertext meant for client 3 delivered to client 1 fails
        decryption (different channel key) and aborts."""
        clients, server, inboxes = self._shared_round()
        box = dict(inboxes[1])
        box[2] = inboxes[3][2]  # 2 -> 3 payload rerouted to 1
        clients[1].masked_input(box, np.zeros(8, dtype=np.int64))
        with pytest.raises(ProtocolAbort):
            clients[1].unmask(sorted(clients), None, dropped=[], survivors=sorted(clients))

    def test_a_bad_inbox_aborts_every_stage_that_opens_it(self):
        """The opened inbox is kept for the next stage only when all of it
        authenticated: stage 4 and stage 5 both abort, naming the sender,
        and a later good inbox is not served the earlier failure."""
        clients, server, inboxes = self._shared_round()
        box = dict(inboxes[1])
        box[3] = box[3][:-1] + bytes([box[3][-1] ^ 0x80])
        everyone = sorted(clients)
        clients[1].masked_input(box, np.zeros(8, dtype=np.int64))
        for _ in range(2):
            with pytest.raises(ProtocolAbort, match="bad ciphertext from 3"):
                clients[1].unmask(everyone, None, dropped=[], survivors=everyone)
            with pytest.raises(ProtocolAbort, match="bad ciphertext from 3"):
                clients[1].shares_of_extra_secret({2: ["g:1"]})
        clients[1].masked_input(inboxes[1], np.zeros(8, dtype=np.int64))
        reply = clients[1].unmask(everyone, None, dropped=[], survivors=everyone)
        assert sorted(reply.b_shares) == everyone


class TestUnmaskingAttacks:
    def _to_unmask_stage(self):
        clients, server, roster, graph = make_round()
        outboxes = {u: clients[u].share_keys(roster, graph[u]) for u in clients}
        inboxes = server.route_shares(outboxes)
        for u in clients:
            server.admit_masked(
                u, clients[u].masked_input(inboxes[u], np.zeros(8, dtype=np.int64))
            )
        u3 = server.collect_masked()
        return clients, server, u3

    def test_both_secrets_request_refused(self):
        """The core SecAgg privacy invariant: a client never reveals both
        the mask key and the self-mask seed of the same peer — a server
        asking for both is trying to unmask an individual input."""
        clients, server, u3 = self._to_unmask_stage()
        with pytest.raises(ProtocolAbort):
            clients[1].unmask(
                u3, None, dropped=[2], survivors=u3  # 2 is also in U3!
            )

    def test_survivor_list_mismatch_refused(self):
        clients, server, u3 = self._to_unmask_stage()
        with pytest.raises(ProtocolAbort, match="U4 must be a subset of U3"):
            clients[1].unmask(u3, None, dropped=[], survivors=u3[:-1])

    def test_semi_honest_unmask_adopts_u3_through_the_consistency_checks(self):
        """No ConsistencyCheck exchange ran: the Unmasking request's
        survivor list is U3, and the stage-3 checks guard it."""
        clients, server, u3 = self._to_unmask_stage()
        assert server.u4 == u3 and server.unmask_request() == (u3, None, [], u3)
        with pytest.raises(ProtocolAbort, match=r"\|U3\| = 2 below threshold"):
            clients[1].unmask(u3[:2], None, dropped=[], survivors=u3[:2])
        with pytest.raises(ProtocolAbort, match="excluded me from U3"):
            clients[1].unmask(u3[1:], None, dropped=[], survivors=u3[1:])
        with pytest.raises(ProtocolAbort, match="both secrets of one client"):
            clients[1].unmask(u3, None, dropped=[u3[-1]], survivors=u3)
        reply = clients[1].unmask(*server.unmask_request())
        assert sorted(reply.b_shares) == u3 and not reply.s_sk_shares

    def test_malicious_unmask_never_adopts_u3_from_the_request(self):
        """Malicious mode keeps the exchange: U3 is what the client
        signed, and an Unmasking request cannot replace it."""
        clients, server, u3 = self._malicious_round_to_consistency()
        for u in clients:
            clients[u].consistency_check(u3)
        with pytest.raises(ProtocolAbort, match="survivor list inconsistent with U3"):
            clients[1].unmask(u3[:3], {}, dropped=[], survivors=u3[:3])
        fresh, _, _ = self._malicious_round_to_consistency()
        with pytest.raises(ProtocolAbort, match="survivor list inconsistent with U3"):
            fresh[1].unmask(u3, {}, dropped=[], survivors=u3)

    def test_undersized_u4_refused(self):
        clients, server, u3 = self._to_unmask_stage()
        with pytest.raises(ProtocolAbort):
            clients[1].unmask(u3[:2], None, dropped=[], survivors=u3)

    def test_u4_not_subset_of_u3_refused(self):
        clients, server, u3 = self._to_unmask_stage()
        with pytest.raises(ProtocolAbort):
            clients[1].unmask(u3 + [99], None, dropped=[], survivors=u3)

    def _malicious_round_to_consistency(self):
        pki = PublicKeyInfrastructure()
        config = SecAggConfig(
            threshold=3, bits=16, dimension=8, malicious=True, dh_group="modp512"
        )
        signers = {u: pki.register(u) for u in range(1, 5)}
        clients = {
            u: SecAggClient(u, config, signer=signers[u], pki=pki)
            for u in range(1, 5)
        }
        server = SecAggServer(config, pki=pki)
        adverts = {u: c.advertise_keys() for u, c in clients.items()}
        requests = server.collect_advertise(adverts)
        outboxes = {u: clients[u].share_keys(*requests[u]) for u in clients}
        inboxes = server.route_shares(outboxes)
        for u in clients:
            server.admit_masked(
                u, clients[u].masked_input(inboxes[u], np.zeros(8, dtype=np.int64))
            )
        u3 = server.collect_masked()
        assert server.u4 == []  # fixed by the exchange, not by collect_masked
        return clients, server, u3

    def test_forged_consistency_signature_refused(self):
        clients, server, u3 = self._malicious_round_to_consistency()
        sigs = {u: clients[u].consistency_check(u3) for u in clients}
        # The server substitutes a forged signature — pretending a
        # different survivor set was acknowledged.
        sigs[2] = SchnorrSignature(e=12345, s=67890)
        server.collect_consistency(sigs)
        with pytest.raises(ProtocolAbort, match="bad consistency signature from 2"):
            clients[1].unmask(*server.unmask_request())

    def test_consistency_message_binds_round_and_set(self):
        assert consistency_message(1, [1, 2]) != consistency_message(2, [1, 2])
        assert consistency_message(1, [1, 2]) != consistency_message(1, [1, 3])
        # Order-insensitive (the set is what is signed).
        assert consistency_message(1, [2, 1]) == consistency_message(1, [1, 2])


@pytest.mark.timeout(60)
class TestADealerAtAnotherShape:
    """Every client of a round deals the same labels at the same widths,
    and parses what it holds against its own shape.  A peer that deals
    one XNoise seed share fewer or more ends the round in a named
    ProtocolAbort — over the serialized wire and over real sockets —
    never in a hang or a wrong sum."""

    @pytest.mark.parametrize("transport", ["serialized", "sockets"])
    @pytest.mark.parametrize("odd_extras", [5, 7])
    def test_an_extra_count_off_by_one_aborts_the_round_by_name(self, transport, odd_extras):
        from repro.engine import RoundEngine, SerializingTransport, SocketTransport, run_sync
        from repro.secagg import arun_secagg_round

        def factory(u: int) -> SecAggClient:
            count = odd_extras if u == 3 else 6
            seeds = {f"g:{k}": bytes([u, k]) * 16 for k in range(1, count + 1)}
            return SecAggClient(u, CFG, extra_secrets=seeds)

        inputs = {u: np.full(8, u, dtype=np.int64) for u in range(1, 6)}
        carrier = SerializingTransport() if transport == "serialized" else SocketTransport()
        engine = RoundEngine(transport=carrier)
        with pytest.raises(
            ProtocolAbort,
            match=rf"bad ciphertext from 3: SharePayload of {144 + 48 * odd_extras} "
            r"bytes; the dealing shape \(64, 32, 32, 32, 32, 32, 32, 32\) needs 432",
        ):
            run_sync(arun_secagg_round(CFG, inputs, client_factory=factory, engine=engine))
