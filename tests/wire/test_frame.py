"""Frame layer: round-trips, strictness, and hostile headers."""

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.wire import frame as f


class TestFrameRoundTrip:
    @given(body=st.binary(max_size=2048))
    @settings(max_examples=50)
    def test_roundtrip_every_kind(self, body):
        for kind in (
            f.KIND_HELLO,
            f.KIND_WELCOME,
            f.KIND_REQUEST,
            f.KIND_RESPONSE,
            f.KIND_ERROR,
        ):
            encoded = f.encode_frame(kind, body)
            assert len(encoded) == f.FRAME_OVERHEAD + len(body)
            assert f.decode_frame(encoded) == (kind, body)

    def test_unknown_kind_refused_on_encode(self):
        with pytest.raises(ValueError, match="unknown frame kind"):
            f.encode_frame(0x7F, b"")

    def test_oversized_body_refused_on_encode(self):
        # Forge the size without allocating MAX_BODY bytes.
        class Huge(bytes):
            def __len__(self):
                return f.MAX_BODY + 1

        with pytest.raises(ValueError, match="exceeds MAX_BODY"):
            f.encode_frame(f.KIND_REQUEST, Huge())


class TestFrameAdversarial:
    GOOD = f.encode_frame(f.KIND_REQUEST, b"payload-bytes")

    def test_every_truncation_rejected(self):
        for cut in range(len(self.GOOD)):
            with pytest.raises(ValueError):
                f.decode_frame(self.GOOD[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError, match="trailing garbage"):
            f.decode_frame(self.GOOD + b"x")

    def test_wrong_magic_rejected(self):
        with pytest.raises(ValueError, match="bad frame magic"):
            f.decode_frame(b"XX" + self.GOOD[2:])

    def test_wrong_version_rejected(self):
        bad = self.GOOD[:2] + bytes([f.WIRE_VERSION + 1]) + self.GOOD[3:]
        with pytest.raises(ValueError, match="unsupported frame version"):
            f.decode_frame(bad)

    def test_version_1_frame_refused_by_name(self):
        # Version 2 bit-packs masked inputs; a version-1 peer's frames
        # must fail to parse, not misparse.
        assert f.WIRE_VERSION == 6
        v1 = self.GOOD[:2] + b"\x01" + self.GOOD[3:]
        with pytest.raises(
            ValueError, match=r"unsupported frame version 1 \(speaking 6\)"
        ):
            f.decode_frame(v1)

    def test_version_2_frame_refused_by_name(self):
        # Version 3 re-laid every small message body; a version-2 peer's
        # frames must fail to parse, not misparse.
        v2 = self.GOOD[:2] + b"\x02" + self.GOOD[3:]
        with pytest.raises(
            ValueError, match=r"unsupported frame version 2 \(speaking 6\)"
        ):
            f.decode_frame(v2)

    def test_version_3_frame_refused_by_name(self):
        # Version 4 kept the layout and changed what an XNoise seed
        # expands to; a version-3 peer would add and remove different
        # noise, so its frames are refused too.
        v3 = self.GOOD[:2] + b"\x03" + self.GOOD[3:]
        with pytest.raises(
            ValueError, match=r"unsupported frame version 3 \(speaking 6\)"
        ):
            f.decode_frame(v3)

    def test_version_4_frame_refused_by_name(self):
        # Version 5 kept the layout again and changed what a mask seed
        # expands to (ring-width bit fields of the stream, not cut-down
        # 32-bit words); a version-4 peer would mask and unmask with
        # different pads and hand back a silently wrong aggregate.
        v4 = self.GOOD[:2] + b"\x04" + self.GOOD[3:]
        with pytest.raises(
            ValueError, match=r"unsupported frame version 4 \(speaking 6\)"
        ):
            f.decode_frame(v4)

    def test_version_5_frame_refused_by_name(self):
        # Version 6 kept the layout once more and changed what a
        # ``share_keys`` request means (the recipient's neighbour ids,
        # not the whole masking graph) and dropped the semi-honest
        # ``consistency_check`` exchange; a version-5 peer would send or
        # expect the other conversation.
        v5 = self.GOOD[:2] + b"\x05" + self.GOOD[3:]
        with pytest.raises(
            ValueError, match=r"unsupported frame version 5 \(speaking 6\)"
        ):
            f.decode_frame(v5)

    def test_version_8_payload_refused_by_name_inside_a_good_frame(self):
        # Payload version 9 kept the frame and changed what a
        # ``share_keys`` request carries (the roster alone, each client
        # deriving its neighbours): a version-8 peer's frame parses, and
        # the payload inside it is refused by name.
        from repro.wire import CodecError, decode_payload
        from repro.wire.codecs import encode_payload_frame

        frame = bytearray(encode_payload_frame(f.KIND_REQUEST, ("share_keys", ({}, [2, 3]))))
        frame[f.FRAME_OVERHEAD] = 8
        kind, body = f.decode_frame(bytes(frame))
        assert kind == f.KIND_REQUEST
        with pytest.raises(
            CodecError, match=r"unsupported payload version 8 \(speaking 9\)"
        ):
            decode_payload(body)

    def test_unknown_kind_rejected(self):
        bad = self.GOOD[:3] + b"\x7f" + self.GOOD[4:]
        with pytest.raises(ValueError, match="unknown frame kind"):
            f.decode_frame(bad)

    def test_oversized_length_prefix_rejected(self):
        """A hostile 4 GiB length prefix must fail immediately — not
        allocate, not wait for bytes that never come."""
        bad = (
            f.MAGIC
            + bytes((f.WIRE_VERSION, f.KIND_REQUEST))
            + (0xFFFFFFFF).to_bytes(4, "big")
        )
        with pytest.raises(ValueError, match="oversized frame"):
            f.decode_frame(bad + b"tiny")

    @given(data=st.binary(max_size=64))
    @settings(max_examples=100)
    def test_fuzz_never_misparses(self, data):
        """Arbitrary bytes either are one valid frame or raise ValueError."""
        try:
            kind, body = f.decode_frame(data)
        except ValueError:
            return
        assert f.encode_frame(kind, body) == data


async def _one_link_server(serve):
    """A server handing its one accepted link to ``serve``; returns the
    server, the serving task's future and the dialed link."""
    loop = asyncio.get_running_loop()
    served = loop.create_future()

    def done(task):
        if task.exception() is not None:
            served.set_exception(task.exception())
        else:
            served.set_result(task.result())

    tasks = []

    def on_link(link):
        tasks.append(loop.create_task(serve(link)))
        tasks[-1].add_done_callback(done)

    server = await f.serve_links(on_link, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    return server, served, await f.open_link(host, port)


class TestStreamFraming:
    @pytest.mark.timeout(30)
    def test_read_write_over_stream(self):
        async def scenario():
            async def serve(link):
                kind, body, _ = await link.protocol.read()
                await link.send(f.encode_frame(f.KIND_RESPONSE, body[::-1]))
                await link.aclose()

            server, served, link = await _one_link_server(serve)
            request = f.encode_frame(f.KIND_REQUEST, b"abc")
            sent = await link.send(request)
            kind, body, received = await link.protocol.read()
            await link.aclose()
            await served
            server.close()
            await server.wait_closed()
            return sent, kind, body, received

        sent, kind, body, received = asyncio.run(scenario())
        assert sent == f.FRAME_OVERHEAD + 3
        assert (kind, body) == (f.KIND_RESPONSE, b"cba")
        assert received == f.FRAME_OVERHEAD + 3

    @pytest.mark.timeout(30)
    def test_clean_eof_vs_mid_frame_close(self):
        async def scenario():
            async def serve(link):
                # Half a header, then hang up: the peer died mid-send.
                link.transport.write(f.MAGIC + bytes((f.WIRE_VERSION,)))
                await link.aclose()

            server, served, link = await _one_link_server(serve)
            with pytest.raises(ValueError, match="closed inside a frame header"):
                await link.protocol.read()
            await link.aclose()
            await served
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    @pytest.mark.timeout(60)
    def test_backpressure_holds_one_frame_and_resumes_on_recv(self):
        """A peer writes 50 complete 1 MiB frames while nobody reads:
        the receiving link holds one complete frame and nothing of the
        next, the rest waits in the peer's send buffer, and every frame
        arrives intact once reading starts."""
        count, size = 50, 1 << 20
        frames = [f.encode_frame(f.KIND_RESPONSE, bytes((i,)) * size) for i in range(count)]

        async def scenario():
            writer = asyncio.get_running_loop().create_future()

            async def serve(link):
                for frame in frames:
                    link.transport.write(frame)
                writer.set_result(link)
                with pytest.raises(f.LinkClosed):
                    await link.recv()
                await link.aclose()

            server, served, link = await _one_link_server(serve)
            protocol = link.protocol
            peer = await writer
            for _ in range(500):
                if protocol._ready is not None:
                    break
                await asyncio.sleep(0.01)
            # Let the loop run on: nothing more may be read.
            await asyncio.sleep(0.2)
            held = protocol._ready, protocol._body, protocol._end - protocol._start
            backlog = peer.transport.get_write_buffer_size()
            received = []
            for _ in range(count):
                kind, body, n = await link.recv()
                received.append((kind, len(body), body[0], body[-1], n))
            await link.aclose()
            await served
            server.close()
            await server.wait_closed()
            return held, backlog, received

        (ready, in_progress, staged), backlog, received = asyncio.run(scenario())
        assert ready is not None and ready[1] == frames[0][f.FRAME_OVERHEAD :]
        # At most the one frame in progress besides it: here none, since
        # the body buffer stops the read at the frame's end.
        assert in_progress is None and staged == 0
        # Reading stopped: had it not, the peer's buffer would be empty.
        assert backlog > size
        assert received == [
            (f.KIND_RESPONSE, size, i, i, size + f.FRAME_OVERHEAD) for i in range(count)
        ]


class TestHelloSchema:
    """The explicit HELLO body: identity, version, optional auth token."""

    def test_roundtrip_defaults(self):
        hello = f.Hello(client_id=7)
        body = f.encode_hello(hello)
        assert len(body) == f.HELLO_OVERHEAD
        assert f.decode_hello(body) == hello

    @given(
        client_id=st.integers(min_value=0, max_value=(1 << 64) - 1),
        wire_version=st.integers(min_value=0, max_value=0xFF),
        auth_token=st.binary(max_size=64),
    )
    @settings(max_examples=100)
    def test_roundtrip_every_field(self, client_id, wire_version, auth_token):
        hello = f.Hello(client_id, wire_version, auth_token)
        body = f.encode_hello(hello)
        assert len(body) == f.HELLO_OVERHEAD + len(auth_token)
        assert f.decode_hello(body) == hello

    def test_foreign_wire_version_still_parses(self):
        """Version acceptance is the listener's decision — the codec
        must hand it both numbers, not choke first."""
        body = f.encode_hello(f.Hello(3, wire_version=f.WIRE_VERSION + 9))
        assert f.decode_hello(body).wire_version == f.WIRE_VERSION + 9

    def test_encode_refuses_out_of_range_fields(self):
        with pytest.raises(ValueError, match="fit one byte"):
            f.encode_hello(f.Hello(1, wire_version=256))
        with pytest.raises(ValueError, match="fit one byte"):
            f.encode_hello(f.Hello(1, wire_version=-1))
        with pytest.raises(ValueError, match="fit eight bytes"):
            f.encode_hello(f.Hello(1 << 64))
        with pytest.raises(ValueError, match="fit eight bytes"):
            f.encode_hello(f.Hello(-1))

    def test_encode_refuses_oversized_token(self):
        class Huge(bytes):
            def __len__(self):
                return f.MAX_AUTH_TOKEN + 1

        with pytest.raises(ValueError, match="MAX_AUTH_TOKEN"):
            f.encode_hello(f.Hello(1, auth_token=Huge()))

    def test_truncated_body_rejected(self):
        body = f.encode_hello(f.Hello(5, auth_token=b"secret"))
        for cut in range(f.HELLO_OVERHEAD):
            with pytest.raises(ValueError, match="truncated HELLO body"):
                f.decode_hello(body[:cut])

    def test_truncated_token_rejected(self):
        body = f.encode_hello(f.Hello(5, auth_token=b"secret"))
        for cut in range(f.HELLO_OVERHEAD, len(body)):
            with pytest.raises(ValueError, match="truncated HELLO auth token"):
                f.decode_hello(body[:cut])

    def test_trailing_garbage_rejected(self):
        body = f.encode_hello(f.Hello(5, auth_token=b"secret"))
        with pytest.raises(ValueError, match="trailing garbage"):
            f.decode_hello(body + b"\x00")

    @given(data=st.binary(max_size=80))
    @settings(max_examples=100)
    def test_fuzz_never_misparses(self, data):
        """Arbitrary bytes either are one valid HELLO or raise ValueError."""
        try:
            hello = f.decode_hello(data)
        except ValueError:
            return
        assert f.encode_hello(hello) == data
