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


class TestStreamFraming:
    @pytest.mark.timeout(30)
    def test_read_write_over_stream(self):
        async def scenario():
            async def serve(reader, writer):
                kind, body, _ = await f.read_frame(reader)
                writer.write(f.encode_frame(f.KIND_RESPONSE, body[::-1]))
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            request = f.encode_frame(f.KIND_REQUEST, b"abc")
            writer.write(request)
            await writer.drain()
            sent = len(request)
            kind, body, received = await f.read_frame(reader)
            writer.close()
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
            async def serve(reader, writer):
                # Half a header, then hang up: the peer died mid-send.
                writer.write(f.MAGIC + bytes((f.WIRE_VERSION,)))
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            with pytest.raises(ValueError, match="closed inside a frame header"):
                await f.read_frame(reader)
            writer.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())


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
