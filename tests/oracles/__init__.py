"""Executable specifications the production fast paths are pinned against.

Each module keeps an implementation production no longer ships — the
plain, obviously-correct form a fast path replaced — so a parity test
can run both on the same inputs.
"""
