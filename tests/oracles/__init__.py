"""Executable specifications the production fast paths are pinned against.

Each module keeps what production does not ship: the plain,
obviously-correct form a fast path replaced (``shamir``, ``secagg``,
``fleet``, ``wire_codec``), so a parity test can run both on the same
inputs, or the closed form a measured round is checked against
(``complexity``, ``xnoise``).  ``src/`` imports none of them
(``tests/test_imports.py``).
"""
