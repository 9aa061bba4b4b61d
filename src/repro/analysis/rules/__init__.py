"""One module per rule; importing the package registers them all."""

from repro.analysis.rules import (  # noqa: F401  — registration side effects
    async_hygiene,
    determinism,
    headroom_guard,
    strict_decoder,
    zero_copy,
)
