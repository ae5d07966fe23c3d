"""Deterministic sub-seed derivation.

All randomness in a run flows from one global seed; named components derive
their own seeds here so runs are reproducible regardless of execution order.
"""

from __future__ import annotations

import hashlib


def derive_seed(root: int, *names: object) -> int:
    """Derive a stable 63-bit sub-seed from a root seed and a name path."""
    h = hashlib.sha256()
    h.update(str(int(root)).encode())
    for name in names:
        h.update(b"/")
        h.update(str(name).encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1
