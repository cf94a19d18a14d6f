"""Deterministic child-seed derivation, and the package's one SHA-256.

Child generators are derived from a root seed plus a stable string tag, so
work split across threads or re-ordered loops reproduces exactly. Never use
the built-in hash() here: it is salted per process.

``sha256`` is the interpreter's built-in SHA-256, imported the way ``random``
imports its sha512: ``hashlib`` would load OpenSSL's libcrypto into every stage.
"""

from __future__ import annotations

import random

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without it
        from hashlib import sha256


def child_seed(seed: int, tag: str) -> int:
    digest = sha256(f"{seed}|{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def child_rng(seed: int, tag: str) -> random.Random:
    return random.Random(child_seed(seed, tag))
