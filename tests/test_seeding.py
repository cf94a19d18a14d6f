"""``seeding.sha256``, the interpreter's built-in SHA-256, against hashlib's (a second route, tests/oracles.py).

Seeds and config hashes are pinned in artifacts, so the built-in digest must
match the one hashlib (OpenSSL) gives for every input.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankfit import seeding
from rankfit.cli import _provenance

from oracles import hashlib_child_seed, hashlib_config_hash


def test_sha256_is_the_builtin_not_openssl():
    """A fall back to hashlib would pass the comparisons below, so check where the function comes from."""
    assert seeding.sha256.__module__ in ("_sha2", "_sha256")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=-(2**64), max_value=2**64), tag=st.text(st.characters(codec="utf-8")))
@example(seed=8, tag="synthetic")
@example(seed=0, tag="Lebenslauf/职位 🙂")
def test_child_seed_matches_hashlib(seed, tag):
    assert seeding.child_seed(seed, tag) == hashlib_child_seed(seed, tag)


def test_config_hash_matches_hashlib():
    effective = {
        "ranker": {"endpoint": {"base_url": "http://127.0.0.1:9", "model": "m", "timeout_s": 2.5}, "p_flip": 0.4},
        "pipeline": {"strategy": "remove_hard", "window_size": 4, "grid": [[4, 2], [6, 3]]},
        "synthetic": {"title": "Ingénieur données", "frac_no_positive": 0.1, "seed": None, "hard": True},
    }
    assert _provenance(effective, 8)["config_hash"] == hashlib_config_hash(effective)
