"""Shared hypothesis strategies for randomized inputs."""

import random

import hypothesis.strategies as st

from wisebe import CANDIDATE, REFERENCE, BoundaryVector, ReferenceSet

TOKEN_ALPHABET = "abcdefghijklmnopqrstuvwxyz'-"


def bit_lists(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n)


def tokens():
    return st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=8)


@st.composite
def reference_sets(draw, min_m=2, max_m=4, min_n=1, max_n=30, force_boundary=True):
    """m aligned reference vectors; by default at least one boundary exists."""
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(min_m, max_m))
    rows = [draw(bit_lists(n)) for _ in range(m)]
    if force_boundary and not any(any(row) for row in rows):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = 1
    return ReferenceSet("doc", tuple(
        BoundaryVector("doc", tuple(row), REFERENCE, f"ref_{i + 1}")
        for i, row in enumerate(rows)
    ))


@st.composite
def scoring_instances(draw, **kwargs):
    """A reference set plus an aligned candidate vector."""
    refs = draw(reference_sets(**kwargs))
    bits = draw(bit_lists(refs.n))
    return refs, BoundaryVector("doc", tuple(bits), CANDIDATE, "sys")


# Sizes at and around the 30-bit digits of CPython ints and the 64-bit
# word, where a shift or popcount bug in the bitmask kernel would show.
EDGE_SIZES = (1, 29, 30, 31, 59, 60, 61, 64, 65)


def _sparse_bits(draw, n):
    """n bits at density 1/2 to 1/16, from a drawn seed: integers drawn
    whole shrink towards few low bits and leave the high digits empty."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    mask = rng.getrandbits(n)
    for _ in range(draw(st.integers(0, 3))):
        mask &= rng.getrandbits(n)
    return [mask >> j & 1 for j in range(n)]


@st.composite
def wide_reference_sets(draw, min_m=2, max_m=5, max_n=300):
    """Like reference_sets, over up to max_n positions and mostly the edge
    sizes; some reference often marks the first or the last position."""
    n = draw(st.one_of(st.sampled_from(EDGE_SIZES), st.integers(1, max_n)))
    m = draw(st.integers(min_m, max_m))
    rows = [_sparse_bits(draw, n) for _ in range(m)]
    for end in (0, n - 1):
        if draw(st.booleans()):
            rows[draw(st.integers(0, m - 1))][end] = 1
    if not any(any(row) for row in rows):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = 1
    return ReferenceSet("doc", tuple(
        BoundaryVector("doc", tuple(row), REFERENCE, f"ref_{i + 1}")
        for i, row in enumerate(rows)
    ))


@st.composite
def wide_scoring_instances(draw, **kwargs):
    """A wide reference set plus an aligned candidate vector."""
    refs = draw(wide_reference_sets(**kwargs))
    bits = _sparse_bits(draw, refs.n)
    return refs, BoundaryVector("doc", tuple(bits), CANDIDATE, "sys")
