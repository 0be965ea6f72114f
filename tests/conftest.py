"""Shared fixtures: canonical complexes and a small random-complex pool."""

import random
from itertools import combinations

import pytest
from hypothesis import strategies as st

from z2cut.canonical import gen_canonical
from z2cut.complexes import build_complex


@pytest.fixture(scope="session")
def torus():
    return gen_canonical("csaszar-torus")


@pytest.fixture(scope="session")
def tetra():
    return gen_canonical("tetra-sphere")


@pytest.fixture(scope="session")
def octa():
    return gen_canonical("octa-sphere")


def random_complex(seed, nv=6, ntri=5, window=(0, 2)):
    """Deterministic small 2-complex from random triangles."""
    rng = random.Random(seed)
    tris = set()
    while len(tris) < ntri:
        tris.add(tuple(sorted(rng.sample(range(nv), 3))))
    # keep every vertex present so dimension 0 is never empty
    tops = sorted(tris) + [(v,) for v in range(nv)]
    return build_complex(tops, window)


def grid_torus_triangles(n):
    """The triangles of the n x n grid torus, squares cut by a diagonal."""
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = i * n + j, ((i + 1) % n) * n + j
            c, d = i * n + (j + 1) % n, ((i + 1) % n) * n + (j + 1) % n
            tris += [tuple(sorted((a, b, d))), tuple(sorted((a, c, d)))]
    return sorted(tris)


_TRIANGLES = list(combinations(range(6), 3))

# hypothesis strategy: up to 10 triangles on 6 vertices, window [0,2] or [1,2]
random_complexes = st.builds(
    lambda tris, window: build_complex(sorted(tris) + [(v,) for v in range(6)], window),
    st.sets(st.sampled_from(_TRIANGLES), min_size=1, max_size=10),
    st.sampled_from([(0, 2), (1, 2)]),
)
