import contextlib
import gc
import random

import pytest
from hypothesis import strategies as st

from planepart import build_plane
from planepart.plane import load_plane, plane_to_doc

_PLANES = {}


@contextlib.contextmanager
def collector(enabled):
    """Run the block with the cyclic collector on or off, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture(scope="session")
def plane_for():
    """Session cache of built planes keyed by order."""

    def get(q):
        if q not in _PLANES:
            _PLANES[q] = build_plane(q)
        return _PLANES[q]

    return get


def prime_powers(lo, hi):
    out = []
    for q in range(max(lo, 2), hi + 1):
        p = None
        for c in range(2, q + 1):
            if q % c == 0:
                p = c
                break
        m = q
        while m % p == 0:
            m //= p
        if m == 1:
            out.append(q)
    return out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def replace_one_field(doc, data):
    """Replace the value at one key or index path of a JSON document with an
    arbitrary JSON value drawn from ``data``."""
    paths = []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            paths.append(path + (key,))
            if isinstance(value, (dict, list)):
                walk(value, path + (key,))

    walk(doc, ())
    path = data.draw(st.sampled_from(paths))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(JSON_VALUES)


def relabelled(doc, points, lines):
    """A plane or partition document with every Pi renamed P(points[i]) and
    every Li renamed L(lines[i]); entries keep their order."""

    def rename(name):
        return f"{name[0]}{(points if name[0] == 'P' else lines)[int(name[1:])]}"

    if "lines" in doc:
        return {"q": doc["q"], "lines": [
            {"id": rename(e["id"]), "points": list(map(rename, e["points"]))}
            for e in doc["lines"]
        ]}
    return {**doc, "classes": [
        {**c, "members": list(map(rename, c["members"]))} for c in doc["classes"]
    ]}


def relabelled_plane(plane_for, q, seed):
    """PG(2,q) under a seeded relabelling of points and lines.

    The relabelled plane goes through the full loader, so choose_frame and
    the meets see ids unlike the built plane's.
    """
    n = q * q + q + 1
    points, lines = list(range(n)), list(range(n))
    rng = random.Random(seed)
    rng.shuffle(points)
    rng.shuffle(lines)
    return load_plane(relabelled(plane_to_doc(plane_for(q)), points, lines))
