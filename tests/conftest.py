import numpy as np
import pytest

import wittenlab as wl
from wittenlab import circle, morse


@pytest.fixture(scope="session")
def exact2():
    """Two-zero exact system, caps at +-1."""
    return wl.CircleWittenSystem.from_standard_zeros(
        [(0.0, 1.0, 1), (np.pi, -1.0, 0)], r=0.35, N=256
    )


@pytest.fixture(scope="session")
def exact2_small():
    return wl.CircleWittenSystem.from_standard_zeros(
        [(0.0, 1.0, 1), (np.pi, -1.0, 0)], r=0.35, N=64
    )


@pytest.fixture(scope="session")
def tight2():
    """Tight nonexact system: descent weights -0.45 and -2.2."""
    return wl.CircleWittenSystem.from_arc_weights(
        [0.0, 2.2], [1, 0], [-0.45, 2.2], r=0.3, N=256
    )


@pytest.fixture(scope="session")
def exact4():
    """Four-zero exact system with large caps and shallow wells, so the
    tunneling overlaps stay above the aliasing floor over the sweep."""
    return wl.CircleWittenSystem.from_standard_zeros(
        [(0.0, 0.5, 1), (1.5, -0.45, 0), (np.pi, 0.4, 1), (4.7, -0.5, 0)],
        r=0.45,
        N=512,
    )


def trig_system(N, c=0.0):
    # h = cos t + 0.45 cos 2t, given by its derivative.  Two harmonics: rich
    # enough that a 64-point grid under-resolves the deformed modes while
    # 256 points reach machine accuracy
    dh = lambda t: -np.sin(np.asarray(t, dtype=float)) - 0.9 * np.sin(
        2.0 * np.asarray(t, dtype=float)
    )
    return wl.CircleWittenSystem.from_callable_profile(dh, c=c, N=N)


@pytest.fixture(scope="session")
def trig256():
    return trig_system(256)


@pytest.fixture(scope="session")
def tight2_graph(tight2):
    return circle.circle_graph(tight2)


@pytest.fixture(scope="session")
def tensor_graph():
    """Tight two-level graph: product of two tight one-level graphs with a
    common leading cost 0.45."""
    g1 = morse.InstantonGraph(
        [("p", 1), ("q", 0)],
        [("p", "q", 1, -0.45), ("p", "q", -1, -2.2)],
    )
    g2 = morse.InstantonGraph(
        [("P", 1), ("Q", 0)],
        [("P", "Q", 1, -0.45), ("P", "Q", -1, -1.7)],
    )
    return morse.graph_tensor(g1, g2)


@pytest.fixture(scope="session")
def exact_source_graph():
    """Graph whose weights are potential differences of vertex levels."""
    levels = {"q1": -1.0, "q2": -0.6, "p1": 1.0, "p2": 0.7}
    verts = [("q1", 0), ("q2", 0), ("p1", 1), ("p2", 1)]
    edges = [
        ("p1", "q1", 1, levels["q1"] - levels["p1"]),
        ("p1", "q2", -1, levels["q2"] - levels["p1"]),
        ("p2", "q1", -1, levels["q1"] - levels["p2"]),
        ("p2", "q2", 1, levels["q2"] - levels["p2"]),
    ]
    return morse.InstantonGraph(verts, edges), levels
