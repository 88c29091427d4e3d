"""Graph construction, formats, and structural queries."""

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generate import random_connected_graph, random_tree
from hamspec.graphs import (
    FormatError,
    _spanning_tree_iter,
    Graph,
    GraphError,
    build_graph,
    classify_shape,
    degrees,
    distance_matrix,
    first_spanning_tree,
    is_connected,
    is_tree,
    leaves,
    make_complete,
    make_cycle,
    make_path,
    non_articulation_vertex,
    parse_graph,
    render_graph,
    tree_path,
)
from hamspec.verify import enumerate_connected_graphs

SPIDER = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return build_graph(n, picked)


def test_build_graph_normalizes():
    g = build_graph(4, [(2, 0), (0, 2), (1, 3)])
    assert g.edges == ((0, 2), (1, 3))
    assert g.n == 4
    assert g.edge_count() == 2


def test_build_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        build_graph(0, [])
    with pytest.raises(GraphError):
        build_graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(3, [(-1, 0)])


def test_graph_is_hashable_value():
    a = build_graph(3, [(0, 1), (1, 2)])
    b = build_graph(3, [(1, 2), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_standard_families():
    assert make_path(1) == Graph(1, ())
    assert make_path(4).edges == ((0, 1), (1, 2), (2, 3))
    assert make_cycle(3).edges == ((0, 1), (0, 2), (1, 2))
    assert make_complete(4).edge_count() == 6
    with pytest.raises(GraphError):
        make_cycle(2)
    with pytest.raises(GraphError):
        make_path(0)


def test_degrees_and_leaves():
    assert degrees(SPIDER) == (3, 2, 1, 2, 1, 2, 1)
    assert leaves(SPIDER) == frozenset({2, 4, 6})
    assert leaves(make_cycle(4)) == frozenset()


def test_connectivity():
    assert is_connected(SPIDER)
    assert is_connected(Graph(1, ()))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert not is_connected(build_graph(2, []))


def test_is_tree():
    assert is_tree(SPIDER)
    assert is_tree(make_path(5))
    assert not is_tree(make_cycle(4))
    assert not is_tree(build_graph(4, [(0, 1), (2, 3), (1, 2), (0, 3)]))
    # right edge count but disconnected
    assert not is_tree(build_graph(4, [(0, 1), (0, 1), (2, 3)]))


def test_distance_matrix_path():
    d = distance_matrix(make_path(4))
    expected = np.array(
        [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]], dtype=np.int64
    )
    assert np.array_equal(d, expected)
    assert not d.flags.writeable


def test_distance_matrix_cycle():
    d = distance_matrix(make_cycle(5))
    assert d[0, 2] == 2
    assert d[0, 3] == 2
    assert d.max() == 2


def _floyd_warshall(g: Graph) -> np.ndarray:
    d = np.full((g.n, g.n), g.n, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for a, b in g.edges:
        d[a, b] = d[b, a] = 1
    for k in range(g.n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def test_distance_matrix_matches_floyd_warshall():
    rng = random.Random(4040)
    for _ in range(40):
        n = rng.randint(1, 40)
        chords = (n - 1) * (n - 2) // 2
        g = random_connected_graph(n, rng, extra_edges=rng.randint(0, min(2 * n, chords)))
        assert np.array_equal(distance_matrix(g), _floyd_warshall(g)), render_graph(g)


def test_distance_matrix_requires_connected():
    with pytest.raises(GraphError):
        distance_matrix(build_graph(3, [(0, 1)]))


def test_classify_shape():
    assert classify_shape(make_path(2)) == "path"
    assert classify_shape(make_path(6)) == "path"
    assert classify_shape(make_cycle(3)) == "cycle"
    assert classify_shape(make_cycle(7)) == "cycle"
    assert classify_shape(SPIDER) == "other"
    assert classify_shape(make_complete(4)) == "other"
    with pytest.raises(GraphError):
        classify_shape(Graph(1, ()))
    with pytest.raises(GraphError):
        classify_shape(build_graph(4, [(0, 1), (2, 3)]))


def test_tree_path():
    assert tree_path(SPIDER, 2, 4) == (2, 1, 0, 3, 4)
    assert tree_path(SPIDER, 4, 2) == (4, 3, 0, 1, 2)
    assert tree_path(SPIDER, 6, 6) == (6,)
    with pytest.raises(GraphError):
        tree_path(make_cycle(4), 0, 2)
    with pytest.raises(GraphError):
        tree_path(SPIDER, 0, 9)


def test_tree_path_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(6060)
    for _ in range(5):
        t = random_tree(60, rng)
        nxt = nx.Graph(t.edges)
        for _ in range(100):
            a, b = rng.randrange(60), rng.randrange(60)
            assert tree_path(t, a, b) == tuple(nx.shortest_path(nxt, a, b)), (render_graph(t), a, b)


def test_non_articulation_vertex():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert non_articulation_vertex(star) == 1
    assert non_articulation_vertex(make_path(4)) == 0
    assert non_articulation_vertex(make_cycle(4)) == 0
    assert non_articulation_vertex(SPIDER) == 2
    with pytest.raises(GraphError):
        non_articulation_vertex(Graph(1, ()))
    with pytest.raises(GraphError):
        non_articulation_vertex(build_graph(3, [(0, 1)]))


def _removable(g: Graph, v: int) -> bool:
    """Brute force: union-find over the edges that avoid v."""
    root = list(range(g.n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in g.edges:
        if v not in (a, b):
            root[find(a)] = find(b)
    return len({find(u) for u in range(g.n) if u != v}) == 1


def test_non_articulation_vertex_is_smallest_removable():
    rng = random.Random(5050)
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            relabel = list(range(n))
            rng.shuffle(relabel)
            shuffled = build_graph(n, [(relabel[a], relabel[b]) for a, b in g.edges])
            for h in (g, shuffled):
                expected = next(v for v in range(n) if _removable(h, v))
                assert non_articulation_vertex(h) == expected, render_graph(h)


def _kirchhoff_count(g: Graph) -> int:
    """Spanning-tree count via the matrix-tree determinant."""
    if g.n == 1:
        return 1
    lap = np.zeros((g.n, g.n))
    for a, b in g.edges:
        lap[a, a] += 1
        lap[b, b] += 1
        lap[a, b] -= 1
        lap[b, a] -= 1
    return round(np.linalg.det(lap[1:, 1:]))


def test_spanning_trees_small_families():
    assert len(list(_spanning_tree_iter(make_cycle(3)))) == 3
    assert len(list(_spanning_tree_iter(make_cycle(4)))) == 4
    assert len(list(_spanning_tree_iter(make_path(4)))) == 1
    assert len(list(_spanning_tree_iter(make_complete(4)))) == 16
    assert list(_spanning_tree_iter(make_path(4))) == [make_path(4)]


def test_spanning_trees_match_determinant_oracle():
    rng = random.Random(4021)
    for _ in range(30):
        n = rng.randint(2, 6)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        g = build_graph(n, edges)
        if not is_connected(g):
            continue
        trees = list(_spanning_tree_iter(g))
        assert len(trees) == _kirchhoff_count(g)
        assert all(is_tree(t) for t in trees)
        assert len(set(trees)) == len(trees)


def test_first_spanning_tree():
    assert first_spanning_tree(make_cycle(4)) == build_graph(4, [(0, 1), (0, 3), (1, 2)])
    assert first_spanning_tree(SPIDER) is SPIDER
    with pytest.raises(GraphError):
        first_spanning_tree(build_graph(3, [(0, 1)]))
    # n - 1 edges but disconnected: a triangle beside an isolated vertex
    with pytest.raises(GraphError):
        first_spanning_tree(build_graph(4, [(0, 1), (1, 2), (0, 2)]))


def test_first_spanning_tree_is_the_first_enumerated():
    rng = random.Random(3000)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 8)
        density = rng.choice((0.3, 0.5, 0.8))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = build_graph(n, [p for p in pairs if rng.random() < density])
        if not is_connected(g):
            continue
        assert first_spanning_tree(g) == next(_spanning_tree_iter(g)), g
        checked += 1


def test_first_spanning_tree_clique_plus_chain():
    # K7 on 0..6 with a chain 6, 7, ..., 29: the lexicographic subset search
    # tries every cyclic 29-subset first and took 30 s already at n = 15
    core = [(a, b) for a in range(7) for b in range(a + 1, 7)]
    g = build_graph(30, core + [(v, v + 1) for v in range(6, 29)])
    started = time.perf_counter()
    tree = first_spanning_tree(g)
    assert time.perf_counter() - started < 1.0
    assert tree == build_graph(30, [(0, b) for b in range(1, 7)] + [(v, v + 1) for v in range(6, 29)])


def test_graph6_known_strings():
    triangle = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert render_graph(triangle) == "Bw"
    assert parse_graph("Bw") == triangle
    assert parse_graph("Bg") == make_path(3)
    assert parse_graph(">>graph6<<Bg") == make_path(3)
    assert parse_graph(b"Bw") == triangle
    assert render_graph(Graph(1, ())) == "@"
    assert parse_graph("@") == Graph(1, ())


def test_graph6_rejects_malformed():
    with pytest.raises(FormatError):
        parse_graph("")
    with pytest.raises(FormatError):
        parse_graph("B")
    with pytest.raises(FormatError):
        parse_graph("Bww")
    with pytest.raises(FormatError):
        parse_graph(chr(1) + "w")
    # padding bits past the triangle must be zero
    with pytest.raises(FormatError):
        parse_graph("B" + chr(63 + 1))
    with pytest.raises(FormatError):
        render_graph(make_path(3), "nonsense")
    with pytest.raises(FormatError):
        parse_graph("Bw", "nonsense")
    # bytes outside ASCII are malformed data, not a decoding crash
    with pytest.raises(FormatError, match="byte 0xc3 at offset 1"):
        parse_graph(b"C\xc3\xa9")
    with pytest.raises(FormatError, match="not ASCII"):
        parse_graph(b"n 2\n0 \xff\n", "edge-list")


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(99)
    sizes = [rng.randint(1, 12) for _ in range(40)] + list(range(13, 63))
    cases = [make_complete(62), make_complete(13), make_path(62), Graph(62, ())]
    for n in sizes:
        cases.append(build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]))
    for g in cases:
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert render_graph(g) == theirs
        assert parse_graph(theirs) == g
        back = nx.from_graph6_bytes(render_graph(g).encode())
        assert build_graph(back.number_of_nodes(), back.edges()) == g


@settings(max_examples=100)
@given(graphs(max_n=10))
def test_graph6_round_trip(g):
    assert parse_graph(render_graph(g)) == g


@settings(max_examples=100)
@given(graphs(max_n=10))
def test_edge_list_round_trip(g):
    assert parse_graph(render_graph(g, "edge-list"), "edge-list") == g


def test_edge_list_parsing():
    text = "# comment\nn 5\n0 1\n3 2  # trailing\n\n"
    assert parse_graph(text, "edge-list") == build_graph(5, [(0, 1), (2, 3)])
    # vertex count inferred from the largest endpoint
    assert parse_graph("0 1\n1 2\n", "edge-list") == make_path(3)


def test_edge_list_rejects_malformed():
    with pytest.raises(FormatError):
        parse_graph("", "edge-list")
    with pytest.raises(FormatError):
        parse_graph("0 1 2\n", "edge-list")
    with pytest.raises(FormatError):
        parse_graph("a b\n", "edge-list")
    with pytest.raises(FormatError):
        parse_graph("n 3\nn 4\n", "edge-list")
    with pytest.raises(FormatError):
        parse_graph("n x\n", "edge-list")
    # only ASCII digits are numbers: not Arabic-Indic two, not superscript two
    with pytest.raises(FormatError):
        parse_graph("n 3\n0 1\n1 \u0662\n", "edge-list")
    with pytest.raises(FormatError):
        parse_graph("n \u00b2\n", "edge-list")
    with pytest.raises(GraphError):
        parse_graph("n 2\n0 5\n", "edge-list")
