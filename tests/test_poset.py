import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import posetdist.poset as poset_module
from posetdist import (
    Poset,
    PosetError,
    SizeCapError,
    is_monotone,
    make_bipartite,
    make_hypercube,
    make_line,
    make_matching,
    read_poset,
    transitive_closure,
    write_poset,
)
from posetdist.poset import KINDS

from genutil import (
    random_bipartite,
    random_dag,
    reference_closure_edges,
    reference_hypercube_edges,
    reference_poset_check,
)


def test_make_line():
    assert make_line(1).edges == ()
    assert make_line(3).edges == ((0, 1), (1, 2))
    G = make_line(5)
    assert len(G.edges) == 4
    assert G.max_degree() == 2
    with pytest.raises(PosetError):
        make_line(0)


def test_make_matching():
    G = make_matching(1)
    assert G.edges == ((0, 1),)
    G = make_matching(3)
    assert len(G.edges) == 3
    endpoints = [w for e in G.edges for w in e]
    assert len(set(endpoints)) == 6
    # closure adds nothing: there are no 2-paths
    assert np.array_equal(transitive_closure(G).edge_array(), G.edge_array)


def test_make_hypercube():
    assert make_hypercube(1).edges == ((0, 1),)
    assert set(make_hypercube(2).edges) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    for d in (3, 4, 5):
        assert len(make_hypercube(d).edges) == d * 2 ** (d - 1)
    with pytest.raises(SizeCapError):
        make_hypercube(64)


def test_make_hypercube_matches_the_double_loop():
    for d in range(1, 13):
        assert make_hypercube(d).edges == tuple(reference_hypercube_edges(d)), d


def test_matching_construction_keeps_no_edge_tuple():
    """A 10^5-pair matching holds its edges once, as the (m, 2) int64 array
    (1.6 MB), and its bottom set as a view of the edge tails: a tuple of
    Python-int pairs beside them held 12 MB more, a tuple of Python-int
    bottoms 3.8 MB more."""
    make_matching(10)
    tracemalloc.start()
    try:
        G = make_matching(10**5)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.edge_array.nbytes == 1_600_000
    assert np.shares_memory(G.bottom_array, G.edge_array)
    assert held < 2.5 * 2**20, held
    assert G.bottom == tuple(range(10**5)) and G.top == tuple(range(10**5, 2 * 10**5))


def test_bottom_array_is_the_sorted_bottom_read_only():
    for G in _one_poset_per_kind():
        b = G.bottom_array
        assert b.dtype == np.int64 and b.ndim == 1 and not b.flags.writeable
        assert G.bottom == tuple(b.tolist()) and list(G.bottom) == sorted(set(G.bottom))
        if G.kind == "matching":
            assert G.bottom == tuple(sorted(u for u, _ in G.edges))
        elif G.kind == "bipartite":
            assert set(G.top) == set(range(G.n)) - set(G.bottom)
        else:
            assert G.bottom == G.top == ()


def test_acyclicity_and_validation():
    with pytest.raises(PosetError):
        Poset(2, ((0, 1), (1, 0)))
    with pytest.raises(PosetError):
        Poset(3, ((0, 1), (1, 2), (2, 0)))
    with pytest.raises(PosetError):
        Poset(2, ((0, 0),))
    with pytest.raises(PosetError):
        Poset(2, ((0, 5),))
    with pytest.raises(PosetError):
        make_bipartite(3, [(1, 0)], bottom=[0])  # edge runs top -> bottom
    with pytest.raises(PosetError):
        Poset(4, ((0, 1), (1, 2)), kind="matching")  # shares vertex 1


def test_transitive_closure_examples():
    tc = transitive_closure(make_line(3))
    assert tc.edge_array().tolist() == [[0, 1], [0, 2], [1, 2]]
    tc = transitive_closure(make_hypercube(2))
    added = set(map(tuple, tc.edge_array().tolist())) - set(make_hypercube(2).edges)
    assert added == {(0, 3)}


@pytest.mark.parametrize("G", [
    Poset(0, ()), Poset(1, ()), Poset(9, ((0, 8), (8, 3)), kind="general"),
    make_line(1), make_line(17), make_matching(5), make_hypercube(1), make_hypercube(6),
    make_bipartite(12, [(0, 7), (1, 7), (2, 11), (3, 8)], bottom=range(6)),
], ids=lambda G: f"{G.kind}-{G.n}")
def test_closure_edges_match_the_bit_walk(G):
    tc = transitive_closure(G)
    got = tc.edge_array()
    assert got.dtype == np.int64 and got.shape == (got.size // 2, 2)
    assert list(map(tuple, got.tolist())) == reference_closure_edges(tc)


def test_closure_edges_match_the_bit_walk_on_random_posets():
    rng = np.random.default_rng(24)
    for _ in range(40):
        for G in (random_dag(rng, int(rng.integers(1, 40)), float(rng.uniform(0.05, 0.5))),
                  random_bipartite(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))):
            tc = transitive_closure(G)
            assert list(map(tuple, tc.edge_array().tolist())) == reference_closure_edges(tc)


def _closure_poset(G: Poset) -> Poset:
    """The closure relation itself as a general-kind poset."""
    return Poset(G.n, transitive_closure(G).edge_array())


def test_closure_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(20):
        G = random_dag(rng, int(rng.integers(2, 9)))
        C = _closure_poset(G)
        assert _closure_poset(C).edges == C.edges


def test_monotone_iff_on_closure():
    rng = np.random.default_rng(6)
    for _ in range(30):
        G = random_dag(rng, 6)
        p = rng.exponential(1, 6)
        p /= p.sum()
        assert is_monotone(G, p) == is_monotone(_closure_poset(G), p)


def test_is_monotone_examples():
    assert is_monotone(make_line(4), [0.25] * 4)
    assert is_monotone(make_line(3), [0.2, 0.3, 0.5])
    assert not is_monotone(make_matching(1), [0.75, 0.25])
    with pytest.raises(ValueError):
        is_monotone(make_line(3), [0.5, 0.5])


def test_poset_file_roundtrip(tmp_path):
    for G in (
        make_line(4),
        make_matching(3),
        make_hypercube(3),
        make_bipartite(5, [(0, 2), (1, 3), (0, 4)], bottom=[0, 1]),
        random_dag(np.random.default_rng(9), 7),
    ):
        path = tmp_path / f"{G.kind}.poset"
        write_poset(G, path)
        H = read_poset(path)
        assert H.n == G.n and H.edges == G.edges and H.kind == G.kind
        assert H.bottom == G.bottom and H.top == G.top
    with pytest.raises(PosetError):
        read_poset(write_text(tmp_path / "bad.poset", "3 1 nosuchkind\n0 1\n"))


def write_text(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "text, line",
    [
        ("3 x line\n0 1\n1 2\n", 1),  # non-integer header token
        ("3 2 line 7\n0 1\n1 2\n", 1),  # long header
        ("# comment\n\n3 2 line\n0\n1 2\n", 4),  # short edge line
        ("3 2 line\n0 1\n\n1 2 2\n", 4),  # long edge line
        ("3 2 line\n0 1\n# comment\n1 two\n", 4),  # non-integer edge token
        ("3 1 bipartite\n0 2\nbottom: 0 b\n", 3),  # non-integer bottom token
        ("3 1 general\n0 2\n\n1 2\n", 4),  # trailing line that is not a bottom line
        ("3 1 nosuchkind\n0 1\n", 1),  # unknown kind
        ("3 -1 general\n", 1),  # negative edge count
        ("4 -1 general\n0 1\n", 1),  # negative edge count, then a line that would be trailing
    ],
)
def test_read_poset_malformed_names_file_and_line(tmp_path, text, line):
    path = write_text(tmp_path / "bad.poset", text)
    with pytest.raises(PosetError, match=f"bad.poset:{line}: "):
        read_poset(path)


def test_read_poset_malformed_without_line(tmp_path):
    for text in ("\n# only a comment\n", "3 2 line\n0 1\n"):
        with pytest.raises(PosetError, match="bad.poset: "):
            read_poset(write_text(tmp_path / "bad.poset", text))


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 1 general\n0 5\n", "edge (0,5) out of range for n=3"),
        ("3 1 general\n# comment\n1 1\n", "self-loop at 1"),
        ("3 1 bipartite\n0 1\nbottom: 0 1\n", "must run bottom -> top"),
        ("3 1 general\n0 99999999999999999999\n", "edges must be (u, v) pairs of integers"),  # beyond int64
    ],
)
def test_read_poset_structural_fault_names_file(tmp_path, text, message):
    path = write_text(tmp_path / "bad.poset", text)
    with pytest.raises(PosetError) as exc:
        read_poset(path)
    assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)


def test_complement_top_set():
    G = make_bipartite(6, [(0, 3)], bottom=[4, 0, 2, 0])
    assert G.bottom == (0, 2, 4) and G.top == (1, 3, 5)


def test_closure_on_4200_vertices_matches_bfs():
    rng = np.random.default_rng(11)
    n = 4200
    perm = rng.permutation(n)  # labels out of topological order
    lo = rng.integers(0, n - 1, 3 * n)
    hi = lo + 1 + (rng.random(3 * n) * (n - 1 - lo)).astype(int)
    G = Poset(n, tuple({(int(perm[u]), int(perm[v])) for u, v in zip(lo, hi)}), kind="general")
    tc = transitive_closure(G)
    for src in rng.choice(n, 50, replace=False):
        assert [v for v in range(n) if tc.reach(int(src), v)] == _bfs_reach(G, int(src))


def _bfs_reach(G: Poset, src: int) -> list[int]:
    """The vertices reachable from src by a nonempty path, by breadth-first search."""
    adj = G.adjacency()
    seen, frontier = set(), [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


def _one_poset_per_kind() -> list[Poset]:
    return [
        random_dag(np.random.default_rng(17), 12),
        make_line(7),
        Poset(6, ((5, 0), (3, 1), (4, 2)), kind="matching"),  # heads below tails
        make_bipartite(7, [(6, 0), (6, 1), (4, 1), (5, 2), (3, 2)], bottom=[3, 4, 5, 6]),
        make_hypercube(4),
    ]


def test_closure_of_every_kind_matches_bfs():
    for G in _one_poset_per_kind():
        pairs = transitive_closure(G).edge_array()
        for src in range(G.n):
            assert pairs[pairs[:, 0] == src, 1].tolist() == _bfs_reach(G, src), (G.kind, src)


def test_adjacency_matches_an_edge_loop():
    for G in _one_poset_per_kind():
        want = [[] for _ in range(G.n)]
        for u, v in G.edges:
            want[u].append(v)
        assert G.adjacency() == want, G.kind
    assert Poset(3, ()).adjacency() == [[], [], []]


def test_closure_sorts_only_general_posets(monkeypatch):
    posets = _one_poset_per_kind()
    calls = []
    real = poset_module._check_acyclic
    monkeypatch.setattr(poset_module, "_check_acyclic", lambda e: calls.append(len(e)) or real(e))
    for G in posets:
        transitive_closure(G)
    assert calls == [len(posets[0].edges)]


@st.composite
def poset_inputs(draw):
    """(n, edges, kind, bottom): a kind's canonical edges with some dropped
    and random pairs added, and a bottom set that is often the canonical one."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.sampled_from([0, 1, 2, 4, 8])) if kind == "hypercube" else draw(st.integers(0, 8))
    half = n // 2
    if kind == "line":
        base = [(i, i + 1) for i in range(n - 1)]
    elif kind in ("matching", "bipartite"):
        base = [(i, half + i) for i in range(half)]
    elif kind == "hypercube":
        base = [(u, u | 1 << j) for u in range(n) for j in range(max(n.bit_length() - 1, 0)) if not u >> j & 1]
    else:
        base = [(i, j) for i in range(n) for j in range(i + 1, n)]
    drop = draw(st.sets(st.integers(0, max(len(base) - 1, 0)), max_size=2))
    vertex = st.integers(-1, n)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    edges = [e for k, e in enumerate(base) if k not in drop] + extra
    edges = draw(st.permutations(edges))
    bottom = draw(st.one_of(st.just(()), st.just(tuple(range(half))), st.lists(vertex, max_size=4).map(tuple)))
    return n, edges, kind, bottom


def _newly_rejected(n, edges, kind, bottom) -> bool:
    """Inputs the loop-based checks accepted and the array checks refuse."""
    if any(not 0 <= b < n for b in bottom):
        return True
    if bottom and kind not in ("bipartite", "matching"):
        return True
    if kind == "matching" and bottom and set(bottom) != {u for u, _ in edges}:
        return True
    d = n.bit_length() - 1
    return kind == "hypercube" and len(set(edges)) != max(d, 0) << max(d - 1, 0)


def _reference(n, edges, kind, bottom):
    """The loop-based checks given the top set and dimension that read_poset
    derived for them: a bipartite or bottom-carrying matching file's top set
    is the complement of its bottom set, a hypercube's dimension is log2(n).
    Poset stores either kind's bottom set sorted (a matching's as its sorted
    edge tails), so the reference sorts the one it is given."""
    top, dim = (), 0
    if kind == "bipartite" or kind == "matching" and bottom:
        top = tuple(i for i in range(n) if i not in set(bottom))
    if kind in ("bipartite", "matching"):
        bottom = tuple(sorted(set(bottom)))
    if kind == "hypercube":
        dim = n.bit_length() - 1
    return reference_poset_check(n, edges, kind, bottom, top, dim)


@given(poset_inputs())
@example((6, [(0, 3), (2, 5)], "matching", (2, 0)))  # a matching's bottom given unsorted
@settings(max_examples=600, deadline=None)
def test_array_checks_match_loop_reference(case):
    n, edges, kind, bottom = case
    try:
        want = _reference(n, edges, kind, bottom)
    except PosetError as exc:
        want = exc
    try:
        G = Poset(n, tuple(edges), kind=kind, bottom=bottom)
    except PosetError as exc:
        got = exc
    else:
        got = (G.edges, G.bottom, G.top)
    if _newly_rejected(n, edges, kind, bottom):
        assert isinstance(got, PosetError)
    elif isinstance(want, PosetError):
        assert isinstance(got, PosetError)
        # a cyclic edge set fails every kind check but general's, which is
        # all that runs for the other kinds
        if not (str(want) == "edge relation contains a cycle" and kind != "general"):
            assert str(got) == str(want)
    else:
        assert got[:2] == want[:2]
        if not (kind == "matching" and bottom):  # top is now the heads, not the complement
            assert got[2] == want[2]
        assert G.edge_array.tolist() == [list(e) for e in want[0]]


def test_derived_top_and_dim():
    M = Poset(6, ((2, 5), (0, 3)), kind="matching")
    assert M.bottom == (0, 2) and M.top == (3, 5) and M.dim == 0
    assert make_matching(3).top == (3, 4, 5)
    B = make_bipartite(5, [(0, 2), (1, 3)], bottom=[1, 0])
    assert B.bottom == (0, 1) and B.top == (2, 3, 4)
    assert make_hypercube(4).dim == 4 and make_hypercube(4).top == ()
    assert make_line(3).top == () and make_line(3).bottom == () and make_line(3).dim == 0
    for kw in ({"top": (1,)}, {"dim": 1}):
        with pytest.raises(TypeError):
            Poset(2, ((0, 1),), kind="line", **kw)


def test_edge_array_is_the_sorted_edges_read_only():
    G = Poset(4, [(2, 3), (0, 1), (0, 2)])
    assert G.edges == ((0, 1), (0, 2), (2, 3))
    assert all(type(w) is int for e in G.edges for w in e)
    assert G.edge_array.dtype == np.int64 and G.edge_array.tolist() == [[0, 1], [0, 2], [2, 3]]
    with pytest.raises(ValueError):
        G.edge_array[0, 0] = 3
    assert G == Poset(4, np.array([[0, 2], [2, 3], [0, 1]])) and hash(G) == hash(Poset(4, G.edges))
    assert Poset(0, ()).edge_array.shape == (0, 2)
    M = Poset(4, G.edges[:2], kind="bipartite", bottom=(0,))
    assert M != Poset(4, G.edges[:2]) and M != Poset(4, G.edges[:2], kind="bipartite", bottom=(0, 3))
    assert M != Poset(5, G.edges[:2], kind="bipartite", bottom=(0,)) and G != Poset(4, G.edges[:2])
    assert len({G, Poset(4, list(G.edges)), M}) == 2


def _built(n, rows):
    try:
        return Poset(n, rows).edge_array.tobytes()
    except PosetError as exc:
        return str(exc)


@pytest.mark.parametrize("rows", [
    [(2, 3), (0, 1), (1, 2)],
    [(1, 2), (0, 1), (1, 2)],  # a duplicate
    [(3, 9), (0, 1), (2, 7)],  # out of range
    [(4, 4), (1, 1), (0, 1), (0, 1), (3, 9), (0, 8)],  # faults of each kind: the first in (u, v) order counts
])
@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64])
def test_rows_in_any_order_give_what_sorted_rows_give(rows, dtype):
    """Rows that already increase skip the sort; any order gives the same
    edge_array or the same first fault, and the caller's array is left as
    it was, writable."""
    ordered = np.array(sorted(rows), dtype=dtype)
    want = _built(8, ordered)
    assert _built(8, np.array(rows, dtype=dtype)) == want == _built(8, sorted(rows))
    if isinstance(want, bytes):
        G = Poset(8, ordered)
        ordered[0, 0] = 5
        assert ordered.flags.writeable and G.edge_array[0, 0] == sorted(rows)[0][0]


def test_only_general_posets_run_the_topological_sort(monkeypatch):
    calls = []
    real = poset_module._check_acyclic
    monkeypatch.setattr(poset_module, "_check_acyclic", lambda e: calls.append(len(e)) or real(e))
    for G in (make_line(5), make_matching(3), make_hypercube(3), make_bipartite(4, [(0, 2)], bottom=[0])):
        assert calls == [], G.kind
    Poset(3, ((0, 1), (1, 2)))
    assert calls == [2]


@pytest.mark.parametrize(
    "edges", [((0.7, 1.9),), (("0", "1"),), ((0, 1.0),), ((0, 1), (1,)), ((0, 1, 2),), ((True, False),)]
)
def test_non_integer_edges_are_rejected(edges):
    with pytest.raises(PosetError, match="edges must be"):
        Poset(3, edges)


def test_non_integer_vertex_count_is_rejected():
    with pytest.raises(PosetError, match="vertex count must be an integer"):
        Poset(3.0, ((0, 1),))


def test_bottom_out_of_range_is_rejected():
    with pytest.raises(PosetError, match="bottom vertex -1 out of range for n=3"):
        make_bipartite(3, [], bottom=[5, -1])
    with pytest.raises(PosetError, match="bottom vertex 3 out of range"):
        Poset(3, ((0, 1),), kind="bipartite", bottom=(0, 3))
    with pytest.raises(PosetError, match="bottom must be"):
        make_bipartite(3, [(0, 1)], bottom=[0.5])


def test_hypercube_needs_every_edge(tmp_path):
    with pytest.raises(PosetError, match="requires all 12 edges, got 0"):
        Poset(8, (), kind="hypercube")
    with pytest.raises(PosetError, match="requires all 12 edges, got 11"):
        Poset(8, make_hypercube(3).edges[1:], kind="hypercube")
    with pytest.raises(PosetError, match="bad.poset: hypercube kind requires all 12 edges"):
        read_poset(write_text(tmp_path / "bad.poset", "8 0 hypercube\n"))


@pytest.mark.parametrize("kind, edges", [("line", ((0, 1), (1, 2))), ("general", ((0, 2),)),
                                         ("hypercube", ((0, 1),))])
def test_bottom_is_rejected_where_the_file_cannot_keep_it(tmp_path, kind, edges):
    n = 2 if kind == "hypercube" else 3
    with pytest.raises(PosetError, match=f"a {kind} poset takes no bottom set"):
        Poset(n, edges, kind=kind, bottom=(0,))
    text = f"{n} {len(edges)} {kind}\n" + "".join(f"{u} {v}\n" for u, v in edges) + "bottom: 0\n"
    with pytest.raises(PosetError, match=f"bad.poset: a {kind} poset takes no bottom set"):
        read_poset(write_text(tmp_path / "bad.poset", text))


def test_matching_bottom_must_be_the_edge_tails(tmp_path):
    with pytest.raises(PosetError, match="bad.poset: a matching's bottom set must be its edge tails"):
        read_poset(write_text(tmp_path / "bad.poset", "4 2 matching\n0 2\n1 3\nbottom: 2 3\n"))
    with pytest.raises(PosetError, match="edge tails"):
        Poset(4, ((0, 2), (1, 3)), kind="matching", bottom=(0,))
    G = read_poset(write_text(tmp_path / "ok.poset", "4 2 matching\n0 2\n1 3\nbottom: 1 0\n"))
    assert G == make_matching(2) and G.bottom == (0, 1) and G.top == (2, 3)
