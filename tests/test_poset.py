import numpy as np
import pytest

from posetdist import (
    CapacityError,
    Poset,
    PosetError,
    is_monotone,
    make_bipartite,
    make_hypercube,
    make_line,
    make_matching,
    read_poset,
    transitive_closure,
    write_poset,
)
from posetdist.poset import closure_poset

from genutil import random_dag


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
    assert sorted(transitive_closure(G).edges()) == sorted(G.edges)


def test_make_hypercube():
    assert make_hypercube(1).edges == ((0, 1),)
    assert set(make_hypercube(2).edges) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    for d in (3, 4, 5):
        assert len(make_hypercube(d).edges) == d * 2 ** (d - 1)
    with pytest.raises(CapacityError):
        make_hypercube(64)


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
    assert sorted(tc.edges()) == [(0, 1), (0, 2), (1, 2)]
    tc = transitive_closure(make_hypercube(2))
    added = set(tc.edges()) - set(make_hypercube(2).edges)
    assert added == {(0, 3)}


def test_closure_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(20):
        G = random_dag(rng, int(rng.integers(2, 9)))
        C = closure_poset(G)
        assert closure_poset(C).edges == C.edges


def test_monotone_iff_on_closure():
    rng = np.random.default_rng(6)
    for _ in range(30):
        G = random_dag(rng, 6)
        p = rng.exponential(1, 6)
        p /= p.sum()
        assert is_monotone(G, p) == is_monotone(closure_poset(G), p)


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
    ],
)
def test_read_poset_malformed_names_file_and_line(tmp_path, text, line):
    path = write_text(tmp_path / "bad.poset", text)
    with pytest.raises(PosetError, match=f"bad.poset:{line}: "):
        read_poset(path)


def test_read_poset_malformed_without_line(tmp_path):
    for text in ("\n# only a comment\n", "3 2 line\n0 1\n", "3 -1 general\n"):
        with pytest.raises(PosetError, match="bad.poset: "):
            read_poset(write_text(tmp_path / "bad.poset", text))


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 1 general\n0 5\n", "edge (0,5) out of range for n=3"),
        ("3 1 general\n# comment\n1 1\n", "self-loop at 1"),
        ("3 1 bipartite\n0 1\nbottom: 0 1\n", "must run bottom -> top"),
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
    adj = G.adjacency()
    for src in rng.choice(n, 50, replace=False):
        seen, frontier = set(), [int(src)]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        assert [v for v in range(n) if tc.reach(int(src), v)] == sorted(seen)
