import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetdist import (
    Distribution,
    ExactDistAccess,
    LiftedAccess,
    Reduction,
    Rng,
    SizeCapError,
    bigness_to_matching,
    bipartite_to_matching,
    dist_to_bigness,
    exact_dtv_to_monotone,
    general_to_bipartite,
    hypercube_embedding,
    hypercube_scale,
    is_monotone,
    make_bipartite,
    make_hypercube,
    make_line,
    make_matching,
    matching_to_hypercube,
    transitive_closure,
)

from genutil import (
    random_dag,
    random_distribution,
    reference_bipartite_to_matching,
    reference_lift_histogram,
)


def induced_lift_distribution(red, p: Distribution) -> np.ndarray:
    """Exact law of one lifted sample: each copy of i takes p(i)/k."""
    k = red.copies.shape[1]
    q = np.zeros(red.target.n)
    for i in range(red.source.n):
        for j in red.copies[i]:
            q[j] += p.probs[i] / k
    return q


def test_general_to_bipartite_structure():
    red = general_to_bipartite(make_line(3))
    assert red.target.kind == "bipartite"
    assert red.target.edges == ((0, 4), (0, 5), (1, 5))
    # matching source: one target edge per original pair
    M = make_matching(3)
    redm = general_to_bipartite(M)
    assert len(redm.target.edges) == 3
    assert redm.far_divisor == 4.0


def test_apply_returns_the_reductions_target_and_divisor():
    star = make_bipartite(3, [(0, 1), (0, 2)], bottom=[0])
    p = Distribution(np.array([0.5, 0.3, 0.2]))
    for red in (general_to_bipartite(star), bipartite_to_matching(star, 2)):
        inst = red.apply(p)
        assert inst.target is red.target and inst.far_divisor == red.far_divisor
        assert inst.dist.n == red.target.n


def test_lifters_match_mapped_distribution_exactly():
    rng = np.random.default_rng(12)
    for _ in range(20):
        G = random_dag(rng, int(rng.integers(2, 7)))
        p = random_distribution(rng, G.n)
        for red in (general_to_bipartite(G),):
            np.testing.assert_allclose(
                induced_lift_distribution(red, p), red.apply(p).dist.probs, atol=1e-12
            )
    star = make_bipartite(3, [(0, 1), (0, 2)], bottom=[0])
    red = bipartite_to_matching(star, 2)
    p = Distribution(np.array([0.5, 0.3, 0.2]))
    np.testing.assert_allclose(
        induced_lift_distribution(red, p), red.apply(p).dist.probs, atol=1e-12
    )


def test_lifted_access_empirically_matches():
    G = make_line(4)
    red = general_to_bipartite(G)
    p = random_distribution(np.random.default_rng(1), 4)
    acc = LiftedAccess(ExactDistAccess(p), red)
    s = 400_000
    h = acc.histogram(s, Rng(31))
    np.testing.assert_allclose(h / s, red.apply(p).dist.probs, atol=6e-3)


def test_bipartite_to_matching_structure():
    # single edge, delta=1: one copy edge, no dummies
    G1 = make_bipartite(2, [(0, 1)], bottom=[0])
    red = bipartite_to_matching(G1, 1)
    assert red.target.n == 2 and len(red.target.edges) == 1
    # star K_{1,2} with delta=2: two copy edges, two leaf copies get dummies
    star = make_bipartite(3, [(0, 1), (0, 2)], bottom=[0])
    red = bipartite_to_matching(star, 2)
    assert red.target.n == 8
    assert len(red.target.edges) == 4
    zero_mass = red.apply(Distribution(np.array([0.5, 0.3, 0.2]))).dist.probs
    assert np.count_nonzero(zero_mass == 0.0) == 2  # the dummies
    with pytest.raises(ValueError):
        bipartite_to_matching(star, 1)  # degree 2 exceeds delta
    with pytest.raises(ValueError):
        bipartite_to_matching(make_line(3), 2)


def test_monotone_sources_stay_monotone():
    rng = np.random.default_rng(13)
    for _ in range(30):
        G = random_dag(rng, 6)
        # force a monotone distribution: weights increasing along a topo order
        depth = np.zeros(6)
        tc = transitive_closure(G)
        for u in range(6):
            depth[u] = sum(tc.reach(w, u) for w in range(6))
        v = 1.0 + depth + rng.uniform(0, 0.1, 6) * 0  # depth-ranked, ties allowed
        p = Distribution(v / v.sum())
        assert is_monotone(G, p.probs)
        red = general_to_bipartite(G)
        assert is_monotone(red.target, red.apply(p).dist.probs)


def test_bigness_to_matching_examples():
    inst = bigness_to_matching(Distribution(np.array([0.5, 0.5])), 0.25)
    np.testing.assert_allclose(inst.dist.probs, [1 / 6, 1 / 6, 1 / 3, 1 / 3])
    assert inst.far_divisor == pytest.approx(2 * 1.5)  # twice the scale 1 + nT
    assert inst.target == make_matching(2)
    assert is_monotone(inst.target, inst.dist.probs)
    n = 5
    inst = bigness_to_matching(Distribution.uniform(n), 1.0 / n)
    np.testing.assert_allclose(inst.dist.probs, 1.0 / (2 * n))
    assert is_monotone(inst.target, inst.dist.probs)
    with pytest.raises(ValueError):
        bigness_to_matching(Distribution.uniform(4), 0.3)


def test_bigness_to_matching_distance_contract():
    rng = np.random.default_rng(14)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        p = random_distribution(rng, n)
        T = float(rng.uniform(0.3, 1.0)) / n
        inst = bigness_to_matching(p, T)
        src = dist_to_bigness(p, T)
        tgt = exact_dtv_to_monotone(inst.target, inst.dist)
        assert tgt >= src / inst.far_divisor - 1e-9


def test_hypercube_embedding_structure():
    emb = hypercube_embedding(4, 2)
    assert len(emb.pairs) == 3
    assert emb.pairs == ((1, 9), (2, 10), (4, 12))  # prefixes 001,010,100 + last bit
    assert len(emb.filler) == 8
    assert hypercube_scale(4, 2, 0.1) == pytest.approx(1.8)
    for d in range(1, 9):
        for ell in range(1, d + 1):
            emb = hypercube_embedding(d, ell)
            assert len(emb.pairs) == math.comb(d - 1, ell - 1)
            expected_filler = sum(math.comb(d, i) for i in range(ell, d + 1)) - math.comb(d - 1, ell - 1)
            assert len(emb.filler) == expected_filler


def test_hypercube_pairs_incomparable():
    for d in range(2, 9):
        for ell in range(1, d + 1):
            emb = hypercube_embedding(d, ell)
            for i, pa in enumerate(emb.pairs):
                for pb in emb.pairs[i + 1 :]:
                    for x in pa:
                        for y in pb:
                            assert (x | y) != x and (x | y) != y  # no subset relation


def test_matching_to_hypercube_monotone_and_distance():
    rng = np.random.default_rng(15)
    d, ell = 4, 2
    n_pairs = math.comb(d - 1, ell - 1)
    H = make_hypercube(d)
    for _ in range(30):
        p = random_distribution(rng, 2 * n_pairs)
        p_max = float(p.probs.max()) * 1.1
        inst = matching_to_hypercube(d, ell, p, p_max)
        q = inst.dist
        assert q.probs.sum() == pytest.approx(1.0)
        src = exact_dtv_to_monotone(make_matching(n_pairs), p)
        tgt = exact_dtv_to_monotone(H, q)
        scale = hypercube_scale(d, ell, p_max)
        assert inst.target == H and inst.far_divisor == scale
        assert tgt >= src / scale - 1e-9
    # monotone source embeds monotone
    lo = rng.uniform(0.05, 0.1, n_pairs)
    hi = lo + rng.uniform(0, 0.05, n_pairs)
    v = np.concatenate([lo, hi])
    p = Distribution(v / v.sum())
    q = matching_to_hypercube(d, ell, p, float(p.probs.max())).dist
    assert is_monotone(H, q.probs)
    with pytest.raises(ValueError):
        matching_to_hypercube(d, ell, p, float(p.probs.max()) / 2)  # mass above p_max


def test_hypercube_embedding_dimension_cap():
    from posetdist.poset import HYPERCUBE_MAX_DIM

    for d in (HYPERCUBE_MAX_DIM + 1, 40, 1000):
        with pytest.raises(SizeCapError, match=f"hypercube dimension {d} exceeds capacity cap"):
            hypercube_embedding(d, 2)
    with pytest.raises(SizeCapError):
        matching_to_hypercube(40, 2, Distribution.uniform(2), 0.5)
    assert len(hypercube_embedding(HYPERCUBE_MAX_DIM, 1).pairs) == 1


def _shared_lift():
    """Two copies per row, the last row sharing a target with the first."""
    copies = [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [9, 0]]
    return Reduction(make_line(6), make_line(10), far_divisor=1.0, copies=copies)


def _lift_cases():
    return [
        _shared_lift(),
        general_to_bipartite(make_line(6)),
        bipartite_to_matching(make_bipartite(6, [(0, 3), (1, 4)], bottom=[0, 1, 2]), 1),
        bipartite_to_matching(make_bipartite(6, [(0, 2), (0, 3), (1, 3), (1, 4)], bottom=[0, 1, 5]), 3),
    ]


@pytest.mark.parametrize("s", [3, 40, 100_000])
def test_lifted_histogram_matches_one_multinomial_per_row(s):
    base = ExactDistAccess(Distribution(np.array([0.3, 0.0, 0.1, 0.2, 0.25, 0.15])))
    for red in _lift_cases():
        for seed in range(10):
            ref, rng = Rng(seed), Rng(seed)
            expected = reference_lift_histogram(red, base.histogram(s, ref), ref.gen)
            got = LiftedAccess(base, red).histogram(s, rng)
            assert got.dtype == np.int64 and np.array_equal(got, expected)
            assert rng.gen.bit_generator.state == ref.gen.bit_generator.state


def test_lifted_histogram_with_one_copy_draws_nothing():
    red = bipartite_to_matching(make_bipartite(2, [(0, 1)], bottom=[0]), 1)
    base = ExactDistAccess(Distribution(np.array([0.4, 0.6])))
    ref, rng = Rng(9), Rng(9)
    src = base.histogram(1000, ref)
    np.testing.assert_array_equal(LiftedAccess(base, red).histogram(1000, rng), src)
    assert rng.gen.bit_generator.state == ref.gen.bit_generator.state


@st.composite
def bipartite_and_delta(draw):
    """A random bipartite poset (bottoms and tops interleaved in index order)
    and a delta from its max degree to two above it, at least 1."""
    n = draw(st.integers(1, 10))
    bottom = draw(st.sets(st.integers(0, n - 1)))
    pairs = [(b, t) for b in sorted(bottom) for t in range(n) if t not in bottom]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    G = make_bipartite(n, edges, bottom=sorted(bottom))
    delta = max(G.max_degree(), 1) + draw(st.integers(0, 2))
    return G, delta


@settings(max_examples=300, deadline=None)
@given(bipartite_and_delta(), st.integers(0, 2**32 - 1))
def test_bipartite_to_matching_equals_reference(case, seed):
    G, delta = case
    p = random_distribution(np.random.default_rng(seed), G.n)
    red = bipartite_to_matching(G, delta)
    target, q = reference_bipartite_to_matching(G, delta, p.probs)
    assert red.target == target and repr(red.target) == repr(target)
    assert red.apply(p).dist.probs.tobytes() == q.tobytes()
    assert red.copies.shape == (G.n, delta)


def test_reduction_rejects_non_integer_copies():
    with pytest.raises(ValueError, match="integers"):
        Reduction(make_line(2), make_line(4), 1.0, [[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(ValueError, match="integer array"):
        Reduction(make_line(2), make_line(4), 1.0, [[0, 1], [2]])


def test_reduction_rejects_wrong_row_count():
    with pytest.raises(ValueError, match="shape"):
        Reduction(make_line(3), make_line(4), 1.0, [[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="shape"):
        Reduction(make_line(2), make_line(4), 1.0, [0, 1])


def test_reduction_rejects_zero_copies():
    with pytest.raises(ValueError, match="k >= 1"):
        Reduction(make_line(2), make_line(4), 1.0, np.zeros((2, 0), dtype=np.int64))


def test_reduction_rejects_out_of_range_copies():
    for bad in ([[0, 1], [2, 4]], [[0, -1], [2, 3]]):
        with pytest.raises(ValueError, match=r"0\.\.3"):
            Reduction(make_line(2), make_line(4), 1.0, bad)


def test_reduction_copies_are_read_only_and_its_own():
    mine = np.array([[0, 1], [2, 3]])
    red = Reduction(make_line(2), make_line(4), 1.0, mine)
    mine[0, 0] = 3
    assert red.copies.dtype == np.int64 and red.copies[0, 0] == 0
    with pytest.raises(ValueError):
        red.copies[0, 0] = 1
