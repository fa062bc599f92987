import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetdist import (
    Distribution,
    ExactDistAccess,
    PairHistogram,
    Rng,
    SampleHistogram,
    mass_of_set,
    multinomial_histogram,
    pair_histogram,
    poissonized_histogram,
    read_distribution,
    sample,
    tv_distance,
    write_distribution,
)
from posetdist.prob import choice_cdf, choice_indices, read_histogram_csv, write_histogram_csv

from genutil import reference_choice


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Distribution(np.array([-0.1, 1.1]))
    d = Distribution(np.array([0.25, 0.75]))
    assert d.n == 2


@pytest.mark.parametrize(
    "probs",
    [[np.nan, 0.5, 0.5], [0.5, np.nan, 0.5], [np.inf, 0.5, 0.5], [-np.inf, 0.5, 0.5], [np.nan]],
)
def test_distribution_rejects_non_finite(probs):
    with pytest.raises(ValueError, match="non-finite"):
        Distribution(np.array(probs))


def test_rng_reproducible():
    a = sample(Distribution.uniform(10), 1000, Rng(42, 3))
    b = sample(Distribution.uniform(10), 1000, Rng(42, 3))
    c = sample(Distribution.uniform(10), 1000, Rng(42, 4))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    h1 = poissonized_histogram(np.full(50, 0.02), 100, Rng(7, 0))
    h2 = poissonized_histogram(np.full(50, 0.02), 100, Rng(7, 0))
    np.testing.assert_array_equal(h1.counts, h2.counts)


def test_sample_point_mass_and_empty():
    assert sample(Distribution.point_mass(5, 2), 5, Rng(0)).tolist() == [2] * 5
    assert sample(Distribution.uniform(3), 0, Rng(0)).size == 0


def test_sample_empirical_frequency():
    # Chernoff window at a fixed seed
    s = 100_000
    idx = sample(Distribution.uniform(4), s, Rng(123))
    freq = np.bincount(idx, minlength=4) / s
    np.testing.assert_allclose(freq, 0.25, atol=0.01)


def test_multinomial_histogram_matches_draw_law():
    h = multinomial_histogram(Distribution.uniform(6), 50_000, Rng(5))
    assert h.total == 50_000
    np.testing.assert_allclose(h.counts / 50_000, 1 / 6, atol=0.01)


def test_poissonized_histogram_zero_rate():
    h = poissonized_histogram(np.ones(4), 0.0, Rng(0))
    assert h.total == 0


def test_poissonized_histogram_moments():
    # point mass at element 1 with rate 10: mean of counts over 1e4 seeded trials
    rng = Rng(2024)
    w = np.zeros(3)
    w[1] = 1.0
    draws = rng.gen.poisson(10.0 * w, size=(10_000, 3))
    assert draws[:, 0].sum() == 0 and draws[:, 2].sum() == 0
    assert abs(draws[:, 1].mean() - 10.0) < 0.1
    # Poissonized total for a vector summing to c is Poisson(s*c): var/mean in [0.95, 1.05]
    w = np.array([0.3, 0.5, 0.4])
    totals = np.array(
        [poissonized_histogram(w, 25.0, Rng(9, stream)).total for stream in range(10_000)]
    )
    ratio = totals.var() / totals.mean()
    assert 0.95 <= ratio <= 1.05
    with pytest.raises(ValueError):
        poissonized_histogram(w, -1.0, Rng(0))


def test_pair_histogram_examples():
    g = pair_histogram([0.5, 0.5], [0.5, 0.5])
    assert g.items() == [((0.5, 0.5), 2.0)]
    g = pair_histogram([0.5, 0.5, 0.0], [0.0, 0.5, 0.5])
    assert g.items() == [((0.0, 0.5), 1.0), ((0.5, 0.0), 1.0), ((0.5, 0.5), 1.0)]
    assert g.total() == 3.0


def test_pair_histogram_total_counts_nonzero_pairs():
    rng = np.random.default_rng(3)
    a = rng.choice([0.0, 0.1, 0.2], 30)
    b = rng.choice([0.0, 0.1], 30)
    g = pair_histogram(a, b)
    assert g.total() == np.count_nonzero((a != 0) | (b != 0))


@given(st.permutations(list(range(6))))
@settings(max_examples=30, deadline=None)
def test_pair_histogram_permutation_invariant(perm):
    rng = np.random.default_rng(11)
    a = rng.choice([0.0, 0.25, 0.5], 6)
    b = rng.choice([0.0, 0.25], 6)
    pi = np.array(perm)
    assert pair_histogram(a, b) == pair_histogram(a[pi], b[pi])


def test_pair_histogram_quantize():
    g = pair_histogram([0.1001, 0.0999], [0.2, 0.2], quantize=0.05)
    assert g.items() == [((0.1, 0.2), 2.0)]


def test_pair_histogram_validation():
    with pytest.raises(ValueError):
        PairHistogram({(0.0, 0.0): 1.0})
    with pytest.raises(ValueError):
        PairHistogram({(0.1, 0.0): -1.0})
    for bad in ({(0.1, 0.0): float("nan")}, {(0.1, 0.0): float("inf")}, {(float("nan"), 0.2): 1.0},
                {("0.5", 0.2): 1.0, (0.5, 0.2): 2.0}):  # the last: two keys, one float key
        with pytest.raises(ValueError):
            PairHistogram(bad)
    with pytest.raises(ValueError):
        pair_histogram([0.1, float("nan")], [0.2, 0.3])
    with pytest.raises(ValueError, match="nonnegative entries"):
        pair_histogram([-0.5], [0.2])
    assert pair_histogram([-0.0], [0.2]).items() == [((-0.0, 0.2), 1.0)]
    for step in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="quantization step must be positive and finite"):
            pair_histogram([0.1], [0.2], quantize=step)


def test_tv_distance():
    p = Distribution(np.array([0.75, 0.25]))
    q = Distribution(np.array([0.5, 0.5]))
    assert tv_distance(p, q) == pytest.approx(0.25)
    assert tv_distance(p, p) == 0.0
    assert tv_distance(Distribution.point_mass(3, 0), Distribution.point_mass(3, 2)) == 1.0


def test_tv_triangle_and_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        p, q, r = (Distribution(v / v.sum()) for v in rng.exponential(1, (3, n)))
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12


def test_mass_of_set():
    p = Distribution.uniform(10)
    assert mass_of_set(p, range(10), 100, Rng(0)) == 1.0
    assert mass_of_set(p, [], 100, Rng(0)) == 0.0
    est = mass_of_set(p, [0, 1, 2], 100_000, Rng(77))
    assert 0.29 <= est <= 0.31


def test_distribution_file_roundtrip(tmp_path):
    p = Distribution(np.array([0.5, 0.3, 0.2]))
    path = tmp_path / "p.dist"
    write_distribution(p, path)
    q = read_distribution(path)
    np.testing.assert_array_equal(p.probs, q.probs)
    (tmp_path / "bad.dist").write_text("0.5\n0.6\n")
    with pytest.raises(ValueError):
        read_distribution(tmp_path / "bad.dist")


def test_read_distribution_names_file_and_line(tmp_path):
    path = tmp_path / "bad.dist"
    path.write_text("# header\n0.5\n\n0.5x\n")
    with pytest.raises(ValueError, match="bad.dist:4: not a number: '0.5x'"):
        read_distribution(path)
    path.write_text("0.5\n0.6\n")
    with pytest.raises(ValueError, match="bad.dist: distribution sums to"):
        read_distribution(path)


def test_histogram_csv_roundtrip(tmp_path):
    h = SampleHistogram(np.array([3, 0, 2]))
    path = tmp_path / "h.csv"
    write_histogram_csv(h, path)
    assert read_histogram_csv(path).counts.tolist() == [3, 0, 2]


@pytest.mark.parametrize(
    "text, message",
    [
        ("index,count\n0,3\n1\n", ":3: expected two integers 'index,count', got '1'"),
        ("index,count\n0,3,4\n", ":2: expected two integers 'index,count', got '0,3,4'"),
        ("index,count\n0,3\n\n1,x\n", ":4: expected two integers 'index,count', got '1,x'"),
        ("index,count\n0,1\n-1,5\n", ":3: negative index or count: '-1,5'"),
        ("index,count\n0,1\n1,-5\n", ":3: negative index or count: '1,-5'"),
        ("index,count\n0,1\n1,2\n0,4\n", ":4: duplicate index 0"),
        ("idx,count\n0,1\n", ":1: expected 'index,count' header"),
    ],
)
def test_read_histogram_csv_names_file_and_line(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_histogram_csv(path)
    assert str(exc.value) == f"{path}{message}"


def test_exact_access_consistency():
    p = Distribution(np.array([0.7, 0.2, 0.1]))
    acc = ExactDistAccess(p)
    h = acc.histogram(200_000, Rng(4))
    np.testing.assert_allclose(h / 200_000, p.probs, atol=0.01)
    d = acc.draw(1000, Rng(4))
    assert d.min() >= 0 and d.max() <= 2


def _assert_draws_like_choice(p, size, seed):
    ref, rng = Rng(seed), Rng(seed)
    expected = reference_choice(p, size, ref.gen)
    got = choice_indices(choice_cdf(p), size, rng)
    assert np.shape(got) == np.shape(expected)
    assert np.array_equal(got, expected)
    assert rng.gen.bit_generator.state == ref.gen.bit_generator.state


_MASSES = {
    "one": [1.0],
    "leading zero": [0.0, 1.0],
    "ties": [0.2, 0.0, 0.5, 0.0, 0.3],
    "trailing zeros": [0.5, 0.5, 0.0, 0.0],
    "counted, widest": list(np.full(64, 1 / 64)),
    "searched, narrowest": list(np.full(65, 1 / 65)),
    "searched, with zeros": list(np.where(np.arange(500) % 7 == 0, 0.0, np.linspace(1, 2, 500))),
}


@pytest.mark.parametrize("name", list(_MASSES))
@pytest.mark.parametrize("size", [None, 1, 7, 10_000])
def test_choice_indices_reproduce_choice(name, size):
    w = np.array(_MASSES[name])
    _assert_draws_like_choice(w / w.sum(), size, len(w) + (size or 0))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0) | st.just(0.0), min_size=1, max_size=80).filter(lambda w: sum(w) > 0),
    st.integers(0, 60),
    st.integers(0, 2**32),
)
def test_choice_indices_reproduce_choice_on_random_masses(w, size, seed):
    w = np.array(w)
    _assert_draws_like_choice(w / w.sum(), size, seed)


@pytest.mark.parametrize("p", [[0.5, np.nan, 0.5], [np.inf, 0.0], [-0.1, 1.1], [0.5, 0.4], [], [[0.5, 0.5]]])
def test_choice_cdf_rejects_what_choice_rejects(p):
    with pytest.raises(ValueError):
        reference_choice(p, None, np.random.default_rng(0))
    with pytest.raises(ValueError, match="probabilities must be"):
        choice_cdf(p)


@pytest.mark.parametrize("n", [10, 300])
def test_sample_reproduces_choice(n):
    p = Distribution(np.linspace(1.0, 3.0, n) / np.linspace(1.0, 3.0, n).sum())
    ref = Rng(n)
    expected = reference_choice(p.probs, 5000, ref.gen)
    rng = Rng(n)
    got = sample(p, 5000, rng)
    assert got.dtype == np.int64 and np.array_equal(got, expected)
    assert rng.gen.bit_generator.state == ref.gen.bit_generator.state
