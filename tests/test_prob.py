import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetdist import (
    Distribution,
    ExactDistAccess,
    LiftedAccess,
    MixedWithUniform,
    PairHistogram,
    Rng,
    SampleAccess,
    general_to_bipartite,
    make_line,
    pair_histogram,
    read_distribution,
    tv_distance,
    write_distribution,
)
from posetdist import cli
from posetdist.lowerbound import _poisson_counts, build_priors, generate_instance
from posetdist.prob import choice_cdf, choice_indices

from scipy import stats

from genutil import reference_choice


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Distribution(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError, match="sums to np.float64\\(inf\\)"):  # finite entries, no overflow warning
        Distribution(np.array([1e308, 1e308]))
    d = Distribution(np.array([0.25, 0.75]))
    assert d.n == 2


@pytest.mark.parametrize(
    "probs",
    [[np.nan, 0.5, 0.5], [0.5, np.nan, 0.5], [np.inf, 0.5, 0.5], [-np.inf, 0.5, 0.5], [np.nan]],
)
def test_distribution_rejects_non_finite(probs):
    with pytest.raises(ValueError, match="non-finite"):
        Distribution(np.array(probs))


def _poissonized(rates, rng: Rng) -> np.ndarray:
    """Independent Poisson(rates[i]) counts, one atom per element."""
    return _poisson_counts(np.asarray(rates, dtype=float), np.arange(len(rates)), rng)[0]


def test_rng_reproducible():
    acc = ExactDistAccess(Distribution.uniform(10))
    a = acc.histogram(1000, Rng(42, 3))
    b = acc.histogram(1000, Rng(42, 3))
    c = acc.histogram(1000, Rng(42, 4))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    h1 = _poissonized(np.full(50, 2.0), Rng(7, 0))
    h2 = _poissonized(np.full(50, 2.0), Rng(7, 0))
    np.testing.assert_array_equal(h1, h2)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_rng_refuses_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
        Rng(seed)


def test_multinomial_histogram_matches_draw_law():
    acc = ExactDistAccess(Distribution.uniform(6))
    h = acc.histogram(50_000, Rng(5))
    assert h.dtype == np.int64 and h.sum() == 50_000
    np.testing.assert_allclose(h / 50_000, 1 / 6, atol=0.01)
    assert acc.histogram(0, Rng(5)).tolist() == [0] * 6
    with pytest.raises(ValueError, match="sample count must be nonnegative"):
        acc.histogram(-1, Rng(5))


def test_poissonized_histogram_zero_rate():
    assert _poissonized(np.zeros(4), Rng(0)).sum() == 0


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
    totals = np.array([_poissonized(25.0 * w, Rng(9, stream)).sum() for stream in range(10_000)])
    ratio = totals.var() / totals.mean()
    assert 0.95 <= ratio <= 1.05


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
    """The empirical mass of a vertex set, read off one sample histogram."""
    acc = ExactDistAccess(Distribution.uniform(10))
    assert acc.histogram(100, Rng(0)).sum() / 100 == 1.0
    assert acc.histogram(100, Rng(0))[[]].sum() / 100 == 0.0
    est = acc.histogram(100_000, Rng(77))[[0, 1, 2]].sum() / 100_000
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


def test_lb_gen_histogram_csv(tmp_path):
    """Each histogram file lb gen writes, read with numpy: an 'index,count'
    header, then row i holding element i's count from generate_instance."""
    n, s, seed = 300, 40, 5
    prefix = tmp_path / "inst"
    argv = ["lb", "gen", "--n", str(n), "--L", "4", "--nu", "0.5", "--lambda", "6", "--s", str(s),
            "--seed", str(seed), "--out-prefix", str(prefix)]
    assert cli.main(argv) == 0
    inst = generate_instance(build_priors(0.5, 6.0, 4), n, s, Rng(seed))
    for side, want in (("big", inst.hist_big), ("far", inst.hist_far)):
        path = f"{prefix}.{side}.hist.csv"
        with open(path, encoding="utf-8") as fh:
            assert fh.readline() == "index,count\n"
        table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64)
        assert table.shape == (n, 2) and want.sum() > 0
        np.testing.assert_array_equal(table[:, 0], np.arange(n))
        np.testing.assert_array_equal(table[:, 1], want)


def test_exact_access_consistency():
    p = Distribution(np.array([0.7, 0.2, 0.1]))
    acc = ExactDistAccess(p)
    h = acc.histogram(200_000, Rng(4))
    np.testing.assert_allclose(h / 200_000, p.probs, atol=0.01)


class _HistogramOnly(SampleAccess):
    """A user subclass that implements histogram alone: uniform draws,
    counted one by one."""

    def __init__(self, n):
        self.n = n

    def histogram(self, s, rng):
        return np.bincount(rng.gen.integers(self.n, size=s), minlength=self.n).astype(np.int64)


def test_count_in_defaults_to_the_histogram_sum():
    acc = _HistogramOnly(7)
    mask = np.array([True, False, True, True, False, False, True])
    for seed in range(20):
        ref, rng = Rng(seed), Rng(seed)
        want = int(acc.histogram(300, ref)[mask].sum())
        got = acc.count_in(mask, 300, rng)
        assert type(got) is int and got == want
        assert rng.gen.bit_generator.state == ref.gen.bit_generator.state


def _binomial_chi2_pvalue(counts, s, q):
    """Chi-square p-value of counts against Binomial(s, q), the tail cells
    merged until every expected count is at least 5."""
    expected = stats.binom.pmf(np.arange(s + 1), s, q) * counts.size
    observed = np.bincount(counts, minlength=s + 1).astype(float)
    e_cells, o_cells, e_run, o_run = [], [], 0.0, 0.0
    for e, o in zip(expected, observed):
        e_run, o_run = e_run + e, o_run + o
        if e_run >= 5:
            e_cells.append(e_run)
            o_cells.append(o_run)
            e_run = o_run = 0.0
    e_cells[-1] += e_run
    o_cells[-1] += o_run
    return stats.chisquare(o_cells, e_cells).pvalue


# a total 5e-10 above 1 (within SUM_TOL), so a full mask's mass rounds
# above 1 and count_in must clip it
_LAW_P = np.array([0.3, 0.05, 0.2, 0.1, 0.05, 0.02, 0.1, 0.03, 0.1, 0.05 + 5e-10])
_LAW_MASKS = {
    "empty": np.zeros(10, dtype=bool),
    "full": np.ones(10, dtype=bool),
    "one": np.arange(10) == 2,
    "half": np.arange(10) % 2 == 0,
}


@pytest.mark.parametrize("mixed", [False, True], ids=["exact", "mixed"])
@pytest.mark.parametrize("name", list(_LAW_MASKS))
def test_count_in_draws_the_binomial_side_count(mixed, name):
    """3000 seeded counts of s = 40 draws in the mask, against
    Binomial(s, q(mask)); q is p/2 + u/2 for the mixed access."""
    mask = _LAW_MASKS[name]
    acc = ExactDistAccess(Distribution(_LAW_P))
    q = min(1.0, float(_LAW_P[mask].sum()))
    if mixed:
        acc = MixedWithUniform(acc)
        q = q / 2 + mask.sum() / 20
    rng = Rng(77)
    counts = np.array([acc.count_in(mask, 40, rng) for _ in range(3000)])
    if name == "empty":
        assert not counts.any()
    elif name == "full":
        assert (counts == 40).all()
    else:
        assert _binomial_chi2_pvalue(counts, 40, q) > 1e-3
    assert acc.count_in(mask, 0, rng) == 0


@pytest.mark.parametrize("probs,numpy_takes", [
    ([1 + 5e-10, 0.0], False),  # an entry above 1
    ([0.3, 0.7000000005, 0.0], False),  # all but the last entry sum above 1 + 1e-12
    ([0.5, 0.5000000005], True),  # the same total, all but the last entry at 0.5
], ids=["entry above 1", "head above 1", "taken"])
def test_exact_access_draws_any_total_the_distribution_accepts(probs, numpy_takes):
    """Distribution accepts a total within SUM_TOL of 1, which numpy's
    multinomial may refuse; only then does the histogram draw from the
    normalized vector. A vector numpy takes keeps its own draws."""
    p = Distribution(np.array(probs))
    ref, rng = Rng(4), Rng(4)
    law = p.probs if numpy_takes else p.probs / p.probs.sum()
    expected = ref.gen.multinomial(1000, law)
    np.testing.assert_array_equal(ExactDistAccess(p).histogram(1000, rng), expected)
    assert rng.gen.bit_generator.state == ref.gen.bit_generator.state


def test_sample_counts_and_masks_are_checked():
    p = Distribution.uniform(4)
    accesses = [
        _HistogramOnly(4),
        ExactDistAccess(p),
        MixedWithUniform(ExactDistAccess(p)),
        LiftedAccess(ExactDistAccess(Distribution.uniform(2)), general_to_bipartite(make_line(2))),
    ]
    mask = np.array([True, False, False, True])
    for acc in accesses:
        with pytest.raises(ValueError, match="sample count must be nonnegative"):
            acc.count_in(mask, -1, Rng(0))
        for bad in (np.array([0, 3]), np.ones(4, dtype=int), mask[:3], np.ones((4, 1), dtype=bool), [1, 0, 0, 1]):
            with pytest.raises(ValueError, match="count_in needs a boolean mask of length n=4"):
                acc.count_in(bad, 5, Rng(0))
        assert acc.count_in(list(mask), 5, Rng(0)) <= 5
    for acc in accesses[1:]:
        with pytest.raises(ValueError, match="sample count must be nonnegative"):
            acc.histogram(-1, Rng(0))


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
