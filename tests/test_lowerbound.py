import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from posetdist import (
    Distribution,
    MomentPriors,
    ParameterError,
    PriorsError,
    Rng,
    assign_parameters,
    build_priors,
    dist_to_bigness,
    generate_instance,
    indistinguishability_probe,
    moment_gap_value,
    priors_from_gap_solution,
    solve_moment_gap,
)
from posetdist.lowerbound import MOMENT_REL_TOL, POISSON_LAM_MAX, fingerprint_stats
from posetdist.prob import choice_indices

from genutil import BENCH_PRIORS, chebyshev_grid, grid_moment_gap, reference_choice, reference_instance_counts


def test_gap_closed_form_values():
    assert moment_gap_value(0.5, 6.0, 2) == pytest.approx(1 / 6)
    assert moment_gap_value(0.5, 6.0, 4) == pytest.approx(1 / 54)
    with pytest.raises(ValueError):
        moment_gap_value(0.5, 1.2, 3)


def test_gap_decreasing_in_L():
    vals = [moment_gap_value(0.5, 6.0, L) for L in range(2, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_solve_gap_matches_closed_form():
    """The alternation points give the closed-form value; the Chebyshev-grid
    LP (HiGHS, tests/genutil.py) agrees with it within grid error."""
    for lam, L in ((4.0, 3), (6.0, 4), (9.0, 5), (12.0, 5)):
        v, _, _ = solve_moment_gap(0.5, lam, L)
        closed = moment_gap_value(0.5, lam, L)
        assert v == pytest.approx(closed, rel=MOMENT_REL_TOL)
        assert grid_moment_gap(0.5, lam, L) == pytest.approx(closed, abs=1e-3)


def test_solve_gap_moments_match():
    v, (ax, mx), (ax2, mx2) = solve_moment_gap(0.5, 6.0, 4)
    assert v >= 0.0
    assert mx.sum() == pytest.approx(1.0, abs=1e-9)
    assert mx2.sum() == pytest.approx(1.0, abs=1e-9)
    for j in range(1, 4):
        a = float(ax**j @ mx)
        b = float(ax2**j @ mx2)
        assert abs(a - b) / max(1.0, a) < 1e-6
    lo, hi = 1.5 - 1e-12, 6.0 + 1e-12
    assert np.all((ax >= lo) & (ax <= hi)) and np.all((ax2 >= lo) & (ax2 <= hi))


def test_chebyshev_grid_endpoints():
    g = chebyshev_grid(0.5, 6.0, 100)
    assert g[0] == pytest.approx(1.5) and g[-1] == pytest.approx(6.0)
    assert np.all(np.diff(g) > 0)


def test_priors_degenerate_equal_measures():
    atoms = np.array([2.0, 4.0])
    mass = np.array([0.5, 0.5])
    priors = priors_from_gap_solution(0.5, 6.0, 4, atoms, mass, atoms, mass)
    assert priors.gap == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(priors.atoms_big, priors.atoms_far)
    np.testing.assert_allclose(priors.mass_big, priors.mass_far)


@pytest.mark.parametrize("lam", [6.0, 12.0])
def test_build_priors_sweep_until_refused(lam):
    """Every L that double precision resolves validates and reproduces the
    closed-form gap to MOMENT_REL_TOL; the first L past it is refused with
    ParameterError, never an LpError or PriorsError, and so are larger ones."""
    L = 2
    while True:
        try:
            priors = build_priors(0.5, lam, L)
        except ParameterError as exc:
            assert "beyond double precision" in str(exc)
            break
        priors.validate()
        closed = moment_gap_value(0.5, lam, L)
        assert abs(priors.gap - closed) <= MOMENT_REL_TOL * closed, L
        L += 1
    assert L == {6.0: 15, 12.0: 21}[lam]
    for far in (L + 1, 40, 10**9):
        with pytest.raises(ParameterError, match="beyond double precision"):
            build_priors(0.5, lam, far)


def test_validate_compares_moments_past_the_double_range():
    """At lambda = 10^4 the atoms reach about 3600, so their 100th power
    overflows; the moments are compared on the atoms scaled by their maximum,
    without an overflow warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_priors(0.5, 1e4, 100).validate()


def test_validate_reports_a_perturbed_far_atom_past_the_double_range():
    """Moment 100 of these atoms overflows unscaled, where inf - inf let any
    mismatch pass."""
    priors = build_priors(0.5, 1e4, 100)
    atoms = priors.atoms_far.copy()
    atoms[np.argmax(atoms)] *= 1 + 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PriorsError) as exc:
            dataclasses.replace(priors, atoms_far=atoms).validate()
    assert "mean" not in str(exc.value)
    assert "moment 100 of the atoms" in str(exc.value)


def test_moment_gap_memory_is_linear_in_L():
    """The log-weights are summed a block of rows at a time: at L = 3200 the
    dense (L+1) x (L+1) difference matrix and its logs took 156.5 MiB."""
    solve_moment_gap(0.5, 1e6, 4)
    tracemalloc.start()
    try:
        solve_moment_gap(0.5, 1e6, 3200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 156.5 / 4 * 2**20, peak


def test_build_priors_invariants():
    priors = build_priors(0.5, 6.0, 4)
    priors.validate()
    assert priors.gap == pytest.approx(1 / 54, abs=2e-3)
    assert 1.5 - 1e-9 <= priors.beta <= min(6.0, 1.0 / priors.gap) + 1e-9
    assert priors.zero_mass() == pytest.approx(priors.beta * priors.gap)
    # far prior carries real mass at zero
    assert priors.zero_mass() > 0.01


def test_assign_parameters_worked_example():
    eps = math.exp(-8.0 / 3.0) / 27.0
    params = assign_parameters(10_000, eps, 4)
    assert params.nu == 0.5
    assert params.lam == pytest.approx(6.0)
    assert params.rho == pytest.approx(2.0)
    assert params.gap == pytest.approx(1 / 54)
    assert params.gap >= 2 * eps
    assert params.s == math.floor(4 * 10_000 / (2 * math.e * params.lam))


def test_assign_parameters_guards():
    with pytest.raises(ParameterError):
        assign_parameters(1000, 1e-5, 4)  # eps too small: rho < 1.5
    with pytest.raises(ParameterError):
        assign_parameters(1000, 0.2, 4)  # eps above the formula's 1/27 cap
    with pytest.raises(ParameterError):
        assign_parameters(1000, 0.002, 2)  # L=2 makes t <= 1


def test_generate_instance_point_mass_prior():
    priors = MomentPriors(
        atoms_big=np.array([1.0]),
        mass_big=np.array([1.0]),
        atoms_far=np.array([1.0]),
        mass_far=np.array([1.0]),
        beta=1.5,
        nu=0.5,
        lam=6.0,
        L=2,
        gap=0.0,
    )
    inst = generate_instance(priors, 100, 500, Rng(3))
    np.testing.assert_allclose(inst.raw_big, 1 / 100)
    assert inst.zero_count == 0
    assert inst.event_big == (inst.hist_big.sum() > 500 * 0.25)
    assert isinstance(inst.norm_big, Distribution)


def test_generate_instance_event_statistics():
    priors = build_priors(0.5, 6.0, 4)
    n, s = 2000, 245  # floor(L*n/(2*e*lam)) for these parameters
    hits_big = hits_far = 0
    trials = 200
    for t in range(trials):
        inst = generate_instance(priors, n, s, Rng(17).derive(t))
        hits_big += inst.event_big
        hits_far += inst.event_far
        if inst.event_big:
            assert inst.norm_big.probs.min() >= 1.0 / (priors.beta * n) - 1e-12
            assert inst.p_max <= priors.lam / (n * (1 - priors.nu)) + 1e-12
        if inst.event_far:
            d = dist_to_bigness(inst.norm_far, 1.0 / (priors.beta * n))
            assert d >= priors.gap / 2.0 - 1e-12
    assert hits_big / trials >= 0.95
    assert hits_far / trials >= 0.90


def test_fingerprint_stats():
    assert fingerprint_stats(np.array([0, 1, 1, 2, 5])) == (1, 2, 1, 9)


def test_probe_endpoints():
    priors = build_priors(0.5, 6.0, 4)
    n = 400
    s_star = math.floor(4 * n / (2 * math.e * 6.0))
    rows = indistinguishability_probe(priors, n, [0, 50 * int(priors.beta * n * 6)], 60, Rng(23))
    assert rows[0].s == 0
    assert rows[0].advantage == pytest.approx(0.0, abs=1e-12)
    assert rows[1].advantage > 0.9  # huge budget separates zeros from support
    assert 0 <= rows[1].best_stat <= 3
    assert rows[0].kept_big == 60 and rows[0].kept_far == 60


_TOO_LARGE = "is too large: s\\*max\\(atoms\\) must be at most 9.2233720064847708e\\+18"


@pytest.mark.parametrize("n,s,message", [
    (0, 10, "n must be at least 1"), (-3, 10, "n must be at least 1"), (50, -1, "s must be nonnegative"),
    pytest.param(1, 10**20, f"s={10**20} at n=1 {_TOO_LARGE}", id="1-1e20-too large"),
    pytest.param(1000, 10**400, f"s={10**400} at n=1000 {_TOO_LARGE}", id="1000-1e400-too large"),
    pytest.param(10**4, 10**19, f"s={10**19} at n=10000 {_TOO_LARGE}", id="10000-1e19-too large"),
])
def test_generate_instance_rejects_bad_sizes(n, s, message):
    rng = Rng(0)
    state = rng.gen.bit_generator.state
    with pytest.raises(ValueError, match=message) as exc:
        generate_instance(build_priors(0.5, 6.0, 4), n, s, rng)
    assert type(exc.value) is ValueError  # not ParameterError, an infeasible regime
    assert rng.gen.bit_generator.state == state  # refused before any draw


@pytest.mark.parametrize(
    "n,s_values,trials,message",
    [
        (0, [0, 20], 5, "n must be at least 1"),
        (50, [0, 20], 0, "trials must be at least 1"),
        (50, [20, -5], 5, "sample rates must be nonnegative"),
    ],
)
def test_probe_rejects_bad_inputs(n, s_values, trials, message):
    with pytest.raises(ValueError, match=message) as exc:
        indistinguishability_probe(build_priors(0.5, 6.0, 4), n, s_values, trials, Rng(0))
    assert type(exc.value) is ValueError


def _hand_priors(atoms_far, mass_far):
    """Unvalidated priors: only the atom tables are read."""
    return MomentPriors(
        atoms_big=np.array([1.0, 2.0]),
        mass_big=np.array([0.75, 0.25]),
        atoms_far=np.array(atoms_far),
        mass_far=np.array(mass_far),
        beta=1.5,
        nu=0.5,
        lam=6.0,
        L=2,
        gap=0.0,
    )


@pytest.fixture(scope="module")
def draw_priors():
    """The benchmark's two prior pairs, whose far side has its zero atom, and
    a far side whose masses tie in the cdf (a zero-mass atom) and do not sum
    to 1 before normalization."""
    priors = [build_priors(*setting) for setting in BENCH_PRIORS]
    assert all(pr.atoms_far[0] == 0.0 and pr.mass_far[0] > 0 for pr in priors)
    return priors + [_hand_priors([0.0, 1.0, 2.0, 3.0], [0.5, 0.0, 1.0, 0.5])]


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 7, 10_000, 1_000_000])
def test_atom_draw_reproduces_choice(draw_priors, k, n):
    priors = draw_priors[k]
    ref, rng = Rng(n, k), Rng(n, k)
    for (_, cdf), mass in zip(priors.atom_tables, (priors.mass_big, priors.mass_far)):
        expected = reference_choice(mass / mass.sum(), n, ref.gen)
        assert np.array_equal(choice_indices(cdf, n, rng), expected)
        assert rng.gen.bit_generator.state == ref.gen.bit_generator.state


def test_atom_tables_reject_bad_masses():
    with pytest.raises(ValueError, match="probabilities must be"):
        _hand_priors([0.0, 1.0], [-0.5, 1.0]).atom_tables
    with pytest.raises(ValueError, match="probabilities must be"):
        generate_instance(_hand_priors([0.0, 1.0], [np.nan, 1.0]), 10, 5, Rng(0))


def test_normalized_views_are_built_on_first_read():
    inst = generate_instance(build_priors(0.5, 6.0, 4), 500, 100, Rng(4))
    assert "norm_big" not in vars(inst) and "norm_far" not in vars(inst)
    norm = inst.norm_big
    assert inst.norm_big is norm
    np.testing.assert_array_equal(norm.probs, Distribution.normalized(inst.raw_big).probs)
    assert inst.p_max == max(inst.norm_big.probs.max(), inst.norm_far.probs.max())
    massless_big = MomentPriors(np.array([0.0]), np.array([1.0]), np.array([0.0, 2.0]), np.array([0.5, 0.5]),
                                beta=1.5, nu=0.5, lam=6.0, L=2, gap=0.0)
    inst = generate_instance(massless_big, 50, 0, Rng(4))
    assert inst.norm_big is None
    assert inst.p_max == inst.norm_far.probs.max()


def test_probe_reports_failed_conditioning_as_infeasible():
    # the up-front mass bound (100 >= 1 - nu) passes, but one element's raw
    # mass is 0 or 100, never within nu of 1: every retry fails
    with pytest.raises(ParameterError, match="after 5 retries at s=0, n=1"):
        indistinguishability_probe(_hand_priors([0.0, 100.0], [0.5, 0.5]), 1, [0], 3, Rng(0), max_retries=5)


class _Drawn(Exception):
    pass


@pytest.mark.parametrize("setting", BENCH_PRIORS)
def test_probe_refuses_impossible_regime_before_drawing(monkeypatch, setting):
    priors = build_priors(*setting)
    calls = []

    def counting(*args):
        calls.append(args)
        raise _Drawn

    monkeypatch.setattr("posetdist.lowerbound.generate_instance", counting)
    # one element cannot be a zero and carry raw mass 1 - nu at once
    with pytest.raises(ParameterError, match="the far side's events cannot hold at n=1"):
        indistinguishability_probe(priors, 1, [0, 20], 3, Rng(0))
    assert calls == []
    for n in (2, 3, 50):
        with pytest.raises(_Drawn):
            indistinguishability_probe(priors, n, [0], 3, Rng(0))
    assert len(calls) == 3


# The law of the per-atom counts against the per-element route, at a size
# where the benchmark's second prior pair takes both of _poisson_counts'
# branches on both sides: at s/n = 1/2 its rates are about 0.29, 0.82 and
# 2.10 on the big side and 0, 0.41, 1.47 and 2.35 on the far side.
LAW_N, LAW_S, LAW_SEEDS = 4000, 2000, range(200)


def _poisson_pmf(r: float, size: int) -> np.ndarray:
    """Poisson(r) probabilities of 0..size-2, the rest of the mass last."""
    pmf = np.array([math.exp(-r + j * math.log(r) - math.lgamma(j + 1)) for j in range(size - 1)])
    return np.append(pmf, max(0.0, 1.0 - pmf.sum()))


@pytest.fixture(scope="module")
def law_draws():
    """(priors, {route: {side: [(atom indices, counts) per seed]}}) for the
    library and the per-element reference, from the same seeds and so the
    same atoms."""
    priors = build_priors(*BENCH_PRIORS[1])
    lib = {"big": [], "far": []}
    ref = {"big": [], "far": []}
    for seed in LAW_SEEDS:
        inst = generate_instance(priors, LAW_N, LAW_S, Rng(seed))
        sides = reference_instance_counts(priors, LAW_N, LAW_S, Rng(seed).gen)
        for name, atoms, raw, hist, (idx, counts) in (
            ("big", priors.atoms_big, inst.raw_big, inst.hist_big, sides[0]),
            ("far", priors.atoms_far, inst.raw_far, inst.hist_far, sides[1]),
        ):
            assert np.array_equal((atoms / LAW_N).take(idx), raw)  # the same atoms, draw for draw
            lib[name].append((idx, hist))
            ref[name].append((idx, counts))
    return priors, {"library": lib, "reference": ref}


def _atoms(priors, side):
    return priors.atoms_big if side == "big" else priors.atoms_far


@pytest.mark.parametrize("side", ["big", "far"])
def test_law_regime_takes_both_branches(law_draws, side):
    priors, _ = law_draws
    rates = LAW_S * _atoms(priors, side) / LAW_N
    assert np.any((rates > 0) & (rates <= 1)) and np.any(rates > 1)
    assert (side == "far") == np.any(rates == 0)


@pytest.mark.parametrize("side", ["big", "far"])
def test_per_atom_count_frequencies_match_poisson(law_draws, side):
    """Pooled over members and seeds, each atom's count frequencies are within
    tol = sum_j sqrt(p_j / N) of Poisson(r) in TV, for both routes, and within
    sqrt(2) * tol of each other. An empirical pmf of N draws is off from p by
    about 0.4 * tol in TV (each cell by sqrt(2/pi) * sqrt(p_j / N) on average),
    so tol leaves a margin of 2.5 times that; a zero-rate atom counts only 0."""
    priors, routes = law_draws
    for k, a in enumerate(_atoms(priors, side)):
        r = LAW_S * a / LAW_N
        pooled = {route: np.concatenate([c[i == k] for i, c in draws[side]]) for route, draws in routes.items()}
        if r == 0:
            assert all(not c.any() for c in pooled.values())
            continue
        size = max(int(c.max()) for c in pooled.values()) + 2
        pmf = _poisson_pmf(r, size)
        freq = {route: np.bincount(c, minlength=size) / c.size for route, c in pooled.items()}
        tol = float(np.sqrt(pmf / pooled["library"].size).sum())
        for route, f in freq.items():
            assert 0.5 * np.abs(f - pmf).sum() <= tol, (route, k, r)
        assert 0.5 * np.abs(freq["library"] - freq["reference"]).sum() <= math.sqrt(2) * tol, (k, r)


@pytest.mark.parametrize("side", ["big", "far"])
def test_per_atom_group_totals_are_poisson(law_draws, side):
    """The total count over an atom's m members is Poisson(r * m): over the
    200 seeds its standardized values have mean within 5 standard errors of 0
    and variance within 5 standard errors of 1 (0.35 and 0.5). A total fixed
    at about r * m (variance near 0) fails, as does a total that ignores the
    rate."""
    priors, routes = law_draws
    seeds = len(LAW_SEEDS)
    for draws in routes.values():
        for k, a in enumerate(_atoms(priors, side)):
            r = LAW_S * a / LAW_N
            if r == 0:
                continue
            z = np.array([(c[i == k].sum() - r * np.count_nonzero(i == k)) / math.sqrt(r * np.count_nonzero(i == k))
                          for i, c in draws[side]])
            assert abs(z.mean()) <= 5 / math.sqrt(seeds), (k, r, z.mean())
            assert abs(z.var(ddof=1) - 1) <= 5 * math.sqrt(2 / (seeds - 1)), (k, r, z.var(ddof=1))


@pytest.mark.parametrize("side", ["big", "far"])
def test_counts_of_distinct_elements_are_uncorrelated(law_draws, side):
    """Pearson correlation between the counts of consecutive members of one
    atom (disjoint pairs, pooled over seeds), and between element i and
    element i + n/2 whatever their atoms, is within 4/sqrt(pairs) of 0."""
    priors, routes = law_draws
    for draws in routes.values():
        pairs = []
        for k, a in enumerate(_atoms(priors, side)):
            if a == 0:
                continue
            firsts, seconds = [], []
            for i, c in draws[side]:
                members = c[i == k]
                half = members.size // 2
                firsts.append(members[:2 * half:2])
                seconds.append(members[1:2 * half:2])
            pairs.append((np.concatenate(firsts), np.concatenate(seconds)))
        half = LAW_N // 2
        pairs.append((np.concatenate([c[:half] for _, c in draws[side]]),
                      np.concatenate([c[half:2 * half] for _, c in draws[side]])))
        for x, y in pairs:
            assert abs(np.corrcoef(x, y)[0, 1]) <= 4 / math.sqrt(x.size), (side, x.size)


def _point_mass_priors(atom: float) -> MomentPriors:
    """Unvalidated priors with one atom on each side."""
    return MomentPriors(np.array([atom]), np.array([1.0]), np.array([atom]), np.array([1.0]),
                        beta=1.5, nu=0.5, lam=6.0, L=2, gap=0.0)


def test_generate_instance_at_the_sampler_limit():
    """s * max(atoms) = POISSON_LAM_MAX is drawn, one float step above it is
    refused. At n = 2 that s puts the two counts' total near the limit,
    inside int64, and the event flag sees it; twice that s, though each rate
    is still one the sampler takes, would wrap the total, so it is refused."""
    top = int(POISSON_LAM_MAX)
    assert float(top) == POISSON_LAM_MAX
    priors = _point_mass_priors(1.0)
    assert generate_instance(priors, 1, top, Rng(0)).hist_big[0] > 0.9 * top
    inst = generate_instance(priors, 2, top, Rng(0))
    assert inst.hist_big.sum() > 0.9 * top and inst.event_big
    for n, s in ((1, int(np.nextafter(POISSON_LAM_MAX, np.inf))), (2, 2 * top)):
        with pytest.raises(ValueError, match=f"s={s} at n={n} is too large"):
            generate_instance(priors, n, s, Rng(0))


def test_dense_regime_allocates_order_n():
    """At n = 1000 and s = 10^12 every rate is far above 1: the counts come
    from n Poisson draws, and the call's peak allocation stays within a few
    dozen n-sized arrays, nowhere near anything that grows with s."""
    priors = build_priors(*BENCH_PRIORS[1])
    n = 1000
    generate_instance(priors, n, 10**12, Rng(1))  # first-call caches out of the measurement
    tracemalloc.start()
    try:
        inst = generate_instance(priors, n, 10**12, Rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 8 * n
    assert inst.hist_big.sum() > 10**12 * (1 - priors.nu)


@pytest.mark.parametrize("max_retries", [0, -1])
def test_probe_rejects_max_retries_below_one(max_retries):
    with pytest.raises(ValueError, match=f"max_retries must be at least 1, got {max_retries}") as exc:
        indistinguishability_probe(build_priors(0.5, 6.0, 4), 50, [0], 3, Rng(0), max_retries=max_retries)
    assert type(exc.value) is ValueError
