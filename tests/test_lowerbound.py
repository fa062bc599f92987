import math

import numpy as np
import pytest

from posetdist import (
    Distribution,
    MomentPriors,
    ParameterError,
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
from posetdist.lowerbound import chebyshev_grid, fingerprint_stats
from posetdist.prob import choice_indices

from genutil import BENCH_PRIORS, reference_choice


def test_gap_closed_form_values():
    assert moment_gap_value(0.5, 6.0, 2) == pytest.approx(1 / 6)
    assert moment_gap_value(0.5, 6.0, 4) == pytest.approx(1 / 54)
    with pytest.raises(ValueError):
        moment_gap_value(0.5, 1.2, 3)


def test_gap_decreasing_in_L():
    vals = [moment_gap_value(0.5, 6.0, L) for L in range(2, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_solve_gap_matches_closed_form():
    for lam, L in ((4.0, 3), (6.0, 4), (9.0, 5)):
        v, _, _ = solve_moment_gap(0.5, lam, L, 400)
        assert v == pytest.approx(moment_gap_value(0.5, lam, L), abs=1e-3)


def test_solve_gap_moments_match():
    v, (ax, mx), (ax2, mx2) = solve_moment_gap(0.5, 6.0, 4, 400)
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


@pytest.mark.parametrize("n,s,message", [(0, 10, "n must be at least 1"), (-3, 10, "n must be at least 1"),
                                         (50, -1, "s must be nonnegative")])
def test_generate_instance_rejects_bad_sizes(n, s, message):
    with pytest.raises(ValueError, match=message):
        generate_instance(build_priors(0.5, 6.0, 4), n, s, Rng(0))


@pytest.mark.parametrize(
    "n,s_values,trials,message",
    [
        (0, [0, 20], 5, "n must be at least 1"),
        (50, [0, 20], 0, "trials must be at least 1"),
        (50, [20, -5], 5, "sample rates must be nonnegative"),
    ],
)
def test_probe_rejects_bad_inputs(n, s_values, trials, message):
    with pytest.raises(ValueError, match=message):
        indistinguishability_probe(build_priors(0.5, 6.0, 4), n, s_values, trials, Rng(0))


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
