import collections
import dataclasses
import math
import re
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
    SizeCapError,
    assign_parameters,
    build_priors,
    dist_to_bigness,
    generate_instance,
    indistinguishability_probe,
    moment_gap_value,
    priors_from_gap_solution,
    solve_moment_gap,
)
import posetdist.lowerbound as lb
from posetdist.lowerbound import MOMENT_REL_TOL, POISSON_LAM_MAX
from posetdist.poset import MAX_DOMAIN
from posetdist.prob import choice_cdf, choice_indices

from genutil import (
    BENCH_PRIORS,
    chebyshev_grid,
    fingerprint_stats,
    grid_moment_gap,
    reference_choice,
    reference_fingerprints,
    reference_instance,
    reference_instance_counts,
    reference_moments,
    two_sample_chi2_pvalue,
)


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


def test_lambda_beyond_double_precision_is_refused():
    """Above about 2^54, (lambda+1+nu)/(lambda-1-nu) rounds to 1, and the
    alternation points would coincide: such a lambda is refused before any
    log of their differences is taken. lambda = 10^16 still builds."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (1e17, 1e308):
            for L in range(2, 9):
                with pytest.raises(ParameterError, match=re.escape(f"lambda={lam:g} is beyond double precision at nu=0.5")):
                    build_priors(0.5, lam, L)
        build_priors(0.5, 1e16, 4).validate()


def test_a_moment_miss_is_a_bug():
    """At lambda = 6257783137866831, L = 2 the map from t once placed the
    interior atom (about 6.6e7) only to about one spacing of lambda, moment 2
    missed MOMENT_REL_TOL, and validate refused that with ParameterError as
    rounding. Every L there and at lambda = 1e16 now builds, and an X' atom
    moved by 2 or by 10 spacings of lambda is a PriorsError."""
    lam = 6257783137866831.0
    for L in (2, 3, 4, 5, 6, 8):
        build_priors(0.5, lam, L).validate()
        build_priors(0.5, 1e16, L).validate()
    _, (ax, mx), (ax2, mx2) = solve_moment_gap(0.5, lam, 3)
    for spacings in (2, 10):
        moved = ax2.copy()
        moved[0] += spacings * np.spacing(lam)
        with pytest.raises(PriorsError, match="moment 2 of the atoms"):
            priors_from_gap_solution(0.5, lam, 3, ax, mx, moved, mx2)


@pytest.mark.parametrize("nu,lam", [(0.1, 2e4), (0.1, 1e6), (0.1, 1e12), (0.9, 1e5), (0.9, 1e9)])
def test_end_points_stay_in_the_interval(nu, lam):
    """1+nu is not exact in binary, and at these lambdas the map from [-1, 1]
    rounded the lowest alternation point below 1+nu, so validate refused
    the priors with PriorsError. Every point now lies in [1+nu, lambda]."""
    for L in (2, 3, 4, 8):
        _, (ax, _), (ax2, _) = solve_moment_gap(nu, lam, L)
        points = np.concatenate((ax, ax2))
        assert points.min() >= 1 + nu and points.max() <= lam
        build_priors(nu, lam, L).validate()


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


PRIOR_LAMBDAS = (1.6, 3, 6, 12, 1e2, 1e4, 1e8, 1e12, 1e16, 6257783137866831)
PRIOR_GRID = [(nu, lam, L) for nu in (0.1, 0.5, 2) for lam in PRIOR_LAMBDAS
              for L in (*range(2, 41), 60, 100, 200, 500, 1000) if lam > 1 + nu]


def test_moment_products_match_the_pow_reference(monkeypatch):
    """validate takes moment j from a running product of the scaled atoms, not a
    pow per j. Over 1232 (nu, lam, L), build_priors accepts, or refuses with the
    same error and the same missed moments, exactly where the pow loop of
    tests/genutil.py does, and every moment agrees with its pow value to 1e-12
    relative (products round about j*eps apart; 1.4e-15 is the largest seen).
    Every accepted point's gap is the closed form to MOMENT_REL_TOL, at
    lambda = 1e16 and 6257783137866831 (between 2^52 and 2^53) too, where
    the points were once placed only to a spacing of lambda."""
    products = lb._moments
    tally = collections.Counter()
    for point in PRIOR_GRID:
        outcomes, moments = [], []
        for route in (products, reference_moments):
            def recording(sides, L, route=route):
                moments.append(np.array(list(route(sides, L))))
                return iter(moments[-1].tolist())
            monkeypatch.setattr(lb, "_moments", recording)
            try:
                outcomes.append(build_priors(*point).gap)
            except (ParameterError, PriorsError) as exc:
                outcomes.append((type(exc), re.sub(r"mismatch: [^;]*", "mismatch", str(exc))))
        assert outcomes[0] == outcomes[1], point
        if moments:
            np.testing.assert_allclose(*moments, rtol=1e-12, atol=0, err_msg=str(point))
        accepted = isinstance(outcomes[0], float)
        if accepted:
            closed = moment_gap_value(*point)
            assert abs(outcomes[0] - closed) <= MOMENT_REL_TOL * closed, point
        tally["validated" if moments else "refused before validate", accepted] += 1
    assert tally == {("validated", True): 889, ("refused before validate", False): 343}


@pytest.mark.parametrize("lam", [1e12, 1e16])
def test_priors_build_at_the_L_cap(lam):
    """At the largest accepted L the products' rounding has grown most: every
    moment still matches, the change of measure keeps the gap program's
    value, and that value is the closed form."""
    value, _, _ = solve_moment_gap(0.5, lam, lb.MAX_L)
    priors = build_priors(0.5, lam, lb.MAX_L)
    priors.validate()
    assert abs(priors.gap - value) <= MOMENT_REL_TOL * value
    closed = moment_gap_value(0.5, lam, lb.MAX_L)
    assert abs(value - closed) <= MOMENT_REL_TOL * closed


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


@pytest.mark.parametrize("nu,lam,L", [(0.5, 6.0, 4), (2.0, 1e8, 37), (0.5, 1e16, 65), (0.1, 1e16, 1000)])
def test_log_weights_do_not_depend_on_the_block_size(monkeypatch, nu, lam, L):
    """Each row's log sum is taken alone, so the number of rows summed at once
    changes no byte of the gap program's value, atoms or masses."""

    def solution():
        value, big, far = solve_moment_gap(nu, lam, L)
        return [np.float64(value).tobytes(), *(np.asarray(a).tobytes() for a in (*big, *far))]

    want = solution()
    for block in (1, 64):
        monkeypatch.setattr(lb, "LOG_W_BLOCK", block)
        assert solution() == want, block


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
    for eps in (0.0, -0.01, math.nan, math.inf):  # not a valid eps at all, not an infeasible one
        with pytest.raises(ValueError, match="eps must be a finite number above 0") as exc:
            assign_parameters(1000, eps, 4)
        assert type(exc.value) is ValueError


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


def test_events_at_s0_are_the_mass_and_zero_count_clauses():
    """At s = 0 nothing is drawn and the count clause holds vacuously: each
    flag is a bool that holds exactly when its raw mass lies within nu of 1
    and, on the far side, at least beta*n*gap/2 elements weigh zero."""
    seen = set()
    for setting in BENCH_PRIORS:
        priors = build_priors(*setting)
        for n in (1, 7, 20, 50):
            for seed in range(40):
                inst = generate_instance(priors, n, 0, Rng(seed))
                assert inst.hist_big.sum() == inst.hist_far.sum() == 0
                big = bool(abs(inst.raw_big.sum() - 1.0) <= priors.nu)
                zeros = np.count_nonzero(inst.raw_far == 0.0) >= priors.beta * n * priors.gap / 2.0
                far = bool(abs(inst.raw_far.sum() - 1.0) <= priors.nu and zeros)
                assert inst.event_big is big and inst.event_far is far, (setting, n, seed)
                seen.update({("big", big), ("far", far)})
    assert seen == {(side, flag) for side in ("big", "far") for flag in (False, True)}


def test_probe_keeps_the_first_attempt_whose_flags_hold(monkeypatch):
    """A call log of the per-attempt side draw and of the statistics the
    probe compares, over two rows at s = 0: the i-th row's attempts draw in
    turn from one stream, derived as 1_000_000 + i and starting fresh
    whatever the retries of the row before, the sides still open in turn,
    big side first; each trial keeps the fingerprint of each side's first
    draw whose event holds, and no attempt is drawn once both sides are
    kept."""
    priors, n, trials = build_priors(0.5, 6.0, 4), 7, 30
    drawn, compared = [], []
    draw, advantage = lb._draw_side, lb._ks_advantage

    def logged_draw(law, gen):
        before = gen.bit_generator.state
        result = draw(law, gen)
        drawn.append((law, gen, before, gen.bit_generator.state, result))
        return result

    monkeypatch.setattr(lb, "_draw_side", logged_draw)
    monkeypatch.setattr(lb, "_ks_advantage", lambda a, b: compared.append((a.copy(), b.copy())) or advantage(a, b))
    indistinguishability_probe(priors, n, [0, 0], trials, Rng(3))
    big_law = drawn[0][0]
    assert sorted(set(big_law.values)) == sorted(priors.atoms_big / n)
    k = 0
    for row in range(2):
        first, attempts = k, 0
        kept = {"big": [], "far": []}
        state = Rng(3).derive(1_000_000 + row).gen.bit_generator.state
        for _ in range(trials):
            open_sides = ["big", "far"]
            while open_sides:
                attempts += 1
                for side in list(open_sides):
                    law, gen, before, after, (fingerprint, mass, zero_count) = drawn[k]
                    assert gen is drawn[first][1] and before == state
                    assert (law is drawn[first][0]) == (side == "big")
                    state, k = after, k + 1
                    if lb._event(priors, n, 0, mass, fingerprint[3], zero_count if side == "far" else None):
                        kept[side].append(fingerprint)
                        open_sides.remove(side)
        assert attempts > trials  # some attempt failed its events and was retried
        for j, (a, b) in enumerate(compared[4 * row : 4 * row + 4]):
            assert np.array_equal(a, np.array(kept["big"])[:, j]) and np.array_equal(b, np.array(kept["far"])[:, j])
    assert k == len(drawn) and len(compared) == 8


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


def test_probe_does_not_import_numpy_ma():
    """np.unique imports numpy.ma on its first call; the probe's threshold
    dedup must not, so a fresh interpreter that runs it never loads it."""
    import os
    import subprocess
    import sys

    import posetdist

    code = ("import sys\n"
            "from posetdist import Rng, build_priors, indistinguishability_probe\n"
            "indistinguishability_probe(build_priors(0.5, 6.0, 4), 400, [0, 300], 20, Rng(1))\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(posetdist.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_TOO_LARGE = "is too large: s\\*max\\(atoms\\) must be at most 9.2233720064847708e\\+18"


@pytest.mark.parametrize("n,s,message", [
    (0, 10, "n must be at least 1"), (-3, 10, "n must be at least 1"), (50, -1, "s must be nonnegative"),
    pytest.param(1, 10**20, f"s={10**20} at n=1 {_TOO_LARGE}", id="1-1e20-too large"),
    pytest.param(1000, 10**400, f"s={10**400} at n=1000 {_TOO_LARGE}", id="1000-1e400-too large"),
    pytest.param(10**4, 10**19, f"s={10**19} at n=10000 {_TOO_LARGE}", id="10000-1e19-too large"),
    pytest.param(MAX_DOMAIN + 1, 0, f"{MAX_DOMAIN + 1} instance elements exceed the limit of {MAX_DOMAIN}", id="cap-0-too large"),
])
def test_generate_instance_rejects_bad_sizes(n, s, message):
    rng = Rng(0)
    state = rng.gen.bit_generator.state
    with pytest.raises(ValueError, match=message) as exc:
        generate_instance(build_priors(0.5, 6.0, 4), n, s, rng)
    # not ParameterError, an infeasible regime; the vertex cap is the package's cap error
    assert type(exc.value) is (SizeCapError if n > MAX_DOMAIN else ValueError)
    assert rng.gen.bit_generator.state == state  # refused before any draw


# fixed ids, as in tests/test_cli.py's LB_BAD_INPUTS: a reworded message renames no test
@pytest.mark.parametrize(
    "n,s_values,trials,message",
    [
        pytest.param(0, [0, 20], 5, "n must be at least 1",
                     id="0-s_values0-5-n must be at least 1"),
        pytest.param(50, [0, 20], 0, "trials must be at least 1",
                     id="50-s_values1-0-trials must be at least 1"),
        pytest.param(50, [20, -5], 5, "sample rates must be nonnegative",
                     id="50-s_values2-5-sample rates must be nonnegative"),
        pytest.param(MAX_DOMAIN + 1, [0], 5,
                     f"{MAX_DOMAIN + 1} instance elements exceed the limit of {MAX_DOMAIN}",
                     id="4194305-s_values3-5-4194305 instance elements exceed the limit of 4194304"),
        # every s is checked against the Poisson limit before the first row is drawn
        pytest.param(10_000, [0, 300, 1226, 10**19], 200, f"s={10**19} at n=10000 {_TOO_LARGE}",
                     id=r"10000-s_values4-200-s=10000000000000000000 at n=10000 is too large: "
                        r"s\*max\(atoms\) must be at most 9.2233720064847708e\+18"),
    ],
)
def test_probe_rejects_bad_inputs(n, s_values, trials, message):
    """Refused before any draw: the probe's generator keeps its state and
    derives no stream, the source of every attempt's draws."""
    derived = []

    class LoggedRng(Rng):
        def derive(self, stream):
            derived.append(stream)
            return super().derive(stream)

    rng = LoggedRng(0)
    state = rng.gen.bit_generator.state
    with pytest.raises(ValueError, match=message) as exc:
        indistinguishability_probe(build_priors(0.5, 6.0, 4), n, s_values, trials, rng)
    assert type(exc.value) is (SizeCapError if n > MAX_DOMAIN else ValueError)
    assert rng.gen.bit_generator.state == state and derived == []


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
    for mass in (priors.mass_big, priors.mass_far):
        expected = reference_choice(mass / mass.sum(), n, ref.gen)
        assert np.array_equal(choice_indices(choice_cdf(mass / mass.sum()), n, rng), expected)
        assert rng.gen.bit_generator.state == ref.gen.bit_generator.state


def test_draws_reject_bad_masses():
    with pytest.raises(ValueError, match="probabilities must be"):
        generate_instance(_hand_priors([0.0, 1.0], [-0.5, 1.0]), 10, 5, Rng(0))
    with pytest.raises(ValueError, match="probabilities must be"):
        generate_instance(_hand_priors([0.0, 1.0], [np.nan, 1.0]), 10, 5, Rng(0))
    with pytest.raises(ValueError, match="probabilities must be"):
        indistinguishability_probe(_hand_priors([0.0, 1.0], [np.nan, 1.0]), 10, [5], 3, Rng(0))


def test_draws_follow_masses_edited_in_place():
    """generate_instance reads the priors' masses on every call: after the
    big side's mass is moved in place onto its top atom, it draws what fresh
    priors with those masses draw."""
    priors = build_priors(0.5, 6.0, 4)
    before = generate_instance(priors, 1000, 50, Rng(3))
    priors.mass_big[:] = 0.0
    priors.mass_big[-1] = 1.0
    fresh = dataclasses.replace(priors, mass_big=priors.mass_big.copy())
    got, want = generate_instance(priors, 1000, 50, Rng(3)), generate_instance(fresh, 1000, 50, Rng(3))
    assert np.all(got.raw_big == priors.atoms_big[-1] / 1000) and got.raw_big.sum() != before.raw_big.sum()
    for field in ("raw_big", "raw_far", "hist_big", "hist_far"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert (got.event_big, got.event_far, got.p_max) == (want.event_big, want.event_far, want.p_max)


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


def _cross_check_priors() -> dict:
    """The benchmark's pairs (a zero atom first on the far side), a zero-mass
    atom ahead of a zero atom, a massless big side, and 70 atoms a side, past
    cdf_count's narrow index."""
    wide = np.arange(1.0, 71.0)
    return {
        "bench0": build_priors(*BENCH_PRIORS[0]),
        "bench1": build_priors(*BENCH_PRIORS[1]),
        "zero-mass atom": _hand_priors([1.0, 0.0, 2.0, 3.0], [0.0, 0.5, 1.0, 0.5]),
        "massless side": MomentPriors(np.array([0.0]), np.array([1.0]), np.array([0.0, 2.0]), np.array([0.5, 0.5]),
                                      beta=1.5, nu=0.5, lam=6.0, L=2, gap=0.0),
        "70 atoms": MomentPriors(wide / 35.5, np.full(70, 1 / 70), np.append(0.0, wide[:-1] / 35), np.full(70, 1 / 70),
                                 beta=1.5, nu=0.5, lam=6.0, L=2, gap=0.1),
    }


# At n = 2000 the bench pairs' rates s*a/n are all at most 1 for s = 300,
# on both sides of 1 for s = 3000, and all above 1 for s = 10^6.
@pytest.mark.parametrize("name", list(_cross_check_priors()))
@pytest.mark.parametrize("n", [1, 7, 2000])
@pytest.mark.parametrize("s", [0, 300, 3000, 10**6])
def test_generate_instance_matches_the_per_atom_reference(name, n, s):
    """Draw for draw against the route that scans its outputs: the arrays
    with their dtypes, zero_count, the event flags' values and types (both
    Python bools), the bits of p_max and the generator state."""
    priors = _cross_check_priors()[name]
    for seed in range(3):
        rng, ref_rng = Rng(seed), Rng(seed)
        got, want = generate_instance(priors, n, s, rng), reference_instance(priors, n, s, ref_rng.gen)
        for field in ("raw_big", "raw_far", "hist_big", "hist_far"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field
        for field in ("zero_count", "event_big", "event_far"):
            a, b = getattr(got, field), getattr(want, field)
            assert type(a) is type(b) and a == b, (field, a, b)
        assert type(got.p_max) is float and got.p_max.hex() == want.p_max.hex()
        assert rng.gen.bit_generator.state == ref_rng.gen.bit_generator.state


def test_cross_check_grid_takes_every_branch():
    """The grid above reaches both count branches and the corner cases it
    names: rates at most 1 and above 1, a zero atom with members, a
    zero-mass atom, a massless side and an index wider than one byte."""
    priors = _cross_check_priors()
    rates = [s * a / 2000 for s in (300, 3000, 10**6) for a in priors["bench1"].atoms_big]
    assert any(0 < r <= 1 for r in rates) and any(r > 1 for r in rates)
    assert generate_instance(priors["bench1"], 2000, 0, Rng(0)).zero_count > 0
    assert 0.0 in priors["zero-mass atom"].mass_far
    assert generate_instance(priors["massless side"], 7, 300, Rng(0)).norm_big is None
    assert choice_indices(choice_cdf(priors["70 atoms"].mass_big), 5, Rng(0)).dtype == np.intp


def test_probe_reports_failed_conditioning_as_infeasible():
    # the up-front mass bound (100 >= 1 - nu) passes, but one element's raw
    # mass is 0 or 100, never within nu of 1: every retry fails
    with pytest.raises(ParameterError, match="after 200 retries at s=0, n=1"):
        indistinguishability_probe(_hand_priors([0.0, 100.0], [0.5, 0.5]), 1, [0], 3, Rng(0))


def test_probe_interval_covers_a_zero_advantage():
    """With one prior on both sides the true advantage is 0, so a row with
    advantage > ci_half is a miss of its interval. Over 210 rows (n = 1000,
    200 trials, s = 30, 300 and 3000) at most 5% miss; with the unadjusted
    z of 1.960 the best-of-four selection missed 30 of them."""
    priors = build_priors(0.5, 6.0, 4)
    same = dataclasses.replace(priors, atoms_far=priors.atoms_big, mass_far=priors.mass_big, gap=0.0)
    rows = [row for seed in range(14)
            for row in indistinguishability_probe(same, 1000, [30, 300, 3000] * 5, 200, Rng(seed))]
    assert sum(row.advantage > row.ci_half for row in rows) <= 0.05 * len(rows)


class _Drawn(Exception):
    pass


@pytest.mark.parametrize("setting", BENCH_PRIORS)
def test_probe_refuses_impossible_regime_before_drawing(monkeypatch, setting):
    priors = build_priors(*setting)
    calls = []

    def counting(*args):
        calls.append(args)
        raise _Drawn

    monkeypatch.setattr("posetdist.lowerbound._draw_side", counting)
    # one element cannot be a zero and carry raw mass 1 - nu at once
    with pytest.raises(ParameterError, match="the far side's events cannot hold at n=1"):
        indistinguishability_probe(priors, 1, [0, 20], 3, Rng(0))
    assert calls == []
    for n in (2, 3, 50):
        with pytest.raises(_Drawn):
            indistinguishability_probe(priors, n, [0], 3, Rng(0))
    assert len(calls) == 3


# The probe's fingerprint law against generate_instance's. At s = n the
# hand pair's rates are 0.05, 0.99, 1.01 and 5; the far side has a
# zero-weight atom and the big side a zero-mass one, and nu and gap put the
# events' rates inside (0, 1) at n = 2000. At s = 16n the atom of weight 5
# has rate 80, above RATE_TABLE_MAX, so its members draw their counts one by
# one while the other atoms' rates (0.8 to 32) take the count table. The
# benchmark's first pair at n = 2000 has every rate below 1 at s = 300 and
# every nonzero rate above 1 at s = 20000.
FP_PRIORS = MomentPriors(np.array([0.05, 0.99, 1.01, 5.0, 2.0]), np.array([0.3, 0.3, 0.3, 0.1, 0.0]),
                         np.array([0.0, 0.05, 0.99, 1.01, 5.0]), np.array([0.2, 0.2, 0.25, 0.25, 0.1]),
                         beta=1.5, nu=0.1, lam=6.0, L=2, gap=0.4 / 1.5)
FP_GRID = [("hand", 1, 1), ("hand", 7, 7), ("hand", 2000, 2000), ("bench", 2000, 300), ("bench", 2000, 20000),
           ("hand", 2000, 32000)]
FP_DRAWS = 400


def _tallies(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counts of each value of a and of b, over the values of both."""
    values = np.union1d(a, b)
    return tuple(np.bincount(np.searchsorted(values, x), minlength=values.size) for x in (a, b))


@pytest.mark.parametrize("name,n,s", FP_GRID)
def test_probe_fingerprint_law_matches_generate_instance(name, n, s):
    """Each side's four statistics and its event, over FP_DRAWS draws of the
    probe's per-atom law and as many generate_instance calls, pass the
    two-sample chi-square test at p > 1e-4."""
    priors = FP_PRIORS if name == "hand" else build_priors(*BENCH_PRIORS[0])
    ref = reference_fingerprints(priors, n, s, range(FP_DRAWS))
    for side, atoms, mass in (("big", priors.atoms_big, priors.mass_big), ("far", priors.atoms_far, priors.mass_far)):
        law = lb._side_law(atoms, mass, n, s)
        drawn = [lb._draw_side(law, Rng(seed, 1).gen) for seed in range(FP_DRAWS)]
        fingerprints = np.array([fingerprint for fingerprint, _, _ in drawn])
        events = np.array([lb._event(priors, n, s, raw_mass, fingerprint[3], zeros if side == "far" else None)
                           for fingerprint, raw_mass, zeros in drawn])
        ref_fingerprints, ref_events = ref[side]
        for k in range(4):
            p = two_sample_chi2_pvalue(*_tallies(ref_fingerprints[:, k], fingerprints[:, k]))
            assert p > 1e-4, (side, k, p)
        p = two_sample_chi2_pvalue(*_tallies(ref_events, events))
        assert p > 1e-4, (side, "event", p, ref_events.mean(), events.mean())


def test_fingerprint_grid_takes_every_branch():
    """FP_GRID reaches the cases it names: rates well below 1, just below
    and just above it and well above it, on both sides a rate above
    RATE_TABLE_MAX beside nonzero rates at or below it, zero-weight and
    zero-mass atoms, and at n = 2000 events that hold on some draws and fail
    on others."""
    rates = 2000 * (FP_PRIORS.atoms_big / 2000)
    assert np.allclose(rates[:4], [0.05, 0.99, 1.01, 5.0]) and 0.0 in FP_PRIORS.mass_big
    assert FP_PRIORS.atoms_far[0] == 0.0 and FP_PRIORS.mass_far[0] > 0
    for atoms, mass in ((FP_PRIORS.atoms_big, FP_PRIORS.mass_big), (FP_PRIORS.atoms_far, FP_PRIORS.mass_far)):
        high = 32000 * (atoms / 2000) > lb.RATE_TABLE_MAX
        assert mass[high].sum() > 0 and mass[~high & (atoms > 0)].sum() > 0
    bench = build_priors(*BENCH_PRIORS[0])
    assert np.all(300 * bench.atoms_far / 2000 <= 1) and np.all(20000 * bench.atoms_far[1:] / 2000 > 1)
    ref = reference_fingerprints(FP_PRIORS, 2000, 2000, range(100))
    for _, events in ref.values():
        assert 0 < events.mean() < 1


@pytest.mark.parametrize("s", [600, 2000, 2020, 8000, 200000])
def test_one_atom_fingerprint_is_poisson(s):
    """With one atom of weight 1 every member has rate r = s/n: a side's
    zeros, ones and twos are Binomial(n, P(Poisson(r) = j)) and its total is
    Poisson(s). Over 400 draws at n = 2000 each standardized statistic has
    mean within 5 standard errors of 0 and variance within 5 of 1; at
    r = 100, above RATE_TABLE_MAX, a count below 3 has chance below 1e-39,
    and those statistics must be 0 on every draw. Counts of 3 or more all
    drawn as 3 would miss n * E[X - 3; X >= 3], a standard deviation of the
    total at r = 1."""
    n, draws = 2000, 400
    law = lb._side_law(np.array([1.0]), np.array([1.0]), n, s)
    r = s * (1.0 / n)
    fingerprints = np.array([lb._draw_side(law, Rng(seed).gen)[0] for seed in range(draws)])
    p = np.array([math.exp(-r) * r**j / math.factorial(j) for j in range(3)])
    live = np.append(n * p > 1e-20, True)
    assert np.all(fingerprints[:, ~live] == 0)
    mean = np.append(n * p, s)[live]
    sd = np.sqrt(np.append(n * p * (1 - p), s))[live]
    z = (fingerprints[:, live] - mean) / sd
    assert np.all(np.abs(z.mean(axis=0)) <= 5 / math.sqrt(draws)), z.mean(axis=0)
    assert np.all(np.abs(z.var(axis=0, ddof=1) - 1) <= 5 * math.sqrt(2 / (draws - 1))), z.var(axis=0, ddof=1)


@pytest.mark.parametrize("r", [1e-3, 0.3, 1.0, 9.4, lb.RATE_TABLE_MAX])
def test_count_table_is_the_poisson_pmf(r):
    """The count table against lgamma-summed Poisson(r) terms to 1e-12
    relative; the mass past its end, which its largest entry takes, is below
    2^-53; its entries are nonnegative and sum to 1 within a few units of
    2^-53."""
    pmf = lb._count_table(r)
    exact = [math.exp(-r + k * math.log(r) - math.lgamma(k + 1)) for k in range(pmf.size + 200)]
    np.testing.assert_allclose(pmf, exact[: pmf.size], rtol=1e-12, atol=0)
    assert math.fsum(exact[pmf.size :]) < 2.0**-53
    assert np.all(pmf >= 0) and abs(math.fsum(pmf) - 1.0) <= 4 * 2.0**-53


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


def test_sparse_regime_allocates_under_five_outputs():
    """At n = 10^5 and s = 10^4 every rate is below 1. The raw vectors and
    histograms take 4 * 8n bytes, and the call's peak stays under 5 * 8n:
    the atom index is one byte an element, an atom's members go once its
    picks are drawn, and no statistic is read off a scan of an output.
    reference_instance's route, which widens the index and rescans the
    outputs, peaks at 6.22 * 8n."""
    priors = build_priors(*BENCH_PRIORS[1])
    n, s = 10**5, 10**4
    assert s * priors.atoms_big.max() / n < 1 and s * priors.atoms_far.max() / n < 1
    generate_instance(priors, n, s, Rng(1))  # first-call caches out of the measurement
    tracemalloc.start()
    try:
        inst = generate_instance(priors, n, s, Rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * n, peak / (8 * n)
    assert inst.hist_big.sum() > 0


def test_ks_advantage_is_the_two_sample_ks_statistic():
    """_ks_advantage's advantage is scipy's two-sample Kolmogorov-Smirnov
    statistic on integer-valued samples with ties, of equal and of unequal
    sizes, and its two shares are the samples' empirical cdfs at one
    threshold, their gap that advantage."""
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(15)
    for _ in range(500):
        na, nb = rng.integers(1, 80, size=2)
        top = int(rng.integers(1, 12))
        a = rng.integers(0, top, na).astype(float)
        b = (rng.integers(0, top, nb) + rng.integers(0, 3)).astype(float)
        adv, fa, fb = lb._ks_advantage(a, b)
        assert adv == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)
        assert abs(fa - fb) == adv
        assert any(fa == np.mean(a <= t) and fb == np.mean(b <= t) for t in np.union1d(a, b))


def test_draw_side_returns_the_raw_mass_and_zero_count_as_python_scalars():
    """_event then computes on Python scalars, and the probe passes it the
    count total as an int."""
    priors = build_priors(*BENCH_PRIORS[0])
    for s in (0, 300, 36780):
        fingerprint, mass, zeros = lb._draw_side(lb._side_law(priors.atoms_far, priors.mass_far, 10_000, s), Rng(s).gen)
        assert type(mass) is float and type(zeros) is int and fingerprint.shape == (4,)
