"""Moment-matched prior pairs and the two-step histogram process.

The construction builds two priors V and V' over per-element probability
weights: both have mean 1 and identical first L moments, V is supported on
[(1+nu)/beta, lam/beta] while V' additionally puts mass at 0. Element i of a
size-n domain draws its raw weight from the prior; the raw vector w/n is
approximately a distribution, and a histogram of roughly s samples is drawn
as independent Poisson(s * w_i / n) counts.

Conditioned on the "good" events (raw mass near 1, enough samples, enough
zeros on the far side), the normalized V-side vector is 1/(beta*n)-big while
the V'-side vector is far from big by half the construction's gap value, yet
the two histogram laws are nearly indistinguishable. The gap optimum has a
closed form via best polynomial approximation of 1/x: moment_gap_value is
its value, and solve_moment_gap builds its atoms, the alternation points of
that approximation with divided-difference weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .prob import Distribution, Rng, choice_cdf, choice_indices
# Not called here: perfbench/spans.py's tracer wraps lowerbound.solve_lp by name.
from .simplex import solve_lp  # noqa: F401

MASS_TOL = 1e-9
MEAN_TOL = 1e-8
MOMENT_REL_TOL = 1e-8
LOG_W_BLOCK = 64  # rows of the atom-difference matrix that solve_moment_gap holds at once
# the largest rate Generator.poisson accepts (numpy's POISSON_LAM_MAX)
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
WILSON_Z = 1.959963984540054  # 95%

FINGERPRINT_NAMES = ("zeros", "singletons", "doubletons", "total")


class ParameterError(ValueError):
    """Requested parameter regime is infeasible for the construction."""


class PriorsError(RuntimeError):
    """The constructed prior pair violates its invariants."""


def moment_gap_value(nu: float, lam: float, L: int) -> float:
    """Closed form for the largest achievable E[1/X] - E[1/X'] over measure
    pairs on [1+nu, lam] with L-1 matched moments."""
    if nu <= 0 or lam <= 1 + nu:
        raise ValueError("need 0 < nu and lam > 1 + nu")
    if L < 2:
        raise ValueError("need L >= 2")
    rho = math.sqrt(lam / (1 + nu))
    base = (1 / math.sqrt(1 + nu) - 1 / math.sqrt(lam)) ** 2
    return base * ((rho - 1) / (rho + 1)) ** (L - 2)


def solve_moment_gap(nu: float, lam: float, L: int):
    """The gap program in closed form: maximize E[1/X] - E[1/X'] over
    probability measures X, X' on [1+nu, lam] with E[X^j] = E[X'^j] for
    j = 1..L-1. Returns (value, (atoms_x, mass_x), (atoms_x2, mass_x2)),
    atoms ascending.

    The optimal X - X' lives on the L+1 alternation points of the best
    uniform approximation to 1/x by polynomials of degree L-1. With
    [1+nu, lam] mapped to t in [-1, 1], c = (lam+1+nu)/(lam-1-nu) and
    r = c - sqrt(c^2-1), point k is t_k = -cos(theta_k), where theta_k solves
    L*theta - 2*arg(1 - r*e^{i*theta}) = k*pi on [0, pi]. The left side
    increases with theta and stays within pi of L*theta, so one bisection
    over all k at once finds every root. The weights are the divided-difference
    weights w_k = 1/prod_{j != k}(x_k - x_j), which annihilate every
    polynomial of degree below L; their signs alternate, the even points
    making up X and the odd ones X', each side normalized to mass 1.

    The value is a difference of two sums whose rounding error is about
    (L+1)*eps*S, eps the machine epsilon and S = E[1/X] + E[1/X'] =
    sum_k |w_k|/x_k. An L for which that exceeds MOMENT_REL_TOL times
    moment_gap_value(nu, lam, L) is beyond double precision and raises
    ParameterError, so every accepted L reproduces the closed-form gap to
    that relative tolerance. Both measures live on [1+nu, lam], so
    S >= 2/lam: an L that fails the rule with 2/lam for S is refused before
    any point is computed.
    """
    gap = moment_gap_value(nu, lam, L)

    def refuse_unresolved(S: float) -> None:
        bound = (L + 1) * np.finfo(float).eps * S
        if bound > MOMENT_REL_TOL * gap:
            raise ParameterError(f"L={L} is beyond double precision at nu={nu:g}, lambda={lam:g}: a rounding "
                                 f"error bound of at least {bound:.3g} is more than {MOMENT_REL_TOL:g} of "
                                 f"the gap {gap:.3g}")

    refuse_unresolved(2.0 / lam)
    lo, hi = 1 + nu, lam
    c = (hi + lo) / (hi - lo)
    r = c - math.sqrt(c * c - 1)
    target = np.arange(L + 1) * math.pi
    a = np.clip((target - math.pi) / L, 0.0, math.pi)
    b = np.clip((target + math.pi) / L, 0.0, math.pi)
    while (b - a).max() > np.spacing(math.pi):
        mid = 0.5 * (a + b)
        below = L * mid - 2 * np.arctan2(-r * np.sin(mid), 1 - r * np.cos(mid)) < target
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    t = -np.cos(0.5 * (a + b))
    x = 0.5 * (hi + lo) + 0.5 * (hi - lo) * t
    # |w_k| up to a common factor, from the differences 2(t_k - t_j) summed as
    # logs (a product of L differences can leave the double range), a block
    # of rows at a time so that memory stays O(L)
    log_w = np.empty(L + 1)
    for k in range(0, L + 1, LOG_W_BLOCK):
        diff = 2.0 * np.abs(t[k : k + LOG_W_BLOCK, None] - t)
        np.fill_diagonal(diff[:, k:], 1.0)
        log_w[k : k + LOG_W_BLOCK] = -np.log(diff).sum(axis=1)
    w = np.exp(log_w - log_w.max())
    big, far = ((x[k::2], w[k::2] / w[k::2].sum()) for k in (0, 1))
    inv_big, inv_far = big[1] @ (1.0 / big[0]), far[1] @ (1.0 / far[0])
    refuse_unresolved(inv_big + inv_far)
    return float(inv_big - inv_far), big, far


@dataclass(frozen=True)
class MomentPriors:
    """The prior pair (V, V') plus its construction parameters.

    gap is the construction's objective value (1/beta) * Pr[V' = 0]; it equals
    the expected distance of the far-side vector to 1/(beta*n)-bigness. The
    arrays are not to be modified once instances are drawn: atom_tables keeps
    what the draws read from them.
    """

    atoms_big: np.ndarray
    mass_big: np.ndarray
    atoms_far: np.ndarray
    mass_far: np.ndarray
    beta: float
    nu: float
    lam: float
    L: int
    gap: float

    def validate(self) -> None:
        """Enforce all invariants, raising PriorsError with residuals."""
        problems = []
        for name, atoms, mass in (
            ("big", self.atoms_big, self.mass_big),
            ("far", self.atoms_far, self.mass_far),
        ):
            if abs(mass.sum() - 1.0) > MASS_TOL:
                problems.append(f"{name} mass sums to {mass.sum()!r}")
            mean = float(atoms @ mass)
            if abs(mean - 1.0) > MEAN_TOL:
                problems.append(f"{name} mean is {mean!r}")
        lo = (1 + self.nu) / self.beta - 1e-12
        hi = self.lam / self.beta + 1e-12
        if np.any((self.atoms_big < lo) | (self.atoms_big > hi)):
            problems.append("big-side atom outside [(1+nu)/beta, lam/beta]")
        nz = self.atoms_far[self.atoms_far != 0.0]
        if np.any((nz < lo) | (nz > hi)):
            problems.append("far-side nonzero atom outside the interval")
        # Moments of the atoms / S, so no power overflows, under the rule |a - b| <=
        # MOMENT_REL_TOL * max(1, |a|) divided by S^j; a non-finite moment fails it.
        S = max(1.0, float(self.atoms_big.max(initial=0.0)), float(self.atoms_far.max(initial=0.0)))
        for j in range(1, self.L + 1):
            mj_big = float((self.atoms_big / S) ** j @ self.mass_big)
            mj_far = float((self.atoms_far / S) ** j @ self.mass_far)
            if not abs(mj_big - mj_far) <= MOMENT_REL_TOL * max(abs(mj_big), S**-j):
                problems.append(f"moment {j} of the atoms / {S!r} mismatch: {mj_big!r} vs {mj_far!r}")
        if self.gap > 0 and not (
            1 + self.nu - 1e-9 <= self.beta <= min(self.lam, 1.0 / self.gap) + 1e-9
        ):
            problems.append(f"beta {self.beta!r} outside [1+nu, min(lam, 1/gap)]")
        if problems:
            raise PriorsError("; ".join(problems))

    def zero_mass(self) -> float:
        return float(self.mass_far[self.atoms_far == 0.0].sum())

    @cached_property
    def atom_tables(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """(atoms, cdf) of the big and the far prior, cdf being what
        Generator.choice(k, p=mass/mass.sum()) draws the atom indices from.
        Built on the first draw and kept, so every instance drawn from these
        priors (each retry of a probe, say) reuses it."""
        return tuple(
            (atoms, choice_cdf(mass / mass.sum()))
            for atoms, mass in ((self.atoms_big, self.mass_big), (self.atoms_far, self.mass_far))
        )


def priors_from_gap_solution(nu, lam, L, atoms_x, mass_x, atoms_x2, mass_x2) -> MomentPriors:
    """Change of measure from a gap-program solution pair (X, X') to (V, V').

    beta = 1/E[1/X]; atom x maps to x/beta with mass beta*m(x)/x, which keeps
    the measure normalized and turns matched X-moments j-1 into matched
    V-moments j; the far side's missing mass 1 - beta*E[1/X'] sits at 0.
    """
    atoms_x = np.asarray(atoms_x, dtype=float)
    mass_x = np.asarray(mass_x, dtype=float)
    atoms_x2 = np.asarray(atoms_x2, dtype=float)
    mass_x2 = np.asarray(mass_x2, dtype=float)
    inv_mean_x = float(mass_x @ (1.0 / atoms_x))
    inv_mean_x2 = float(mass_x2 @ (1.0 / atoms_x2))
    beta = 1.0 / inv_mean_x
    atoms_big = atoms_x / beta
    mass_big = beta * mass_x / atoms_x
    zero_mass = 1.0 - beta * inv_mean_x2
    atoms_far = atoms_x2 / beta
    mass_far = beta * mass_x2 / atoms_x2
    if zero_mass > 1e-15:
        atoms_far = np.concatenate([[0.0], atoms_far])
        mass_far = np.concatenate([[zero_mass], mass_far])
    gap = (1.0 / beta) * max(zero_mass, 0.0)
    priors = MomentPriors(
        atoms_big=atoms_big,
        mass_big=mass_big,
        atoms_far=atoms_far,
        mass_far=mass_far,
        beta=beta,
        nu=float(nu),
        lam=float(lam),
        L=int(L),
        gap=gap,
    )
    priors.validate()
    return priors


def build_priors(nu: float, lam: float, L: int) -> MomentPriors:
    """The prior pair: the gap program's optimum in closed form
    (solve_moment_gap, which refuses an L beyond double precision with
    ParameterError), then the change of measure."""
    _, (ax, mx), (ax2, mx2) = solve_moment_gap(nu, lam, L)
    return priors_from_gap_solution(nu, lam, L, ax, mx, ax2, mx2)


@dataclass(frozen=True)
class ParameterAssignment:
    nu: float
    lam: float
    s: int
    gap: float
    rho: float
    L: int
    n: int
    eps: float


def assign_parameters(n: int, eps: float, L: int) -> ParameterAssignment:
    """The standard parameter tuple: nu = 1/2, lam from (eps, L), s = floor(L*n / (2*e*lam)).

    Feasibility guard: rho = sqrt(lam/(1+nu)) must be at least 1.5, which also
    guarantees gap >= 2*eps. Violations raise ParameterError with rho reported.
    """
    if n < 1:
        raise ParameterError("n must be positive")
    if not 0 < eps < 1.0 / 27:
        raise ParameterError("eps must lie in (0, 1/27) for the lam formula")
    nu = 0.5
    t = 4.0 * (L - 2) / math.log(1.0 / (27.0 * eps))
    if t <= 1.0:
        raise ParameterError(f"infeasible parameters: lam ratio t={t:.4g} <= 1 (rho degenerate)")
    lam = (1 + nu) * (t - 1.0) ** 2
    rho = math.sqrt(lam / (1 + nu))
    if rho < 1.5:
        raise ParameterError(f"infeasible parameters: rho={rho:.4g} < 1.5")
    s = int(math.floor(L * n / (2.0 * math.e * lam)))
    gap = moment_gap_value(nu, lam, L)
    if gap < 2 * eps:
        raise ParameterError(f"gap {gap:.4g} below 2*eps={2 * eps:.4g}")
    return ParameterAssignment(nu=nu, lam=lam, s=s, gap=gap, rho=rho, L=L, n=n, eps=eps)


@dataclass
class LBInstance:
    """One draw of the two-step process for both priors.

    norm_big and norm_far, the raw vectors normalized to distributions (None
    for a side with no mass), are built on first access and then kept.
    """

    n: int
    s: int
    raw_big: np.ndarray
    raw_far: np.ndarray
    zero_count: int
    hist_big: np.ndarray
    hist_far: np.ndarray
    event_big: bool
    event_far: bool
    p_max: float

    @cached_property
    def norm_big(self) -> Distribution | None:
        return Distribution.normalized(self.raw_big) if self.raw_big.sum() > 0 else None

    @cached_property
    def norm_far(self) -> Distribution | None:
        return Distribution.normalized(self.raw_far) if self.raw_far.sum() > 0 else None


def _poisson_counts(rates: np.ndarray, idx: np.ndarray, rng: Rng) -> np.ndarray:
    """Independent Poisson(rates[idx[i]]) counts, i = 0..n-1, drawn per atom.

    The members of an atom of rate r <= 1 draw their total T ~ Poisson(r * m)
    and share it out by T uniform picks: given T the counts are multinomial,
    so each is exactly Poisson(r) and independent of the others, and the
    picks number about r * m <= m. An atom of rate above 1 draws its m counts
    at once. The branch depends on r alone, never on a drawn value, so the
    law is exact, and memory stays O(n) at any rate. Atoms are visited in
    index order; a zero-rate atom draws nothing.
    """
    picks, direct = [], []
    for k in rates.nonzero()[0]:
        members = (idx == k).nonzero()[0]
        if members.size == 0:
            continue
        r = rates[k]
        if r <= 1.0:
            total = rng.gen.poisson(r * members.size)
            picks.append(members.take(rng.gen.integers(members.size, size=total)))
        else:
            direct.append((members, rng.gen.poisson(r, members.size)))
    if picks:
        counts = np.bincount(np.concatenate(picks), minlength=idx.size).astype(np.int64, copy=False)
    else:
        counts = np.zeros(idx.size, dtype=np.int64)
    for members, drawn in direct:
        counts[members] = drawn
    return counts


def generate_instance(priors: MomentPriors, n: int, s: int, rng: Rng) -> LBInstance:
    """Step 1 draws n i.i.d. prior weights per side; step 2 Poissonizes.

    The atom draws reproduce Generator.choice(k, size=n, p=mass/mass.sum())
    draw for draw, so a seed gives the same atoms as a choice-based draw.
    The counts are then drawn per atom (_poisson_counts), big side first:
    they follow the law of independent Poisson(s * w_i / n) draws, but not
    draw for draw what Generator.poisson over the n rates would give. At
    s = 0 nothing is drawn after the atoms. An s with s * max(atoms) above
    POISSON_LAM_MAX is a ValueError: that product bounds every rate, which
    the Poisson sampler takes up to that limit, and the mean count total,
    which must stay within int64.
    The normalized views norm_big and norm_far are built only when read.

    Event flags: the big side needs raw mass within nu of 1 and more than
    s(1-nu)/2 total samples; the far side additionally needs at least
    beta*n*gap/2 zero-weight elements.
    """
    if n < 1:
        raise ValueError(f"instance size n must be at least 1, got {n}")
    if s < 0:
        raise ValueError(f"sample rate s must be nonnegative, got {s}")
    (atoms_big, cdf_big), (atoms_far, cdf_far) = priors.atom_tables
    # s > limit / top is tested first: an s beyond a float's range cannot be
    # multiplied out
    top = max(float(atoms_big.max()), float(atoms_far.max())) if s > 0 else 0.0
    if top > 0 and (s > POISSON_LAM_MAX / top or s * top > POISSON_LAM_MAX):
        raise ValueError(f"sample rate s={s} at n={n} is too large: s*max(atoms) must be at most "
                         f"{POISSON_LAM_MAX:.17g}, numpy's Poisson limit, or a rate or a count total overflows")
    idx_big = choice_indices(cdf_big, n, rng)
    idx_far = choice_indices(cdf_far, n, rng)
    raw_big = (atoms_big / n).take(idx_big)
    raw_far = (atoms_far / n).take(idx_far)
    hist_big = _poisson_counts(s * (atoms_big / n), idx_big, rng)
    hist_far = _poisson_counts(s * (atoms_far / n), idx_far, rng)
    # numpy scalars, not floats: the event flags keep their numpy bool type
    mass_big, mass_far = raw_big.sum(), raw_far.sum()
    zero_count = int(np.count_nonzero(raw_far == 0.0))
    count_floor = s * (1 - priors.nu) / 2.0
    event_big = abs(mass_big - 1.0) <= priors.nu and hist_big.sum() > count_floor
    event_far = (
        abs(mass_far - 1.0) <= priors.nu
        and zero_count >= priors.beta * n * priors.gap / 2.0
        and hist_far.sum() > count_floor
    )
    # division by a positive total is monotone, so this is the largest
    # probability of the normalized views
    peaks = [raw.max() / mass for raw, mass in ((raw_big, mass_big), (raw_far, mass_far)) if mass > 0]
    return LBInstance(
        n=n,
        s=s,
        raw_big=raw_big,
        raw_far=raw_far,
        zero_count=zero_count,
        hist_big=hist_big,
        hist_far=hist_far,
        event_big=event_big,
        event_far=event_far,
        p_max=float(max(peaks, default=0.0)),
    )


def fingerprint_stats(hist: np.ndarray) -> tuple[int, int, int, int]:
    """(zero count, singleton count, doubleton count, total samples): the
    label-free summary a symmetric-property tester would look at."""
    return (
        int(np.count_nonzero(hist == 0)),
        int(np.count_nonzero(hist == 1)),
        int(np.count_nonzero(hist == 2)),
        int(hist.sum()),
    )


def _ks_advantage(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Best threshold-classifier advantage between two samples of one statistic
    and the chosen threshold's value."""
    thresholds = np.unique(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), thresholds, side="right") / a.size
    fb = np.searchsorted(np.sort(b), thresholds, side="right") / b.size
    gaps = np.abs(fa - fb)
    k = int(np.argmax(gaps))
    return float(gaps[k]), float(thresholds[k])


def _wilson_halfwidth(p_hat: float, m: int) -> float:
    z = WILSON_Z
    denom = 1 + z * z / m
    half = z * math.sqrt(p_hat * (1 - p_hat) / m + z * z / (4 * m * m)) / denom
    return half


@dataclass(frozen=True)
class ProbeRow:
    s: int
    kept_big: int
    kept_far: int
    best_stat: int
    advantage: float
    ci_half: float


def indistinguishability_probe(
    priors: MomentPriors,
    n: int,
    s_values,
    trials: int,
    rng: Rng,
    max_retries: int = 200,
) -> list[ProbeRow]:
    """Empirical one-sided probe of histogram indistinguishability.

    For every s, draws `trials` event-conditioned instances per side
    (rejection sampling; at s = 0 the sample-count clause is vacuous and only
    the raw-mass clause is enforced), then reports the best advantage any
    single fingerprint statistic achieves as a threshold classifier, with a
    Wilson 95% half-width. This lower-bounds the histogram TV distance; it
    cannot certify an upper bound. A trial whose events fail max_retries
    draws in a row raises ParameterError: the events are too rare at this n.
    So does, before any draw, a regime where the far side's z = ceil(beta*n*gap/2)
    zeros leave raw mass at most (n - z) * max(atoms_far) / n < 1 - nu.
    """
    s_values = [int(s) for s in s_values]
    if n < 1:
        raise ValueError(f"instance size n must be at least 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if max_retries < 1:
        raise ValueError(f"max_retries must be at least 1, got {max_retries}")
    if any(s < 0 for s in s_values):
        raise ValueError(f"sample rates must be nonnegative, got {s_values}")
    zeros = math.ceil(priors.beta * n * priors.gap / 2.0)
    top_mass = (n - zeros) * float(priors.atoms_far.max()) / n
    if top_mass < 1 - priors.nu:
        raise ParameterError(f"the far side's events cannot hold at n={n}: {zeros} of {n} elements at zero weight "
                             f"leave raw mass at most {top_mass:.6g} < 1 - nu = {1 - priors.nu:.6g}")
    rows = []
    stream = 1_000_000
    for s in s_values:
        stats_big = np.zeros((trials, 4))
        stats_far = np.zeros((trials, 4))
        kept_big = kept_far = 0
        for t in range(trials):
            got_big = got_far = False
            for attempt in range(max_retries):
                sub = rng.derive(stream)
                stream += 1
                inst = generate_instance(priors, n, s, sub)
                ok_big = inst.event_big or (s == 0 and abs(inst.raw_big.sum() - 1) <= priors.nu)
                ok_far = inst.event_far or (
                    s == 0
                    and abs(inst.raw_far.sum() - 1) <= priors.nu
                    and inst.zero_count >= priors.beta * n * priors.gap / 2.0
                )
                if not got_big and ok_big:
                    stats_big[t] = fingerprint_stats(inst.hist_big)
                    got_big = True
                if not got_far and ok_far:
                    stats_far[t] = fingerprint_stats(inst.hist_far)
                    got_far = True
                if got_big and got_far:
                    break
            if not (got_big and got_far):
                raise ParameterError(
                    f"event conditioning failed after {max_retries} retries at s={s}, n={n}: "
                    "the events are too rare at this size"
                )
            kept_big += 1
            kept_far += 1
        best_adv, best_stat, best_thr = -1.0, 0, 0.0
        for k in range(4):
            adv, thr = _ks_advantage(stats_big[:, k], stats_far[:, k])
            if adv > best_adv:
                best_adv, best_stat, best_thr = adv, k, thr
        pa = float(np.mean(stats_big[:, best_stat] <= best_thr))
        pb = float(np.mean(stats_far[:, best_stat] <= best_thr))
        ci = _wilson_halfwidth(pa, trials) + _wilson_halfwidth(pb, trials)
        rows.append(
            ProbeRow(
                s=s,
                kept_big=kept_big,
                kept_far=kept_far,
                best_stat=best_stat,
                advantage=best_adv,
                ci_half=ci,
            )
        )
    return rows
