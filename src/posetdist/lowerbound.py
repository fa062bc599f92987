"""Moment-matched prior pairs and the two-step histogram process.

The construction builds two priors V and V' over per-element probability
weights: both have mean 1 and identical first L moments, V is supported on
[(1+nu)/beta, lam/beta] while V' additionally puts mass at 0. Element i of a
size-n domain draws its raw weight from the prior; the raw vector w/n is
approximately a distribution, and a histogram of roughly s samples is drawn
as independent Poisson(s * w_i / n) counts.

Conditioned on the "good" events (raw mass near 1, enough samples, enough
zeros on the far side; at s = 0 no sample is drawn and the count clause holds
vacuously), the normalized V-side vector is 1/(beta*n)-big while the V'-side
vector is far from big by half the construction's gap value, yet the two
histogram laws are nearly indistinguishable. indistinguishability_probe checks
that empirically, drawing each side's fingerprint (zeros, ones, twos and total
of the counts) and event inputs from their law per atom, not per element: the
members of an atom of rate r = s*w/n up to RATE_TABLE_MAX are sorted by count
over a table of the Poisson(r) probabilities, cut where the mass left is
below 2^-53, in one multinomial with every other atom's; an atom of higher
rate draws each member's count. The gap optimum has a closed form
via best polynomial approximation of 1/x: moment_gap_value is its value, and
solve_moment_gap builds its atoms, the alternation points of that
approximation with divided-difference weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .poset import SizeCapError, _check_domain
from .prob import Distribution, Rng, choice_cdf, choice_indices
# Not called here: perfbench/spans.py's tracer wraps lowerbound.solve_lp by name.
from .simplex import solve_lp  # noqa: F401

MASS_TOL = 1e-9
MEAN_TOL = 1e-8
MOMENT_REL_TOL = 1e-8
LOG_W_BLOCK = 64  # rows of the atom-difference matrix that solve_moment_gap holds at once
# the largest rate Generator.poisson accepts (numpy's POISSON_LAM_MAX)
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
WILSON_Z = 2.497705474412374  # Phi^-1(1 - 0.05/8): 95% over the probe's four statistics, Bonferroni

MAX_RETRIES = 200  # draws indistinguishability_probe makes for one trial's events
# The highest rate at which the probe sorts an atom's members by count over a
# table of Poisson probabilities, not by one Poisson draw each. The table
# starts at e^-r, a normal double only up to r of about 708, and has about
# r + 8*sqrt(r) cells. At r = 64 (141 cells) a draw from it took 12 us at
# n = 10^4, as long as the Poisson draws of some 100 members (2-core Xeon,
# numpy 2.4), so the table pays for every atom with more members than that.
RATE_TABLE_MAX = 64.0
# The largest L that solve_moment_gap, and so build_priors, takes. build_priors
# takes time growing as L^2 in what the construction must do: the sum of L^2 log
# differences in solve_moment_gap and L products of each atom in validate. At
# L = 11250, nu in {0.1, 0.5, 2} and lam in {1e8, 1e12, 1e16}, it took 0.78 to
# 0.93 s (median of five alternating rounds; 2-core Xeon, numpy 2.4), and at
# 11500 up to 1.04 s.
MAX_L = 11250


class ParameterError(ValueError):
    """Requested parameter regime is infeasible for the construction."""


class PriorsError(RuntimeError):
    """The constructed prior pair violates its invariants."""


def moment_gap_value(nu: float, lam: float, L: int) -> float:
    """Closed form for the largest achievable E[1/X] - E[1/X'] over measure
    pairs on [1+nu, lam] with L-1 matched moments."""
    if not (0 < nu < math.inf and 1 + nu < lam < math.inf):
        raise ValueError(f"need finite nu > 0 and lambda > 1 + nu, got nu={nu}, lambda={lam}")
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
    c = (lam+1+nu)/(lam-1-nu), r = c - sqrt(c^2-1) and u = sin^2(theta/2),
    point k is x_k = 1+nu + (lam-1-nu)*u_k, where theta_k solves
    L*theta - 2*arg(1 - r*e^{i*theta}) = k*pi on [0, pi]. The left side
    increases with theta and stays within pi of L*theta, so theta_0 = 0,
    theta_L = pi, and one bisection over all k at once finds the others.
    At a large lam the low points crowd near theta = 0, where c - 1 and 1 - r
    are too small to take as differences: they are d = 2(1+nu)/(lam-1-nu)
    and sqrt(d(2+d)) - d, and 1 - r*cos(theta) is (1-r) + 2r*sin^2(theta/2). The
    weights are the divided-difference weights w_k = 1/prod_{j != k}(x_k - x_j),
    which annihilate every polynomial of degree below L; their signs
    alternate, the even points making up X and the odd ones X', each side
    normalized to mass 1.

    The value is a difference of two sums whose rounding error is about
    (L+1)*eps*S, eps the machine epsilon and S = E[1/X] + E[1/X'] =
    sum_k |w_k|/x_k. An L for which that exceeds MOMENT_REL_TOL times
    moment_gap_value(nu, lam, L) is beyond double precision and raises
    ParameterError, so every accepted L reproduces the closed-form gap to
    that relative tolerance. Both measures live on [1+nu, lam], so
    S >= 2/lam: an L that fails the rule with 2/lam for S is refused before
    any point is computed. So is a lam at which c rounds to 1, and then an
    L above MAX_L, as a SizeCapError: the log sum below is O(L^2), 0.5 s there.
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
    if (hi + lo) / (hi - lo) == 1.0:  # then r = 1 and alternation points coincide
        raise ParameterError(f"lambda={lam:g} is beyond double precision at nu={nu:g}: "
                             f"(lambda+1+nu)/(lambda-1-nu) rounds to 1")
    if L > MAX_L:
        raise SizeCapError(f"L={L} exceeds the limit of {MAX_L}")
    d = 2 * lo / (hi - lo)
    one_minus_r = math.sqrt(d * (2 + d)) - d
    r = 1 - one_minus_r
    target = np.arange(1, L) * math.pi  # the interior roots
    a, b = (target - math.pi) / L, (target + math.pi) / L
    while ((a < (mid := 0.5 * (a + b))) & (mid < b)).any():  # until no midpoint moves
        half_sin = np.sin(0.5 * mid)
        below = L * mid - 2 * np.arctan2(-r * np.sin(mid), one_minus_r + 2 * r * half_sin * half_sin) < target
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
    u = np.sin(0.5 * np.concatenate(([0.0], mid, [math.pi]))) ** 2
    x = np.minimum(lo + (hi - lo) * u, hi)  # the sum may round above hi
    # |w_k| up to a common factor, from the differences 4(u_k - u_j) summed as
    # logs (a product of L differences can leave the double range), a block
    # of rows at a time so that memory stays O(L)
    log_w = np.empty(L + 1)
    for k in range(0, L + 1, LOG_W_BLOCK):
        diff = 4.0 * np.abs(u[k : k + LOG_W_BLOCK, None] - u)
        np.fill_diagonal(diff[:, k:], 1.0)
        log_w[k : k + LOG_W_BLOCK] = -np.log(diff).sum(axis=1)
    w = np.exp(log_w - log_w.max())
    big, far = ((x[k::2], w[k::2] / w[k::2].sum()) for k in (0, 1))
    inv_big, inv_far = big[1] @ (1.0 / big[0]), far[1] @ (1.0 / far[0])
    refuse_unresolved(inv_big + inv_far)
    return float(inv_big - inv_far), big, far


def _moments(sides, L: int):
    """Each (atoms, mass) side's mass @ atoms**j for j = 1..L, by a running product, not L pows.
    A power below the smallest normal double is set to 0: subnormal products are slow, and
    the moments came out bit-identical at MAX_L."""
    tiny = np.finfo(float).tiny
    powers = [np.ones_like(a) for a, _ in sides]
    for _ in range(L):
        for p, (a, _) in zip(powers, sides):
            np.copyto(p, 0.0, where=np.multiply(p, a, out=p) < tiny)
        yield tuple(float(p @ m) for p, (_, m) in zip(powers, sides))


@dataclass(frozen=True, eq=False)
class MomentPriors:
    """The prior pair (V, V') plus its construction parameters.

    gap is the construction's objective value (1/beta) * Pr[V' = 0]; it equals
    the expected distance of the far-side vector to 1/(beta*n)-bigness.
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
        """Enforce all invariants, raising PriorsError with residuals: a
        breach, a moment miss included, is a bug in the construction."""
        problems = []
        for name, atoms, mass in (
            ("big", self.atoms_big, self.mass_big),
            ("far", self.atoms_far, self.mass_far),
        ):
            if abs(mass.sum() - 1.0) > MASS_TOL:
                problems.append(f"{name} mass sums to {float(mass.sum())!r}")
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
        sides = ((self.atoms_big / S, self.mass_big), (self.atoms_far / S, self.mass_far))
        for j, (mj_big, mj_far) in enumerate(_moments(sides, self.L), 1):
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


def priors_from_gap_solution(nu, lam, L, atoms_x, mass_x, atoms_x2, mass_x2) -> MomentPriors:
    """Change of measure from a gap-program solution pair (X, X') to (V, V').

    beta = 1/E[1/X]; atom x maps to x/beta with mass beta*m(x)/x, which keeps
    the measure normalized and turns matched X-moments j-1 into matched
    V-moments j; the far side's missing mass 1 - beta*E[1/X'] sits at 0.
    """
    atoms_x, mass_x, atoms_x2, mass_x2 = (np.asarray(v, dtype=float) for v in (atoms_x, mass_x, atoms_x2, mass_x2))
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
    ParameterError and then one above MAX_L with SizeCapError), then the
    change of measure, checked by validate. Each step is O(L^2): at MAX_L
    the gap program took about 0.4 s and validate's moments about 0.2 s."""
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


def _check_size(n: int) -> None:
    """An instance has 1..MAX_DOMAIN elements, the vertex cap of read_poset."""
    if n < 1:
        raise ValueError(f"instance size n must be at least 1, got {n}")
    _check_domain(n, "instance elements")


def assign_parameters(n: int, eps: float, L: int) -> ParameterAssignment:
    """The standard parameter tuple: nu = 1/2, lam from (eps, L), s = floor(L*n / (2*e*lam)).

    Feasibility guard: rho = sqrt(lam/(1+nu)) must be at least 1.5, which also
    guarantees gap >= 2*eps. Violations raise ParameterError with rho reported;
    an n outside 1..MAX_DOMAIN or an eps that is not a finite number above 0
    is a ValueError, as in generate_instance.
    """
    _check_size(n)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be a finite number above 0, got {eps!r}")
    if eps >= 1.0 / 27:
        raise ParameterError("eps must lie in (0, 1/27) for the lam formula")
    nu = 0.5
    t = 4.0 * (L - 2) / math.log(1.0 / (27.0 * eps))
    if t <= 1.0:
        raise ParameterError(f"lam ratio t={t:.4g} <= 1 (rho degenerate)")
    lam = (1 + nu) * (t - 1.0) ** 2
    rho = math.sqrt(lam / (1 + nu))
    if rho < 1.5:
        raise ParameterError(f"rho={rho:.4g} < 1.5")
    s = int(math.floor(L * n / (2.0 * math.e * lam)))
    gap = moment_gap_value(nu, lam, L)
    if gap < 2 * eps:
        raise ParameterError(f"gap {gap:.4g} below 2*eps={2 * eps:.4g}")
    return ParameterAssignment(nu=nu, lam=lam, s=s, gap=gap, rho=rho, L=L, n=n, eps=eps)


@dataclass(eq=False)
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


def _check_draws(priors: MomentPriors, n: int, s_values) -> tuple[np.ndarray, np.ndarray]:
    """The choice_cdf of each side's masses, once a draw at n and each s of
    s_values is known to be possible. A ValueError refuses an n outside
    1..MAX_DOMAIN, masses that choice_cdf refuses, a negative s, and an s
    with s * max(atoms) above POISSON_LAM_MAX, which bounds every rate the
    Poisson sampler takes and keeps the mean count total within int64 (an s
    beyond a float's range is compared as s > POISSON_LAM_MAX / max(atoms))."""
    _check_size(n)
    cdfs = tuple(choice_cdf(mass / mass.sum()) for mass in (priors.mass_big, priors.mass_far))
    top = max(float(priors.atoms_big.max()), float(priors.atoms_far.max()))
    for s in s_values:
        if s < 0:
            raise ValueError(f"sample rates must be nonnegative, got s={s}")
        if s > 0 and top > 0 and (s > POISSON_LAM_MAX / top or s * top > POISSON_LAM_MAX):
            raise ValueError(f"sample rate s={s} at n={n} is too large: s*max(atoms) must be at most "
                             f"{POISSON_LAM_MAX:.17g}, numpy's Poisson limit, or a rate or a count total overflows")
    return cdfs


def _event(priors: MomentPriors, n: int, s: int, mass, total, zero_count=None) -> bool:
    """The good event of one side, a Python bool: raw mass within nu of 1
    and more than s(1-nu)/2 total samples and, on the far side (the one
    given its zero_count), at least beta*n*gap/2 zero-weight elements. At
    s = 0 no sample is drawn, so the count clause holds vacuously and only
    the other clauses decide."""
    held = abs(mass - 1.0) <= priors.nu and (s == 0 or total > s * (1 - priors.nu) / 2.0)
    if zero_count is not None:
        held = held and zero_count >= priors.beta * n * priors.gap / 2.0
    return bool(held)


def _poisson_counts(rates: np.ndarray, idx: np.ndarray, rng: Rng) -> tuple[np.ndarray, np.int64, np.ndarray]:
    """Independent Poisson(rates[idx[i]]) counts, i = 0..n-1, drawn per atom;
    returns the counts, their total and each atom's member count.

    The members of an atom of rate r <= 1 draw their total T ~ Poisson(r * m)
    and share it out by T uniform picks: given T the counts are multinomial,
    so each is exactly Poisson(r) and independent of the others, and the
    picks number about r * m <= m. An atom of rate above 1 draws its m counts
    at once. The branch depends on r alone, never on a drawn value, so the
    law is exact, and memory stays O(n) at any rate. Atoms are visited in
    index order. An atom's members are listed once, from idx in whatever
    integer dtype it comes, and dropped once its counts are drawn; a
    zero-rate atom draws nothing, and its members are only counted. The
    total is the sum of the drawn totals, an int64 like the counts' sum.
    """
    sizes = np.empty(rates.size, dtype=np.intp)
    total = np.int64(0)
    picks, direct = [], []
    for k, r in enumerate(rates):
        if r == 0:
            sizes[k] = np.count_nonzero(idx == k)
            continue
        members = (idx == k).nonzero()[0]
        sizes[k] = m = members.size
        if m == 0:
            continue
        if r <= 1.0:
            drawn = rng.gen.poisson(r * m)
            picks.append(members.take(rng.gen.integers(m, size=drawn)))
        else:
            each = rng.gen.poisson(r, m)
            direct.append((members, each))
            drawn = each.sum()
        total += drawn
    if picks:
        counts = np.bincount(np.concatenate(picks), minlength=idx.size).astype(np.int64, copy=False)
    else:
        counts = np.zeros(idx.size, dtype=np.int64)
    for members, drawn in direct:
        counts[members] = drawn
    return counts, total, sizes


def generate_instance(priors: MomentPriors, n: int, s: int, rng: Rng) -> LBInstance:
    """Step 1 draws n i.i.d. prior weights per side; step 2 Poissonizes.

    The atom draws reproduce Generator.choice(k, size=n, p=mass/mass.sum())
    draw for draw, so a seed gives the same atoms as a choice-based draw;
    the atom index stays in cdf_count's narrow dtype and is widened only for
    the take that builds the raw vector. The counts are then drawn per atom
    (_poisson_counts), big side first: they follow the law of independent
    Poisson(s * w_i / n) draws, but not draw for draw what Generator.poisson
    over the n rates would give. At s = 0 nothing is drawn after the atoms.
    Each n-length output is built once and never re-scanned except for the
    raw masses (their pairwise sums fix the bits of p_max): the count totals
    are the sums of the drawn totals, zero_count the member count of the
    zero-valued atoms, and the peak the largest atom value with members.
    What _check_draws refuses is a ValueError, raised before any draw.
    The normalized views norm_big and norm_far are built only when read.
    The event flags are _event's, Python bools.
    """
    cdf_big, cdf_far = _check_draws(priors, n, [s])
    idx_big = choice_indices(cdf_big, n, rng)
    idx_far = choice_indices(cdf_far, n, rng)
    values_big, values_far = priors.atoms_big / n, priors.atoms_far / n
    # take would widen a narrow index itself, and more slowly
    raw_big = values_big.take(idx_big.astype(np.intp, copy=False))
    raw_far = values_far.take(idx_far.astype(np.intp, copy=False))
    hist_big, total_big, sizes_big = _poisson_counts(s * values_big, idx_big, rng)
    hist_far, total_far, sizes_far = _poisson_counts(s * values_far, idx_far, rng)
    # the pairwise sums fix the bits of the masses and so of p_max
    mass_big, mass_far = raw_big.sum(), raw_far.sum()
    zero_count = int(sizes_far[values_far == 0.0].sum())
    event_big = _event(priors, n, s, mass_big, total_big)
    event_far = _event(priors, n, s, mass_far, total_far, zero_count)
    # the largest raw weight is the largest atom value with members, and
    # division by a positive total is monotone, so this is the largest
    # probability of the normalized views
    peaks = [values[sizes > 0].max() / mass
             for values, sizes, mass in ((values_big, sizes_big, mass_big), (values_far, sizes_far, mass_far))
             if mass > 0]
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


def _ks_advantage(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """Best threshold-classifier advantage between two samples of one statistic
    and, at the chosen threshold, the share of each sample at or below it."""
    # sort and mask: a plain np.unique imports numpy.ma on its first call
    pooled = np.sort(np.concatenate([a, b]))
    fresh = np.ones(pooled.size, dtype=bool)
    fresh[1:] = pooled[1:] != pooled[:-1]
    thresholds = pooled[fresh]
    fa = np.searchsorted(np.sort(a), thresholds, side="right") / a.size
    fb = np.searchsorted(np.sort(b), thresholds, side="right") / b.size
    gaps = np.abs(fa - fb)
    k = int(np.argmax(gaps))
    return float(gaps[k]), float(fa[k]), float(fb[k])


def _wilson_halfwidth(p_hat: float, m: int) -> float:
    z = WILSON_Z
    return z * math.sqrt(p_hat * (1 - p_hat) / m + z * z / (4 * m * m)) / (1 + z * z / m)


@dataclass(frozen=True)
class ProbeRow:
    s: int
    kept_big: int
    kept_far: int
    best_stat: int
    advantage: float
    ci_half: float


@dataclass(frozen=True, eq=False)
class _SideLaw:
    """One side's fingerprint law at one (n, s), as _draw_side reads it.

    An atom of rate r <= RATE_TABLE_MAX has one cell per count k = 0..K of
    _count_table(r), its members with a count of k; an atom of higher rate
    has one cell, whose members draw their counts one by one. The cell sizes
    are Multinomial(n, prob), prob ascending so that numpy's sequential
    binomials take each cell's share of a remainder at least as large as the
    cell. A tally row is what a member of the cell adds to (zeros, ones,
    twos, count total, zero-weight members) before its own draw, if any."""

    n: int
    prob: np.ndarray
    tally: np.ndarray
    values: np.ndarray  # a member's raw weight, atom / n
    high: np.ndarray  # the cells of the atoms of rate above RATE_TABLE_MAX
    high_rates: np.ndarray


def _count_table(r: float) -> np.ndarray:
    """Poisson(r) probabilities of the counts 0..K, for 0 <= r <=
    RATE_TABLE_MAX, by the product recursion p_k = p_(k-1) * r/k from
    p_0 = e^-r, with no cancellation. Past k >= r each term is at most
    r/(k+1) of the one before, so p_k * r/(k+1-r) bounds the mass after k:
    the table ends at the first such k where that bound is below 2^-53, and
    its largest entry takes the remainder, so the entries sum to 1."""
    pmf, k = [math.exp(-r)], 0
    while k + 1 <= r or pmf[-1] * r >= 2.0**-53 * (k + 1 - r):
        k += 1
        pmf.append(pmf[-1] * r / k)
    pmf = np.array(pmf)
    pmf[pmf.argmax()] += 1.0 - pmf.sum()
    return pmf


def _side_law(atoms: np.ndarray, mass: np.ndarray, n: int, s: int) -> _SideLaw:
    """The _SideLaw of the prior (atoms, mass) at (n, s): an atom of rate
    r = s * atom / n up to RATE_TABLE_MAX spreads its mass over the counts
    of _count_table(r); one above it keeps its mass in one cell."""
    values = atoms / n
    rates = s * values
    high = rates > RATE_TABLE_MAX
    tables = [np.ones(1) if above else _count_table(r) for r, above in zip(rates, high)]
    atom = np.repeat(np.arange(atoms.size), [table.size for table in tables])
    count = np.concatenate([np.arange(table.size) for table in tables])
    prob = mass[atom] / mass.sum() * np.concatenate(tables)
    order = np.argsort(prob, kind="stable")
    atom, count, prob = atom[order], count[order], prob[order]
    tally = np.stack([count == 0, count == 1, count == 2, count, values[atom] == 0], axis=1).astype(np.int64)
    drawn = high[atom]
    tally[drawn, :4] = 0
    return _SideLaw(n=n, prob=prob, tally=tally, values=values[atom], high=np.flatnonzero(drawn),
                    high_rates=rates[atom[drawn]])


def _draw_side(law: _SideLaw, gen: np.random.Generator) -> tuple[np.ndarray, float, int]:
    """One side's fingerprint (zeros, ones, twos, count total), raw mass and
    zero count, drawn from their law: one multinomial over law's cells, then
    a Poisson draw for each member of an atom of rate above RATE_TABLE_MAX."""
    cells = gen.multinomial(law.n, law.prob)
    tally = cells @ law.tally
    if law.high.size:
        drawn = gen.poisson(law.high_rates.repeat(cells[law.high]))
        tally[3] += drawn.sum()
        tally[:3] += np.bincount(drawn[drawn < 3], minlength=3)
    return tally[:4], float(cells @ law.values), int(tally[4])


def indistinguishability_probe(
    priors: MomentPriors,
    n: int,
    s_values,
    trials: int,
    rng: Rng,
) -> list[ProbeRow]:
    """Empirical one-sided probe of histogram indistinguishability.

    For every s, draws `trials` event-conditioned fingerprints per side,
    then reports the best advantage any single fingerprint statistic
    achieves as a threshold classifier, and ci_half, the sum of the two
    sides' Wilson half-widths at that threshold with WILSON_Z, Bonferroni
    over the four statistics. The best of four is biased upward (with one
    prior on both sides, so a true advantage of 0, its median was about 0.09
    at n = 10^4 and 200 trials), so advantage alone bounds nothing;
    advantage - ci_half lower-bounds the histogram TV distance at about 95%
    (it was positive in 4.5-5.0% of such same-prior runs). The probe cannot
    certify an upper bound.

    A side's fingerprint (zeros, ones, twos and total of its counts), raw
    mass and zero count are drawn from their law per atom (_draw_side), with
    a per-member array only for the counts drawn one by one: one multinomial
    sorts the members of every atom of rate r = s*atom/n at most
    RATE_TABLE_MAX by count, over the Poisson(r) probabilities of
    _count_table, which stop where the mass left is below 2^-53; each member
    of an atom of higher rate draws its Poisson(r) count. That is the law of
    generate_instance's fingerprints and event inputs, not its draws.

    Each s derives one stream from rng, the i-th s stream 1_000_000 + i, so
    a row does not depend on the retries of the rows before it. Its attempts
    draw from that stream in turn, the sides still needing a trial's
    fingerprint big side first; a side keeps its first draw whose event
    (_event, as in generate_instance) holds. A trial whose
    events fail MAX_RETRIES attempts in a row raises ParameterError: the
    events are too rare at this n. So does, before any draw, a regime where
    the far side's z = ceil(beta*n*gap/2) zeros leave raw mass at most
    (n - z) * max(atoms_far) / n < 1 - nu; what _check_draws refuses, as
    in generate_instance, is refused before any draw too.
    """
    s_values = [int(s) for s in s_values]
    _check_draws(priors, n, s_values)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _check_domain(trials, "trials")  # before the statistics, 64 bytes a trial, are allocated
    zeros = math.ceil(priors.beta * n * priors.gap / 2.0)
    top_mass = (n - zeros) * float(priors.atoms_far.max()) / n
    if top_mass < 1 - priors.nu:
        raise ParameterError(f"the far side's events cannot hold at n={n}: {zeros} of {n} elements at zero weight "
                             f"leave raw mass at most {top_mass:.6g} < 1 - nu = {1 - priors.nu:.6g}")
    rows = []
    for i, s in enumerate(s_values):
        laws = (_side_law(priors.atoms_big, priors.mass_big, n, s), _side_law(priors.atoms_far, priors.mass_far, n, s))
        gen = rng.derive(1_000_000 + i).gen
        stats = np.zeros((2, trials, 4))
        for t in range(trials):
            need = [True, True]
            for _ in range(MAX_RETRIES):
                for side in (0, 1):
                    if need[side]:
                        fingerprint, mass, zero_count = _draw_side(laws[side], gen)
                        if _event(priors, n, s, mass, int(fingerprint[3]), zero_count if side else None):
                            stats[side, t] = fingerprint
                            need[side] = False
                if not any(need):
                    break
            else:
                raise ParameterError(
                    f"event conditioning failed after {MAX_RETRIES} retries at s={s}, n={n}: "
                    "the events are too rare at this size"
                )
        best_adv, best_stat, pa, pb = -1.0, 0, 0.0, 0.0
        for k in range(4):
            adv, fa, fb = _ks_advantage(stats[0, :, k], stats[1, :, k])
            if adv > best_adv:
                best_adv, best_stat, pa, pb = adv, k, fa, fb
        ci = _wilson_halfwidth(pa, trials) + _wilson_halfwidth(pb, trials)
        rows.append(ProbeRow(s=s, kept_big=trials, kept_far=trials, best_stat=best_stat, advantage=best_adv,
                             ci_half=ci))
    return rows
