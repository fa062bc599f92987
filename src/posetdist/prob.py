"""Distributions, seeded sampling, pair histograms.

All randomness flows through Rng, a thin wrapper over numpy's PCG64 keyed by
(seed, stream): the same key always replays the same draw sequence, and each
tester trial or probe row that needs its own draws derives its own stream.

Sample access is the law of the counts: for i.i.d. samples the count
vector is a sufficient statistic, so SampleAccess.histogram is the one
sampling method a subclass implements (ExactDistAccess draws the counts as
one multinomial, in O(n) whatever s is). The count that lands in a set is
Binomial(s, q(set)); SampleAccess.count_in draws it, by default as the sum of
a histogram over the set, and a subclass that knows q(set) draws the one
binomial instead.

A PairHistogram is three numpy arrays x, y, count sorted by (x, y) with unique
keys and no (0, 0) key; building one, equal keys merged, takes array
operations (a sort and a bincount), never a loop over keys.
"""

from __future__ import annotations

import io
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SUM_TOL = 1e-9

# The readers parse a file in one pass, in blocks of whole lines of about
# this many characters each (fh.readlines(READ_BLOCK)), so what a read holds
# besides its result is bounded by a block, not by the file. Line numbers
# are counted only for a block that holds a fault.
READ_BLOCK = 1 << 18
# The writers format this many lines per write, so the text they hold stays
# bounded whatever the length of what they write.
_WRITE_CHUNK = 1 << 16


class Rng:
    """Reproducible random source keyed by a seed and a stream, integers in [0, 2^64)."""

    def __init__(self, seed: int, stream: int = 0):
        try:  # operator.index, not int: a float or a string is refused, a numpy integer taken
            self.seed, self.stream = operator.index(seed), operator.index(stream)
        except TypeError:
            raise ValueError(f"seed and stream must be integers, got {seed!r} and {stream!r}") from None
        for name, key in (("seed", self.seed), ("stream", self.stream)):
            if not 0 <= key < 1 << 64:
                raise ValueError(f"{name} must lie in [0, 2^64), got {key}")
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def derive(self, stream: int) -> "Rng":
        """Fresh Rng on the same seed with an independent stream."""
        return Rng(self.seed, stream)

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream})"


def _check_finite(v: np.ndarray) -> None:
    """Refuse a probability vector with a nan or infinite entry."""
    if not np.all(np.isfinite(v)):
        raise ValueError("distribution has non-finite entries")


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over 0..n-1: entries >= 0, total within 1e-9 of 1."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)  # own copy: callers keep theirs writable
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("distribution must be a nonempty vector")
        _check_finite(p)
        if np.any(p < 0):
            raise ValueError("distribution has negative entries")
        with np.errstate(over="ignore"):  # finite entries may sum to inf
            total = p.sum()
        if abs(float(total) - 1.0) > SUM_TOL:
            raise ValueError(f"distribution sums to {total!r}, not 1")

    @property
    def n(self) -> int:
        return self.probs.size

    @cached_property
    def _half_uniform(self) -> "Distribution":  # p/2 + u/2, kept for the matching tester's trials
        return Distribution(0.5 * self.probs + 0.5 / self.n)

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n: int, i: int) -> "Distribution":
        p = np.zeros(n)
        p[i] = 1.0
        return cls(p)

    @classmethod
    def normalized(cls, vec) -> "Distribution":
        v = np.asarray(vec, dtype=float)
        _check_finite(v)
        with np.errstate(over="ignore"):
            total = float(v.sum())
        if total <= 0:
            raise ValueError("cannot normalize a vector with no mass")
        if total == math.inf:
            raise ValueError("cannot normalize a vector whose total overflows")
        return cls(v / total)


class PairHistogram:
    """Finite map (x, y) -> count: how many domain elements carry mass x in the
    first vector and y in the second. (0, 0) keys are excluded; counts may be
    fractional.

    Stored as three read-only float arrays x, y, count, sorted by (x, y) with
    unique keys. The constructor takes a mapping or (key, count) pairs and
    rejects (0, 0), duplicate keys and counts that are not positive;
    from_arrays builds one from weighted key arrays, dropping (0, 0) and
    merging equal keys.
    """

    def __init__(self, support):
        pairs = support.items() if isinstance(support, Mapping) else support
        rows = [(float(k[0]), float(k[1]), float(c)) for k, c in pairs]
        x, y, count = np.array(rows, dtype=float).reshape(-1, 3).T
        if np.any((x == 0.0) & (y == 0.0)):
            raise ValueError("(0, 0) is excluded from pair-histogram support")
        h = PairHistogram.from_arrays(x, y, count)
        if h.x.size != x.size:
            raise ValueError("pair-histogram support has duplicate keys")
        self.x, self.y, self.count = h.x, h.y, h.count

    @classmethod
    def from_arrays(cls, x, y, count) -> "PairHistogram":
        """Histogram of the weighted keys (x[i], y[i]) -> count[i].

        (0, 0) keys are dropped and equal keys merged; a merged count is the
        sum of its parts in input order, as a dict accumulating the keys one
        by one would give it.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        count = np.asarray(count, dtype=float)
        if not x.shape == y.shape == count.shape or x.ndim != 1:
            raise ValueError("from_arrays needs three equal-length vectors")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("pair-histogram keys must be finite")
        bad = ~((count > 0) & np.isfinite(count))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"count at {(float(x[k]), float(y[k]))} must be positive and finite")
        keep = (x != 0.0) | (y != 0.0)
        x, y, count = x[keep], y[keep], count[keep]
        order = np.lexsort((y, x))  # stable: equal keys keep their input order
        xs, ys = x[order], y[order]
        first = np.ones(xs.size, dtype=bool)
        first[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
        group = np.empty(xs.size, dtype=np.intp)
        group[order] = np.cumsum(first) - 1
        h = cls.__new__(cls)
        h.x, h.y = xs[first], ys[first]
        h.count = np.bincount(group, weights=count, minlength=int(first.sum()))
        for a in (h.x, h.y, h.count):
            a.flags.writeable = False
        return h

    @property
    def support(self) -> dict:
        """(x, y) -> count as a new dict, in key order."""
        return dict(self.items())

    def total(self) -> float:
        return float(self.count.sum())

    def items(self):
        """Support in deterministic (x, y) order."""
        return list(zip(zip(self.x.tolist(), self.y.tolist()), self.count.tolist()))

    def __eq__(self, other):
        return (
            isinstance(other, PairHistogram)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.count, other.count)
        )

    def __repr__(self):
        return f"PairHistogram({self.items()})"


# Generator.choice's tolerance on the total of its probabilities
_CHOICE_ATOL = math.sqrt(np.finfo(float).eps)
# Up to this many cdf entries, one vectorized comparison per entry counts
# faster than a binary search per draw (10^6 draws, 2-core Xeon, numpy 2.4:
# 2 ms against 14 ms at 4 entries, 29 ms against 47 ms at 64)
_COUNT_MAX = 64


def choice_cdf(p) -> np.ndarray:
    """The normalized cumulative probabilities that Generator.choice(len(p),
    p=p) draws from, after the checks that choice makes on p."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or not np.all(np.isfinite(p)) or np.any(p < 0) or abs(p.sum() - 1.0) > _CHOICE_ATOL:
        raise ValueError("probabilities must be a finite nonnegative vector that sums to 1")
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


def choice_indices(cdf: np.ndarray, size: int | None, rng: Rng) -> np.ndarray:
    """Generator.choice(cdf.size, size, p=p) for cdf = choice_cdf(p): the same
    indices, in cdf_count's dtype, and the same generator state after. Each
    draw takes one uniform."""
    return cdf_count(cdf, rng.gen.random(size))


def cdf_count(cdf: np.ndarray, u) -> np.ndarray:
    """The index that Generator.choice draws from cdf with uniform u: the
    number of cdf entries at or below u. The last entry is 1.0, above every
    uniform, so it is never counted. Up to _COUNT_MAX entries the index comes
    as uint8, the dtype it is counted in; a caller that needs intp widens it
    once, where it needs it."""
    if cdf.size > _COUNT_MAX:
        return np.searchsorted(cdf, u, side="right")
    # each comparison's booleans are added as their bytes, so nothing is
    # cast; the first comparison starts the count (u >= 1.0 is all False)
    idx = np.asarray(u >= cdf[0]).view(np.uint8)
    for c in cdf[1:-1]:
        idx += np.asarray(u >= c).view(np.uint8)
    return idx


def pair_histogram(p1, p2) -> PairHistogram:
    """Exact pair histogram of two equal-length nonnegative vectors (-0.0
    counts as nonnegative)."""
    a = np.asarray(p1, dtype=float)
    b = np.asarray(p2, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("pair_histogram needs two equal-length vectors")
    if (a < 0).any() or (b < 0).any():
        raise ValueError("pair_histogram needs nonnegative entries")
    return PairHistogram.from_arrays(a, b, np.ones(a.size))


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance (half the l1 gap)."""
    if p.n != q.n:
        raise ValueError("distributions have different lengths")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


class SampleAccess:
    """Sample-only access to an unknown distribution over 0..n-1: a subclass
    implements histogram(s, rng), the int64 counts of s i.i.d. draws, and
    may override count_in with a draw of the same law. The testers and the
    library's wrapping accesses refuse a draw that breaks this contract
    (see _drawn)."""

    n: int

    def histogram(self, s: int, rng: Rng) -> np.ndarray:
        raise NotImplementedError

    def count_in(self, mask, s: int, rng: Rng) -> int:
        """How many of s i.i.d. draws land in mask, a boolean vector of
        length n: the sum of histogram(s, rng) over mask."""
        mask = self._mask(mask, s)
        return int(self.histogram(s, rng)[mask].sum())

    def _mask(self, mask, s: int) -> np.ndarray:
        """mask as an array, after count_in's checks on it and on s."""
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (self.n,):
            raise ValueError(f"count_in needs a boolean mask of length n={self.n}")
        self._check_count(s)
        return mask

    @staticmethod
    def _check_count(s: int) -> None:
        if s < 0:
            raise ValueError("sample count must be nonnegative")


class ExactDistAccess(SampleAccess):
    """Sample access backed by an explicitly known distribution."""

    def __init__(self, dist: Distribution):
        self.dist = dist
        self.n = dist.n

    def histogram(self, s: int, rng: Rng) -> np.ndarray:
        """The counts of s i.i.d. draws, drawn at once as a multinomial.
        numpy refuses an entry above 1, or a total of all but the last entry
        above 1 + 1e-12, which a total within SUM_TOL of 1 may have; only then
        are the draws taken from probs / probs.sum(). A refused call draws
        nothing, so the generator state is the same either way."""
        self._check_count(s)
        try:
            counts = rng.gen.multinomial(int(s), self.dist.probs)
        except ValueError:
            counts = rng.gen.multinomial(int(s), self.dist.probs / self.dist.probs.sum())
        return counts.astype(np.int64, copy=False)

    def count_in(self, mask, s: int, rng: Rng) -> int:
        """The count in mask as one Binomial(s, p(mask)) draw, p(mask)
        clipped at 1 (a distribution's total may exceed 1 by SUM_TOL)."""
        mask = self._mask(mask, s)
        return int(rng.gen.binomial(int(s), min(1.0, float(self.dist.probs[mask].sum()))))


def _drawn(access: SampleAccess, s: int, rng: Rng, mask=None):
    """access.histogram(s, rng), or with a mask access.count_in(mask, s,
    rng), checked as a draw of s samples: n integer counts, none negative,
    totalling s, or one count in [0, s]. An access of exactly type
    ExactDistAccess draws from numpy and skips the check."""
    drawn = access.histogram(s, rng) if mask is None else access.count_in(mask, s, rng)
    if type(access) is ExactDistAccess:
        return drawn
    if mask is not None:
        if not 0 <= drawn <= s:
            raise ValueError(f"sample access counted {drawn} of {s} samples in a mask")
        return drawn
    counts = np.asarray(drawn)
    if not np.issubdtype(counts.dtype, np.integer) or counts.shape != (access.n,):
        raise ValueError(
            f"sample access drew {counts.dtype} counts of shape {counts.shape}, not n={access.n} integer counts"
        )
    if (counts < 0).any():
        raise ValueError(f"sample access drew a negative count from a budget of {s} samples")
    total = counts.sum()
    if total != s:
        raise ValueError(f"sample access drew a total of {total} from a budget of {s} samples")
    return counts


def _blocks(path, error: type[ValueError] = ValueError):
    """The lines of a UTF-8 text file, as iterating open(path, encoding="utf-8")
    yields them, in lists of about READ_BLOCK characters. The first byte that
    is not UTF-8 raises `error` naming the file, line and column once every
    line before its own has been yielded, whatever the block size; only then
    is the file opened a second time."""
    done = 0  # lines yielded
    try:
        with open(path, "r", encoding="utf-8") as fh:
            while lines := fh.readlines(READ_BLOCK):
                yield lines
                done += len(lines)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lines = io.StringIO(data[: exc.start].decode("utf-8"), newline=None).readlines()
            part = lines.pop() if lines and not lines[-1].endswith("\n") else ""
            yield lines[done:]
            raise error(f"{path}:{len(lines) + 1}: not UTF-8 text: byte 0x{data[exc.start]:02x} "
                        f"at column {len(part) + 1}") from None
        raise


def _content(lines, start: int | None = None) -> list:
    """The stripped lines that are neither blank nor '#' comments; given the
    number `start` of the first line, each as (line number, stripped line)."""
    toks = map(str.strip, lines)
    if start is None:
        return [t for t in toks if t and t[0] != "#"]
    return [(k, t) for k, t in enumerate(toks, start) if t and t[0] != "#"]


def read_distribution(path) -> Distribution:
    """One decimal probability per line; the sum is validated.

    Blank and '#' lines are skipped; errors name the file, and a bad token
    or byte also the 1-based line. One pass raises the first fault in file
    order. float() runs over a block's raw lines at once, since it strips
    what str.strip strips; only a block where that fails is stripped and
    read line by line (a float token is never blank and never starts with
    '#').
    """
    parts, start = [], 1  # start: the number of the block's first line
    for lines in _blocks(path):
        try:
            parts.append(np.fromiter(map(float, lines), float, len(lines)))
        except ValueError:
            vals = []
            for k, tok in _content(lines, start):
                try:
                    vals.append(float(tok))
                except ValueError:
                    raise ValueError(f"{path}:{k}: not a number: {tok!r}") from None
            parts.append(np.array(vals, dtype=float))
        start += len(lines)
    try:
        return Distribution(np.concatenate(parts) if parts else np.empty(0))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_distribution(p: Distribution, path) -> None:
    """One repr'd probability per line, written _WRITE_CHUNK lines at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(0, p.n, _WRITE_CHUNK):
            fh.write("\n".join(map(repr, p.probs[i : i + _WRITE_CHUNK].tolist())) + "\n")


def write_histogram_csv(counts: np.ndarray, path) -> None:
    """Histogram CSV: an "index,count" header, then one row per element,
    written _WRITE_CHUNK rows at a time."""
    counts = np.asarray(counts)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,count\n")
        for i in range(0, counts.size, _WRITE_CHUNK):
            chunk = counts[i : i + _WRITE_CHUNK].tolist()
            rows = [0] * (2 * len(chunk))
            rows[::2], rows[1::2] = range(i, i + len(chunk)), chunk
            fh.write("%d,%d\n" * len(chunk) % tuple(rows))
