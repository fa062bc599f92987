"""Distributions, seeded sampling, Poissonized histograms, pair histograms.

All randomness flows through Rng, a thin wrapper over numpy's PCG64 keyed by
(seed, stream): the same key always replays the same draw sequence, and
concurrent work derives disjoint streams instead of sharing state.

Sampling is exposed both per-draw (sample) and as exact histogram laws
(SampleAccess.histogram draws the multinomial of the counts directly, which is
the same distribution as histogramming s i.i.d. draws but costs O(n)).

A PairHistogram is three numpy arrays x, y, count sorted by (x, y) with unique
keys and no (0, 0) key; building, rescaling and merging one are array
operations (a sort and a bincount), never a loop over keys.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

SUM_TOL = 1e-9

# The readers parse a file in blocks of whole lines, about this many
# characters each (fh.readlines(READ_BLOCK)), so what a read holds besides
# its result is bounded by a block, not by the file.
READ_BLOCK = 1 << 18

# The largest domain a file may declare: read_poset refuses a vertex count
# above it and read_histogram_csv an index at or above it, before anything
# is allocated per element (an int64 vector of MAX_DOMAIN entries is 32 MB).
MAX_DOMAIN = 1 << 22


class Rng:
    """Reproducible random source keyed by a 64-bit seed and a stream index."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def derive(self, stream: int) -> "Rng":
        """Fresh Rng on the same seed with an independent stream."""
        return Rng(self.seed, stream)

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream})"


@dataclass(frozen=True)
class Distribution:
    """Probability vector over 0..n-1: entries >= 0, total within 1e-9 of 1."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)  # own copy: callers keep theirs writable
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("distribution must be a nonempty vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("distribution has non-finite entries")
        if np.any(p < 0):
            raise ValueError("distribution has negative entries")
        if abs(float(p.sum()) - 1.0) > SUM_TOL:
            raise ValueError(f"distribution sums to {p.sum()!r}, not 1")

    @property
    def n(self) -> int:
        return self.probs.size

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
        total = float(v.sum())
        if total <= 0:
            raise ValueError("cannot normalize a vector with no mass")
        return cls(v / total)


@dataclass(frozen=True)
class SampleHistogram:
    """Per-element count vector of a sample multiset."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        if np.any(c < 0):
            raise ValueError("histogram counts must be nonnegative")
        c = c.astype(np.int64)
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


class PairHistogram:
    """Finite map (x, y) -> count: how many domain elements carry mass x in the
    first vector and y in the second. (0, 0) keys are excluded; counts may be
    fractional for learned or rescaled histograms.

    Stored as three read-only float arrays x, y, count, sorted by (x, y) with
    unique keys. The constructor takes a mapping and rejects (0, 0), duplicate
    keys and counts that are not positive; from_arrays builds one from
    weighted key arrays, dropping (0, 0) and merging equal keys.
    """

    def __init__(self, support):
        rows = [(float(k[0]), float(k[1]), float(c)) for k, c in dict(support).items()]
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
        # lexsort is stable, so equal keys keep their input order; keys that
        # arrive sorted (a rescaled histogram, a midpoint fix that moved
        # nothing) skip the sort.
        in_order = np.all((x[1:] > x[:-1]) | ((x[1:] == x[:-1]) & (y[1:] >= y[:-1])))
        order = np.arange(x.size) if in_order else np.lexsort((y, x))
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

    def scaled(self, a: float, b: float) -> "PairHistogram":
        """The histogram with every key (x, y) moved to (a * x, b * y)."""
        return PairHistogram.from_arrays(a * self.x, b * self.y, self.count)

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
    indices, and the same generator state after. Each draw takes one uniform."""
    return cdf_count(cdf, rng.gen.random(size))


def cdf_count(cdf: np.ndarray, u) -> np.ndarray:
    """The index that Generator.choice draws from cdf with uniform u: the
    number of cdf entries at or below u. The last entry is 1.0, above every
    uniform, so it is never counted."""
    if cdf.size > _COUNT_MAX:
        return np.searchsorted(cdf, u, side="right")
    idx = np.zeros(np.shape(u), dtype=np.min_scalar_type(cdf.size))
    for c in cdf[:-1]:
        idx += u >= c
    return idx.astype(np.intp)


def sample(p: Distribution, s: int, rng: Rng) -> np.ndarray:
    """s i.i.d. element indices drawn from p."""
    if s < 0:
        raise ValueError("sample count must be nonnegative")
    if s == 0:
        return np.empty(0, dtype=np.int64)
    return choice_indices(choice_cdf(p.probs), s, rng).astype(np.int64)


def multinomial_histogram(p: Distribution, s: int, rng: Rng) -> SampleHistogram:
    """Histogram of s i.i.d. draws from p, drawn directly as a multinomial."""
    if s < 0:
        raise ValueError("sample count must be nonnegative")
    return SampleHistogram(rng.gen.multinomial(int(s), p.probs))


def poissonized_histogram(weights, s: float, rng: Rng) -> SampleHistogram:
    """Independent Poisson(s * w_i) count per element.

    weights need not sum to 1; the total count is then Poisson(s * sum(w)).
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if s < 0:
        raise ValueError("rate must be nonnegative")
    if s == 0:
        return SampleHistogram(np.zeros(w.size, dtype=np.int64))
    return SampleHistogram(rng.gen.poisson(s * w))


def _snap(a, step: float) -> np.ndarray:
    """Each entry of a moved to the nearest multiple of step."""
    if not (step > 0 and math.isfinite(step)):
        raise ValueError("quantization step must be positive and finite")
    return np.round(a / step) * step


def pair_histogram(p1, p2, quantize: float | None = None) -> PairHistogram:
    """Exact pair histogram of two equal-length nonnegative vectors (-0.0
    counts as nonnegative).

    quantize, when given, snaps each coordinate to the nearest multiple of the
    step before keying; used for learned histograms so float noise cannot
    split keys.
    """
    a = np.asarray(p1, dtype=float)
    b = np.asarray(p2, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("pair_histogram needs two equal-length vectors")
    if (a < 0).any() or (b < 0).any():
        raise ValueError("pair_histogram needs nonnegative entries")
    if quantize is not None:
        a, b = _snap(a, quantize), _snap(b, quantize)
    return PairHistogram.from_arrays(a, b, np.ones(a.size))


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance (half the l1 gap)."""
    if p.n != q.n:
        raise ValueError("distributions have different lengths")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def mass_of_set(p: Distribution, S, s: int, rng: Rng) -> float:
    """Empirical mass of vertex set S from s i.i.d. draws.

    Additive error eps/8 with probability >= 1 - delta once
    s >= 2 * log(1/delta) / eps^2 (Hoeffding).
    """
    if s < 1:
        raise ValueError("need at least one sample")
    indicator = np.zeros(p.n, dtype=bool)
    idx = list(S)
    if idx:
        indicator[np.asarray(idx, dtype=int)] = True
    hist = multinomial_histogram(p, s, rng)
    return float(hist.counts[indicator].sum()) / s


class SampleAccess:
    """Sample-only access to an unknown distribution: draw() yields i.i.d.
    element indices and histogram() yields the exact law of their counts.
    Subclasses must keep both views consistent."""

    n: int

    def draw(self, s: int, rng: Rng) -> np.ndarray:
        raise NotImplementedError

    def histogram(self, s: int, rng: Rng) -> np.ndarray:
        counts = np.bincount(self.draw(s, rng), minlength=self.n)
        return counts.astype(np.int64)


class ExactDistAccess(SampleAccess):
    """Sample access backed by an explicitly known distribution."""

    def __init__(self, dist: Distribution):
        self.dist = dist
        self.n = dist.n

    def draw(self, s: int, rng: Rng) -> np.ndarray:
        return sample(self.dist, s, rng)

    def histogram(self, s: int, rng: Rng) -> np.ndarray:
        return multinomial_histogram(self.dist, s, rng).counts.copy()


def text_lines(path, error: type[ValueError] = ValueError):
    """The lines of a UTF-8 text file, as iterating open(path, encoding="utf-8")
    yields them. Bytes that are not UTF-8 raise `error` naming the file and the
    1-based line and column of the first bad byte."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = data[: exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
            line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
            raise error(f"{path}:{line}: not UTF-8 text: byte 0x{data[exc.start]:02x} at column {col}") from None
        raise


def _blocks(fh):
    """The lines of an open text file, as iterating it yields them, in lists
    of about READ_BLOCK characters."""
    while lines := fh.readlines(READ_BLOCK):
        yield lines


def _content(lines) -> list[str]:
    """The stripped lines that are neither blank nor '#' comments."""
    return [t for t in map(str.strip, lines) if t and t[0] != "#"]


def _parse_or_locate(path, parse, locate):
    """parse(path), the block-wise reader. It raises a bare ValueError on any
    fault; locate(path) then re-reads the file line by line only to raise
    the error that names the file and the first bad line. A file that parse
    refuses and locate passes is a bug in the reader, not in the file."""
    try:
        return parse(path)
    except ValueError:  # includes UnicodeDecodeError
        pass
    locate(path)
    raise RuntimeError(f"{path}: block parse refused a file that the line scan accepts")


def _parse_distribution(path) -> np.ndarray:
    """Most blocks hold no blank or comment line, so float() first runs over
    all the stripped lines of a block, and only a block where that fails is
    filtered and parsed again. A float token is never blank and never starts
    with '#', so the two give the same values wherever the first succeeds."""
    parts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lines in _blocks(fh):
            toks = list(map(str.strip, lines))
            try:
                parts.append(np.fromiter(map(float, toks), float, len(toks)))
            except ValueError:
                toks = _content(toks)
                parts.append(np.fromiter(map(float, toks), float, len(toks)))
    return np.concatenate(parts) if parts else np.empty(0)


def _locate_distribution(path) -> None:
    for k, ln in enumerate(text_lines(path), 1):
        tok = ln.strip()
        if tok and not tok.startswith("#"):
            try:
                float(tok)
            except ValueError:
                raise ValueError(f"{path}:{k}: not a number: {tok!r}") from None


def read_distribution(path) -> Distribution:
    """One decimal probability per line; the sum is validated.

    Blank and '#' lines are skipped; errors name the file, and a bad token
    also the 1-based line.
    """
    probs = _parse_or_locate(path, _parse_distribution, _locate_distribution)
    try:
        return Distribution(probs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_distribution(p: Distribution, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x in p.probs:
            fh.write(repr(float(x)) + "\n")


def _parse_histogram(path) -> np.ndarray:
    pairs = [np.empty(0, dtype=np.int64)]
    with open(path, "r", encoding="utf-8") as fh:
        blocks = _blocks(fh)
        first = next(blocks, [""])
        if first[0].strip() != "index,count":
            raise ValueError
        first[0] = ""
        for lines in chain([first], blocks):
            rows = list(filter(None, map(str.strip, lines)))
            if set(map(operator.methodcaller("count", ","), rows)) - {1}:
                raise ValueError
            vals = list(map(int, chain.from_iterable(map(operator.methodcaller("split", ","), rows))))
            if min(vals, default=0) < 0 or max(vals, default=0) >= 1 << 63 or max(vals[0::2], default=0) >= MAX_DOMAIN:
                raise ValueError
            pairs.append(np.array(vals, dtype=np.int64))
    index, count = np.concatenate(pairs).reshape(-1, 2).T
    ordered = np.sort(index)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError
    vec = np.zeros(ordered[-1] + 1 if ordered.size else 0, dtype=np.int64)
    vec[index] = count
    return vec


def _locate_histogram(path) -> None:
    seen = set()
    lines = text_lines(path)
    if next(lines, "").strip() != "index,count":
        raise ValueError(f"{path}:1: expected 'index,count' header")
    for k, ln in enumerate(lines, 2):
        line = ln.strip()
        if not line:
            continue
        try:
            i, c = (int(tok) for tok in line.split(","))
        except ValueError:
            raise ValueError(f"{path}:{k}: expected two integers 'index,count', got {line!r}") from None
        if i < 0 or c < 0:
            raise ValueError(f"{path}:{k}: negative index or count: {line!r}")
        if c >= 1 << 63:
            raise ValueError(f"{path}:{k}: count does not fit in 64 bits: {line!r}")
        if i >= MAX_DOMAIN:
            raise ValueError(f"{path}:{k}: index {i} is not below the domain limit {MAX_DOMAIN}")
        if i in seen:
            raise ValueError(f"{path}:{k}: duplicate index {i}")
        seen.add(i)


def read_histogram_csv(path) -> SampleHistogram:
    """Histogram CSV "index,count" with a header row; indexes below MAX_DOMAIN.

    Blank lines are skipped; errors name the file and the 1-based line.
    """
    return SampleHistogram(_parse_or_locate(path, _parse_histogram, _locate_histogram))


def write_histogram_csv(h: SampleHistogram, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,count\n")
        for i, c in enumerate(h.counts):
            fh.write(f"{i},{int(c)}\n")
