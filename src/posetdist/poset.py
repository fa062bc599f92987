"""Finite posets represented as DAGs.

A poset is a directed acyclic edge relation on vertices 0..n-1 where an edge
(u, v) means u precedes v. Canonical families (line, matching, hypercube,
bipartite) carry a kind tag. A Poset stores only what its edges cannot give,
the bottom set of a bipartite poset: a matching's bottom and top sets are its
edge tails and heads (its bottom array is a view of the edge array), a
bipartite top set is the complement of the bottom set, and a hypercube's
dimension is log2(n). A distribution p is monotone on
G when p(u) <= p(v) along every edge; since monotonicity composes along
paths, checking the edges of G and checking its transitive closure are
equivalent.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .prob import _blocks, _check_finite, _content

# Desk-scale capacity limits. make_hypercube and hypercube_embedding refuse
# dimensions whose edge list would not fit the memory budget (d=16 is ~0.5M
# edges), and _check_domain refuses a count of vertices, elements or trials
# above MAX_DOMAIN before anything is allocated per item.
HYPERCUBE_MAX_DIM = 16
MAX_DOMAIN = 1 << 22

MONOTONE_TOL = 1e-12  # p(u) - p(v) above it violates u <= v (is_monotone, the violation matching)

KINDS = ("general", "line", "matching", "bipartite", "hypercube")


class PosetError(ValueError):
    """Invalid poset structure or a mismatch with the declared kind."""


class SizeCapError(ValueError):
    """A request over a desk-scale size cap (domain, hypercube, LP or L)."""


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise PosetError(f"unknown kind {kind!r}")


def _check_domain(count: int, what: str) -> None:
    """Refuse, as a SizeCapError, a count of `what` above MAX_DOMAIN."""
    if count > MAX_DOMAIN:
        raise SizeCapError(f"{count} {what} exceed the limit of {MAX_DOMAIN}")


def _check_dim(d: int) -> None:
    if d < 1:
        raise PosetError("hypercube needs d >= 1")
    if d > HYPERCUBE_MAX_DIM:
        raise SizeCapError(f"hypercube dimension {d} exceeds capacity cap {HYPERCUBE_MAX_DIM}")


def _check_over(G: Poset, what: str, shape: tuple) -> None:
    """Refuse `what`, a vector or a sample access, unless its shape is (G.n,)."""
    if shape != (G.n,):
        raise ValueError(f"{what} does not match the poset: shape {shape}, poset n={G.n}")


def _csr(edges: np.ndarray, k: int) -> tuple[list[int], list[int]]:
    """(first, heads) of an (m, 2) edge array sorted by tail on vertices
    0..k-1: the out-neighbours of w are heads[first[w] : first[w + 1]]."""
    return np.searchsorted(edges[:, 0], np.arange(k + 1)).tolist(), edges[:, 1].tolist()


def _check_acyclic(edges: np.ndarray) -> list[int]:
    """A topological order of the vertices that lie on an edge (any other
    vertex fits anywhere), by Kahn's algorithm on the (m, 2) edge array
    sorted by tail, where the out-neighbours of a vertex are one slice of the
    heads. Only vertices on an edge are visited, so the cost follows the
    edges, not the vertex count. PosetError on a cycle."""
    verts, ends = np.unique(edges.ravel(), return_inverse=True)
    k = verts.size
    first, heads = _csr(ends.reshape(-1, 2), k)  # labels 0..k-1 in vertex order, so tails stay sorted
    indeg = np.bincount(ends[1::2], minlength=k).tolist()
    stack = [w for w in range(k) if not indeg[w]]
    order = []
    while stack:
        w = stack.pop()
        order.append(w)
        for x in heads[first[w] : first[w + 1]]:
            indeg[x] -= 1
            if not indeg[x]:
                stack.append(x)
    if len(order) != k:
        raise PosetError("edge relation contains a cycle")
    return verts[order].tolist()


def _int_array(values, ndim: int, message: str) -> np.ndarray:
    """values as an integer array of ndim dimensions (pairs when ndim is 2);
    PosetError(message) for anything else, such as floats or strings."""
    try:
        a = np.asarray(values)
    except ValueError:  # ragged rows
        raise PosetError(message) from None
    if a.size == 0 and a.ndim == 1:
        return np.empty((0, 2) if ndim == 2 else 0, dtype=np.int64)
    if a.ndim != ndim or (ndim == 2 and a.shape[1] != 2) or a.dtype.kind not in "iu":
        raise PosetError(message)
    return a


def _rises(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """For each row of the columns u, v after the first, whether it comes
    after the row before it in (u, v) order."""
    return (u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


@dataclass(frozen=True, eq=False)
class Poset:
    """Immutable DAG with an optional structural kind tag.

    edges may be given as any (m, 2) integer sequence or array. They are
    stored sorted, only as edge_array, a read-only (m, 2) int64 array, so
    downstream iteration order is deterministic. bottom is stored the same
    way, as the sorted read-only int64 bottom_array; equality and hash come
    from n, kind and the bytes of both arrays, one key built on first use
    and kept. edges and bottom, as tuples of Python ints, are derived from
    the arrays on each read. bottom is data only for a bipartite poset. A
    matching's bottom must be its edge tails (they are filled in when it is
    omitted), and the other kinds take none. top and dim are derived.
    """

    n: int
    edges: InitVar[object]
    kind: str = "general"
    bottom: InitVar[object] = ()
    edge_array: np.ndarray = field(init=False)
    bottom_array: np.ndarray = field(init=False)

    def __post_init__(self, edges, bottom):
        try:
            n = operator.index(self.n)
        except TypeError:
            raise PosetError(f"vertex count must be an integer, got {self.n!r}") from None
        if n < 0:
            raise PosetError("vertex count must be nonnegative")
        _check_kind(self.kind)
        a = _int_array(edges, 2, "edges must be (u, v) pairs of integers")
        u, v = a[:, 0], a[:, 1]
        rise = _rises(u, v)
        if rise.all():  # increasing rows, as the writers and make_* give them, need no sort
            a = a.copy()  # own copy: the caller keeps theirs writable
        else:
            a = a[np.lexsort((v, u))]
            u, v = a[:, 0], a[:, 1]
            rise = _rises(u, v)
        out = (a < 0) | (a >= n)
        out = out[:, 0] | out[:, 1]
        loop = u == v
        dup = np.zeros(len(a), dtype=bool)
        dup[1:] = ~rise  # sorted, a row that does not rise repeats the one before it
        k = _first(out | loop | dup)
        if k is not None:
            bad = f"({u[k]},{v[k]})"
            if out[k]:
                raise PosetError(f"edge {bad} out of range for n={n}")
            if loop[k]:
                raise PosetError(f"self-loop at {u[k]}")
            raise PosetError(f"duplicate edge {bad}")
        a = a.astype(np.int64, copy=False)
        u, v = a[:, 0], a[:, 1]
        a.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_array", a)
        bottom = np.sort(_int_array(bottom, 1, "bottom must be a set of integer vertices"))
        repeat = np.zeros(len(bottom), dtype=bool)
        repeat[1:] = bottom[1:] == bottom[:-1]
        bottom = bottom[~repeat]
        k = _first((bottom < 0) | (bottom >= n))
        if k is not None:
            raise PosetError(f"bottom vertex {bottom[k]} out of range for n={n}")
        bottom = bottom.astype(np.int64, copy=False)
        if bottom.size and self.kind not in ("bipartite", "matching"):
            raise PosetError(f"a {self.kind} poset takes no bottom set")
        # Each kind's check but general's implies acyclicity: line and
        # hypercube edges run from lower to higher indices, matching edges are
        # vertex-disjoint, and bipartite edges run from bottom to top.
        if self.kind == "general":
            _check_acyclic(a)
        elif self.kind == "line":
            if len(a) != max(n - 1, 0) or (u != np.arange(len(a))).any() or (v != u + 1).any():
                raise PosetError("line kind requires exactly the edges (i, i+1)")
        elif self.kind == "matching":
            if np.bincount(a.ravel()).max(initial=0) > 1:
                raise PosetError("matching kind requires vertex-disjoint edges")
            if bottom.size and not np.array_equal(bottom, u):  # u: the tails, sorted
                raise PosetError("a matching's bottom set must be its edge tails")
            bottom = u
        elif self.kind == "bipartite":
            k = _first(~np.isin(u, bottom) | np.isin(v, bottom))
            if k is not None:
                raise PosetError(f"bipartite edge ({u[k]},{v[k]}) must run bottom -> top")
        elif self.kind == "hypercube":
            d = self.dim
            if d < 1 or n != 1 << d:
                raise PosetError("hypercube kind requires n = 2^dim")
            diff = u ^ v
            k = _first((v <= u) | ((diff & (diff - 1)) != 0))
            if k is not None:
                raise PosetError(f"hypercube edge ({u[k]},{v[k]}) is not a single 0->1 bit flip")
            if len(a) != d << (d - 1):
                raise PosetError(f"hypercube kind requires all {d << (d - 1)} edges, got {len(a)}")
        bottom.flags.writeable = False
        object.__setattr__(self, "bottom_array", bottom)

    @property
    def top(self) -> tuple[int, ...]:
        """A matching's edge heads, sorted; a bipartite poset's complement
        of bottom; empty for the other kinds."""
        if self.kind == "matching":
            return tuple(np.sort(self.edge_array[:, 1]).tolist())
        if self.kind == "bipartite":
            return tuple(np.setdiff1d(np.arange(self.n), self.bottom_array, assume_unique=True).tolist())
        return ()

    @property
    def dim(self) -> int:
        """log2(n) for a hypercube, 0 for the other kinds."""
        return self.n.bit_length() - 1 if self.kind == "hypercube" else 0

    def adjacency(self) -> list[list[int]]:
        first, heads = _csr(self.edge_array, self.n)
        return [heads[first[w] : first[w + 1]] for w in range(self.n)]

    def max_degree(self) -> int:
        return int(np.bincount(self.edge_array.ravel()).max(initial=0))

    @cached_property
    def _bottom_mask(self) -> np.ndarray:  # bottom_array as a read-only boolean vector
        mask = np.isin(np.arange(self.n), self.bottom_array)
        mask.flags.writeable = False
        return mask

    @cached_property
    def _key(self) -> tuple:
        return self.n, self.kind, self.bottom_array.tobytes(), self.edge_array.tobytes()

    def __eq__(self, other):
        return type(other) is Poset and self._key == other._key

    def __hash__(self):
        return hash(self._key)


# The edges as a sorted tuple of Python-int pairs and the bottom set as a
# sorted tuple of Python ints, built on each read. Attached after decoration:
# in the class body each would be taken for its InitVar's default.
Poset.edges = property(lambda G: tuple(zip(*G.edge_array.T.tolist())))
Poset.bottom = property(lambda G: tuple(G.bottom_array.tolist()))


def make_line(n: int) -> Poset:
    """Chain poset 0 < 1 < ... < n-1."""
    if n < 1:
        raise PosetError("line poset needs n >= 1")
    return Poset(n, np.arange(n - 1)[:, None] + [0, 1], kind="line")


def make_matching(n_pairs: int) -> Poset:
    """Disjoint edges (i, n_pairs + i): bottoms are 0..n_pairs-1, tops follow."""
    if n_pairs < 1:
        raise PosetError("matching poset needs at least one pair")
    i = np.arange(n_pairs)
    return Poset(2 * n_pairs, np.column_stack((i, n_pairs + i)), kind="matching")


def make_bipartite(n: int, edges, bottom) -> Poset:
    """Bipartite poset with an explicit bottom set; top is the complement."""
    return Poset(n, tuple(edges), kind="bipartite", bottom=tuple(bottom))


def make_hypercube(d: int) -> Poset:
    """Boolean hypercube on 2^d bitmask-indexed vertices, edges flip one bit 0->1."""
    _check_dim(d)
    u = np.arange(1 << d)[:, None]
    v = u | 1 << np.arange(d)
    up = v != u  # bit j of u is 0
    return Poset(1 << d, np.column_stack((np.broadcast_to(u, v.shape)[up], v[up])), kind="hypercube")


@dataclass
class TransitiveClosure:
    """Reachability relation of a Poset: reach(u, v) iff a directed u->v path exists.

    Irreflexive by construction. Stored as one Python-int bitset per source
    vertex.
    """

    n: int
    _bits: list[int] = field(repr=False)

    def reach(self, u: int, v: int) -> bool:
        return bool(self._bits[u] >> v & 1)

    def edge_array(self) -> np.ndarray:
        """Every pair (u, v) with reach(u, v) as a sorted (m, 2) int64 array:
        the row bitsets as one little-endian byte matrix, unpacked to bits in
        a single call."""
        width = (self.n + 7) // 8
        raw = b"".join(bits.to_bytes(width, "little") for bits in self._bits)
        matrix = np.frombuffer(raw, dtype=np.uint8).reshape(self.n, width)
        return np.argwhere(np.unpackbits(matrix, axis=1, bitorder="little")).astype(np.int64, copy=False)


def transitive_closure(G: Poset) -> TransitiveClosure:
    """Compute reach(u, v) for all pairs by sweeping a topological order
    backwards. Only a general poset needs a sort for it: line and hypercube
    edges run upwards, and matching and bipartite heads have no out-edges, so
    for those kinds descending index order is a valid sweep. A general
    poset's order leaves out the vertices on no edge, which reach nothing."""
    order = _check_acyclic(G.edge_array) if G.kind == "general" else range(G.n)
    adj = G.adjacency()
    bits = [0] * G.n
    for u in reversed(order):
        acc = 0
        for w in adj[u]:
            acc |= 1 << w | bits[w]
        bits[u] = acc
    return TransitiveClosure(G.n, bits)


def is_monotone(G: Poset, probs) -> bool:
    """True iff p(u) <= p(v) + MONOTONE_TOL along every edge of G; a vector
    with a nan or infinite entry is refused."""
    p = np.asarray(probs, dtype=float)
    _check_over(G, "distribution", p.shape)
    _check_finite(p)
    u, v = G.edge_array.T
    return bool(np.all(p[u] <= p[v] + MONOTONE_TOL))


def _int_rows(rows: list[str]) -> np.ndarray | None:
    """Nonblank lines of integers as an int64 matrix, one row a line, read by
    numpy's C parser; None for lines it refuses: a fault, a ragged block, or a
    form only int() reads ('١', '1_0', a value past int64). Warnings are
    errors, since numpy 1.x reads '1.0' into an integer column with only a
    DeprecationWarning, and a line of no tokens gives a UserWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2)
        except (ValueError, Warning):
            return None


def _ints(toks, count: int | None = None) -> tuple[int, ...]:
    """The integers of a line's tokens; a ValueError that words the fault if
    a token is not an integer or, when count is given, the line does not
    hold exactly count tokens."""
    if count is not None and len(toks) != count:
        raise ValueError(f"expected {count} integers, got {len(toks)}")
    try:
        return tuple(map(int, toks))
    except ValueError:
        raise ValueError(f"non-integer token in {' '.join(toks)!r}") from None


def _header(row: str) -> tuple[int, int, str]:
    """(n, m, kind) of a header line; a ValueError that words its fault."""
    head = row.split()
    if len(head) != 3:
        raise ValueError("header must be 'n m kind'")
    (n, m), kind = _ints(head[:2]), head[2]
    _check_kind(kind)
    _check_domain(n, "vertices")
    return n, m, kind


def read_poset(path) -> Poset:
    """Parse the poset file format: "n m kind", m edge lines, optional bottom line.

    Blank and '#' lines are skipped; errors name the file, and a malformed
    line also its 1-based number. A header that declares more than
    MAX_DOMAIN vertices and any line after the bottom line are malformed.
    Structural faults (range, self-loop, cycle, kind) come from the Poset
    checks, prefixed with the file.

    One pass converts each block's edge lines, and the bottom line, with
    numpy's C parser; only a block it refuses is read line by line, which
    names the fault or reads the forms only int() takes. The pass raises
    the first fault in file order, a non-UTF-8 byte included; too few edge
    lines, a negative edge count and an empty file are found at the end.
    """
    kind = bottom = None
    n = m = declared = 0  # m: edge lines still to come
    parts, start = [], 1  # start: the number of the block's first line
    for lines in _blocks(path, PosetError):
        rows = _content(lines)
        i = 0  # the row of `rows` being parsed, which a fault names
        try:
            if kind is None and rows:
                n, declared, kind = _header(rows[0])
                m, i = max(declared, 0), 1
            edges = rows[i : i + m]
            rest = i + len(edges)
            if edges:
                m -= len(edges)
                block = _int_rows(edges)
                if block is None or block.shape[1] != 2:
                    block = []  # line by line: the first bad line raises, and i names it
                    for i, row in enumerate(edges, i):
                        block.append(_ints(row.split(), 2))
                    block = np.array(block, dtype=object)  # a vertex past int64 stays a Python int
                parts.append(block)
            for i in range(rest, len(rows)):
                if bottom is not None:
                    raise ValueError("trailing content after the bottom line")
                if not rows[i].startswith("bottom:"):
                    raise ValueError("trailing content is not a bottom line")
                text = rows[i][len("bottom:") :]
                matrix = _int_rows([text])
                bottom = _ints(text.split()) if matrix is None else matrix[0]
        except ValueError as exc:
            raise PosetError(f"{path}:{_content(lines, start)[i][0]}: {exc}") from None
        start += len(lines)
    if m > 0 or declared < 0:
        raise PosetError(f"{path}: expected {declared} edge lines")
    if kind is None:
        raise PosetError(f"{path}: empty poset file")
    edges = np.concatenate(parts or [np.empty((0, 2), dtype=np.int64)])
    try:
        return Poset(n, edges.tolist() if edges.dtype == object else edges, kind=kind,
                     bottom=() if bottom is None else bottom)
    except PosetError as exc:
        raise PosetError(f"{path}: {exc}") from None


def write_poset(G: Poset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{G.n} {len(G.edge_array)} {G.kind}\n")
        fh.write("%d %d\n" * len(G.edge_array) % tuple(G.edge_array.ravel().tolist()))
        if G.bottom_array.size:
            fh.write("bottom: " + " ".join(map(str, G.bottom_array.tolist())) + "\n")
