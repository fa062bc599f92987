"""Finite posets represented as DAGs.

A poset is a directed acyclic edge relation on vertices 0..n-1 where an edge
(u, v) means u precedes v. Canonical families (line, matching, hypercube,
bipartite) carry a kind tag. A Poset stores only what its edges cannot give,
the bottom set of a bipartite poset: a matching's bottom and top sets are its
edge tails and heads, a bipartite top set is the complement of the bottom
set, and a hypercube's dimension is log2(n). A distribution p is monotone on
G when p(u) <= p(v) along every edge; since monotonicity composes along
paths, checking the edges of G and checking its transitive closure are
equivalent.
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass, field

import numpy as np

from .prob import MAX_DOMAIN, _blocks, _content, _parse_or_locate, text_lines

# Desk-scale capacity limits. make_hypercube refuses dimensions whose edge
# list would not fit the memory budget (d=16 is ~0.5M edges), and read_poset
# refuses a header that declares more than MAX_DOMAIN vertices (2^22, shared
# with read_histogram_csv's indexes and defined with the readers in prob.py).
HYPERCUBE_MAX_DIM = 16

MONOTONE_TOL = 1e-12

KINDS = ("general", "line", "matching", "bipartite", "hypercube")


class PosetError(ValueError):
    """Invalid poset structure or a mismatch with the declared kind."""


class CapacityError(PosetError):
    """Requested construction exceeds the desk-scale capacity budget."""


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


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


@dataclass(frozen=True, eq=False)
class Poset:
    """Immutable DAG with an optional structural kind tag.

    edges may be given as any (m, 2) integer sequence or array. They are
    stored sorted, only as edge_array, a read-only (m, 2) int64 array, so
    downstream iteration order is deterministic; equality and hash come from
    n, kind, bottom and its bytes. edges is derived from it on each read.
    bottom is data only for a bipartite poset. A matching's bottom must be
    its edge tails (they are filled in when it is omitted), and the other
    kinds take none. top and dim are derived.
    """

    n: int
    edges: InitVar[object]
    kind: str = "general"
    bottom: tuple[int, ...] = ()
    edge_array: np.ndarray = field(init=False)

    def __post_init__(self, edges):
        try:
            n = operator.index(self.n)
        except TypeError:
            raise PosetError(f"vertex count must be an integer, got {self.n!r}") from None
        if n < 0:
            raise PosetError("vertex count must be nonnegative")
        if self.kind not in KINDS:
            raise PosetError(f"unknown kind {self.kind!r}")
        a = _int_array(edges, 2, "edges must be (u, v) pairs of integers")
        a = a[np.lexsort((a[:, 1], a[:, 0]))]
        u, v = a[:, 0], a[:, 1]
        out = (a < 0).any(axis=1) | (a >= n).any(axis=1)
        loop = u == v
        dup = np.zeros(len(a), dtype=bool)
        dup[1:] = (a[1:] == a[:-1]).all(axis=1)
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
        bottom = np.sort(_int_array(self.bottom, 1, "bottom must be a set of integer vertices"))
        repeat = np.zeros(len(bottom), dtype=bool)
        repeat[1:] = bottom[1:] == bottom[:-1]
        bottom = bottom[~repeat]
        k = _first((bottom < 0) | (bottom >= n))
        if k is not None:
            raise PosetError(f"bottom vertex {bottom[k]} out of range for n={n}")
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
            tails = np.sort(u)
            if bottom.size and not np.array_equal(bottom, tails):
                raise PosetError("a matching's bottom set must be its edge tails")
            bottom = tails
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
        object.__setattr__(self, "bottom", tuple(bottom.tolist()))

    @property
    def top(self) -> tuple[int, ...]:
        """A matching's edge heads, sorted; a bipartite poset's complement
        of bottom; empty for the other kinds."""
        if self.kind == "matching":
            return tuple(np.sort(self.edge_array[:, 1]).tolist())
        if self.kind == "bipartite":
            return tuple(sorted(set(range(self.n)).difference(self.bottom)))
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

    def _key(self):
        return self.n, self.kind, self.bottom, self.edge_array.tobytes()

    def __eq__(self, other):
        return type(other) is Poset and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


# The edges as a sorted tuple of Python-int pairs, built on each read. Attached
# after decoration: in the class body it would be taken for the InitVar's default.
Poset.edges = property(lambda G: tuple(zip(*G.edge_array.T.tolist())))


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
    if d < 1:
        raise PosetError("hypercube needs d >= 1")
    if d > HYPERCUBE_MAX_DIM:
        raise CapacityError(f"hypercube dimension {d} exceeds capacity cap {HYPERCUBE_MAX_DIM}")
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

    def successors(self, u: int) -> list[int]:
        out = []
        bits = self._bits[u]
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out


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


def closure_poset(G: Poset) -> Poset:
    """The closure relation itself as a general-kind poset."""
    return Poset(G.n, transitive_closure(G).edge_array(), kind="general")


def is_monotone(G: Poset, probs, tol: float = MONOTONE_TOL) -> bool:
    """True iff p(u) <= p(v) + tol along every edge of G."""
    p = np.asarray(probs, dtype=float)
    if p.shape != (G.n,):
        raise ValueError(f"distribution length {p.shape} does not match n={G.n}")
    u, v = G.edge_array.T
    return bool(np.all(p[u] <= p[v] + tol))


def _edge_block(lines: list[str]) -> np.ndarray:
    """The integer pairs of edge lines that hold exactly two tokens each, as
    a flat int64 array. A token beyond int64 names no vertex; its block stays
    an object array of Python ints, so that Poset words the fault as it does
    for a list of pairs."""
    if set(map(len, map(str.split, lines))) != {2}:
        raise ValueError
    vals = list(map(int, " ".join(lines).split()))
    try:
        return np.array(vals, dtype=np.int64)
    except OverflowError:
        return np.array(vals, dtype=object)


def _parse_poset(path):
    """(n, edges, kind, bottom) of a poset file, read in blocks; a bare
    ValueError on any fault."""
    head, m, parts, bottom = None, 0, [], None  # m: edge lines still to come
    with open(path, "r", encoding="utf-8") as fh:
        for lines in _blocks(fh):
            rows = _content(lines)
            if head is None and rows:
                head = rows.pop(0).split()
                if len(head) != 3:
                    raise ValueError
                n, m, kind = int(head[0]), int(head[1]), head[2]
                if kind not in KINDS or n > MAX_DOMAIN or m < 0:
                    raise ValueError
            if m and rows:
                edge_rows, rows = rows[:m], rows[m:]
                parts.append(_edge_block(edge_rows))
                m -= len(edge_rows)
            for row in rows:
                if bottom is not None or not row.startswith("bottom:"):
                    raise ValueError
                bottom = tuple(map(int, row[len("bottom:") :].split()))
    if head is None or m:
        raise ValueError
    edges = np.concatenate(parts or [np.empty(0, dtype=np.int64)]).reshape(-1, 2)
    return n, edges.tolist() if edges.dtype == object else edges, kind, bottom or ()


def _check_ints(path, lineno: int, toks, count: int | None = None) -> None:
    """Raise the error naming a file line whose tokens are not all integers
    or, when count is given, not exactly count of them."""
    if count is not None and len(toks) != count:
        raise PosetError(f"{path}:{lineno}: expected {count} integers, got {len(toks)}")
    try:
        for tok in toks:
            int(tok)
    except ValueError:
        raise PosetError(f"{path}:{lineno}: non-integer token in {' '.join(toks)!r}") from None


def _locate_poset(path) -> None:
    """Raise the error naming the file and line of its first fault, in the
    order of a whole-file, line-by-line read."""
    numbered = [(k, ln.strip()) for k, ln in enumerate(text_lines(path, PosetError), 1)]
    lines = [(k, ln) for k, ln in numbered if ln and not ln.startswith("#")]
    if not lines:
        raise PosetError(f"{path}: empty poset file")
    k, ln = lines[0]
    head = ln.split()
    if len(head) != 3:
        raise PosetError(f"{path}:{k}: header must be 'n m kind'")
    _check_ints(path, k, head[:2])
    n, m, kind = int(head[0]), int(head[1]), head[2]
    if kind not in KINDS:
        raise PosetError(f"{path}:{k}: unknown kind {kind!r}")
    if n > MAX_DOMAIN:
        raise PosetError(f"{path}:{k}: {n} vertices exceed the limit of {MAX_DOMAIN}")
    if m < 0 or len(lines) < 1 + m:
        raise PosetError(f"{path}: expected {m} edge lines")
    for k, ln in lines[1 : 1 + m]:
        _check_ints(path, k, ln.split(), 2)
    rest = lines[1 + m :]
    if rest:
        k, ln = rest[0]
        if not ln.startswith("bottom:"):
            raise PosetError(f"{path}:{k}: trailing content is not a bottom line")
        _check_ints(path, k, ln[len("bottom:") :].split())
    if len(rest) > 1:
        raise PosetError(f"{path}:{rest[1][0]}: trailing content after the bottom line")


def read_poset(path) -> Poset:
    """Parse the poset file format: "n m kind", m edge lines, optional bottom line.

    Blank and '#' lines are skipped; errors name the file, and a malformed
    line also its 1-based number. A header that declares more than
    MAX_DOMAIN vertices and any line after the bottom line are malformed.
    Structural faults (range, self-loop, cycle, kind) come from the Poset
    checks, prefixed with the file.
    """
    n, edges, kind, bottom = _parse_or_locate(path, _parse_poset, _locate_poset)
    try:
        return Poset(n, edges, kind=kind, bottom=bottom)
    except PosetError as exc:
        raise PosetError(f"{path}: {exc}") from None


def write_poset(G: Poset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{G.n} {len(G.edge_array)} {G.kind}\n")
        fh.write("%d %d\n" * len(G.edge_array) % tuple(G.edge_array.ravel().tolist()))
        if G.bottom:
            fh.write("bottom: " + " ".join(str(i) for i in G.bottom) + "\n")
