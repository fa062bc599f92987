"""Finite posets represented as DAGs.

A poset is a directed acyclic edge relation on vertices 0..n-1 where an edge
(u, v) means u precedes v. Canonical families (line, matching, hypercube,
bipartite) carry a kind tag plus the structure the rest of the library needs:
bottom/top vertex sets for bipartite-like posets and the dimension for
hypercubes. A distribution p is monotone on G when p(u) <= p(v) along every
edge; since monotonicity composes along paths, checking the edges of G and
checking its transitive closure are equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# make_hypercube refuses dimensions whose edge list would not fit a desk-scale
# memory budget (d=16 is ~0.5M edges).
HYPERCUBE_MAX_DIM = 16

MONOTONE_TOL = 1e-12

KINDS = ("general", "line", "matching", "bipartite", "hypercube")


class PosetError(ValueError):
    """Invalid poset structure or a mismatch with the declared kind."""


class CapacityError(PosetError):
    """Requested construction exceeds the desk-scale capacity budget."""


def _check_acyclic(n: int, edges) -> list[int]:
    """Return a topological order, raising PosetError on a cycle."""
    adj = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in edges:
        adj[u].append(v)
        indeg[v] += 1
    stack = [v for v in range(n) if indeg[v] == 0]
    order = []
    while stack:
        u = stack.pop()
        order.append(u)
        for w in adj[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    if len(order) != n:
        raise PosetError("edge relation contains a cycle")
    return order


@dataclass(frozen=True)
class Poset:
    """Immutable DAG with an optional structural kind tag.

    bottom/top are populated for matching and bipartite kinds; dim for
    hypercubes. Edges are stored sorted so equal posets compare equal and
    downstream iteration order is deterministic.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    kind: str = "general"
    bottom: tuple[int, ...] = ()
    top: tuple[int, ...] = ()
    dim: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise PosetError("vertex count must be nonnegative")
        if self.kind not in KINDS:
            raise PosetError(f"unknown kind {self.kind!r}")
        edges = tuple(sorted((int(u), int(v)) for u, v in self.edges))
        object.__setattr__(self, "edges", edges)
        seen = set()
        for u, v in edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise PosetError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise PosetError(f"self-loop at {u}")
            if (u, v) in seen:
                raise PosetError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        _check_acyclic(self.n, edges)
        object.__setattr__(self, "bottom", tuple(int(i) for i in self.bottom))
        object.__setattr__(self, "top", tuple(int(i) for i in self.top))
        self._check_kind()

    def _check_kind(self):
        if self.kind == "line":
            want = tuple((i, i + 1) for i in range(self.n - 1))
            if self.edges != want:
                raise PosetError("line kind requires exactly the edges (i, i+1)")
        elif self.kind == "matching":
            endpoints = [w for e in self.edges for w in e]
            if len(endpoints) != len(set(endpoints)):
                raise PosetError("matching kind requires vertex-disjoint edges")
        elif self.kind == "bipartite":
            bot = set(self.bottom)
            top = set(self.top)
            if bot & top:
                raise PosetError("bottom and top sets overlap")
            for u, v in self.edges:
                if u not in bot or v not in top:
                    raise PosetError(f"bipartite edge ({u},{v}) must run bottom -> top")
        elif self.kind == "hypercube":
            if self.dim < 1 or self.n != 1 << self.dim:
                raise PosetError("hypercube kind requires n = 2^dim")
            for u, v in self.edges:
                diff = u ^ v
                if v <= u or diff & (diff - 1):
                    raise PosetError(f"hypercube edge ({u},{v}) is not a single 0->1 bit flip")
        if self.kind == "matching" and not self.bottom and self.edges:
            object.__setattr__(self, "bottom", tuple(sorted(u for u, _ in self.edges)))
            object.__setattr__(self, "top", tuple(sorted(v for _, v in self.edges)))

    def adjacency(self) -> list[list[int]]:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
        return adj

    def max_degree(self) -> int:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg, default=0)


def make_line(n: int) -> Poset:
    """Chain poset 0 < 1 < ... < n-1."""
    if n < 1:
        raise PosetError("line poset needs n >= 1")
    return Poset(n, tuple((i, i + 1) for i in range(n - 1)), kind="line")


def make_matching(n_pairs: int) -> Poset:
    """Disjoint edges (i, n_pairs + i): bottoms are 0..n_pairs-1, tops follow."""
    if n_pairs < 1:
        raise PosetError("matching poset needs at least one pair")
    edges = tuple((i, n_pairs + i) for i in range(n_pairs))
    return Poset(
        2 * n_pairs,
        edges,
        kind="matching",
        bottom=tuple(range(n_pairs)),
        top=tuple(range(n_pairs, 2 * n_pairs)),
    )


def _complement(n: int, bottom) -> tuple[int, ...]:
    """The vertices 0..n-1 outside bottom, in order."""
    bot = set(bottom)
    return tuple(i for i in range(n) if i not in bot)


def make_bipartite(n: int, edges, bottom) -> Poset:
    """Bipartite poset with an explicit bottom set; top is the complement."""
    bottom = tuple(sorted(set(int(i) for i in bottom)))
    return Poset(n, tuple(edges), kind="bipartite", bottom=bottom, top=_complement(n, bottom))


def make_hypercube(d: int) -> Poset:
    """Boolean hypercube on 2^d bitmask-indexed vertices, edges flip one bit 0->1."""
    if d < 1:
        raise PosetError("hypercube needs d >= 1")
    if d > HYPERCUBE_MAX_DIM:
        raise CapacityError(f"hypercube dimension {d} exceeds capacity cap {HYPERCUBE_MAX_DIM}")
    n = 1 << d
    edges = []
    for u in range(n):
        for j in range(d):
            if not u >> j & 1:
                edges.append((u, u | 1 << j))
    return Poset(n, tuple(edges), kind="hypercube", dim=d)


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

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            bits = self._bits[u]
            while bits:
                low = bits & -bits
                out.append((u, low.bit_length() - 1))
                bits ^= low
        return out

    def successors(self, u: int) -> list[int]:
        out = []
        bits = self._bits[u]
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out


def transitive_closure(G: Poset) -> TransitiveClosure:
    """Compute reach(u, v) for all pairs by sweeping a topological order backwards."""
    order = _check_acyclic(G.n, G.edges)
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
    return Poset(G.n, tuple(transitive_closure(G).edges()), kind="general")


def is_monotone(G: Poset, probs, tol: float = MONOTONE_TOL) -> bool:
    """True iff p(u) <= p(v) + tol along every edge of G."""
    p = np.asarray(probs, dtype=float)
    if p.shape != (G.n,):
        raise ValueError(f"distribution length {p.shape} does not match n={G.n}")
    return all(p[u] <= p[v] + tol for u, v in G.edges)


def _ints(path, lineno: int, toks, count: int | None = None) -> list[int]:
    """Parse the integer tokens of one file line; count, if given, is exact."""
    if count is not None and len(toks) != count:
        raise PosetError(f"{path}:{lineno}: expected {count} integers, got {len(toks)}")
    try:
        return [int(tok) for tok in toks]
    except ValueError:
        raise PosetError(f"{path}:{lineno}: non-integer token in {' '.join(toks)!r}") from None


def read_poset(path) -> Poset:
    """Parse the poset file format: "n m kind", m edge lines, optional bottom line.

    Blank and '#' lines are skipped; errors name the file, and a malformed
    line also its 1-based number. Structural faults (range, self-loop, cycle,
    kind) come from the Poset checks, prefixed with the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        numbered = [(k, ln.strip()) for k, ln in enumerate(fh, 1)]
    lines = [(k, ln) for k, ln in numbered if ln and not ln.startswith("#")]
    if not lines:
        raise PosetError(f"{path}: empty poset file")
    k, ln = lines[0]
    head = ln.split()
    if len(head) != 3:
        raise PosetError(f"{path}:{k}: header must be 'n m kind'")
    n, m = _ints(path, k, head[:2])
    kind = head[2]
    if kind not in KINDS:
        raise PosetError(f"{path}:{k}: unknown kind {kind!r}")
    if m < 0 or len(lines) < 1 + m:
        raise PosetError(f"{path}: expected {m} edge lines")
    edges = [tuple(_ints(path, k, ln.split(), 2)) for k, ln in lines[1 : 1 + m]]
    bottom: tuple[int, ...] = ()
    rest = lines[1 + m :]
    if rest:
        k, ln = rest[0]
        if not ln.startswith("bottom:"):
            raise PosetError(f"{path}:{k}: trailing content is not a bottom line")
        bottom = tuple(_ints(path, k, ln[len("bottom:") :].split()))
    try:
        if kind == "bipartite":
            return make_bipartite(n, edges, bottom)
        if kind == "matching" and bottom:
            return Poset(n, tuple(edges), kind=kind, bottom=bottom, top=_complement(n, bottom))
        if kind == "hypercube":
            return Poset(n, tuple(edges), kind=kind, dim=n.bit_length() - 1)
        return Poset(n, tuple(edges), kind=kind)
    except PosetError as exc:
        raise PosetError(f"{path}: {exc}") from None


def write_poset(G: Poset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{G.n} {len(G.edges)} {G.kind}\n")
        for u, v in G.edges:
            fh.write(f"{u} {v}\n")
        if G.kind in ("bipartite", "matching") and G.bottom:
            fh.write("bottom: " + " ".join(str(i) for i in G.bottom) + "\n")
