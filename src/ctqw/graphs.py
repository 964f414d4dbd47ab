"""Graph family builders with canonical vertex orderings.

Every builder returns a simple, undirected, connected graph as a dense 0/1
adjacency matrix.  Vertex orderings are fixed per family so that
degeneracy-sensitive downstream results reproduce bit for bit:

- cycle / complete / path: vertices are the integers 0..n-1;
- hypercube: vertex index is the integer value of its binary string;
- abelian circulant: vertices are group elements in mixed-radix order,
  first factor most significant, identity at index 0;
- bunkbed: layer-major, index(b, l) = b * n + l.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

FAMILIES = (
    "cycle",
    "complete",
    "path",
    "hypercube",
    "complete_bipartite",
    "abelian_circulant",
    "bunkbed",
    "custom",
)

SCHEMA = "ctqw/1"


class GraphValidationError(ValueError):
    """Input that violates the walk model (symmetry, loops, connectivity)."""


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Direct product of cyclic groups Z_n1 x ... x Z_nk.

    Elements are encoded in mixed radix with the first factor most
    significant; the identity always encodes to index 0.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(f) for f in self.factors)
        if not factors or any(f < 2 for f in factors):
            raise GraphValidationError("group factors must all be >= 2")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        out = 1
        for f in self.factors:
            out *= f
        return out

    def element_of(self, index: int) -> tuple[int, ...]:
        coords = []
        for f in reversed(self.factors):
            coords.append(index % f)
            index //= f
        return tuple(reversed(coords))

    def index_of(self, element: tuple[int, ...]) -> int:
        if len(element) != len(self.factors):
            raise GraphValidationError("element length does not match factor count")
        idx = 0
        for x, f in zip(element, self.factors):
            idx = idx * f + (int(x) % f)
        return idx

    def negate_index(self, index: int) -> int:
        return self.index_of(tuple(-x for x in self.element_of(index)))

    def add_index(self, a: int, b: int) -> int:
        ea, eb = self.element_of(a), self.element_of(b)
        return self.index_of(tuple(x + y for x, y in zip(ea, eb)))

    @property
    def _place_values(self) -> np.ndarray:
        # mixed-radix place value of each coordinate: index = coords @ place values
        return np.cumprod((self.factors[1:] + (1,))[::-1], dtype=np.int64)[::-1]

    def coordinates(self) -> np.ndarray:
        """(order, k) array of element coordinates in index order."""
        return (np.arange(self.order)[:, None] // self._place_values) % self.factors

    def indices_of(self, coords: np.ndarray) -> np.ndarray:
        """Index of each coordinate row (last axis), reduced mod the factors."""
        return (coords % np.array(self.factors)) @ self._place_values

    def difference_table(self) -> np.ndarray:
        """Table D[s, t] = index(s - t), used to lay out circulant adjacency."""
        coords = self.coordinates()
        n = self.order
        diff = np.zeros((n, n), dtype=np.int64)
        for j, f in enumerate(self.factors):
            col = coords[:, j]
            diff = diff * f + (col[:, None] - col[None, :]) % f
        return diff


@dataclass
class Symbol:
    """Connection function f: G -> {0,1} defining a G-circulant adjacency."""

    group: AbelianGroupSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=bool)
        if vals.shape != (self.group.order,):
            raise GraphValidationError(
                f"symbol length {vals.shape} does not match group order {self.group.order}"
            )
        self.values = vals
        self.validate()

    @classmethod
    def from_support(cls, group: AbelianGroupSpec, support) -> "Symbol":
        vals = np.zeros(group.order, dtype=bool)
        for idx in support:
            vals[int(idx)] = True
        return cls(group, vals)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.values)

    def validate(self) -> None:
        if self.values[0]:
            raise GraphValidationError("symbol has f(identity) = 1 (self-loop)")
        coords = self.group.coordinates()
        negated = self.values[self.group.indices_of(-coords)]
        asymmetric = np.flatnonzero(self.values & ~negated)
        if asymmetric.size:
            x = asymmetric[0]
            raise GraphValidationError(f"symbol is not symmetric: f({x}) = 1 but f(-{x}) = 0")
        if self.support.size == 0:
            raise GraphValidationError("symbol is empty (graph has no edges)")
        if not self._generates_group(coords):
            raise GraphValidationError("symbol support does not generate the group")

    def _generates_group(self, coords: np.ndarray) -> bool:
        # Closure of the support under addition, one BFS level per step from
        # the identity; coords are the group's element coordinates.
        gens = coords[self.support]
        seen = np.zeros(self.group.order, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            nxt = self.group.indices_of(coords[frontier, None, :] + gens[None, :, :]).ravel()
            frontier = np.unique(nxt[~seen[nxt]])
            seen[frontier] = True
        return bool(seen.all())


@dataclass
class Graph:
    """Dense symmetric 0/1 adjacency with family metadata.

    `symbol` is attached when the graph was constructed as an abelian
    circulant and `base` when it is a bunkbed; both route the spectra module
    to the matching closed form.
    """

    adjacency: np.ndarray
    family: str = "custom"
    labels: list[str] | None = None
    symbol: Symbol | None = None
    base: "Graph | None" = None

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency, dtype=np.uint8)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(np.int64)

    def validate(self) -> "Graph":
        a = self.adjacency
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise GraphValidationError("adjacency must be a nonempty square matrix")
        if not np.isin(a, (0, 1)).all():
            raise GraphValidationError("adjacency entries must be 0 or 1")
        if not np.array_equal(a, a.T):
            raise GraphValidationError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise GraphValidationError("adjacency must have a zero diagonal")
        if not _connected(a):
            raise GraphValidationError("graph is not connected")
        return self


def _connected(adjacency: np.ndarray) -> bool:
    # BFS from vertex 0, one numpy step per level
    seen = np.zeros(adjacency.shape[0], dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        frontier = np.flatnonzero(adjacency[frontier].any(axis=0) & ~seen)
        seen[frontier] = True
    return bool(seen.all())


def build_cycle(n: int) -> Graph:
    """Cycle C_n, vertex j adjacent to j +- 1 mod n."""
    if n < 3:
        raise GraphValidationError("degenerate cycle: n must be >= 3")
    sym = Symbol.from_support(AbelianGroupSpec((n,)), {1, n - 1})
    return build_abelian_circulant(sym, family="cycle")


def build_complete(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 2:
        raise GraphValidationError("complete graph requires n >= 2")
    sym = Symbol.from_support(AbelianGroupSpec((n,)), range(1, n))
    return build_abelian_circulant(sym, family="complete")


def build_path(n: int) -> Graph:
    """Path P_n, vertex j adjacent to j +- 1, no wraparound."""
    if n < 2:
        raise GraphValidationError("path requires n >= 2")
    a = np.zeros((n, n), dtype=np.uint8)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = 1
    a[idx + 1, idx] = 1
    return Graph(a, family="path").validate()


def build_hypercube(d: int) -> Graph:
    """d-cube on 2^d vertices indexed by binary value; edges at Hamming distance 1."""
    if d < 1:
        raise GraphValidationError("hypercube requires d >= 1")
    group = AbelianGroupSpec((2,) * d)
    units = [1 << j for j in range(d)]
    sym = Symbol.from_support(group, units)
    labels = [format(v, f"0{d}b") for v in range(2**d)]
    return build_abelian_circulant(sym, family="hypercube", labels=labels)


def build_complete_bipartite(n: int) -> Graph:
    """K_{n,n} with parts {0..n-1} and {n..2n-1}."""
    if n < 1:
        raise GraphValidationError("complete bipartite requires n >= 1")
    a = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    a[:n, n:] = 1
    a[n:, :n] = 1
    return Graph(a, family="complete_bipartite").validate()


def build_abelian_circulant(
    sym: Symbol, family: str = "abelian_circulant", labels: list[str] | None = None
) -> Graph:
    """Adjacency A[s, t] = f(s - t) under the group's mixed-radix encoding."""
    a = _circulant_adjacency(sym)
    return Graph(a, family=family, labels=labels, symbol=sym).validate()


def _circulant_adjacency(sym: Symbol) -> np.ndarray:
    # A[s, t] = 1 iff s - t lies in the support, so each x in the support
    # sets A[s, index(s - x)] for every s: O(n |S|) with no n x n table.
    group = sym.group
    coords = group.coordinates()
    rows = np.arange(group.order)
    a = np.zeros((group.order, group.order), dtype=np.uint8)
    for x in sym.support:
        a[rows, group.indices_of(coords - coords[x])] = 1
    return a


def build_bunkbed(base: Graph) -> Graph:
    """Two copies of `base` joined by a perfect matching, layer-major order."""
    base.validate()
    labels = [f"({b},{v})" for b in (0, 1) for v in range(base.n)]
    return Graph(_bunkbed_adjacency(base.adjacency), family="bunkbed", labels=labels,
                 base=base).validate()


def _bunkbed_adjacency(base: np.ndarray) -> np.ndarray:
    # blocks (base, I; I, base): layer-major, rungs joining (0, v) and (1, v)
    eye = np.eye(len(base), dtype=np.uint8)
    return np.block([[base, eye], [eye, base]])


def from_adjacency(matrix, family: str = "custom", labels: list[str] | None = None) -> Graph:
    """Wrap and validate a user-supplied adjacency matrix."""
    return Graph(np.asarray(matrix), family=family, labels=labels).validate()


def graph_to_json(g: Graph) -> str:
    """Serialize with bitstring rows; symbol/base metadata is kept so that a
    re-ingested graph routes to the same closed-form spectrum."""
    doc: dict = {
        "schema": SCHEMA,
        "n": g.n,
        "family": g.family,
        "adjacency_rows": ["".join(str(int(x)) for x in row) for row in g.adjacency],
    }
    if g.labels is not None:
        doc["labels"] = g.labels
    if g.symbol is not None:
        doc["group_factors"] = list(g.symbol.group.factors)
        doc["symbol_support"] = [int(x) for x in g.symbol.support]
    if g.base is not None:
        doc["base"] = json.loads(graph_to_json(g.base))
    return json.dumps(doc, indent=2)


def graph_from_json(text: str) -> Graph:
    doc = json.loads(text)
    return _graph_from_doc(doc)


def _graph_from_doc(doc: dict) -> Graph:
    rows = doc.get("adjacency_rows")
    n = doc.get("n")
    if rows is None or n is None:
        raise GraphValidationError("graph JSON must contain 'n' and 'adjacency_rows'")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise GraphValidationError("adjacency_rows shape does not match n")
    try:
        a = np.array([[int(c) for c in row] for row in rows], dtype=np.uint8)
    except ValueError as exc:
        raise GraphValidationError(f"bad adjacency bitstring: {exc}") from None
    family = doc.get("family", "custom")
    labels = doc.get("labels")
    symbol = None
    if "group_factors" in doc and "symbol_support" in doc:
        group = AbelianGroupSpec(tuple(doc["group_factors"]))
        symbol = Symbol.from_support(group, doc["symbol_support"])
    base = _graph_from_doc(doc["base"]) if "base" in doc else None
    g = Graph(a, family=family, labels=labels, symbol=symbol, base=base).validate()
    # every label that selects a closed-form spectrum must match the adjacency
    if symbol is not None:
        if not np.array_equal(_circulant_adjacency(symbol), a):
            raise GraphValidationError("symbol metadata does not match adjacency")
    if family == "path" and not np.array_equal(build_path(n).adjacency, a):
        raise GraphValidationError("family 'path' does not match adjacency (not P_n in path order)")
    if base is not None and not np.array_equal(_bunkbed_adjacency(base.adjacency), a):
        raise GraphValidationError(
            "bunkbed 'base' does not match adjacency (blocks must be base, I, I, base)")
    return g
