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

import functools
import json
import math
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
        return math.prod(self.factors)

    def coordinates(self) -> np.ndarray:
        """(order, k) array of element coordinates in index order (read-only)."""
        return _group_tables(self.factors)[1]

    @property
    def negation(self) -> np.ndarray:
        """Index of -x for each index x (read-only)."""
        return _group_tables(self.factors)[2]

    def indices_of(self, coords: np.ndarray) -> np.ndarray:
        """Index of each coordinate row (last axis), reduced mod the factors."""
        return (coords % np.array(self.factors)) @ _group_tables(self.factors)[0]

    def difference_table(self) -> np.ndarray:
        """Table D[s, t] = index(s - t), used to lay out circulant adjacency."""
        coords = self.coordinates()
        n = self.order
        diff = np.zeros((n, n), dtype=np.int64)
        for j, f in enumerate(self.factors):
            col = coords[:, j]
            diff = diff * f + (col[:, None] - col[None, :]) % f
        return diff


@functools.lru_cache(maxsize=64)
def _group_tables(factors: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(place values, coordinates, negation) of Z_n1 x ... x Z_nk, built once
    per factor tuple and read-only, so every caller can share them."""
    # mixed-radix place value of each coordinate: index = coords @ place values
    place = np.cumprod((factors[1:] + (1,))[::-1], dtype=np.int64)[::-1]
    coords = (np.arange(math.prod(factors), dtype=np.int64)[:, None] // place) % factors
    negation = ((-coords) % factors) @ place
    for table in (place, coords, negation):
        table.flags.writeable = False
    return place, coords, negation


@dataclass
class Symbol:
    """Connection function f: G -> {0,1} defining a G-circulant adjacency."""

    group: AbelianGroupSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != (self.group.order,):
            raise GraphValidationError(
                f"symbol length {vals.shape} does not match group order {self.group.order}"
            )
        if not _zero_one(vals):
            # checked before the cast, which would turn 2 or 0.5 into True
            raise GraphValidationError("symbol values must be 0 or 1")
        self.values = vals.astype(bool, copy=False)
        self.validate()

    @classmethod
    def from_support(cls, group: AbelianGroupSpec, support) -> "Symbol":
        """Symbol with f(x) = 1 exactly on `support`, integer indices in 0..order-1."""
        idx = np.asarray(support if isinstance(support, np.ndarray) else list(support))
        if idx.size == 0:
            idx = idx.astype(np.int64)
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise GraphValidationError("symbol support must be a list of integer indices")
        bad = idx[(idx < 0) | (idx >= group.order)]
        if bad.size:
            raise GraphValidationError(
                f"symbol index {int(bad[0])} is out of range 0..{group.order - 1}")
        vals = np.zeros(group.order, dtype=bool)
        vals[idx] = True
        return cls(group, vals)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.values)

    def validate(self) -> None:
        if self.values[0]:
            raise GraphValidationError("symbol has f(identity) = 1 (self-loop)")
        asymmetric = np.flatnonzero(self.values & ~self.values[self.group.negation])
        if asymmetric.size:
            x = asymmetric[0]
            raise GraphValidationError(f"symbol is not symmetric: f({x}) = 1 but f(-{x}) = 0")
        if not self.values.any():
            raise GraphValidationError("symbol is empty (graph has no edges)")
        if not self._generates_group():
            raise GraphValidationError("symbol support does not generate the group")

    def _generates_group(self) -> bool:
        # Subgroup closure H <- H + <x> over the support.  When x is outside
        # H, the index m = [H + <x> : H] is the least k >= 1 with kx in H, and
        # H + <x> is the union of the cosets H + kx for k < m: each enlarging
        # step at least doubles |H| and touches at most |G| elements.
        group = self.group
        coords = group.coordinates()
        factors = np.array(group.factors)
        exponent = math.lcm(*group.factors)
        members = np.zeros(group.order, dtype=bool)
        members[0] = True
        h = coords[:1]  # coordinates of the elements of H
        for x in self.support:
            if members[x]:
                continue
            multiples = np.arange(1, exponent + 1)[:, None] * coords[x] % factors
            m = 1 + int(np.argmax(members[group.indices_of(multiples)]))
            cosets = np.concatenate([coords[:1], multiples[: m - 1]])
            h = ((cosets[:, None, :] + h[None, :, :]) % factors).reshape(-1, len(factors))
            members[group.indices_of(h)] = True
        return len(h) == group.order


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
        a = np.asarray(self.adjacency)
        if a.dtype != np.uint8 and not _zero_one(a):
            # checked before the cast, which would turn 257 or 1.5 into an edge
            raise GraphValidationError("adjacency entries must be 0 or 1")
        self.adjacency = a.astype(np.uint8, copy=False)

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
        if not _zero_one(a):
            raise GraphValidationError("adjacency entries must be 0 or 1")
        if not np.array_equal(a, a.T):
            raise GraphValidationError("adjacency must be symmetric")
        if np.diagonal(a).any():
            raise GraphValidationError("adjacency must have a zero diagonal")
        if not _connected(a):
            raise GraphValidationError("graph is not connected")
        return self


def _zero_one(a: np.ndarray) -> bool:
    """Every entry is exactly 0 or 1; for unsigned or bool arrays a max test."""
    if a.dtype.kind in "ub":
        return a.size == 0 or int(a.max()) <= 1
    if a.dtype.kind not in "ifcO":
        return False
    return bool(((a == 0) | (a == 1)).all())


# Up to this many vertices connectivity squares the reachability matrix:
# ceil(log2 n) small products beat up to n - 1 BFS levels (a path or cycle).
# Above it each O(n^3) product costs more than a whole BFS on the graphs
# built here (Q_11 takes 11 levels, C_257 128 levels of two rows each).
SQUARING_MAX_N = 64


def _connected(adjacency: np.ndarray) -> bool:
    n = adjacency.shape[0]
    if n <= SQUARING_MAX_N:
        # after k squarings reach[i, j] = 1 iff j lies within 2^k steps of i;
        # entries are clipped to 0/1, so the float products are exact
        reach = adjacency + np.eye(n)
        for _ in range((n - 1).bit_length()):
            reach = np.minimum(reach @ reach, 1.0)
        return bool(reach[0].all())
    # BFS from vertex 0, one numpy step per level
    seen = np.zeros(n, dtype=bool)
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
    # A[s, t] = 1 iff s - t lies in the support, so row s has its ones at
    # index(s - x) for x in the support: one (n, |S|) gather, no n x n table.
    group = sym.group
    coords = group.coordinates()
    cols = group.indices_of(coords[:, None, :] - coords[sym.support])
    a = np.zeros((group.order, group.order), dtype=np.uint8)
    a[np.arange(group.order)[:, None], cols] = 1
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
    n = g.n
    text = (g.adjacency + ord("0")).tobytes().decode("ascii")  # the reverse of the parser
    doc: dict = {
        "schema": SCHEMA,
        "n": n,
        "family": g.family,
        "adjacency_rows": [text[i : i + n] for i in range(0, n * n, n)],
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
    if (not isinstance(n, int) or not isinstance(rows, list) or len(rows) != n
            or any(not isinstance(r, str) or len(r) != n for r in rows)):
        raise GraphValidationError("adjacency_rows must be n strings of n characters")
    # every non-ASCII character becomes '?', which the 0/1 check refuses
    a = np.frombuffer("".join(rows).encode("ascii", "replace"), dtype=np.uint8) - np.uint8(ord("0"))
    if (a > 1).any():
        raise GraphValidationError("adjacency_rows characters must be '0' or '1'")
    a = a.reshape(n, n)
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
