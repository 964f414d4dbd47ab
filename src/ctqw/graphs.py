"""Graph family builders with canonical vertex orderings.

Every builder returns a simple, undirected, connected graph with a dense 0/1
adjacency matrix.  Vertex orderings are fixed per family so that
degeneracy-sensitive downstream results reproduce bit for bit:

- cycle / complete / path: vertices are the integers 0..n-1;
- hypercube: vertex index is the integer value of its binary string;
- abelian circulant: vertices are group elements in mixed-radix order,
  first factor most significant, identity at index 0;
- bunkbed: layer-major, index(b, l) = b * n + l.

A graph, like a symbol, is checked when it is made and cannot change after:
it refuses attribute assignment and hands out read-only arrays.  The
builders' graphs are valid by the structure that built them (a checked
`Symbol`, a path, K_{n,n}, two layers of a checked base), so they skip the
O(n^2) adjacency pass and form their adjacency, and the hypercube its
labels, only when something reads it.  Every other graph gets the full pass
on a private copy of its adjacency, and its family, labels, symbol and base
are checked against it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

SCHEMA = "ctqw/1"


class GraphValidationError(ValueError):
    """Input that violates the walk model (symmetry, loops, connectivity)."""


def exact_integers(values, what: str) -> tuple[int, ...]:
    """`values` as ints, refused unless every entry is exactly an integer; checked
    before the cast, which would turn 3.9 into 3, "3" into 3 and true into 1."""
    a = np.asarray(values)
    if (a.ndim != 1 or a.dtype.kind not in "iuf"
            or any(isinstance(x, (bool, np.bool_)) for x in values)
            or not np.all(np.isfinite(a) & (a == np.round(a)))):
        raise GraphValidationError(f"{what} must be a list of integers")
    return tuple(int(x) for x in a)


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Direct product of cyclic groups Z_n1 x ... x Z_nk.

    Elements are encoded in mixed radix with the first factor most
    significant; the identity always encodes to index 0.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = exact_integers(self.factors, "group factors")
        if not factors or any(f < 2 for f in factors):
            raise GraphValidationError("group factors must all be >= 2")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    def coordinates(self) -> np.ndarray:
        """(order, k) array of element coordinates in index order (read-only)."""
        return _group_tables(self.factors)[0]

    @property
    def negation(self) -> np.ndarray:
        """Index of -x for each index x (read-only)."""
        return _group_tables(self.factors)[1]

    def indices_of(self, coords: np.ndarray) -> np.ndarray:
        """Index of each coordinate row (last axis), reduced mod the factors."""
        return (coords % np.array(self.factors)) @ _place_values(self.factors)

    def difference_table(self) -> np.ndarray:
        """Table D[s, t] = index(s - t), used to lay out circulant adjacency."""
        coords = self.coordinates()
        n = self.order
        diff = np.zeros((n, n), dtype=np.int64)
        for j, f in enumerate(self.factors):
            col = coords[:, j]
            diff = diff * f + (col[:, None] - col[None, :]) % f
        return diff


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only in place; a read-only copy of it when it does not
    own its data, as a view's base would keep its own flag and could still
    change it."""
    if not a.flags.owndata:
        a = a.copy()
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=64)
def _place_values(factors: tuple[int, ...]) -> np.ndarray:
    """The mixed-radix place value of each coordinate: index = coords @ place
    values; read-only."""
    return _frozen(np.cumprod((factors[1:] + (1,))[::-1], dtype=np.int64)[::-1])


def _coordinates(factors: tuple[int, ...], indices: np.ndarray) -> np.ndarray:
    """(len(indices), k) coordinates of the elements with the given indices."""
    return (np.asarray(indices, dtype=np.int64)[:, None] // _place_values(factors)) % factors


def _negations(factors: tuple[int, ...], coords: np.ndarray) -> np.ndarray:
    """The index of -x for each coordinate row x."""
    return ((-coords) % factors) @ _place_values(factors)


@functools.lru_cache(maxsize=64)
def _group_tables(factors: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(coordinates, negation) of every element of Z_n1 x ... x Z_nk, built
    once per factor tuple and read-only, so every caller can share them."""
    coords = _frozen(_coordinates(factors, np.arange(math.prod(factors))))
    return coords, _frozen(_negations(factors, coords))


@dataclass(frozen=True)
class Symbol:
    """Connection function f: G -> {0,1} defining a G-circulant adjacency;
    its `values` are a read-only copy of the caller's."""

    group: AbelianGroupSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != (self.group.order,):
            raise GraphValidationError(
                f"symbol length {vals.shape} does not match group order {self.group.order}")
        if not _zero_one(vals):
            # checked before the cast, which would turn 2 or 0.5 into True
            raise GraphValidationError("symbol values must be 0 or 1")
        object.__setattr__(self, "values", _frozen(vals.astype(bool)))
        self.validate()

    @classmethod
    def from_support(cls, group: AbelianGroupSpec, support) -> "Symbol":
        """Symbol with f(x) = 1 exactly on `support`, integer indices in 0..order-1;
        booleans are refused before the cast, which would read true as 1."""
        items = list(support) if np.iterable(support) else support
        idx = np.asarray(items)
        if idx.size == 0:
            idx = idx.astype(np.int64)
        if (idx.ndim != 1 or idx.dtype.kind not in "iu"
                or any(isinstance(x, (bool, np.bool_)) for x in items)):
            raise GraphValidationError("symbol support must be a list of integer indices")
        bad = idx[(idx < 0) | (idx >= group.order)]
        if bad.size:
            raise GraphValidationError(
                f"symbol index {int(bad[0])} is out of range 0..{group.order - 1}")
        vals = np.zeros(group.order, dtype=bool)
        vals[idx] = True
        return cls(group, vals)

    @classmethod
    def _proven(cls, group: AbelianGroupSpec, values: np.ndarray) -> "Symbol":
        """A symbol whose maker proved it valid (no identity, S = -S, S
        generates G) by how it chose `values`, bool of length |G|, which it
        makes read-only; skips `validate` and its `generates` test."""
        sym = object.__new__(cls)
        sym.__dict__.update(group=group, values=_frozen(values))
        return sym

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.values)

    def validate(self) -> None:
        """Checks that read only the support's coordinates, never a table of
        the whole group."""
        if self.values[0]:
            raise GraphValidationError("symbol has f(identity) = 1 (self-loop)")
        support = self.support
        coords = _coordinates(self.group.factors, support)
        asymmetric = support[~self.values[_negations(self.group.factors, coords)]]
        if asymmetric.size:
            x = asymmetric[0]
            raise GraphValidationError(f"symbol is not symmetric: f({x}) = 1 but f(-{x}) = 0")
        if not support.size:
            raise GraphValidationError("symbol is empty (graph has no edges)")
        if not generates(self.group, np.ones((1, support.size), dtype=bool), support)[0]:
            raise GraphValidationError("symbol support does not generate the group")


@functools.lru_cache(maxsize=64)
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, by trial division, once per n."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return tuple(primes + [n] if n > 1 else primes)


def generates(group: AbelianGroupSpec, rows, elements=None) -> np.ndarray:
    """Per 0/1 row: the elements it chooses generate `group`; column c of
    `rows` stands for `elements[c]`, or for element c when `elements` is None.

    A proper subgroup lies in a maximal one, the kernel of a map onto some
    Z_p; so the chosen elements generate G exactly when, for every prime p
    dividing |G|, their coordinates mod p on the r_p factors that p divides
    span F_p^{r_p}.  Each rank is a fraction-free elimination mod p, batched
    over the rows, whose entries stay below p^2: the gcd rule on Z_n, the
    GF(2) rank on (Z_2)^d."""
    rows = np.asarray(rows, dtype=bool)
    if not rows.shape[1]:  # no element to choose: the trivial subgroup
        return np.zeros(len(rows), dtype=bool)
    coords = group.coordinates() if elements is None else _coordinates(group.factors, elements)
    ok = np.ones(len(rows), dtype=bool)
    for p in _prime_factors(group.order):
        cols = [j for j, f in enumerate(group.factors) if f % p == 0]
        residues = coords[:, cols] % p
        if len(cols) == 1:  # F_p is spanned by any nonzero residue
            ok &= rows[:, residues[:, 0] != 0].any(axis=1)
            continue
        # (rows, r_p, elements), elements contiguous, in the least type that holds +-p^2
        m = np.where(rows[:, None, :], residues.T.astype(np.min_scalar_type(-p * p)), 0)
        while m.shape[1]:
            first = m[:, 0]
            # the pivot v: each row's first chosen element with a nonzero first entry
            pivot = np.take_along_axis(m, np.argmax(first != 0, axis=1)[:, None, None], axis=2)[..., 0]
            ok &= pivot[:, 0] != 0
            # w <- v_0 w - w_0 v clears the first entry of every w, and v itself
            m = (pivot[:, :1, None] * m[:, 1:] - pivot[:, 1:, None] * first[:, None]) % p
    return ok


class Graph:
    """Symmetric 0/1 adjacency with family metadata.

    `symbol` is attached when the graph was constructed as an abelian
    circulant and `base` when it is a bunkbed; both route the spectra module
    to the matching closed form.

    A graph is checked when it is made and cannot change after: `Graph(...)`
    runs the full check on a private copy of the adjacency (`_check_adjacency`,
    then `_check_metadata`), every attribute assignment raises, and the
    adjacency is read-only.  A builder's graph is checked by the structure
    that built it and forms its adjacency on first read (`_from_structure`).
    """

    def __init__(self, adjacency, family: str = "custom", labels: list[str] | None = None,
                 symbol: Symbol | None = None, base: "Graph | None" = None):
        a = np.asarray(adjacency)
        if not _zero_one(a):
            # checked before the cast, which would turn 257 or 1.5 into an edge
            raise GraphValidationError("adjacency entries must be 0 or 1")
        a = a.astype(np.uint8)  # the private copy
        _check_adjacency(a)
        _check_metadata(a, family, labels, symbol, base)
        self.__dict__.update(family=family, symbol=symbol, base=base, n=len(a),
                             _adjacency=_frozen(a), _labels=None if labels is None else tuple(labels))

    @classmethod
    def _from_structure(cls, n: int, form, family: str, labels=None,
                        symbol: Symbol | None = None, base: "Graph | None" = None) -> "Graph":
        """A graph whose construction proves what `Graph(...)` checks; `form()`
        builds its n x n adjacency, and `labels` may be a builder of the
        labels, each run on first read."""
        g = cls.__new__(cls)
        g.__dict__.update(family=family, symbol=symbol, base=base, n=n, _adjacency=form, _labels=labels)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a Graph is checked when made and cannot change")

    @property
    def adjacency(self) -> np.ndarray:
        if callable(self._adjacency):
            self.__dict__["_adjacency"] = _frozen(self._adjacency())
        return self._adjacency

    @property
    def labels(self) -> list[str] | None:  # a new list on each read
        if callable(self._labels):
            self.__dict__["_labels"] = tuple(self._labels())
        return None if self._labels is None else list(self._labels)

    @property
    def degrees(self) -> np.ndarray:
        """Row sums, read off the symbol or the base where there is one."""
        if self.symbol is not None:  # each row holds the support
            return np.full(self.n, self.symbol.support.size, dtype=np.int64)
        if self.base is not None:  # the base's rows, plus one rung
            return np.tile(self.base.degrees + 1, 2)
        return self.adjacency.sum(axis=1).astype(np.int64)

    def validate(self) -> "Graph":
        """The graph itself: it was checked when it was made."""
        return self


def _check_adjacency(a: np.ndarray) -> None:
    """Raise GraphValidationError unless the 0/1 uint8 matrix `a` is a square,
    symmetric, loopless adjacency of a connected graph on at least 2 vertices."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphValidationError("adjacency must be a square matrix")
    if a.shape[0] < 2:
        # one vertex has no walk to mix over: spectral gap inf, lazy walk 0/0
        raise GraphValidationError("graph must have at least 2 vertices")
    # every edge (r, c) has its reverse, which for a 0/1 matrix is symmetry;
    # reading only the edges beats transposing n^2 bytes, and 0/1 bytes read
    # as bool without a copy
    r, c = np.divmod(np.flatnonzero(a.view(np.bool_)), a.shape[0])
    if not a[c, r].all():
        raise GraphValidationError("adjacency must be symmetric")
    if np.diagonal(a).any():
        raise GraphValidationError("adjacency must have a zero diagonal")
    if not _connected(a):
        raise GraphValidationError("graph is not connected")


def _check_metadata(a: np.ndarray, family, labels, symbol, base) -> None:
    """Raise GraphValidationError unless the family is a string, the labels
    are n strings, and every label that selects a closed-form spectrum (a
    symbol, the path family, a bunkbed base) matches the checked adjacency
    `a`, so that a graph serializes to a file that loads and no route trusts
    a structure nothing checked."""
    n = a.shape[0]
    if not isinstance(family, str):
        raise GraphValidationError("graph 'family' must be a string")
    if labels is not None and (not isinstance(labels, list) or len(labels) != n
                               or not all(isinstance(x, str) for x in labels)):
        raise GraphValidationError("graph 'labels' must be n strings")
    if symbol is not None and not np.array_equal(_circulant_adjacency(symbol), a):
        raise GraphValidationError("symbol metadata does not match adjacency")
    if family == "path" and not np.array_equal(build_path(n).adjacency, a):
        raise GraphValidationError("family 'path' does not match adjacency (not P_n in path order)")
    if base is not None and not np.array_equal(_bunkbed_adjacency(base.adjacency), a):
        raise GraphValidationError(
            "bunkbed 'base' does not match adjacency (blocks must be base, I, I, base)")


def _zero_one(a: np.ndarray) -> bool:
    """Every entry is exactly 0 or 1; for unsigned or bool arrays a max test."""
    if a.dtype.kind in "ub":
        return a.size == 0 or int(a.max()) <= 1
    if a.dtype.kind not in "ifcO":
        return False
    return bool(((a == 0) | (a == 1)).all())


def _connected(adjacency: np.ndarray) -> bool:
    # BFS from vertex 0, one numpy step per level
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        frontier = np.flatnonzero(adjacency[frontier].any(axis=0) & ~seen)
        seen[frontier] = True
    return bool(seen.all())


def _builder_symbol(factors: tuple[int, ...], support) -> Symbol:
    """The symbol of a builder's own circulant, valid by its choice of
    `support`: C_n's {1, n-1}, K_n's 1..n-1 and Q_d's unit vectors are
    symmetric, miss the identity and generate the group."""
    group = AbelianGroupSpec(factors)
    values = np.zeros(group.order, dtype=bool)
    values[list(support)] = True
    return Symbol._proven(group, values)


def build_cycle(n: int) -> Graph:
    """Cycle C_n, vertex j adjacent to j +- 1 mod n."""
    if n < 3:
        raise GraphValidationError("degenerate cycle: n must be >= 3")
    return build_abelian_circulant(_builder_symbol((n,), (1, n - 1)), family="cycle")


def build_complete(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 2:
        raise GraphValidationError("complete graph requires n >= 2")
    return build_abelian_circulant(_builder_symbol((n,), range(1, n)), family="complete")


def build_path(n: int) -> Graph:
    """Path P_n, vertex j adjacent to j +- 1, no wraparound."""
    if n < 2:
        raise GraphValidationError("path requires n >= 2")

    def form() -> np.ndarray:
        a = np.zeros((n, n), dtype=np.uint8)
        idx = np.arange(n - 1)
        a[idx, idx + 1] = 1
        a[idx + 1, idx] = 1
        return a

    return Graph._from_structure(n, form, "path")


def build_hypercube(d: int) -> Graph:
    """d-cube on 2^d vertices indexed by binary value; edges at Hamming distance 1."""
    if d < 1:
        raise GraphValidationError("hypercube requires d >= 1")
    sym = _builder_symbol((2,) * d, [1 << j for j in range(d)])
    return build_abelian_circulant(
        sym, family="hypercube", labels=lambda: [format(v, f"0{d}b") for v in range(2**d)])


def build_complete_bipartite(n: int) -> Graph:
    """K_{n,n} with parts {0..n-1} and {n..2n-1}."""
    if n < 1:
        raise GraphValidationError("complete bipartite requires n >= 1")

    def form() -> np.ndarray:
        a = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        a[:n, n:] = 1
        a[n:, :n] = 1
        return a

    return Graph._from_structure(2 * n, form, "complete_bipartite")


def build_abelian_circulant(sym: Symbol, family: str = "abelian_circulant", labels=None) -> Graph:
    """Adjacency A[s, t] = f(s - t) under the group's mixed-radix encoding.

    `sym` passed its check (`Symbol.validate`, or its builder's proof), so the
    graph is valid as built; `labels` may be a builder of the label list.
    """
    return Graph._from_structure(sym.group.order, lambda: _circulant_adjacency(sym), family,
                                 labels, symbol=sym)


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
    """Two copies of `base` joined by a perfect matching, layer-major order.

    Valid as `base` is: each layer is connected, and a rung joins them.
    """
    n = base.n
    return Graph._from_structure(
        2 * n, lambda: _bunkbed_adjacency(base.adjacency), "bunkbed",
        lambda: [f"({b},{v})" for b in (0, 1) for v in range(n)], base=base)


def _bunkbed_adjacency(base: np.ndarray) -> np.ndarray:
    # blocks (base, I; I, base): layer-major, rungs joining (0, v) and (1, v)
    eye = np.eye(len(base), dtype=np.uint8)
    return np.block([[base, eye], [eye, base]])


def from_adjacency(matrix, family: str = "custom", labels: list[str] | None = None) -> Graph:
    """A graph checked on a private copy of a user-supplied adjacency matrix."""
    return Graph(matrix, family=family, labels=labels)


def to_json(doc: dict, indent: int | None = 2) -> str:
    """The one `ctqw/1` serializer: "schema", then the entries of `doc`,
    indented by `indent` (None: on one line, by json's C encoder).  JSON has
    no NaN or infinity: one anywhere in `doc` raises FloatingPointError."""
    try:
        return json.dumps({"schema": SCHEMA, **doc}, indent=indent, allow_nan=False)
    except ValueError:
        raise FloatingPointError("a NaN or infinity reached the output") from None


def graph_to_json(g: Graph) -> str:
    """Serialize with bitstring rows; symbol/base metadata is kept so that a
    re-ingested graph routes to the same closed-form spectrum."""
    return to_json(graph_document(g))


def graph_document(g: Graph) -> dict:
    """The document `graph_to_json` serializes; a bunkbed's base is a graph
    document of its own, schema included."""
    n = g.n
    text = (g.adjacency + ord("0")).tobytes().decode("ascii")  # the reverse of the parser
    doc: dict = {"n": n, "family": g.family,
                 "adjacency_rows": [text[i : i + n] for i in range(0, n * n, n)]}
    if g.labels is not None:
        doc["labels"] = g.labels
    if g.symbol is not None:
        doc["group_factors"] = list(g.symbol.group.factors)
        doc["symbol_support"] = [int(x) for x in g.symbol.support]
    if g.base is not None:
        doc["base"] = {"schema": SCHEMA, **graph_document(g.base)}
    return doc


def graph_from_json(text: str) -> Graph:
    doc = json.loads(text)
    return _graph_from_doc(doc)


def _graph_from_doc(doc: dict) -> Graph:
    if not isinstance(doc, dict):
        raise GraphValidationError("a graph JSON document and its 'base' must be objects")
    rows = doc.get("adjacency_rows")
    n = doc.get("n")
    if rows is None or n is None:
        raise GraphValidationError("graph JSON must contain 'n' and 'adjacency_rows'")
    if isinstance(n, bool):  # JSON true is an int to Python, and would pass as n = 1
        raise GraphValidationError("graph JSON 'n' must be an integer, not a boolean")
    if (not isinstance(n, int) or not isinstance(rows, list) or len(rows) != n
            or any(not isinstance(r, str) or len(r) != n for r in rows)):
        raise GraphValidationError("adjacency_rows must be n strings of n characters")
    # every non-ASCII character becomes '?', which the 0/1 check refuses
    a = np.frombuffer("".join(rows).encode("ascii", "replace"), dtype=np.uint8) - np.uint8(ord("0"))
    if (a > 1).any():
        raise GraphValidationError("adjacency_rows characters must be '0' or '1'")
    symbol = None
    if "group_factors" in doc and "symbol_support" in doc:
        symbol = Symbol.from_support(AbelianGroupSpec(doc["group_factors"]), doc["symbol_support"])
    base = _graph_from_doc(doc["base"]) if "base" in doc else None
    return Graph(a.reshape(n, n), family=doc.get("family", "custom"), labels=doc.get("labels"),
                 symbol=symbol, base=base)
