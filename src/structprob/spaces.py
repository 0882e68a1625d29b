"""Combinatorial output spaces.

Four families of structures are supported, each with exact counting, exact
uniform sampling, deterministic enumeration, membership testing and a 0/1
indicator feature map:

* ``Hypercube(d)``        -- bit sequences of length d (multi-label sets)
* ``Permutations(d)``     -- orderings of d items (rankings)
* ``Subtrees(tree)``      -- subtrees of a rooted tree that contain the root
* ``CyclicPermutations(n)`` -- undirected simple cycles on n labelled vertices

Counts are arbitrary-precision integers (d! and subtree counts overflow 64
bits quickly), and sampling decisions driven by those counts are made with
exact integer arithmetic so the resulting distributions are exactly uniform:
in int64 where a count fits, and with Python integers where it does not.

``sample_uniform(rng, n)`` draws n structures in one batch as an (n, w)
payload matrix of small integers, one row per structure:

* hypercube: the d bits;
* permutations: the item at each of the d positions;
* subtrees: the d vertex-inclusion bits;
* cycles: the cycle's vertices in visiting order, padded with -1 to width n.

``label_rows`` maps payload rows to normalized label features in one
vectorized pass, and ``structures`` turns them into ``Structure`` objects,
which callers build only for the draws they return.

``enumerate_payloads`` lists every structure as a payload matrix in the
sorted order of ``enumerate``: the cycles' rows start at their smallest
vertex and step to its smaller neighbour.  ``OutputSpace.labels`` turns that
matrix into the label table with one ``label_rows`` call: every structure's
payload row with its normalized label features, the one input of every
exact score, expectation and training pass.  The table builds ``Structure``
objects only when a caller asks for them.  A space with at most
``TABLE_CAP`` structures caches the table on the instance as
``label_table``, so every score table over it reuses one build; larger
spaces, up to ``ENUMERATION_CAP``, build it afresh for each exact
computation.

All spaces are immutable after construction and safe to share across threads;
every sampling operation takes an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial, sqrt
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import CapExceeded, WrongSpace

# Spaces larger than this refuse to enumerate.
ENUMERATION_CAP = 10**6

# Largest space whose structures and label features are tabulated.
TABLE_CAP = 4096

# Exclusive bound of int64 draws: a range of this many values or more is
# drawn with Python integers by ``_randbelow``.
_INT64_LIMIT = 2**63


@dataclass(frozen=True)
class Structure:
    """A single point of an output space.

    ``payload`` is the canonical encoding for ``kind``:

    * ``"hypercube"``: tuple of 0/1 ints, length d.
    * ``"permutations"``: tuple mapping position i to item ``payload[i]``,
      a bijection on 0..d-1.
    * ``"subtrees"``: tuple of 0/1 vertex-inclusion ints, length d.
    * ``"cycles"``: tuple of edges ``(u, v)`` with u < v, sorted
      lexicographically, forming one simple cycle of length >= 3.

    Two equal structures always have identical payloads, so Structure
    supports hashing and byte-stable serialization.
    """

    kind: str
    payload: tuple

    def to_json(self):
        if self.kind == "cycles":
            return [list(e) for e in self.payload]
        return list(self.payload)


def structure_from_json(kind: str, data) -> Structure:
    if kind == "cycles":
        return Structure(kind, tuple(sorted((int(u), int(v)) for u, v in data)))
    return Structure(kind, tuple(int(b) for b in data))


def _randbelow(rng: np.random.Generator, n: int) -> int:
    """Exact uniform integer in [0, n) for arbitrary-precision n."""
    if n <= 0:
        raise ValueError("n must be positive")
    k = n.bit_length()
    nbytes = (k + 7) // 8
    mask = (1 << k) - 1
    while True:
        r = int.from_bytes(rng.bytes(nbytes), "big") & mask
        if r < n:
            return r


def _row_permutations(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n independent uniform permutations of 0..d-1, one per row, in the
    smallest signed integer type that also holds -d."""
    rows = np.tile(np.arange(d, dtype=np.min_scalar_type(-d)), (n, 1))
    return rng.permuted(rows, axis=1)


@dataclass(frozen=True)
class RootedTree:
    """Rooted tree over vertices 0..d-1 given as a parent array.

    Vertex 0 is the root and is its own parent; every other vertex must
    reach the root through the parent pointers.
    """

    parent: tuple[int, ...]

    def __post_init__(self):
        d = len(self.parent)
        if d < 1:
            raise ValueError("tree needs at least one vertex")
        if self.parent[0] != 0:
            raise ValueError("vertex 0 must be the root (self-parented)")
        for v, p in enumerate(self.parent):
            if not 0 <= p < d:
                raise ValueError(f"parent[{v}]={p} out of range")
            if v != 0 and p == v:
                raise ValueError(f"vertex {v} is self-parented but not the root")
        # every vertex must reach the root; a cycle would revisit a vertex
        for v in range(d):
            seen = set()
            while v != 0:
                if v in seen:
                    raise ValueError("parent array contains a cycle")
                seen.add(v)
                v = self.parent[v]

    @property
    def vertex_count(self) -> int:
        return len(self.parent)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            if v != 0:
                kids[p].append(v)
        return tuple(tuple(k) for k in kids)

    @cached_property
    def postorder(self) -> tuple[int, ...]:
        order: list[int] = []
        stack = [(0, False)]
        while stack:
            v, done = stack.pop()
            if done:
                order.append(v)
            else:
                stack.append((v, True))
                for c in self.children[v]:
                    stack.append((c, False))
        return tuple(order)


def read_tree_file(path) -> RootedTree:
    """Parse the tree file format: first token d, then d parent entries."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"empty tree file: {path}")
    d = int(tokens[0])
    if len(tokens) != d + 1:
        raise ValueError(f"expected {d} parent entries, got {len(tokens) - 1}")
    return RootedTree(tuple(int(t) for t in tokens[1:]))


def read_edge_list(path) -> tuple[int, list[tuple[int, int]]]:
    """Parse a graph file: one 0-indexed "u v" pair per line.

    Returns (n, edges) with n = 1 + the largest vertex mentioned.  Blank
    lines and lines starting with '#' are skipped.
    """
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if u < 0 or v < 0 or u == v:
                raise ValueError(f"{path}:{lineno}: bad edge ({u}, {v})")
            edges.append((u, v) if u < v else (v, u))
    if not edges:
        raise ValueError(f"no edges in {path}")
    n = 1 + max(max(e) for e in edges)
    return n, sorted(set(edges))


def subtree_counts(tree: RootedTree) -> tuple[int, ...]:
    """Per-vertex count g(v) of subtrees rooted at v that contain v.

    Leaves have g(v) = 1 and internally g(v) = prod over children c of
    (1 + g(c)): each child branch is either absent or one of its g(c)
    subtrees.  g(root) is therefore the number of non-empty subtrees of the
    whole tree that contain the root.
    """
    g = [1] * tree.vertex_count
    for v in tree.postorder:
        prod = 1
        for c in tree.children[v]:
            prod *= 1 + g[c]
        g[v] = prod
    return tuple(g)


@dataclass(frozen=True, eq=False)
class LabelTable:
    """Every structure of a space as a payload row, with its normalized
    label features.

    Row k of ``features`` is psi(y_k) / max||psi|| for the structure y_k
    behind payload row k, and the rows follow the space's sorted enumeration
    order.  Nothing here depends on parameters or inputs: the joint map is
    bilinear, so the score of y_k under theta and x is ``features[k] @ v``
    for one vector v folded from theta and x, and every target on the space
    can share this table.  ``structures`` is built on first use only:
    kernels that read row indices and scores never need it.
    """

    space: "OutputSpace"  # an equal copy: the space that caches the table is not kept
    payloads: np.ndarray  # read-only, one payload row per structure
    features: np.ndarray  # read-only, one row per structure

    @cached_property
    def structures(self) -> tuple[Structure, ...]:
        """The Structure behind each row."""
        return tuple(self.space.structures(self.payloads))


class OutputSpace:
    """Common interface of the four combinatorial families."""

    kind: str

    def count(self) -> int:
        raise NotImplementedError

    def sample_uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n independent exactly uniform draws as an (n, w) payload matrix."""
        raise NotImplementedError

    def structures(self, payloads: np.ndarray) -> list[Structure]:
        """The Structure behind each payload row."""
        return [Structure(self.kind, tuple(row)) for row in payloads.tolist()]

    def label_rows(self, payloads: np.ndarray) -> np.ndarray:
        """psi(y) / max||psi|| of the structure behind each payload row."""
        raise NotImplementedError

    def enumerate(self, cap: int = ENUMERATION_CAP) -> Iterator[Structure]:
        """Yield every structure exactly once, in sorted payload order."""
        raise NotImplementedError

    def enumerate_payloads(self, cap: int = ENUMERATION_CAP) -> np.ndarray:
        """Every structure as one payload row, in the order of ``enumerate``.

        Raises CapExceeded above ``cap`` structures before allocating.
        """
        raise NotImplementedError

    def contains(self, y: Structure) -> bool:
        raise NotImplementedError

    def output_features(self, y: Structure) -> np.ndarray:
        raise NotImplementedError

    @property
    def feature_dim(self) -> int:
        raise NotImplementedError

    def max_feature_norm(self) -> float:
        """Largest possible l2 norm of output_features over the space."""
        raise NotImplementedError

    def to_descriptor(self) -> dict:
        raise NotImplementedError

    def labels(self, cap: int = ENUMERATION_CAP) -> LabelTable:
        """Every structure's payload row with its label row, built afresh by
        one ``label_rows`` call on the payload matrix.

        Raises CapExceeded above ``cap`` structures before allocating.
        The table holds an equal copy of the space, so a space that caches
        its table forms no reference cycle and is freed without the
        garbage collector.
        """
        payloads = self.enumerate_payloads(cap)
        features = self.label_rows(payloads)
        payloads.setflags(write=False)
        features.setflags(write=False)
        return LabelTable(dataclasses.replace(self), payloads, features)

    @cached_property
    def label_table(self) -> Optional[LabelTable]:
        """``labels()`` cached on the instance, or None above TABLE_CAP."""
        if self.count() > TABLE_CAP:
            return None
        return self.labels()

    def _check_cap(self, cap: int) -> None:
        if self.count() > cap:
            raise CapExceeded(
                f"{self.kind} space has {self.count()} structures, cap is {cap}"
            )

    def _check_kind(self, y: Structure) -> None:
        if y.kind != self.kind:
            raise WrongSpace(f"structure kind {y.kind!r} does not match {self.kind!r}")


@dataclass(frozen=True)
class Hypercube(OutputSpace):
    """Bit sequences of length d; one bit per label."""

    d: int
    kind = "hypercube"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")

    def count(self) -> int:
        return 1 << self.d

    def sample_uniform(self, rng, n):
        return rng.integers(0, 2, (n, self.d), dtype=np.int8)

    def label_rows(self, payloads):
        return payloads / self.max_feature_norm()

    def enumerate(self, cap: int = ENUMERATION_CAP):
        self._check_cap(cap)
        return (
            Structure(self.kind, bits)
            for bits in itertools.product((0, 1), repeat=self.d)
        )

    def enumerate_payloads(self, cap: int = ENUMERATION_CAP):
        # row k holds the bits of k, most significant first
        self._check_cap(cap)
        rows = np.arange(self.count())
        payloads = np.empty((len(rows), self.d), dtype=np.int8)
        for j in range(self.d):
            payloads[:, j] = (rows >> (self.d - 1 - j)) & 1
        return payloads

    def contains(self, y):
        self._check_kind(y)
        return len(y.payload) == self.d and all(b in (0, 1) for b in y.payload)

    def output_features(self, y):
        self._check_kind(y)
        if len(y.payload) != self.d:
            raise WrongSpace(f"expected {self.d} bits, got {len(y.payload)}")
        return np.asarray(y.payload, dtype=float)

    @property
    def feature_dim(self):
        return self.d

    def max_feature_norm(self):
        return sqrt(self.d)

    def to_descriptor(self):
        return {"kind": self.kind, "d": self.d}


@dataclass(frozen=True)
class Permutations(OutputSpace):
    """Bijections on d items; payload[i] is the item placed at position i."""

    d: int
    kind = "permutations"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")

    def count(self) -> int:
        return factorial(self.d)

    def sample_uniform(self, rng, n):
        return _row_permutations(rng, n, self.d)

    def label_rows(self, payloads):
        # one-hot (position, item) cells: row k's item at position i is
        # flat cell (k*d + i)*d + item of the (n, d, d) array
        psi = np.zeros((len(payloads), self.feature_dim))
        cells = np.arange(0, psi.size, self.d) + payloads.reshape(-1)
        psi.reshape(-1)[cells] = 1.0 / self.max_feature_norm()
        return psi

    def enumerate(self, cap: int = ENUMERATION_CAP):
        self._check_cap(cap)
        return (
            Structure(self.kind, perm)
            for perm in itertools.permutations(range(self.d))
        )

    def enumerate_payloads(self, cap: int = ENUMERATION_CAP):
        self._check_cap(cap)
        row = np.dtype((np.min_scalar_type(-self.d), (self.d,)))
        return np.fromiter(itertools.permutations(range(self.d)), dtype=row,
                           count=self.count())

    def contains(self, y):
        self._check_kind(y)
        return len(y.payload) == self.d and sorted(y.payload) == list(range(self.d))

    def output_features(self, y):
        self._check_kind(y)
        if len(y.payload) != self.d:
            raise WrongSpace(f"expected {self.d} positions, got {len(y.payload)}")
        m = np.zeros((self.d, self.d))
        for pos, item in enumerate(y.payload):
            m[pos, item] = 1.0
        return m.reshape(-1)

    @property
    def feature_dim(self):
        return self.d * self.d

    def max_feature_norm(self):
        return sqrt(self.d)

    def to_descriptor(self):
        return {"kind": self.kind, "d": self.d}


@dataclass(frozen=True)
class Subtrees(OutputSpace):
    """Subtrees of a rooted tree that contain the root (never empty).

    The payload is the vertex-inclusion bit sequence; validity means the
    root bit is set and every included vertex's parent is included.
    """

    tree: RootedTree
    kind = "subtrees"

    @cached_property
    def g(self) -> tuple[int, ...]:
        return subtree_counts(self.tree)

    def count(self) -> int:
        return self.g[0]

    def sample_uniform(self, rng, n):
        # Root is always in; every other vertex c draws its branch, taken
        # with probability g(c)/(1+g(c)), and keeps it only if its parent is
        # in.  Every branch is drawn, so the draws stay independent and the
        # odds along any fixed subtree multiply to 1/g(root): the draw is
        # exactly uniform.
        take = np.ones((self.tree.vertex_count, n), dtype=bool)
        for g, group in self._branch_groups.items():
            if 1 + g < _INT64_LIMIT:
                take[group] = rng.integers(0, 1 + g, (len(group), n)) < g
            else:
                take[group] = [[_randbelow(rng, 1 + g) < g for _ in range(n)]
                               for _ in group]
        for c in reversed(self.tree.postorder):  # parents first
            take[c] &= take[self.tree.parent[c]]
        return np.ascontiguousarray(take.T, dtype=np.int8)

    @cached_property
    def _branch_groups(self) -> dict[int, list[int]]:
        """Non-root vertices grouped by g, so each group is drawn in one call."""
        groups: dict[int, list[int]] = {}
        for c in range(1, self.tree.vertex_count):
            groups.setdefault(self.g[c], []).append(c)
        return groups

    def label_rows(self, payloads):
        return payloads / self.max_feature_norm()

    def _vertex_sets(self, v: int) -> list[frozenset]:
        options = []
        child_choices = []
        for c in self.tree.children[v]:
            child_choices.append([frozenset()] + self._vertex_sets(c))
        for combo in itertools.product(*child_choices):
            s = frozenset((v,)).union(*combo)
            options.append(s)
        return options

    def enumerate(self, cap: int = ENUMERATION_CAP):
        self._check_cap(cap)
        d = self.tree.vertex_count
        payloads = [
            tuple(1 if v in s else 0 for v in range(d)) for s in self._vertex_sets(0)
        ]
        payloads.sort()
        return (Structure(self.kind, p) for p in payloads)

    def enumerate_payloads(self, cap: int = ENUMERATION_CAP):
        # children before parents: the subtrees at v are v alone times, for
        # each child, its branch absent or one of the child's own subtrees
        self._check_cap(cap)
        d = self.tree.vertex_count
        below: dict[int, np.ndarray] = {}
        for v in self.tree.postorder:
            rows = np.zeros((1, d), dtype=np.int8)
            rows[0, v] = 1
            for c in self.tree.children[v]:
                branch = np.concatenate([np.zeros((1, d), dtype=np.int8), below.pop(c)])
                rows = (rows[:, None, :] | branch[None, :, :]).reshape(-1, d)
            below[v] = rows
        rows = below[0]
        return rows[np.lexsort(rows.T[::-1])]  # as tuples sort: column 0 first

    def contains(self, y):
        self._check_kind(y)
        d = self.tree.vertex_count
        if len(y.payload) != d or any(b not in (0, 1) for b in y.payload):
            return False
        if y.payload[0] != 1:
            return False
        return all(
            y.payload[self.tree.parent[v]] == 1
            for v in range(1, d)
            if y.payload[v] == 1
        )

    def output_features(self, y):
        self._check_kind(y)
        if len(y.payload) != self.tree.vertex_count:
            raise WrongSpace("vertex count mismatch")
        return np.asarray(y.payload, dtype=float)

    @property
    def feature_dim(self):
        return self.tree.vertex_count

    def max_feature_norm(self):
        return sqrt(self.tree.vertex_count)

    def to_descriptor(self):
        return {"kind": self.kind, "parent": list(self.tree.parent)}


def _pair_index(u: int, v: int, n: int) -> int:
    # lexicographic rank of the pair (u, v), u < v, among all C(n, 2) pairs
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


@dataclass(frozen=True)
class CyclicPermutations(OutputSpace):
    """Undirected simple cycles of length >= 3 on n labelled vertices.

    A cycle visiting k vertices is encoded as its edge set; there are
    C(n, k) * (k-1)!/2 such cycles for each k, summed over k = 3..n.
    """

    n: int
    kind = "cycles"

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n must be >= 3")

    @cached_property
    def _length_bounds(self) -> np.ndarray:
        """Running sums of the cycle counts for k = 3..n; int64 when they
        fit, Python integers otherwise."""
        bounds = list(itertools.accumulate(
            comb(self.n, k) * factorial(k - 1) // 2 for k in range(3, self.n + 1)))
        return np.array(bounds, dtype=np.int64 if bounds[-1] < _INT64_LIMIT else object)

    def count(self) -> int:
        return int(self._length_bounds[-1])

    def sample_uniform(self, rng, n):
        # length k in proportion to its cycle count, then the first k entries
        # of a uniform permutation: each k-cycle arises from exactly 2k of
        # these ordered prefixes (k starting points, two directions), so the
        # cycle is uniform.
        bounds = self._length_bounds
        if bounds.dtype == np.int64:
            r = rng.integers(0, bounds[-1], n)
        else:
            total = int(bounds[-1])
            r = np.array([_randbelow(rng, total) for _ in range(n)], dtype=object)
        lengths = 3 + np.searchsorted(bounds, r, side="right")
        rows = _row_permutations(rng, n, self.n)
        rows[np.arange(self.n) >= lengths[:, None]] = -1
        return rows

    def structures(self, payloads):
        return [
            Structure(self.kind, _cycle_edges([v for v in row if v >= 0]))
            for row in payloads.tolist()
        ]

    def label_rows(self, payloads):
        # padding positions repeat the row's first edge, whose cell is set anyway
        cells = _edge_cells(payloads, self.n)
        cells = np.where(payloads < 0, cells[:, :1], cells)
        psi = np.zeros((len(payloads), self.feature_dim))
        cells += np.arange(0, psi.size, self.feature_dim)[:, None]
        psi.reshape(-1)[cells] = 1.0 / self.max_feature_norm()
        return psi

    def enumerate(self, cap: int = ENUMERATION_CAP):
        self._check_cap(cap)
        payloads = []
        for k in range(3, self.n + 1):
            for subset in itertools.combinations(range(self.n), k):
                anchor, rest = subset[0], subset[1:]
                for perm in itertools.permutations(rest):
                    if perm[0] > perm[-1]:
                        continue  # keep one traversal direction per cycle
                    payloads.append(_cycle_edges((anchor,) + perm))
        payloads.sort()
        return (Structure(self.kind, p) for p in payloads)

    def enumerate_payloads(self, cap: int = ENUMERATION_CAP):
        # each cycle once, in vertex order from its smallest vertex towards
        # the smaller of that vertex's two neighbours
        self._check_cap(cap)
        n = self.n
        vertex = np.min_scalar_type(-n)
        blocks = []
        for k in range(3, n + 1):
            subsets = np.fromiter(itertools.combinations(range(n), k),
                                  dtype=np.dtype((vertex, (k,))), count=comb(n, k))
            # visiting orders of a sorted k-subset, as positions in it
            turns = [(0,) + p for p in itertools.permutations(range(1, k)) if p[0] < p[-1]]
            rows = np.full((len(subsets), len(turns), n), -1, dtype=vertex)
            rows[:, :, :k] = subsets[:, turns]
            blocks.append(rows.reshape(-1, n))
        payloads = np.concatenate(blocks)
        # sorted as ``enumerate`` sorts edge lists: a pair index is the rank
        # of its edge, and -1 after a row's last edge ends it first
        cells = np.where(payloads < 0, self.feature_dim, _edge_cells(payloads, n))
        cells.sort(axis=1)
        cells[cells == self.feature_dim] = -1
        return payloads[np.lexsort(cells.T[::-1])]

    def contains(self, y):
        self._check_kind(y)
        edges = y.payload
        if len(edges) < 3 or len(edges) != len(set(edges)):
            return False
        if list(edges) != sorted(edges):
            return False
        degree: dict[int, int] = {}
        for e in edges:
            if len(e) != 2 or not (0 <= e[0] < e[1] < self.n):
                return False
            for v in e:
                degree[v] = degree.get(v, 0) + 1
        if len(degree) != len(edges) or any(deg != 2 for deg in degree.values()):
            return False
        # degrees all 2 and #edges == #vertices: connected iff a single cycle
        adj: dict[int, list[int]] = {v: [] for v in degree}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        start = next(iter(degree))
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(degree)

    def output_features(self, y):
        self._check_kind(y)
        psi = np.zeros(self.feature_dim)
        for u, v in y.payload:
            if not 0 <= u < v < self.n:
                raise WrongSpace(f"edge ({u}, {v}) out of range for n={self.n}")
            psi[_pair_index(u, v, self.n)] = 1.0
        return psi

    @property
    def feature_dim(self):
        return self.n * (self.n - 1) // 2

    def max_feature_norm(self):
        return sqrt(self.n)

    def to_descriptor(self):
        return {"kind": self.kind, "n": self.n}


def _edge_cells(payloads: np.ndarray, n: int) -> np.ndarray:
    """Pair index of the edge (order[j], order[j+1]) at each position j of
    each vertex-order row, the last vertex closing the cycle to order[0];
    entries at padding positions are meaningless."""
    order = payloads.astype(np.intp)
    after = np.roll(order, -1, axis=1)
    after = np.where(after < 0, order[:, :1], after)
    return _pair_index(np.minimum(order, after), np.maximum(order, after), n)


def _cycle_edges(order: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Canonical edge set of the cycle visiting ``order`` and closing up."""
    k = len(order)
    edges = []
    for i in range(k):
        u, v = order[i], order[(i + 1) % k]
        edges.append((u, v) if u < v else (v, u))
    return tuple(sorted(edges))


def space_from_descriptor(desc: dict) -> OutputSpace:
    kind = desc["kind"]
    if kind == "hypercube":
        return Hypercube(int(desc["d"]))
    if kind == "permutations":
        return Permutations(int(desc["d"]))
    if kind == "subtrees":
        return Subtrees(RootedTree(tuple(int(p) for p in desc["parent"])))
    if kind == "cycles":
        return CyclicPermutations(int(desc["n"]))
    raise ValueError(f"unknown space kind {kind!r}")
