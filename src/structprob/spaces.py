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
exact integer arithmetic so the resulting distributions are exactly uniform.

All spaces are immutable after construction and safe to share across threads;
every sampling operation takes an explicit ``numpy.random.Generator``.
``OutputSpace.labels`` turns an enumeration into the label matrix: every
structure with its normalized label features, the one input of every exact
score, expectation and training pass.  A space with at most ``TABLE_CAP``
structures caches that matrix on the instance as ``label_table``, so every
score table over it reuses one enumeration; larger spaces, up to
``ENUMERATION_CAP``, build it afresh for each exact computation.
"""

from __future__ import annotations

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
    """Every structure of a space with its normalized label features.

    Row k of ``features`` is psi(structures[k]) / max||psi||.  Nothing here
    depends on parameters or inputs: the joint map is bilinear, so the score
    of y under theta and x is ``features[k] @ v`` for one vector v folded
    from theta and x, and every target on the space can share this table.
    """

    structures: tuple[Structure, ...]
    features: np.ndarray  # read-only, one row per structure

    @cached_property
    def index(self) -> dict[Structure, int]:
        """Row of each structure."""
        return {y: k for k, y in enumerate(self.structures)}


class OutputSpace:
    """Common interface of the four combinatorial families."""

    kind: str

    def count(self) -> int:
        raise NotImplementedError

    def sample_uniform(self, rng: np.random.Generator) -> Structure:
        raise NotImplementedError

    def enumerate(self, cap: int = ENUMERATION_CAP) -> Iterator[Structure]:
        """Yield every structure exactly once, in sorted payload order."""
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

    def label_rows(self, structures: Sequence[Structure]) -> np.ndarray:
        """psi(y) / max||psi|| of each structure, filled into one new array."""
        psi = np.empty((len(structures), self.feature_dim))
        for row, y in zip(psi, structures):
            row[:] = self.output_features(y)
        psi /= self.max_feature_norm()
        return psi

    def labels(self, cap: int = ENUMERATION_CAP) -> LabelTable:
        """Every structure with its label rows, built afresh.

        Raises CapExceeded above ``cap`` structures before allocating.
        """
        structures = tuple(self.enumerate(cap))
        psi = self.label_rows(structures)
        psi.setflags(write=False)
        return LabelTable(structures, psi)

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

    def sample_uniform(self, rng):
        return Structure(self.kind, tuple(int(b) for b in rng.integers(0, 2, self.d)))

    def enumerate(self, cap: int = ENUMERATION_CAP):
        self._check_cap(cap)
        return (
            Structure(self.kind, bits)
            for bits in itertools.product((0, 1), repeat=self.d)
        )

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

    def sample_uniform(self, rng):
        return Structure(self.kind, tuple(int(v) for v in rng.permutation(self.d)))

    def enumerate(self, cap: int = ENUMERATION_CAP):
        self._check_cap(cap)
        return (
            Structure(self.kind, perm)
            for perm in itertools.permutations(range(self.d))
        )

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

    def sample_uniform(self, rng):
        # Root is always in; each child branch c of an included vertex is
        # taken independently with probability g(c)/(1+g(c)).  Multiplying
        # the per-branch odds along any fixed subtree gives 1/g(root), so
        # the draw is exactly uniform.
        included = [0] * self.tree.vertex_count
        stack = [0]
        while stack:
            v = stack.pop()
            included[v] = 1
            for c in self.tree.children[v]:
                if _randbelow(rng, 1 + self.g[c]) < self.g[c]:
                    stack.append(c)
        return Structure(self.kind, tuple(included))

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
    def _length_counts(self) -> tuple[int, ...]:
        return tuple(
            comb(self.n, k) * factorial(k - 1) // 2 for k in range(3, self.n + 1)
        )

    def count(self) -> int:
        return sum(self._length_counts)

    def sample_uniform(self, rng):
        # length k proportional to its cycle count, then a uniform k-subset,
        # then a uniform ordering of the non-anchor vertices.  Each edge set
        # arises from exactly two orderings (the two traversal directions),
        # uniformly for every cycle, so the edge set is uniform.
        r = _randbelow(rng, self.count())
        k = 3
        for c in self._length_counts:
            if r < c:
                break
            r -= c
            k += 1
        vertices = sorted(int(v) for v in rng.choice(self.n, size=k, replace=False))
        rest = [vertices[1 + int(i)] for i in rng.permutation(k - 1)]
        return Structure(self.kind, _cycle_edges([vertices[0]] + rest))

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
