import numpy as np
import pytest

import structprob.spaces as spaces_mod
from structprob import (
    CapExceeded,
    CyclicPermutations,
    Hypercube,
    Params,
    Permutations,
    RootedTree,
    Structure,
    Subtrees,
    WrongSpace,
    chi_square_gof,
    exact_distribution,
    read_tree_file,
    space_from_descriptor,
    structure_from_json,
    subtree_counts,
)
from structprob.samplers import GibbsTarget

from helpers import (
    brute_force_cycle_payloads,
    brute_force_subtree_count,
    brute_force_subtree_payloads,
    random_parent_array,
)

PATH3 = RootedTree((0, 0, 1))        # r -> a -> b
STAR2 = RootedTree((0, 0, 0))        # root with two leaves
STAR3 = RootedTree((0, 0, 0, 0))
BINARY7 = RootedTree((0, 0, 0, 1, 1, 2, 2))
UNTABLED_TREE = RootedTree((0,) * 12 + (1, 1))  # 5120 subtrees
BIG_BRANCH = RootedTree((0, 0) + (1,) * 64)      # vertex 1 has g = 2^64


# ------------------------------------------------------------------ counting

def test_hypercube_count():
    assert Hypercube(10).count() == 1024


def test_subtree_count_path3_matches_brute_force():
    space = Subtrees(PATH3)
    assert brute_force_subtree_count(PATH3) == 3
    assert space.count() == 3


def test_cycle_count_k4_matches_brute_force():
    space = CyclicPermutations(4)
    assert len(brute_force_cycle_payloads(4)) == 7
    assert space.count() == 7


def test_counts_are_big_integers():
    assert Permutations(30).count() == 265252859812191058636308480000000
    deep = RootedTree((0,) + tuple(range(0, 80)))  # path of 81 vertices
    assert Subtrees(deep).count() == 81
    wide = RootedTree((0,) + (0,) * 80)  # star with 80 leaves
    assert Subtrees(wide).count() == 2**80


@pytest.mark.parametrize("n,expected", [(3, 1), (4, 7), (5, 37), (6, 197)])
def test_cycle_counts_match_enumeration(n, expected):
    space = CyclicPermutations(n)
    members = list(space.enumerate())
    assert space.count() == expected
    assert len(members) == expected
    assert set(members) == {
        Structure("cycles", p) for p in brute_force_cycle_payloads(n)
    }


def test_subtree_counts_match_brute_force_on_random_trees():
    rng = np.random.default_rng(901)
    for _ in range(30):
        d = int(rng.integers(2, 13))
        tree = RootedTree(random_parent_array(d, rng))
        assert Subtrees(tree).count() == brute_force_subtree_count(tree)


def test_subtree_count_recursion_values():
    g = subtree_counts(BINARY7)
    assert g[3] == g[4] == g[5] == g[6] == 1  # leaves
    assert g[1] == g[2] == 4
    assert g[0] == 25


# -------------------------------------------------------------- enumeration

def test_hypercube_enumeration_order():
    got = [y.payload for y in Hypercube(2).enumerate()]
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_permutations_enumeration_distinct_bijections():
    members = list(Permutations(3).enumerate())
    assert len(members) == 6
    assert len(set(members)) == 6
    for y in members:
        assert sorted(y.payload) == [0, 1, 2]


def test_enumeration_matches_count_and_is_canonical():
    spaces = [
        Hypercube(6),
        Permutations(5),
        Subtrees(BINARY7),
        CyclicPermutations(5),
    ]
    for space in spaces:
        members = list(space.enumerate())
        assert len(members) == space.count()
        assert len(set(members)) == space.count()
        payloads = [y.payload for y in members]
        assert payloads == sorted(payloads)
        assert all(space.contains(y) for y in members)


def test_subtree_enumeration_matches_brute_force():
    rng = np.random.default_rng(902)
    for _ in range(10):
        d = int(rng.integers(2, 10))
        tree = RootedTree(random_parent_array(d, rng))
        got = {y.payload for y in Subtrees(tree).enumerate()}
        assert got == brute_force_subtree_payloads(tree)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        Hypercube(30).enumerate()
    with pytest.raises(CapExceeded):
        Permutations(10).labels()


# ----------------------------------------------------------------- sampling

def _uniform_gof(space, n_samples, seed, significance=0.01):
    rng = np.random.default_rng(seed)
    zero = GibbsTarget(space, Params(np.zeros(space.feature_dim)), beta=0.0)
    dist = exact_distribution(zero)
    draws = space.structures(space.sample_uniform(rng, n_samples))
    return chi_square_gof(draws, dist, significance)


@pytest.mark.parametrize(
    "space,seed",
    [
        (Hypercube(4), 11),
        (Permutations(4), 12),
        (Subtrees(STAR3), 13),
        (Subtrees(BINARY7), 14),
        (CyclicPermutations(4), 15),
        (CyclicPermutations(5), 16),
    ],
)
def test_uniform_sampler_chi_square(space, seed):
    # Fixed seeds; with random seeds each assertion would fail ~1% of the time.
    assert _uniform_gof(space, 100_000, seed).passed


@pytest.mark.parametrize(
    "space,seed",
    [
        (Hypercube(13), 51),
        (Permutations(7), 52),
        (CyclicPermutations(8), 53),
        (Subtrees(UNTABLED_TREE), 54),
    ],
)
def test_untabled_uniform_sampler_chi_square(space, seed):
    # the benchmark's spaces just above TABLE_CAP, whose proposals come from
    # these samplers; fixed seeds, as above
    assert space.count() > spaces_mod.TABLE_CAP
    assert _uniform_gof(space, 200_000, seed).passed


@pytest.mark.parametrize(
    "space,seed", [(Subtrees(BINARY7), 55), (CyclicPermutations(5), 56)]
)
def test_python_integer_draws_are_uniform(space, seed, monkeypatch):
    # counts of 2^63 and above are drawn with Python integers; lowering the
    # limit sends every count-driven draw of a small space down that path
    monkeypatch.setattr(spaces_mod, "_INT64_LIMIT", 1)
    assert _uniform_gof(space, 20_000, seed).passed


def test_python_integer_draws_are_members():
    big_tree, big_cycles = Subtrees(BIG_BRANCH), CyclicPermutations(25)
    assert big_tree.g[1] == 2**64 and big_cycles.count() >= 2**63
    rng = np.random.default_rng(57)
    for space in (big_tree, big_cycles):
        for y in space.structures(space.sample_uniform(rng, 500)):
            assert space.contains(y)


def test_hypercube_uniformity_spec_case():
    res = _uniform_gof(Hypercube(4), 100_000, 17)
    assert res.passed and res.dof == 15


def test_star2_subtree_frequencies():
    space = Subtrees(STAR2)
    assert space.count() == 4
    rng = np.random.default_rng(18)
    counts = {y.payload: 0 for y in space.enumerate()}
    n = 100_000
    for y in space.structures(space.sample_uniform(rng, n)):
        counts[y.payload] += 1
    for c in counts.values():
        assert abs(c / n - 0.25) < 0.01


def test_permutations_singleton():
    space = Permutations(1)
    rng = np.random.default_rng(0)
    for y in space.structures(space.sample_uniform(rng, 5)):
        assert y.payload == (0,)


def test_samples_are_members():
    rng = np.random.default_rng(19)
    spaces = [
        Hypercube(7),
        Permutations(6),
        Subtrees(BINARY7),
        CyclicPermutations(6),
    ]
    for space in spaces:
        for y in space.structures(space.sample_uniform(rng, 200)):
            assert space.contains(y)


def test_sampling_reproducible():
    space = CyclicPermutations(6)
    a = space.structures(space.sample_uniform(np.random.default_rng(5), 20))
    b = space.structures(space.sample_uniform(np.random.default_rng(5), 20))
    assert a == b


# ----------------------------------------------------------------- features

def test_cycle_triangle_features_all_ones():
    space = CyclicPermutations(3)
    triangle = Structure("cycles", ((0, 1), (0, 2), (1, 2)))
    assert space.output_features(triangle).tolist() == [1.0, 1.0, 1.0]


def test_hypercube_features_are_bits():
    space = Hypercube(3)
    y = Structure("hypercube", (1, 0, 1))
    assert space.output_features(y).tolist() == [1.0, 0.0, 1.0]


def test_permutation_features_two_ones():
    space = Permutations(2)
    y = Structure("permutations", (1, 0))
    psi = space.output_features(y)
    assert psi.size == 4
    assert psi.sum() == 2.0
    assert psi.tolist() == [0.0, 1.0, 1.0, 0.0]


def test_feature_norm_bounds():
    rng = np.random.default_rng(20)
    spaces = [
        Hypercube(5),
        Permutations(4),
        Subtrees(BINARY7),
        CyclicPermutations(5),
    ]
    for space in spaces:
        max_seen = 0.0
        for y in space.enumerate():
            norm = float(np.linalg.norm(space.output_features(y)))
            assert norm <= np.sqrt(space.feature_dim) + 1e-12
            max_seen = max(max_seen, norm)
        assert max_seen <= space.max_feature_norm() + 1e-12
        (y,) = space.structures(space.sample_uniform(rng, 1))
        assert np.linalg.norm(space.output_features(y)) <= space.max_feature_norm() + 1e-12


@pytest.mark.parametrize(
    "space",
    [
        Hypercube(5),
        Permutations(4),
        Subtrees(BINARY7),
        Subtrees(BIG_BRANCH),
        CyclicPermutations(6),
        CyclicPermutations(25),
    ],
)
def test_label_rows_match_output_features(space):
    for n in (0, 300):
        payloads = space.sample_uniform(np.random.default_rng(58), n)
        assert payloads.shape[0] == n and payloads.dtype.kind == "i"
        expected = np.zeros((n, space.feature_dim))
        for row, y in zip(expected, space.structures(payloads)):
            row[:] = space.output_features(y) / space.max_feature_norm()
        np.testing.assert_array_equal(space.label_rows(payloads), expected)


def test_wrong_space_rejected():
    y = Structure("hypercube", (1, 0, 1))
    with pytest.raises(WrongSpace):
        Permutations(3).output_features(y)
    with pytest.raises(WrongSpace):
        CyclicPermutations(4).contains(y)


# --------------------------------------------------------------- membership

def test_membership_rejects_invalid_payloads():
    assert not Hypercube(3).contains(Structure("hypercube", (1, 2, 0)))
    assert not Hypercube(3).contains(Structure("hypercube", (1, 0)))
    assert not Permutations(3).contains(Structure("permutations", (0, 0, 2)))
    st = Subtrees(PATH3)
    assert not st.contains(Structure("subtrees", (0, 1, 0)))  # missing root
    assert not st.contains(Structure("subtrees", (1, 0, 1)))  # disconnected
    cy = CyclicPermutations(4)
    assert not cy.contains(Structure("cycles", ((0, 1), (1, 2))))  # too short
    assert not cy.contains(
        Structure("cycles", ((0, 1), (1, 2), (2, 3)))  # open path
    )
    two_triangles = tuple(
        sorted(((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    )
    assert not CyclicPermutations(6).contains(Structure("cycles", two_triangles))


def test_cycle_encoding_is_sorted_edge_list():
    space = CyclicPermutations(5)
    rng = np.random.default_rng(21)
    for y in space.structures(space.sample_uniform(rng, 50)):
        assert list(y.payload) == sorted(y.payload)
        assert all(u < v for u, v in y.payload)


# ------------------------------------------------------------- tree parsing

def test_rooted_tree_validation():
    with pytest.raises(ValueError):
        RootedTree((1, 0))  # vertex 0 not self-parented
    with pytest.raises(ValueError):
        RootedTree((0, 2, 1))  # cycle between 1 and 2
    with pytest.raises(ValueError):
        RootedTree((0, 5))  # parent out of range


def test_read_tree_file(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("4\n0 0 1 1\n")
    tree = read_tree_file(path)
    assert tree.parent == (0, 0, 1, 1)
    assert Subtrees(tree).count() == brute_force_subtree_count(tree)
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 0\n")
    with pytest.raises(ValueError):
        read_tree_file(bad)


def test_descriptor_round_trip():
    spaces = [
        Hypercube(4),
        Permutations(3),
        Subtrees(BINARY7),
        CyclicPermutations(5),
    ]
    for space in spaces:
        clone = space_from_descriptor(space.to_descriptor())
        assert clone == space


def test_structure_json_round_trip():
    spaces = [Hypercube(4), Permutations(4), Subtrees(BINARY7), CyclicPermutations(5)]
    rng = np.random.default_rng(22)
    for space in spaces:
        (y,) = space.structures(space.sample_uniform(rng, 1))
        assert structure_from_json(space.kind, y.to_json()) == y
