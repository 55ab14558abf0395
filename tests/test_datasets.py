"""Built-in configurations, the basis transform, and dataset integrity."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from ksrays import builtin
from ksrays.datasets import (
    DATASET_NAMES,
    KP_EXCLUDED,
    KP_VECTORS,
    M_VECTORS,
    N_INDICES,
    PARTITION_44_ONES,
    PARTITION_62_ONES,
    T0_INDICES,
    TRANSFORM_PAIRS,
    TROPICAL_INDEX_SETS,
    build_transform_T,
)
from ksrays.orthograph import maximal_cliques
from ksrays.rays import Configuration, make_ray


class TestCardinalities:
    def test_ray_counts(self):
        expected = {
            "M": 64,
            "N": 36,
            "T0": 48,
            "KP40": 40,
            "KP36": 36,
            "E8": 120,
            "A": 64,
            "B": 128,
        }
        for name, count in expected.items():
            assert builtin(name).n == count

    def test_tropicals_shape(self):
        trops = builtin("TROPICALS")
        assert len(trops) == 32
        assert all(t.n == 48 for t in trops)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            builtin("Q")

    def test_builtin_is_cached(self):
        assert builtin("M") is builtin("M")

    def test_names_cover_every_dataset(self):
        for name in DATASET_NAMES:
            assert builtin(name) is not None


class TestIndexSets:
    def test_n_inside_t0(self):
        assert set(N_INDICES) <= set(T0_INDICES)

    def test_t0_is_first_tropical(self):
        assert TROPICAL_INDEX_SETS[0] == tuple(sorted(T0_INDICES))

    def test_tropical_sets_are_distinct_48_subsets(self):
        assert len(set(TROPICAL_INDEX_SETS)) == 32
        for idx in TROPICAL_INDEX_SETS:
            assert len(idx) == 48
            assert set(idx) <= set(range(64))

    def test_kp36_drops_the_excluded_rays(self):
        kp40, kp36 = builtin("KP40"), builtin("KP36")
        kept = [r for i, r in enumerate(kp40.rays) if i not in KP_EXCLUDED]
        assert set(kp36.rays) == set(kept)
        # The restriction matches a configuration built from the kept vectors.
        ref = Configuration(
            [make_ray(v) for i, v in enumerate(KP_VECTORS) if i not in KP_EXCLUDED]
        )
        assert kp36.rays == ref.rays
        assert kp36.adj == ref.adj

    def test_subconfigurations_share_rays_with_m(self):
        m = builtin("M")
        assert set(builtin("N").rays) <= set(m.rays)
        assert set(builtin("T0").rays) <= set(m.rays)


class TestPartitionWitnesses:
    def test_62_witness_hits_every_clique_twice(self):
        m = builtin("M")
        ones = set(PARTITION_62_ONES)
        for clique in maximal_cliques(m):
            assert len(ones & set(clique)) == 2

    def test_44_witness_hits_every_clique_four_times(self):
        m = builtin("M")
        ones = set(PARTITION_44_ONES)
        for clique in maximal_cliques(m):
            assert len(ones & set(clique)) == 4


class TestTransform:
    def test_orthogonal_up_to_scalar(self):
        t = build_transform_T()
        mat = t.matrix
        d = len(mat)
        for i in range(d):
            for j in range(d):
                dot = sum(mat[k][i] * mat[k][j] for k in range(d))
                assert dot == (Fraction(1, 2) if i == j else 0)

    def test_basis_assignments_hold(self):
        t = build_transform_T()
        for source, target in TRANSFORM_PAIRS:
            assert t.apply_ray(make_ray(source)) == make_ray(target)

    def test_integer_apply_ray_matches_fraction_apply(self):
        # apply_ray multiplies by the integer numerator matrix; the ray
        # of the image must equal the ray of the exact rational image.
        t = build_transform_T()
        a = builtin("A")
        assert len(a.rays) == 64
        for r in a.rays:
            assert t.apply_ray(r) == make_ray(t.apply([c.re for c in r.coords]))

    def test_preserves_orthogonality(self):
        t = build_transform_T()
        m = builtin("M")
        for i, j in combinations(range(0, 16, 3), 2):
            x, y = m.rays[i], m.rays[j]
            from ksrays.rays import inner_product

            lhs = inner_product(x, y).is_zero()
            rhs = inner_product(t.apply_ray(x), t.apply_ray(y)).is_zero()
            assert lhs == rhs


class TestE8Family:
    def test_support_profile(self):
        # 64 full-support sign vectors with an even number of minuses
        # and 56 two-support vectors.
        e8 = builtin("E8")
        supports = {}
        for ray in e8.rays:
            s = sum(1 for c in ray.coords if not c.is_zero())
            supports[s] = supports.get(s, 0) + 1
        assert supports == {8: 64, 2: 56}

    def test_a_is_the_full_support_part(self):
        e8, a = builtin("E8"), builtin("A")
        full = {
            r
            for r in e8.rays
            if all(not c.is_zero() for c in r.coords)
        }
        assert set(a.rays) == full

    def test_b_splits_into_a_and_its_image(self):
        a, b = builtin("A"), builtin("B")
        t = build_transform_T()
        image = {t.apply_ray(r) for r in a.rays}
        assert set(b.rays) == set(a.rays) | image
        assert len(set(a.rays) & image) == 0
        # B is A followed by T(A): ray 64 + k is the image of A's ray k.
        assert b.rays[: a.n] == a.rays
        assert b.rays[a.n :] == tuple(t.apply_ray(r) for r in a.rays)

    def test_m_vectors_are_plus_minus_one_or_zero(self):
        for vec in M_VECTORS:
            assert all(x in (-1, 0, 1) for x in vec)
            assert len(vec) == 8
