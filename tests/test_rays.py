"""Canonicalization, exact inner products, and the vector file format."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from ksrays.rays import (
    Configuration,
    GaussianInt,
    Ray,
    UNITS,
    _compress,
    _parse_coord,
    dump_vectors,
    gi,
    inner_product,
    load_vectors,
    make_ray,
    orthogonal,
)
from ksrays.datasets import builtin

gaussian_ints = st.builds(
    GaussianInt,
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
)


def coords_strategy(dim: int):
    return st.lists(gaussian_ints, min_size=dim, max_size=dim).filter(
        lambda cs: any(not c.is_zero() for c in cs)
    )


class TestGaussianInt:
    def test_ring_operations(self):
        a = GaussianInt(2, 3)
        b = GaussianInt(-1, 4)
        assert a + b == GaussianInt(1, 7)
        assert a - b == GaussianInt(3, -1)
        assert a * b == GaussianInt(-14, 5)
        assert -a == GaussianInt(-2, -3)
        assert a.conjugate() == GaussianInt(2, -3)

    @given(gaussian_ints, gaussian_ints)
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(gaussian_ints, gaussian_ints, gaussian_ints)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    def test_gi_coercion(self):
        assert gi(3) == GaussianInt(3, 0)
        assert gi(1 - 1j) == GaussianInt(1, -1)
        with pytest.raises(ValueError):
            gi(0.5 + 0j)
        with pytest.raises(TypeError):
            gi("1")


class TestMakeRay:
    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            make_ray([0, 0])

    def test_leading_sign_normalized(self):
        assert make_ray([-1, 1]) == make_ray([1, -1])
        assert make_ray([0, -1, 1]) == make_ray([0, 1, -1])

    def test_imaginary_lead_rotated(self):
        # i*(1, i) = (i, -1); both span the same ray.
        assert make_ray([1j, -1]) == make_ray([1, 1j])

    @given(coords_strategy(4), st.sampled_from(UNITS))
    def test_unit_multiples_collapse(self, cs, u):
        assert make_ray(cs) == make_ray([u * c for c in cs])

    @given(coords_strategy(4))
    def test_canonical_form_is_fixed_point(self, cs):
        ray = make_ray(cs)
        assert make_ray(ray.coords) == ray

    def test_make_ray_clears_denominators(self):
        assert make_ray([Fraction(1, 2), Fraction(-1, 2)]) == make_ray([1, -1])
        assert make_ray([Fraction(3, 2), 0, Fraction(3, 4)]) == make_ray([2, 0, 1])
        assert make_ray([Fraction(1, 3), 1j]) == make_ray([1, 3j])
        with pytest.raises(ValueError):
            make_ray([Fraction(0), 0])


def _direction_key(coords) -> tuple:
    """Oracle: the vector divided by its first nonzero coordinate, exactly.

    Two nonzero vectors span the same ray iff their keys are equal.
    Each entry is c / lead = c * conj(lead) / |lead|**2 as a pair of
    Fractions (real part, imaginary part).
    """
    coords = [gi(c) for c in coords]
    lead = next(c for c in coords if not c.is_zero())
    norm = lead.re * lead.re + lead.im * lead.im
    out = []
    for c in coords:
        q = c * lead.conjugate()
        out.append((Fraction(q.re, norm), Fraction(q.im, norm)))
    return tuple(out)


def _random_vector(rng, dim: int, size: int) -> list[GaussianInt]:
    while True:
        v = [GaussianInt(rng.randint(-size, size), rng.randint(-size, size))
             for _ in range(dim)]
        if any(not c.is_zero() for c in v):
            return v


class TestRayIdentity:
    """make_ray decides ray identity: equal Rays iff one subspace."""

    def test_gaussian_multiples_collapse(self):
        import random

        rng = random.Random(7)
        for _ in range(3000):
            v = _random_vector(rng, rng.randint(1, 4), rng.choice([1, 3, 20]))
            s = _random_vector(rng, 1, 6)[0]
            assert make_ray([s * c for c in v]) == make_ray(v)

    def test_equal_iff_direction_keys_equal(self):
        import random

        rng = random.Random(8)
        equal = 0
        for _ in range(6000):
            dim, size = rng.randint(1, 4), rng.choice([1, 2, 6])
            v = _random_vector(rng, dim, size)
            if rng.random() < 0.5:
                s = _random_vector(rng, 1, 4)[0]
                u = [s * c for c in v]
            else:
                u = _random_vector(rng, dim, size)
            same = _direction_key(u) == _direction_key(v)
            assert (make_ray(u) == make_ray(v)) == same, (u, v)
            equal += same
        assert 2000 < equal < 4000

    @pytest.mark.parametrize("name", ["M", "N", "T0", "KP40", "KP36", "E8", "A", "B"])
    def test_builtin_rays_are_fixed_points(self, name):
        config = builtin(name)
        assert all(make_ray(r.coords) == r for r in config.rays)
        assert load_vectors(dump_vectors(config), config.dim) == config

    @pytest.mark.parametrize(
        "rays",
        [
            [[1, 1, 0], [2, 2, 0], [1, -1, 0]],
            [[1 + 1j, 1 - 1j], [1, -1j]],
        ],
    )
    def test_parallel_rays_rejected(self, rays):
        with pytest.raises(ValueError, match="^rows 0 and 1 .*parallel"):
            Configuration([make_ray(v) for v in rays])


class TestInnerProduct:
    def test_conjugate_linear_in_first_argument(self):
        x = make_ray([1, 1j])
        y = make_ray([1, 1])
        assert inner_product(x, y) == GaussianInt(1, -1)
        assert inner_product(y, x) == GaussianInt(1, 1)

    def test_orthogonality(self):
        assert orthogonal(make_ray([1, 1]), make_ray([1, -1]))
        assert not orthogonal(make_ray([1, 1]), make_ray([1, 0]))
        assert orthogonal(make_ray([1, 1j]), make_ray([1j, 1]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(make_ray([1, 0]), make_ray([1, 0, 0]))

    @given(coords_strategy(3), coords_strategy(3))
    def test_hermitian_symmetry(self, a, b):
        x, y = Ray(tuple(a)), Ray(tuple(b))
        assert inner_product(x, y) == inner_product(y, x).conjugate()


def _pairwise_rows(rays):
    """Reference adjacency: one orthogonal() call per pair of rays."""
    rows = [0] * len(rays)
    for i, j in combinations(range(len(rays)), 2):
        if orthogonal(rays[i], rays[j]):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


class TestAdjacencyKernel:
    """Configuration's plain-int rows against pairwise orthogonal()."""

    @pytest.mark.parametrize("name", ["M", "KP40", "A", "B", "E8"])
    def test_builtin_rows_match_pairwise_oracle(self, name):
        config = builtin(name)
        assert Configuration(config.rays).adj == _pairwise_rows(config.rays)

    @pytest.mark.parametrize(
        "x, y, product",
        [
            # Zero real part: a kernel that tests only the real part fails.
            ([1, 1], [1, -1 + 1j], GaussianInt(0, 1)),
            # 2**64, which 64-bit integer arithmetic would wrap to 0.
            ([2**32, 1, 0], [2**32, 0, 1], GaussianInt(2**64, 0)),
        ],
    )
    def test_nonzero_inner_product_is_not_orthogonal(self, x, y, product):
        x, y = make_ray(x), make_ray(y)
        assert inner_product(x, y) == product
        assert Configuration([x, y]).adj == (0, 0) == _pairwise_rows([x, y])

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_random_gaussian_rays_match_pairwise_oracle(self, dim):
        import random

        rng = random.Random(2100 + dim)
        big = 2**64 + 3
        seen = {}
        for size in (1, 2, big):
            for _ in range(40):
                # Small entries with zeros make orthogonal pairs common.
                v = [GaussianInt(rng.randint(-size, size) * rng.randint(0, 1),
                                 rng.randint(-size, size) * rng.randint(0, 1))
                     for _ in range(dim)]
                if any(not c.is_zero() for c in v):
                    seen.setdefault(make_ray(v), None)
        # Pairs orthogonal only through big entries: x and a vector made
        # orthogonal to it, e.g. (a, b) and (-conj(b), conj(a)).
        for _ in range(5):
            a = GaussianInt(rng.randint(-big, big), rng.randint(-big, big))
            b = GaussianInt(rng.randint(-big, big), rng.randint(-big, big))
            if dim >= 2 and not (a.is_zero() and b.is_zero()):
                pad = [GaussianInt(0, 0)] * (dim - 2)
                seen.setdefault(make_ray([a, b] + pad), None)
                seen.setdefault(make_ray([-b.conjugate(), a.conjugate()] + pad), None)
        rays = list(seen)
        rows = _pairwise_rows(rays)
        assert Configuration(rays).adj == rows
        assert any(rows) or dim == 1


class TestConfiguration:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Configuration([make_ray([1, 1]), make_ray([-1, -1])])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            Configuration([make_ray([1, 0]), make_ray([1, 0, 0])])

    def test_immutability(self):
        c = Configuration([make_ray([1, 0]), make_ray([0, 1])])
        with pytest.raises(AttributeError):
            c.n = 5

    def test_adjacency_symmetric(self, m_config):
        for i in range(m_config.n):
            for j in range(m_config.n):
                assert ((m_config.adj[i] >> j) & 1) == (
                    (m_config.adj[j] >> i) & 1
                )
            assert not (m_config.adj[i] >> i) & 1

    def test_restrict_matches_rebuild(self, m_config):
        sub = m_config.restrict(range(0, 20, 2))
        rebuilt = Configuration(sub.rays)
        assert sub.adj == rebuilt.adj

    def test_delete_drops_one_ray(self, n_config):
        smaller = n_config.delete(3)
        assert smaller.n == n_config.n - 1
        assert n_config.rays[3] not in smaller.rays

    @pytest.mark.parametrize("index", [-1, 64])
    def test_delete_out_of_range_named(self, m_config, index):
        with pytest.raises(ValueError, match=rf"^ray index {index} out of range"):
            m_config.delete(index)

    @pytest.mark.parametrize("indices, bad", [([0, 5, 64], 64), ([-1, 3], -1)])
    def test_restrict_out_of_range_named(self, m_config, indices, bad):
        with pytest.raises(ValueError, match=rf"^ray index {bad} out of range"):
            m_config.restrict(indices)


def _compress_per_bit(words, keep, n):
    """Reference for _compress: one bit at a time."""
    kept = [i for i in range(n) if keep >> i & 1]
    return tuple(
        sum((w >> i & 1) << k for k, i in enumerate(kept)) for w in words
    )


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129])
def test_compress_matches_per_bit_reference(n):
    import random

    rng = random.Random(n)
    full = (1 << n) - 1
    keeps = {0, full, full & int("01" * n, 2), full & int("10" * n, 2)}
    keeps |= {full ^ 1 << edge for edge in (63, 64) if edge < n}
    randoms = [rng.getrandbits(n) for _ in range(40)]
    for keep in sorted(keeps):
        for words in ([], [full], randoms + [full, 0]):
            assert _compress(words, keep, n) == _compress_per_bit(words, keep, n)


@pytest.mark.parametrize("n", [2, 9, 48, 64, 65, 128, 129])
def test_compress_random_keeps_match_per_bit_reference(n):
    import random

    rng = random.Random(1000 + n)
    full = (1 << n) - 1
    words = [rng.getrandbits(n) for _ in range(20)] + [full, 0]
    keeps = [rng.getrandbits(n) for _ in range(30)]
    keeps += [full ^ (1 << rng.randrange(n)) for _ in range(5)]  # single deletes
    keeps += [full >> rng.randrange(n) << rng.randrange(n) & full for _ in range(5)]
    for keep in keeps:
        assert _compress(words, keep, n) == _compress_per_bit(words, keep, n)


class TestVectorFormat:
    def test_round_trip(self, m_config):
        text = dump_vectors(m_config)
        again = load_vectors(text, m_config.dim, m_config.n)
        assert again == m_config

    def test_complex_tokens(self):
        config = Configuration([make_ray([1, 1j]), make_ray([1, -1j])])
        text = dump_vectors(config)
        assert "0+1j" in text
        assert load_vectors(text, 2) == config

    def test_dump_writes_each_coordinate_as_its_repr(self):
        config = Configuration([make_ray([1, 1j]), make_ray([1, -1 + 1j])])
        assert dump_vectors(config) == "1 0+1j\n1 -1+1j\n"
        assert dump_vectors(Configuration([])) == "\n"

    @pytest.mark.parametrize(
        "text, dim, rows",
        [
            ("1 1\n2 2\n1 -1\n", 2, (0, 1)),
            ("1 1\n1+1j 1+1j\n", 2, (0, 1)),
            ("1 0 0\n0 2 2j\n0 1+1j -1+1j\n", 3, (1, 2)),
            ("0 1\n1 0\n0 -1j\n", 2, (0, 2)),
        ],
    )
    def test_parallel_vectors_rejected(self, text, dim, rows):
        a, b = rows
        with pytest.raises(ValueError, match=rf"^rows {a} and {b} .*parallel"):
            load_vectors(text, dim)

    def test_non_parallel_vectors_accepted(self):
        config = load_vectors("1 1\n1 -1\n1 1j\n1 2\n2 1\n", 2)
        assert config.n == 5

    @pytest.mark.parametrize(
        "dim, count, message",
        [(0, None, "dim"), (-2, None, "dim"), (-2, -2, "dim"), (2, -1, "count")],
    )
    def test_bad_dim_or_count_rejected(self, dim, count, message):
        # Unchecked, dim 0 divides by zero and dim -2 yields no rays at all.
        with pytest.raises(ValueError, match=rf"^{message} must be at least"):
            load_vectors("1 0 0 1", dim, count)

    def test_bad_token_reported(self):
        with pytest.raises(ValueError, match="token"):
            load_vectors("1 0 x 1", 2)

    @pytest.mark.parametrize("token", ["1e400j", "infj", "nanj", "1_0", "\u0663"])
    def test_odd_token_named(self, token):
        # Overflowing, infinite and nan complex parts, underscores and
        # non-ASCII digits all raise a ValueError that names the token.
        with pytest.raises(ValueError, match="bad coordinate token") as info:
            load_vectors(f"1 {token}", 2)
        assert repr(token) in str(info.value)

    @pytest.mark.parametrize(
        "token, value",
        [
            ("9007199254740993j", GaussianInt(0, 2**53 + 1)),
            ("-9007199254740993", GaussianInt(-(2**53) - 1, 0)),
            ("9007199254740993-9007199254740995j", GaussianInt(2**53 + 1, -(2**53) - 3)),
            ("(1+9007199254740993J)", GaussianInt(1, 2**53 + 1)),
            ("(+7j)", GaussianInt(0, 7)),
            ("12j", GaussianInt(0, 12)),
        ],
    )
    def test_integer_gaussian_tokens_exact(self, token, value):
        assert _parse_coord(token) == value

    @pytest.mark.parametrize(
        "token, value",
        [("1e2j", GaussianInt(0, 100)), ("1.0j", GaussianInt(0, 1)),
         ("j", GaussianInt(0, 1)), ("2-j", GaussianInt(2, -1))],
    )
    def test_other_complex_syntax(self, token, value):
        assert _parse_coord(token) == value

    @pytest.mark.parametrize(
        "token", ["9007199254740992.0j", "1e16j", "9007199254740993.0+1j", "(1+2j", "3+-2j"]
    )
    def test_unreadable_complex_token_named(self, token):
        # A float part of magnitude 2**53 or more may already be rounded;
        # unbalanced parentheses and doubled signs are malformed.
        with pytest.raises(ValueError, match="bad coordinate token") as info:
            _parse_coord(token)
        assert repr(token) in str(info.value)

    def test_large_gaussian_round_trip(self):
        big = GaussianInt(0, 2**60 + 1)
        config = Configuration([make_ray([1, big]), make_ray([1, 0])])
        text = dump_vectors(config)
        assert "+1152921504606846977j" in text
        again = load_vectors(text, 2)
        assert again == config
        assert again.rays[0].coords[1] == big

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            load_vectors("1 0 0 1", 2, count=3)
        with pytest.raises(ValueError):
            load_vectors("1 0 0", 2)
