"""Clique/anticlique counting, saturation, and derived graph quantities.

Counts produced by the bitset backtracking kernel are cross-checked
against brute-force subset enumeration on small configurations.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from conftest import unreachable_after

from ksrays import builtin
from ksrays.colouring import _counts_without
from ksrays.rays import Configuration, GaussianInt, Ray, make_ray
from ksrays.orthograph import (
    Signature,
    _bits,
    _clique_mates,
    _complement_rows,
    _inside_cliques,
    _section_masks,
    _size_counts,
    _trim,
    _walk_cliques,
    capacity,
    clique_incidence,
    clique_masks,
    count_anticliques,
    count_cliques,
    is_saturated,
    max_clique_intersections,
    maximal_cliques,
    signature,
    steiner_check,
)


def brute_clique_counts(config: Configuration) -> list[int]:
    """Clique counts by direct subset enumeration; exponential."""
    counts = [0] * (config.dim + 1)
    for k in range(1, config.dim + 1):
        for sub in combinations(range(config.n), k):
            if all(
                (config.adj[i] >> j) & 1 for i, j in combinations(sub, 2)
            ):
                counts[k] += 1
    return counts[1:]


def small_configs(
    seed: int, count: int, m: Configuration, low: int = 2, high: int = 12,
    chain: bool = False,
):
    """Seeded random restrictions of m with low..high rays.

    With chain, each is followed by a restriction of it and by a
    two-step deletion chain from it.
    """
    import random

    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(low, high)
        sub = m.restrict(rng.sample(range(m.n), size))
        yield sub
        if chain:
            yield sub.restrict(
                rng.sample(range(sub.n), rng.randint(sub.n // 2, sub.n))
            )
            first = sub.delete(rng.randrange(sub.n))
            yield first.delete(rng.randrange(first.n))


class TestSignature:
    def test_kernel_matches_brute_force(self, m_config):
        for sub in small_configs(11, 25, m_config):
            sig = signature(sub)
            brute = brute_clique_counts(sub)
            padded = list(sig.cliques) + [0] * (len(brute) - len(sig.cliques))
            assert padded == brute

    def test_trailing_zeros_trimmed(self, n_config):
        sig = signature(n_config)
        assert sig.cliques[-1] != 0
        assert sig.anticliques[-1] != 0

    def test_first_entry_is_ray_count(self, t0_config):
        sig = signature(t0_config)
        assert sig.cliques[0] == t0_config.n
        assert sig.anticliques[0] == t0_config.n

    def test_cached_on_configuration(self, n_config):
        assert signature(n_config) is signature(n_config)

    def test_count_helpers_agree(self, n_config):
        sig = signature(n_config)
        assert count_cliques(n_config, 2) == sig.cliques[1]
        assert count_anticliques(n_config, 2) == sig.anticliques[1]


class TestDeletionCounts:
    """sig(keep - v) is sig(keep) minus the counts through v: the cliques
    of N(v) & keep and the anticliques of the complement's N(v) & keep,
    each shifted up one size.  Checked against full recounts."""

    @pytest.mark.parametrize("name, seed", [("M", 31), ("T0", 32), ("E8", 33)])
    def test_subtraction_matches_recount(self, name, seed):
        import random

        config = builtin(name)
        comp = _complement_rows(config)
        rng = random.Random(seed)
        for _ in range(4):
            keep = sum(1 << v for v in rng.sample(range(config.n), rng.randint(16, 30)))
            cl, ac = _size_counts(config.adj, keep), _size_counts(comp, keep)
            for v in _bits(keep):
                got = Signature(
                    _trim(_counts_without(cl, config.adj, config.adj[v] & keep)),
                    _trim(_counts_without(ac, comp, comp[v] & keep)),
                )
                assert got == signature(config.restrict(_bits(keep & ~(1 << v))))


def _size_counts_reference(rows, cand: int) -> list[int]:
    """Clique counts by the per-clique recursion that the pivot tree
    replaced: every clique is one node, visited in increasing index
    order."""
    counts = [0] * (cand.bit_count() + 1)
    counts[0] = 1

    def rec(cand: int, size: int) -> None:
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            counts[size + 1] += 1
            nxt = cand & rows[v]
            if nxt:
                rec(nxt, size + 1)

    rec(cand, 0)
    return counts


#: Signatures of A and B, as the per-clique recursion counted them; the
#: other built-ins are pinned in the acceptance suite.
RECORDED_SIGNATURES = {
    "A": (
        (64, 1120, 6720, 15120, 13440, 6720, 1920, 240),
        (64, 896, 3584, 5376, 3584, 1792, 512, 64),
    ),
    "B": (
        (128, 3776, 33408, 104352, 132864, 84864, 26880, 3360),
        (128, 4352, 51200, 242944, 564224, 799232, 772096, 536704, 271360,
         95232, 20480, 2048),
    ),
}


class TestPivotCounts:
    """The pivot tree against the per-clique recursion: the same count
    list on whole ray sets, on every ray's neighbourhood and on random
    graphs."""

    BUILTINS = ["M", "N", "T0", "KP40", "KP36", "E8", "A", "B"]

    @pytest.mark.parametrize("name", BUILTINS)
    @pytest.mark.parametrize("kind", ["adjacency", "complement"])
    def test_builtin_neighbourhoods_match_reference(self, name, kind):
        config = builtin(name)
        rows = config.adj if kind == "adjacency" else _complement_rows(config)
        for cand in ((1 << config.n) - 1, *rows):
            assert _size_counts(rows, cand) == _size_counts_reference(rows, cand)

    @pytest.mark.parametrize("n", [0, 1, 5, 11, 16])
    def test_random_graphs_match_reference(self, n):
        import random

        rng = random.Random(400 + n)
        full = (1 << n) - 1
        graphs = [[0] * n, [full & ~(1 << i) for i in range(n)]]
        graphs += [_random_rows(rng, n, density) for density in (0.2, 0.5, 0.8)]
        for rows in graphs:
            cands = [0, full] + [rng.getrandbits(n) for _ in range(6)]
            for cand in cands:
                assert _size_counts(rows, cand) == _size_counts_reference(rows, cand)

    def test_builtin_signatures_unchanged(self):
        from test_acceptance import EXPECTED_SIGNATURES

        recorded = {**EXPECTED_SIGNATURES, **RECORDED_SIGNATURES}
        assert sorted(recorded) == sorted(self.BUILTINS)
        for name, (cliques, anticliques) in recorded.items():
            assert signature(builtin(name)) == Signature(cliques, anticliques), name


class TestMaximalCliques:
    def test_m_has_320_full_cliques(self, m_config):
        cliques = maximal_cliques(m_config)
        assert len(cliques) == 320
        assert capacity(m_config) == 320

    def test_cliques_are_orthonormal_octuples(self, m_config):
        for c in maximal_cliques(m_config)[:10]:
            assert len(c) == 8
            for i, j in combinations(c, 2):
                assert (m_config.adj[i] >> j) & 1

    def test_lexicographic_order(self, n_config):
        cliques = maximal_cliques(n_config)
        assert cliques == sorted(cliques)

    def test_matches_clique_count_row(self, t0_config):
        assert len(maximal_cliques(t0_config)) == signature(t0_config).cliques[-1]


def _clique_masks_reference(rows, n: int, d: int) -> tuple[int, ...]:
    """The d-cliques by plain backtracking: every level runs to the end of
    its candidates and only prunes a child with too few candidates."""
    out: list[int] = []

    def rec(cand: int, size: int, clique: int) -> None:
        while cand:
            low = cand & -cand
            cand ^= low
            if size + 1 == d:
                out.append(clique | low)
            else:
                nxt = cand & rows[low.bit_length() - 1]
                if nxt.bit_count() >= d - size - 1:
                    rec(nxt, size + 1, clique | low)

    rec((1 << n) - 1, 0, 0)
    return tuple(out)


def _graph(rows, d: int) -> Configuration:
    """A fresh configuration with the given adjacency; the rays are
    placeholders and play no part in any clique computation.  C^1 has
    one ray only, so for d = 1 they are distinct raw Ray objects."""
    if d == 1:
        rays = [Ray((GaussianInt(k + 1, 0),)) for k in range(len(rows))]
    else:
        rays = [make_ray([1, k] + [0] * (d - 2)) for k in range(len(rows))]
    return Configuration(rays, rows)


def _random_rows(rng, n: int, density: float) -> list[int]:
    rows = [0] * n
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


class TestCliqueKernel:
    """clique_masks against the plain backtracking reference: the same
    masks in the same order, on fresh configurations."""

    @pytest.mark.parametrize("name", ["M", "T0", "N", "KP40", "A", "B", "E8"])
    def test_builtins_match_reference(self, name):
        config = builtin(name)
        fresh = Configuration(config.rays, config.adj)
        got = clique_masks(fresh)
        assert got == _clique_masks_reference(config.adj, config.n, config.dim)
        assert got == clique_masks(config)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs_match_reference(self, d, seed):
        import random

        rng = random.Random(100 * d + seed)
        n = rng.randint(16, 32)
        density = {1: 0.3, 2: 0.1, 3: 0.4, 4: 0.5, 8: 0.8}[d]
        config = _graph(_random_rows(rng, n, density), d)
        subs = [config]
        for _ in range(3):
            sub = config.restrict(rng.sample(range(n), rng.randint(0, n)))
            subs.append(_graph(sub.adj, d) if sub.n else sub)
        for sub in subs:
            assert clique_masks(sub) == _clique_masks_reference(sub.adj, sub.n, sub.dim)
        assert any(not is_saturated(sub)[0] for sub in subs if sub.n) or d == 1

    def test_empty_configuration(self):
        assert clique_masks(Configuration([])) == ()

    @pytest.mark.parametrize("seed", range(6))
    def test_walker_emits_weighted_cliques_in_order(self, seed):
        # Every k-subset in lexicographic order, kept when pairwise
        # adjacent, and OR-ed over random weights.
        import random

        rng = random.Random(seed)
        n = rng.randint(0, 14)
        rows = _random_rows(rng, n, rng.choice([0.3, 0.6, 0.9]))
        weights = [rng.getrandbits(24) for _ in range(n)]
        for k in range(6):
            want = []
            for combo in combinations(range(n), k):
                if all(rows[a] >> b & 1 for a, b in combinations(combo, 2)):
                    acc = 0
                    for v in combo:
                        acc |= weights[v]
                    want.append(acc)
            got = []
            _walk_cliques(rows, k, weights, got.append)
            assert got == want, (seed, k)


def _incidence_per_bit(masks, n: int) -> tuple[int, ...]:
    return tuple(
        sum(1 << j for j, mask in enumerate(masks) if mask >> v & 1)
        for v in range(n)
    )


class TestCliqueIncidence:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 128, 129])
    def test_matches_per_bit_reference(self, n):
        import random

        rng = random.Random(n)
        config = _graph([0] * n, 3)
        full = (1 << n) - 1
        masks = tuple(rng.getrandbits(n) for _ in range(50)) + (full, 0, 1 << (n - 1))
        object.__setattr__(config, "_cliques", masks)
        assert clique_incidence(config) == _incidence_per_bit(masks, n)

    def test_empty_clique_list(self):
        config = _graph([0] * 9, 2)
        assert clique_masks(config) == ()
        assert clique_incidence(config) == (0,) * 9

    def test_matches_reference_on_builtins(self, m_config):
        for config in (m_config, builtin("B")):
            got = clique_incidence(config)
            assert got == _incidence_per_bit(clique_masks(config), config.n)
            assert clique_incidence(config) is got  # cached

    def test_restricted_child_rebuilds_incidence(self):
        import random

        rng = random.Random(16)
        b = builtin("B")
        clique_incidence(b)
        child = b.restrict(rng.sample(range(b.n), 100))
        assert child._incidence is None
        child_inc = clique_incidence(child)
        assert child_inc == _incidence_per_bit(clique_masks(child), child.n)
        grandchild = child.restrict(rng.sample(range(child.n), 70))
        assert grandchild._incidence is None
        fresh = Configuration(grandchild.rays)
        assert grandchild.adj == fresh.adj
        assert clique_masks(grandchild) == clique_masks(fresh)
        assert clique_incidence(grandchild) == _incidence_per_bit(
            clique_masks(fresh), fresh.n
        )


class TestCliqueHelpers:
    """_inside_cliques and _clique_mates against scans of the clique masks."""

    @staticmethod
    def _configs():
        import random

        rng = random.Random(23)
        yield from (builtin(name) for name in ("M", "T0", "B"))
        for d in (2, 3, 4, 8):
            n = rng.randint(12, 30)
            density = {2: 0.2, 3: 0.4, 4: 0.5, 8: 0.85}[d]
            yield _graph(_random_rows(rng, n, density), d)

    def test_inside_cliques_match_scan(self):
        import random

        rng = random.Random(5)
        for config in self._configs():
            masks = clique_masks(config)
            full = (1 << config.n) - 1
            keeps = [0, full, -1] + [~mask for mask in masks[:5]]
            for _ in range(40):
                keeps.append(sum(1 << v for v in rng.sample(range(config.n), rng.randint(0, config.n))))
            for keep in keeps:
                want = sum(1 << j for j, mask in enumerate(masks) if mask & ~keep == 0)
                assert _inside_cliques(config, keep) == want, (config.n, keep)

    def test_inside_cliques_of_an_empty_clique_list(self):
        config = _graph([0] * 5, 3)
        assert _inside_cliques(config, 0b10110) == 0

    def test_clique_mates_match_or_over_cliques(self):
        for config in self._configs():
            masks = clique_masks(config)
            want = [
                reduce(or_, (mask for mask in masks if mask >> v & 1), 1 << v)
                for v in range(config.n)
            ]
            assert _clique_mates(config) == want


class TestSubconfigurations:
    """Restrictions inherit the parent's clique masks and adjacency; both
    must equal what a configuration built from the same rays computes."""

    @pytest.mark.parametrize("name, seed", [("M", 21), ("E8", 22), ("B", 23), ("A", 24)])
    def test_inherited_data_matches_fresh_build(self, name, seed):
        parent = builtin(name)
        subs = list(
            small_configs(seed, 3, parent, parent.n // 2, parent.n - 4, chain=True)
        )
        assert sum(capacity(sub) > 0 for sub in subs) >= 3
        for sub in subs:
            fresh = Configuration(sub.rays)
            assert sub.adj == fresh.adj
            assert clique_masks(sub) == clique_masks(fresh)
            assert capacity(sub) == count_cliques(sub, sub.dim)


class TestSaturation:
    def test_m_is_saturated(self, m_config):
        ok, witness = is_saturated(m_config)
        assert ok
        assert witness is None

    def test_n_is_not_saturated(self, n_config):
        ok, witness = is_saturated(n_config)
        assert not ok
        assert witness is not None
        # The witness is a dead-end clique: mutually orthogonal, no
        # extension to a full octuple inside the configuration.
        for i, j in combinations(witness, 2):
            assert (n_config.adj[i] >> j) & 1

    def test_single_basis_is_saturated(self):
        basis = Configuration(
            [make_ray([1 if i == j else 0 for j in range(4)]) for i in range(4)]
        )
        ok, _ = is_saturated(basis)
        assert ok


class TestNoReferenceCycles:
    """The recursive searches delete their closure on the way out, so a
    call leaves nothing for the cyclic garbage collector."""

    def test_section_search(self, t0_config):
        masks = clique_masks(t0_config)

        def deletions():
            for v in range(0, t0_config.n, 12):
                _section_masks(t0_config.adj, [m for m in masks if not m >> v & 1])

        assert unreachable_after(deletions) == 0
        assert unreachable_after(lambda: _section_masks([0b11, 0b11], [0b11], 2)) == 0

    def test_clique_walker(self, m_config):
        weights = [1 << v for v in range(m_config.n)]
        for k in (0, 1, 3):
            assert unreachable_after(
                lambda: _walk_cliques(m_config.adj, k, weights, lambda acc: None)
            ) == 0

    @pytest.mark.parametrize("name", ["M", "N"])
    def test_saturation(self, name):
        # M is saturated; N stops at a witness.
        config = builtin(name)
        assert unreachable_after(lambda: is_saturated(config)) == 0


def _saturated_reference(config: Configuration):
    """Saturation by a walk over every clique in index order, tracking
    its common neighbourhood; the witness is the first clique of size
    < d, in that order, whose common neighbourhood is empty."""
    d = config.dim
    rows = config.adj
    full = (1 << config.n) - 1
    stack: list[int] = []
    witness: list[tuple[int, ...]] = []

    def rec(cand: int, common: int) -> bool:
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            stack.append(v)
            new_common = common & rows[v]
            if new_common == 0 and len(stack) < d:
                witness.append(tuple(stack))
                stack.pop()
                return False
            if not rec(cand & rows[v], new_common):
                stack.pop()
                return False
            stack.pop()
        return True

    ok = rec(full, full)
    return (True, None) if ok else (False, witness[0])


class TestSaturationOracle:
    """is_saturated's pivoting walk against the walk over every clique.
    The witnesses may differ; each must be a maximal clique of size < d."""

    @staticmethod
    def _check(config: Configuration) -> bool:
        ok, witness = is_saturated(config)
        assert ok == _saturated_reference(config)[0]
        if ok:
            assert witness is None
        else:
            assert witness == tuple(sorted(set(witness)))
            assert 0 < len(witness) < config.dim
            common = (1 << config.n) - 1
            for v in witness:
                common &= config.adj[v]
            for a, b in combinations(witness, 2):
                assert config.adj[a] >> b & 1
            assert common == 0
        return ok

    @pytest.mark.parametrize("name", ["M", "N", "T0", "KP40", "KP36", "E8", "A", "B"])
    def test_builtins_match_reference(self, name):
        self._check(builtin(name))

    @pytest.mark.parametrize("name", ["M", "T0", "E8"])
    def test_seeded_restrictions_match_reference(self, name):
        # Even draws keep a random half or more of the rays, odd draws
        # the union of a few cliques, so both verdicts occur.
        import random

        rng = random.Random({"M": 71, "T0": 72, "E8": 73}[name])
        config = builtin(name)
        masks = clique_masks(config)
        verdicts = set()
        for draw in range(20):
            if draw % 2:
                keep = reduce(or_, rng.sample(masks, rng.randint(1, 3)))
                sub = config.restrict(_bits(keep))
            else:
                sub = config.restrict(rng.sample(range(config.n), rng.randint(config.n // 2, config.n)))
            verdicts.add(self._check(sub))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_random_graphs_match_reference(self, d):
        import random

        rng = random.Random(60 + d)
        verdicts = set()
        for trial in range(30):
            if trial % 3:
                n = rng.randint(4, 28)
                rows = _random_rows(rng, n, {2: 0.15, 3: 0.35, 4: 0.5, 8: 0.85}[d])
            else:
                blocks = rng.randint(1, 24 // d + 1)
                rows = _near_steiner_rows(rng, blocks, d, rng.choice([0.0, 0.02]))
            verdicts.add(self._check(_graph(rows, d)))
        assert verdicts == {True, False}

    def test_empty_configuration(self):
        assert is_saturated(Configuration([])) == (True, None)
        assert _saturated_reference(Configuration([])) == (True, None)


def _steiner_reference(config: Configuration) -> bool:
    """Steiner check by a direct walk over the (d-1)-cliques, tracking
    each one's common neighbourhood.  It never reaches a level for
    d = 1, so it calls every such graph Steiner."""
    d = config.dim
    rows = config.adj

    def rec(cand: int, common: int, size: int) -> bool:
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            new_common = common & rows[v]
            if size + 1 == d - 1:
                if new_common.bit_count() != 1:
                    return False
            elif not rec(cand & rows[v], new_common, size + 1):
                return False
        return True

    full = (1 << config.n) - 1
    return rec(full, full, 0)


def _near_steiner_rows(rng, blocks: int, d: int, noise: float) -> list[int]:
    """Disjoint d-cliques, a Steiner graph, plus random extra edges."""
    n = blocks * d
    rows = _random_rows(rng, n, noise)
    for b in range(blocks):
        block = ((1 << d) - 1) << (b * d)
        for v in range(b * d, (b + 1) * d):
            rows[v] |= block & ~(1 << v)
    return rows


class TestSteinerAndIntersections:
    @pytest.mark.parametrize("name", ["M", "N", "T0", "KP40", "KP36", "E8", "A", "B"])
    def test_builtins_match_reference(self, name):
        config = builtin(name)
        assert steiner_check(config) == _steiner_reference(config)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_random_graphs_match_reference(self, d):
        import random

        rng = random.Random(40 + d)
        verdicts = []
        for trial in range(30):
            if trial % 2:
                n = rng.randint(8, 24)
                rows = _random_rows(rng, n, {2: 0.1, 3: 0.3, 4: 0.5, 8: 0.85}[d])
            else:
                blocks = rng.randint(1, 24 // d + 1)
                rows = _near_steiner_rows(rng, blocks, d, rng.choice([0.0, 0.02, 0.1]))
            config = _graph(rows, d)
            subs = [config] + [
                config.restrict(rng.sample(range(config.n), rng.randint(1, config.n)))
                for _ in range(3)
            ]
            for sub in subs:
                got = steiner_check(sub)
                assert got == _steiner_reference(sub), (d, trial)
                verdicts.append(got)
        assert True in verdicts and False in verdicts

    def test_one_ray_graphs(self):
        # The one 0-clique lies in every 1-clique, so only n = 1 passes;
        # the reference walk calls every d = 1 graph Steiner.
        assert steiner_check(_graph([0], 1))
        assert not steiner_check(_graph([0, 0, 0], 1))
        assert _steiner_reference(_graph([0, 0, 0], 1))

    def test_empty_configuration(self):
        assert steiner_check(Configuration([]))

    def test_steiner_property_of_m(self, m_config):
        # Every 7-clique inside M extends to exactly one full octuple.
        assert steiner_check(m_config)

    def test_steiner_fails_for_n(self, n_config):
        assert not steiner_check(n_config)

    def test_m_intersection_sizes(self, m_config):
        assert max_clique_intersections(m_config) == {0, 1, 2, 3, 4, 5, 6}

    def test_steiner_property_of_e8(self):
        # 16200 7-cliques = 2025 maximal cliques x 8, so each 7-clique
        # extends to exactly one full octuple; the check confirms it.
        assert steiner_check(builtin("E8"))


class TestAnticliques:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_complement_duality(self, seed):
        import random

        rng = random.Random(seed)
        m = builtin("M")
        sub = m.restrict(rng.sample(range(m.n), rng.randint(2, 10)))
        flipped = Configuration(
            sub.rays,
            [
                ((1 << sub.n) - 1) & ~row & ~(1 << i)
                for i, row in enumerate(sub.adj)
            ],
        )
        assert signature(sub).anticliques == signature(flipped).cliques


def _section_masks_reference(rows, masks) -> int | None:
    """The section search before it took quotas: branch on the unhit
    clique with the fewest candidates, ties to the lowest index."""

    def rec(forbidden: int, picked: int) -> int | None:
        best_cand = 0
        best_cnt = None
        for mask in masks:
            if mask & picked:
                continue
            cand = mask & ~forbidden
            cnt = cand.bit_count()
            if cnt == 0:
                return None
            if best_cnt is None or cnt < best_cnt:
                best_cand, best_cnt = cand, cnt
                if cnt == 1:
                    break
        if best_cnt is None:
            return picked
        cand = best_cand
        while cand:
            low = cand & -cand
            cand ^= low
            got = rec(forbidden | rows[low.bit_length() - 1], picked | low)
            if got is not None:
                return got
        return None

    return rec(0, 0)


def _exact_hits_brute(n: int, masks, quota: int) -> set[int]:
    """Every ray set inside the masks' union meeting each mask in
    exactly quota rays."""
    union = 0
    for m in masks:
        union |= m
    return {
        s
        for s in range(1 << n)
        if not s & ~union and all((s & m).bit_count() == quota for m in masks)
    }


class TestExactHitKernel:
    """With quota 1 the kernel returns the section search's own bitmask;
    with any quota its leaves are exactly the brute-force solutions."""

    @pytest.mark.parametrize("name", ["M", "T0", "N", "KP40", "KP36", "A", "B", "E8"])
    def test_all_cliques_match_reference(self, name):
        config = builtin(name)
        masks = clique_masks(config)
        assert _section_masks(config.adj, masks) == _section_masks_reference(
            config.adj, masks
        )

    @pytest.mark.parametrize("name", ["T0", "KP40", "N"])
    def test_single_deletions_match_reference(self, name):
        config = builtin(name)
        masks = clique_masks(config)
        for v in range(config.n):
            kept = [m for m in masks if not m >> v & 1]
            assert _section_masks(config.adj, kept) == _section_masks_reference(
                config.adj, kept
            )

    def test_five_clique_subsets_of_m_match_reference(self, m_config):
        import random

        rng = random.Random(41)
        masks = clique_masks(m_config)
        for _ in range(300):
            chosen = [masks[i] for i in rng.sample(range(len(masks)), 5)]
            got = _section_masks(m_config.adj, chosen)
            assert got == _section_masks_reference(m_config.adj, chosen)

    @pytest.mark.parametrize("quota", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_leaves_are_every_exact_hit_set_once(self, quota, seed):
        import random

        rng = random.Random(10 * quota + seed)
        n = rng.randint(6, 12)
        masks = [
            sum(1 << v for v in rng.sample(range(n), rng.randint(quota, min(n, quota + 3))))
            for _ in range(rng.randint(1, 6))
        ]
        rows = [1 << v for v in range(n)]
        if quota == 1:  # a pick forbids its mask-mates
            for m in masks:
                for v in _bits(m):
                    rows[v] |= m
        leaves: list[int] = []
        assert _section_masks(rows, masks, quota, lambda s: leaves.append(s)) is None
        want = _exact_hits_brute(n, masks, quota)
        assert sorted(leaves) == sorted(want)
        got = _section_masks(rows, masks, quota)
        assert (got is None) == (not want)
        assert got is None or got in want

    def test_leaf_picks_a_later_solution(self):
        # Two disjoint pairs, one ray of each: the leaf refuses the first
        # three sets, and the search goes on to the fourth.
        masks = [0b0011, 0b1100]
        rows = [0b0011, 0b0011, 0b1100, 0b1100]
        seen: list[int] = []

        def leaf(s: int) -> bool:
            seen.append(s)
            return len(seen) == 4

        assert _section_masks(rows, masks, 1, leaf) == seen[-1]
        assert sorted(seen) == [0b0101, 0b0110, 0b1001, 0b1010]

    def test_short_or_empty_mask_fails(self):
        rows = [1 << v for v in range(4)]
        assert _section_masks(rows, [0b0111, 0b0001], 2) is None
        assert _section_masks(rows, [0b0111, 0], 1) is None
        assert _section_masks(rows, [], 2) == 0
