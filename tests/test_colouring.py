"""KS colourability, partition colourings, and the critical reduction."""

from __future__ import annotations

import random

import pytest

from ksrays import builtin, colouring, datasets
from ksrays.colouring import (
    Colouring,
    CriticalReport,
    ReductionStep,
    critical_reduce,
    find_ks_colouring,
    find_partition_colouring,
    is_critical,
    is_ks_configuration,
    parity_proof,
    verify_partition_colouring,
)
from ksrays.orthograph import _section_masks, clique_masks, maximal_cliques, signature
from ksrays.rays import Configuration, make_ray

from conftest import M_CRITICAL_52, T0_MISSED_40, naive_ks_ones
from test_orthograph import _graph, _random_rows


def basis(dim: int) -> Configuration:
    return Configuration(
        [make_ray([1 if i == j else 0 for j in range(dim)]) for i in range(dim)]
    )


class TestKsColouring:
    def test_single_basis_is_colourable(self):
        col = find_ks_colouring(basis(4))
        assert col is not None
        assert sum(col.values) == 1

    def test_witness_satisfies_all_cliques(self, t0_config):
        sub = t0_config.delete(0)
        # Deleting from a KS set need not keep it KS; whenever a witness
        # comes back it must hit every full clique exactly once.
        col = find_ks_colouring(sub)
        if col is not None:
            ones = col.ones()
            for c in maximal_cliques(sub):
                assert sum(1 for v in c if v in ones) == 1

    def test_no_orthogonal_one_pair(self, m_config):
        sub = m_config.restrict(range(14))
        col = find_ks_colouring(sub)
        assert col is not None
        ones = sorted(col.ones())
        for i in ones:
            for j in ones:
                if i != j:
                    assert not (sub.adj[i] >> j) & 1

    def test_matches_naive_oracle_on_small_subsets(self, m_config):
        rng = random.Random(5)
        for _ in range(40):
            sub = m_config.restrict(rng.sample(range(m_config.n), rng.randint(2, 14)))
            fast = find_ks_colouring(sub)
            slow = naive_ks_ones(sub)
            assert (fast is None) == (slow is None)

    def test_known_classifications(self, m_config, n_config, t0_config):
        assert is_ks_configuration(m_config)
        assert is_ks_configuration(n_config)
        assert is_ks_configuration(t0_config)
        assert not is_ks_configuration(basis(8))


class TestCriticality:
    def test_known_critical_sets(self, n_config, kp36_config):
        assert is_critical(n_config)
        assert is_critical(kp36_config)

    def test_known_non_critical_sets(self, m_config, t0_config, kp40_config):
        assert not is_critical(m_config)
        assert not is_critical(t0_config)
        assert not is_critical(kp40_config)

    def test_colourable_input_is_not_critical(self):
        assert not is_critical(basis(8))

    def test_t0_set_the_reduction_misses_is_critical(self, t0_config):
        missed = t0_config.restrict(T0_MISSED_40)
        sig = signature(missed)
        assert sig.cliques == (40, 418, 1584, 2849, 2622, 1288, 324, 33)
        assert sig.anticliques == (40, 362, 828, 510, 96)
        assert is_critical(missed)

    def test_m_set_without_parity_proof_is_critical(self, m_config):
        """No certificate exists, so the search decides every verdict."""
        sub = m_config.restrict(M_CRITICAL_52)
        assert len(clique_masks(sub)) == 56
        assert parity_proof(sub) is None
        assert is_ks_configuration(sub) and plain_search_verdict(sub)
        assert is_critical(sub)


class TestPartitionColouring:
    def test_partition_validation(self, m_config):
        with pytest.raises(ValueError):
            find_partition_colouring(m_config, (8,))
        with pytest.raises(ValueError):
            find_partition_colouring(m_config, (2, 6))
        with pytest.raises(ValueError):
            find_partition_colouring(m_config, (5, 2))

    def test_six_two_exists_on_m(self, m_config):
        col = find_partition_colouring(m_config, (6, 2))
        assert col is not None
        assert verify_partition_colouring(m_config, col)

    def test_four_four_exists_on_m(self, m_config):
        col = find_partition_colouring(m_config, (4, 4))
        assert col is not None
        assert verify_partition_colouring(m_config, col)

    def test_verify_rejects_wrong_counts(self, m_config):
        col = Colouring((0,) * m_config.n, (6, 2))
        assert not verify_partition_colouring(m_config, col)
        # Colour 1 written as -1 must not count as the last colour.
        good = find_partition_colouring(m_config, (6, 2))
        negative = Colouring(tuple(-c for c in good.values), (6, 2))
        assert not verify_partition_colouring(m_config, negative)

    def test_verify_matches_per_clique_tuple_reference(self, m_config):
        """The class-mask check gives the per-clique tuple count's verdict
        on good, miscounted and out-of-range colourings, including a ray
        outside every clique, and keeps the ValueError for a wrong length."""

        def reference(config, col):
            if len(col.values) != config.n:
                raise ValueError("colouring is not total on the configuration")
            part = col.partition
            for clique in maximal_cliques(config):
                counts = [0] * len(part)
                for v in clique:
                    c = col.values[v]
                    if not 0 <= c < len(part):
                        return False
                    counts[c] += 1
                if tuple(counts) != part:
                    return False
            return True

        good = find_partition_colouring(m_config, (6, 2))
        b = basis(8)
        # Ray 8 is orthogonal to e3..e8 only, so it lies in no 8-clique.
        loose = Configuration(b.rays + (make_ray([1, 1, 0, 0, 0, 0, 0, 0]),))
        cases = [
            (m_config, good, True),
            (m_config, Colouring((0,) * m_config.n, (6, 2)), False),
            (m_config, Colouring(tuple(-c for c in good.values), (6, 2)), False),
            (m_config, Colouring(tuple(2 * c for c in good.values), (6, 2)), False),
            (m_config, Colouring((5,) + good.values[1:], (6, 2)), False),
            (loose, Colouring((1,) + (0,) * 7 + (5,), (7, 1)), True),
            (loose, Colouring((1,) + (0,) * 7 + (-1,), (7, 1)), True),
            (loose, Colouring((1, 1) + (0,) * 7, (7, 1)), False),
            # A partition short of the dimension: no clique has its counts.
            (loose, Colouring((1,) + (0,) * 8, (6, 1)), False),
        ]
        for config, col, expected in cases:
            assert reference(config, col) is expected
            assert verify_partition_colouring(config, col) is expected
        for short in (good.values[:-1], good.values + (0,)):
            for check in (reference, verify_partition_colouring):
                with pytest.raises(ValueError):
                    check(m_config, Colouring(short, (6, 2)))

    def test_basis_colourable_for_every_two_part_split(self):
        b = basis(8)
        for a in range(1, 5):
            col = find_partition_colouring(b, (8 - a, a))
            assert col is not None
            assert verify_partition_colouring(b, col)


def reference_partition_colouring(config: Configuration, part) -> Colouring | None:
    """The ray-order partition search with no parity pre-check."""
    s = len(part)
    cliques = maximal_cliques(config)
    n = config.n

    order: list[int] = []
    seen = [False] * n
    for c in cliques:
        for v in c:
            if not seen[v]:
                seen[v] = True
                order.append(v)
    for v in range(n):
        if not seen[v]:
            order.append(v)

    member_cliques: list[list[int]] = [[] for _ in range(n)]
    for ci, c in enumerate(cliques):
        for v in c:
            member_cliques[v].append(ci)

    counts = [[0] * s for _ in cliques]
    values = [-1] * n

    def rec(pos: int, used: int) -> bool:
        if pos == len(order):
            return all(tuple(counts[ci]) == part for ci in range(len(cliques)))
        v = order[pos]
        for a in range(s):
            if a > 0 and part[a] == part[a - 1] and not (used >> (a - 1)) & 1:
                continue
            ok = True
            for ci in member_cliques[v]:
                counts[ci][a] += 1
                if counts[ci][a] > part[a]:
                    ok = False
            if ok:
                values[v] = a
                if rec(pos + 1, used | (1 << a)):
                    return True
                values[v] = -1
            for ci in member_cliques[v]:
                counts[ci][a] -= 1
        return False

    if rec(0, 0):
        for v in range(n):
            if values[v] < 0:
                values[v] = 0
        return Colouring(tuple(values), part)
    return None


def clique_grown_restriction(config: Configuration, rng: random.Random, k: int):
    """The first k rays of a chain of overlapping cliques, so that most
    restrictions with k >= 8 keep at least one full clique."""
    masks = clique_masks(config)
    pool: list[int] = []
    while len(pool) < k:
        if pool:
            touching = [m for m in masks if any((m >> v) & 1 for v in pool)]
            mask = rng.choice(touching)
        else:
            mask = rng.choice(masks)
        pool += [v for v in range(config.n) if (mask >> v) & 1 and v not in pool]
    return config.restrict(pool[:k])


def partitions(n: int, top: int | None = None):
    """The partitions of n into non-increasing positive parts."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, top or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


PARTITIONS_OF_8 = [p for p in partitions(8) if len(p) >= 2]


class TestPartitionKernel:
    """Every partition of 8 on M, A, B and E8, and the ray-order
    reference on small restrictions."""

    @pytest.mark.parametrize("name", ["M", "B", "E8", "A"])
    def test_builtin_verdicts(self, name):
        config = builtin(name)
        certified = parity_proof(config) is not None
        assert certified == (name != "A")
        found = set()
        for part in PARTITIONS_OF_8:
            col = find_partition_colouring(config, part)
            if col is not None:
                assert col.partition == part
                assert verify_partition_colouring(config, col)
                found.add(part)
        even = {(6, 2), (4, 4), (4, 2, 2), (2, 2, 2, 2)}
        want = {
            "M": even,
            "B": even,
            # (6,2) is refuted by search, and merging colour classes
            # would turn a (4,2,2) or (2,2,2,2) colouring into one.
            "E8": {(4, 4)},
            "A": set(PARTITIONS_OF_8),
        }[name]
        assert found == want

    @pytest.mark.parametrize("name, seed", [("M", 21), ("T0", 22)])
    def test_restrictions_match_reference_existence(self, name, seed):
        config = builtin(name)
        rng = random.Random(seed)
        cases = [
            (clique_grown_restriction(config, rng, rng.randint(8, 16)), PARTITIONS_OF_8)
            for _ in range(8)
        ]
        # The reference needs seconds to minutes to refute most odd
        # partitions of a single deletion; these four it settles at once.
        cases += [
            (config.delete(rng.randrange(config.n)), [(7, 1), (6, 2), (4, 4), (4, 2, 2)])
            for _ in range(2)
        ]
        verdicts = set()
        for sub, parts in cases:
            for part in parts:
                got = find_partition_colouring(sub, part)
                want = reference_partition_colouring(sub, part)
                assert (got is None) == (want is None), part
                assert got is None or verify_partition_colouring(sub, got)
                verdicts.add(got is None)
        assert verdicts == {True, False}

    def test_random_graphs_match_reference(self):
        rng = random.Random(77)
        verdicts = {3: set(), 4: set()}
        for _ in range(30):
            d, n, density = rng.choice((3, 4)), rng.randint(8, 13), rng.uniform(0.2, 0.7)
            graph = _graph(_random_rows(rng, n, density), d)
            for part in partitions(d):
                if len(part) < 2:
                    continue
                got = find_partition_colouring(graph, part)
                want = reference_partition_colouring(graph, part)
                assert (got is None) == (want is None), part
                assert got is None or verify_partition_colouring(graph, got)
                verdicts[d].add(got is None)
        assert verdicts == {3: {True, False}, 4: {True, False}}


class TestParityProof:
    @pytest.mark.parametrize("name", ["M", "T0", "N", "KP36", "KP40", "E8", "B"])
    def test_certificate_is_odd_and_covers_rays_evenly(self, name):
        config = builtin(name)
        proof = parity_proof(config)
        assert proof is not None
        assert len(proof) % 2 == 1
        cliques = maximal_cliques(config)
        cover = [0] * config.n
        for i in proof:
            for v in cliques[i]:
                cover[v] += 1
        assert all(c % 2 == 0 for c in cover)

    def test_a_has_no_certificate(self):
        assert parity_proof(builtin("A")) is None

    @pytest.mark.parametrize("name", ["M", "T0"])
    def test_small_restrictions_match_reference_search(self, name):
        config = builtin(name)
        rng = random.Random(11)
        with_cliques = 0
        for _ in range(40):
            sub = clique_grown_restriction(config, rng, rng.randint(2, 16))
            with_cliques += bool(maximal_cliques(sub))
            if parity_proof(sub) is not None:
                assert naive_ks_ones(sub) is None
            for part in ((7, 1), (5, 3), (5, 2, 1)):
                got = find_partition_colouring(sub, part)
                assert (got is None) == (reference_partition_colouring(sub, part) is None)
                assert got is None or verify_partition_colouring(sub, got)
        assert with_cliques >= 10

    @pytest.mark.parametrize("name", ["M", "T0"])
    def test_certificate_implies_no_ks_colouring_on_deletions(self, name):
        config = builtin(name)
        rng = random.Random(3)
        verdicts = set()
        for _ in range(20):
            gone = set(rng.sample(range(config.n), rng.randint(1, 6)))
            sub = config.restrict([v for v in range(config.n) if v not in gone])
            certified = parity_proof(sub) is not None
            if certified:
                assert naive_ks_ones(sub) is None
            verdicts.add(certified)
        assert verdicts == {True, False}


class TestCriticalReduce:
    def test_colourable_input_rejected(self):
        with pytest.raises(ValueError):
            critical_reduce(basis(8))

    def test_already_critical_input_returns_itself(self, n_config):
        report = critical_reduce(n_config)
        assert len(report.iterations) == 1
        step = report.iterations[0]
        assert step.survivors == 0
        assert step.signature_classes == 0
        assert report.results == [tuple(range(n_config.n))]

    def test_kp40_reduces_to_kp36(self, kp40_config, kp36_config):
        report = critical_reduce(kp40_config)
        assert [len(r) for r in report.results] == [36]
        reduced = kp40_config.restrict(report.results[0])
        assert reduced == kp36_config

    def test_every_result_is_critical(self, kp40_config):
        report = critical_reduce(kp40_config)
        for r in report.results:
            assert is_critical(kp40_config.restrict(r))

    def test_trace_m_counts_are_consistent(self, kp40_config):
        report = critical_reduce(kp40_config)
        for step in report.iterations:
            assert step.survivors == sum(step.survivors_per_parent)
            assert len(step.survivors_per_parent) == len(step.parents)
            assert len(step.representatives) == step.signature_classes


def plain_search_verdict(config: Configuration) -> bool:
    """True iff the exact-hit search finds no KS colouring: the verdict
    with no parity certificate in its path."""
    return _section_masks(config.adj, clique_masks(config)) is None


def reference_critical_reduce(parent: Configuration) -> CriticalReport:
    """The reduction on restricted child configurations, each recounted
    in full: every child is built with ``restrict``, decided by the plain
    search and signed on its own."""
    if not plain_search_verdict(parent):
        raise ValueError("input configuration admits a KS colouring")

    start = tuple(range(parent.n))
    current: list[tuple[int, ...]] = [start]
    iterations: list[ReductionStep] = []
    results: list[tuple[int, ...]] = []
    colourable: dict[tuple[int, ...], bool] = {}

    def ks(indices: tuple[int, ...]) -> bool:
        got = colourable.get(indices)
        if got is None:
            got = plain_search_verdict(parent.restrict(indices))
            colourable[indices] = got
        return got

    while current:
        per_parent: list[int] = []
        finished: list[tuple[int, ...]] = []
        by_sig = {}
        for rep in current:
            bad = [
                child
                for k in range(len(rep))
                if ks(child := rep[:k] + rep[k + 1:])
            ]
            per_parent.append(len(bad))
            if not bad:
                if rep not in results:
                    results.append(rep)
                finished.append(rep)
                continue
            for child in bad:
                sig = signature(parent.restrict(child))
                if sig not in by_sig:
                    by_sig[sig] = child
        reps = list(by_sig.values())
        iterations.append(
            ReductionStep(
                parents=list(current),
                survivors_per_parent=per_parent,
                survivors=sum(per_parent),
                signature_classes=len(by_sig),
                representatives=reps,
                finished=finished,
            )
        )
        current = reps

    return CriticalReport(start, iterations, sorted(results))


def reduction_input(name: str, t0_config: Configuration) -> Configuration:
    """KP40, or N plus six T0 rays drawn with ``random.Random(6)``."""
    if name == "KP40":
        return builtin("KP40")
    in_n = set(datasets.N_INDICES)
    n_pos = [i for i, g in enumerate(datasets.T0_INDICES) if g in in_n]
    extra = [i for i, g in enumerate(datasets.T0_INDICES) if g not in in_n]
    return t0_config.restrict(sorted(n_pos + random.Random(6).sample(extra, 6)))


class TestCriticalReduceOracle:
    """The keep-mask reduction with subtracted signatures gives the same
    report, field for field, as the restrict-and-recount reference."""

    @pytest.mark.parametrize("name", ["N", "KP40"])
    def test_builtin_reports_match(self, name):
        config = builtin(name)
        assert critical_reduce(config) == reference_critical_reduce(config)

    @pytest.mark.parametrize("k, seed", [(2, 1), (3, 2), (4, 3), (5, 4), (6, 5), (6, 6)])
    def test_n_plus_k_subsets_of_t0_match(self, t0_config, k, seed):
        in_n = set(datasets.N_INDICES)
        n_pos = [i for i, g in enumerate(datasets.T0_INDICES) if g in in_n]
        extra = [i for i, g in enumerate(datasets.T0_INDICES) if g not in in_n]
        rng = random.Random(seed)
        sub = t0_config.restrict(sorted(n_pos + rng.sample(extra, k)))
        report = critical_reduce(sub)
        assert report == reference_critical_reduce(sub)
        assert report.iterations[0].survivors > 0

    @pytest.mark.parametrize("name", ["KP40", "N+6"])
    def test_only_the_parents_bad_rays_are_searched(self, name, t0_config, monkeypatch):
        """A deletion the parent survived colourably is never searched:
        fewer searches than distinct children; every distinct
        non-colourable child is decided by a search or by a parity proof
        whose cliques all lie inside it; and the reference's report."""
        config = reduction_input(name, t0_config)
        real_search, real_combo = colouring._section_masks, colouring._parity_combo
        searched: list[tuple[int, ...]] = []
        eliminated: list[list[int]] = []

        def search(adj, kept):
            searched.append(tuple(kept))
            return real_search(adj, kept)

        def combo(kept, n):
            got = real_combo(kept, n)
            eliminated.append([m for i, m in enumerate(kept) if got >> i & 1])
            return got

        monkeypatch.setattr(colouring, "_section_masks", search)
        monkeypatch.setattr(colouring, "_parity_combo", combo)
        report = critical_reduce(config)
        monkeypatch.undo()
        proofs = [proof for proof in eliminated[1:] if proof]  # [0] checks the input
        masks = clique_masks(config)
        children = {
            sum(1 << u for u in p if u != v)
            for step in report.iterations for p in step.parents for v in p
        }
        inside = {child: tuple(m for m in masks if m & child == m) for child in children}
        noncolourable = [c for c in children if _section_masks(config.adj, inside[c]) is None]
        was_searched = set(searched)
        by_search = {c for c in noncolourable if inside[c] in was_searched}
        by_proof = {
            c for c in noncolourable if any(all(m & c == m for m in proof) for proof in proofs)
        }
        assert len(searched) < len(children)
        assert by_proof
        assert by_search | by_proof == set(noncolourable)
        assert report == reference_critical_reduce(config)


class TestCertificateFirstVerdicts:
    """The verdicts that try a parity proof first, against the plain search,
    and the proof supports that ``critical_reduce`` keeps within a call."""

    @pytest.mark.parametrize("name, seed", [("M", 31), ("T0", 32), ("KP40", 33), ("E8", 34)])
    def test_verdict_matches_plain_search(self, name, seed):
        config = builtin(name)
        rng = random.Random(seed)
        subs = [clique_grown_restriction(config, rng, rng.randint(8, 24)) for _ in range(6)]
        for _ in range(10):
            gone = set(rng.sample(range(config.n), rng.randint(1, 6)))
            subs.append(config.restrict([v for v in range(config.n) if v not in gone]))
        if name == "M":  # non-colourable with no proof: the search decides
            subs.append(config.restrict(M_CRITICAL_52))
        seen = set()
        for sub in subs:
            got = is_ks_configuration(sub)
            assert got == plain_search_verdict(sub)
            seen.add((got, parity_proof(sub) is not None))
        assert (False, False) in seen and (True, True) in seen
        assert name != "M" or (True, False) in seen

    @pytest.mark.parametrize("name", ["KP40", "N+6"])
    def test_support_certifies_exactly_the_children_holding_it(
        self, name, t0_config, monkeypatch
    ):
        """A child reaches the elimination only while no proof found before
        it in the reduction lies inside it.  The first round, replayed in
        its ray order, skips exactly the deletions holding an earlier
        proof's cliques; each other deletion lacks a ray of every earlier
        support and is eliminated.  Every superset of a support is
        non-colourable by the plain search."""
        config = reduction_input(name, t0_config)
        real = colouring._parity_combo
        calls: list[tuple[tuple[int, ...], set[int]]] = []

        def combo(kept, n):
            got = real(kept, n)
            calls.append((tuple(kept), {m for i, m in enumerate(kept) if got >> i & 1}))
            return got

        monkeypatch.setattr(colouring, "_parity_combo", combo)
        critical_reduce(config)
        monkeypatch.undo()
        proofs = [proof for _, proof in calls if proof]
        masks = clique_masks(config)
        assert calls[0][0] == tuple(masks)  # the input check, whose proof is not kept
        for k, (kept, _) in enumerate(calls):
            assert not any(proof <= set(kept) for _, proof in calls[1:k] if proof)
        found, k, skipped = [], 1, 0
        for v in range(config.n):
            inside = tuple(m for m in masks if not m >> v & 1)
            if any(proof <= set(inside) for proof in found):
                skipped += 1
                continue
            assert calls[k][0] == inside
            found += [calls[k][1]] if calls[k][1] else []
            k += 1
        assert skipped and k > 1

        rng = random.Random(41)
        for proof in rng.sample(proofs, min(8, len(proofs))):
            support = [v for v in range(config.n) if any(m >> v & 1 for m in proof)]
            outside = [v for v in range(config.n) if v not in support]
            extra = rng.sample(outside, rng.randint(0, len(outside)))
            assert plain_search_verdict(config.restrict(sorted(support + extra)))
