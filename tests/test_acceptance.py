"""Acceptance suite: one test per reproduction target, one line each.

Each test reproduces a published family of counts or classifications
end to end on the built-in datasets.  Two strict xfail tests document
published values that every independent recomputation here contradicts;
the honest values are asserted in the main tests and the analysis lives
in the project notes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from ksrays import builtin
from ksrays.colouring import (
    critical_reduce,
    find_ks_colouring,
    find_partition_colouring,
    is_critical,
    is_ks_configuration,
    verify_partition_colouring,
)
from ksrays.datasets import (
    KP_EXCLUDED,
    N_INDICES,
    PARTITION_44_ONES,
    PARTITION_62_ONES,
    T0_INDICES,
    TROPICAL_INDEX_SETS,
    capacity_pipeline,
)
from ksrays.entropy import (
    ProbabilityWeight,
    entropy_report,
    minimize_entropy,
    validate_probability_weight,
)
from ksrays.orthograph import (
    is_saturated,
    max_clique_intersections,
    maximal_cliques,
    signature,
    steiner_check,
)
from ksrays.pauli import (
    OPERATOR_LINES,
    SATURATED_WORDS,
    eight_edge_proof,
    enumerate_parity_tuples,
    four_edges,
    joint_eigenrays,
    mine_parity_proofs,
    verify_parity_proof,
)
from ksrays.rays import Configuration, make_ray
from ksrays.tropical import tropical_dimension, admits_anticlique_section

from conftest import naive_ks_ones, witness_digest


EXPECTED_SIGNATURES = {
    "M": (
        (64, 992, 5056, 11504, 13312, 8192, 2560, 320),
        (64, 1024, 4864, 8512, 5632, 1536),
    ),
    "N": (
        (36, 346, 1224, 2063, 1776, 830, 204, 21),
        (36, 284, 536, 212),
    ),
    "T0": (
        (48, 600, 2752, 6096, 7008, 4304, 1344, 168),
        (48, 528, 1536, 1312, 384),
    ),
    "KP40": (
        (40, 460, 1880, 2990, 1880, 780, 200, 25),
        (40, 320, 640, 320),
    ),
    "KP36": (
        (36, 374, 1384, 1991, 1120, 416, 96, 11),
        (36, 256, 448, 192),
    ),
    "E8": (
        (120, 3780, 37800, 122850, 113400, 56700, 16200, 2025),
        (120, 3360, 31360, 120960, 241920, 241920, 103680, 8640),
    ),
}


def test_signature_values():
    for name, (cliques, anticliques) in EXPECTED_SIGNATURES.items():
        sig = signature(builtin(name))
        assert sig.cliques == cliques, name
        assert sig.anticliques == anticliques, name


def test_classification_flags():
    assert is_ks_configuration(builtin("M"))
    assert is_ks_configuration(builtin("N"))
    assert is_ks_configuration(builtin("T0"))
    assert is_ks_configuration(builtin("B"))
    assert is_ks_configuration(builtin("E8"))
    assert not is_ks_configuration(builtin("A"))
    assert is_saturated(builtin("M"))[0]
    assert is_saturated(builtin("A"))[0]
    assert is_saturated(builtin("B"))[0]
    assert is_saturated(builtin("E8"))[0]
    assert not is_saturated(builtin("N"))[0]
    assert not is_saturated(builtin("T0"))[0]
    assert is_critical(builtin("N"))
    assert is_critical(builtin("KP36"))
    assert not is_critical(builtin("M"))
    assert not is_critical(builtin("T0"))
    assert not is_critical(builtin("KP40"))
    assert steiner_check(builtin("M"))
    assert max_clique_intersections(builtin("M")) <= set(range(7))


def test_partition_colourings():
    m = builtin("M")
    cliques = maximal_cliques(m)
    for part, witness in ((6, 2), PARTITION_62_ONES), ((4, 4), PARTITION_44_ONES):
        found = find_partition_colouring(m, part)
        assert found is not None and verify_partition_colouring(m, found)
        ones = set(witness)
        assert all(len(ones & set(c)) == part[1] for c in cliques)
    assert find_partition_colouring(m, (7, 1)) is None
    assert find_partition_colouring(m, (5, 3)) is None


@pytest.fixture(scope="module")
def t0_report():
    """critical_reduce(T0), shared by the reduction test and its strict xfail."""
    return critical_reduce(builtin("T0"))


def test_critical_reduction(t0_report):
    t0 = builtin("T0")
    report = t0_report
    first = report.iterations[0]
    # Both the clique-driven search and the independent-set oracle give
    # 48 non-colourable first-round deletions; the recorded 47 is
    # contradicted (see the strict xfail below).
    assert first.survivors == 48
    assert first.signature_classes == 2
    # The final chain terminates at the 36-ray critical set exactly.
    last = report.iterations[-1]
    assert len(last.finished) == 1
    end = tuple(sorted(T0_INDICES[i] for i in last.finished[0]))
    assert end == tuple(sorted(N_INDICES))
    assert t0.restrict(last.finished[0]) == builtin("N")
    # Side branches may close earlier; every reported result is critical.
    for r in report.results:
        assert is_critical(t0.restrict(r))

    kp40 = builtin("KP40")
    kp_report = critical_reduce(kp40)
    assert [len(r) for r in kp_report.results] == [36]
    assert kp40.restrict(kp_report.results[0]) == builtin("KP36")
    assert kp_report.results[0] == tuple(
        i for i in range(40) if i not in KP_EXCLUDED
    )


@pytest.mark.xfail(
    reason="recorded first-round survivor count is 47; the exhaustive "
    "clique-driven search and the naive independent-set oracle both "
    "count 48 non-colourable single-ray deletions of the 48-ray set",
    strict=True,
)
def test_critical_reduction_recorded_first_round_count(t0_report):
    assert t0_report.iterations[0].survivors == 47


def test_tropical_enumeration():
    m = builtin("M")
    cliques = maximal_cliques(m)

    # The six disjoint full cliques covering the 48-ray set admit no
    # anticlique section.
    inside = [c for c in cliques if set(c) <= set(T0_INDICES)]
    cover = []
    covered: set[int] = set()
    for c in inside:
        if covered.isdisjoint(c):
            cover.append(c)
            covered.update(c)
    assert len(cover) == 6 and covered == set(T0_INDICES)
    assert admits_anticlique_section(m, cover) is None

    # Every sampled 5-subset of the 320 maximal cliques has a section.
    rng = random.Random(20240901)
    for _ in range(1000):
        chosen = [cliques[i] for i in rng.sample(range(len(cliques)), 5)]
        assert admits_anticlique_section(m, chosen) is not None

    # Restricted enumeration over disjoint 6-tuples.
    got = tropical_dimension(m, 6)
    assert got is not None
    n, witnesses = got
    assert n == 6
    assert len(witnesses) == 308992
    # The same witnesses in the same order as the per-tuple scan gave,
    # and one shared ray set per union.
    assert witness_digest(witnesses).startswith("1433346c0e1f68a3")
    assert len({id(w.union) for w in witnesses}) == 32
    unions = sorted({tuple(sorted(w.union)) for w in witnesses})
    assert len(unions) == 32
    assert unions == sorted(TROPICAL_INDEX_SETS)
    t_sig = signature(builtin("T0"))
    for u in unions:
        sub = m.restrict(u)
        assert signature(sub).cliques == t_sig.cliques
        assert signature(sub).anticliques == t_sig.anticliques
    containing_n = [u for u in unions if set(N_INDICES) <= set(u)]
    assert containing_n == [tuple(sorted(T0_INDICES))]


def test_parity_proofs():
    tuples = enumerate_parity_tuples(3, 7)
    assert len(tuples) == 135
    assert math.comb(135, 8) == 2214919483920

    rays = set()
    for line in OPERATOR_LINES:
        eigen = joint_eigenrays(line)
        assert len(eigen) == 8
        rays.update(eigen)
    assert len(rays) == 64
    assert rays == set(builtin("M").rays)

    proof = eight_edge_proof()
    assert verify_parity_proof(proof)
    degree = [0] * len(proof.vertices)
    for members, _ in proof.edges:
        for v in members:
            degree[v] += 1
    by_word = {str(proof.vertices[i]): d for i, d in enumerate(degree)}
    # The recomputed degrees: XZZ in four edges, every other vertex in
    # two (the recorded attribution of degree 4 to IZZ fails the edge
    # commutation constraints; see the strict xfail below).
    assert by_word["XZZ"] == 4
    assert all(d == 2 for w, d in by_word.items() if w != "XZZ")

    neg, pos = four_edges(SATURATED_WORDS)
    assert len(neg) == 24
    assert len(pos) == 54
    proofs, profiles = mine_parity_proofs(SATURATED_WORDS)
    assert len(profiles) == 33
    for mined in proofs[:16]:
        assert verify_parity_proof(mined)


@pytest.mark.xfail(
    reason="the recorded degree-4 vertex is IZZ, but the explicit "
    "8-edge table yields degree 4 at XZZ and degree 2 at IZZ; no "
    "IZZ/XZZ swap keeps all edges mutually commuting",
    strict=True,
)
def test_parity_proof_recorded_degree_four_vertex():
    proof = eight_edge_proof()
    degree = [0] * len(proof.vertices)
    for members, _ in proof.edges:
        for v in members:
            degree[v] += 1
    by_word = {str(proof.vertices[i]): d for i, d in enumerate(degree)}
    assert by_word["IZZ"] == 4


def test_capacity_pipeline():
    report = capacity_pipeline()
    assert report.pair_capacities == {2, 4}
    assert len(report.w_sets) == 420
    assert report.w_pair_capacities == {8, 16, 24}
    assert len(report.q_sets) == 70
    assert len(report.q_mirror_sets) == 70
    assert report.capacity_a == 240
    assert report.union_capacity_histogram == {
        48: 1152, 80: 1536, 92: 768, 152: 384, 176: 768,
        228: 32, 288: 168, 320: 12, 416: 48, 588: 32,
    }
    assert report.m_capacity == 320
    assert report.m_capacity_pairs == [
        (9, 34), (9, 35), (20, 27), (20, 42), (27, 4), (27, 65),
        (42, 4), (42, 65), (49, 27), (49, 42), (60, 34), (60, 35),
    ]
    assert report.m_found


def test_entropy_bounds():
    m = builtin("M")
    uniform = ProbabilityWeight(tuple(Fraction(1, 8) for _ in range(64)))
    rep = entropy_report(m, uniform)
    assert rep.equientropic
    assert abs(rep.common_entropy - math.log(8)) < 1e-12
    floating = ProbabilityWeight(tuple(0.125 for _ in range(64)))
    rep_f = entropy_report(m, floating)
    assert rep_f.equientropic
    assert abs(rep_f.common_entropy - math.log(8)) < 1e-12

    # Weight 1/2 on the 16-ray colour class of the (6,2) colouring.
    values = tuple(
        Fraction(1, 2) if i in set(PARTITION_62_ONES) else Fraction(0)
        for i in range(64)
    )
    half = ProbabilityWeight(values)
    assert validate_probability_weight(m, half)
    rep_half = entropy_report(m, half)
    assert rep_half.equientropic
    assert abs(rep_half.common_entropy - math.log(2)) < 1e-12

    best = minimize_entropy(m)
    assert best.common_entropy <= math.log(2) + 1e-9
    assert validate_probability_weight(m, best.witness)

    basis = Configuration(
        [make_ray([1 if i == j else 0 for j in range(8)]) for i in range(8)]
    )
    assert minimize_entropy(basis).common_entropy <= 1e-12


def test_oracle_equivalence():
    m = builtin("M")
    rng = random.Random(271828)
    checked = 0
    for _ in range(220):
        size = rng.randint(2, 16)
        sub = m.restrict(rng.sample(range(m.n), size))
        fast = find_ks_colouring(sub)
        slow = naive_ks_ones(sub)
        assert (fast is None) == (slow is None)
        if fast is not None:
            cliques = maximal_cliques(sub)
            ones = fast.ones()
            assert all(
                sum(1 for v in c if v in ones) == 1 for c in cliques
            )
        checked += 1
    assert checked >= 200
