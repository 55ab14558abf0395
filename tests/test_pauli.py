"""Signed Pauli-word algebra, parity structures, and joint eigenrays."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from ksrays import builtin
from ksrays.pauli import (
    OPERATOR_LINES,
    PROOF_LINES,
    SATURATED_WORDS,
    PauliWord,
    SignedHypergraph,
    SignedWord,
    _independent_triple,
    _symplectic_bits,
    apply_word,
    commutes,
    eight_edge_proof,
    enumerate_parity_tuples,
    four_edges,
    joint_eigenrays,
    mine_parity_proofs,
    pauli_mul,
    product_sign,
    verify_parity_proof,
    word,
    word_from_index,
)

words3 = st.builds(
    PauliWord, st.tuples(*[st.integers(0, 3)] * 3)
)


@st.composite
def word_lists(draw):
    """1-7 words on a common number of 1-3 qubits."""
    n = draw(st.integers(1, 3))
    letters = st.tuples(*[st.integers(0, 3)] * n)
    return draw(st.lists(st.builds(PauliWord, letters), min_size=1, max_size=7))


# --- reference algebra, independent of the symplectic bit kernel ---------

#: The real-Y letters as 2x2 integer matrices, in code order I, X, Y, Z.
LETTER_MATRICES = (
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((0, 1), (-1, 0)),
    ((1, 0), (0, -1)),
)

# _MUL[a][b] = (sign, code) for the 2x2 product A*B of letter codes.
_MUL = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (1, 0), (-1, 3), (-1, 2)),
    ((1, 2), (1, 3), (-1, 0), (-1, 1)),
    ((1, 3), (1, 2), (1, 1), (1, 0)),
)


def ref_mul(a: SignedWord, b: SignedWord) -> SignedWord:
    sign = a.sign * b.sign
    codes = []
    for ca, cb in zip(a.word.codes, b.word.codes):
        s, c = _MUL[ca][cb]
        sign *= s
        codes.append(c)
    return SignedWord(sign, PauliWord(tuple(codes)))


def ref_commutes(a: PauliWord, b: PauliWord) -> bool:
    odd = 0
    for ca, cb in zip(a.codes, b.codes):
        if ca and cb and ca != cb:
            odd ^= 1
    return odd == 0


def ref_product_sign(words) -> int | None:
    acc = SignedWord(1, PauliWord((0,) * words[0].n_qubits))
    for w in words:
        acc = ref_mul(acc, SignedWord(1, w))
    return acc.sign if acc.word.is_identity() else None


def ref_four_edges(vertices):
    vertices = list(vertices)
    neg, pos = [], []
    for combo in combinations(range(len(vertices)), 4):
        ws = [vertices[i] for i in combo]
        if any(not ref_commutes(a, b) for a, b in combinations(ws, 2)):
            continue
        sign = ref_product_sign(ws)
        if sign == -1:
            neg.append(combo)
        elif sign == 1:
            pos.append(combo)
    return neg, pos


def ref_parity_tuples(n_qubits: int, s: int):
    """Backtracking over a table of ref_commutes, in index order."""
    words = [word_from_index(a, n_qubits) for a in range(1, 4**n_qubits)]
    table = [[ref_commutes(a, b) for b in words] for a in words]
    out = []

    def extend(chosen: list[int], start: int):
        if len(chosen) == s:
            ws = tuple(words[i] for i in chosen)
            sign = ref_product_sign(ws)
            if sign is not None:
                out.append((ws, sign))
            return
        for i in range(start, len(words)):
            if all(table[j][i] for j in chosen):
                extend(chosen + [i], i + 1)

    extend([], 0)
    return out


def kron_matrix(w: PauliWord):
    """Dense matrix of the word as a Kronecker product of letter matrices;
    qubit k acts on bit k of the row and column index."""
    dim = 1 << w.n_qubits
    out = []
    for r in range(dim):
        row = []
        for c in range(dim):
            x = 1
            for k, code in enumerate(w.codes):
                x *= LETTER_MATRICES[code][(r >> k) & 1][(c >> k) & 1]
            row.append(x)
        out.append(row)
    return out


def matrix(w: PauliWord):
    """Dense integer matrix of the word in the real-Y convention."""
    dim = 1 << w.n_qubits
    cols = []
    for b in range(dim):
        vec = [0] * dim
        vec[b] = 1
        cols.append(apply_word(w, vec))
    # apply_word gives W e_b; assemble column-major.
    return [[cols[b][a] for b in range(dim)] for a in range(dim)]


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def gray_walk_proofs(vertices):
    """Reference miner: every odd subset of the negative 4-edges, in Gray order."""
    vertices = tuple(vertices)
    neg, pos = ref_four_edges(vertices)
    pos_set = {frozenset(c) for c in pos}
    edge_masks = [sum(1 << i for i in c) for c in neg]
    m = len(edge_masks)

    hits: list[tuple[int, tuple[int, ...]]] = []
    parity = 0
    size_odd = 0
    for g in range(1, 1 << m):
        e = (g & -g).bit_length() - 1
        parity ^= edge_masks[e]
        size_odd ^= 1
        if size_odd and parity.bit_count() == 4:
            subset = g ^ (g >> 1)  # Gray code of g
            odd_vs = tuple(
                i for i in range(len(vertices)) if (parity >> i) & 1
            )
            if frozenset(odd_vs) in pos_set:
                hits.append((subset, odd_vs))

    proofs = []
    profiles = set()
    for subset, odd_vs in hits:
        chosen = [neg[i] for i in range(m) if (subset >> i) & 1]
        degree = [0] * len(vertices)
        for c in chosen:
            for i in c:
                degree[i] += 1
        counts: dict[int, int] = {}
        for dgr in degree:
            if dgr:
                counts[dgr] = counts.get(dgr, 0) + 1
        profiles.add(tuple(sorted(counts.items())))
        edges = tuple([(c, -1) for c in chosen] + [(odd_vs, 1)])
        proofs.append(SignedHypergraph(vertices, edges))
    return proofs, sorted(profiles)


def pivot_loop_triple(words) -> list[int]:
    """Reference: the first three words that are independent of their
    predecessors, by a private leading-bit pivot loop."""
    pivots: dict[int, int] = {}
    chosen: list[int] = []
    for i, w in enumerate(words):
        v = _symplectic_bits(w)
        while v:
            p = v.bit_length() - 1
            if p not in pivots:
                pivots[p] = v
                chosen.append(i)
                break
            v ^= pivots[p]
        if len(chosen) == 3:
            return chosen
    raise ValueError("words do not generate a maximal abelian subgroup")


class TestAlgebra:
    def test_parse_and_print(self):
        w = word("IXZ")
        assert str(w) == "IXZ"
        with pytest.raises(ValueError):
            word("IXW")

    def test_index_round_trip(self):
        for alpha in range(64):
            assert word_from_index(alpha, 3).index == alpha

    @given(words3, words3)
    def test_mul_matches_matrix_product(self, a, b):
        got = pauli_mul(SignedWord(1, a), SignedWord(1, b))
        lhs = mat_mul(matrix(a), matrix(b))
        rhs = [[got.sign * x for x in row] for row in matrix(got.word)]
        assert lhs == rhs

    @given(words3, words3)
    def test_commutes_matches_matrices(self, a, b):
        ab = mat_mul(matrix(a), matrix(b))
        ba = mat_mul(matrix(b), matrix(a))
        assert commutes(a, b) == (ab == ba)

    @given(words3)
    def test_square_is_plus_or_minus_identity(self, a):
        sq = pauli_mul(SignedWord(1, a), SignedWord(1, a))
        assert sq.word.is_identity()
        # Squares to -1 exactly when the Y count is odd (real convention).
        y_count = sum(1 for c in a.codes if c == 2)
        assert sq.sign == (-1) ** y_count

    def test_mul_table_matches_letter_matrices(self):
        for a in range(4):
            for b in range(4):
                sign, c = _MUL[a][b]
                got = mat_mul(LETTER_MATRICES[a], LETTER_MATRICES[b])
                assert got == [[sign * x for x in row] for row in LETTER_MATRICES[c]]

    def test_apply_word_matches_kronecker_product(self):
        for alpha in range(64):
            w = word_from_index(alpha, 3)
            assert matrix(w) == kron_matrix(w)

    def test_kernel_matches_mul_table_on_all_two_qubit_pairs(self):
        words = [word_from_index(a, 2) for a in range(16)]
        for a in words:
            for b in words:
                for sign in (1, -1):
                    got = pauli_mul(SignedWord(sign, a), SignedWord(1, b))
                    assert got == ref_mul(SignedWord(sign, a), SignedWord(1, b))
                assert commutes(a, b) == ref_commutes(a, b)
                assert product_sign([a, b]) == ref_product_sign([a, b])

    @given(word_lists())
    def test_product_sign_matches_dense_product(self, words):
        dim = 1 << words[0].n_qubits
        prod = kron_matrix(words[0])
        for w in words[1:]:
            prod = mat_mul(prod, kron_matrix(w))
        expected = None
        for s in (1, -1):
            if prod == [[s * (i == j) for j in range(dim)] for i in range(dim)]:
                expected = s
        assert product_sign(words) == expected == ref_product_sign(words)

    def test_product_sign_identity_detection(self):
        assert product_sign([word("XXI"), word("XXI")]) == 1
        assert product_sign([word("XII"), word("IXI"), word("XXI")]) == 1
        assert product_sign([word("XII"), word("IXI")]) is None


class TestParityTuples:
    def test_one_qubit_has_no_tuples(self):
        assert enumerate_parity_tuples(1, 3) == []

    def test_two_qubit_triples(self):
        triples = enumerate_parity_tuples(2, 3)
        assert len(triples) > 0
        for ws, sign in triples:
            assert len(set(ws)) == 3
            for a, b in combinations(ws, 2):
                assert commutes(a, b)
            assert product_sign(list(ws)) == sign

    def test_three_qubit_seven_tuple_count(self):
        tuples = enumerate_parity_tuples(3, 7)
        assert len(tuples) == 135

    @pytest.mark.parametrize("n_qubits, s", [(2, 3), (3, 4), (3, 7)])
    def test_matches_backtracking_reference(self, n_qubits, s):
        assert enumerate_parity_tuples(n_qubits, s) == ref_parity_tuples(n_qubits, s)

    def test_operator_lines_are_parity_tuples(self):
        tuples = {frozenset(ws) for ws, _ in enumerate_parity_tuples(3, 7)}
        for line in OPERATOR_LINES:
            assert frozenset(line) in tuples

    def test_saturated_words_are_the_operator_line_words(self):
        indices = [w.index for w in SATURATED_WORDS]
        assert len(SATURATED_WORDS) == 26
        assert indices == sorted(set(indices))
        assert set(SATURATED_WORDS) == {w for line in OPERATOR_LINES for w in line}


class TestEigenrays:
    def test_line_produces_orthonormal_octuple(self, m_config):
        rays = joint_eigenrays(OPERATOR_LINES[0])
        assert len(rays) == 8
        assert len(set(rays)) == 8
        from ksrays.rays import inner_product

        for a, b in combinations(rays, 2):
            assert inner_product(a, b).is_zero()

    def test_eigenray_is_fixed_by_each_word(self):
        rays = joint_eigenrays(OPERATOR_LINES[1])
        for ray in rays:
            vec = [c.re for c in ray.coords]
            for w in OPERATOR_LINES[1]:
                out = apply_word(w, vec)
                assert out == vec or out == [-x for x in vec]

    def test_all_lines_rebuild_the_64_ray_set(self, m_config):
        rays = set()
        for line in OPERATOR_LINES:
            rays.update(joint_eigenrays(line))
        assert rays == set(m_config.rays)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            joint_eigenrays([word("XII")] * 6)


class TestParityProofs:
    def test_eight_edge_proof_verifies(self):
        proof = eight_edge_proof()
        assert len(proof.edges) == 8
        assert verify_parity_proof(proof)

    def test_eight_edge_proof_degrees(self):
        proof = eight_edge_proof()
        degree = [0] * len(proof.vertices)
        for members, _ in proof.edges:
            for v in members:
                degree[v] += 1
        by_word = {str(proof.vertices[i]): d for i, d in enumerate(degree)}
        assert by_word["XZZ"] == 4
        assert all(d == 2 for w, d in by_word.items() if w != "XZZ")

    def test_sign_tampering_detected(self):
        proof = eight_edge_proof()
        members, sign = proof.edges[0]
        bad = type(proof)(proof.vertices, ((members, -sign),) + proof.edges[1:])
        with pytest.raises(ValueError):
            verify_parity_proof(bad)

    def test_non_commuting_member_detected(self):
        proof = eight_edge_proof()
        members, sign = proof.edges[0]
        ws = [proof.vertices[i] for i in members]
        swap = next(
            i for i, v in enumerate(proof.vertices)
            if i not in members and not commutes(v, ws[1])
        )
        bad = type(proof)(
            proof.vertices, (((swap,) + members[1:], sign),) + proof.edges[1:]
        )
        with pytest.raises(ValueError, match="non-commuting"):
            verify_parity_proof(bad)

    def test_every_mined_proof_verifies(self):
        proofs, _ = mine_parity_proofs(SATURATED_WORDS)
        assert len(proofs) == 512
        assert all(verify_parity_proof(p) for p in proofs)

    def test_dropping_any_edge_fails(self):
        proof = eight_edge_proof()
        for k in range(len(proof.edges)):
            edges = proof.edges[:k] + proof.edges[k + 1 :]
            assert not verify_parity_proof(SignedHypergraph(proof.vertices, edges))

    def test_verdicts_match_degree_count_reference(self):
        # Mined proofs with seeded edits: drop an edge, add a 4-edge once
        # (odd degrees) or twice (still a proof).  The odd-degree mask
        # and sign count against per-vertex degree counts.
        proofs, _ = mine_parity_proofs(SATURATED_WORDS)
        neg, pos = four_edges(SATURATED_WORDS)
        rng = random.Random(24)
        verdicts = set()
        for _ in range(200):
            edges = list(rng.choice(proofs).edges)
            for _ in range(rng.randint(0, 3)):
                edit = rng.randrange(3)
                if edit == 0 and edges:
                    edges.pop(rng.randrange(len(edges)))
                else:
                    sign = rng.choice((-1, 1))
                    edge = (rng.choice(neg if sign < 0 else pos), sign)
                    edges += [edge] * edit
            degree = [0] * len(SATURATED_WORDS)
            for members, _ in edges:
                for i in members:
                    degree[i] += 1
            negatives = sum(sign < 0 for _, sign in edges)
            want = negatives % 2 == 1 and all(d % 2 == 0 for d in degree)
            got = verify_parity_proof(SignedHypergraph(SATURATED_WORDS, tuple(edges)))
            assert got == want
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_members_outside_the_vertices_rejected(self):
        proof = eight_edge_proof()
        assert len(proof.vertices) == 15
        # Negative indices counted from the end used to name vertices.
        shifted = tuple((tuple(i - 15 for i in members), sign) for members, sign in proof.edges)
        with pytest.raises(ValueError, match="vertex index"):
            verify_parity_proof(SignedHypergraph(proof.vertices, shifted))
        members, sign = proof.edges[0]
        past_end = (((15,) + members[1:], sign),) + proof.edges[1:]
        with pytest.raises(ValueError, match="vertex index"):
            verify_parity_proof(SignedHypergraph(proof.vertices, past_end))

    def test_four_edges_match_combinations_reference(self):
        assert four_edges(SATURATED_WORDS) == ref_four_edges(SATURATED_WORDS)
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(1, 4)
            words = [word_from_index(rng.randrange(4**n), n)
                     for _ in range(rng.randint(4, 16))]
            assert four_edges(words) == ref_four_edges(words)

    def test_four_edge_counts_over_saturated_words(self):
        neg, pos = four_edges(SATURATED_WORDS)
        assert len(neg) == 24
        assert len(pos) == 54

    def test_proof_lines_signs_recomputed(self):
        for text, sign in PROOF_LINES:
            ws = [word(t) for t in text.split()]
            assert product_sign(ws) == sign

    def test_mining_matches_gray_walk(self):
        assert mine_parity_proofs(SATURATED_WORDS) == gray_walk_proofs(SATURATED_WORDS)
        # Each subset holds the 15 words of the eight-edge proof, so
        # every one of them has at least that proof to find.
        core = eight_edge_proof().vertices
        rest = [w for w in SATURATED_WORDS if w not in core]
        rng = random.Random(17)
        for _ in range(20):
            words = list(core) + rng.sample(rest, rng.randint(1, 5))
            rng.shuffle(words)
            got = mine_parity_proofs(words)
            assert got == gray_walk_proofs(words)
            assert got[0]


class TestGeneratingTriple:
    def test_operator_lines_match_pivot_loop(self):
        rng = random.Random(2)
        for line in OPERATOR_LINES:
            assert _independent_triple(line) == pivot_loop_triple(line)
            shuffled = rng.sample(line, len(line))
            assert _independent_triple(shuffled) == pivot_loop_triple(shuffled)

    def test_dependent_words_rejected(self):
        words = [word("XII"), word("IXI"), word("XXI")] * 2 + [word("XII")]
        with pytest.raises(ValueError, match="maximal abelian"):
            _independent_triple(words)
