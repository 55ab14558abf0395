"""The benchmark's oracles accept right answers and reject wrong ones.

Run with ``python3 -m unittest discover -s perfbench -p 'test_*.py'``
from the repository root.  Inputs are the published vector tables and
index sets; no ``ksrays`` algorithm is used.
"""

from __future__ import annotations

import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles as oc  # noqa: E402
from ksrays import datasets, pauli  # noqa: E402


def real(vecs):
    return [tuple((x, 0) for x in v) for v in vecs]


M_ROWS = oc.orthogonality(real(datasets.M_VECTORS))
M_CLIQUES = oc.cliques(M_ROWS, 8)
M_MASKS = [oc.mask(c) for c in M_CLIQUES]
T0 = oc.mask(datasets.T0_INDICES)


class Orthogonality(unittest.TestCase):
    def test_gaussian_inner_products(self):
        one_i, one_minus_i = ((1, 0), (0, 1)), ((1, 0), (0, -1))
        self.assertEqual(oc.inner(one_i, one_minus_i), (0, 0))
        self.assertEqual(oc.inner(one_i, one_i), (2, 0))
        self.assertEqual(oc.orthogonality([one_i, one_minus_i, one_i]), [0b010, 0b101, 0b010])

    def test_published_clique_counts(self):
        self.assertEqual(len(M_CLIQUES), 320)
        self.assertEqual(oc.size_counts(M_ROWS, T0)[-1], 168)


class KSColouring(unittest.TestCase):
    def test_flipped_value_rejected(self):
        basis = [tuple((int(i == j), 0) for j in range(8)) for i in range(8)]
        rows = oc.orthogonality(basis)
        clique_list = oc.cliques(rows, 8)
        ones = oc.ks_colouring(oc.independent_sets(rows, 0xFF), [oc.mask(c) for c in clique_list])
        values = [int((ones >> v) & 1) for v in range(8)]
        self.assertTrue(oc.check_partition_colouring(clique_list, values, (7, 1)))
        values[values.index(0)] = 1
        self.assertFalse(oc.check_partition_colouring(clique_list, values, (7, 1)))

    def test_62_colouring_with_one_value_flipped_rejected(self):
        values = [int(v in datasets.PARTITION_62_ONES) for v in range(64)]
        self.assertTrue(oc.check_partition_colouring(M_CLIQUES, values, (6, 2)))
        values[0] ^= 1
        self.assertFalse(oc.check_partition_colouring(M_CLIQUES, values, (6, 2)))

    def test_kochen_specker_and_critical(self):
        rows = oc.orthogonality(real(datasets.KP_VECTORS))
        full = (1 << 40) - 1
        kp36 = full & ~oc.mask(datasets.KP_EXCLUDED)
        self.assertFalse(oc.is_critical(rows, 8, full))
        self.assertTrue(oc.is_critical(rows, 8, kp36))


class Sections(unittest.TestCase):
    def cover(self):
        out, used = [], 0
        for c, cm in zip(M_CLIQUES, M_MASKS):
            if cm & ~T0 == 0 and not cm & used:
                out.append(c)
                used |= cm
        return out

    def test_t0_cover_has_no_section(self):
        self.assertIsNone(oc.section(M_ROWS, self.cover()))

    def test_section_with_orthogonal_pair_rejected(self):
        five = self.cover()[:5]
        chosen = list(oc.section(M_ROWS, five))
        self.assertTrue(oc.check_section(M_ROWS, five, chosen))
        k, v = next(
            (k, v) for k, c in enumerate(five) for v in c
            if any((M_ROWS[v] >> p) & 1 for j, p in enumerate(chosen) if j != k)
        )
        chosen[k] = v
        self.assertFalse(oc.check_section(M_ROWS, five, chosen))


class Witnesses(unittest.TestCase):
    def test_list_with_one_tuple_missing_rejected(self):
        expected = oc.covers(M_MASKS, T0, 6)
        self.assertEqual(len(expected), 308992 // 32)
        listed = sorted(expected)
        self.assertTrue(oc.check_witnesses(listed, expected))
        self.assertFalse(oc.check_witnesses(listed[1:], expected))
        self.assertFalse(oc.check_witnesses(listed + listed[:1], expected))


class Capacity(unittest.TestCase):
    def test_capacity_off_by_one_rejected(self):
        index = oc.CliqueIndex(M_MASKS, 64)
        self.assertEqual(index.capacity((1 << 64) - 1), 320)
        self.assertEqual(index.capacity(T0), 168)
        self.assertNotEqual(index.capacity(T0), 169)
        self.assertNotEqual(index.capacity(T0), 167)


class EntropyAndParity(unittest.TestCase):
    def test_weight_with_one_value_changed_rejected(self):
        values = [Fraction(1, 2) if v in datasets.PARTITION_62_ONES else Fraction(0)
                  for v in range(64)]
        self.assertTrue(oc.check_probability_weight(M_CLIQUES, values))
        values[datasets.PARTITION_62_ONES[0]] = Fraction(1, 3)
        self.assertFalse(oc.check_probability_weight(M_CLIQUES, values))

    def test_proof_with_one_sign_flipped_rejected(self):
        words, edges = [], []
        for text, sign in pauli.PROOF_LINES:
            members = []
            for w in text.split():
                if w not in words:
                    words.append(w)
                members.append(words.index(w))
            edges.append((tuple(members), sign))
        matrices = [oc.word_matrix(w) for w in words]

        def sign_of(members):
            return oc.edge_sign([matrices[i] for i in members])

        self.assertTrue(oc.check_parity_proof(edges, sign_of))
        members, sign = edges[0]
        self.assertFalse(oc.check_parity_proof([(members, -sign)] + edges[1:], sign_of))


if __name__ == "__main__":
    unittest.main()
