"""Probability weights on ray configurations and entropy bounds."""

from __future__ import annotations

import importlib
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ksrays import builtin
from ksrays.colouring import find_partition_colouring
from ksrays.datasets import PARTITION_62_ONES
from ksrays.entropy import (
    InvalidWeightError,
    ProbabilityWeight,
    _coprime_base,
    _sums_to_one,
    entropy_report,
    minimize_entropy,
    validate_probability_weight,
    weight_from_partition_colouring,
    weight_spec,
)
from ksrays.orthograph import maximal_cliques
from ksrays.rays import Configuration, make_ray


def basis(dim: int) -> Configuration:
    return Configuration(
        [make_ray([1 if i == j else 0 for j in range(dim)]) for i in range(dim)]
    )


def uniform(config: Configuration) -> ProbabilityWeight:
    return ProbabilityWeight(
        tuple(Fraction(1, config.dim) for _ in range(config.n))
    )


class TestValidation:
    def test_uniform_weight_is_valid(self, m_config):
        assert validate_probability_weight(m_config, uniform(m_config))

    def test_wrong_length_rejected(self, m_config):
        with pytest.raises(ValueError):
            validate_probability_weight(
                m_config, ProbabilityWeight((Fraction(1, 8),))
            )

    def test_unsaturated_input_rejected(self, n_config):
        with pytest.raises(ValueError, match="saturated"):
            validate_probability_weight(n_config, uniform(n_config))

    def test_bad_clique_sum_detected(self, m_config):
        vals = [Fraction(1, 8)] * m_config.n
        vals[0] = Fraction(1, 4)
        assert not validate_probability_weight(
            m_config, ProbabilityWeight(tuple(vals))
        )

    def test_floating_mode_tolerance(self, m_config):
        w = ProbabilityWeight(tuple(0.125 for _ in range(m_config.n)))
        assert not w.exact
        assert validate_probability_weight(m_config, w)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, m_config, bad):
        one_bad = [0.125] * m_config.n
        one_bad[5] = bad
        for values in ((bad,) * m_config.n, tuple(one_bad)):
            w = ProbabilityWeight(values)
            assert not validate_probability_weight(m_config, w)
            with pytest.raises(InvalidWeightError):
                entropy_report(m_config, w)


class TestIntegerCliqueSums:
    """The rational clique sums, taken as integer numerators over the
    common denominator, against sums of Fractions."""

    @staticmethod
    def _fraction_verdict(values, cliques) -> bool:
        return all(0 <= v <= 1 for v in values) and all(
            sum(values[v] for v in clique) == 1 for clique in cliques
        )

    @pytest.mark.parametrize("name, seed", [("M", 41), ("E8", 42)])
    def test_match_fraction_sums(self, name, seed):
        # Mixtures of the uniform weight and a (4,4) colouring's weights
        # are valid; then one ray is nudged, or every value is random.
        import random

        rng = random.Random(seed)
        config = builtin(name)
        cliques = maximal_cliques(config)
        col = find_partition_colouring(config, (4, 4))
        verdicts = set()
        for trial in range(12):
            w0 = Fraction(rng.randint(0, 60), 4 * rng.randint(60, 97))
            t = Fraction(rng.randint(0, 10), 10)
            values = [
                t / 8 + (1 - t) * (w0, Fraction(1, 4) - w0)[c] for c in col.values
            ]
            if trial % 3 == 1:
                values[rng.randrange(config.n)] += Fraction(rng.choice((-1, 1)), 997)
            elif trial % 3 == 2:
                values = [Fraction(rng.randint(0, 9), 36) for _ in values]
            got = _sums_to_one(config, ProbabilityWeight(tuple(values)), cliques)
            assert got == self._fraction_verdict(values, cliques)
            verdicts.add(got)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", ["M", "E8"])
    def test_one_clique_off_by_one_over_gamma(self, name):
        # Raise one ray by 1/gamma and keep one clique through it: that
        # clique alone sums to 1 + 1/gamma.
        config = builtin(name)
        cliques = maximal_cliques(config)
        col = find_partition_colouring(config, (4, 4))
        values = [(Fraction(1, 40), Fraction(9, 40))[c] for c in col.values]
        gamma = math.lcm(*(v.denominator for v in values))
        assert _sums_to_one(config, ProbabilityWeight(tuple(values)), cliques)
        ray = cliques[0][0]
        values[ray] += Fraction(1, gamma)
        w = ProbabilityWeight(tuple(values))
        others = [c for c in cliques if ray not in c]
        assert _sums_to_one(config, w, others)
        assert not _sums_to_one(config, w, [cliques[0]] + others)
        assert not self._fraction_verdict(values, [cliques[0]])
        assert not validate_probability_weight(config, w)


class TestEntropyReport:
    def test_uniform_equientropic_at_log_dim(self, m_config):
        rep = entropy_report(m_config, uniform(m_config))
        assert rep.equientropic
        assert abs(rep.common_entropy - math.log(8)) < 1e-12
        assert abs(rep.statistical_weight - 8.0) < 1e-9

    def test_basis_point_mass_has_zero_entropy(self):
        b = basis(8)
        vals = [Fraction(0)] * 8
        vals[3] = Fraction(1)
        rep = entropy_report(b, ProbabilityWeight(tuple(vals)))
        assert rep.equientropic
        assert rep.common_entropy == 0.0

    def test_rational_mode_compares_multisets_exactly(self, m_config):
        col = find_partition_colouring(m_config, (6, 2))
        w = weight_from_partition_colouring(
            m_config, col, (Fraction(0), Fraction(1, 2))
        )
        rep = entropy_report(m_config, w)
        assert rep.equientropic
        assert abs(rep.common_entropy - math.log(2)) < 1e-12


def basis_and_hadamard() -> Configuration:
    """The standard basis of C^8 and the rows of the Sylvester Hadamard
    matrix: saturated, with exactly these two 8-cliques."""
    rows = [[1]]
    while len(rows) < 8:
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return Configuration(
        [make_ray([int(i == j) for j in range(8)]) for i in range(8)]
        + [make_ray(r) for r in rows]
    )


def _partitions(total: int, parts: int, largest: int | None = None):
    """Non-increasing lists of at most `parts` positive ints summing to total."""
    if total == 0:
        yield []
        return
    for first in range(min(total, largest or total), 0, -1):
        if parts:
            for rest in _partitions(total - first, parts - 1, first):
                yield [first] + rest


class TestExactEquientropy:
    """The rational verdict compares entropies, not value multisets."""

    def test_different_multisets_with_equal_entropy(self):
        # Both cliques have entropy log 4.
        vals = [Fraction(1, 4)] * 4 + [Fraction(0)] * 4
        vals += [Fraction(1, 2)] + [Fraction(1, 8)] * 4 + [Fraction(0)] * 3
        config = basis_and_hadamard()
        for values in (vals, [float(v) for v in vals]):
            rep = entropy_report(config, ProbabilityWeight(tuple(values)))
            assert rep.equientropic
            assert abs(rep.common_entropy - math.log(4)) < 1e-12

    @pytest.mark.parametrize("gamma", [8, 10])
    def test_every_pair_of_clique_weights_against_integer_oracle(self, gamma):
        # Every pair of weights with denominator gamma on the two cliques.
        # gamma * H = gamma log gamma - log(prod of q**q), so the entropies
        # agree iff the integers prod(q**q) do; floats must agree too.
        config = basis_and_hadamard()
        weights = [p + [0] * (8 - len(p)) for p in _partitions(gamma, 8)]
        equal = 0
        for first in weights:
            for second in weights:
                values = [Fraction(q, gamma) for q in first + second]
                same = math.prod(q**q for q in first) == math.prod(q**q for q in second)
                for mode in (values, [float(v) for v in values]):
                    rep = entropy_report(config, ProbabilityWeight(tuple(mode)))
                    assert rep.equientropic == same, (first, second)
                equal += same and first != second
        assert equal > 0

    def test_coprime_base(self):
        import random

        rng = random.Random(3)
        for _ in range(200):
            numbers = [rng.choice([0, 1, 2 + rng.randrange(5000)]) for _ in range(rng.randrange(9))]
            base = _coprime_base(numbers)
            assert all(math.gcd(a, b) == 1 for i, a in enumerate(base) for b in base[:i])
            for x in numbers:
                for b in base:
                    while x > 1 and x % b == 0:
                        x //= b
                assert x in (0, 1)

    def test_no_rays_is_an_error(self):
        empty = Configuration([])
        with pytest.raises(ValueError, match="no rays"):
            minimize_entropy(empty)
        with pytest.raises(ValueError, match="no rays"):
            entropy_report(empty, ProbabilityWeight(()))


class TestPartitionWeights:
    def test_clique_sum_constraint_enforced(self, m_config):
        col = find_partition_colouring(m_config, (6, 2))
        with pytest.raises(ValueError, match="clique sum"):
            weight_from_partition_colouring(
                m_config, col, (Fraction(1, 8), Fraction(1, 4))
            )

    def test_weight_spec_minimal_denominator(self, m_config):
        col = find_partition_colouring(m_config, (6, 2))
        w = weight_from_partition_colouring(
            m_config, col, (Fraction(1, 12), Fraction(1, 4))
        )
        spec = weight_spec(m_config, w)
        assert spec.gamma == 12
        assert spec.numerators == (1, 3)
        for counts in spec.clique_multiplicities.values():
            assert counts == (6, 2)


    def test_int_values_are_exact(self, m_config):
        # Weight 1/2 on the (6,2) class and the int 0 elsewhere is rational.
        w = ProbabilityWeight(
            tuple(Fraction(1, 2) if v in PARTITION_62_ONES else 0 for v in range(64))
        )
        assert w.exact
        assert entropy_report(m_config, w).equientropic
        spec = weight_spec(m_config, w)
        assert spec.values == (Fraction(0), Fraction(1, 2))
        assert all(type(v) is Fraction for v in spec.values)
        assert (spec.gamma, spec.numerators) == (2, (0, 1))


class TestMinimizeEntropy:
    def test_basis_bound_is_zero(self):
        rep = minimize_entropy(basis(8))
        assert rep.equientropic
        assert rep.common_entropy <= 1e-12
        assert validate_probability_weight(basis(8), rep.witness)

    def test_m_bound_beats_uniform(self, m_config):
        rep = minimize_entropy(m_config)
        assert rep.equientropic
        assert rep.common_entropy <= math.log(2) + 1e-9
        assert validate_probability_weight(m_config, rep.witness)

    def test_bound_is_recomputed_from_witness(self, m_config):
        rep = minimize_entropy(m_config)
        again = entropy_report(m_config, rep.witness)
        assert again.equientropic
        assert abs(again.common_entropy - rep.common_entropy) < 1e-12

    def test_unsaturated_input_rejected(self, n_config):
        with pytest.raises(ValueError, match="saturated"):
            minimize_entropy(n_config)

    def test_saturation_checked_once_before_search(
        self, m_config, n_config, monkeypatch
    ):
        import ksrays.entropy as entropy

        calls = []
        real = entropy.is_saturated
        monkeypatch.setattr(
            entropy, "is_saturated", lambda c: calls.append(c) or real(c)
        )
        minimize_entropy(m_config)
        assert len(calls) == 1
        # Any colouring search would now fail with a TypeError.
        monkeypatch.setattr(entropy, "find_partition_colouring", None)
        with pytest.raises(ValueError, match=r"^configuration is not saturated"):
            minimize_entropy(n_config)

    def test_report_rejects_unsaturated_input(self, n_config):
        with pytest.raises(ValueError, match="saturated"):
            entropy_report(n_config, uniform(n_config))

    def test_m_witness_is_exact_half_weight(self, m_config):
        rep = minimize_entropy(m_config)
        values = rep.witness.values
        assert all(isinstance(v, Fraction) for v in values)
        assert set(values) == {Fraction(0), Fraction(1, 2)}
        assert abs(rep.common_entropy - math.log(2)) < 1e-12

    def test_a_and_b_bounds(self):
        assert minimize_entropy(builtin("A")).common_entropy == 0.0
        rep = minimize_entropy(builtin("B"))
        assert abs(rep.common_entropy - math.log(2)) < 1e-12

    def test_e8_bound_is_log_four(self):
        # (7,1) and (5,3) are refuted by a parity certificate and (6,2)
        # by the exhaustive search, so the first colouring is (4,4).
        rep = minimize_entropy(builtin("E8"))
        assert abs(rep.common_entropy - math.log(4)) < 1e-12
        assert set(rep.witness.values) == {Fraction(0), Fraction(1, 4)}

    @pytest.mark.parametrize("partition", [(6, 2), (4, 4)])
    def test_two_part_weights_never_beat_log_a(self, m_config, partition):
        # The entropy is concave along the clique-sum segment, so no
        # interior point of it lies below the endpoint bound log a.
        col = find_partition_colouring(m_config, partition)
        rest, a = partition

        @settings(max_examples=12, deadline=None)
        @given(st.fractions(min_value=0, max_value=Fraction(1, a)))
        def check(w1):
            w = weight_from_partition_colouring(
                m_config, col, ((1 - a * w1) / rest, w1)
            )
            rep = entropy_report(m_config, w)
            assert rep.common_entropy >= math.log(a) - 1e-12

        check()


def test_runs_without_numpy_or_scipy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setitem(sys.modules, "scipy", None)
    for name in [k for k in sys.modules if k.split(".")[0] == "ksrays"]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("ksrays.cli")
    fresh = importlib.import_module("ksrays")
    rep = fresh.minimize_entropy(fresh.builtin("M"))
    assert abs(rep.common_entropy - math.log(2)) < 1e-12
