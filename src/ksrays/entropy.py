"""Probability weights, clique entropies, and configuration-entropy bounds.

A probability weight assigns every ray a value in [0, 1] so that each
maximal clique sums to 1; it is equientropic when all clique entropies
coincide.  The infimum of the common entropy over equientropic weights
has no known closed form, so :func:`minimize_entropy` reports a
certified UPPER bound: the exact best bound over two-part partition
colourings, always the recomputed entropy of an explicit exact witness.

Natural logarithm throughout; 0*log(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .rays import Configuration
from .orthograph import maximal_cliques, is_saturated
from .colouring import Colouring, find_partition_colouring, verify_partition_colouring

EQUIENTROPY_TOL = 1e-9
CLIQUE_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ProbabilityWeight:
    """Per-ray values; exact-rational mode iff all values are Fractions or ints."""

    values: tuple

    @property
    def exact(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for v in self.values)


@dataclass
class EntropyReport:
    per_clique: dict[tuple[int, ...], float]
    equientropic: bool
    common_entropy: float | None
    upper_bound: float | None  # on the configuration entropy, when equientropic
    statistical_weight: float | None  # exp of the bound
    witness: ProbabilityWeight | None = None


@dataclass(frozen=True)
class WeightSpec:
    """Distinct rational values w_i = q_i / gamma with minimal gamma."""

    values: tuple[Fraction, ...]
    numerators: tuple[int, ...]
    gamma: int
    clique_multiplicities: dict[tuple[int, ...], tuple[int, ...]]


class InvalidWeightError(ValueError):
    """The weight does not sum to 1 on every maximal clique."""


def _xlogx(p: float) -> float:
    return 0.0 if p == 0 else p * math.log(p)


def _require_saturated(config: Configuration) -> None:
    if not config.n:
        raise ValueError("configuration has no rays, so no clique entropy")
    ok, witness = is_saturated(config)
    if not ok:
        raise ValueError(
            f"configuration is not saturated (dead-end clique {witness})"
        )


def validate_probability_weight(config: Configuration, f: ProbabilityWeight) -> bool:
    """True iff every maximal clique sums to 1 (exactly in rational mode)."""
    _require_saturated(config)
    return _sums_to_one(config, f, maximal_cliques(config))


def _sums_to_one(config: Configuration, f: ProbabilityWeight, cliques) -> bool:
    """Every value in [0, 1] and every clique sum 1: in rational mode
    exactly, as integer numerators over the common denominator."""
    if len(f.values) != config.n:
        raise ValueError("weight is not total on the configuration")
    if any(not 0 <= v <= 1 for v in f.values):  # also rejects NaN
        return False
    if f.exact:
        gamma, qs = _numerators(f.values)
        return all(sum([qs[v] for v in clique]) == gamma for clique in cliques)
    values = f.values
    return all(
        abs(float(sum(values[v] for v in clique)) - 1.0) <= CLIQUE_SUM_TOL
        for clique in cliques
    )


def _numerators(values) -> tuple[int, list[int]]:
    """(gamma, q): the least common denominator of the rationals and
    each value's numerator over it."""
    gamma = math.lcm(*(v.denominator for v in values))
    return gamma, [v.numerator * (gamma // v.denominator) for v in values]


def entropy_report(config: Configuration, f: ProbabilityWeight) -> EntropyReport:
    """Per-clique entropies and the equientropic verdict.

    In rational mode the verdict is exact (see :func:`_equal_entropies`);
    in floating mode entropies are compared within EQUIENTROPY_TOL.
    """
    _require_saturated(config)
    return _report(config, f)


def _report(config: Configuration, f: ProbabilityWeight) -> EntropyReport:
    """:func:`entropy_report` on a configuration already known to be saturated."""
    cliques = maximal_cliques(config)
    if not _sums_to_one(config, f, cliques):
        raise InvalidWeightError("not a valid probability weight")
    # Summing negated terms keeps a zero entropy at +0.0.
    terms = [-_xlogx(float(v)) for v in f.values]
    per = {c: sum(terms[v] for v in c) for c in cliques}
    if f.exact:
        equi = _equal_entropies(f.values, cliques)
    else:
        equi = max(per.values()) - min(per.values()) <= EQUIENTROPY_TOL
    common = next(iter(per.values())) if equi else None
    return EntropyReport(
        per_clique=per,
        equientropic=equi,
        common_entropy=common,
        upper_bound=common,
        statistical_weight=math.exp(common) if common is not None else None,
        witness=f,
    )


def _equal_entropies(values, cliques) -> bool:
    """Whether the rational weight gives every clique one entropy, exactly.

    With gamma the common denominator and q = gamma * p, a clique sums to
    1, so -gamma * H = sum of q log q - gamma log gamma.  The logs of a
    coprime base of the q's are linearly independent over Q, so two
    cliques have equal entropy iff their integer vectors of sum of
    q * v_b(q) over base elements b are equal.
    """
    _, qs = _numerators(values)
    base = _coprime_base(qs)
    terms = {q: [q * _valuation(q, b) for b in base] for q in set(qs)}
    sums = {tuple(map(sum, zip(*(terms[qs[v]] for v in clique)))) for clique in cliques}
    return len(sums) <= 1


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1 whose powers multiply to every number
    > 1 given: a pair a, b with g = gcd(a, b) > 1 is split into a/g, b/g
    and g until no such pair is left.  No factoring is needed."""
    base = {x for x in numbers if x > 1}
    while True:
        for a, b in combinations(base, 2):
            g = math.gcd(a, b)
            if g > 1:
                base = base - {a, b} | {x for x in (a // g, b // g, g) if x > 1}
                break
        else:
            return sorted(base)


def _valuation(q: int, b: int) -> int:
    """The largest e with b**e dividing q; 0 when q is 0."""
    e = 0
    while q and q % b == 0:
        q //= b
        e += 1
    return e


def weight_from_partition_colouring(
    config: Configuration, colouring: Colouring, colour_values
) -> ProbabilityWeight:
    """The induced weight f(x) = colour_values[colouring(x)].

    Always equientropic: the per-clique value multiset is fixed by the
    partition.  The clique-sum constraint on the colour values is
    checked up front.
    """
    vals = [Fraction(v) for v in colour_values]
    part = colouring.partition
    if len(vals) != len(part):
        raise ValueError("one value per colour required")
    if any(v < 0 or v > 1 for v in vals):
        raise ValueError("colour values must lie in [0, 1]")
    total = sum(n * v for n, v in zip(part, vals))
    if total != 1:
        raise ValueError(f"clique sum is {total}, not 1")
    if not verify_partition_colouring(config, colouring):
        raise ValueError("colouring is not compatible with its partition")
    return ProbabilityWeight(
        tuple(vals[c] for c in colouring.values)
    )


def weight_spec(config: Configuration, f: ProbabilityWeight) -> WeightSpec:
    """Mixed-colour form of a rational weight: values q_i / gamma, minimal gamma."""
    if not f.exact:
        raise ValueError("weight spec requires a rational weight")
    distinct = sorted(set(map(Fraction, f.values)))
    gamma, nums = _numerators(distinct)
    mult: dict[tuple[int, ...], tuple[int, ...]] = {}
    for clique in maximal_cliques(config):
        counts = [0] * len(distinct)
        for v in clique:
            counts[distinct.index(f.values[v])] += 1
        mult[clique] = tuple(counts)
    return WeightSpec(tuple(distinct), tuple(nums), gamma, mult)


def minimize_entropy(config: Configuration) -> EntropyReport:
    """The smallest two-part colouring bound on the configuration entropy.

    A (d-a, a) colouring induces the equientropic weights with w0 on the
    first class and w1 on the second, (d-a)*w0 + a*w1 = 1.  The clique
    entropy is concave along that segment, so its minimum sits at an
    endpoint, log(d-a) or log a.  Since a <= d/2 it is log a, reached
    with weight 1/a on the a-class.  The bound is therefore log a for
    the smallest a admitting such a colouring, or the uniform weight's
    log d when none does.  The witness is exact and the reported bound
    is its recomputed entropy.
    """
    _require_saturated(config)
    d = config.dim
    for a in range(1, d // 2 + 1):
        col = find_partition_colouring(config, (d - a, a))
        if col is not None:
            weight = weight_from_partition_colouring(
                config, col, (Fraction(0), Fraction(1, a))
            )
            return _report(config, weight)
    return _report(
        config, ProbabilityWeight(tuple(Fraction(1, d) for _ in range(config.n)))
    )
