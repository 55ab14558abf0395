"""The four reproduction workloads: inputs, timed calls and exact checks.

Each workload has three stages.  ``setup`` builds the built-in
configurations it uses and is timed as set-up.  ``prepare`` derives
everything the checks need with the oracles in ``oracles.py``, and any
input drawn once per run from the run's seeded ``rng``; it is neither
set-up nor solve time.  ``round`` makes round ``k``'s seeded inputs,
times every call into ``ksrays`` through ``Round.call`` and checks each
output.  Every round of a workload makes the same calls on inputs of
the same shape, so rounds are interchangeable samples.  ``ROUND_S`` is
a round's nominal solve time, from which the worker fixes the number
of rounds in a run.

Inputs handed to ``ksrays`` are fresh copies of the built-in
configurations, so a result cached on an instance in one round is never
reused by the next.
"""

from __future__ import annotations

import math
import random
import sys
import traceback
from array import array
from fractions import Fraction
from itertools import combinations, product
from time import perf_counter

import oracles as oc
from oracles import bits, mask

import ksrays
from ksrays import colouring, datasets, entropy, orthograph, pauli, tropical

#: Published counts the checks compare against.
T0_SIGNATURE = (
    (48, 600, 2752, 6096, 7008, 4304, 1344, 168),
    (48, 528, 1536, 1312, 384),
)
M_CLIQUES = 320
T0_FIRST_ROUND = 48
KP40_EXCLUDED = (0, 12, 22, 31)
A_CAPACITY = 240
W_SETS = 420
Q_SETS = 70
M_CAPACITY = 320
M_CAPACITY_PAIRS = 12
DEGREE_PROFILES = 33

FAILED = object()


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Round:
    """Times calls into ``ksrays`` and counts them as operations."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.solve_s = 0.0
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        """Result of one timed call, or FAILED if it raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.active = True
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return FAILED
        finally:
            self.solve_s += perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False


def fresh(config):
    """An uncached copy of a configuration; not timed."""
    return ksrays.Configuration(config.rays, config.adj)


def vectors(config) -> list[tuple[tuple[int, int], ...]]:
    return [tuple((c.re, c.im) for c in r.coords) for r in config.rays]


def covering_cliques(rows: list[int], clique_masks: list[int], keep: int) -> bool:
    """Every orthogonal pair inside ``keep`` lies in a clique inside it."""
    covered: dict[int, int] = {}
    for c in clique_masks:
        if c & ~keep == 0:
            for v in bits(c):
                covered[v] = covered.get(v, 0) | c
    return all(rows[v] & keep & ~covered.get(v, 0) == 0 for v in bits(keep))


class Tropical:
    """Anticlique sections and the restricted tropical-dimension search."""

    name = "tropical"
    ROUND_S = 9.0
    FIVE_SUBSETS = 60
    SAMPLED_WITNESSES = 8

    def setup(self):
        self.m = datasets.builtin("M")

    def prepare(self, rng: random.Random):
        self.rows = oc.orthogonality(vectors(self.m))
        self.cliques = oc.cliques(self.rows, 8)
        require(len(self.cliques) == M_CLIQUES, "oracle clique count of M")
        self.masks = [mask(c) for c in self.cliques]
        full = (1 << self.m.n) - 1
        t0 = mask(datasets.T0_INDICES)
        self.cover, covered = [], 0
        for c, cm in zip(self.cliques, self.masks):
            if cm & ~t0 == 0 and not cm & covered:
                self.cover.append(c)
                covered |= cm
        require(len(self.cover) == 6 and covered == t0, "T0 cover")
        removable = [
            i for i, cm in enumerate(self.masks)
            if covering_cliques(self.rows, self.masks, full & ~cm)
        ]
        # Overlapping pairs of removable cliques whose removal still
        # covers every orthogonal pair: 52 rays, 184 cliques and 43480
        # disjoint 6-tuples each, of which 19312 are section-free.  The
        # search time differs up to 2.6-fold between pairs with the ray
        # order, so every round removes the first pair.
        removals = [
            self.masks[i] | self.masks[j]
            for i, j in combinations(removable, 2)
            if self.masks[i] & self.masks[j]
            and covering_cliques(self.rows, self.masks, full & ~(self.masks[i] | self.masks[j]))
        ]
        require(len(removable) == 32 and removals, "removable cliques of M")
        removed = removals[0]
        self.keep = [v for v in range(self.m.n) if not (removed >> v) & 1]
        keep_mask = mask(self.keep)
        self.inside = [i for i, cm in enumerate(self.masks) if cm & ~keep_mask == 0]
        tropicals = [mask(t) for t in datasets.TROPICAL_INDEX_SETS]
        self.targets = {t for t in tropicals if t & ~keep_mask == 0}
        # The published tropical sets inside the restriction, their
        # disjoint six-clique covers, and T0's counts on each of them.
        self.expected = set().union(*(oc.covers(self.masks, t, 6) for t in self.targets))
        for t in self.targets:
            require((oc.size_counts(self.rows, t), oc.size_counts(self.rows, t, complement=True))
                    == T0_SIGNATURE, "tropical set signature")

    def round(self, k: int, rng: random.Random, run: Round) -> None:
        m = fresh(self.m)
        for _ in range(self.FIVE_SUBSETS):
            chosen = [self.cliques[i] for i in sorted(rng.sample(range(len(self.cliques)), 5))]
            got = run.call(tropical.admits_anticlique_section, m, chosen)
            if got is None:
                require(oc.section(self.rows, chosen) is None, "5-subset: missed section")
            elif got is not FAILED:
                require(oc.check_section(self.rows, chosen, got), "5-subset: bad section")
        got = run.call(tropical.admits_anticlique_section, m, self.cover)
        if got is not FAILED:
            require(got is None, "T0 cover: section returned")
            require(oc.section(self.rows, self.cover) is None, "T0 cover: oracle section")

        sub = run.call(m.restrict, self.keep)
        if sub is FAILED:
            return
        got = run.call(tropical.tropical_dimension, sub, 6, rng=random.Random(rng.getrandbits(32)))
        if got is FAILED:
            return
        self.check_witnesses(got, rng)

    def check_witnesses(self, got, rng: random.Random) -> None:
        require(got is not None and got[0] == 6, "tropical dimension is not 6")
        inside, expected = self.inside, self.expected
        claimed, unions = [], set()
        for w in got[1]:
            tup = tuple(inside[i] for i in w.clique_indices)
            union = mask(self.keep[v] for v in w.union)
            require(union == mask(v for i in tup for v in self.cliques[i]), "witness union")
            claimed.append(tup)
            unions.add(union)
        require(oc.check_witnesses(claimed, expected), "witnesses differ from the oracle covers")
        # Every target has T0's clique and anticlique counts (``prepare``).
        require(unions <= self.targets, "witness union is not a published tropical set")
        for tup in rng.sample(claimed, min(self.SAMPLED_WITNESSES, len(claimed))):
            require(oc.section(self.rows, [self.cliques[i] for i in tup]) is None,
                    "witness has a section")
        found = 0
        while found < self.SAMPLED_WITNESSES:
            order = rng.sample(inside, len(inside))
            tup, used = [], 0
            for i in order:
                if not self.masks[i] & used:
                    tup.append(i)
                    used |= self.masks[i]
                    if len(tup) == 6:
                        break
            tup = tuple(sorted(tup))
            if len(tup) == 6 and tup not in expected:
                require(oc.section(self.rows, [self.cliques[i] for i in tup]) is not None,
                        "non-witness has no section")
                found += 1


class Reduce:
    """KS tests on deletions and the signature-based critical reduction."""

    name = "reduce"
    ROUND_S = 3.0
    EXTENSIONS = 3
    EXTRA_RAYS = 4

    def setup(self):
        self.t0 = datasets.builtin("T0")
        self.kp40 = datasets.builtin("KP40")

    def prepare(self, rng: random.Random):
        self.t0_rows = oc.orthogonality(vectors(self.t0))
        full = (1 << self.t0.n) - 1
        self.t0_bad = oc.noncolourable_deletions(self.t0_rows, 8, full)
        require(len(self.t0_bad) == T0_FIRST_ROUND, "oracle first-round count of T0")
        n_rays = set(datasets.N_INDICES)
        self.n_pos = [k for k, g in enumerate(datasets.T0_INDICES) if g in n_rays]
        self.extra = [k for k, g in enumerate(datasets.T0_INDICES) if g not in n_rays]
        self.kp_expected = tuple(i for i in range(self.kp40.n) if i not in KP40_EXCLUDED)
        kp_rows = oc.orthogonality(vectors(self.kp40))
        require(oc.is_critical(kp_rows, 8, mask(self.kp_expected)), "KP36 is not critical")
        self.critical: dict[int, bool] = {}

    def is_critical(self, rayset: int) -> bool:
        if rayset not in self.critical:
            self.critical[rayset] = oc.is_critical(self.t0_rows, 8, rayset)
        return self.critical[rayset]

    def round(self, k: int, rng: random.Random, run: Round) -> None:
        t0 = fresh(self.t0)
        bad, failed = [], run.failed
        for v in range(t0.n):
            child = run.call(t0.delete, v)
            if child is not FAILED and run.call(colouring.is_ks_configuration, child) is True:
                bad.append(v)
        if run.failed == failed:
            require(bad == self.t0_bad, "first-round non-colourable deletions of T0")

        report = run.call(colouring.critical_reduce, fresh(self.kp40))
        if report is not FAILED:
            require(report.results == [self.kp_expected], "KP40 does not reduce to KP36")

        for _ in range(self.EXTENSIONS):
            idx = sorted(self.n_pos + rng.sample(self.extra, self.EXTRA_RAYS))
            sub = run.call(t0.restrict, idx)
            report = FAILED if sub is FAILED else run.call(colouring.critical_reduce, sub)
            if report is FAILED:
                continue
            first = oc.noncolourable_deletions(self.t0_rows, 8, mask(idx))
            require(report.iterations[0].survivors == len(first), "first-round survivors")
            require(report.results, "no critical result")
            for r in report.results:
                require(self.is_critical(mask(idx[k] for k in r)), "result is not critical")


class Capacity:
    """Containment capacities of the unions the E8 capacity pipeline forms.

    ``capacity_pipeline()`` calls ``capacity(restrict(u))`` on every union
    of its three stages: 12,600 disjoint clique pairs of A, 10,710
    disjoint W-set pairs of A and 4,900 Q/mirror pairs in B.  A run
    deals each stage's unions, in a seeded order, into ``CYCLE`` rounds,
    so every round takes 1/CYCLE of each stage and ``CYCLE`` rounds make
    the whole pipeline.  The order spreads each capacity value evenly
    over the rounds, so a round has its share of the 12 costly unions
    at capacity 320 to within one.
    """

    name = "capacity"
    ROUND_S = 2.5
    CYCLE = 60

    def setup(self):
        self.a = datasets.builtin("A")
        self.b = datasets.builtin("B")

    def prepare(self, rng: random.Random):
        a_rows = oc.orthogonality(vectors(self.a))
        a_index = oc.CliqueIndex([mask(c) for c in oc.cliques(a_rows, 8)], self.a.n)
        require(a_index.size == A_CAPACITY, "oracle capacity of A")
        cl = a_index.masks
        pairs = PairStage(self.a, cl, cl, combinations(range(len(cl)), 2), a_index)
        w_sets = sorted({u for u, cap in pairs if cap == 4})
        require(len(w_sets) == W_SETS, "oracle W-set count")
        w_pairs = PairStage(self.a, w_sets, w_sets, combinations(range(len(w_sets)), 2), a_index)
        q_sets = sorted({u for u, cap in w_pairs if cap == 24})
        require(len(q_sets) == Q_SETS, "oracle Q-set count")

        b_vecs = vectors(self.b)
        b_at = {v: i for i, v in enumerate(b_vecs)}
        a_vecs = vectors(self.a)
        t = transform_t()
        qs = [mask(b_at[a_vecs[k]] for k in bits(q)) for q in q_sets]
        mirrors = [mask(b_at[canonical_real(apply(t, a_vecs[k]))] for k in bits(q)) for q in q_sets]
        b_index = oc.CliqueIndex([mask(c) for c in oc.cliques(oc.orthogonality(b_vecs), 8)], self.b.n)
        qm = PairStage(self.b, qs, mirrors, product(range(Q_SETS), repeat=2), b_index)
        m_set = mask(b_at[canonical_real(v)] for v in datasets.M_VECTORS)
        top = [u for u, cap in qm if cap == M_CAPACITY]
        require(len(top) == M_CAPACITY_PAIRS and m_set in top, "oracle M-capacity pairs")
        self.stages = [pairs, w_pairs, qm]
        for stage in self.stages:
            stage.spread(rng, self.CYCLE)

    def round(self, k: int, rng: random.Random, run: Round) -> None:
        a, b = fresh(self.a), fresh(self.b)
        cap = run.call(orthograph.capacity, a)
        if cap is not FAILED:
            require(cap == A_CAPACITY, "capacity(A)")
        for stage in self.stages:
            parent = a if stage.parent is self.a else b
            for u, expected in stage.dealt(k % self.CYCLE):
                sub = run.call(parent.restrict, bits(u))
                cap = FAILED if sub is FAILED else run.call(orthograph.capacity, sub)
                if cap is not FAILED:
                    require(cap == expected, "capacity differs from containment count")


class PairStage:
    """One stage of the pipeline: the unions of the disjoint pairs
    ``left[i] | right[j]``, each with its containment capacity in
    ``parent``.  Pairs and capacities are kept in flat arrays, so this
    oracle data stays small next to the program's own peak memory."""

    def __init__(self, parent, left, right, index_pairs, index: oc.CliqueIndex):
        self.parent, self.left, self.right = parent, left, right
        self.i, self.j, self.caps = array("H"), array("H"), array("H")
        for i, j in index_pairs:
            if not left[i] & right[j]:
                self.i.append(i)
                self.j.append(j)
                self.caps.append(index.capacity(left[i] | right[j]))

    def union(self, item: int) -> tuple[int, int]:
        return self.left[self.i[item]] | self.right[self.j[item]], self.caps[item]

    def __iter__(self):
        return (self.union(item) for item in range(len(self.caps)))

    def spread(self, rng: random.Random, rounds: int) -> None:
        """Deal the pairs into ``rounds`` slots in a seeded order that
        spreads every capacity value evenly: the k-th of its n members
        (shuffled) goes to slot floor((k + u) / n * rounds), for one
        random u per value."""
        by_cap: dict[int, list[int]] = {}
        for item, cap in enumerate(self.caps):
            by_cap.setdefault(cap, []).append(item)
        self.slot = array("B", bytes(len(self.caps)))
        for cap in sorted(by_cap):
            group = by_cap[cap]
            rng.shuffle(group)
            u = rng.random()
            for k, item in enumerate(group):
                self.slot[item] = int((k + u) / len(group) * rounds)

    def dealt(self, slot: int):
        """The (union, capacity) pairs dealt to one slot."""
        return (self.union(item) for item, s in enumerate(self.slot) if s == slot)


def transform_t() -> list[list[Fraction]]:
    """T = sum of t s^T / |s|^2 over the published basis assignments."""
    d = 8
    t = [[Fraction(0)] * d for _ in range(d)]
    for src, dst in datasets.TRANSFORM_PAIRS:
        norm = sum(x * x for x in src)
        for i in range(d):
            for j in range(d):
                t[i][j] += Fraction(dst[i] * src[j], norm)
    return t


def apply(t, vec) -> list[Fraction]:
    """T applied to a real vector given as (re, 0) pairs."""
    return [sum(row[j] * vec[j][0] for j in range(len(vec))) for row in t]


def canonical_real(vec) -> tuple[tuple[int, int], ...]:
    """Primitive integer vector with a positive leading entry, as the
    (re, im) pairs of ``vectors``."""
    vals = [Fraction(x) for x in vec]
    den = math.lcm(*(v.denominator for v in vals))
    ints = [int(v * den) for v in vals]
    g = math.gcd(*ints)
    lead = next(x for x in ints if x)
    sign = 1 if lead > 0 else -1
    return tuple((sign * x // g, 0) for x in ints)


class Colour:
    """Partition colourings, the entropy bound and Pauli parity proofs."""

    name = "colour"
    ROUND_S = 30.0
    PARTITIONS = ((7, 1), (6, 2), (5, 3), (4, 4))

    def setup(self):
        self.m = datasets.builtin("M")

    def prepare(self, rng: random.Random):
        self.rows = oc.orthogonality(vectors(self.m))
        self.cliques = oc.cliques(self.rows, 8)
        masks = [mask(c) for c in self.cliques]
        indep = oc.independent_sets(self.rows, (1 << self.m.n) - 1)
        self.ks = oc.ks_colouring(indep, masks)
        self.words = [str(w) for w in pauli.SATURATED_WORDS]
        self.matrices = [oc.word_matrix(w) for w in self.words]
        self.signs: dict[tuple[int, ...], int | None] = {}

    def edge_sign(self, members: tuple[int, ...]) -> int | None:
        if members not in self.signs:
            self.signs[members] = oc.edge_sign([self.matrices[i] for i in members])
        return self.signs[members]

    def round(self, k: int, rng: random.Random, run: Round) -> None:
        m = fresh(self.m)
        for part in self.PARTITIONS:
            col = run.call(colouring.find_partition_colouring, m, part)
            if col is FAILED:
                continue
            if part in ((6, 2), (4, 4)):
                require(col is not None, f"no {part} colouring")
                require(oc.check_partition_colouring(self.cliques, col.values, part),
                        f"bad {part} colouring")
                require(run.call(colouring.verify_partition_colouring, m, col) in (True, FAILED),
                        f"{part} colouring not verified")
            elif part == (7, 1):
                require(col is None and self.ks is None, "M has a KS colouring")
            else:
                # No cheap certificate: nothing independent confirms this.
                require(col is None, f"{part} colouring found")

        rep = run.call(entropy.minimize_entropy, m)
        if rep is not FAILED:
            values = rep.witness.values
            require(oc.check_probability_weight(self.cliques, values), "entropy witness invalid")
            per_clique = {tuple(sorted(values[v] for v in c)) for c in self.cliques}
            require(len(per_clique) == 1, "entropy witness is not equientropic")
            h = oc.clique_entropy(next(iter(per_clique)))
            require(h <= math.log(2) + 1e-12, "entropy bound above log 2")
            require(abs(h - rep.common_entropy) <= 1e-12, "reported entropy differs")

        got = run.call(pauli.mine_parity_proofs, pauli.SATURATED_WORDS)
        if got is FAILED:
            return
        proofs, profiles = got
        require(len(profiles) == DEGREE_PROFILES, "degree profile count")
        seen = set()
        for p in proofs:
            require([str(w) for w in p.vertices] == self.words, "proof vertex order")
            require(oc.check_parity_proof(p.edges, self.edge_sign), "mined proof invalid")
            degree: dict[int, int] = {}
            for members, sign in p.edges:
                if sign < 0:
                    for v in members:
                        degree[v] = degree.get(v, 0) + 1
            counts: dict[int, int] = {}
            for x in degree.values():
                counts[x] = counts.get(x, 0) + 1
            seen.add(tuple(sorted(counts.items())))
            require(run.call(pauli.verify_parity_proof, p) in (True, FAILED), "proof rejected")
        require(sorted(seen) == profiles, "degree profiles differ")


WORKLOADS = {w.name: w for w in (Tropical, Reduce, Capacity, Colour)}
