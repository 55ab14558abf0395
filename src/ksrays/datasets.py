"""Built-in construction of every configuration used in the analysis.

Each built-in has one definition, taken from the object it comes from.
The 64-ray saturated configuration M is stored as a literal vector
table, in the paper's numbering.  Its subconfigurations are index sets
into M, restricted from it: the critical 36-ray set N, and the 32
tropical 48-ray sets, T0 the first of them.  The tropical sets follow a
half-basis rule over the Pauli operator lines whose joint eigenbases
make up M.  KP40 is the union of the joint eigenbases of Mermin's
five-context star, and KP36 is KP40 restricted to all but the four
excluded rays.  Both are derived on first use; the module attributes
T0_INDICES, TROPICAL_INDEX_SETS and KP_VECTORS compute them on access.
The 120-ray E8 configuration and its 64-ray full-support part A are
generated from their shape rules.  B is A followed by T(A), for the
orthogonal map T defined by eight basis assignments: ray k is A's ray k
and ray 64 + k is its image, the layout the capacity pipeline reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import lcm
from operator import mul

from .rays import Configuration, Ray, make_ray
from .orthograph import _bits, _inside_cliques, capacity, clique_masks
from .pauli import OPERATOR_LINES, SATURATED_WORDS, apply_word, joint_eigenrays, word


def _vec(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split())


#: The 64 vectors of the saturated configuration M (indices 0..63).
M_VECTORS = tuple(
    _vec(s)
    for s in (
        "1 -1 -1 -1 -1 -1 -1 1",
        "1 -1 -1 -1 -1 -1 1 -1",
        "1 -1 -1 -1 1 1 -1 1",
        "1 -1 -1 -1 1 1 1 -1",
        "1 -1 -1 1 -1 -1 -1 -1",
        "1 -1 -1 1 -1 -1 1 1",
        "1 -1 -1 1 1 1 -1 -1",
        "1 -1 -1 1 1 1 1 1",
        "1 -1 1 -1 -1 -1 -1 -1",
        "1 -1 1 -1 -1 -1 1 1",
        "1 -1 1 -1 1 1 -1 -1",
        "1 -1 1 -1 1 1 1 1",
        "1 -1 1 1 -1 -1 -1 1",
        "1 -1 1 1 -1 -1 1 -1",
        "1 -1 1 1 1 1 -1 1",
        "1 -1 1 1 1 1 1 -1",
        "1 1 -1 -1 -1 1 -1 1",
        "1 1 -1 -1 -1 1 1 -1",
        "1 1 -1 -1 1 -1 -1 1",
        "1 1 -1 -1 1 -1 1 -1",
        "1 1 -1 1 -1 1 -1 -1",
        "1 1 -1 1 -1 1 1 1",
        "1 1 -1 1 1 -1 -1 -1",
        "1 1 -1 1 1 -1 1 1",
        "1 1 1 -1 -1 1 -1 -1",
        "1 1 1 -1 -1 1 1 1",
        "1 1 1 -1 1 -1 -1 -1",
        "1 1 1 -1 1 -1 1 1",
        "1 1 1 1 -1 1 -1 1",
        "1 1 1 1 -1 1 1 -1",
        "1 1 1 1 1 -1 -1 1",
        "1 1 1 1 1 -1 1 -1",
        "1 -1 -1 1 0 0 0 0",
        "1 -1 -1 -1 0 0 0 0",
        "1 -1 0 0 0 0 -1 1",
        "1 -1 0 0 0 0 -1 -1",
        "1 -1 0 0 0 0 1 1",
        "1 -1 0 0 0 0 1 -1",
        "1 -1 1 1 0 0 0 0",
        "1 -1 1 -1 0 0 0 0",
        "1 1 -1 1 0 0 0 0",
        "1 1 -1 -1 0 0 0 0",
        "1 1 0 0 0 0 -1 1",
        "1 1 0 0 0 0 -1 -1",
        "1 1 0 0 0 0 1 1",
        "1 1 0 0 0 0 1 -1",
        "1 1 1 1 0 0 0 0",
        "1 1 1 -1 0 0 0 0",
        "0 0 1 -1 -1 1 0 0",
        "0 0 1 1 -1 1 0 0",
        "0 0 0 0 1 -1 -1 1",
        "0 0 0 0 1 -1 -1 -1",
        "0 0 0 0 1 -1 1 1",
        "0 0 0 0 1 -1 1 -1",
        "0 0 1 1 1 -1 0 0",
        "0 0 1 -1 1 -1 0 0",
        "0 0 1 -1 -1 -1 0 0",
        "0 0 1 1 -1 -1 0 0",
        "0 0 0 0 1 1 -1 1",
        "0 0 0 0 1 1 -1 -1",
        "0 0 0 0 1 1 1 1",
        "0 0 0 0 1 1 1 -1",
        "0 0 1 1 1 1 0 0",
        "0 0 1 -1 1 1 0 0",
    )
)

#: Index set of the critical 36-ray subconfiguration N of M.
N_INDICES = (
    2, 3, 4, 9, 12, 13, 14, 15, 16, 19, 21, 23, 24, 25, 26, 27, 29, 30,
    32, 33, 34, 37, 39, 40, 41, 43, 46, 48, 51, 52, 55, 58, 59, 60, 61, 62,
)

#: The colour-class index sets of the (6,2) and (4,4) colourings of M.
PARTITION_62_ONES = (
    0, 1, 3, 4, 5, 7, 11, 15, 32, 33, 36, 37, 60, 61, 62, 63,
)
PARTITION_44_ONES = (
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    32, 33, 34, 35, 36, 37, 38, 39, 56, 57, 58, 59, 60, 61, 62, 63,
)

#: Mermin's five-context star, each context closed to its 7 words in
#: the format of pauli.OPERATOR_LINES.  KP40 is the union of their joint
#: eigenbases: the first four each in reverse joint_eigenrays order,
#: then the fifth's eigenrays at the positions of KP_LAST_ORDER.
KP_LINES = (
    "ZII IZI ZZI IIZ ZIZ IZZ ZZZ",
    "XII IXI XXI IIZ XIZ IXZ XXZ",
    "XII IZI XZI IIX XIX IZX XZX",
    "ZII IXI ZXI IIX ZIX IXX ZXX",
    "YYI ZXX XZX YIY IYY XXZ ZZZ",
)
KP_LAST_ORDER = (7, 5, 6, 4, 2, 1, 0, 3)

#: Excluded indices turning the 40-ray set into the critical 36-ray one.
KP_EXCLUDED = (0, 12, 22, 31)

#: Basis assignments defining the orthogonal-up-to-scalar map T.
TRANSFORM_PAIRS = tuple(
    (_vec(src), _vec(dst))
    for src, dst in (
        ("1 -1 -1 -1 -1 -1 -1 1", "1 -1 -1 1 0 0 0 0"),
        ("1 -1 -1 -1 1 1 1 -1", "1 -1 1 -1 0 0 0 0"),
        ("1 -1 1 1 -1 -1 1 -1", "1 1 -1 -1 0 0 0 0"),
        ("1 -1 1 1 1 1 -1 1", "1 1 1 1 0 0 0 0"),
        ("1 1 -1 1 -1 1 -1 -1", "0 0 0 0 1 -1 -1 1"),
        ("1 1 -1 1 1 -1 1 1", "0 0 0 0 1 -1 1 -1"),
        ("1 1 1 -1 -1 1 1 1", "0 0 0 0 1 1 -1 -1"),
        ("1 1 1 -1 1 -1 -1 -1", "0 0 0 0 1 1 1 1"),
    )
)


@dataclass(frozen=True)
class LinearMap:
    """d x d rational matrix, orthogonal up to a positive scalar."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def apply(self, vec) -> list[Fraction]:
        return [
            sum((row[j] * vec[j] for j in range(len(vec))), Fraction(0))
            for row in self.matrix
        ]

    @cached_property
    def _numerators(self) -> tuple[tuple[int, ...], ...]:
        """The matrix times the lcm of its denominators: an integer matrix."""
        den = lcm(*(x.denominator for row in self.matrix for x in row))
        return tuple(tuple(int(x * den) for x in row) for row in self.matrix)

    def apply_ray(self, ray: Ray) -> Ray:
        """The ray of the image; a positive multiple of the matrix maps rays alike."""
        if any(c.im != 0 for c in ray.coords):
            raise ValueError("transform is defined on real vectors only")
        vec = [c.re for c in ray.coords]
        return make_ray([sum(map(mul, row, vec)) for row in self._numerators])

    def gram_scalar(self) -> Fraction:
        """The c with matrix^T matrix = c * identity; raises otherwise."""
        m = self.matrix
        d = len(m)
        c = None
        for i in range(d):
            for j in range(i, d):
                dot = sum((m[k][i] * m[k][j] for k in range(d)), Fraction(0))
                if i == j:
                    if c is None:
                        c = dot
                    elif dot != c:
                        raise ValueError("not orthogonal up to a scalar")
                elif dot != 0:
                    raise ValueError("not orthogonal up to a scalar")
        if c is None or c <= 0:
            raise ValueError("not orthogonal up to a scalar")
        return c


@lru_cache(maxsize=None)
def build_transform_T() -> LinearMap:
    """The unique map sending each source basis vector to its image.

    T = sum_i t_i s_i^T / |s_i|^2, which satisfies T s_i = t_i since the
    sources are mutually orthogonal; verified orthogonal up to a scalar.
    """
    d = 8
    rows = [[Fraction(0)] * d for _ in range(d)]
    for src, dst in TRANSFORM_PAIRS:
        norm = sum(x * x for x in src)
        for i in range(d):
            for j in range(d):
                rows[i][j] += Fraction(dst[i] * src[j], norm)
    t = LinearMap(tuple(tuple(r) for r in rows))
    t.gram_scalar()
    for src, dst in TRANSFORM_PAIRS:
        if t.apply(list(map(Fraction, src))) != list(map(Fraction, dst)):
            raise AssertionError("transform does not satisfy its assignments")
    return t


def _e8_full_support() -> list[Ray]:
    out = []
    for bits in range(1 << 7):
        v = [1] + [(-1 if (bits >> k) & 1 else 1) for k in range(7)]
        if bits.bit_count() % 2 == 0:
            out.append(make_ray(v))
    return out


def _e8_two_support() -> list[Ray]:
    out = []
    for i, j in combinations(range(8), 2):
        for s in (1, -1):
            v = [0] * 8
            v[i] = 1
            v[j] = s
            out.append(make_ray(v))
    return out


@lru_cache(maxsize=None)
def _tropical_index_sets() -> tuple[tuple[int, ...], ...]:
    """The 32 tropical index sets into M, sorted, so T0 comes first.

    Two words lie on four operator lines each, XIZ and XZZ; every other
    word lies on two.  A word's four lines form two pairs that meet only
    in it, and the word splits each line's basis into its +1 and -1
    eigenspaces, half-bases of four rays.  A tropical set is M minus one
    half-basis per pair and per sign, each taken from either line of its
    pair: 2^4 sets per word.
    """
    m = builtin("M")
    at = {r: i for i, r in enumerate(m.rays)}
    full = (1 << m.n) - 1
    sets = []
    for w in SATURATED_WORDS:
        lines = [line for line in OPERATOR_LINES if w in line]
        if len(lines) != 4:
            continue
        # (line, eigenvalue of w) -> that half-basis, as a mask into M
        half = dict.fromkeys(((line, s) for line in lines for s in (1, -1)), 0)
        for line in lines:
            for r in joint_eigenrays(line):
                vec = [c.re for c in r.coords]
                half[line, 1 if apply_word(w, vec) == vec else -1] |= 1 << at[r]
        pairs = [(a, b) for a, b in combinations(lines, 2) if set(a) & set(b) == {w}]
        options = [(half[a, s], half[b, s]) for a, b in pairs for s in (1, -1)]
        for dropped in product(*options):  # four disjoint half-bases
            sets.append(_bits(full ^ sum(dropped)))
    return tuple(sorted(sets))


def _build_kp40() -> Configuration:
    orders = [range(7, -1, -1)] * 4 + [KP_LAST_ORDER]
    rays = []
    for text, order in zip(KP_LINES, orders):
        basis = joint_eigenrays(map(word, text.split()))
        rays += [basis[i] for i in order]
    return Configuration(rays)


def _build_kp36() -> Configuration:
    kp40 = builtin("KP40")
    return kp40.restrict(i for i in range(kp40.n) if i not in KP_EXCLUDED)


def _build_b() -> Configuration:
    """B = A followed by T(A): ray k is A's ray k and ray 64 + k is its
    image T(A[k]).  The constructor's duplicate check makes the two
    halves disjoint; :func:`capacity_pipeline` reads this layout."""
    a = builtin("A").rays
    t = build_transform_T()
    return Configuration(a + tuple(t.apply_ray(r) for r in a))


#: Builder of each built-in configuration, by name.
_BUILDERS = {
    "M": lambda: Configuration([make_ray(v) for v in M_VECTORS]),
    "N": lambda: builtin("M").restrict(N_INDICES),
    "T0": lambda: builtin("M").restrict(_tropical_index_sets()[0]),
    "TROPICALS": lambda: tuple(map(builtin("M").restrict, _tropical_index_sets())),
    "KP40": _build_kp40,
    "KP36": _build_kp36,
    "E8": lambda: Configuration(_e8_full_support() + _e8_two_support()),
    "A": lambda: Configuration(_e8_full_support()),
    "B": _build_b,
}

DATASET_NAMES = tuple(_BUILDERS)


@lru_cache(maxsize=None)
def builtin(name: str):
    """The built-in configuration of a name in DATASET_NAMES, any case;
    TROPICALS is the tuple of the 32 tropical sets."""
    try:
        build = _BUILDERS[name.upper()]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}") from None
    return build()


def __getattr__(name: str):
    """The derived tables, computed on first use (PEP 562): the 32
    tropical index sets, T0's, and KP40's vectors."""
    if name == "TROPICAL_INDEX_SETS":
        return _tropical_index_sets()
    if name == "T0_INDICES":
        return _tropical_index_sets()[0]
    if name == "KP_VECTORS":
        return tuple(tuple(c.re for c in r.coords) for r in builtin("KP40").rays)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- maximal-capacity pipeline -----------------------------------------

@dataclass
class CapacityPipelineReport:
    """Trace of the maximal-capacity search that assembles M from E8."""

    pair_capacities: set[int]  # capacities of disjoint clique-pair unions
    w_sets: list[frozenset[int]]  # 16-ray unions of capacity 4
    w_pair_capacities: set[int]  # capacities of disjoint W-pair unions
    q_sets: list[frozenset[int]]  # 32-ray unions of capacity 24
    q_mirror_sets: list[frozenset[Ray]]  # counterparts inside T(A)
    capacity_a: int
    union_capacity_histogram: dict[int, int]  # over all Q/mirror pairs
    m_capacity: int  # capacity of the pair union recovering the 64-ray set
    m_capacity_pairs: list[tuple[int, int]]  # all (i, j) at that capacity
    m_found: bool  # some union at m_capacity equals the 64-ray set


def capacity_pipeline() -> CapacityPipelineReport:
    """Reproduce the maximal-capacity search from A and T(A) up to M."""
    a = builtin("A")

    def pair_unions(sets: list[int], target: int):
        """Capacities of the disjoint pairs' unions: the d-cliques of A
        inside each; and the unions at target."""
        caps: set[int] = set()
        hits: set[int] = set()
        for s0, s1 in combinations(sets, 2):
            if not s0 & s1:
                cap = _inside_cliques(a, s0 | s1).bit_count()
                caps.add(cap)
                if cap == target:
                    hits.add(s0 | s1)
        return caps, sorted(hits, key=_bits)

    pair_caps, w_masks = pair_unions(clique_masks(a), 4)
    w_pair_caps, q_masks = pair_unions(w_masks, 24)
    w_list = [frozenset(_bits(u)) for u in w_masks]
    q_list = [frozenset(_bits(u)) for u in q_masks]

    cap_a = capacity(a)

    # The pair search runs inside B, where a Q set keeps its mask and its
    # mirror in T(A) is the mask shifted by 64 (see _build_b).
    b = builtin("B")
    q_mirrors = [frozenset(b.rays[a.n + k] for k in q) for q in q_list]
    ray_index = {r: i for i, r in enumerate(b.rays)}
    m_idx = sum(1 << ray_index[r] for r in builtin("M").rays)
    caps: dict[tuple[int, int], int] = {}
    m_pair = None
    for i, qi in enumerate(q_masks):
        for j, qj in enumerate(q_masks):
            union = qi | qj << a.n
            caps[(i, j)] = _inside_cliques(b, union).bit_count()
            if m_pair is None and union == m_idx:
                m_pair = (i, j)
    histogram: dict[int, int] = {}
    for cap in caps.values():
        histogram[cap] = histogram.get(cap, 0) + 1
    # Pairs whose union is a candidate on the same footing as the
    # recovered 64-ray set; the paper's target capacity, not the global
    # maximum of the histogram.
    m_cap = caps[m_pair] if m_pair is not None else max(caps.values())
    m_cap_pairs = sorted(p for p, cap in caps.items() if cap == m_cap)

    return CapacityPipelineReport(
        pair_capacities=pair_caps,
        w_sets=w_list,
        w_pair_capacities=w_pair_caps,
        q_sets=q_list,
        q_mirror_sets=q_mirrors,
        capacity_a=cap_a,
        union_capacity_histogram=dict(sorted(histogram.items())),
        m_capacity=m_cap,
        m_capacity_pairs=m_cap_pairs,
        m_found=m_pair is not None,
    )
