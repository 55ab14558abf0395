"""n-qubit Pauli-word algebra in the real-Y convention, and parity proofs.

Words are tensor products of the real 2x2 matrices I, X, Y = [[0,1],[-1,0]],
Z.  Products of such words stay in +-{words}, so every signed quantity in
this module is an exact integer.  Letter position 0 acts on the least
significant bit of the 2^n-dimensional index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import gcd

from .orthograph import _bits, _gf2_eliminate, _gf2_reduce, _walk_cliques
from .rays import Ray, make_ray

LETTERS = "IXYZ"  # letter codes I=0, X=1, Y=2, Z=3


@dataclass(frozen=True)
class PauliWord:
    """Tensor word over {I, X, Y, Z}; codes[k] is the letter on qubit k."""

    codes: tuple[int, ...]
    #: (x, z) with the word = +Z^z X^x exactly, since Y = ZX; bit k is
    #: qubit k.  Set once at construction: proofs reuse a few words.
    xz: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        x = z = 0
        for k, c in enumerate(self.codes):
            x |= (c in (1, 2)) << k
            z |= (c >= 2) << k
        object.__setattr__(self, "xz", (x, z))

    @property
    def n_qubits(self) -> int:
        return len(self.codes)

    @property
    def index(self) -> int:
        """Encoded index: sum of code_k * 4^k."""
        return sum(c << (2 * k) for k, c in enumerate(self.codes))

    def __str__(self) -> str:
        return "".join(LETTERS[c] for c in self.codes)

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.codes)

    def y_count(self) -> int:
        return sum(1 for c in self.codes if c == 2)


@dataclass(frozen=True)
class SignedWord:
    sign: int
    word: PauliWord

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + str(self.word)


def word(text: str) -> PauliWord:
    """Parse compact notation such as 'IXX'."""
    try:
        return PauliWord(tuple(LETTERS.index(ch) for ch in text.upper()))
    except ValueError as exc:
        raise ValueError(f"bad Pauli word {text!r}") from exc


def word_from_index(alpha: int, n_qubits: int) -> PauliWord:
    return PauliWord(
        tuple((alpha >> (2 * k)) & 3 for k in range(n_qubits))
    )


def _commute(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return not ((a[0] & b[1]) ^ (a[1] & b[0])).bit_count() & 1


def _product_sign(pairs) -> int | None:
    """Sign of the ordered product of Z^z X^x words if it is +-identity:
    moving each X^x_i right past Z^z_j (i < j) flips |x_i & z_j| times."""
    x = z = flips = 0
    for xi, zi in pairs:
        flips += (x & zi).bit_count()
        x ^= xi
        z ^= zi
    return None if x or z else 1 - 2 * (flips & 1)


def _xz_all(words) -> list[tuple[int, int]]:
    if len({len(w.codes) for w in words}) > 1:
        raise ValueError("qubit count mismatch")
    return [w.xz for w in words]


def pauli_mul(a: SignedWord, b: SignedWord) -> SignedWord:
    """Exact signed product: Z^za X^xa Z^zb X^xb = (-1)^|xa & zb| Z^z X^x."""
    (xa, za), (xb, zb) = _xz_all([a.word, b.word])
    sign = a.sign * b.sign * (1 - 2 * ((xa & zb).bit_count() & 1))
    x, z = xa ^ xb, za ^ zb
    codes = tuple(3 * (z >> k & 1) ^ (x >> k & 1) for k in range(a.word.n_qubits))
    return SignedWord(sign, PauliWord(codes))


def commutes(a: PauliWord, b: PauliWord) -> bool:
    """True iff the words anticommute on an even number of positions."""
    pa, pb = _xz_all([a, b])
    return _commute(pa, pb)


def product_sign(words) -> int | None:
    """Sign s if the ordered product of the words is s * identity, else None."""
    return _product_sign(_xz_all(words))


def _parity_tuples(pairs, s: int) -> list[tuple[tuple[int, ...], int]]:
    """(indices, sign) of every index-increasing s-tuple of mutually
    commuting pairs whose product is +-identity, in lexicographic order:
    the s-cliques of the commutation graph."""
    m = len(pairs)
    compat = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if _commute(pairs[i], pairs[j]):
                compat[i] |= 1 << j
    out = []

    def leaf(clique: int) -> None:
        tup = _bits(clique)
        sign = _product_sign([pairs[k] for k in tup])
        if sign is not None:
            out.append((tup, sign))

    _walk_cliques(compat, s, [1 << i for i in range(m)], leaf)
    return out


def enumerate_parity_tuples(n_qubits: int, s: int):
    """All index-increasing s-tuples of distinct non-identity, mutually
    commuting words whose product is +-identity; returns
    [(words, sign), ...] sorted by encoded indices.

    The word table grows as 4**n_qubits and the commutation table as
    16**n_qubits, so n_qubits is limited to 1..4.
    """
    if not 1 <= n_qubits <= 4:
        raise ValueError(f"n_qubits must be in 1..4, got {n_qubits}")
    if s < 1:
        raise ValueError(f"tuple size must be at least 1, got {s}")
    words = [word_from_index(a, n_qubits) for a in range(1, 4**n_qubits)]
    return [
        (tuple(words[k] for k in t), sign)
        for t, sign in _parity_tuples(_xz_all(words), s)
    ]


# --- word action and joint eigenrays ------------------------------------

def apply_word(w: PauliWord, vec: list[int]) -> list[int]:
    """Apply the (real, signed-permutation) word to an integer vector:
    Z^z X^x maps e_j to (-1)^|i & z| e_i with i = j ^ x."""
    if len(vec) != 1 << w.n_qubits:
        raise ValueError("vector length mismatch")
    x, z = w.xz
    out = [0] * len(vec)
    for j, v in enumerate(vec):
        i = j ^ x
        out[i] = -v if (i & z).bit_count() & 1 else v
    return out


def _symplectic_bits(w: PauliWord) -> int:
    x, z = w.xz
    return x | z << w.n_qubits


def _independent_triple(words) -> list[int]:
    """Indices of words forming an F2-independent generating triple."""
    pivots, _ = _gf2_eliminate([_symplectic_bits(w) for w in words])
    chosen = [combo.bit_length() - 1 for _, combo in pivots.values()][:3]
    if len(chosen) < 3:
        raise ValueError("words do not generate a maximal abelian subgroup")
    return chosen


def joint_eigenrays(words) -> list[Ray]:
    """The 8 joint eigenrays of 7 commuting 3-qubit words, exactly.

    Each word must square to +identity (even Y count).  Projectors
    (1 +- W)/2 for three independent generators are applied to standard
    basis vectors.  Their common power of two is divided out before
    make_ray, whose Gaussian gcd would otherwise find it slowly.
    """
    words = list(words)
    if len(words) != 7 or any(w.n_qubits != 3 for w in words):
        raise ValueError("expected 7 three-qubit words")
    for w in words:
        if w.y_count() % 2:
            raise ValueError(f"{w} has odd Y count (squares to -identity)")
    for a, b in combinations(words, 2):
        if not commutes(a, b):
            raise ValueError(f"{a} and {b} do not commute")
    gens = [words[i] for i in _independent_triple(words)]
    dim = 8
    rays = []
    for signs in (
        (s0, s1, s2) for s0 in (1, -1) for s1 in (1, -1) for s2 in (1, -1)
    ):
        vec = None
        for j in range(dim):
            v = [0] * dim
            v[j] = 1
            for g, s in zip(gens, signs):
                gv = apply_word(g, v)
                v = [a + s * b for a, b in zip(v, gv)]
            if any(v):
                vec = v
                break
        if vec is None:
            raise ValueError("empty joint eigenspace; generators inconsistent")
        g = gcd(*vec)
        rays.append(make_ray([a // g for a in vec]))
    rays.sort(key=lambda r: tuple((c.re, c.im) for c in r.coords))
    return rays


# --- parity-proof hypergraphs -------------------------------------------

@dataclass(frozen=True)
class SignedHypergraph:
    """Hypergraph with mutually commuting edges of signed word products."""

    vertices: tuple[PauliWord, ...]
    edges: tuple[tuple[tuple[int, ...], int], ...]  # (vertex indices, sign)


def verify_parity_proof(h: SignedHypergraph) -> bool:
    """Odd number of negative edges and even degree at every vertex.

    Edge signs are recomputed from the word products; a mismatch raises,
    and so do non-commuting members and members that index no vertex.
    One pass per edge checks each member against the members before it,
    folds it into the product as :func:`_product_sign` does, and flips
    its bit in a mask of the odd-degree vertices.
    """
    pairs = _xz_all(h.vertices)
    n = len(pairs)
    odd = negatives = 0
    for members, sign in h.edges:
        x = z = flips = 0
        seen = []
        for i in members:
            if not 0 <= i < n:
                raise ValueError(f"edge member {i} is not a vertex index in 0..{n - 1}")
            pair = xi, zi = pairs[i]
            for xj, zj in seen:
                if ((xj & zi) ^ (zj & xi)).bit_count() & 1:
                    raise ValueError("edge contains non-commuting words")
            seen.append(pair)
            flips += (x & zi).bit_count()
            x ^= xi
            z ^= zi
            odd ^= 1 << i
        true_sign = None if x or z else 1 - 2 * (flips & 1)
        if true_sign is None or true_sign != sign:
            raise ValueError(
                f"edge sign mismatch: recorded {sign}, product gives {true_sign}"
            )
        if sign < 0:
            negatives += 1
    return negatives % 2 == 1 and not odd


def four_edges(vertices) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """(negative, positive) mutually-commuting 4-subsets with product -+1,
    each in lexicographic order."""
    edges = _parity_tuples(_xz_all(vertices), 4)
    return [t for t, s in edges if s < 0], [t for t, s in edges if s > 0]


def mine_parity_proofs(vertices):
    """All single-positive-edge parity proofs over the vertex set.

    A proof is an odd set of negative 4-edges whose odd-degree vertices
    form a positive 4-edge: a GF(2) system in the edges' vertex masks,
    each with an odd-size bit.  Its solutions, a particular one plus the
    kernel's span, come in the Gray-code order of their subsets.
    Returns (proofs, profiles) where each proof is a SignedHypergraph and
    profiles is the sorted set of distinct {n_k} degree profiles (n_k =
    vertices in exactly k negative edges, reported as a sorted tuple of
    (k, n_k) for k >= 1).
    """
    vertices = tuple(vertices)
    neg, pos = four_edges(vertices)
    odd = 1 << len(vertices)
    pivots, kernel = _gf2_eliminate([odd | sum(1 << i for i in c) for c in neg])

    hits: list[tuple[int, int, tuple[int, ...]]] = []
    for odd_vs in pos:
        rest, first = _gf2_reduce(pivots, odd | sum(1 << i for i in odd_vs))
        subsets = [] if rest else [first]
        for k in kernel:
            subsets += [s ^ k for s in subsets]
        for subset in subsets:
            rank, g = subset, subset >> 1
            while g:  # inverse Gray code: the prefix XOR of the subset
                rank, g = rank ^ g, g >> 1
            hits.append((rank, subset, odd_vs))
    hits.sort()

    proofs = []
    profiles = set()
    for _, subset, odd_vs in hits:
        chosen = [neg[i] for i in _bits(subset)]
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


#: The eight commuting 7-tuples whose joint eigenrays assemble the
#: 64-ray saturated configuration.
OPERATOR_LINES = tuple(
    tuple(word(t) for t in line.split())
    for line in (
        "XII IXI XXI IIZ XIZ IXZ XXZ",
        "XII IXX XXX IYY XYY IZZ XZZ",
        "IXI ZIX ZXX YIY YXY XIZ XXZ",
        "XXI YYX ZZX ZYY YZY XIZ IXZ",
        "ZXI YYI XZI IIZ ZXZ YYZ XZZ",
        "ZXI ZIX IXX XYY YZY YYZ XZZ",
        "YYI XXX ZZX YIY IYY ZXZ XZZ",
        "XZI ZXX YYX YXY ZYY XIZ IZZ",
    )
)

#: The 26 distinct words of OPERATOR_LINES, in increasing index order.
SATURATED_WORDS = tuple(
    sorted({w for line in OPERATOR_LINES for w in line}, key=lambda w: w.index)
)

#: The eight-edge hypergraph proof over 15 of the 26 words: seven
#: negative 4-edges and one positive.
PROOF_LINES = (
    ("IXI ZIX YXY XIZ", -1),
    ("IXI ZXX YIY XIZ", -1),
    ("ZXI YYI IIZ XZZ", -1),
    ("ZXI XZI IIZ YYZ", -1),
    ("YYI XXX YIY XZZ", -1),
    ("XZI ZXX YXY IZZ", -1),
    ("ZIX IXX YYZ XZZ", -1),
    ("IXX XXX IZZ XZZ", 1),
)


def eight_edge_proof() -> SignedHypergraph:
    """The explicit 8-edge parity proof on 15 vertices."""
    vertex_words: list[PauliWord] = []
    index: dict[str, int] = {}
    edges = []
    for text, sign in PROOF_LINES:
        members = []
        for t in text.split():
            if t not in index:
                index[t] = len(vertex_words)
                vertex_words.append(word(t))
            members.append(index[t])
        edges.append((tuple(members), sign))
    return SignedHypergraph(tuple(vertex_words), tuple(edges))
