"""Exact projective arithmetic for rays with Gaussian-integer coordinates.

All ray arithmetic in this module is over the Gaussian integers; the
only floats are the file reader's, for complex tokens written in float
syntax, which it reads exactly below 2**53.  A Ray is a canonical
representative of a one-dimensional subspace of C^d, and a Configuration
is an immutable, ordered collection of distinct rays together with the
bitset adjacency of its orthogonality graph.

A Configuration computes that adjacency from plain-int dot products of
its rays' real and imaginary parts, never from GaussianInt objects:
:func:`inner_product` and :func:`orthogonal` are the reference that the
tests hold those rows to.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from itertools import compress, islice, repeat
from fractions import Fraction
from math import lcm
from operator import mul
from struct import Struct
from typing import Iterable, Sequence


@dataclass(frozen=True)
class GaussianInt:
    """A Gaussian integer re + im*i."""

    re: int
    im: int

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def conjugate(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{self.im:+d}j"


GI_ZERO = GaussianInt(0, 0)
GI_ONE = GaussianInt(1, 0)

#: The four units of the Gaussian integers.
UNITS = (
    GaussianInt(1, 0),
    GaussianInt(-1, 0),
    GaussianInt(0, 1),
    GaussianInt(0, -1),
)


def gi(value) -> GaussianInt:
    """Coerce an int, integral Fraction, integral complex or GaussianInt."""
    if isinstance(value, GaussianInt):
        return value
    if isinstance(value, (int, Fraction)):
        if value.denominator != 1:
            raise ValueError(f"non-integral coordinate {value!r}")
        return GaussianInt(int(value), 0)
    if isinstance(value, complex):
        re, im = value.real, value.imag
        if re != int(re) or im != int(im):
            raise ValueError(f"non-integral complex coordinate {value!r}")
        return GaussianInt(int(re), int(im))
    raise TypeError(f"cannot interpret {value!r} as a Gaussian integer")


@dataclass(frozen=True)
class Ray:
    """Canonical representative of a one-dimensional subspace of C^d.

    The coordinates are Gaussian integers with no common factor other
    than a unit, and the first nonzero one has argument in (-pi/4, pi/4].
    A subspace spanned by a Gaussian-integer vector has exactly one such
    vector, so two Rays are equal iff they span the same subspace.
    Construct through :func:`make_ray`.
    """

    coords: tuple[GaussianInt, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        return "Ray(" + " ".join(repr(c) for c in self.coords) + ")"


def _gcd(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    """A gcd of a and b in Z[i]: Euclid's algorithm with rounded quotients."""
    while not b.is_zero():
        n = b.re * b.re + b.im * b.im
        p = a * b.conjugate()
        q = GaussianInt((2 * p.re + n) // (2 * n), (2 * p.im + n) // (2 * n))
        a, b = b, a - q * b
    return a


def make_ray(coords: Iterable) -> Ray:
    """The Ray spanned by a vector of Gaussian-integer or rational coordinates.

    Denominators are cleared, the Gaussian-integer content is divided
    out and a unit fixes the leading entry, so any two vectors spanning
    one subspace map to the same Ray.  Raises ValueError on the zero
    vector.
    """
    coords = tuple(coords)
    den = lcm(*(c.denominator for c in coords if isinstance(c, Fraction)))
    if den > 1:  # scaling by den makes every coordinate integral
        scale = GaussianInt(den, 0)
        coords = [c * den if isinstance(c, Fraction) else gi(c) * scale for c in coords]
    cs = tuple(map(gi, coords))
    if not cs:
        raise ValueError("empty coordinate vector")
    lead = next((c for c in cs if not c.is_zero()), None)
    if lead is None:
        raise ValueError("zero vector is not a ray")
    # The content g, stopping once it is a unit: cs / g is primitive.
    g = lead
    for c in cs:
        if g.re * g.re + g.im * g.im == 1:
            break
        g = _gcd(c, g)
    # Of the four unit multiples of cs / g, keep the one whose leading
    # entry has argument in (-pi/4, pi/4]: m = u * conj(g) = u * |g|^2 / g.
    for u in UNITS:
        m = u * g.conjugate()
        top = m * lead
        if -top.re < top.im <= top.re:
            break
    if m != GI_ONE:
        n = g.re * g.re + g.im * g.im
        cs = tuple(GaussianInt(p.re // n, p.im // n) for p in (m * c for c in cs))
    return Ray(cs)


def inner_product(x: Ray, y: Ray) -> GaussianInt:
    """Hermitian inner product <x, y> = sum of conj(x_k) * y_k, exactly."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    acc = GI_ZERO
    for a, b in zip(x.coords, y.coords):
        acc = acc + a.conjugate() * b
    return acc


def orthogonal(x: Ray, y: Ray) -> bool:
    return inner_product(x, y).is_zero()


def _orthogonality_rows(rays: Sequence[Ray]) -> list[int]:
    """Bitset rows of the orthogonality graph of rays of one dimension.

    For x = a + ib and y = p + iq, <x, y> = (a.p + b.q) + i(a.q - b.p).
    So with u = (a, b) and w = (-b, a) for x, and u' = (p, q) for y, the
    rays are orthogonal iff u.u' = 0 and w.u' = 0: plain-int dot
    products, exact at any size, that agree with :func:`orthogonal`.
    """
    us = [tuple(c.re for c in r.coords) + tuple(c.im for c in r.coords) for r in rays]
    ws = [tuple(-c.im for c in r.coords) + tuple(c.re for c in r.coords) for r in rays]
    rows = [0] * len(us)
    for i, (u, w) in enumerate(zip(us, ws)):
        for j in range(i + 1, len(us)):
            y = us[j]
            if not sum(map(mul, u, y)) and not sum(map(mul, w, y)):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


class Configuration:
    """Immutable ray set with precomputed orthogonality adjacency.

    Adjacency rows are stored as Python-int bitsets; row i has bit j set
    iff ray i is orthogonal to ray j.  Unless given as ``adj``, they
    come from the plain-int dot products of :func:`_orthogonality_rows`;
    :func:`orthogonal` is the reference.  Ray order is the construction
    order and is deterministic.
    """

    __slots__ = ("rays", "dim", "n", "adj", "_signature", "_cliques", "_incidence")

    def __init__(self, rays: Sequence[Ray], adj: Sequence[int] | None = None):
        rays = tuple(rays)
        if rays:
            d = rays[0].dim
            for r in rays:
                if r.dim != d:
                    raise ValueError("mixed ray dimensions")
        else:
            d = 0
        seen: dict[Ray, int] = {}
        for i, r in enumerate(rays):
            if r in seen:
                raise ValueError(
                    f"rows {seen[r]} and {i} (counting from 0) are parallel "
                    f"vectors, so they are one ray: duplicate {r!r}"
                )
            seen[r] = i
        n = len(rays)
        if adj is None:
            adj = _orthogonality_rows(rays)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "_signature", None)
        object.__setattr__(self, "_cliques", None)
        object.__setattr__(self, "_incidence", None)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return isinstance(other, Configuration) and self.rays == other.rays

    def __hash__(self) -> int:
        return hash(self.rays)

    def restrict(self, indices: Iterable[int]) -> "Configuration":
        """Subconfiguration on the given ray indices, in sorted order.

        The child is built without re-validation: its adjacency rows and
        d-clique masks are the parent's, compressed to the kept indices.
        The d-cliques of an induced subgraph are exactly the parent's
        d-cliques through none of the dropped rays, and the compression
        keeps their order.  Raises ValueError on an index outside 0..n-1.
        """
        from .orthograph import _inside_cliques, clique_masks

        idx = sorted(set(indices))
        if idx and (idx[0] < 0 or idx[-1] >= self.n):
            bad = idx[0] if idx[0] < 0 else idx[-1]
            raise ValueError(f"ray index {bad} out of range for {self.n} rays")
        keep = sum(1 << i for i in idx)
        masks = clique_masks(self)
        words = [self.adj[i] for i in idx]
        words += compress(masks, _bit_flags(_inside_cliques(self, keep), len(masks)))
        packed = _compress(words, keep, self.n)
        child = object.__new__(Configuration)
        put = object.__setattr__
        put(child, "rays", tuple(self.rays[i] for i in idx))
        put(child, "dim", self.dim if idx else 0)
        put(child, "n", len(idx))
        put(child, "adj", packed[: len(idx)])
        put(child, "_signature", None)
        put(child, "_cliques", packed[len(idx):])
        put(child, "_incidence", None)
        return child

    def delete(self, index: int) -> "Configuration":
        """Subconfiguration without ray `index`; ValueError if out of range."""
        if not 0 <= index < self.n:
            raise ValueError(f"ray index {index} out of range for {self.n} rays")
        return self.restrict(i for i in range(self.n) if i != index)


_LIMB = array("Q").itemsize  # bytes in one 64-bit limb

#: Maps the digits b"0" and b"1" to the bytes 0 and 1.
_DIGIT_VALUE = bytes.maketrans(b"01", b"\0\1")


def _bit_flags(mask: int, width: int) -> bytes:
    """One byte per bit of mask below width, lowest first: 1 if set, else 0."""
    low = mask & ((1 << width) - 1)
    return bin(low | 1 << width)[:2:-1].encode().translate(_DIGIT_VALUE)


def _compress(words: list[int], keep: int, n: int) -> tuple[int, ...]:
    """Each word's bits at the set bits of keep, packed to the low end in order.

    The words, all below 2**n, lie side by side in strides of whole
    limbs of one integer.  Step i of the log-step compress of Hacker's
    Delight, section 7-4, moves every kept bit whose count of dropped
    bits below it has bit i set down by 2**i, in every stride at once;
    a step that moves nothing is skipped, so a single delete is one step.
    """
    count = len(words)
    size = _LIMB * max(1, -(-n // (8 * _LIMB)))  # stride in bytes
    order = sys.byteorder
    if size == _LIMB:
        big = int.from_bytes(array("Q", words), order)
    else:
        big = int.from_bytes(b"".join([w.to_bytes(size, order) for w in words]), order)
    # One set bit at the bottom of every stride.
    rep = int.from_bytes((b"\1" + bytes(size - 1)) * count, "little")
    full = (1 << n) - 1
    big &= keep * rep
    # mk starts with one bit above each dropped bit.  At step i, the XOR
    # of mk's bits at or below p (mp) is bit i of the number of dropped
    # bits below p.
    mk = (~keep << 1) & full
    shift = 1
    while mk:
        mp = mk ^ (mk << 1)
        span = 2
        while span < n:
            mp ^= mp << span
            span <<= 1
        mp &= full
        move = mp & keep
        if move:
            keep = keep ^ move | move >> shift
            t = big & (move * rep)
            big = big ^ t | t >> shift
        mk &= ~mp
        shift <<= 1
    data = big.to_bytes(size * count, order)
    if size == _LIMB:
        return tuple(array("Q", data))
    # The Struct cuts data into one chunk per word without a Python loop.
    chunks = Struct(f"{size}s" * count).unpack(data)
    return tuple(map(int.from_bytes, chunks, repeat(order)))


# --- vector file format -------------------------------------------------

#: Integer-literal Gaussian tokens: "bj", "a+bj", "a-bj", optionally in
#: parentheses.  These parse exactly through int().
_GAUSSIAN_TOKEN = re.compile(
    r"(?P<open>\()?(?P<re>[+-]?[0-9]+)?(?P<im>(?(re)[+-]|[+-]?)[0-9]+)[jJ](?(open)\))"
)


def _parse_coord(token: str) -> GaussianInt:
    # int() and complex() also take "1_0" and non-ASCII digits, and
    # complex() gives inf or nan, which gi() cannot convert.  Any other
    # complex syntax ("1e2j", "1.0j", "j") goes through complex(), a
    # float, which is exact only for parts of magnitude below 2**53.
    try:
        if not token.isascii() or "_" in token:
            raise ValueError("not an ASCII number without underscores")
        if "j" not in token and "J" not in token:
            return GaussianInt(int(token), 0)
        m = _GAUSSIAN_TOKEN.fullmatch(token)
        if m:
            return GaussianInt(int(m["re"] or 0), int(m["im"]))
        z = complex(token)
        if not (abs(z.real) < 2**53 and abs(z.imag) < 2**53):
            raise ValueError("complex part too large to read exactly")
        return gi(z)
    except ValueError as exc:
        raise ValueError(f"bad coordinate token {token!r}") from exc


def dump_vectors(config: Configuration) -> str:
    """Serialize as n*d whitespace-separated coordinate tokens, d a line."""
    lines = [" ".join(map(repr, ray.coords)) for ray in config.rays]
    return "\n".join(lines) + "\n"


def load_vectors(text: str, dim: int, count: int | None = None) -> Configuration:
    """Parse the flat vector format: count*dim integers, row-major.

    Raises ValueError unless dim >= 1 and count, when given, is >= 0,
    and on a bad token, naming its line and column.
    """
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if count is not None and count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    tokens = text.split()
    if count is None:
        if len(tokens) % dim != 0:
            raise ValueError(
                f"token count {len(tokens)} is not a multiple of dim {dim}"
            )
        count = len(tokens) // dim
    if len(tokens) != count * dim:
        raise ValueError(
            f"expected {count * dim} coordinates, found {len(tokens)}"
        )
    coords = []
    for k, token in enumerate(tokens):
        try:
            coords.append(_parse_coord(token))
        except ValueError as exc:
            raise ValueError(f"{exc} ({_token_position(text, k)})") from exc
    rays = [make_ray(coords[i * dim : (i + 1) * dim]) for i in range(count)]
    return Configuration(rays)


def _token_position(text: str, k: int) -> str:
    """Line and column, from 1, of the k-th whitespace-separated token."""
    start = next(islice(re.finditer(r"\S+", text), k, None)).start()
    # The token's first character is no line break, so the last line of
    # the head ends with it.
    head = text[: start + 1].splitlines()
    return f"line {len(head)}, column {len(head[-1])}"
