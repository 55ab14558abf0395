"""Exact projective arithmetic for rays with Gaussian-integer coordinates.

All arithmetic in this module is over the Gaussian integers; there is no
floating point anywhere.  A Ray is a canonical representative of a
one-dimensional subspace of C^d, and a Configuration is an immutable,
ordered collection of distinct rays together with the bitset adjacency of
its orthogonality graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
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
    """Coerce an int, complex with integral parts, or GaussianInt."""
    if isinstance(value, GaussianInt):
        return value
    if isinstance(value, int):
        return GaussianInt(value, 0)
    if isinstance(value, complex):
        re, im = value.real, value.imag
        if re != int(re) or im != int(im):
            raise ValueError(f"non-integral complex coordinate {value!r}")
        return GaussianInt(int(re), int(im))
    raise TypeError(f"cannot interpret {value!r} as a Gaussian integer")


@dataclass(frozen=True)
class Ray:
    """Canonical projective representative of a one-dimensional subspace.

    The first nonzero coordinate of the canonical form is positive real
    whenever some unit multiple achieves that (always the case for
    coordinates in {0, +-1, +-i}); ties are broken towards a nonnegative
    imaginary part.  Construct through :func:`make_ray`.
    """

    coords: tuple[GaussianInt, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        return "Ray(" + " ".join(repr(c) for c in self.coords) + ")"


def make_ray(coords: Iterable) -> Ray:
    """Build the canonical Ray spanned by the given coordinate vector.

    Any two vectors differing by a unit factor map to the same Ray.
    Raises ValueError on the zero vector.
    """
    cs = tuple(gi(c) for c in coords)
    if not cs:
        raise ValueError("empty coordinate vector")
    lead = next((c for c in cs if not c.is_zero()), None)
    if lead is None:
        raise ValueError("zero vector is not a ray")
    # Pick the unit multiple whose leading entry has re > 0 and, among
    # those, im >= 0 with im == 0 preferred.  For leading entries that are
    # unit multiples of a positive integer this makes the lead real.
    best = None
    best_key = None
    for u in UNITS:
        lu = u * lead
        if lu.re <= 0:
            continue
        # The final component resolves re == |im| ties towards im > 0,
        # keeping the choice a function of the orbit alone.
        key = (0 if lu.im == 0 else 1, abs(lu.im), 0 if lu.im > 0 else 1)
        if best_key is None or key < best_key:
            best, best_key = u, key
    assert best is not None  # some rotation of a nonzero entry has re > 0
    if best != GI_ONE:
        cs = tuple(best * c for c in cs)
    return Ray(cs)


def scaled_ray(numerators: Sequence, denominators_cleared: bool = True) -> Ray:
    """Build a Ray from rational coordinates by clearing denominators.

    Accepts Fractions or ints; divides out the integer content before
    canonicalizing.
    """
    from fractions import Fraction

    fracs = [Fraction(x) for x in numerators]
    if all(f == 0 for f in fracs):
        raise ValueError("zero vector is not a ray")
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    return make_ray(ints)


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


class Configuration:
    """Immutable ray set with precomputed orthogonality adjacency.

    Adjacency rows are stored as Python-int bitsets; row i has bit j set
    iff ray i is orthogonal to ray j.  Ray order is the construction
    order and is deterministic.
    """

    __slots__ = ("rays", "dim", "n", "adj", "_signature", "_cliques")

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
                    f"duplicate ray at positions {seen[r]} and {i}: {r!r}"
                )
            seen[r] = i
        n = len(rays)
        if adj is None:
            rows = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if orthogonal(rays[i], rays[j]):
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            adj = rows
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "_signature", None)
        object.__setattr__(self, "_cliques", None)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return isinstance(other, Configuration) and self.rays == other.rays

    def __hash__(self) -> int:
        return hash(self.rays)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def restrict(self, indices: Iterable[int]) -> "Configuration":
        """Subconfiguration on the given ray indices, in sorted order.

        The child is built without re-validation: its adjacency rows and
        d-clique masks are the parent's, compressed to the kept indices.
        The d-cliques of an induced subgraph are exactly the parent's
        d-cliques inside it, and the compression keeps their order.
        """
        from .orthograph import clique_masks

        idx = sorted(set(indices))
        keep = sum(1 << i for i in idx)
        runs = _runs(keep)
        child = object.__new__(Configuration)
        put = object.__setattr__
        put(child, "rays", tuple(self.rays[i] for i in idx))
        put(child, "dim", self.dim if idx else 0)
        put(child, "n", len(idx))
        put(child, "adj", _compress([self.adj[i] for i in idx], runs))
        put(child, "_signature", None)
        put(child, "_cliques", _compress(
            [c for c in clique_masks(self) if c & keep == c], runs
        ))
        return child

    def delete(self, index: int) -> "Configuration":
        return self.restrict(i for i in range(self.n) if i != index)


def _runs(keep: int) -> list[tuple[int, int, int]]:
    """Maximal runs of set bits as (low bit, width mask, packed offset)."""
    runs = []
    dest = 0
    while keep:
        lo = (keep & -keep).bit_length() - 1
        run = keep >> lo
        width = (~run & (run + 1)).bit_length() - 1  # trailing ones of run
        mask = (1 << width) - 1
        runs.append((lo, mask, dest))
        dest += width
        keep ^= mask << lo
    return runs


def _compress(words: list[int], runs) -> tuple[int, ...]:
    """Each word's bits inside the runs, packed to the low end in order."""
    out = []
    for w in words:
        x = 0
        for lo, width, dest in runs:
            x |= (w >> lo & width) << dest
        out.append(x)
    return tuple(out)


def build_configuration(rays: Sequence[Ray]) -> Configuration:
    """Assemble a Configuration, rejecting duplicates and mixed dimensions."""
    return Configuration(rays)


# --- vector file format -------------------------------------------------

def _format_coord(c: GaussianInt) -> str:
    if c.im == 0:
        return str(c.re)
    return f"{c.re}{c.im:+d}j"


def _parse_coord(token: str) -> GaussianInt:
    if "j" in token or "J" in token:
        try:
            z = complex(token)
        except ValueError as exc:
            raise ValueError(f"bad coordinate token {token!r}") from exc
        return gi(z)
    try:
        return GaussianInt(int(token), 0)
    except ValueError as exc:
        raise ValueError(f"bad coordinate token {token!r}") from exc


def dump_vectors(config: Configuration) -> str:
    """Serialize as n*d whitespace-separated coordinate tokens."""
    tokens = [
        _format_coord(c) for ray in config.rays for c in ray.coords
    ]
    lines = []
    d = config.dim
    for i in range(config.n):
        lines.append(" ".join(tokens[i * d : (i + 1) * d]))
    return "\n".join(lines) + "\n"


def load_vectors(text: str, dim: int, count: int | None = None) -> Configuration:
    """Parse the flat vector format: count*dim integers, row-major."""
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
    rays = []
    for i in range(count):
        coords = [_parse_coord(t) for t in tokens[i * dim : (i + 1) * dim]]
        rays.append(make_ray(coords))
    return build_configuration(rays)
