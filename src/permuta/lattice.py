"""Lattice geometry: sites of Z^d, torus wrapping, shifts, canonical site order.

Sites are plain integer tuples.  A lattice is either a rectangular torus with
side lengths ``dims`` or the unbounded lattice Z^d.  The canonical site order
used everywhere (bit-packing, generator rows, tie-breaking) is lexicographic
on coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

Site = Tuple[int, ...]

_SUPPORTED_DIMS = (1, 2, 3)


@dataclass(frozen=True)
class Lattice:
    """Torus (``dims`` set) or unbounded (``dims is None``) lattice of dimension d."""

    dimension: int
    dims: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.dimension not in _SUPPORTED_DIMS:
            raise ValueError(f"dimension must be one of {_SUPPORTED_DIMS}, got {self.dimension}")
        if self.dims is not None:
            if len(self.dims) != self.dimension:
                raise ValueError("dims length must equal dimension")
            if any(L < 2 for L in self.dims):
                raise ValueError("torus sides must be >= 2")

    @classmethod
    def torus(cls, dims: Iterable[int]) -> "Lattice":
        dims = tuple(int(L) for L in dims)
        return cls(dimension=len(dims), dims=dims)

    @classmethod
    def unbounded(cls, dimension: int) -> "Lattice":
        return cls(dimension=dimension, dims=None)

    @property
    def is_torus(self) -> bool:
        return self.dims is not None

    @property
    def n_sites(self) -> int:
        if self.dims is None:
            raise ValueError("unbounded lattice has no finite site count")
        out = 1
        for L in self.dims:
            out *= L
        return out

    def wrap(self, x: Site) -> Site:
        """Reduce a site componentwise into the torus; identity on the unbounded lattice."""
        if self.dims is None:
            return tuple(x)
        return tuple(c % L for c, L in zip(x, self.dims))

    def shift(self, x: Site, v: Site) -> Site:
        """x + v, wrapped componentwise on a torus, exact on the unbounded lattice."""
        return self.wrap(tuple(a + b for a, b in zip(x, v)))

    def sites(self) -> list[Site]:
        """All torus sites in the canonical (lexicographic) order."""
        if self.dims is None:
            raise ValueError("sites() requires torus mode")
        return list(itertools.product(*(range(L) for L in self.dims)))

    def index(self, x: Site) -> int:
        """Position of a torus site in the canonical order (row-major ravel)."""
        if self.dims is None:
            raise ValueError("index() requires torus mode")
        idx = 0
        for c, L in zip(x, self.dims):
            if not 0 <= c < L:
                raise ValueError(f"site {x} outside torus {self.dims}")
            idx = idx * L + c
        return idx

    def site_at(self, idx: int) -> Site:
        """Inverse of :meth:`index`."""
        if self.dims is None:
            raise ValueError("site_at() requires torus mode")
        coords = []
        for L in reversed(self.dims):
            coords.append(idx % L)
            idx //= L
        return tuple(reversed(coords))


def unwrap_range(sites_in: Iterable[Site], lat: Lattice) -> dict[Site, Site]:
    """Map each site of a wrapped torus range to unwrapped Z^d coordinates.

    Per dimension the coordinate set occupies a circular window shorter than
    half the torus side (guaranteed by the torus-size constraint), so the cut
    through the largest empty arc is unique and the unwrapped shape is well
    defined.  On the unbounded lattice this is the identity.
    """
    pts = list(sites_in)
    if lat.dims is None:
        return {p: p for p in pts}
    starts = []
    for axis, L in enumerate(lat.dims):
        vals = sorted({p[axis] for p in pts})
        if len(vals) == 1:
            starts.append(vals[0])
            continue
        # largest circular gap between consecutive occupied coordinates
        best_gap, start = -1, vals[0]
        for i, v in enumerate(vals):
            nxt = vals[(i + 1) % len(vals)]
            gap = (nxt - v) % L
            if gap > best_gap:
                best_gap, start = gap, nxt
        starts.append(start)
    out = {}
    for p in pts:
        out[p] = tuple(s + ((c - s) % L) for c, s, L in zip(p, starts, lat.dims))
    return out
