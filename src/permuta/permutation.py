"""Finite permutations of lattice sites and the combinatorics the couplings need.

A :class:`FinitePermutation` stores only its displaced sites, in cycle form.
The module provides the group operations, derangement counts with two
independent formulas, enumeration of cyclic permutations of a range in a
canonical shift-covariant order, and the two sigma selection rules used by
the coupling engines.

Words on a range are bit tuples aligned with :func:`canonical_range_order`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

from .errors import NoCover
from .lattice import Lattice, Site, unwrap_range

Cycle = Tuple[Site, ...]
Word = Tuple[int, ...]


def _canonical_cycles(cycles: Iterable[Iterable[Site]]) -> Tuple[Cycle, ...]:
    seen: set[Site] = set()
    canon: list[Cycle] = []
    for cyc in cycles:
        cyc = tuple(tuple(int(c) for c in s) for s in cyc)
        if len(cyc) < 2:
            raise ValueError("cycles must have length >= 2 (fixed points are not stored)")
        if len(set(cyc)) != len(cyc):
            raise ValueError(f"repeated site within cycle {cyc}")
        if seen & set(cyc):
            raise ValueError("cycles must be pairwise disjoint")
        seen |= set(cyc)
        k = cyc.index(min(cyc))
        canon.append(cyc[k:] + cyc[:k])
    canon.sort(key=lambda c: c[0])
    return tuple(canon)


@dataclass(frozen=True)
class FinitePermutation:
    """Permutation given by disjoint cycles; cycle (x1 x2 .. xk) maps x1->x2, .., xk->x1."""

    cycles: Tuple[Cycle, ...]
    _map: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycles", _canonical_cycles(self.cycles))
        m = {}
        for cyc in self.cycles:
            for i, s in enumerate(cyc):
                m[s] = cyc[(i + 1) % len(cyc)]
        object.__setattr__(self, "_map", m)

    @classmethod
    def from_mapping(cls, mapping: dict[Site, Site]) -> "FinitePermutation":
        """Build from a site map, dropping fixed points; must be a bijection."""
        moved = {x: y for x, y in mapping.items() if x != y}
        if len(set(moved.values())) != len(moved) or set(moved) != set(moved.values()):
            raise ValueError("mapping is not a permutation of its displaced sites")
        cycles, seen = [], set()
        for x in moved:
            if x in seen:
                continue
            cyc, y = [x], moved[x]
            while y != x:
                cyc.append(y)
                y = moved[y]
            seen |= set(cyc)
            cycles.append(tuple(cyc))
        return cls(tuple(cycles))

    @property
    def range_sites(self) -> frozenset:
        return frozenset(self._map)

    def __call__(self, x: Site) -> Site:
        return self._map.get(x, x)

    def preimage(self, x: Site) -> Site:
        for cyc in self.cycles:
            if x in cyc:
                return cyc[cyc.index(x) - 1]
        return x

    def shifted(self, v: Site, lat: Lattice) -> "FinitePermutation":
        """Translate every site by v, wrapping on a torus."""
        return FinitePermutation(
            tuple(tuple(lat.shift(s, v) for s in cyc) for cyc in self.cycles)
        )

    def is_identity(self) -> bool:
        return not self.cycles


IDENTITY = FinitePermutation(())


def apply(sigma: FinitePermutation, eta):
    """Configuration after the permutation: new(x) = old(sigma^-1(x)).

    ``eta`` is any object with ``occupied(site)`` and ``with_occupancy(mapping)``
    (see process.Configuration); occupancies outside Range(sigma) are unchanged.
    """
    updates = {x: eta.occupied(sigma.preimage(x)) for x in sigma.range_sites}
    return eta.with_occupancy(updates)


def inverse(sigma: FinitePermutation) -> FinitePermutation:
    return FinitePermutation(tuple(tuple(reversed(cyc)) for cyc in sigma.cycles))


def compose(sigma1: FinitePermutation, sigma2: FinitePermutation) -> FinitePermutation:
    """sigma1 after sigma2: x -> sigma1(sigma2(x))."""
    support = sigma1.range_sites | sigma2.range_sites
    return FinitePermutation.from_mapping({x: sigma1(sigma2(x)) for x in support})

def order(sigma: FinitePermutation) -> int:
    return math.lcm(*(len(c) for c in sigma.cycles)) if sigma.cycles else 1


def power(sigma: FinitePermutation, i: int) -> FinitePermutation:
    i %= order(sigma)
    out = IDENTITY
    for _ in range(i):
        out = compose(sigma, out)
    return out


def orbit(sigma: FinitePermutation, x: Site) -> list[Site]:
    """[x, sigma(x), sigma^2(x), ...] until the orbit closes; [x] off the range."""
    out, y = [x], sigma(x)
    while y != x:
        out.append(y)
        y = sigma(y)
    return out


# ---------------------------------------------------------------------------
# derangement counts, two independent formulas

def derangement_count(n: int) -> int:
    """Number of fixed-point-free permutations of n elements (Euler recurrence)."""
    if n < 2:
        raise ValueError("derangement_count requires n >= 2")
    a, b = 1, 0  # counts for 0 and 1 elements
    for k in range(2, n + 1):
        a, b = b, (k - 1) * (a + b)
    return b


def derangement_count_inclusion_exclusion(n: int) -> int:
    if n < 2:
        raise ValueError("derangement_count requires n >= 2")
    return sum((-1) ** k * math.comb(n, k) * math.factorial(n - k) for k in range(n + 1))


# ---------------------------------------------------------------------------
# canonical range order and cyclic enumeration

def canonical_range_order(R: Iterable[Site], lat: Optional[Lattice] = None) -> list[Site]:
    """Sites of R sorted by unwrapped coordinates (plain lexicographic off-torus).

    The unwrapped key makes the order, and everything built on it, covariant
    under shifts even across the torus boundary.
    """
    R = list(R)
    if lat is not None and lat.is_torus:
        key = unwrap_range(R, lat)
        return sorted(R, key=lambda s: key[s])
    return sorted(R)


def enumerate_cyclic(R: Iterable[Site], lat: Optional[Lattice] = None) -> list[FinitePermutation]:
    """All (|R|-1)! single-cycle permutations with range exactly R, canonically ordered.

    Order: by the visiting sequence (sigma(r0), sigma^2(r0), ...) from the
    anchor r0 = min of R in the canonical order, lexicographic site-wise.
    """
    ordered = canonical_range_order(R, lat)
    if len(ordered) < 2:
        raise ValueError("range sets have size >= 2")
    anchor, rest = ordered[0], ordered[1:]
    return [FinitePermutation(((anchor, *tail),)) for tail in itertools.permutations(rest)]


def enumerate_derangements(R: Iterable[Site], lat: Optional[Lattice] = None) -> list[FinitePermutation]:
    """All P(|R|) fixed-point-free permutations of R (range exactly R)."""
    ordered = canonical_range_order(R, lat)
    out = []
    for image in itertools.permutations(ordered):
        if any(x == y for x, y in zip(ordered, image)):
            continue
        out.append(FinitePermutation.from_mapping(dict(zip(ordered, image))))
    return out


# ---------------------------------------------------------------------------
# sigma selection rules

def word_apply(sigma: FinitePermutation, R_ordered: Sequence[Site], a: Word) -> Word:
    """Word after sigma acts on occupancies of R: bit(x) = a(sigma^-1(x))."""
    pos = {s: i for i, s in enumerate(R_ordered)}
    return tuple(a[pos[sigma.preimage(x)]] for x in R_ordered)


def select_sigma_two_discrepancy(
    R: Iterable[Site],
    a: Word,
    b: Word,
    lat: Optional[Lattice] = None,
) -> FinitePermutation:
    """First cyclic permutation of R mapping word a exactly onto word b.

    Preconditions: equal popcounts, words differ in exactly two positions.
    """
    ordered = canonical_range_order(R, lat)
    a, b = tuple(a), tuple(b)
    if len(a) != len(ordered) or len(b) != len(ordered):
        raise ValueError("word length must equal |R|")
    if sum(a) != sum(b):
        raise ValueError("words must have equal popcount")
    if sum(x != y for x, y in zip(a, b)) != 2:
        raise ValueError("words must differ in exactly two positions")
    for sigma in enumerate_cyclic(ordered, lat):
        if word_apply(sigma, ordered, a) == b:
            return sigma
    raise NoCover(f"no cyclic permutation of {ordered} maps {a} to {b}")


def select_sigma_general(
    R: Iterable[Site],
    a: Word,
    b: Word,
    lat: Optional[Lattice] = None,
) -> FinitePermutation:
    """First cyclic permutation of R whose action dominates: sigma(a) >= b pointwise.

    Precondition: popcount(a) >= popcount(b).  Raises NoCover when a == b with
    a non-constant word, the one boundary where no cyclic cover exists.
    """
    ordered = canonical_range_order(R, lat)
    a, b = tuple(a), tuple(b)
    if len(a) != len(ordered) or len(b) != len(ordered):
        raise ValueError("word length must equal |R|")
    if sum(a) < sum(b):
        raise ValueError("popcount(a) must be >= popcount(b)")
    for sigma in enumerate_cyclic(ordered, lat):
        if all(x >= y for x, y in zip(word_apply(sigma, ordered, a), b)):
            return sigma
    raise NoCover(f"no cyclic permutation of {ordered} covers {b} from {a}")


def cycle_notation(sigma: FinitePermutation) -> str:
    """Text form "(x1 x2 x3)(y1 y2)" with sites as comma-joined coordinates."""
    if sigma.is_identity():
        return "()"
    return "".join(
        "(" + " ".join(",".join(str(c) for c in s) for s in cyc) + ")"
        for cyc in sigma.cycles
    )
