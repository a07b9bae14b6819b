"""Shift-invariant rate families and every validation gate the engines rely on.

A family is a finite list of base permutations anchored near the origin with
positive rates; the process applies every lattice shift of every base
permutation at the base rate.  This module computes the summary quantities
(M_PL, M_I, M_II, m(R), Z(R), z_d), checks symmetry, range closure and
irreducibility, and loads/serializes the JSON family format.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import InvalidFamily, NotRangeClosed, PropertyViolation, TorusTooSmall
from .lattice import Lattice, Site
from .permutation import (
    FinitePermutation,
    derangement_count,
    enumerate_derangements,
    inverse,
)

_VEC_RTOL = 1e-12


def _anchor(perm: FinitePermutation) -> FinitePermutation:
    """Translate so the minimal range site (canonical order) sits at the origin."""
    base = min(perm.range_sites)
    if all(c == 0 for c in base):
        return perm
    return FinitePermutation(
        tuple(tuple(tuple(c - b for c, b in zip(s, base)) for s in cyc) for cyc in perm.cycles)
    )


@dataclass(frozen=True)
class RateFamily:
    """Base permutations (anchored, pairwise distinct) with positive rates, on a lattice."""

    lattice: Lattice
    base: Tuple[Tuple[FinitePermutation, float], ...]

    def __post_init__(self) -> None:
        anchored = []
        for perm, q in self.base:
            q = float(q)
            if not (q > 0 and math.isfinite(q)):
                raise InvalidFamily(f"rates must be positive and finite, got {q}")
            anchored.append((_anchor(perm), q))
        if len({p for p, _ in anchored}) != len(anchored):
            raise InvalidFamily("base permutations must be pairwise distinct after anchoring")
        d = self.lattice.dimension
        for perm, _ in anchored:
            if any(len(s) != d for cyc in perm.cycles for s in cyc):
                raise InvalidFamily("permutation sites must match the lattice dimension")
        object.__setattr__(self, "base", tuple(anchored))
        if self.lattice.is_torus:
            _check_torus_size(self)

    @property
    def dimension(self) -> int:
        return self.lattice.dimension


def _extent(perm: FinitePermutation, axis: int) -> int:
    coords = [s[axis] for s in perm.range_sites]
    return max(coords) - min(coords)


def _check_torus_size(fam: RateFamily) -> None:
    # L_i > 2*extent keeps every shifted range free of self-overlap under wrap
    for perm, _ in fam.base:
        for axis, L in enumerate(fam.lattice.dims):
            ext = _extent(perm, axis)
            if L <= 2 * ext:
                raise TorusTooSmall(
                    f"torus side {L} (axis {axis}) must exceed twice the range extent {ext}"
                )


def expand(fam: RateFamily) -> list[Tuple[FinitePermutation, float]]:
    """Every shift of every base permutation, wrapped; |base| * prod(L) entries."""
    if not fam.lattice.is_torus:
        raise ValueError("expand requires torus mode")
    _check_torus_size(fam)
    out = []
    for v in fam.lattice.sites():
        for perm, q in fam.base:
            out.append((perm.shifted(v, fam.lattice), q))
    return out


def compute_M_PL(fam: RateFamily) -> float:
    """Per-site total rate: by shift invariance equals sum of q * |Range| over the base."""
    return sum(q * len(perm.range_sites) for perm, q in fam.base)


def compute_M_I(fam: RateFamily) -> int:
    if not fam.base:
        raise InvalidFamily("empty family has no range sizes")
    return max(len(perm.range_sites) for perm, q in fam.base)


def _base_range_groups(fam: RateFamily) -> dict[frozenset, list[Tuple[FinitePermutation, float]]]:
    groups: dict[frozenset, list] = {}
    for perm, q in fam.base:
        groups.setdefault(perm.range_sites, []).append((perm, q))
    return groups


def compute_M_II(fam: RateFamily) -> float:
    """Max rate ratio among permutations sharing a range; needs strict closure."""
    report = check_range_closure(fam, mode="strict")
    if not report.passed:
        raise NotRangeClosed(f"family is not range closed: {report.witness}")
    worst = 1.0
    for members in _base_range_groups(fam).values():
        rates = [q for _, q in members]
        worst = max(worst, max(rates) / min(rates))
    return worst


def check_symmetry(fam: RateFamily) -> bool:
    """True iff every base permutation's inverse is present with equal rate."""
    table = {perm: q for perm, q in fam.base}
    for perm, q in fam.base:
        q_inv = table.get(_anchor(inverse(perm)))
        if q_inv is None or not math.isclose(q, q_inv, rel_tol=_VEC_RTOL):
            return False
    return True


@dataclass(frozen=True)
class ClosureReport:
    passed: bool
    mode: str
    witness: Optional[str] = None


def _perms_within(fam: RateFamily, R: frozenset) -> list[FinitePermutation]:
    """All shifts of base permutations whose shifted range fits inside R."""
    out = []
    for perm, _ in fam.base:
        shape = perm.range_sites
        for target in R:
            for s in shape:
                v = tuple(t - c for t, c in zip(target, s))
                shifted = {tuple(c + dv for c, dv in zip(site, v)) for site in shape}
                if shifted <= R:
                    moved = FinitePermutation(
                        tuple(
                            tuple(tuple(c + dv for c, dv in zip(site, v)) for site in cyc)
                            for cyc in perm.cycles
                        )
                    )
                    if moved not in out:
                        out.append(moved)
    return out


@lru_cache(maxsize=32)
def check_range_closure(fam: RateFamily, mode: str = "strict") -> ClosureReport:
    """Strict: every derangement of every occurring range is present.

    Relaxed: for each occurring range, every ordered pair of equal-popcount
    words is connected by a single family permutation acting within the range.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError("mode must be 'strict' or 'relaxed'")
    groups = _base_range_groups(fam)
    if mode == "strict":
        for R, members in groups.items():
            present = {perm for perm, _ in members}
            for der in enumerate_derangements(sorted(R)):
                if der not in present:
                    return ClosureReport(False, mode, f"range {sorted(R)} misses {der.cycles}")
        return ClosureReport(True, mode)
    for R in groups:
        ordered = sorted(R)
        pos = {s: i for i, s in enumerate(ordered)}
        movers = _perms_within(fam, R)
        for w1 in itertools.product((0, 1), repeat=len(ordered)):
            for w2 in itertools.product((0, 1), repeat=len(ordered)):
                if sum(w1) != sum(w2) or w1 == w2:
                    continue
                hit = False
                for perm in movers:
                    image = tuple(w1[pos[perm.preimage(x)]] for x in ordered)
                    if image == w2:
                        hit = True
                        break
                if not hit:
                    return ClosureReport(False, mode, f"range {ordered}: {w1} cannot reach {w2}")
    return ClosureReport(True, mode)


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    det = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        det += (-1) ** j * rows[0][j] * _int_det(minor)
    return det


def check_irreducibility(fam: RateFamily) -> bool:
    """Any site reaches any other through positive-rate permutations.

    Torus: strong connectivity of the directed graph x -> sigma(x) over the
    expanded family.  Unbounded: the displacement vectors generate Z^d as a
    group (each cycle's displacements sum to zero, so the generated monoid is
    already a group; Z^d iff the gcd of all d x d minors is 1).
    """
    if not fam.base:
        return False
    if fam.lattice.is_torus:
        n = fam.lattice.n_sites
        rows, cols = [], []
        for perm, _ in expand(fam):
            for x in perm.range_sites:
                rows.append(fam.lattice.index(x))
                cols.append(fam.lattice.index(perm(x)))
        adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        ncomp, _ = connected_components(adj.tocsr(), directed=True, connection="strong")
        return ncomp == 1
    d = fam.dimension
    disps = set()
    for perm, _ in fam.base:
        for x in perm.range_sites:
            v = tuple(a - b for a, b in zip(perm(x), x))
            if any(v):
                disps.add(v)
    vecs = [list(v) for v in disps]
    if len(vecs) < d:
        return False
    minors = [
        abs(_int_det([vecs[i] for i in pick]))
        for pick in itertools.combinations(range(len(vecs)), d)
    ]
    g = 0
    for m in minors:
        g = math.gcd(g, m)
    return g == 1


def range_stats(fam: RateFamily) -> dict[frozenset, Tuple[float, float]]:
    """(m(R), Z(R)) per exact range set: expanded ranges on a torus, anchored base
    ranges (one representative per shift class) on the unbounded lattice."""
    if fam.lattice.is_torus:
        groups: dict[frozenset, list[float]] = {}
        for perm, q in expand(fam):
            groups.setdefault(perm.range_sites, []).append(q)
    else:
        groups = {R: [q for _, q in members] for R, members in _base_range_groups(fam).items()}
    return {R: (min(qs), sum(qs)) for R, qs in groups.items()}


def ranges_covering(fam: RateFamily, x: Site) -> list[Tuple[frozenset, float, float]]:
    """All range sets containing x, with their (m, Z); works on both modes."""
    out: dict[frozenset, Tuple[float, float]] = {}
    lat = fam.lattice
    for shape, members in _base_range_groups(fam).items():
        qs = [q for _, q in members]
        mR, ZR = min(qs), sum(qs)
        for s in shape:
            v = tuple(a - b for a, b in zip(x, s))
            R = frozenset(lat.shift(site, v) for site in shape)
            if x in R:  # always true; guards pathological wraps
                out.setdefault(R, (mR, ZR))
    return [(R, m, Z) for R, (m, Z) in out.items()]


def z_d(fam: RateFamily, u: Site, v: Site) -> float:
    """Total rate of range sets containing both sites; never exceeds M_PL."""
    total = 0.0
    for R, _, Z in ranges_covering(fam, u):
        if v in R:
            total += Z
    mpl = compute_M_PL(fam)
    if total > mpl * (1 + 1e-9):
        raise PropertyViolation(f"z_d({u},{v}) = {total} exceeds M_PL = {mpl}")
    return total


@dataclass(frozen=True)
class FamilyReport:
    M_PL: float
    M_I: int
    M_II: Optional[float]
    symmetric: bool
    range_closed: bool
    irreducible: bool

    def to_dict(self) -> dict:
        return {
            "M_PL": self.M_PL,
            "M_I": self.M_I,
            "M_II": self.M_II,
            "symmetric": self.symmetric,
            "range_closed": self.range_closed,
            "irreducible": self.irreducible,
        }


@lru_cache(maxsize=32)
def validate_family(fam: RateFamily) -> FamilyReport:
    """Full validation report; also asserts m(R) * M_II * P(M_I) >= Z(R) when closed.

    Memoized on the frozen family; a raised violation is not cached, so it
    raises again on every call."""
    if not fam.base:
        raise InvalidFamily("family has no permutations")
    closed = check_range_closure(fam, mode="strict").passed
    M_II = compute_M_II(fam) if closed else None
    M_I = compute_M_I(fam)
    report = FamilyReport(
        M_PL=compute_M_PL(fam),
        M_I=M_I,
        M_II=M_II,
        symmetric=check_symmetry(fam),
        range_closed=closed,
        irreducible=check_irreducibility(fam),
    )
    if closed:
        cap = derangement_count(M_I) * M_II
        for R, (m, Z) in range_stats(fam).items():
            if m * cap < Z * (1 - 1e-9):
                raise PropertyViolation(
                    f"m(R)*M_II*P(M_I) = {m * cap} < Z(R) = {Z} on range {sorted(R)}"
                )
    return report


def require_simulatable(fam: RateFamily) -> FamilyReport:
    """Gate used by every simulation engine: nonempty, finite ranges, irreducible."""
    report = validate_family(fam)
    if not report.irreducible:
        raise InvalidFamily("family is not irreducible")
    return report


# ---------------------------------------------------------------------------
# serialization

def parse_family(obj: dict) -> RateFamily:
    """Build a family from the JSON structure; see load_family."""
    try:
        d = int(obj["dimension"])
        lat_spec = obj["lattice"]
        perm_specs = obj["permutations"]
    except (KeyError, TypeError) as exc:
        raise InvalidFamily(f"missing or malformed field: {exc}") from exc
    if lat_spec == "unbounded":
        lat = Lattice.unbounded(d)
    elif isinstance(lat_spec, dict) and "torus" in lat_spec:
        dims = lat_spec["torus"]
        if len(dims) != d:
            raise InvalidFamily("torus dims length must equal dimension")
        lat = Lattice.torus(dims)
    else:
        raise InvalidFamily(f"lattice must be 'unbounded' or {{'torus': [..]}}, got {lat_spec!r}")
    if not isinstance(perm_specs, list) or not perm_specs:
        raise InvalidFamily("permutations must be a nonempty list")
    base = []
    for spec in perm_specs:
        try:
            cycles = tuple(tuple(tuple(int(c) for c in s) for s in cyc) for cyc in spec["cycles"])
            rate = float(spec["rate"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidFamily(f"bad permutation entry {spec!r}: {exc}") from exc
        if any(len(s) != d for cyc in cycles for s in cyc):
            raise InvalidFamily(f"cycle sites must have {d} coordinates")
        try:
            perm = FinitePermutation(cycles)
        except ValueError as exc:
            raise InvalidFamily(str(exc)) from exc
        base.append((perm, rate))
    return RateFamily(lattice=lat, base=tuple(base))


def family_to_dict(fam: RateFamily) -> dict:
    lat = {"torus": list(fam.lattice.dims)} if fam.lattice.is_torus else "unbounded"
    perms = [
        {"cycles": [[list(s) for s in cyc] for cyc in perm.cycles], "rate": q}
        for perm, q in sorted(fam.base, key=lambda pq: pq[0].cycles)
    ]
    return {"dimension": fam.dimension, "lattice": lat, "permutations": perms}


def load_family(path: str) -> RateFamily:
    """Load the JSON family format:

    {"dimension": d, "lattice": {"torus": [L..]} | "unbounded",
     "permutations": [{"cycles": [[[off]..]..], "rate": q}, ..]}
    """
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidFamily(f"cannot read family file {path}: {exc}") from exc
    return parse_family(obj)


def family_hash(fam: RateFamily) -> str:
    """sha256 of the canonical JSON form; ties every output record to its inputs."""
    blob = json.dumps(family_to_dict(fam), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# stock families used throughout tests and docs

def consecutive_three_cycles(lat: Lattice, rate: float = 1.0, rate_inverse: Optional[float] = None) -> RateFamily:
    """The worked 1d example: 3-cycles of consecutive sites and their inverses."""
    if lat.dimension != 1:
        raise ValueError("consecutive_three_cycles is one-dimensional")
    fwd = FinitePermutation((((0,), (1,), (2,)),))
    bwd = FinitePermutation((((0,), (2,), (1,)),))
    return RateFamily(lat, ((fwd, rate), (bwd, rate if rate_inverse is None else rate_inverse)))


def nearest_neighbor_swaps(lat: Lattice, rate: float = 1.0) -> RateFamily:
    """Transpositions of nearest neighbors along every axis (exclusion dynamics)."""
    base = []
    for axis in range(lat.dimension):
        e = tuple(1 if i == axis else 0 for i in range(lat.dimension))
        origin = (0,) * lat.dimension
        base.append((FinitePermutation(((origin, e),)), rate))
    return RateFamily(lat, tuple(base))
