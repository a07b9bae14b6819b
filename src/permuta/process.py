"""Event-driven simulation of the permutation process and its finite duals.

Torus configurations are bit-packed integers in the canonical site order.
run_config / run_finite are literal exponential-clock simulations returning
replayable trajectories.  Both read a chunk of arrivals at a time from
``DrawBuffer.arrivals``, with the same law and the same random stream as
one event at a time, and only the state updates run per event.
run_config's kernel, ``_advance``, also runs the coupled tail of the
coupling engines (after A = B).  Sparse states (the dual set, the two tagged
points of the couplings) pick which clock rang with one per-site clock
kernel, ``_SiteClocks.pick``: every tracked site rings at the per-site total
rate M_PL.
duality_mc additionally has a vectorized terminal sampler with the identical
event law (state-independent total rate, null selections included) for large
replica counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NotSymmetric, PropertyViolation
from .lattice import Lattice, Site
from .rates import RateFamily, check_symmetry, family_hash, require_simulatable
from .sampling import AliasTable, DrawBuffer, substream

_TABLE_SITE_CAP = 16  # word lookup tables only below this many sites


@dataclass(frozen=True)
class Configuration:
    """Occupancies on a torus, bit i of ``word`` = occupancy of the i-th canonical site."""

    lattice: Lattice
    word: int

    def __post_init__(self) -> None:
        if not self.lattice.is_torus:
            raise ValueError("full configurations exist only on a torus")
        if not 0 <= self.word < (1 << self.lattice.n_sites):
            raise ValueError("word out of range for this torus")

    @classmethod
    def from_sites(cls, lat: Lattice, occupied: Sequence[Site]) -> "Configuration":
        word = 0
        for x in occupied:
            word |= 1 << lat.index(lat.wrap(x))
        return cls(lat, word)

    @classmethod
    def empty(cls, lat: Lattice) -> "Configuration":
        return cls(lat, 0)

    @classmethod
    def full(cls, lat: Lattice) -> "Configuration":
        return cls(lat, (1 << lat.n_sites) - 1)

    def occupied(self, x: Site) -> int:
        return (self.word >> self.lattice.index(self.lattice.wrap(x))) & 1

    def with_occupancy(self, updates: dict[Site, int]) -> "Configuration":
        word = self.word
        for x, bit in updates.items():
            i = self.lattice.index(self.lattice.wrap(x))
            word = (word | (1 << i)) if bit else (word & ~(1 << i))
        return Configuration(self.lattice, word)

    @property
    def particle_count(self) -> int:
        return self.word.bit_count()

    def occupied_sites(self) -> list[Site]:
        return [x for x in self.lattice.sites() if self.occupied(x)]


@dataclass(frozen=True)
class DualState:
    """Finite site set tracked by the dual process; |A| is conserved."""

    lattice: Lattice
    sites: frozenset

    @classmethod
    def of(cls, lat: Lattice, sites_in: Sequence[Site]) -> "DualState":
        return cls(lat, frozenset(lat.wrap(x) for x in sites_in))


@dataclass(frozen=True)
class Trajectory:
    """Replayable run: seed plus (time, base permutation id, shift) events."""

    seed: int
    t_end: float
    events: Tuple[Tuple[float, int, Site], ...]
    terminal: Union[Configuration, DualState]
    n_events: int


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int

    @classmethod
    def from_bernoulli(cls, successes: int, n: int) -> "Estimate":
        if n < 1:
            raise ValueError("need at least one sample")
        p = successes / n
        var = p * (1 - p) * n / max(n - 1, 1)
        return cls(mean=p, std_error=math.sqrt(var / n), n_samples=n)


# ---------------------------------------------------------------------------
# compiled torus family

def permute_bits(pairs, mask: int, words):
    """Words after one permutation: bit s moves to bit d for every (s, d) in
    ``pairs``, bits outside ``mask`` stay.  ``words`` is a Python int or an
    int64 array of words."""
    out = words & ~mask
    for s, d in pairs:
        out |= ((words >> s) & 1) << d
    return out


class _Compiled:
    """Expanded family in flat-array form for the event engines."""

    def __init__(self, fam: RateFamily):
        lat = fam.lattice
        self.lattice = lat
        self.n_sites = lat.n_sites
        perms, rates, base_idx, shifts, pairs, masks = [], [], [], [], [], []
        for v in lat.sites():
            for b, (perm, q) in enumerate(fam.base):
                moved = perm.shifted(v, lat)
                perms.append(moved)
                rates.append(q)
                base_idx.append(b)
                shifts.append(v)
                prs, mask = [], 0
                for x in moved.range_sites:
                    s, d = lat.index(x), lat.index(moved(x))
                    prs.append((s, d))
                    mask |= 1 << s
                pairs.append(tuple(prs))
                masks.append(mask)
        self.perms = perms
        self.rates = np.array(rates)
        self.base_idx = base_idx
        self.shifts = shifts
        self.pairs = pairs
        self.masks = masks
        self.Q_tot = float(self.rates.sum())
        self.alias = AliasTable(self.rates)
        self._table: Optional[np.ndarray] = None

    def word_table(self) -> np.ndarray:
        """(n_perms, 2^N) table of word images; built once, small N only."""
        if self._table is None:
            N = self.n_sites
            if N > _TABLE_SITE_CAP:
                raise ValueError(f"word table limited to {_TABLE_SITE_CAP} sites")
            words = np.arange(1 << N, dtype=np.int64)
            self._table = np.vstack([permute_bits(p, m, words)
                                     for p, m in zip(self.pairs, self.masks)])
        return self._table


@lru_cache(maxsize=32)
def _compiled(fam: RateFamily) -> _Compiled:
    return _Compiled(fam)


# ---------------------------------------------------------------------------
# per-site clocks for sparse states (Harris's graphical construction)

class _SiteClocks:
    """One Poisson clock per anchor (b, r) at every site: base permutation b,
    site r of its range, rate q_b.

    The clock (b, r) of site x proposes b shifted by v = x - r, whose range
    holds x.  The clocks of one site add up to M_PL, and each expanded
    permutation is proposed once by every site of its range.  Base
    permutations are kept wrapped, so the same code runs on tori and on Z^d.

    Two tagged points p1, p2 are kept as the state rows (p1, d), d = p2 - p1.
    When the clock of point l + 1 (l = 0, 1) rings with anchor a, the state
    changes by ``move1[l, a]`` if the range misses the other point.  If it
    holds both, ``both[l, sep_index(d), a]`` is set and the state changes by
    ``move2[l, sep_index(d), a]``.  Row sep_index(d) is the one of e = other
    - ringer (d for label 1, -d for label 2): a row per separation on a
    torus, and on Z^d per separation in a box one step wider than the widest
    range, where farther separations clip to its edge rows (no cover there).
    """

    def __init__(self, fam: RateFamily):
        lat = fam.lattice
        origin = (0,) * lat.dimension
        self.lat = lat
        self.base = [perm.shifted(origin, lat) for perm, _ in fam.base]
        self.ranges = [tuple(sorted(perm.range_sites)) for perm in self.base]
        self.anchors, weights = [], []
        for b, (_, q) in enumerate(fam.base):
            for r in self.ranges[b]:
                self.anchors.append((b, r))
                weights.append(q)
        self.alias = AliasTable(weights)
        self.M_PL = self.alias.total

        dim, n = lat.dimension, len(self.anchors)
        if lat.is_torus:
            self._shape = np.array(lat.dims)
        else:
            span = np.array([np.ptp(R, axis=0) for R in self.ranges]).max(axis=0)
            self._reach = span + 1
            self._shape = 2 * span + 3
        self._strides = np.cumprod(np.append(self._shape[1:], 1)[::-1])[::-1]
        self.zero = int(self.sep_index(np.zeros((1, dim), dtype=np.int64))[0])
        self.move1 = np.zeros((2, n, 2, dim), dtype=np.int32)
        self.move2 = np.zeros((2, int(self._shape.prod()), n, 2, dim), dtype=np.int32)
        for a, (b, r) in enumerate(self.anchors):
            step = np.subtract(self.base[b](r), r)  # displacement of the ringing point
            self.move1[:, a] = [(step, -step), (0 * step, step)]
            for x in self.ranges[b]:
                other = np.subtract(self.base[b](x), x)
                e = np.subtract(x, r)
                i1, i2 = self.sep_index(np.array([e, -e]))
                self.move2[0, i1, a] = (step, other - step)
                self.move2[1, i2, a] = (other, step - other)
        self.both = self.move2[..., 0, :].any(axis=-1)  # p1 moves on every both-point move

    def sep_index(self, d: np.ndarray) -> np.ndarray:
        """Row of the both-cover table of each separation in ``d`` (k, dim)."""
        if self.lat.is_torus:
            d = d % self._shape
        else:
            d = np.minimum(np.maximum(d, -self._reach), self._reach) + self._reach
        return d @ self._strides

    def pick(self, u: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The clocks that ring among those of k tracked sites, one uniform
        each: (slot of the site, anchor index) per uniform of ``u``."""
        x = u * k
        slot = x.astype(np.int64)
        return slot, self.alias.draw_u_array(x - slot)

    def apply_point(self, b: int, v: Site, x: Site) -> Site:
        """Image of site x under base b shifted by v."""
        y = self.base[b](self.lat.wrap(tuple(a - c for a, c in zip(x, v))))
        return self.lat.shift(y, v)


@lru_cache(maxsize=32)
def _site_clocks(fam: RateFamily) -> _SiteClocks:
    return _SiteClocks(fam)


def _violation(what: str, fam: RateFamily, seed: int, **where) -> PropertyViolation:
    """An invariant failure carrying what a replay needs: the family hash
    prefix, the seed and ``where`` it broke, such as t, the 1-based number
    of the event or the replica."""
    at = "".join(f", {k}={v!r}" for k, v in where.items())
    return PropertyViolation(f"{what} (family {family_hash(fam)[:12]}, seed={seed}{at})")


# ---------------------------------------------------------------------------
# sampling and the two literal engines

def sample_product(rho: float, lat: Lattice, seed: int) -> Configuration:
    """Product measure: each site independently occupied with probability rho."""
    if not 0 <= rho <= 1:
        raise ValueError("rho must lie in [0, 1]")
    gen = substream(seed)
    bits = gen.random(lat.n_sites) < rho
    word = 0
    for i, b in enumerate(bits):
        if b:
            word |= 1 << i
    return Configuration(lat, word)


def _horizon_cap(rate: float, t: float, T: float) -> int:
    """Arrivals to read for the rest of the horizon: a short one pays for
    the expected count plus six sigmas, not a block."""
    need = max(rate * (T - t), 0.0)
    return int(need + 6 * math.sqrt(need)) + 16


def _advance(comp: _Compiled, word: int, t: float, T: float, buf: DrawBuffer,
             fam: RateFamily, seed: int, n0: int, sink=None):
    """The configuration process from ``word`` at time ``t`` up to time ``T``.

    Returns (final word, event count) and hands each chunk of events to
    ``sink(ids, times)``: fired expanded ids and event times as arrays.
    Reads ``buf`` a chunk of arrivals at a time, yet draws and computes
    exactly as one event at a time would: one Exp(1) then one uniform per
    event, ids by ``draw_u``.  The particle count is checked after every
    event; ``n0`` events came before, for the event number a violation
    reports.
    """
    Q, pairs, masks = comp.Q_tot, comp.pairs, comp.masks
    count0 = word.bit_count()
    n = n0
    while True:
        times, u = buf.arrivals(t, T, Q, _horizon_cap(Q, t, T))
        m, k = len(times), len(u)
        ids = comp.alias.draw_u_array(u)
        for j, eid in enumerate(ids.tolist()):
            word = permute_bits(pairs[eid], masks[eid], word)
            if word.bit_count() != count0:  # bijections cannot do this
                raise _violation("particle count changed", fam, seed, t=float(times[j]), event=n + j + 1)
        n += k
        if sink is not None:
            sink(ids, times[:k])
        if k < m:
            return word, n - n0
        buf.consume(m)
        t = times[-1]


def run_config(
    eta0: Configuration,
    fam: RateFamily,
    T: float,
    seed: int,
    record_events: bool = True,
) -> Trajectory:
    """Exponential-clock simulation of the full configuration process up to time T."""
    require_simulatable(fam)
    if not fam.lattice.is_torus or eta0.lattice != fam.lattice:
        raise ValueError("run_config needs a torus configuration on the family's lattice")
    comp = _compiled(fam)
    events: list = []

    def record(ids, times):
        events.extend((t, comp.base_idx[e], comp.shifts[e])
                      for t, e in zip(times.tolist(), ids.tolist()))

    buf = DrawBuffer(substream(seed), block=1024)
    word, n = _advance(comp, eta0.word, 0.0, T, buf, fam, seed, 0,
                       record if record_events else None)
    return Trajectory(seed, T, tuple(events), Configuration(fam.lattice, word), n)


def run_finite(
    A0: DualState,
    fam: RateFamily,
    T: float,
    seed: int,
    record_events: bool = True,
) -> Trajectory:
    """Per-site clock simulation of the set-valued process; torus or unbounded.

    The tracked sites ring at the constant total rate |A| M_PL.  A proposal
    fires only when the site that rang holds the lowest slot among the
    tracked sites in its range, so every expanded permutation meeting the set
    fires at exactly its rate q.  Only the covered sites move.
    """
    require_simulatable(fam)
    if A0.lattice != fam.lattice:
        raise ValueError("initial state lattice differs from the family lattice")
    lat = fam.lattice
    clocks = _site_clocks(fam)
    buf = DrawBuffer(substream(seed), block=1024)
    slots = sorted(A0.sites)
    slot_of = {x: i for i, x in enumerate(slots)}
    rate = len(slots) * clocks.M_PL
    t, events, n = 0.0, [], 0
    while slots:
        times, u = buf.arrivals(t, T, rate, _horizon_cap(rate, t, T))
        slot, anchor = clocks.pick(u, len(slots))
        for t, i, a in zip(times.tolist(), slot.tolist(), anchor.tolist()):
            b, r = clocks.anchors[a]
            v = lat.wrap(tuple(c - d for c, d in zip(slots[i], r)))
            covered = []
            for x in clocks.ranges[b]:
                j = slot_of.get(lat.shift(x, v))
                if j is not None:
                    covered.append(j)
            if min(covered) != i:
                continue  # a lower slot in the range proposes this permutation
            for j in covered:
                del slot_of[slots[j]]
            for j in covered:
                slots[j] = clocks.apply_point(b, v, slots[j])
                slot_of[slots[j]] = j
            n += 1
            if len(slot_of) != len(slots):
                raise _violation("dual support size changed", fam, seed, t=t, event=n)
            if record_events:
                events.append((t, b, v))
        if len(u) < len(times):  # the horizon ends in this chunk
            break
        buf.consume(len(times))
        t = times[-1]
    return Trajectory(seed, T, tuple(events), DualState(lat, frozenset(slots)), n)


# ---------------------------------------------------------------------------
# vectorized terminal sampler (same law as run_config, no bookkeeping)

def _terminal_words(fam: RateFamily, words0: np.ndarray, t: float, gen: np.random.Generator) -> np.ndarray:
    comp = _compiled(fam)
    tbl = comp.word_table()
    words = words0.astype(np.int64).copy()
    K = gen.poisson(comp.Q_tot * t, size=len(words))
    kmax = int(K.max()) if len(K) else 0
    for step in range(kmax):
        act = np.nonzero(K > step)[0]
        if len(act) == 0:
            break
        sig = comp.alias.draw_many(gen, len(act))
        words[act] = tbl[sig, words[act]]
    return words


def _sample_product_words(rho: float, N: int, n: int, gen: np.random.Generator) -> np.ndarray:
    bits = gen.random((n, N)) < rho
    return (bits.astype(np.int64) << np.arange(N, dtype=np.int64)).sum(axis=1)


def duality_mc(
    mu0: Union[float, Configuration],
    A: Union[DualState, Iterable[Site]],
    fam: RateFamily,
    t: float,
    n: int,
    seed: int,
    engine: str = "vector",
) -> Tuple[Estimate, Estimate]:
    """Monte Carlo estimates of both sides of the self-duality identity.

    lhs: P[eta_t occupies all of A] with eta_0 ~ mu0 under the configuration
    process; rhs: P[eta_0 occupies all of A_t] with A_t the dual set process
    and an independent eta_0 ~ mu0 per replica.  Requires a symmetric family.
    """
    if not check_symmetry(fam):
        raise NotSymmetric("duality needs q(sigma) = q(sigma inverse)")
    require_simulatable(fam)
    lat = fam.lattice
    if not lat.is_torus:
        raise ValueError("duality_mc runs on a torus")
    N = lat.n_sites
    dual = A if isinstance(A, DualState) else DualState.of(lat, A)
    maskA = 0
    for x in dual.sites:
        maskA |= 1 << lat.index(x)

    if engine == "vector":
        gen_l, gen_r = substream(seed, 0), substream(seed, 1)
        if isinstance(mu0, Configuration):
            w0 = np.full(n, mu0.word, dtype=np.int64)
            eta0_r = np.full(n, mu0.word, dtype=np.int64)
        else:
            w0 = _sample_product_words(float(mu0), N, n, gen_l)
            eta0_r = _sample_product_words(float(mu0), N, n, gen_r)
        lhs_words = _terminal_words(fam, w0, t, gen_l)
        lhs_hits = int(((lhs_words & maskA) == maskA).sum())
        a0 = np.full(n, maskA, dtype=np.int64)
        rhs_words = _terminal_words(fam, a0, t, gen_r)
        rhs_hits = int(((eta0_r & rhs_words) == rhs_words).sum())
        return Estimate.from_bernoulli(lhs_hits, n), Estimate.from_bernoulli(rhs_hits, n)

    if engine != "event":
        raise ValueError("engine must be 'vector' or 'event'")

    def one_lhs(i: int) -> int:
        eta0 = mu0 if isinstance(mu0, Configuration) else sample_product(mu0, lat, seed * 1000003 + i)
        traj = run_config(eta0, fam, t, seed + 2 * i + 1, record_events=False)
        return int((traj.terminal.word & maskA) == maskA)

    def one_rhs(i: int) -> int:
        eta0 = mu0 if isinstance(mu0, Configuration) else sample_product(mu0, lat, seed * 2000003 + i)
        traj = run_finite(dual, fam, t, seed + 2 * i + 2, record_events=False)
        return int(all(eta0.occupied(x) for x in traj.terminal.sites))

    def hits(side: str, one) -> int:
        total = 0
        for i in range(n):
            try:
                total += one(i)
            except PropertyViolation as exc:
                raise PropertyViolation(f"{exc} ({side} side, replica={i})") from exc
        return total

    lhs_hits = hits("lhs", one_lhs)
    rhs_hits = hits("rhs", one_rhs)
    return Estimate.from_bernoulli(lhs_hits, n), Estimate.from_bernoulli(rhs_hits, n)


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Dump events as CSV (time, perm_id, shift, popcount); popcount is conserved."""
    count = (
        traj.terminal.particle_count
        if isinstance(traj.terminal, Configuration)
        else len(traj.terminal.sites)
    )
    with open(path, "w") as fh:
        fh.write("time,perm_id,shift,popcount\n")
        for t, b, v in traj.events:
            fh.write(f"{t!r},{b},{' '.join(str(c) for c in v)},{count}\n")
