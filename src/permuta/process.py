"""Event-driven simulation of the permutation process and its finite duals.

Torus configurations are bit-packed integers in the canonical site order.
run_config / run_finite are literal exponential-clock simulations returning
replayable trajectories; duality_mc additionally has a vectorized terminal
sampler with the identical event law (state-independent total rate, null
selections included) for large replica counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NotSymmetric, PropertyViolation
from .lattice import Lattice, Site
from .rates import RateFamily, check_symmetry, require_simulatable
from .sampling import AliasTable, parallel_map, substream

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
    gen = substream(seed)
    word, t, events, n = eta0.word, 0.0, [], 0
    count0 = eta0.particle_count
    while True:
        t += gen.exponential(1.0 / comp.Q_tot)
        if t > T:
            break
        e = comp.alias.draw(gen)
        word = permute_bits(comp.pairs[e], comp.masks[e], word)
        n += 1
        if word.bit_count() != count0:
            raise PropertyViolation("particle count changed")  # bijections cannot do this
        if record_events:
            events.append((t, comp.base_idx[e], comp.shifts[e]))
    return Trajectory(seed, T, tuple(events), Configuration(fam.lattice, word), n)


def _finite_candidates(fam: RateFamily, support: frozenset):
    """Deterministically ordered (base_idx, shift) pairs whose range meets the support."""
    lat = fam.lattice
    out, seen = [], set()
    for x in sorted(support):
        for b, (perm, q) in enumerate(fam.base):
            for r in sorted(perm.range_sites):
                v = lat.wrap(tuple(a - c for a, c in zip(x, r)))
                key = (b, v)
                if key not in seen:
                    seen.add(key)
                    out.append((b, v, q))
    return out


def run_finite(
    A0: DualState,
    fam: RateFamily,
    T: float,
    seed: int,
    record_events: bool = True,
) -> Trajectory:
    """Support-thinned simulation of the set-valued process; torus or unbounded."""
    require_simulatable(fam)
    if A0.lattice != fam.lattice:
        raise ValueError("initial state lattice differs from the family lattice")
    lat = fam.lattice
    gen = substream(seed)
    support = frozenset(A0.sites)
    size0 = len(support)
    t, events, n = 0.0, [], 0
    base_perms = [perm for perm, _ in fam.base]
    while support:
        cands = _finite_candidates(fam, support)
        total = sum(q for _, _, q in cands)
        t += gen.exponential(1.0 / total)
        if t > T:
            break
        u = gen.random() * total
        acc = 0.0
        chosen = cands[-1]
        for cand in cands:
            acc += cand[2]
            if u < acc:
                chosen = cand
                break
        b, v, _ = chosen
        perm = base_perms[b]
        # sigma = shift of base perm by v; move every covered support site
        new_support = set()
        for y in support:
            y0 = lat.wrap(tuple(a - c for a, c in zip(y, v)))
            new_support.add(lat.shift(perm(y0), v))
        support = frozenset(new_support)
        n += 1
        if len(support) != size0:
            raise PropertyViolation("dual support size changed")
        if record_events:
            events.append((t, b, v))
    return Trajectory(seed, T, tuple(events), DualState(lat, support), n)


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
    threads: int = 1,
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

    lhs_hits = sum(parallel_map(one_lhs, range(n), threads))
    rhs_hits = sum(parallel_map(one_rhs, range(n), threads))
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
