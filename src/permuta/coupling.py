"""Coupled constructions for pairs of processes.

Two constructions live here.  The I/J/E triple over two tagged points, with
the g-function estimators, runs on one block kernel (``_walk``).  It reads
the pair's arrivals a chunk of draws at a time and moves the separation
d = p2 - p1 by one cumulative sum while each arrival's range misses the
other point; the both-cover arrivals, the only ones where the shared phase
and the I, J and E rules differ, are handled one at a time.  Its random
stream is the one of an arrival at a time.  One coupled event loop
(``_couple``) runs two configurations.  Both copies fire the same
permutation except on ranges holding a block, where a per-range table fires
instead.  Two block rules share the loop: the two-discrepancy coupling
(``run_recurrent_coupling``) puts a merging table on ranges holding every
discrepancy, the discrepancy-monotone general coupling
(``run_general_coupling``) puts a staircase table on ranges holding any.
Tables are compiled once per family and rule.  They are built by pure
word-level functions so tests can sum their rates symbolically; exhaustive
small-range checks of the two combinatorial facts the tables rely on
(cyclic covers exist, discrepancies never increase) are at the bottom.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import BadInitial, NoCover, NotRangeClosed, PropertyViolation
from .lattice import Lattice, Site
from .permutation import (
    FinitePermutation,
    canonical_range_order,
    derangement_count,
    enumerate_cyclic,
    power,
    select_sigma_general,
    select_sigma_two_discrepancy,
    word_apply,
)
from .process import (
    Configuration,
    Estimate,
    _compiled,
    _site_clocks,
    _SiteClocks,
    _advance,
    _violation,
    permute_bits,
)
from .rates import FamilyReport, RateFamily, check_range_closure, family_hash, require_simulatable
from .sampling import DrawBuffer, substream

Word = Tuple[int, ...]


# ---------------------------------------------------------------------------
# the I/J/E triple over two tagged points

@dataclass(frozen=True)
class TripleState:
    """Positions of the three coupled pair processes; identical until decoupling."""

    I: Tuple[Site, Site]
    J: Tuple[Site, Site]
    E: Tuple[Site, Site]
    decoupled: bool
    T_dec: Optional[float]

    def __post_init__(self) -> None:
        if not self.decoupled and not (self.I == self.J == self.E):
            raise PropertyViolation("I, J, E must coincide before decoupling")


@dataclass(frozen=True)
class TripleEvent:
    t: float
    process: str  # "shared", "I", "J", "E"
    covers: int  # bit 0: first point in range, bit 1: second
    label: int  # which point's clock rang (1 or 2)
    acted_on_E: Optional[bool]  # for both-cover arrivals presented to E


@dataclass(frozen=True)
class TripleResult:
    history: Tuple[TripleState, ...]
    events: Tuple[TripleEvent, ...]
    final: TripleState
    counters: Dict[str, int]


def _walk(sc: _SiteClocks, buf: DrawBuffer, t: float, T: float, s: np.ndarray, rule: str,
          stop: bool, sink=None):
    """Run the pair, as the state rows ``s`` = (p1, d = p2 - p1), from time t
    to T under one rule, a chunk of arrivals at a time.

    Draws as one arrival at a time would: one Exp(1) and, before T, one
    uniform read with ``_SiteClocks.pick``.  On a both-cover arrival, shared
    stops before it acts, E moves both points on label 1 and nothing on
    label 2, J moves both, and I treats it as any arrival.
    ``t_hit`` is that stop, the first both-point move (E, J) or the first
    d = 0 (I, the start included); with ``stop`` the walk ends there.
    ``sink(rule, times, labels, anchors, path)`` gets each chunk's
    arrivals, ``path`` the states before each and after the last.

    Returns (t_hit, final state, both-cover arrivals, both-point moves, last
    both-cover arrival as (label - 1, table row, anchor)).
    """
    rate = 2 * sc.M_PL
    met = rule == "I" and sc.sep_index(s[None, 1])[0] == sc.zero
    t_hit, both, moves, arrival = t if met else None, 0, 0, None
    if met and stop:
        return t_hit, s, both, moves, arrival
    chunk = 64  # arrivals; doubles after each chunk without both-cover arrivals
    while True:
        times, u = buf.arrivals(t, T, rate, chunk)
        m, k = len(times), len(u)
        lab, anchor = sc.pick(u, 2)  # the clock's point, then its anchor
        path = np.concatenate([s[None], sc.move1[lab, anchor]]).cumsum(axis=0)
        settled, drawn = k, None  # drawn: arrivals read when the walk stops in this chunk
        j = 0
        while j < k and (rule != "I" or t_hit is None):
            idx = sc.sep_index(path[j:, 1])
            if rule == "I":  # d = 0 after the arrival; later meets change nothing
                hit = idx[1:] == sc.zero
            else:
                hit = sc.both[lab[j:], idx[:-1], anchor[j:]]
            h = int(hit.argmax())
            if not hit[h]:
                break
            l, i, a = int(lab[j + h]), int(idx[h]), int(anchor[j + h])
            h += j
            if rule == "I":
                t_hit = float(times[h])
                if stop:
                    settled = drawn = h + 1
                break
            both += 1
            arrival = (l, i, a)
            if rule == "shared":
                t_hit, settled, drawn = float(times[h]), h, h + 1
                break
            if rule == "J" or l == 0:
                moves += 1
                t_hit = float(times[h]) if t_hit is None else t_hit
                path[h + 1:] += path[h] + sc.move2[l, i, a] - path[h + 1]
                if stop:
                    settled = drawn = h + 1
                    break
            else:  # E ignores the second point's clock
                path[h + 1:] += path[h] - path[h + 1]
            j = h + 1
        if sink is not None:
            sink(rule, times[:settled], lab[:settled], anchor[:settled], path[:settled + 1])
        if drawn is not None:
            buf.consume(drawn)
            return t_hit, path[settled], both, moves, arrival
        if k < m:
            buf.consume(k)
            buf.std_exponential()  # the arrival past T
            return t_hit, path[k], both, moves, arrival
        buf.consume(m)
        t, s = float(times[-1]), path[k]
        chunk *= 1 if j else 2  # j > 0: this chunk handled a both-cover arrival


def _decouple(sc: _SiteClocks, s: np.ndarray, arrival):
    """(I, J, E states, whether E acted, whether J moved both points) after
    the decoupling arrival: J moves both points, E too if the first point's
    clock rang, I only the point whose clock rang."""
    l, i, a = arrival
    one, two = sc.move1[l, a], sc.move2[l, i, a]
    return (s + one, s + two, s + two if l == 0 else s), l == 0, bool((one != two).any())


def _pairs(lat: Lattice, states: np.ndarray) -> List[Tuple[Site, Site]]:
    """Site pairs of (p1, d) states."""
    p1, p2 = states[:, 0], states[:, 0] + states[:, 1]
    if lat.is_torus:
        p1, p2 = p1 % lat.dims, p2 % lat.dims
    return list(zip(map(tuple, p1.tolist()), map(tuple, p2.tolist())))


def run_triple(
    x: Tuple[Site, Site],
    fam: RateFamily,
    T: float,
    seed: int,
    record_history: bool = True,
) -> TripleResult:
    """Full trajectory of the shared construction and the three decoupled laws."""
    require_simulatable(fam)
    lat = fam.lattice
    p1, p2 = lat.wrap(x[0]), lat.wrap(x[1])
    if p1 == p2:
        raise ValueError("the two tagged points must differ")
    sc = _site_clocks(fam)
    buf = DrawBuffer(substream(seed))
    timeline: List[tuple] = []  # (t, process, label, covers, pair after) per arrival

    def sink(proc, times, lab, anchor, path):
        covers = np.where(sc.both[lab, sc.sep_index(path[:-1, 1]), anchor], 3, lab + 1)
        timeline.extend(zip(times.tolist(), [proc] * len(times), (lab + 1).tolist(),
                            covers.tolist(), _pairs(lat, path[1:])))

    T_dec, s, _, _, arrival = _walk(sc, buf, 0.0, T, np.array([p1, np.subtract(p2, p1)]),
                                    "shared", True, sink)
    events = [TripleEvent(t, "shared", c, lab, None) for t, _, lab, c, _ in timeline]
    history = [TripleState(p, p, p, False, None) for *_, p in timeline] if record_history else []
    counters: Dict[str, Any] = {"shared_events": len(events), "both_cover_arrivals": 0,
                                "e_acted": 0, "i_met": 0, "e_jumped": 0, "j_jumped": 0}
    if T_dec is None:
        pair, = _pairs(lat, s[None])
        return TripleResult(tuple(history), tuple(events),
                            TripleState(pair, pair, pair, False, None), counters)

    states, e_acted, j_both = _decouple(sc, s, arrival)
    cur = dict(zip("IJE", _pairs(lat, np.array(states))))
    events.append(TripleEvent(T_dec, "shared", 3, arrival[0] + 1, e_acted))
    if record_history:
        history.append(TripleState(*cur.values(), True, T_dec))
    # the three processes continue independently; their arrivals are merged
    # in time order to rebuild joint snapshots
    timeline.clear()
    (t_meet, i_end, *_), (_, j_end, *_), (t_jump, e_end, arr, act, _) = (
        _walk(sc, buf, T_dec, T, s, proc, False, sink) for proc, s in zip("IJE", states))
    counters.update(both_cover_arrivals=1 + arr, e_acted=int(e_acted) + act,
                    i_met=int(t_meet is not None), j_jumped=int(j_both),
                    e_jumped=int(e_acted or t_jump is not None))
    if counters["e_jumped"] and not counters["j_jumped"]:
        raise _violation("E had a both-point jump before J", fam, seed)
    if counters["i_met"] and not counters["j_jumped"]:
        raise _violation("I met before J had a both-point jump", fam, seed)
    timeline.sort(key=lambda item: item[0])
    for t, proc, lab, c, p in timeline:
        events.append(TripleEvent(t, proc, c, lab, lab == 1 if proc == "E" and c == 3 else None))
        cur[proc] = p
        if record_history:
            history.append(TripleState(*cur.values(), True, T_dec))
    final = TripleState(*_pairs(lat, np.array([i_end, j_end, e_end])), True, T_dec)
    return TripleResult(tuple(history), tuple(events), final, counters)


@dataclass(frozen=True)
class GEstimates:
    """Before-horizon estimates of the three meeting/jump probabilities."""

    g2: Estimate
    gbar2: Estimate
    gbarbar2: Estimate
    horizon: float
    n_runs: int
    both_cover_arrivals: int
    e_acted: int
    runs_I_without_E: int

    def to_dict(self) -> dict:
        return {
            "g2": {"mean": self.g2.mean, "std_error": self.g2.std_error, "n": self.g2.n_samples},
            "gbar2": {"mean": self.gbar2.mean, "std_error": self.gbar2.std_error, "n": self.gbar2.n_samples},
            "gbarbar2": {"mean": self.gbarbar2.mean, "std_error": self.gbarbar2.std_error, "n": self.gbarbar2.n_samples},
            "horizon": self.horizon,
            "n_runs": self.n_runs,
            "both_cover_arrivals": self.both_cover_arrivals,
            "e_acted": self.e_acted,
            "runs_I_without_E": self.runs_I_without_E,
        }


def _g_one_run(sc: _SiteClocks, s: np.ndarray, T: float, gen) -> Tuple[int, int, int, int, int]:
    buf = DrawBuffer(gen, block=1024)
    t, s, _, _, arrival = _walk(sc, buf, 0.0, T, s, "shared", True)
    if t is None:
        return 0, 0, 0, 0, 0
    (i_state, _, e_state), e_acted, j_both = _decouple(sc, s, arrival)
    hit_e = acted = int(e_acted)
    arrivals = 1
    if not hit_e:
        t_jump, _, arr, act, _ = _walk(sc, buf, t, T, e_state, "E", True)
        hit_e = int(t_jump is not None)
        arrivals += arr
        acted += act
    t_meet = _walk(sc, buf, t, T, i_state, "I", True)[0]
    return int(t_meet is not None), hit_e, int(j_both), arrivals, acted


def estimate_g(
    x: Tuple[Site, Site],
    fam: RateFamily,
    T: float,
    n: int,
    seed: int,
) -> GEstimates:
    """Monte Carlo g2, gbar2, gbarbar2 over n runs of the triple construction."""
    require_simulatable(fam)
    lat = fam.lattice
    p1, p2 = lat.wrap(x[0]), lat.wrap(x[1])
    if p1 == p2:
        raise ValueError("the two tagged points must differ")
    sc = _site_clocks(fam)
    s = np.array([p1, np.subtract(p2, p1)])
    runs = []
    for i in range(n):
        runs.append(_g_one_run(sc, s, T, substream(seed, i)))
        hit_i, hit_e, hit_j, _, _ = runs[-1]
        if hit_e and not hit_j:
            raise _violation("E had a both-point jump in a run where J had none",
                             fam, seed, replica=i)
        if hit_i and not hit_j:
            raise _violation("I met in a run where J had no both-point jump",
                             fam, seed, replica=i)
    ci, ce, cj, arrivals, acted = (sum(col) for col in zip((0,) * 5, *runs))
    i_wo_e = sum(hit_i and not hit_e for hit_i, hit_e, *_ in runs)
    return GEstimates(
        g2=Estimate.from_bernoulli(ci, n),
        gbar2=Estimate.from_bernoulli(ce, n),
        gbarbar2=Estimate.from_bernoulli(cj, n),
        horizon=T,
        n_runs=n,
        both_cover_arrivals=arrivals,
        e_acted=acted,
        runs_I_without_E=i_wo_e,
    )


@dataclass(frozen=True)
class CheckLine:
    name: str
    kind: str  # "exact", "statistical"
    passed: bool
    lhs: float
    rhs: float

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "passed": self.passed,
                "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class GInequalityReport:
    checks: Tuple[CheckLine, ...]
    factor: float
    passed: bool

    def to_dict(self) -> dict:
        return {"factor": self.factor, "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}


def check_g_inequalities(g: GEstimates, report: FamilyReport) -> GInequalityReport:
    """J's dominance of E and I in the means, the statistical chain middle,
    and the two quantitative bounds with one-sided 3 sigma allowances.  The
    pathwise dominance is ``estimate_g``'s per-run guard."""
    if report.M_II is None:
        raise ValueError("M_II undefined (family not strictly range closed)")
    factor = 1.0 / (report.M_II * derangement_count(report.M_I))
    sig = math.sqrt(g.g2.std_error ** 2 + g.gbar2.std_error ** 2)
    sig_jb = math.sqrt(g.gbar2.std_error ** 2 + g.gbarbar2.std_error ** 2)
    sig_ji = math.sqrt(g.g2.std_error ** 2 + g.gbarbar2.std_error ** 2)
    checks = [
        CheckLine("gbarbar_geq_gbar", "exact", g.gbarbar2.mean >= g.gbar2.mean,
                  g.gbarbar2.mean, g.gbar2.mean),
        CheckLine("gbarbar_geq_g", "exact", g.gbarbar2.mean >= g.g2.mean,
                  g.gbarbar2.mean, g.g2.mean),
        CheckLine("gbar_geq_g_statistical", "statistical",
                  g.gbar2.mean >= g.g2.mean - 3 * sig, g.gbar2.mean, g.g2.mean - 3 * sig),
        CheckLine("gbar_geq_half_gbarbar", "statistical",
                  g.gbar2.mean >= 0.5 * g.gbarbar2.mean - 3 * sig_jb,
                  g.gbar2.mean, 0.5 * g.gbarbar2.mean - 3 * sig_jb),
        CheckLine("g_geq_factor_gbarbar", "statistical",
                  g.g2.mean >= factor * g.gbarbar2.mean - 3 * sig_ji,
                  g.g2.mean, factor * g.gbarbar2.mean - 3 * sig_ji),
    ]
    if g.both_cover_arrivals:
        frac = g.e_acted / g.both_cover_arrivals
        tol = 4 * math.sqrt(0.25 / g.both_cover_arrivals)
        checks.append(CheckLine("e_thinning_fair", "statistical",
                                abs(frac - 0.5) <= tol, frac, 0.5))
    return GInequalityReport(tuple(checks), factor, all(c.passed for c in checks))


# ---------------------------------------------------------------------------
# word-level transition tables (shared by both coupling engines and the
# symbolic rate-conservation tests)

@dataclass(frozen=True)
class TableRow:
    """One coupled transition on a range: new restricted words plus, for the
    marginal bookkeeping, the permutation applied to each side (None = held)."""

    rate: Any
    kind: str  # "merge", "swap", "stair", "diag"
    index: Optional[int]
    a_word: Word
    b_word: Word
    a_map: Optional[FinitePermutation]
    b_map: Optional[FinitePermutation]


def _map_or_none(p: FinitePermutation) -> Optional[FinitePermutation]:
    return None if p.is_identity() else p


def _diag_rows(members, R_order, a, b, sigma, m) -> List[TableRow]:
    """Diagonal rows after a staircase at rate m: each power sigma^i (0 < i < r)
    at its residual rate q - m, every other member at its full rate q."""
    powers = [power(sigma, i) for i in range(1, len(R_order))]
    missing = [p for p in powers if p not in members]
    if missing:
        raise NotRangeClosed(f"missing power {missing[0]} of the selected cycle on {list(R_order)}")
    rates = [(p, members[p] - m) for p in powers if members[p] > m]
    rates += [(p, q) for p, q in members.items() if p not in powers]
    return [TableRow(q, "diag", None, word_apply(p, R_order, a), word_apply(p, R_order, b), p, p)
            for p, q in rates]


def recurrent_block_rows(
    members: Mapping[FinitePermutation, Any],
    R_order: Sequence[Site],
    a: Word,
    b: Word,
    lat: Optional[Lattice] = None,
) -> List[TableRow]:
    """Transition rows for a range holding both discrepancies (two-discrepancy
    coupling): merging staircase rows and the type-swap row at the minimum
    rate, diagonal residuals for the rest."""
    r = len(R_order)
    a, b = tuple(a), tuple(b)
    sigma = select_sigma_two_discrepancy(R_order, a, b, lat)
    m = min(members.values())
    rows: List[TableRow] = []
    if r == 2:
        # sole derangement of a pair is the swap; one-sided rows, both merging
        rows.append(TableRow(m, "merge", 1, b, b, sigma, None))
        rows.append(TableRow(m, "merge", 0, a, a, None, sigma))
        return rows
    for i in range(1, r - 1):
        w = word_apply(power(sigma, i), R_order, b)
        rows.append(TableRow(m, "merge", i, w, w, power(sigma, i + 1), power(sigma, i)))
    rows.append(TableRow(m, "swap", r - 1, b, a, sigma, power(sigma, r - 1)))
    return rows + _diag_rows(members, R_order, a, b, sigma, m)


def general_block_rows(
    members: Mapping[FinitePermutation, Any],
    R_order: Sequence[Site],
    a: Word,
    b: Word,
    lat: Optional[Lattice] = None,
    strict: bool = True,
) -> Optional[List[TableRow]]:
    """Transition rows for a range where the restrictions differ (general
    coupling).  The majority side is covered by a cyclic sigma whose full
    staircase fires at the minimum rate; residuals run diagonally.

    Returns None when a required power of the selected cycle is absent
    (possible under relaxed closure); the caller then holds the range on the
    diagonal, which keeps marginals exact at the cost of never merging there.
    """
    r = len(R_order)
    a, b = tuple(a), tuple(b)
    if a == b:
        raise ValueError("equal restrictions evolve diagonally, not through a block")
    a_major = sum(a) >= sum(b)
    try:
        sigma = (select_sigma_general(R_order, a, b, lat) if a_major
                 else select_sigma_general(R_order, b, a, lat))
    except NoCover:
        if strict:
            raise PropertyViolation("no cyclic cover on a strictly closed range")
        return None
    m = min(members.values())
    rows: List[TableRow] = []
    for i in range(r):
        if a_major:
            pa, pb = power(sigma, i + 1), power(sigma, i)
        else:
            pa, pb = power(sigma, i), power(sigma, i + 1)
        rows.append(TableRow(m, "stair", i,
                             word_apply(pa, R_order, a), word_apply(pb, R_order, b),
                             _map_or_none(pa), _map_or_none(pb)))
    try:
        return rows + _diag_rows(members, R_order, a, b, sigma, m)
    except NotRangeClosed:
        if strict:
            raise
        return None


# ---------------------------------------------------------------------------
# coupled states and the bit-level engines

def _bits_to_sites(word: int, lat: Lattice) -> frozenset:
    out = []
    i = 0
    while word:
        if word & 1:
            out.append(lat.site_at(i))
        word >>= 1
        i += 1
    return frozenset(out)


@dataclass(frozen=True)
class CoupledState:
    A: Configuration
    B: Configuration

    @property
    def Dplus(self) -> frozenset:
        return _bits_to_sites(self.A.word & ~self.B.word, self.A.lattice)

    @property
    def Dminus(self) -> frozenset:
        return _bits_to_sites(self.B.word & ~self.A.word, self.A.lattice)

    @property
    def D(self) -> int:
        return (self.A.word ^ self.B.word).bit_count()


@dataclass(frozen=True)
class CouplingEvent:
    t: float
    kind: str  # "staircase-i", "diagonal", "off-range"
    range_id: Optional[int]
    D_before: int
    D_after: int


@dataclass(frozen=True)
class CouplingResult:
    history: Tuple[CouplingEvent, ...]
    final: CoupledState
    coupled: bool
    T_couple: Optional[float]
    counters: Dict[str, Any]


class _RangeInfo:
    __slots__ = ("rid", "mask", "order", "positions", "members", "eids", "Z")

    def __init__(self, rid, mask, order, positions, members, eids):
        self.rid = rid
        self.mask = mask
        self.order = order
        self.positions = positions
        self.members = members  # perm -> rate
        self.eids = eids  # perm -> expanded id
        self.Z = sum(members.values())


class _CompiledBlock:
    __slots__ = ("alias_rows", "cum", "Z", "extra", "extra_rate")

    def __init__(self, alias_rows, cum, Z, extra, extra_rate):
        self.alias_rows = alias_rows
        self.cum = cum
        self.Z = Z
        self.extra = extra
        self.extra_rate = extra_rate


_DEGRADED = _CompiledBlock((), (), 0.0, None, 0.0)


def _pack(word: Word, positions) -> int:
    """Set bits of a restricted word at its absolute bit positions."""
    bits = 0
    for val, p in zip(word, positions):
        if val:
            bits |= 1 << p
    return bits


def _extract(word: int, positions) -> Word:
    return tuple((word >> p) & 1 for p in positions)


def _compile_block(rows, info: _RangeInfo) -> _CompiledBlock:
    """Rows as (A bits, B bits, kind, event label, expanded id applied to A);
    the A-held row, if any, becomes the block's extra row."""
    if rows is None:
        return _DEGRADED
    alias_rows, cum, extra = [], [], None
    acc = 0.0
    for row in rows:
        label = f"staircase-{row.index}" if row.kind != "diag" else "diagonal"
        compiled = (_pack(row.a_word, info.positions), _pack(row.b_word, info.positions),
                    row.kind, label, info.eids[row.a_map] if row.a_map is not None else None)
        if row.a_map is None:
            if extra is not None:
                raise PropertyViolation("more than one held-side row in a block")
            extra = (compiled, float(row.rate))
        else:
            acc += float(row.rate)
            alias_rows.append(compiled)
            cum.append(acc)
    if not math.isclose(acc, info.Z, rel_tol=1e-9, abs_tol=1e-12):
        raise PropertyViolation(f"block rows sum to {acc}, expected Z = {info.Z}")
    return _CompiledBlock(tuple(alias_rows), tuple(cum), acc,
                          extra[0] if extra else None, extra[1] if extra else 0.0)


class _Tables:
    """One block rule on one family: the range index and the block tables,
    compiled on first use and keyed by (range id, A & mask, B & mask).

    ``rule`` is "recurrent" (two-discrepancy rows on ranges holding every
    discrepancy), or "strict" / "relaxed" (general rows on ranges holding any
    discrepancy).
    """

    def __init__(self, fam: RateFamily, rule: str):
        comp = _compiled(fam)
        lat = fam.lattice
        self.fam, self.comp, self.rule = fam, comp, rule
        self.every = rule == "recurrent"  # a block needs every discrepancy, not any
        by_range: dict = {}
        for e, perm in enumerate(comp.perms):
            by_range.setdefault(perm.range_sites, []).append(e)
        self.ranges: List[_RangeInfo] = []
        self.range_of_eid = [0] * len(comp.perms)
        self.ranges_at: List[List[_RangeInfo]] = [[] for _ in range(lat.n_sites)]  # by bit
        for rid, (R, eids) in enumerate(sorted(by_range.items(), key=lambda kv: sorted(kv[0]))):
            order = tuple(canonical_range_order(R, lat))
            positions = tuple(lat.index(s) for s in order)
            mask = sum(1 << p for p in positions)
            info = _RangeInfo(rid, mask, order, positions,
                              {comp.perms[e]: float(comp.rates[e]) for e in eids},
                              {comp.perms[e]: e for e in eids})
            self.ranges.append(info)
            for e in eids:
                self.range_of_eid[e] = rid
            for p in positions:
                self.ranges_at[p].append(info)
        self._blocks: Dict[Tuple[int, int, int], _CompiledBlock] = {}

    def block(self, info: _RangeInfo, Aw: int, Bw: int) -> _CompiledBlock:
        key = (info.rid, Aw & info.mask, Bw & info.mask)
        blk = self._blocks.get(key)
        if blk is None:
            blk = self._blocks[key] = self._compile(
                info, _extract(Aw, info.positions), _extract(Bw, info.positions))
        return blk

    def _compile(self, info: _RangeInfo, a: Word, b: Word) -> _CompiledBlock:
        lat = self.fam.lattice
        try:
            if self.rule == "recurrent":
                rows = recurrent_block_rows(info.members, info.order, a, b, lat)
            else:
                rows = general_block_rows(info.members, info.order, a, b, lat,
                                          strict=self.rule == "strict")
            return _compile_block(rows, info)
        except PropertyViolation as exc:
            raise PropertyViolation(
                f"{exc} (family {family_hash(self.fam)[:12]}, range {list(info.order)}, "
                f"a={a}, b={b})") from exc


@lru_cache(maxsize=32)
def _tables(fam: RateFamily, rule: str) -> _Tables:
    return _Tables(fam, rule)


def _couple(A0, B0, fam, T, seed, rule, stop_at_couple, record_history) -> CouplingResult:
    """The coupled event loop behind both engines.

    Both copies fire the same expanded permutation, except on ranges that hold
    a block: there the rule's table fires (its A-held row as an extra clock).
    Asserted on every event while A != B: D never increases and the
    particle-count gap A - B is constant; on block and degraded events: the
    two discrepancy types never both increase on the fired range; throughout:
    A >= B if it held at the start.  Once A = B (from the start, or after the
    coupling event without ``stop_at_couple``) the pair is one configuration
    process: ``process._advance`` runs it to T, every event labelled
    off-range, and its per-event particle-count check guards those events.
    """
    tab = _tables(fam, rule)
    comp, ranges, ranges_at, range_of_eid, block, every = (
        tab.comp, tab.ranges, tab.ranges_at, tab.range_of_eid, tab.block, tab.every)
    buf = DrawBuffer(substream(seed))
    a_marginal = [0] * len(comp.perms)
    counters = {"events": 0, "block_events": 0, "stair_events": 0, "merges": 0, "swaps": 0,
                "block_diag": 0, "extra_events": 0, "degraded_ranges": 0}
    degraded = set()  # distinct degraded blocks met in this run
    history: List[CouplingEvent] = []
    Aw, Bw = A0.word, B0.word
    gap = Aw.bit_count() - Bw.bit_count()
    dominance = (Bw & ~Aw) == 0
    t, T_couple, n = 0.0, None, 0
    while Aw != Bw:
        diff = Aw ^ Bw
        # a range holds a block when it meets diff and covers ``need``: every
        # discrepancy under the two-discrepancy rule, any one (need = 0) otherwise
        need = diff if every else 0
        X = 0.0
        live: List[Tuple[_RangeInfo, _CompiledBlock]] = []
        # ranges holding every discrepancy all hold the lowest one
        for info in ranges_at[(diff & -diff).bit_length() - 1] if every else ranges:
            if info.mask & diff and info.mask & need == need:
                blk = block(info, Aw, Bw)
                if blk.extra is not None:
                    live.append((info, blk))
                    X += blk.extra_rate
                elif blk is _DEGRADED:
                    degraded.add((info.rid, Aw & info.mask, Bw & info.mask))
        total = comp.Q_tot + X
        t += buf.std_exponential() / total
        if t > T:
            break
        D_before = diff.bit_count()
        u = buf.uniform() * total
        if u < X:
            acc = 0.0
            info, blk = live[-1]
            for cand in live:
                acc += cand[1].extra_rate
                if u < acc:
                    info, blk = cand
                    break
            row = blk.extra
        else:
            e = comp.alias.draw_u((u - X) / comp.Q_tot)
            info = ranges[range_of_eid[e]]
            blk = block(info, Aw, Bw) if info.mask & diff and info.mask & need == need else None
            row = None
            if blk is not None and blk is not _DEGRADED:
                row = blk.alias_rows[bisect_right(blk.cum, buf.uniform() * blk.Z)]
        if blk is not None:
            dp_r = (Aw & ~Bw & info.mask).bit_count()
            dm_r = (Bw & ~Aw & info.mask).bit_count()
        if row is None:
            # off-range, or degraded by relaxed closure: the same permutation on both
            Aw = permute_bits(comp.pairs[e], comp.masks[e], Aw)
            Bw = permute_bits(comp.pairs[e], comp.masks[e], Bw)
            a_marginal[e] += 1
            if blk is None:
                label = "off-range"
            else:
                label = "diagonal"
                counters["block_diag"] += 1
        else:
            bits_a, bits_b, kind, label, eid_a = row
            Aw = (Aw & ~info.mask) | bits_a
            Bw = (Bw & ~info.mask) | bits_b
            if eid_a is not None:
                a_marginal[eid_a] += 1
            counters["block_events"] += 1
            counters["extra_events"] += int(row is blk.extra)
            if kind == "diag":
                counters["block_diag"] += 1
            else:
                counters["stair_events"] += 1
                counters["merges"] += int(bits_a == bits_b)
                counters["swaps"] += int(kind == "swap")
        dp, dm = Aw & ~Bw, Bw & ~Aw
        D_after = (dp | dm).bit_count()
        n += 1
        if D_after > D_before:
            raise _violation(f"discrepancy count increased {D_before} -> {D_after}",
                             fam, seed, t=t, event=n)
        if dp.bit_count() - dm.bit_count() != gap:
            raise _violation(f"particle-count gap A - B changed from {gap}", fam, seed, t=t, event=n)
        if blk is not None and ((dp & info.mask).bit_count() > dp_r
                                and (dm & info.mask).bit_count() > dm_r):
            raise _violation("both discrepancy types increased on the fired range",
                             fam, seed, t=t, event=n)
        if dominance and dm:
            raise _violation("initial dominance A >= B was lost", fam, seed, t=t, event=n)
        if record_history:
            history.append(CouplingEvent(t, label, info.rid, D_before, D_after))
        if not D_after:
            T_couple = t
            if stop_at_couple:
                break
    else:  # A = B, reached or given: one configuration process from here
        fired = np.zeros(len(a_marginal), dtype=np.int64)

        def tail(eids, times):
            fired[:] += np.bincount(eids, minlength=len(fired))
            if record_history:
                history.extend(CouplingEvent(te, "off-range", range_of_eid[e], 0, 0)
                               for te, e in zip(times.tolist(), eids.tolist()))

        Aw, k = _advance(comp, Aw, t, T, buf, fam, seed, n, tail)
        Bw = Aw
        n += k
        a_marginal = [a + c for a, c in zip(a_marginal, fired.tolist())]

    counters["events"] = n
    counters["degraded_ranges"] = len(degraded)
    counters["a_marginal"] = a_marginal
    lat = fam.lattice
    final = CoupledState(Configuration(lat, Aw), Configuration(lat, Bw))
    return CouplingResult(tuple(history), final, Aw == Bw, T_couple, counters)


def run_recurrent_coupling(
    A0: Configuration,
    B0: Configuration,
    fam: RateFamily,
    T: float,
    seed: int,
    stop_at_couple: bool = False,
    record_history: bool = True,
) -> CouplingResult:
    """Two-discrepancy coupling: both copies evolve together except on ranges
    holding both discrepancies, where the merging table fires.  The
    discrepancy count lives in {0, 2} and never increases (asserted)."""
    require_simulatable(fam)
    if not check_range_closure(fam, mode="strict").passed:
        raise NotRangeClosed("two-discrepancy coupling needs strict range closure")
    if A0.lattice != fam.lattice or B0.lattice != fam.lattice:
        raise BadInitial("initial configurations must live on the family lattice")
    dp, dm = A0.word & ~B0.word, B0.word & ~A0.word
    if dp.bit_count() != 1 or dm.bit_count() != 1:
        raise BadInitial(
            "need exactly one discrepancy of each type, got "
            f"{dp.bit_count()} over-occupied and {dm.bit_count()} under-occupied"
        )
    return _couple(A0, B0, fam, T, seed, "recurrent", stop_at_couple, record_history)


def run_general_coupling(
    A0: Configuration,
    B0: Configuration,
    fam: RateFamily,
    T: float,
    seed: int,
    closure: str = "strict",
    stop_at_couple: bool = False,
    record_history: bool = True,
) -> CouplingResult:
    """Discrepancy-monotone coupling for arbitrary initial pairs.

    Ranges where the two restrictions agree evolve diagonally; the rest fire
    the staircase-plus-residuals table for the majority side.  D never
    increases and the per-range type counts never both increase (asserted)."""
    require_simulatable(fam)
    if closure not in ("strict", "relaxed"):
        raise ValueError("closure policy must be 'strict' or 'relaxed'")
    if not check_range_closure(fam, mode=closure).passed:
        raise NotRangeClosed(f"family fails {closure} range closure")
    if A0.lattice != fam.lattice or B0.lattice != fam.lattice:
        raise BadInitial("initial configurations must live on the family lattice")
    return _couple(A0, B0, fam, T, seed, closure, stop_at_couple, record_history)


def write_coupling_csv(result: CouplingResult, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("time,kind,range_id,D_before,D_after\n")
        for ev in result.history:
            fh.write(f"{ev.t!r},{ev.kind},{ev.range_id},{ev.D_before},{ev.D_after}\n")


# ---------------------------------------------------------------------------
# exhaustive small-range lemmas

@dataclass(frozen=True)
class LemmaReport:
    name: str
    max_range: int
    n_checked: int
    n_boundary: int
    passed: bool
    failures: Tuple[str, ...]

    def to_dict(self) -> dict:
        return {"name": self.name, "max_range": self.max_range,
                "n_checked": self.n_checked, "n_boundary": self.n_boundary,
                "passed": self.passed, "failures": list(self.failures)}


def _words(r: int):
    for w in range(1 << r):
        yield tuple((w >> i) & 1 for i in range(r))


def lemma_cover_existence(max_range: int) -> LemmaReport:
    """Exhaustively verify when a cyclic cover exists and that selection picks
    the first candidate in canonical order.

    A dominating cycle (sigma(a) >= b) exists for every pair with
    popcount(a) >= popcount(b) except a == b non-constant; an exact cover
    (sigma(a) == b) exists for every equal-popcount pair differing at exactly
    two positions.
    """
    if not 2 <= max_range <= 5:
        raise ValueError("max_range must lie in 2..5")
    checked = boundary = 0
    failures: List[str] = []
    for r in range(2, max_range + 1):
        R = [(i,) for i in range(r)]
        cands = enumerate_cyclic(R)
        for a in _words(r):
            for b in _words(r):
                if sum(a) < sum(b):
                    continue
                checked += 1
                hits = [s for s in cands
                        if all(x >= y for x, y in zip(word_apply(s, R, a), b))]
                is_boundary = a == b and 0 < sum(a) < r
                boundary += int(is_boundary)
                if bool(hits) == is_boundary:
                    failures.append(f"dominating cover existence wrong at r={r} a={a} b={b}")
                    continue
                if hits:
                    if select_sigma_general(R, a, b) != hits[0]:
                        failures.append(f"selection not first-in-order at r={r} a={a} b={b}")
                else:
                    try:
                        select_sigma_general(R, a, b)
                        failures.append(f"NoCover not raised at r={r} a={a} b={b}")
                    except NoCover:
                        pass
                if sum(a) == sum(b) and sum(x != y for x, y in zip(a, b)) == 2:
                    exact = [s for s in cands if word_apply(s, R, a) == b]
                    if not exact:
                        failures.append(f"no exact cover at r={r} a={a} b={b}")
                    elif select_sigma_two_discrepancy(R, a, b) != exact[0]:
                        failures.append(f"two-discrepancy selection not first at r={r} a={a} b={b}")
    return LemmaReport("cover_existence", max_range, checked, boundary,
                       not failures, tuple(failures))


def lemma_D_monotone(max_range: int) -> LemmaReport:
    """Exhaustively verify that one staircase step never increases the
    discrepancy count, decreases it strictly when both types are present,
    and preserves it exactly when the annihilating type is absent."""
    if not 2 <= max_range <= 5:
        raise ValueError("max_range must lie in 2..5")
    checked = boundary = 0
    failures: List[str] = []
    for r in range(2, max_range + 1):
        R = [(i,) for i in range(r)]
        for a in _words(r):
            for b in _words(r):
                for major_a in (True, False):
                    hi, lo = (a, b) if major_a else (b, a)
                    if sum(hi) < sum(lo):
                        continue
                    checked += 1
                    if a == b and 0 < sum(a) < r:
                        boundary += 1
                        continue
                    sigma = select_sigma_general(R, hi, lo)
                    moved = word_apply(sigma, R, hi)
                    na, nb = (moved, b) if major_a else (a, moved)
                    D0 = sum(x != y for x, y in zip(a, b))
                    D1 = sum(x != y for x, y in zip(na, nb))
                    dplus = sum(x == 1 and y == 0 for x, y in zip(a, b))
                    dminus = sum(x == 0 and y == 1 for x, y in zip(a, b))
                    annihilating = dminus if major_a else dplus
                    if D1 > D0:
                        failures.append(f"D increased at r={r} a={a} b={b} major_a={major_a}")
                    if dplus and dminus and D1 >= D0:
                        failures.append(f"no strict drop at r={r} a={a} b={b} major_a={major_a}")
                    if (D1 == D0) != (annihilating == 0):
                        failures.append(f"equality law wrong at r={r} a={a} b={b} major_a={major_a}")
    return LemmaReport("D_monotone", max_range, checked, boundary,
                       not failures, tuple(failures))


# ---------------------------------------------------------------------------
# empirical cancellation bound

@dataclass(frozen=True)
class SuccessBoundReport:
    n_runs: int
    n_block_events: int
    n_merges: int
    fraction: float
    bound: float
    sigma: float
    passed: bool

    def to_dict(self) -> dict:
        return {"n_runs": self.n_runs, "n_block_events": self.n_block_events,
                "n_merges": self.n_merges, "fraction": self.fraction,
                "bound": self.bound, "sigma": self.sigma, "passed": self.passed}


def success_bound_check(fam: RateFamily, n: int, seed: int, T: float = 100.0) -> SuccessBoundReport:
    """Empirical merge share at both-discrepancy events versus the derangement
    bound 1 / (P(M_I) * M_II), over n two-discrepancy coupling runs."""
    from .process import sample_product

    report = require_simulatable(fam)
    if fam.dimension > 2:
        raise ValueError("cancellation bound runs are for d <= 2 families")
    if report.M_II is None:
        raise NotRangeClosed("cancellation bound needs strict range closure")
    if not fam.lattice.is_torus:
        raise ValueError("cancellation bound runs need a torus")
    bound = 1.0 / (derangement_count(report.M_I) * report.M_II)
    lat = fam.lattice
    first_range = sorted(fam.base[0][0].range_sites)
    u, v = first_range[0], first_range[1]
    u_i, v_i = lat.index(lat.wrap(u)), lat.index(lat.wrap(v))
    events = merges = 0
    for i in range(n):
        eta = sample_product(0.5, lat, seed + 1000003 * i + 1)
        Aw = (eta.word | (1 << u_i)) & ~(1 << v_i)
        Bw = (eta.word | (1 << v_i)) & ~(1 << u_i)
        res = run_recurrent_coupling(
            Configuration(lat, Aw), Configuration(lat, Bw), fam, T,
            seed=seed + 2000003 * i, stop_at_couple=True, record_history=False,
        )
        events += res.counters["block_events"]
        merges += res.counters["merges"]
    fraction = merges / events if events else 0.0
    sigma = math.sqrt(max(fraction * (1 - fraction), 1e-12) / events) if events else float("inf")
    passed = events > 0 and fraction >= bound - 3 * sigma
    return SuccessBoundReport(n, events, merges, fraction, bound, sigma, passed)
