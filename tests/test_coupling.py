import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import permuta as P
from permuta import coupling, process
from permuta.process import _site_clocks, permute_bits
from permuta.sampling import DrawBuffer, substream
from conftest import (
    axis_three_cycles_3d,
    discrepancy_pair,
    one_way_three_cycles,
    slow,
    swaps,
    three_cycles,
)


def range_members(fam, R):
    return {sig: q for sig, q in P.expand(fam) if sig.range_sites == frozenset(R)}


def marginal_sums(rows, members, side):
    """Total rate each member permutation is applied to one side of the pair."""
    sums = {sig: Fraction(0) for sig in members}
    none_mass = Fraction(0)
    for row in rows:
        sig = row.a_map if side == "a" else row.b_map
        if sig is None:
            none_mass += Fraction(row.rate)
        else:
            sums[sig] += Fraction(row.rate)
    return sums, none_mass


# ---------------------------------------------------------------------------
# block tables


def test_recurrent_rows_worked_picture(fam6):
    """3-range holding one discrepancy of each sign: one merge, one swap."""
    R = [(0,), (1,), (2,)]
    members = range_members(fam6, R)
    order = P.canonical_range_order(R, fam6.lattice)
    a, b = (1, 1, 0), (1, 0, 1)
    rows = P.recurrent_block_rows(members, order, a, b, fam6.lattice)
    assert len(rows) == 2
    kinds = sorted(r.kind for r in rows)
    assert kinds == ["merge", "swap"]
    for r in rows:
        assert r.rate == 1.0
        assert P.word_apply(r.a_map, order, a) == r.a_word
        assert P.word_apply(r.b_map, order, b) == r.b_word
    merge = next(r for r in rows if r.kind == "merge")
    swap = next(r for r in rows if r.kind == "swap")
    assert merge.a_word == merge.b_word
    assert (swap.a_word, swap.b_word) == (b, a)
    # mass equals Z, so merges carry exactly half of it here
    assert sum(r.rate for r in rows) == 2.0


def test_recurrent_rows_merge_share_is_half(fam6):
    """Any placement of opposite discrepancies in a 3-range splits mass 50/50."""
    R = [(0,), (1,), (2,)]
    members = range_members(fam6, R)
    order = P.canonical_range_order(R, fam6.lattice)
    pairs = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for base in [(0, 0, 0), (1, 1, 1)]:
                a = list(base)
                b = list(base)
                a[i], b[i] = 1, 0
                a[j], b[j] = 0, 1
                if sum(a) in (0, 3) or sum(b) in (0, 3):
                    continue
                pairs.append((tuple(a), tuple(b)))
    assert pairs
    for a, b in pairs:
        rows = P.recurrent_block_rows(members, order, a, b, fam6.lattice)
        merge_mass = sum(r.rate for r in rows if r.kind == "merge")
        total = sum(r.rate for r in rows)
        assert total == 2.0
        assert merge_mass / total == 0.5


def test_recurrent_rows_two_site_range():
    """Swap ranges degenerate: both one-sided moves produce a merge."""
    fam = swaps(6)
    R = [(0,), (1,)]
    members = range_members(fam, R)
    order = P.canonical_range_order(R, fam.lattice)
    rows = P.recurrent_block_rows(members, order, (1, 0), (0, 1), fam.lattice)
    assert len(rows) == 2
    assert all(r.kind == "merge" for r in rows)
    assert all(r.rate == 1.0 for r in rows)
    sides = sorted((r.a_map is None, r.b_map is None) for r in rows)
    assert sides == [(False, True), (True, False)]
    for r in rows:
        assert r.a_word == r.b_word


def test_recurrent_rows_missing_power_raises():
    fam = one_way_three_cycles(6)
    R = [(0,), (1,), (2,)]
    members = range_members(fam, R)
    order = P.canonical_range_order(R, fam.lattice)
    with pytest.raises(P.NotRangeClosed):
        P.recurrent_block_rows(members, order, (1, 1, 0), (1, 0, 1), fam.lattice)


def test_general_rows_worked_picture(fam6):
    R = [(0,), (1,), (2,)]
    members = range_members(fam6, R)
    order = P.canonical_range_order(R, fam6.lattice)
    a, b = (1, 1, 0), (1, 0, 1)
    rows = P.general_block_rows(members, order, a, b, fam6.lattice)
    assert rows is not None
    # exactly one row leaves A untouched; it backs the extra clock
    nones = [r for r in rows if r.a_map is None]
    assert len(nones) == 1
    for r in rows:
        moved_a = a if r.a_map is None else P.word_apply(r.a_map, order, a)
        moved_b = b if r.b_map is None else P.word_apply(r.b_map, order, b)
        assert (moved_a, moved_b) == (r.a_word, r.b_word)
        d_after = sum(x != y for x, y in zip(moved_a, moved_b))
        assert d_after <= 2


def test_general_rows_relaxed_returns_none_on_missing_power():
    lat = P.Lattice.torus([8])
    R = [(i,) for i in range(4)]
    fam = P.RateFamily(lat, tuple((s, 1.0) for s in P.enumerate_cyclic(R)))
    members = range_members(fam, R)
    order = P.canonical_range_order(R, lat)
    a, b = (1, 1, 0, 0), (0, 1, 1, 0)
    assert P.general_block_rows(members, order, a, b, lat, strict=False) is None
    with pytest.raises((P.NotRangeClosed, P.PropertyViolation)):
        P.general_block_rows(members, order, a, b, lat, strict=True)


@pytest.mark.parametrize("rate_inverse", [None, 3.0])
@pytest.mark.parametrize("builder", ["recurrent", "general"])
def test_marginal_sums_reproduce_rates(rate_inverse, builder):
    """Row rates grouped by the map applied to either side recover q(sigma)."""
    fam = three_cycles(6, rate=1.0, rate_inverse=rate_inverse)
    R = [(0,), (1,), (2,)]
    members = range_members(fam, R)
    order = P.canonical_range_order(R, fam.lattice)
    Z = Fraction(sum(Fraction(q) for q in members.values()))
    for a, b in [((1, 1, 0), (1, 0, 1)), ((0, 1, 1), (1, 1, 0)), ((1, 0, 0), (0, 0, 1))]:
        if builder == "recurrent":
            if sum(x != y for x, y in zip(a, b)) != 2:
                continue
            rows = P.recurrent_block_rows(members, order, a, b, fam.lattice)
        else:
            rows = P.general_block_rows(members, order, a, b, fam.lattice)
        assert rows is not None
        total = sum(Fraction(r.rate) for r in rows)
        for side in ("a", "b"):
            sums, none_mass = marginal_sums(rows, members, side)
            for sig, q in members.items():
                assert sums[sig] == Fraction(q)
            assert none_mass == total - Z
        # alias mass Z plus at most one extra row
        extras = [r for r in rows if r.a_map is None]
        assert len(extras) <= 1
        assert total == Z + sum(Fraction(r.rate) for r in extras)


def test_marginal_sums_two_site_range():
    fam = swaps(6)
    R = [(0,), (1,)]
    members = range_members(fam, R)
    order = P.canonical_range_order(R, fam.lattice)
    rows = P.recurrent_block_rows(members, order, (1, 0), (0, 1), fam.lattice)
    for side in ("a", "b"):
        sums, none_mass = marginal_sums(rows, members, side)
        (sig, q), = members.items()
        assert sums[sig] == Fraction(q)
        assert none_mass == Fraction(q)


# ---------------------------------------------------------------------------
# triple construction


def test_run_triple_shared_until_decoupling():
    fam = three_cycles()
    decoupled_runs = 0
    for seed in range(50):
        res = P.run_triple(((0,), (2,)), fam, 3.0, seed)
        dec_seen = False
        for state in res.history:
            if not state.decoupled:
                assert state.I == state.J == state.E
                assert not dec_seen
            else:
                dec_seen = True
                assert state.T_dec is not None
        decoupled_runs += int(dec_seen)
        for ev in res.events:
            assert ev.covers in (1, 2, 3)
            assert ev.label in (1, 2)
    # E, I and J events only exist after decoupling, so their labels are checked
    assert decoupled_runs > 0


def test_run_triple_deterministic():
    fam = three_cycles()
    r1 = P.run_triple(((0,), (3,)), fam, 4.0, 11)
    r2 = P.run_triple(((0,), (3,)), fam, 4.0, 11)
    assert r1.events == r2.events
    assert r1.final == r2.final


def test_run_triple_rejects_equal_points():
    fam = three_cycles()
    with pytest.raises(ValueError):
        P.run_triple(((0,), (0,)), fam, 1.0, 1)


def test_far_pair_sees_two_independent_clocks():
    """Points far apart: 6q each, so the first arrival comes at rate 12q."""
    fam = three_cycles()
    n = 1500
    first = []
    for s in range(n):
        res = P.run_triple(((0,), (50,)), fam, 1.0, 3000 + s)
        assert all(ev.covers != 3 for ev in res.events)
        assert not res.final.decoupled
        if res.events:
            first.append(res.events[0].t)
    cut = [t for t in first if t is not None]
    assert len(cut) > n * 0.99
    mean = sum(cut) / len(cut)
    se = (1 / 12) / math.sqrt(len(cut))
    assert abs(mean - 1 / 12) < 4 * se


def _pair_reference(fam, p1, p2):
    """Law of the pair clocks' next arrival: every expanded permutation
    covering p1 or p2, weighted q * |R & {p1, p2}|, keyed (bidx, v, covers)."""
    lat = fam.lattice
    weights = {}
    for p in (p1, p2):
        for b, (perm, q) in enumerate(fam.base):
            for r in perm.range_sites:
                v = lat.wrap(tuple(a - c for a, c in zip(p, r)))
                rng = {lat.shift(s, v) for s in perm.range_sites}
                weights[(b, v, (p1 in rng) | ((p2 in rng) << 1))] = q * ((p1 in rng) + (p2 in rng))
    return weights


@pytest.mark.parametrize("fam, p2", [
    (three_cycles(), (1,)), (three_cycles(), (2,)), (three_cycles(), (5,)),
    (three_cycles(8), (7,)), (axis_three_cycles_3d(), (1, 0, 0)),
])
def test_next_arrival_first_arrival_law(fam, p2):
    p1 = (0,) * fam.dimension
    ref = _pair_reference(fam, p1, p2)
    total = sum(ref.values())
    assert total == 2 * P.compute_M_PL(fam)
    sc = _site_clocks(fam)
    lat = fam.lattice
    buf = DrawBuffer(substream(61))
    s0 = np.array([p1, np.subtract(p2, p1)])
    n = 20000
    hits = {key: 0 for key in ref}
    both = label1 = 0
    t_sum = 0.0
    seen = []

    def sink(rule, times, lab, anchor, path):
        seen.extend(zip(times.tolist(), lab.tolist(), anchor.tolist(),
                        sc.both[lab, sc.sep_index(path[:-1, 1]), anchor].tolist(),
                        path[1:].tolist()))

    for _ in range(n):
        # a horizon at the first arrival's time: the walk settles that arrival alone
        T = buf.arrivals(0.0, 0.0, 2 * sc.M_PL, 1)[0][0]
        seen.clear()
        coupling._walk(sc, buf, 0.0, T, s0, "I", False, sink)
        (t, lab, a, cover, (q1, dq)), = seen
        bidx, r = sc.anchors[a]
        v = lat.wrap(tuple(c - d for c, d in zip((p1, p2)[lab], r)))
        covers = 3 if cover else 1 << lab
        # the clock that rang moves its own point only (rule I)
        moved = sc.apply_point(bidx, v, (p1, p2)[lab])
        assert (lat.wrap(q1), lat.shift(q1, dq)) == ((moved, p2) if lab == 0 else (p1, moved))
        hits[(bidx, v, covers)] += 1
        t_sum += t
        if covers == 3:
            both += 1
            label1 += int(lab == 0)
    for key, w in ref.items():
        p = w / total
        assert abs(hits[key] / n - p) < 4 * math.sqrt(p * (1 - p) / n), key
    assert abs(t_sum / n - 1 / total) < 4 * (1 / total) / math.sqrt(n)
    if both:
        assert abs(label1 / both - 0.5) < 4 * math.sqrt(0.25 / both)


def _scalar_arrival(clocks, pair, t, T, buf):
    """Reference: the next ring of the two points' site clocks, one draw at a
    time: (t, None) past T, else (t, (base, shift, covers, label))."""
    t += buf.std_exponential() / (2 * clocks.M_PL)
    if t > T:
        return t, None
    scaled = buf.uniform() * 2  # the point whose clock rang, then its anchor
    i = int(scaled)
    b, r = clocks.anchors[clocks.alias.draw_u(scaled - i)]
    lat = clocks.lat
    v = lat.wrap(tuple(a - c for a, c in zip(pair[i], r)))
    covers = sum(1 << k for k, x in enumerate(pair)
                 if lat.wrap(tuple(a - c for a, c in zip(x, v))) in clocks.ranges[b])
    return t, (b, v, covers, i + 1)


def scalar_walk(clocks, pair, t, T, buf, rule, stop, sink=None):
    """Reference: one rule of the triple one arrival at a time, the loops the
    block kernel replaced.  Returns (t_hit, pair, both-cover arrivals, E
    acts, decoupling arrival) with t_hit as ``coupling._walk`` defines it."""
    t_hit = t if rule == "I" and pair[0] == pair[1] else None
    both = acts = 0
    if t_hit is not None and stop:
        return t_hit, pair, both, acts, None
    while True:
        t, hit = _scalar_arrival(clocks, pair, t, T, buf)
        if hit is None:
            return t_hit, pair, both, acts, None
        b, v, covers, label = hit
        act = None
        if covers == 3 and rule != "I":
            both += 1
            if rule == "shared":
                return t, pair, both, acts, (b, v, label)
            act = rule == "J" or label == 1
            if act:
                acts += 1
                pair = tuple(clocks.apply_point(b, v, x) for x in pair)
                t_hit = t if t_hit is None else t_hit
        else:
            moved = clocks.apply_point(b, v, pair[label - 1])
            pair = (moved, pair[1]) if label == 1 else (pair[0], moved)
        if sink is not None:
            sink(coupling.TripleEvent(t, rule, covers, label, act if rule == "E" else None), pair)
        if rule == "I" and t_hit is None and pair[0] == pair[1]:
            t_hit = t
        if t_hit is not None and stop:
            return t_hit, pair, both, acts, None


def _scalar_decouple(clocks, pair, arrival):
    b, v, label = arrival
    j_pair = tuple(clocks.apply_point(b, v, x) for x in pair)
    moved = clocks.apply_point(b, v, pair[label - 1])
    i_pair = (moved, pair[1]) if label == 1 else (pair[0], moved)
    return i_pair, j_pair, j_pair if label == 1 else pair


def scalar_triple(x, fam, T, seed):
    """Reference ``run_triple``: (events, history, final, counters)."""
    clocks = _site_clocks(fam)
    buf = DrawBuffer(substream(seed))
    lat = fam.lattice
    events, history = [], []

    def shared(ev, p):
        events.append(ev)
        history.append(P.TripleState(p, p, p, False, None))
    pair = (lat.wrap(x[0]), lat.wrap(x[1]))
    T_dec, pair, _, _, arrival = scalar_walk(clocks, pair, 0.0, T, buf, "shared", True, shared)
    counters = {"shared_events": len(events), "both_cover_arrivals": 0,
                "e_acted": 0, "i_met": 0, "e_jumped": 0, "j_jumped": 0}
    if arrival is None:
        return events, history, P.TripleState(pair, pair, pair, False, None), counters
    pairs = dict(zip("IJE", _scalar_decouple(clocks, pair, arrival)))
    e_acted = arrival[2] == 1
    events.append(coupling.TripleEvent(T_dec, "shared", 3, arrival[2], e_acted))
    history.append(P.TripleState(*pairs.values(), True, T_dec))
    timeline, final = [], {}
    out = {}
    for proc in "IJE":
        out[proc] = scalar_walk(clocks, pairs[proc], T_dec, T, buf, proc, False,
                                lambda ev, p: timeline.append((ev, p)))
        final[proc] = out[proc][1]
    counters.update(both_cover_arrivals=1 + out["E"][2], e_acted=int(e_acted) + out["E"][3],
                    i_met=int(out["I"][0] is not None), j_jumped=1,
                    e_jumped=int(e_acted or out["E"][0] is not None))
    timeline.sort(key=lambda item: item[0].t)
    for ev, p in timeline:
        events.append(ev)
        pairs[ev.process] = p
        history.append(P.TripleState(*pairs.values(), True, T_dec))
    return events, history, P.TripleState(*final.values(), True, T_dec), counters


def scalar_g(x, fam, T, n, seed):
    """Reference ``estimate_g(...).to_dict()``."""
    clocks = _site_clocks(fam)
    lat = fam.lattice
    ci = ce = cj = arrivals = acted = i_wo_e = 0
    for i in range(n):
        buf = DrawBuffer(substream(seed, i), block=1024)
        pair = (lat.wrap(x[0]), lat.wrap(x[1]))
        t, pair, _, _, arrival = scalar_walk(clocks, pair, 0.0, T, buf, "shared", True)
        if arrival is None:
            continue
        i_pair, _, e_pair = _scalar_decouple(clocks, pair, arrival)
        hit_e = int(arrival[2] == 1)
        arrivals, acted, cj = arrivals + 1, acted + hit_e, cj + 1
        if not hit_e:
            t_jump, _, arr, act, _ = scalar_walk(clocks, e_pair, t, T, buf, "E", True)
            hit_e, arrivals, acted = int(t_jump is not None), arrivals + arr, acted + act
        hit_i = int(scalar_walk(clocks, i_pair, t, T, buf, "I", True)[0] is not None)
        ci, ce, i_wo_e = ci + hit_i, ce + hit_e, i_wo_e + int(hit_i and not hit_e)
    est = {name: {"mean": e.mean, "std_error": e.std_error, "n": e.n_samples} for name, e in
           (("g2", P.Estimate.from_bernoulli(ci, n)), ("gbar2", P.Estimate.from_bernoulli(ce, n)),
            ("gbarbar2", P.Estimate.from_bernoulli(cj, n)))}
    return {**est, "horizon": T, "n_runs": n, "both_cover_arrivals": arrivals, "e_acted": acted,
            "runs_I_without_E": i_wo_e}


TRIPLE_CASES = [
    (three_cycles(), ((0,), (1,)), 40.0, 60),
    (three_cycles(), ((0,), (2,)), 40.0, 60),
    (three_cycles(), ((0,), (5,)), 200.0, 40),
    (axis_three_cycles_3d(), ((0, 0, 0), (1, 0, 0)), 10.0, 30),
    (three_cycles(8), ((0,), (1,)), 100.0, 200),
    (three_cycles(20), ((3,), (-2,)), 150.0, 100),
    (three_cycles(9, rate=1.0, rate_inverse=3.0), ((0,), (2,)), 60.0, 100),
    (three_cycles(rate=0.7, rate_inverse=1.9), ((0,), (4,)), 60.0, 60),
    (three_cycles(), ((0,), (1,)), 0.0, 20),
    (three_cycles(), ((0,), (5,)), 0.7, 100),  # ends inside the first chunk
    (three_cycles(), ((0,), (5,)), 250.0, 20),  # long runs refill 1024-draw blocks often
]
TRIPLE_IDS = ["Z-sep1", "Z-sep2", "Z-sep5", "Z3", "L8", "L20", "mixed-L9", "mixed-Z",
              "T0", "T-mid-chunk", "T-refills"]


@pytest.mark.parametrize("fam, x, T, n", TRIPLE_CASES, ids=TRIPLE_IDS)
def test_estimate_g_equals_scalar_reference(fam, x, T, n):
    assert P.estimate_g(x, fam, T, n, 13).to_dict() == scalar_g(x, fam, T, n, 13)


@pytest.mark.parametrize("fam, x, T, n", TRIPLE_CASES, ids=TRIPLE_IDS)
def test_run_triple_equals_scalar_reference(fam, x, T, n):
    for seed in (1, 2, 3):
        events, history, final, counters = scalar_triple(x, fam, T, seed)
        res = P.run_triple(x, fam, T, seed)
        assert res.events == tuple(events)
        assert res.history == tuple(history)
        assert (res.final, res.counters) == (final, counters)
        bare = P.run_triple(x, fam, T, seed, record_history=False)
        assert (bare.events, bare.history, bare.final) == (res.events, (), final)


@pytest.mark.parametrize("fam", [three_cycles(8), three_cycles(), axis_three_cycles_3d(), swaps(3, 4)],
                         ids=["L8", "Z", "Z3", "swaps3x4"])
def test_run_finite_on_two_points_is_the_E_walk(fam):
    """The set process on two sorted points fires a both-cover proposal only
    from the lower point's clock, as the E rule acts on label 1: on the same
    draws both end on the same pair."""
    lat = fam.lattice
    sc = _site_clocks(fam)
    sites = lat.sites() if lat.is_torus else list(itertools.product(range(-3, 4), repeat=lat.dimension))
    for seed in range(50):
        p1, p2 = sorted(random.Random(seed).sample(sites, 2))
        traj = P.run_finite(P.DualState.of(lat, [p1, p2]), fam, 5.0, seed, record_events=False)
        buf = DrawBuffer(substream(seed), block=1024)
        s = coupling._walk(sc, buf, 0.0, 5.0, np.array([p1, np.subtract(p2, p1)]), "E", False)[1]
        assert set(coupling._pairs(lat, s[None])[0]) == traj.terminal.sites


@pytest.fixture
def one_point_jumps(monkeypatch, fam8):
    """The triple table of the L=8 family with every both-point move replaced
    by the ringing point's move alone, so J never moves the other point."""
    sc = _site_clocks(fam8)
    lazy = np.broadcast_to(sc.move1[:, None], sc.move2.shape)
    monkeypatch.setattr(sc, "move2", lazy)
    return fam8


def test_run_triple_violations_carry_replay_context(one_point_jumps):
    fam = one_point_jumps
    messages = {}
    for seed in range(200):
        try:
            P.run_triple(((0,), (1,)), fam, 2.0, seed, record_history=False)
        except P.PropertyViolation as exc:
            messages.setdefault(str(exc).split(" (")[0], (seed, str(exc)))
    assert set(messages) == {"E had a both-point jump before J",
                             "I met before J had a both-point jump"}
    for seed, msg in messages.values():
        assert f"seed={seed})" in msg and P.family_hash(fam)[:12] in msg


def test_estimate_g_violations_carry_replay_context(one_point_jumps):
    fam = one_point_jumps
    messages = {}
    for seed in range(40):
        try:
            P.estimate_g(((0,), (1,)), fam, 2.0, 50, seed)
        except P.PropertyViolation as exc:
            messages.setdefault(str(exc).split(" (")[0], (seed, str(exc)))
    assert set(messages) == {"E had a both-point jump in a run where J had none",
                             "I met in a run where J had no both-point jump"}
    for seed, msg in messages.values():
        assert f"seed={seed}," in msg and P.family_hash(fam)[:12] in msg
        replica = int(re.search(r"replica=(\d+)\)", msg).group(1))
        if replica:
            P.estimate_g(((0,), (1,)), fam, 2.0, replica, seed)  # the runs before it pass
        with pytest.raises(P.PropertyViolation, match=f"replica={replica}"):
            P.estimate_g(((0,), (1,)), fam, 2.0, replica + 1, seed)


def test_triple_state_guards_mismatch():
    with pytest.raises(P.PropertyViolation):
        P.TripleState(
            I=((0,), (1,)), J=((0,), (2,)), E=((0,), (1,)), decoupled=False, T_dec=None
        )


# ---------------------------------------------------------------------------
# meeting estimates


def test_estimate_g_orderings_and_counters():
    fam = three_cycles()
    g = P.estimate_g(((0,), (1,)), fam, 50.0, 1500, 23)
    assert g.n_runs == 1500
    assert g.gbarbar2.mean >= g.gbar2.mean
    assert g.gbarbar2.mean >= g.g2.mean
    assert g.both_cover_arrivals > 0
    assert 0 < g.e_acted < g.both_cover_arrivals
    # fair thinning of the doubled clock
    p = g.e_acted / g.both_cover_arrivals
    se = math.sqrt(0.25 / g.both_cover_arrivals)
    assert abs(p - 0.5) < 4 * se


def test_estimate_g_threads_deterministic():
    fam = three_cycles()
    g1 = P.estimate_g(((0,), (2,)), fam, 20.0, 400, 7)
    g2 = P.estimate_g(((0,), (2,)), fam, 20.0, 400, 7)
    assert g1.to_dict() == g2.to_dict()


def test_check_g_inequalities_recurrent():
    fam = three_cycles()
    g = P.estimate_g(((0,), (1,)), fam, 100.0, 2000, 29)
    report = P.check_g_inequalities(g, P.validate_family(fam))
    assert report.factor == 0.5
    assert report.passed
    for c in report.checks:
        assert c.passed, c.name


def test_check_g_inequalities_needs_M_II():
    fam = three_cycles()
    g = P.estimate_g(((0,), (1,)), fam, 5.0, 50, 3)
    bad = P.validate_family(one_way_three_cycles(6))
    with pytest.raises(ValueError):
        P.check_g_inequalities(g, bad)


def test_estimates_decay_with_separation_3d():
    fam = axis_three_cycles_3d()
    near = P.estimate_g(((0, 0, 0), (1, 0, 0)), fam, 10.0, 250, 41)
    far = P.estimate_g(((0, 0, 0), (5, 0, 0)), fam, 10.0, 250, 43)
    gap = near.gbarbar2.mean - far.gbarbar2.mean
    se = math.hypot(near.gbarbar2.std_error, far.gbarbar2.std_error)
    assert gap > 3 * se


@slow
def test_estimates_decay_with_separation_3d_fine():
    fam = axis_three_cycles_3d()
    means = []
    for i, sep in enumerate([1, 3, 6]):
        g = P.estimate_g(((0, 0, 0), (sep, 0, 0)), fam, 20.0, 600, 50 + i)
        means.append((g.gbarbar2.mean, g.gbarbar2.std_error))
    for (m1, s1), (m2, s2) in zip(means, means[1:]):
        assert m1 - m2 > 3 * math.hypot(s1, s2)


# ---------------------------------------------------------------------------
# lemma sweeps


def test_lemma_cover_existence():
    rep = P.lemma_cover_existence(4)
    assert rep.passed
    assert rep.failures == ()
    assert rep.n_checked >= 200
    assert rep.n_boundary > 0
    assert rep.max_range == 4


def test_lemma_D_monotone():
    rep = P.lemma_D_monotone(4)
    assert rep.passed
    assert rep.failures == ()
    assert rep.n_checked >= 400


def test_lemma_range_bounds():
    for bad in [1, 6]:
        with pytest.raises(ValueError):
            P.lemma_cover_existence(bad)
        with pytest.raises(ValueError):
            P.lemma_D_monotone(bad)


@slow
def test_lemma_sweeps_r5():
    assert P.lemma_cover_existence(5).passed
    assert P.lemma_D_monotone(5).passed


# ---------------------------------------------------------------------------
# recurrent coupling engine


def test_recurrent_coupling_validates_input(fam8):
    lat = fam8.lattice
    A0 = P.sample_product(0.5, lat, 1)
    with pytest.raises(P.BadInitial):
        P.run_recurrent_coupling(A0, A0, fam8, 1.0, 1)
    # two discrepancies of the same sign
    w = A0.word
    occ = [j for j in range(8) if (w >> j) & 1]
    B_same = P.Configuration(lat, w ^ (1 << occ[0]) ^ (1 << occ[1]))
    with pytest.raises(P.BadInitial):
        P.run_recurrent_coupling(A0, B_same, fam8, 1.0, 1)
    other = P.sample_product(0.5, P.Lattice.torus([6]), 1)
    with pytest.raises(P.BadInitial):
        P.run_recurrent_coupling(A0, other, fam8, 1.0, 1)


def test_recurrent_coupling_strict_closure_gate():
    fam = one_way_three_cycles(8)
    A0, B0 = discrepancy_pair(fam.lattice, 3)
    with pytest.raises(P.NotRangeClosed):
        P.run_recurrent_coupling(A0, B0, fam, 1.0, 1)


def test_recurrent_coupling_monotone_and_couples(fam8):
    A0, B0 = discrepancy_pair(fam8.lattice, 5)
    res = P.run_recurrent_coupling(A0, B0, fam8, 500.0, 17)
    assert res.coupled
    assert res.T_couple is not None
    assert res.final.A == res.final.B
    assert res.final.D == 0
    d = 2
    for ev in res.history:
        assert ev.D_before == d
        assert ev.D_after in (0, d)
        d = ev.D_after
    c = res.counters
    assert c["merges"] + c["swaps"] + c["block_diag"] == c["block_events"]
    assert c["merges"] >= 1
    assert sum(c["a_marginal"]) <= c["events"]


def test_recurrent_coupling_stop_at_couple(fam8):
    A0, B0 = discrepancy_pair(fam8.lattice, 9)
    res = P.run_recurrent_coupling(A0, B0, fam8, 500.0, 19, stop_at_couple=True)
    assert res.coupled
    assert res.history[-1].D_after == 0
    assert res.history[-1].t == res.T_couple


def test_recurrent_coupling_deterministic(fam8):
    A0, B0 = discrepancy_pair(fam8.lattice, 21)
    r1 = P.run_recurrent_coupling(A0, B0, fam8, 20.0, 23)
    r2 = P.run_recurrent_coupling(A0, B0, fam8, 20.0, 23)
    assert r1.history == r2.history
    assert r1.final == r2.final


def test_recurrent_coupling_swap_family_always_merges():
    fam = swaps(8)
    A0, B0 = discrepancy_pair(fam.lattice, 33)
    res = P.run_recurrent_coupling(A0, B0, fam, 500.0, 35, stop_at_couple=True)
    assert res.coupled
    assert res.counters["swaps"] == 0


def test_coupled_state_discrepancy_sets(fam8):
    lat = fam8.lattice
    A = P.Configuration(lat, 0b00000111)
    B = P.Configuration(lat, 0b00001101)
    st = P.CoupledState(A, B)
    assert st.Dplus == frozenset({(1,)})
    assert st.Dminus == frozenset({(3,)})
    assert st.D == 2


def test_coupling_csv(tmp_path, fam8):
    A0, B0 = discrepancy_pair(fam8.lattice, 41)
    res = P.run_recurrent_coupling(A0, B0, fam8, 5.0, 43)
    path = tmp_path / "coup.csv"
    P.write_coupling_csv(res, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "time,kind,range_id,D_before,D_after"
    assert len(lines) == len(res.history) + 1


# ---------------------------------------------------------------------------
# general coupling engine


def test_general_coupling_monotone_and_couples(fam8):
    lat = fam8.lattice
    A0 = P.Configuration(lat, 0b00110101)
    B0 = P.Configuration(lat, 0b01011001)  # same count, D = 4
    res = P.run_general_coupling(A0, B0, fam8, 300.0, 51)
    d = P.CoupledState(A0, B0).D
    assert d == 4
    for ev in res.history:
        assert ev.D_after <= ev.D_before <= d
        d = ev.D_after
    assert res.coupled
    assert res.final.A == res.final.B


def test_general_coupling_count_gap_floor(fam8):
    lat = fam8.lattice
    A0 = P.Configuration(lat, 0b00111101)  # 5 particles
    B0 = P.Configuration(lat, 0b00010100)  # 2 particles
    res = P.run_general_coupling(A0, B0, fam8, 100.0, 53)
    assert not res.coupled
    assert res.final.D >= 3  # cannot drop below the count gap
    assert res.final.A.particle_count == 5
    assert res.final.B.particle_count == 2


def test_general_coupling_preserves_dominance(fam8):
    lat = fam8.lattice
    A0 = P.Configuration(lat, 0b01110110)
    B0 = P.Configuration(lat, 0b00100110)  # subset of A0
    res = P.run_general_coupling(A0, B0, fam8, 50.0, 57)
    assert res.final.Dminus == frozenset()
    assert res.final.B.word & ~res.final.A.word == 0


def test_general_coupling_relaxed_degrades():
    lat = P.Lattice.torus([8])
    R = [(i,) for i in range(4)]
    fam = P.RateFamily(lat, tuple((s, 1.0) for s in P.enumerate_cyclic(R)))
    A0 = P.Configuration(lat, 0b00110101)
    B0 = P.Configuration(lat, 0b01011001)
    with pytest.raises(P.NotRangeClosed):
        P.run_general_coupling(A0, B0, fam, 10.0, 61)
    res = P.run_general_coupling(A0, B0, fam, 10.0, 61, closure="relaxed")
    assert res.counters["degraded_ranges"] > 0
    d = P.CoupledState(A0, B0).D
    for ev in res.history:
        assert ev.D_after <= ev.D_before <= d
        d = ev.D_after


def test_general_coupling_deterministic(fam8):
    lat = fam8.lattice
    A0 = P.Configuration(lat, 0b00110101)
    B0 = P.Configuration(lat, 0b01011001)
    r1 = P.run_general_coupling(A0, B0, fam8, 20.0, 63)
    r2 = P.run_general_coupling(A0, B0, fam8, 20.0, 63)
    assert r1.history == r2.history


def relaxed_four_cycles():
    lat = P.Lattice.torus([8])
    R = [(i,) for i in range(4)]
    return P.RateFamily(lat, tuple((s, 1.0) for s in P.enumerate_cyclic(R)))


def test_general_coupling_degraded_count_is_per_run():
    # the block tables are shared across runs; the count is of blocks met in this run
    fam = relaxed_four_cycles()
    A0 = P.Configuration(fam.lattice, 0b00110101)
    B0 = P.Configuration(fam.lattice, 0b01011001)
    r1 = P.run_general_coupling(A0, B0, fam, 10.0, 61, closure="relaxed")
    r2 = P.run_general_coupling(A0, B0, fam, 10.0, 61, closure="relaxed")
    assert r1.counters["degraded_ranges"] == r2.counters["degraded_ranges"] > 0


def test_coupling_engines_share_counters_and_labels(fam8):
    A0, B0 = discrepancy_pair(fam8.lattice, 9)
    rec = P.run_recurrent_coupling(A0, B0, fam8, 50.0, 19)
    gen = P.run_general_coupling(A0, B0, fam8, 50.0, 19)
    assert rec.counters.keys() == gen.counters.keys()
    assert rec.coupled
    assert all(ev.kind == "off-range" for ev in rec.history if ev.D_before == 0)


# ---------------------------------------------------------------------------
# the shared event loop's guards and block compiles


@pytest.fixture
def fresh_tables():
    """Empty block-table cache before and after, so patched builders neither
    see stale tables nor leave bad ones behind."""
    coupling._tables.cache_clear()
    yield
    coupling._tables.cache_clear()


@pytest.mark.parametrize("engine", ["recurrent", "general"])
def test_coupling_guard_carries_replay_context(monkeypatch, fresh_tables, fam8, engine):
    name = f"{engine}_block_rows"
    build = getattr(coupling, name)

    def flipped(*args, **kwargs):
        # every row flips the first bit of the B word: B gains or loses a particle
        return [dataclasses.replace(r, b_word=(1 - r.b_word[0],) + tuple(r.b_word[1:]))
                for r in build(*args, **kwargs)]

    monkeypatch.setattr(coupling, name, flipped)
    lat = fam8.lattice
    with pytest.raises(P.PropertyViolation) as exc:
        if engine == "recurrent":
            A0, B0 = discrepancy_pair(lat, 5)
            P.run_recurrent_coupling(A0, B0, fam8, 500.0, 29)
        else:
            A0, B0 = P.Configuration(lat, 0b00110101), P.Configuration(lat, 0b01011001)
            P.run_general_coupling(A0, B0, fam8, 500.0, 29)
    msg = str(exc.value)
    assert "seed=29" in msg and "event=" in msg
    assert P.family_hash(fam8)[:12] in msg


def test_coupled_tail_checks_particle_count(monkeypatch, fam8):
    # after A = B the pair runs as one configuration process in process._advance
    A0, B0 = discrepancy_pair(fam8.lattice, 5)
    before = P.run_recurrent_coupling(A0, B0, fam8, 500.0, 17, stop_at_couple=True)
    assert before.coupled

    def leaky(pairs, mask, words):
        out = permute_bits(pairs, mask, words)
        return out & (out - 1)  # loses the lowest particle

    monkeypatch.setattr(process, "permute_bits", leaky)
    with pytest.raises(P.PropertyViolation) as exc:
        P.run_recurrent_coupling(A0, B0, fam8, 500.0, 17, record_history=False)
    msg = str(exc.value)
    assert "particle count changed" in msg and "seed=17" in msg
    assert P.family_hash(fam8)[:12] in msg
    assert int(re.search(r"event=(\d+)", msg).group(1)) > before.counters["events"]


@pytest.mark.parametrize("rule", ["recurrent", "strict"])
def test_block_compile_check_carries_replay_context(monkeypatch, fresh_tables, fam8, rule):
    name = "recurrent_block_rows" if rule == "recurrent" else "general_block_rows"
    build = getattr(coupling, name)

    def short(*args, **kwargs):
        rows = build(*args, **kwargs)  # rates no longer sum to Z
        return [dataclasses.replace(rows[0], rate=rows[0].rate / 2)] + rows[1:]

    monkeypatch.setattr(coupling, name, short)
    tab = coupling._tables(fam8, rule)
    info = tab.ranges[0]
    a, b = (1, 1, 0), (1, 0, 1)
    with pytest.raises(P.PropertyViolation) as exc:
        tab.block(info, coupling._pack(a, info.positions), coupling._pack(b, info.positions))
    msg = str(exc.value)
    assert "block rows sum to" in msg
    assert P.family_hash(fam8)[:12] in msg
    assert f"range {list(info.order)}, a={a}, b={b}" in msg


def test_no_cover_on_strict_range_carries_replay_context(monkeypatch, fresh_tables, fam8):
    def no_cover(*args, **kwargs):
        raise P.NoCover("none")

    monkeypatch.setattr(coupling, "select_sigma_general", no_cover)
    tab = coupling._tables(fam8, "strict")
    info = tab.ranges[0]
    with pytest.raises(P.PropertyViolation) as exc:
        tab.block(info, coupling._pack((1, 1, 0), info.positions),
                  coupling._pack((1, 0, 0), info.positions))
    msg = str(exc.value)
    assert "no cyclic cover" in msg and P.family_hash(fam8)[:12] in msg
    assert f"range {list(info.order)}" in msg


def test_success_bound_compiles_blocks_once(monkeypatch, fresh_tables, fam8):
    compile_block = coupling._compile_block
    calls = []

    def counting(rows, info):
        calls.append(info.rid)
        return compile_block(rows, info)

    monkeypatch.setattr(coupling, "_compile_block", counting)
    rep1 = P.success_bound_check(fam8, 50, 7)
    compiled = len(calls)
    assert compiled > 0
    rep2 = P.success_bound_check(fam8, 50, 7)
    assert len(calls) == compiled  # every table of the second call was a cache hit
    assert rep1 == rep2
    assert coupling._tables.cache_info().misses == 1


# ---------------------------------------------------------------------------
# success bound


def test_success_bound_three_cycles():
    rep = P.success_bound_check(three_cycles(8), 400, 71)
    assert rep.bound == 0.5
    assert rep.n_block_events >= rep.n_runs
    assert rep.passed
    assert rep.fraction > rep.bound - 3 * rep.sigma


def test_success_bound_swaps():
    rep = P.success_bound_check(swaps(8), 200, 73)
    assert rep.bound == 1.0
    assert rep.fraction == 1.0
    assert rep.passed


def test_success_bound_mixed_rates():
    rep = P.success_bound_check(three_cycles(8, rate=1.0, rate_inverse=3.0), 300, 79)
    assert rep.bound == pytest.approx(1 / 6)
    assert rep.passed
    assert rep.fraction > 1 / 6


def test_success_bound_validates():
    with pytest.raises(P.NotRangeClosed):
        P.success_bound_check(one_way_three_cycles(8), 10, 1)
    with pytest.raises(ValueError):
        P.success_bound_check(three_cycles(), 10, 1)  # needs a torus
    with pytest.raises(ValueError):
        P.success_bound_check(
            P.nearest_neighbor_swaps(P.Lattice.torus([4, 4, 4])), 10, 1
        )
