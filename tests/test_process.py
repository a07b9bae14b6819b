import copy
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permuta as P
from conftest import axis_three_cycles_3d, swaps, three_cycles
from permuta import coupling, process
from permuta.process import _compiled, _site_clocks, permute_bits
from permuta.sampling import DrawBuffer, substream


def test_configuration_accessors():
    lat = P.Lattice.torus([6])
    eta = P.Configuration.from_sites(lat, [(0,), (2,), (5,)])
    assert eta.word == 0b100101
    assert eta.particle_count == 3
    assert eta.occupied((2,)) and not eta.occupied((1,))
    assert set(eta.occupied_sites()) == {(0,), (2,), (5,)}
    assert P.Configuration.empty(lat).word == 0
    assert P.Configuration.full(lat).particle_count == 6


def scalar_config(word, fam, T, seed, block=1024):
    """Reference: the configuration process one event at a time, one Exp(1)
    and one uniform per event.

    Returns (final word, [(t, expanded id)])."""
    comp = _compiled(fam)
    buf = DrawBuffer(substream(seed), block=block)
    t, fired = 0.0, []
    while True:
        t += buf.std_exponential() / comp.Q_tot
        if t > T:
            return word, fired
        e = comp.alias.draw_u(buf.uniform())
        word = permute_bits(comp.pairs[e], comp.masks[e], word)
        fired.append((t, e))


@pytest.mark.parametrize("fam, T", [
    (three_cycles(8), 0.0),
    (three_cycles(8), 7.3),
    (three_cycles(8), 300.0),  # 4800 events: four refills of 1024 draws
    (three_cycles(20), 150.0),
    (three_cycles(20, rate=0.7, rate_inverse=1.9), 90.0),  # Q_tot = 52, not a power of two
    (three_cycles(9, rate=1.0, rate_inverse=3.0), 40.0),
], ids=["L8-T0", "L8-T7.3", "L8-T300", "L20-T150", "mixed-L20-T90", "mixed-L9-T40"])
def test_run_config_equals_scalar_reference(fam, T):
    comp = _compiled(fam)
    for seed in (1, 2, 3):
        eta0 = P.sample_product(0.5, fam.lattice, seed + 50)
        word, fired = scalar_config(eta0.word, fam, T, seed)
        traj = P.run_config(eta0, fam, T, seed)
        assert traj.terminal.word == word
        assert traj.n_events == len(fired)
        assert traj.events == tuple((t, comp.base_idx[e], comp.shifts[e]) for t, e in fired)
        bare = P.run_config(eta0, fam, T, seed, record_events=False)
        assert (bare.terminal.word, bare.n_events, bare.events) == (word, len(fired), ())


@pytest.mark.parametrize("fam", [three_cycles(8), three_cycles(20, rate=0.7, rate_inverse=1.9)],
                         ids=["L8", "mixed-L20"])
def test_coupled_start_equals_scalar_reference(fam):
    # A0 == B0: the coupling is one configuration process from the start
    comp = _compiled(fam)
    for seed in (4, 5):
        eta0 = P.sample_product(0.5, fam.lattice, seed)
        word, fired = scalar_config(eta0.word, fam, 300.0, seed, block=4096)
        res = P.run_general_coupling(eta0, eta0, fam, 300.0, seed)
        assert res.final.A.word == res.final.B.word == word
        assert res.counters["a_marginal"] == np.bincount(
            [e for _, e in fired], minlength=len(comp.perms)).tolist()
        assert res.counters["events"] == len(fired) > 4096


class FixedDraws:
    """Stands in for a DrawBuffer holding one block of given draws."""

    def __init__(self, e, u):
        self.e, self.u = np.array(e), np.array(u)

    def arrivals(self, t, T, rate, cap):
        times = t + np.cumsum(self.e[:cap] / rate)
        return times, self.u[:int(times.searchsorted(T, side="right"))]

    def consume(self, k):
        raise AssertionError("the horizon ends inside the block")


def test_coupled_tail_picks_ids_as_run_config(monkeypatch):
    fam = three_cycles(20, rate=0.7, rate_inverse=1.9)  # Q_tot = 52
    comp = _compiled(fam)
    u = 0.04999999999999999  # (u Q_tot) / Q_tot is one ulp off u and picks another permutation
    want = comp.alias.draw_u(u)
    assert want != comp.alias.draw_u((u * comp.Q_tot) / comp.Q_tot)
    for module in (process, coupling):  # one event before T = 1
        monkeypatch.setattr(module, "DrawBuffer", lambda *args, **kwargs: FixedDraws([0.1, 100.0], [u, 0.5]))
    eta0 = P.Configuration(fam.lattice, 0b111)
    traj = P.run_config(eta0, fam, 1.0, 1)
    assert traj.events == ((0.1 / comp.Q_tot, comp.base_idx[want], comp.shifts[want]),)
    res = P.run_general_coupling(eta0, eta0, fam, 1.0, 1)  # A = B: the coupled tail alone
    assert res.counters["a_marginal"] == [int(e == want) for e in range(len(comp.perms))]


@settings(max_examples=40, deadline=None)
@given(block=st.integers(1, 6), rate=st.floats(0.1, 50.0), plan=st.lists(st.one_of(
    st.integers(1, 9), st.just("u"),
    st.tuples(st.integers(1, 9), st.floats(-0.5, 1.5), st.floats(0.0, 1.0))), max_size=12))
def test_draw_buffer_block_reads_keep_scalar_order(block, rate, plan):
    """Chunks of arrivals mixed with scalar reads give the values of the
    same exponential / uniform alternation read one draw at a time.

    A plan step is k scalar (exponential, uniform) pairs, one scalar uniform
    ("u"), or a chunk (cap, T as a share of cap / rate past t, share of the
    arrivals at or before T consumed) read as the event kernels do: at least
    the first arrival before T is consumed, and the arrival past T is read
    with ``std_exponential`` when the kernel stops there."""
    buf, ref = DrawBuffer(substream(9), block=block), DrawBuffer(substream(9), block=block)
    t = 0.0
    for step in plan:
        if step == "u":
            assert buf.uniform() == ref.uniform()
            continue
        if isinstance(step, int):
            for _ in range(step):
                assert (buf.std_exponential(), buf.uniform()) == (ref.std_exponential(), ref.uniform())
            continue
        cap, horizon, share = step
        T = t + horizon * cap / rate
        times, u = buf.arrivals(t, T, rate, cap)
        m, k = len(times), len(u)
        assert 1 <= m <= cap and k == int((times <= T).sum())
        peek, s = copy.deepcopy(ref), t
        for j, tj in enumerate(times.tolist()):  # every arrival offered, read one at a time
            s += peek.std_exponential() / rate
            uj = peek.uniform()
            assert tj == s and (j >= k or u[j] == uj)
        used = min(k, 1 + int(share * k))
        buf.consume(used)
        for _ in range(used):
            ref.std_exponential()
            ref.uniform()
        if used == k < m:
            assert buf.std_exponential() == ref.std_exponential()  # the arrival past T
        t = float(times[used - 1]) if used else t
    with pytest.raises(ValueError):
        buf.consume(block + 1)


def test_sample_product_extremes():
    lat = P.Lattice.torus([10])
    assert P.sample_product(0.0, lat, 1).word == 0
    assert P.sample_product(1.0, lat, 1).particle_count == 10


def test_sample_product_density():
    lat = P.Lattice.torus([12])
    counts = [P.sample_product(0.3, lat, s).particle_count for s in range(400)]
    mean = sum(counts) / len(counts)
    se = math.sqrt(12 * 0.3 * 0.7 / len(counts))
    assert abs(mean - 3.6) < 4 * se


def test_run_config_deterministic(fam8):
    eta0 = P.sample_product(0.5, fam8.lattice, 3)
    t1 = P.run_config(eta0, fam8, 5.0, 42)
    t2 = P.run_config(eta0, fam8, 5.0, 42)
    assert t1.events == t2.events
    assert t1.terminal == t2.terminal
    t3 = P.run_config(eta0, fam8, 5.0, 43)
    assert t3.events != t1.events


def test_run_config_conserves_particles(fam8):
    for seed in range(5):
        eta0 = P.sample_product(0.5, fam8.lattice, seed)
        traj = P.run_config(eta0, fam8, 10.0, 100 + seed)
        assert traj.terminal.particle_count == eta0.particle_count
        assert traj.n_events == len(traj.events)
        times = [t for t, _, _ in traj.events]
        assert times == sorted(times)
        assert all(0 < t <= 10.0 for t in times)


def test_run_config_zero_horizon(fam8):
    eta0 = P.sample_product(0.5, fam8.lattice, 1)
    traj = P.run_config(eta0, fam8, 0.0, 5)
    assert traj.n_events == 0
    assert traj.terminal == eta0


def test_event_count_matches_total_rate(fam8):
    # events arrive at rate Q_tot regardless of the configuration
    Q_tot = 16.0
    T = 2.0
    n = 300
    eta0 = P.sample_product(0.5, fam8.lattice, 7)
    counts = [P.run_config(eta0, fam8, T, 500 + s).n_events for s in range(n)]
    mean = sum(counts) / n
    se = math.sqrt(Q_tot * T / n)
    assert abs(mean - Q_tot * T) < 4 * se


def test_first_jump_distribution_matches_enumeration(fam8):
    """Single particle at 0: first word change against the exact jump law."""
    lat = fam8.lattice
    eta0 = P.Configuration(lat, 1)
    targets = {}
    for sig, q in P.expand(fam8):
        moved = P.apply(sig, eta0).word
        if moved != eta0.word:
            targets[moved] = targets.get(moved, 0.0) + q
    total = sum(targets.values())

    n = 4000
    hits = {w: 0 for w in targets}
    for s in range(n):
        traj = P.run_config(eta0, fam8, 3.0, 9000 + s)
        for _, b, v in traj.events:
            sig = fam8.base[b][0].shifted(v, lat)
            w2 = P.apply(sig, eta0).word
            if w2 != eta0.word:
                hits[w2] += 1
                break
        else:
            pytest.fail("horizon too short to observe a jump")
    for w, q in targets.items():
        p = q / total
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hits[w] / n - p) < 4 * se


def test_permute_bits_matches_site_action(fam8):
    """The one bit kernel, on an int64 array of all L=8 words and on Python
    ints for L=64 (bit 63 rules out int64), against the site-level action."""
    comp = _compiled(fam8)
    words = np.arange(256, dtype=np.int64)
    for sigma, pairs, mask in zip(comp.perms, comp.pairs, comp.masks):
        ref = [P.apply(sigma, P.Configuration(fam8.lattice, w)).word for w in range(256)]
        assert permute_bits(pairs, mask, words).tolist() == ref
    fam64 = three_cycles(64)
    comp = _compiled(fam64)
    rng = random.Random(11)
    for _ in range(10):
        w = rng.getrandbits(64) | (1 << 63)
        for sigma, pairs, mask in zip(comp.perms, comp.pairs, comp.masks):
            ref = P.apply(sigma, P.Configuration(fam64.lattice, w)).word
            assert permute_bits(pairs, mask, w) == ref


def test_run_finite_conserves_set_size(fam8):
    A0 = P.DualState.of(fam8.lattice, [(0,), (1,), (4,)])
    for seed in range(5):
        traj = P.run_finite(A0, fam8, 5.0, 40 + seed)
        assert isinstance(traj.terminal, P.DualState)
        assert len(traj.terminal.sites) == 3


def test_run_finite_deterministic(fam8):
    A0 = P.DualState.of(fam8.lattice, [(0,), (3,)])
    t1 = P.run_finite(A0, fam8, 5.0, 8)
    t2 = P.run_finite(A0, fam8, 5.0, 8)
    assert t1.terminal == t2.terminal
    assert t1.events == t2.events


def test_run_finite_on_unbounded_lattice():
    fam = three_cycles()
    A0 = P.DualState.of(fam.lattice, [(0,), (1,)])
    traj = P.run_finite(A0, fam, 3.0, 2)
    assert len(traj.terminal.sites) == 2


def scalar_finite(A0, fam, T, seed, record_events=True):
    """Reference ``run_finite``: the set process one ring at a time, one
    Exp(1) and, before T, one uniform per ring."""
    clocks = _site_clocks(fam)
    lat = fam.lattice
    buf = DrawBuffer(substream(seed), block=1024)
    slots = sorted(A0.sites)
    slot_of = {x: i for i, x in enumerate(slots)}
    rate = len(slots) * clocks.M_PL
    t, events, n = 0.0, [], 0
    while slots:
        t += buf.std_exponential() / rate
        if t > T:
            break
        scaled = buf.uniform() * len(slots)  # the slot that rang, then its anchor
        i = int(scaled)
        b, r = clocks.anchors[clocks.alias.draw_u(scaled - i)]
        v = lat.wrap(tuple(a - c for a, c in zip(slots[i], r)))
        covered = [slot_of[y] for y in (lat.shift(x, v) for x in clocks.ranges[b]) if y in slot_of]
        if min(covered) != i:
            continue
        for j in covered:
            del slot_of[slots[j]]
        for j in covered:
            slots[j] = clocks.apply_point(b, v, slots[j])
            slot_of[slots[j]] = j
        n += 1
        if record_events:
            events.append((t, b, v))
    return P.Trajectory(seed, T, tuple(events), P.DualState(lat, frozenset(slots)), n)


@pytest.mark.parametrize("fam, A, T", [
    (three_cycles(), [(0,), (1,), (5,)], 40.0),
    (three_cycles(), [(k,) for k in range(0, 60, 3)], 20.0),  # 2400 rings: three 1024-draw blocks
    (axis_three_cycles_3d(), [(0, 0, 0), (1, 0, 0), (0, 2, -1), (3, 3, 3)], 10.0),
    (three_cycles(12, rate=0.7, rate_inverse=1.9), [(0,), (2,), (3,), (9,)], 40.0),
    (swaps(3, 4), [(0, 0), (0, 1), (2, 3)], 20.0),
], ids=["Z", "Z-20pts", "Z3", "mixed-L12", "swaps3x4"])
def test_run_finite_equals_scalar_reference(fam, A, T):
    A0 = P.DualState.of(fam.lattice, A)
    for seed, horizon in ((1, T), (2, 0.0), (3, -1.0)):
        for record in (True, False):
            assert P.run_finite(A0, fam, horizon, seed, record) == scalar_finite(A0, fam, horizon, seed, record)


@pytest.mark.parametrize("dims, A, T", [((8,), [(0,), (1,), (4,)], 2.0), ((), [(0,), (1,)], 3.0)])
def test_run_finite_first_event_law(dims, A, T):
    """First fired event: (b, v) with law q_b / sum q over the expanded
    permutations whose range meets A, at the mean time 1 / sum q."""
    fam = three_cycles(*dims)
    lat = fam.lattice
    shifts = lat.sites() if lat.is_torus else [(v,) for v in range(-6, 8)]
    meets = {}
    for v in shifts:
        for b, (perm, q) in enumerate(fam.base):
            if perm.shifted(v, lat).range_sites & set(A):
                meets[(b, v)] = q
    total = sum(meets.values())
    n = 4000
    hits = {key: 0 for key in meets}
    t_sum = 0.0
    A0 = P.DualState.of(lat, A)
    for s in range(n):
        t, b, v = P.run_finite(A0, fam, T, 700 + s).events[0]
        hits[(b, v)] += 1  # a KeyError means a permutation missing A fired
        t_sum += t
    for key, q in meets.items():
        p = q / total
        assert abs(hits[key] / n - p) < 4 * math.sqrt(p * (1 - p) / n), key
    assert abs(t_sum / n - 1 / total) < 4 * (1 / total) / math.sqrt(n)


def test_event_duality_matches_exact(fam8):
    eta0 = P.Configuration(fam8.lattice, 0b00101101)
    A = [(0,), (1,), (3,)]
    lhs, rhs = P.duality_exact(fam8, eta0, A, 1.0)
    est_l, est_r = P.duality_mc(eta0, A, fam8, 1.0, 4000, 44, engine="event")
    assert abs(est_l.mean - lhs) <= 3 * est_l.std_error
    assert abs(est_r.mean - rhs) <= 3 * est_r.std_error


def test_violation_carries_replay_context(monkeypatch, fam8):
    def leaky(pairs, mask, words):
        return permute_bits(pairs, mask, words) & ~1  # loses the particle at site 0

    monkeypatch.setattr(process, "permute_bits", leaky)
    with pytest.raises(P.PropertyViolation) as exc:
        P.run_config(P.Configuration.full(fam8.lattice), fam8, 5.0, 17)
    msg = str(exc.value)
    assert "seed=17" in msg and "event=1" in msg
    assert P.family_hash(fam8)[:12] in msg


def test_event_duality_violation_names_replica_and_side(monkeypatch, fam8):
    eta0 = P.Configuration(fam8.lattice, 0b00101101)

    def leaky(pairs, mask, words):
        out = permute_bits(pairs, mask, words)
        return out & (out - 1)  # loses the lowest particle

    with monkeypatch.context() as m:
        m.setattr(process, "permute_bits", leaky)
        with pytest.raises(P.PropertyViolation, match=r"lhs side, replica=0\)"):
            P.duality_mc(eta0, [(0,), (1,)], fam8, 1.0, 5, 3, engine="event")

    clocks = process._site_clocks(fam8)
    monkeypatch.setattr(clocks, "apply_point", lambda b, v, x: (0,))  # merges the dual set
    with pytest.raises(P.PropertyViolation, match=r"rhs side, replica=0\)") as exc:
        P.duality_mc(eta0, [(0,), (1,)], fam8, 1.0, 5, 3, engine="event")
    assert "dual support size changed" in str(exc.value)


def test_duality_mc_product_initial(fam8):
    # product measures are stationary, so both sides sit at rho^{|A|}
    rho = 0.5
    A = [(0,), (2,), (5,)]
    lhs, rhs = P.duality_mc(rho, A, fam8, 1.0, 20000, 11)
    target = rho ** 3
    assert abs(lhs.mean - target) < 3 * lhs.std_error + 1e-12
    assert abs(rhs.mean - target) < 3 * rhs.std_error + 1e-12


def test_duality_mc_engines_agree(fam8):
    eta0 = P.Configuration(fam8.lattice, 0b00101101)
    A = [(0,), (1,)]
    v_l, v_r = P.duality_mc(eta0, A, fam8, 1.0, 20000, 21, engine="vector")
    e_l, e_r = P.duality_mc(eta0, A, fam8, 1.0, 5000, 22, engine="event")
    for a, b in [(v_l, e_l), (v_r, e_r)]:
        se = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) < 3 * se


def test_event_duality_validates_family_once():
    P.validate_family.cache_clear()
    P.duality_mc(0.5, [(0,), (2,)], three_cycles(8), 1.0, 200, 3, engine="event")
    assert P.validate_family.cache_info().misses == 1
    # failures are not cached: an invalid family raises on every call
    empty = P.RateFamily(P.Lattice.torus([6]), ())
    for _ in range(2):
        with pytest.raises(P.InvalidFamily):
            P.validate_family(empty)


def test_duality_mc_rejects_asymmetric():
    fam = three_cycles(8, rate=1.0, rate_inverse=2.0)
    with pytest.raises(P.NotSymmetric):
        P.duality_mc(0.5, [(0,)], fam, 1.0, 10, 1)


def test_duality_mc_bad_engine(fam8):
    with pytest.raises(ValueError):
        P.duality_mc(0.5, [(0,)], fam8, 1.0, 10, 1, engine="magic")


def test_estimate_from_bernoulli():
    e = P.Estimate.from_bernoulli(25, 100)
    assert e.mean == 0.25
    assert e.n_samples == 100
    # sample variance with the n-1 correction
    assert abs(e.std_error - math.sqrt(0.25 * 0.75 / 99)) < 1e-12
    with pytest.raises(ValueError):
        P.Estimate.from_bernoulli(0, 0)


def test_trajectory_csv(tmp_path, fam8):
    eta0 = P.sample_product(0.5, fam8.lattice, 3)
    traj = P.run_config(eta0, fam8, 2.0, 4)
    path = tmp_path / "traj.csv"
    P.write_trajectory_csv(traj, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "time,perm_id,shift,popcount"
    assert len(lines) == traj.n_events + 1
    pops = {int(row.rsplit(",", 1)[1]) for row in lines[1:]}
    assert pops <= {eta0.particle_count}
