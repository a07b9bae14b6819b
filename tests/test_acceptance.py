"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ACCEPTANCE line and enforces its wall-clock budget.
Statistical checks pin their seeds; tolerances are stated inline.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

import permuta as P
from conftest import SLOW, discrepancy_pair, one_way_three_cycles, three_cycles
from permuta.cli import main as cli_main
from permuta.process import _compiled


def _report(n, ok, dt, budget):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s of {budget:.0f}s budget)")
    assert ok
    assert dt < budget


def test_criterion_01_worked_constants():
    t0 = time.time()
    fam = three_cycles(8)
    rep = P.validate_family(fam)
    ok = (
        rep.M_PL == 6.0
        and rep.M_I == 3
        and rep.M_II == 1.0
        and all(mz == (1.0, 2.0) for mz in P.range_stats(fam).values())
        and P.z_d(fam, (0,), (1,)) == 4.0
    )
    _report(1, ok, time.time() - t0, 1.0)


def test_criterion_02_merge_fraction():
    t0 = time.time()
    fam = three_cycles(8)
    lat = fam.lattice
    merges = blocks = 0
    i = 0
    while blocks < 10_000:
        A0, B0 = discrepancy_pair(lat, 20_000 + i)
        res = P.run_recurrent_coupling(
            A0, B0, fam, 500.0, 30_000 + i, stop_at_couple=True, record_history=False
        )
        blocks += res.counters["block_events"]
        merges += res.counters["merges"]
        i += 1
    frac = merges / blocks
    sigma = math.sqrt(0.25 / blocks)
    ok = abs(frac - 0.5) <= 3 * sigma
    dt = time.time() - t0
    print(f"    merge fraction {frac:.4f} over {blocks} block events (3 sigma = {3 * sigma:.4f})")
    _report(2, ok, dt, 60.0)


def test_criterion_03_derangement_routes():
    t0 = time.time()
    ok = P.derangement_count(3) == 2
    for n in range(2, 13):
        a = P.derangement_count(n)
        b = P.derangement_count_inclusion_exclusion(n)
        ok = ok and a == b
        if n <= 8:
            brute = len(P.enumerate_derangements([(i,) for i in range(n)]))
            ok = ok and a == brute
    _report(3, ok, time.time() - t0, 10.0)


def test_criterion_04_product_stationarity():
    t0 = time.time()
    ok = True
    for fam in [three_cycles(12), three_cycles(12, rate=1.0, rate_inverse=2.7)]:
        G = P.build_generator(fam)
        for rho in [0.0, 0.3, 0.5, 1.0]:
            nu = P.product_measure_vector(rho, 12)
            ok = ok and P.stationarity_residual(nu, G) <= 1e-12
        Q = G.dense()
        for n in [1, 4, 6, 11]:
            sec = P.sector_stationary(G, n)
            ok = ok and np.abs(sec.probs - 1.0 / sec.probs.size).max() <= 1e-9
            Qsec = Q[np.ix_(sec.words, sec.words)]
            uniform = np.full(sec.probs.size, 1.0 / sec.probs.size)
            ok = ok and float(np.abs(uniform @ Qsec).max()) <= 1e-12
    _report(4, ok, time.time() - t0, 30.0)


def test_criterion_05_duality():
    t0 = time.time()
    fam = three_cycles(8)
    eta0 = P.Configuration(fam.lattice, 0b00101101)
    ok = True
    for A in [[(0,)], [(0,), (1,)], [(0,), (1,), (3,)]]:
        for t in [0.1, 1.0, 10.0]:
            lhs, rhs = P.duality_exact(fam, eta0, A, t)
            ok = ok and abs(lhs - rhs) <= 1e-9
    A = [(0,), (1,), (3,)]
    lhs, rhs = P.duality_exact(fam, eta0, A, 1.0)
    est_l, est_r = P.duality_mc(eta0, A, fam, 1.0, 100_000, 40)
    ok = ok and abs(est_l.mean - lhs) <= 3 * est_l.std_error
    ok = ok and abs(est_r.mean - rhs) <= 3 * est_r.std_error
    _report(5, ok, time.time() - t0, 300.0)


def test_criterion_06_recurrent_coupling_success():
    t0 = time.time()
    fam = three_cycles(20)
    lat = fam.lattice
    coupled = 0
    n = 1000
    for i in range(n):
        A0, B0 = discrepancy_pair(lat, 60_000 + i)
        keep = i < 100  # rescan a subsample's history on top of engine guards
        res = P.run_recurrent_coupling(
            A0, B0, fam, 500.0, 70_000 + i, stop_at_couple=True, record_history=keep
        )
        coupled += int(res.coupled)
        if keep:
            d = 2
            for ev in res.history:
                assert ev.D_after <= ev.D_before == d
                d = ev.D_after
    ok = coupled >= 990
    dt = time.time() - t0
    print(f"    coupled {coupled}/{n} runs by horizon 500")
    _report(6, ok, dt, 120.0)


def test_criterion_07_lemma_sweeps():
    t0 = time.time()
    r = 5 if SLOW else 4
    cover = P.lemma_cover_existence(r)
    mono = P.lemma_D_monotone(r)
    ok = cover.passed and mono.passed and cover.n_checked > 0 and mono.n_checked > 0
    _report(7, ok, time.time() - t0, 1200.0 if SLOW else 60.0)


def test_criterion_08_meeting_inequalities():
    t0 = time.time()
    fam = three_cycles()  # unbounded Z
    g = P.estimate_g(((0,), (5,)), fam, 200.0, 10_000, 80)
    report = P.check_g_inequalities(g, P.validate_family(fam))
    ok = report.passed and report.factor == 0.5
    ok = ok and g.gbarbar2.mean >= g.gbar2.mean - 3 * math.hypot(
        g.gbarbar2.std_error, g.gbar2.std_error
    )
    ok = ok and g.gbarbar2.mean >= g.g2.mean
    # recurrent setup: all three meeting estimates approach one
    fam20 = three_cycles(20)
    g20 = P.estimate_g(((0,), (1,)), fam20, 500.0, 10_000, 81)
    ok = ok and min(g20.g2.mean, g20.gbar2.mean, g20.gbarbar2.mean) > 0.99
    dt = time.time() - t0
    print(
        f"    unbounded: g2 {g.g2.mean:.4f}  gbar2 {g.gbar2.mean:.4f}  "
        f"gbarbar2 {g.gbarbar2.mean:.4f}; torus floor {min(g20.g2.mean, g20.gbar2.mean, g20.gbarbar2.mean):.4f}"
    )
    _report(8, ok, dt, 300.0)


def test_criterion_09_marginal_conservation():
    t0 = time.time()
    fam = three_cycles(8)
    lat = fam.lattice
    comp = _compiled(fam)
    n_eids = len(comp.perms)
    qs = np.asarray(comp.rates)
    T, runs = 5.0, 500
    Ttot = T * runs

    counts = {"recurrent": np.zeros(n_eids), "general": np.zeros(n_eids)}
    for i in range(runs):
        A0, B0 = discrepancy_pair(lat, 90_000 + i)
        rec = P.run_recurrent_coupling(A0, B0, fam, T, 91_000 + i, record_history=False)
        counts["recurrent"] += np.asarray(rec.counters["a_marginal"])
        gen = P.run_general_coupling(A0, B0, fam, T, 92_000 + i, record_history=False)
        counts["general"] += np.asarray(gen.counters["a_marginal"])

    key_to_eid = {
        (comp.base_idx[e], tuple(comp.shifts[e])): e for e in range(n_eids)
    }
    plain = np.zeros(n_eids)
    for i in range(runs):
        A0, _ = discrepancy_pair(lat, 90_000 + i)
        traj = P.run_config(A0, fam, T, 93_000 + i)
        for _, b, v in traj.events:
            plain[key_to_eid[(b, tuple(v))]] += 1

    ok = True
    for name, cnt in counts.items():
        z_theory = np.abs(cnt - qs * Ttot) / np.sqrt(qs * Ttot)
        pooled = (cnt + plain) / (2 * Ttot)
        z_two = np.abs(cnt - plain) / np.sqrt(pooled * 2 * Ttot)
        ok = ok and z_theory.max() < 4.0 and z_two.max() < 4.0

    # symbolic side: table rows resum to each q(sigma) exactly
    R = [(0,), (1,), (2,)]
    order = P.canonical_range_order(R, lat)
    for fam_sym in [fam, three_cycles(8, rate=1.0, rate_inverse=3.0)]:
        members = {
            sig: q for sig, q in P.expand(fam_sym) if sig.range_sites == frozenset(R)
        }
        for rows in [
            P.recurrent_block_rows(members, order, (1, 1, 0), (1, 0, 1), lat),
            P.general_block_rows(members, order, (1, 1, 0), (1, 0, 1), lat),
        ]:
            for side in ("a", "b"):
                for sig, q in members.items():
                    got = sum(
                        Fraction(r.rate)
                        for r in rows
                        if (r.a_map if side == "a" else r.b_map) == sig
                    )
                    ok = ok and got == Fraction(q)
    _report(9, ok, time.time() - t0, 60.0)


def test_criterion_10_deterministic_records(tmp_path):
    t0 = time.time()
    fam_file = "tests/data/three_cycles_L8.json"
    blobs = []
    for rerun in range(2):
        out = tmp_path / f"d_{rerun}.jsonl"
        rc = cli_main(
            [
                "dual-check", "--family", fam_file, "--seed", "101",
                "--time", "0.5", "--samples", "500", "--sites", "0,2",
                "--engine", "event", "--out", str(out),
            ]
        )
        assert rc == 0
        blobs.append(out.read_bytes())
    ok = len(set(blobs)) == 1

    blobs = []
    for rerun in range(2):
        out = tmp_path / f"g_{rerun}.jsonl"
        rc = cli_main(
            [
                "couple", "triple", "--family", fam_file, "--seed", "102",
                "--samples", "200", "--horizon", "20.0", "--sites", "0,1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        blobs.append(out.read_bytes())
    ok = ok and len(set(blobs)) == 1
    _report(10, ok, time.time() - t0, 60.0)
