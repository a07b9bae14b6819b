"""The benchmark's workloads: their families, their set-up and their tasks.

A task is one checked operation, in most cases the library calls behind one
CLI subcommand made with the arguments the CLI passes, followed by the rule
that command or its tests use to decide pass or fail.  Every layer call goes
through a recorder (see ``tracing``), which logs the work it reported.

All inputs a task receives (engine seeds, initial sets, densities) are drawn
from the workload seed, in a fixed order, so one seed gives one set of
inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import permuta as P
from permuta import exact

DATA = Path(__file__).resolve().parent / "data"

@dataclass(frozen=True)
class Task:
    """One operation: ``fn(recorder, seed)`` makes the calls and returns the verdict.

    A statistical task carries a second seed: a miss of its 3-standard-error
    rule on the first seed is confirmed on the second before it counts as a
    failure.  A task with ``known_defect`` documents an open defect: while it
    raises that exception it is reported apart and not counted as attempted.
    """

    name: str
    fn: Callable[..., bool]
    seeds: Tuple[int, ...] = (0,)
    known_defect: Optional[type] = None


# ---------------------------------------------------------------------------
# families

def axis_three_cycles_3d() -> P.RateFamily:
    """Three-cycles along each axis of unbounded Z^3, both orientations."""
    base = []
    for ax in range(3):
        pts = tuple(tuple(k if i == ax else 0 for i in range(3)) for k in (0, 1, 2))
        sig = P.FinitePermutation((pts,))
        base.append((sig, 1.0))
        base.append((P.inverse(sig), 1.0))
    return P.RateFamily(P.Lattice.unbounded(3), tuple(base))


def _cycles(L: int) -> P.RateFamily:
    return P.consecutive_three_cycles(P.Lattice.torus([L]))


def _one_way_cycles(L: int) -> P.RateFamily:
    """Forward three-cycles only: an asymmetric family."""
    return P.RateFamily(P.Lattice.torus([L]), (_cycles(L).base[0],))


def _swaps(*dims: int) -> P.RateFamily:
    return P.nearest_neighbor_swaps(P.Lattice.torus(list(dims)))


def families(workload: str) -> Dict[str, P.RateFamily]:
    if workload == "cli_defaults":
        return {"L8": P.load_family(str(DATA / "three_cycles_L8.json"))}
    if workload == "sparse_unbounded":
        return {"z1": P.consecutive_three_cycles(P.Lattice.unbounded(1)),
                "z3": axis_three_cycles_3d()}
    if workload == "dense_long":
        return {f"L{L}": _cycles(L) for L in (256, 20, 64, 16, 8)}
    if workload == "exact_oracles":
        fams = {f"L{L}": _cycles(L) for L in (12, 18, 14, 16, 8, 10)}
        fams.update({"swaps3x4": _swaps(3, 4), "swaps4x4": _swaps(4, 4),
                     "L10oneway": _one_way_cycles(10)})
        return fams
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, rec=None) -> Dict[str, P.RateFamily]:
    """Load or build the workload's families and validate each one once."""
    fams = families(workload)
    for fam in fams.values():
        if rec is None:
            P.validate_family(fam)
        else:
            rec.call("rates.validate_family", 1, P.validate_family, fam)
    return fams


# ---------------------------------------------------------------------------
# checked operations (each mirrors a CLI subcommand or a test's rule)

def _n_events(res) -> int:
    return res.counters["events"]


def _validate(rec, seed, fam):
    return rec.call("rates.validate_family", 1, P.validate_family, fam).irreducible


def _simulate(rec, seed, fam, T, rho=0.5):
    eta0 = rec.call("process.sample_product", 1, P.sample_product, rho, fam.lattice, seed + 1)
    traj = rec.call("process.run_config", lambda tr: tr.n_events,
                    P.run_config, eta0, fam, T, seed)
    return (traj.terminal.particle_count == eta0.particle_count
            and traj.n_events == len(traj.events))


def _dual_check(rec, seed, fam, sites, engine, n=1000, t=1.0, rho=0.5):
    """dual-check: the two Monte Carlo sides agree within 3 combined SE."""
    A = P.DualState.of(fam.lattice, sites)
    lhs, rhs = rec.call(f"process.duality_mc.{engine}", 2 * n,
                        P.duality_mc, rho, A, fam, t, n, seed, engine=engine)
    return abs(lhs.mean - rhs.mean) <= 3 * math.hypot(lhs.std_error, rhs.std_error)


def _dual_closed_form(rec, seed, fam, sites, n, t=1.0, rho=0.5):
    """Both vector-engine sides lie within 3 SE of the closed form rho^|A|."""
    A = P.DualState.of(fam.lattice, sites)
    lhs, rhs = rec.call("process.duality_mc.vector", 2 * n,
                        P.duality_mc, rho, A, fam, t, n, seed, engine="vector")
    target = rho ** len(A.sites)
    return all(abs(e.mean - target) <= 3 * e.std_error for e in (lhs, rhs))


def _couple_triple(rec, seed, fam, pts, T, n, variant):
    g = rec.call(f"coupling.estimate_g.{variant}", n, P.estimate_g, pts, fam, T, n, seed)
    report = rec.call("rates.validate_family", 1, P.validate_family, fam)
    return rec.call("coupling.check_g_inequalities", 1,
                    P.check_g_inequalities, g, report).passed


def _couple_recurrent(rec, seed, fam, disc, n, T, rho=0.5):
    """couple recurrent --discrepancies: n runs, each keeping D in {0, 2}."""
    lat = fam.lattice
    u, v = lat.index(lat.wrap(disc[0])), lat.index(lat.wrap(disc[1]))
    ok = True
    for i in range(n):
        eta = rec.call("process.sample_product", 1,
                       P.sample_product, rho, lat, seed + 1000003 * i + 1)
        A0 = P.Configuration(lat, (eta.word | (1 << u)) & ~(1 << v))
        B0 = P.Configuration(lat, (eta.word | (1 << v)) & ~(1 << u))
        res = rec.call("coupling.run_recurrent_coupling", _n_events,
                       P.run_recurrent_coupling, A0, B0, fam, T, seed + 2 * i,
                       stop_at_couple=False, record_history=False)
        ok = ok and res.final.D == (0 if res.coupled else 2)
    return ok


def _couple_general(rec, seed, fam, A0, B0, T):
    """couple general: D never grows, each side keeps its particle count."""
    res = rec.call("coupling.run_general_coupling", _n_events,
                   P.run_general_coupling, A0, B0, fam, T, seed,
                   closure="strict", record_history=False)
    fin = res.final
    return (fin.D <= (A0.word ^ B0.word).bit_count()
            and (fin.D == 0 or not res.coupled)
            and fin.A.particle_count == A0.particle_count
            and fin.B.particle_count == B0.particle_count)


def _couple_lemmas(rec, seed, max_range=4):
    covers = rec.call("coupling.lemma_cover_existence", lambda r: r.n_checked,
                      P.lemma_cover_existence, max_range)
    monotone = rec.call("coupling.lemma_D_monotone", lambda r: r.n_checked,
                        P.lemma_D_monotone, max_range)
    return covers.passed and monotone.passed


def _couple_bound(rec, seed, fam, n, T):
    return rec.call("coupling.success_bound_check", n,
                    P.success_bound_check, fam, n, seed, T=T).passed


def _generator(rec, fam):
    """The generator the CLI builds: sparse above 12 sites."""
    N = fam.lattice.n_sites
    sparse = N > 12
    return rec.call(f"exact.build_generator.{'sparse' if sparse else 'dense'}", 1 << N,
                    exact.build_generator, fam, sparse=sparse)


def _exact_stationarity(rec, seed, fam, rho):
    G = _generator(rec, fam)
    S = 1 << G.n_sites
    nu = rec.call("exact.product_measure_vector", S, exact.product_measure_vector, rho, G.n_sites)
    residual = rec.call("exact.stationarity_residual", S, exact.stationarity_residual, nu, G)
    return residual <= exact.TOL_STRUCTURAL


def _exact_sector(rec, seed, fam, particles):
    G = _generator(rec, fam)
    dist = rec.call("exact.sector_stationary", lambda d: int(d.probs.size),
                    exact.sector_stationary, G, particles)
    return float(abs(dist.probs - 1.0 / dist.probs.size).max()) <= exact.TOL_SOLVE


def _exact_duality(rec, seed, fam, sites, t, rho=0.5):
    lat = fam.lattice
    A = P.DualState.of(lat, sites)
    conf = rec.call("process.sample_product", 1, P.sample_product, rho, lat, seed)
    lhs, rhs = rec.call("exact.duality_exact", 1 << lat.n_sites,
                        exact.duality_exact, fam, conf, A, t)
    return abs(lhs - rhs) <= exact.TOL_DUALITY


def _exact_falsify(rec, seed, fam, t, expect_witness):
    rep = rec.call("exact.asymmetric_duality_falsifier", lambda r: r.n_checked,
                   exact.asymmetric_duality_falsifier, fam, t)
    return rep.witness_found == expect_witness


def _finite(rec, seed, fam, sites, T):
    A0 = P.DualState.of(fam.lattice, sites)
    traj = rec.call("process.run_finite", lambda tr: tr.n_events,
                    P.run_finite, A0, fam, T, seed)
    return len(traj.terminal.sites) == len(A0.sites) and traj.n_events == len(traj.events)


def _triple(rec, seed, fam, pts, T):
    """run_triple with history: one snapshot per event, J leads E and I."""
    res = rec.call("coupling.run_triple", lambda r: len(r.events),
                   P.run_triple, pts, fam, T, seed, record_history=True)
    c = res.counters
    return len(res.history) == len(res.events) and bool(
        c["j_jumped"] or not (c["e_jumped"] or c["i_met"]))


# ---------------------------------------------------------------------------
# task lists

def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 31)


def _two_seeds(rng: random.Random) -> Tuple[int, int]:
    return _seed(rng), _seed(rng)


def _distinct_sites(rng: random.Random, k: int, box: Sequence[int]) -> List[Tuple[int, ...]]:
    return sorted(rng.sample(list(itertools.product(*map(range, box))), k))


def _torus_sites(rng: random.Random, fam: P.RateFamily, k: int):
    lat = fam.lattice
    return sorted(lat.site_at(i) for i in rng.sample(range(lat.n_sites), k))


def _cli_defaults(fams, rng) -> List[Task]:
    """Every subcommand at CLI defaults (--samples 1000 --horizon 100 --time 1
    --rho 0.5) with the README's site arguments, on the shipped L=8 family."""
    fam = fams["L8"]
    return [
        Task("validate", partial(_validate, fam=fam)),
        Task("simulate", partial(_simulate, fam=fam, T=1.0), (_seed(rng),)),
        Task("dual-check.vector", partial(_dual_check, fam=fam, sites=[(0,), (2,)],
                                          engine="vector"), _two_seeds(rng)),
        Task("dual-check.event", partial(_dual_check, fam=fam, sites=[(0,), (2,)],
                                         engine="event"), _two_seeds(rng)),
        Task("couple.triple", partial(_couple_triple, fam=fam, pts=((0,), (1,)), T=100.0,
                                      n=1000, variant="torus"), _two_seeds(rng)),
        Task("couple.recurrent", partial(_couple_recurrent, fam=fam, disc=[(2,), (3,)],
                                         n=1000, T=100.0), (_seed(rng),)),
        Task("couple.general", partial(
            _couple_general, fam=fam, T=100.0,
            A0=P.Configuration.from_sites(fam.lattice, [(0,), (1,), (3,)]),
            B0=P.Configuration.from_sites(fam.lattice, [(2,), (4,), (6,)])), (_seed(rng),)),
        Task("couple.lemmas", _couple_lemmas),
        Task("couple.bound", partial(_couple_bound, fam=fam, n=1000, T=100.0), _two_seeds(rng)),
        Task("exact.stationarity", partial(_exact_stationarity, fam=fam, rho=0.5)),
        Task("exact.sector", partial(_exact_sector, fam=fam, particles=3)),
        Task("exact.duality", partial(_exact_duality, fam=fam, sites=[(0,), (1,), (3,)],
                                      t=1.0), (_seed(rng),)),
        Task("exact.falsify", partial(_exact_falsify, fam=fam, t=1.0, expect_witness=False)),
    ]


def _sparse_unbounded(fams, rng) -> List[Task]:
    """Sparse engines on unbounded Z and Z^3; no bit words, no exact oracles."""
    z1, z3 = fams["z1"], fams["z3"]
    out = []
    for k in range(2):
        out.append(Task(f"run_finite.z1.{k}", partial(
            _finite, fam=z1, sites=_distinct_sites(rng, 20, (40,)), T=25.0), (_seed(rng),)))
    for k in range(2):
        out.append(Task(f"run_finite.z3.{k}", partial(
            _finite, fam=z3, sites=_distinct_sites(rng, 8, (4, 4, 4)), T=5.0), (_seed(rng),)))
    out.append(Task("estimate_g.z1", partial(_couple_triple, fam=z1, pts=((0,), (5,)), T=200.0,
                                             n=500, variant="z1"), _two_seeds(rng)))
    out.append(Task("estimate_g.z3", partial(_couple_triple, fam=z3, pts=((0, 0, 0), (1, 0, 0)),
                                             T=10.0, n=25, variant="z3"), _two_seeds(rng)))
    for k in range(4):
        out.append(Task(f"run_triple.z1.{k}", partial(_triple, fam=z1, pts=((0,), (5,)), T=100.0),
                        (_seed(rng),)))
    return out


def _dense_long(fams, rng) -> List[Task]:
    """A few long calls on bit-packed tori: per-event cost dominates."""
    out = [Task("simulate.L256", partial(_simulate, fam=fams["L256"], T=250.0), (_seed(rng),)),
           Task("couple.recurrent.L20", partial(_couple_recurrent, fam=fams["L20"],
                                                disc=[(2,), (3,)], n=1, T=10000.0),
                (_seed(rng),))]
    L64 = fams["L64"]
    for k in range(4):
        A0 = P.sample_product(0.5, L64.lattice, _seed(rng))
        B0 = P.sample_product(0.5, L64.lattice, _seed(rng))
        out.append(Task(f"couple.general.L64.{k}", partial(
            _couple_general, fam=L64, A0=A0, B0=B0, T=20.0), (_seed(rng),)))
    out.append(Task("duality.vector.L16", partial(
        _dual_closed_form, fam=fams["L16"], sites=_torus_sites(rng, fams["L16"], 3),
        n=100_000), _two_seeds(rng)))
    out.append(Task("duality.vector.L8", partial(
        _dual_closed_form, fam=fams["L8"], sites=_torus_sites(rng, fams["L8"], 2),
        n=100_000), _two_seeds(rng)))
    return out


def _exact_oracles(fams, rng) -> List[Task]:
    """The exact layer at sizes where it does real work."""
    def rho():
        return round(rng.uniform(0.2, 0.8), 6)

    out = [
        Task("stationarity.L12.dense", partial(_exact_stationarity, fam=fams["L12"], rho=rho())),
        Task("stationarity.L18.sparse", partial(_exact_stationarity, fam=fams["L18"], rho=rho())),
        Task("sector.L14.n4", partial(_exact_sector, fam=fams["L14"], particles=4)),
        Task("sector.swaps3x4.n6", partial(_exact_sector, fam=fams["swaps3x4"], particles=6)),
    ]
    for t in (1.0, 5.0):
        out.append(Task(f"duality.L16.t{t:g}", partial(
            _exact_duality, fam=fams["L16"], sites=_torus_sites(rng, fams["L16"], 3), t=t),
            (_seed(rng),)))
    out.append(Task("duality.swaps4x4.t2", partial(
        _exact_duality, fam=fams["swaps4x4"], sites=_torus_sites(rng, fams["swaps4x4"], 3),
        t=2.0), (_seed(rng),)))
    # lam * t > 700 underflows the uniformization weights (open defect)
    out.append(Task("duality.L8.t50", partial(
        _exact_duality, fam=fams["L8"], sites=_torus_sites(rng, fams["L8"], 3), t=50.0),
        (_seed(rng),), known_defect=P.TooLarge))
    for t in (1.0, 5.0):
        out.append(Task(f"falsify.L10oneway.t{t:g}", partial(
            _exact_falsify, fam=fams["L10oneway"], t=t, expect_witness=True)))
    out.append(Task("falsify.L10.t1", partial(_exact_falsify, fam=fams["L10"], t=1.0,
                                              expect_witness=False)))
    return out


_TASK_LISTS = {"cli_defaults": _cli_defaults, "sparse_unbounded": _sparse_unbounded,
               "dense_long": _dense_long, "exact_oracles": _exact_oracles}


def tasks(workload: str, fams: Dict[str, P.RateFamily], seed: int) -> List[Task]:
    """The workload's operations, with every input drawn from ``seed``."""
    return _TASK_LISTS[workload](fams, random.Random(f"{workload}/{seed}"))
