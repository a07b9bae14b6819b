"""Batch front door: load a family file, run one check, emit JSON-lines records.

Exit codes: 0 clean pass, 1 a property or tolerance check failed, 2 usage or
input errors (unparseable files, violated preconditions).  Records are sorted
by key and carry the family hash and the seed actually used, so reruns with
the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .errors import (
    BadInitial,
    InvalidFamily,
    NoCover,
    NotRangeClosed,
    NotSymmetric,
    PropertyViolation,
    SectorReducible,
    TooLarge,
    TorusTooSmall,
)
from .lattice import Site
from .process import Configuration, DualState, duality_mc, run_config, sample_product, write_trajectory_csv
from .rates import RateFamily, family_hash, load_family, validate_family
from . import coupling, exact

_USAGE_ERRORS = (
    InvalidFamily,
    TorusTooSmall,
    BadInitial,
    NotSymmetric,
    NotRangeClosed,
    TooLarge,
    SectorReducible,
    NoCover,
)


def _parse_sites(text: str, dimension: int) -> List[Site]:
    """Comma-separated sites, space-separated coordinates: "0 1,2 3"."""
    out: List[Site] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        coords = tuple(int(c) for c in tok.split())
        if len(coords) != dimension:
            raise ValueError(f"site '{tok}' has {len(coords)} coordinates, expected {dimension}")
        out.append(coords)
    return out


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    return int.from_bytes(os.urandom(8), "little")


def _config_from(args, fam: RateFamily, seed: int) -> Configuration:
    if args.sites is not None:
        return Configuration.from_sites(fam.lattice, _parse_sites(args.sites, fam.dimension))
    return sample_product(args.rho, fam.lattice, seed)


# Each command gets the loaded family (None without --family) and its seed
# (None unless the command records one) and returns (records, passed).

def cmd_validate(args, fam, seed):
    report = validate_family(fam)
    return [report.to_dict()], report.irreducible


def cmd_simulate(args, fam, seed):
    eta0 = _config_from(args, fam, seed + 1)
    traj = run_config(eta0, fam, args.time, seed)
    if args.csv:
        write_trajectory_csv(traj, args.csv)
    return [{
        "t_end": traj.t_end,
        "n_events": traj.n_events,
        "particles": traj.terminal.particle_count,
        "rho": None if args.sites is not None else args.rho,
    }], True


def cmd_dual_check(args, fam, seed):
    if args.sites is None:
        raise ValueError("--sites is required (the dual state A)")
    A = DualState.of(fam.lattice, _parse_sites(args.sites, fam.dimension))
    lhs, rhs = duality_mc(args.rho, A, fam, args.time, args.samples, seed, engine=args.engine)
    gap = abs(lhs.mean - rhs.mean)
    se = (lhs.std_error ** 2 + rhs.std_error ** 2) ** 0.5
    passed = gap <= 3 * se
    return [{
        "lhs_mean": lhs.mean, "lhs_se": lhs.std_error,
        "rhs_mean": rhs.mean, "rhs_se": rhs.std_error,
        "gap": gap, "combined_se": se, "n": args.samples,
        "t": args.time, "rho": args.rho, "engine": args.engine,
        "pass": passed,
    }], passed


def cmd_couple_triple(args, fam, seed):
    if args.sites is None:
        raise ValueError("--sites is required (the two tagged points)")
    pts = _parse_sites(args.sites, fam.dimension)
    if len(pts) != 2:
        raise ValueError(f"need exactly two tagged points, got {len(pts)}")
    g = coupling.estimate_g((pts[0], pts[1]), fam, args.horizon, args.samples, seed)
    report = coupling.check_g_inequalities(g, validate_family(fam))
    return [{**g.to_dict(), "inequalities": report.to_dict()}], report.passed


def cmd_couple_recurrent(args, fam, seed):
    lat = fam.lattice
    if args.discrepancies is not None:
        disc = _parse_sites(args.discrepancies, fam.dimension)
        if len(disc) != 2:
            raise ValueError(f"--discrepancies needs exactly two sites, got {len(disc)}")
    else:
        disc = None
    records = []
    coupled_runs = 0
    total_block = total_merge = 0
    for i in range(args.samples):
        eta = sample_product(args.rho, lat, seed + 1000003 * i + 1)
        if disc is None:
            A0 = B0 = eta  # rejected below: no discrepancies to track
        else:
            u, v = lat.index(lat.wrap(disc[0])), lat.index(lat.wrap(disc[1]))
            A0 = Configuration(lat, (eta.word | (1 << u)) & ~(1 << v))
            B0 = Configuration(lat, (eta.word | (1 << v)) & ~(1 << u))
        res = coupling.run_recurrent_coupling(
            A0, B0, fam, args.horizon, seed + 2 * i,
            stop_at_couple=args.stop_at_couple, record_history=bool(args.csv) and i == 0,
        )
        if args.csv and i == 0:
            coupling.write_coupling_csv(res, args.csv)
        coupled_runs += int(res.coupled)
        total_block += res.counters["block_events"]
        total_merge += res.counters["merges"]
        records.append({
            "run": i,
            "coupled": res.coupled,
            "T_couple": res.T_couple,
            "events": res.counters["events"],
            "block_events": res.counters["block_events"],
            "merges": res.counters["merges"],
        })
    records.append({
        "runs": args.samples,
        "coupled_runs": coupled_runs,
        "coupled_fraction": coupled_runs / args.samples if args.samples else None,
        "block_events": total_block,
        "merges": total_merge,
        "merge_fraction": total_merge / total_block if total_block else None,
    })
    return records, True


def cmd_couple_general(args, fam, seed):
    lat = fam.lattice
    if args.sites_a is None or args.sites_b is None:
        raise ValueError("--sites-a and --sites-b are required (the two initial configurations)")
    A0 = Configuration.from_sites(lat, _parse_sites(args.sites_a, fam.dimension))
    B0 = Configuration.from_sites(lat, _parse_sites(args.sites_b, fam.dimension))
    res = coupling.run_general_coupling(A0, B0, fam, args.horizon, seed,
                                        closure=args.closure, record_history=bool(args.csv))
    if args.csv:
        coupling.write_coupling_csv(res, args.csv)
    return [{
        "D_initial": (A0.word ^ B0.word).bit_count(),
        "D_final": res.final.D,
        "coupled": res.coupled,
        "T_couple": res.T_couple,
        "events": res.counters["events"],
        "block_events": res.counters["block_events"],
        "merges": res.counters["merges"],
        "closure": args.closure,
    }], True


def cmd_couple_lemmas(args, fam, seed):
    reports = [coupling.lemma_cover_existence(args.max_range), coupling.lemma_D_monotone(args.max_range)]
    return [rep.to_dict() for rep in reports], all(rep.passed for rep in reports)


def cmd_couple_bound(args, fam, seed):
    rep = coupling.success_bound_check(fam, args.samples, seed, T=args.horizon)
    return [rep.to_dict()], rep.passed


def cmd_exact_stationarity(args, fam, seed):
    G = exact.build_generator(fam, sparse=True)
    nu = exact.product_measure_vector(args.rho, G.n_sites)
    residual = exact.stationarity_residual(nu, G)
    tol = args.tolerance_structural
    return [{"rho": args.rho, "residual": residual, "tolerance": tol,
             "pass": residual <= tol}], residual <= tol


def cmd_exact_sector(args, fam, seed):
    if args.particles is None:
        raise ValueError("--particles is required (the sector to solve)")
    dist = exact.sector_stationary(fam, args.particles)
    gap = float(abs(dist.probs - 1.0 / dist.probs.size).max())
    tol = args.tolerance_solve
    return [{"n": dist.n, "states": int(dist.probs.size),
             "uniform_gap": gap, "tolerance": tol, "pass": gap <= tol}], gap <= tol


def cmd_exact_duality(args, fam, seed):
    lat = fam.lattice
    if args.sites is None:
        raise ValueError("--sites is required (the dual state A)")
    A = DualState.of(lat, _parse_sites(args.sites, fam.dimension))
    eta0 = (_parse_sites(args.sites_eta, fam.dimension) if args.sites_eta is not None else None)
    conf = (Configuration.from_sites(lat, eta0) if eta0 is not None
            else sample_product(args.rho, lat, seed))
    lhs, rhs = exact.duality_exact(fam, conf, A, args.time)
    gap = abs(lhs - rhs)
    tol = args.tolerance_duality
    return [{"lhs": lhs, "rhs": rhs, "gap": gap, "t": args.time,
             "tolerance": tol, "pass": gap <= tol}], gap <= tol


def cmd_exact_falsify(args, fam, seed):
    return [exact.asymmetric_duality_falsifier(fam, args.time).to_dict()], True


def _run(args) -> int:
    """Run one command and write its records, sorted JSON lines, to --out or
    stdout.  Each record carries the command name, the family hash and the
    seed where the command has them."""
    fam = load_family(args.family) if "family" in args else None
    seed = _seed_of(args) if getattr(args, "seeded", False) else None
    records, passed = args.func(args, fam, seed)
    base = {"command": args.cmd_name}
    if fam is not None:
        base["family_hash"] = family_hash(fam)
    if seed is not None:
        base["seed"] = seed
    text = "".join(json.dumps({**base, **rec}, sort_keys=True) + "\n" for rec in records)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, help="family JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=100.0)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--out", default=None, help="record file (default stdout)")
    p.add_argument("--csv", default=None, help="trajectory/coupling CSV dump")
    p.add_argument("--sites", default=None, help="comma-separated sites, space-separated coords")
    p.add_argument("--tolerance-duality", type=float, default=exact.TOL_DUALITY)
    p.add_argument("--tolerance-structural", type=float, default=exact.TOL_STRUCTURAL)
    p.add_argument("--tolerance-solve", type=float, default=exact.TOL_SOLVE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="permuta")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="family constants and structural flags")
    _add_common(p)
    p.set_defaults(func=cmd_validate, cmd_name="validate")

    p = sub.add_parser("simulate", help="event-driven run from a sampled or explicit configuration")
    _add_common(p)
    p.set_defaults(func=cmd_simulate, cmd_name="simulate", seeded=True)

    p = sub.add_parser("dual-check", help="Monte Carlo duality comparison")
    _add_common(p)
    p.add_argument("--engine", choices=("vector", "event"), default="vector")
    p.set_defaults(func=cmd_dual_check, cmd_name="dual-check", seeded=True)

    couple = sub.add_parser("couple", help="coupled constructions")
    csub = couple.add_subparsers(dest="couple_command", required=True)

    p = csub.add_parser("triple", help="I/J/E estimates and inequality checks")
    _add_common(p)
    p.set_defaults(func=cmd_couple_triple, cmd_name="couple triple", seeded=True)

    p = csub.add_parser("recurrent", help="two-discrepancy coupling runs")
    _add_common(p)
    p.add_argument("--discrepancies", default=None,
                   help="the two discrepancy sites (same syntax as --sites)")
    p.add_argument("--stop-at-couple", action="store_true")
    p.set_defaults(func=cmd_couple_recurrent, cmd_name="couple recurrent", seeded=True)

    p = csub.add_parser("general", help="discrepancy-monotone coupling run")
    _add_common(p)
    p.add_argument("--sites-a", default=None)
    p.add_argument("--sites-b", default=None)
    p.add_argument("--closure", choices=("strict", "relaxed"), default="strict")
    p.set_defaults(func=cmd_couple_general, cmd_name="couple general", seeded=True)

    p = csub.add_parser("lemmas", help="exhaustive cover and monotonicity checks")
    p.add_argument("--max-range", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_couple_lemmas, cmd_name="couple lemmas")

    p = csub.add_parser("bound", help="empirical merge fraction vs the derangement bound")
    _add_common(p)
    p.set_defaults(func=cmd_couple_bound, cmd_name="couple bound", seeded=True)

    ex = sub.add_parser("exact", help="finite-state oracles")
    esub = ex.add_subparsers(dest="exact_command", required=True)

    p = esub.add_parser("stationarity", help="product-measure residual")
    _add_common(p)
    p.set_defaults(func=cmd_exact_stationarity, cmd_name="exact stationarity")

    p = esub.add_parser("sector", help="stationary law of one particle-count sector")
    _add_common(p)
    p.add_argument("--particles", type=int, default=None)
    p.set_defaults(func=cmd_exact_sector, cmd_name="exact sector")

    p = esub.add_parser("duality", help="two-route exact duality")
    _add_common(p)
    p.add_argument("--sites-eta", default=None, help="occupied sites of the initial configuration")
    p.set_defaults(func=cmd_exact_duality, cmd_name="exact duality", seeded=True)

    p = esub.add_parser("falsify", help="duality witness scan")
    _add_common(p)
    p.set_defaults(func=cmd_exact_falsify, cmd_name="exact falsify")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 2
    try:
        return _run(args)
    except PropertyViolation as e:
        print(f"property violation: {e}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
