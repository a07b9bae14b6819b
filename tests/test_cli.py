import json

import pytest

import permuta as P
from conftest import three_cycles
from permuta import exact
from permuta.cli import main

DATA_FAMILY = "tests/data/three_cycles_L8.json"


def read_records(path):
    return [json.loads(line) for line in open(path).read().splitlines()]


def write_family(tmp_path, fam, name="fam.json"):
    p = tmp_path / name
    p.write_text(json.dumps(P.family_to_dict(fam)))
    return str(p)


def test_validate_ok(tmp_path):
    out = tmp_path / "v.jsonl"
    rc = main(["validate", "--family", DATA_FAMILY, "--out", str(out)])
    assert rc == 0
    (rec,) = read_records(str(out))
    assert rec["command"] == "validate"
    assert rec["M_PL"] == 6.0
    assert rec["M_I"] == 3
    assert rec["M_II"] == 1.0
    assert rec["irreducible"] is True
    assert rec["family_hash"] == P.family_hash(three_cycles(8))


def test_validate_reducible_family_fails(tmp_path):
    lat = P.Lattice.torus([6])
    fam = P.RateFamily(lat, ((P.FinitePermutation((((0,), (2,)),)), 1.0),))
    path = write_family(tmp_path, fam)
    out = tmp_path / "v.jsonl"
    rc = main(["validate", "--family", path, "--out", str(out)])
    assert rc == 1
    (rec,) = read_records(str(out))
    assert rec["irreducible"] is False


def test_missing_family_file(tmp_path):
    rc = main(["validate", "--family", str(tmp_path / "nope.json")])
    assert rc == 2


def test_malformed_family_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["validate", "--family", str(p)]) == 2
    p.write_text('{"dimension": 1}')
    assert main(["validate", "--family", str(p)]) == 2


def test_unknown_command():
    assert main(["frobnicate"]) == 2


def test_simulate(tmp_path):
    out = tmp_path / "s.jsonl"
    csv = tmp_path / "s.csv"
    rc = main(
        [
            "simulate",
            "--family",
            DATA_FAMILY,
            "--seed",
            "5",
            "--time",
            "2.0",
            "--rho",
            "0.5",
            "--out",
            str(out),
            "--csv",
            str(csv),
        ]
    )
    assert rc == 0
    (rec,) = read_records(str(out))
    assert rec["seed"] == 5
    assert rec["n_events"] > 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "time,perm_id,shift,popcount"
    assert len(lines) == rec["n_events"] + 1


def test_simulate_zero_time(tmp_path):
    out = tmp_path / "s.jsonl"
    rc = main(
        ["simulate", "--family", DATA_FAMILY, "--seed", "5", "--time", "0.0",
         "--out", str(out)]
    )
    assert rc == 0
    (rec,) = read_records(str(out))
    assert rec["n_events"] == 0


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["simulate", "--family", DATA_FAMILY, "--seed", "9", "--time", "3.0"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dual_check_thread_invariant_bytes(tmp_path):
    outs = []
    for name in ("r1.jsonl", "r2.jsonl"):
        out = tmp_path / name
        rc = main(
            [
                "dual-check",
                "--family",
                DATA_FAMILY,
                "--seed",
                "13",
                "--time",
                "0.5",
                "--samples",
                "2000",
                "--sites",
                "0,2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    rec = json.loads(outs[0].decode().splitlines()[-1])
    assert rec["pass"] is True


def test_dual_check_rejects_asymmetric(tmp_path):
    fam = three_cycles(8, rate=1.0, rate_inverse=2.0)
    path = write_family(tmp_path, fam)
    rc = main(["dual-check", "--family", path, "--seed", "1", "--samples", "100"])
    assert rc == 2


def test_bad_sites_syntax(tmp_path):
    rc = main(
        ["dual-check", "--family", DATA_FAMILY, "--seed", "1", "--sites", "0,x"]
    )
    assert rc == 2
    rc = main(
        ["dual-check", "--family", DATA_FAMILY, "--seed", "1", "--sites", "0 1,2"]
    )
    assert rc == 2  # wrong dimension


def test_couple_triple(tmp_path):
    out = tmp_path / "g.jsonl"
    rc = main(
        [
            "couple",
            "triple",
            "--family",
            DATA_FAMILY,
            "--seed",
            "3",
            "--samples",
            "400",
            "--horizon",
            "30.0",
            "--sites",
            "0,1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rec = read_records(str(out))[-1]
    assert rec["inequalities"]["passed"] is True


def test_couple_recurrent(tmp_path):
    out = tmp_path / "r.jsonl"
    rc = main(
        [
            "couple",
            "recurrent",
            "--family",
            DATA_FAMILY,
            "--seed",
            "7",
            "--samples",
            "20",
            "--horizon",
            "500.0",
            "--discrepancies",
            "2,3",
            "--stop-at-couple",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    recs = read_records(str(out))
    assert len(recs) == 21  # one per run plus the summary
    summary = recs[-1]
    assert summary["runs"] == 20
    assert summary["coupled_fraction"] == 1.0
    assert 0.0 < summary["merge_fraction"] <= 1.0


def test_couple_recurrent_csv_holds_first_run(tmp_path):
    args = ["couple", "recurrent", "--family", DATA_FAMILY, "--seed", "7", "--samples", "3",
            "--horizon", "50.0", "--discrepancies", "2,3"]
    plain, with_csv, csv = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "r.csv"
    assert main(args + ["--out", str(plain)]) == 0
    assert main(args + ["--out", str(with_csv), "--csv", str(csv)]) == 0
    assert with_csv.read_bytes() == plain.read_bytes()
    lines = csv.read_text().splitlines()
    assert lines[0] == "time,kind,range_id,D_before,D_after"
    assert len(lines) == read_records(str(plain))[0]["events"] + 1 > 1


def test_couple_recurrent_needs_discrepancies(tmp_path):
    # without --discrepancies the two copies coincide and are rejected
    rc = main(
        ["couple", "recurrent", "--family", DATA_FAMILY, "--seed", "7",
         "--samples", "2"]
    )
    assert rc == 2


def test_couple_recurrent_bad_discrepancies(tmp_path):
    rc = main(
        [
            "couple",
            "recurrent",
            "--family",
            DATA_FAMILY,
            "--seed",
            "7",
            "--discrepancies",
            "2,2",
        ]
    )
    assert rc == 2


def test_couple_general(tmp_path):
    out = tmp_path / "g.jsonl"
    rc = main(
        [
            "couple",
            "general",
            "--family",
            DATA_FAMILY,
            "--seed",
            "11",
            "--horizon",
            "100.0",
            "--sites-a",
            "0,1,3",
            "--sites-b",
            "2,4,6",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rec = read_records(str(out))[-1]
    assert rec["D_final"] <= rec["D_initial"]


def test_couple_lemmas(tmp_path, monkeypatch):
    monkeypatch.setenv("PERMUTA_SLOW_TESTS", "1")  # the test switch does not move the default
    out = tmp_path / "l.jsonl"
    rc = main(["couple", "lemmas", "--out", str(out)])
    assert rc == 0
    recs = read_records(str(out))
    assert all(r["passed"] and r["max_range"] == 4 for r in recs)


def test_couple_bound(tmp_path):
    out = tmp_path / "b.jsonl"
    rc = main(
        [
            "couple",
            "bound",
            "--family",
            DATA_FAMILY,
            "--seed",
            "17",
            "--samples",
            "150",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    (rec,) = read_records(str(out))
    assert rec["bound"] == 0.5
    assert rec["passed"] is True


def test_exact_stationarity(tmp_path):
    out = tmp_path / "e.jsonl"
    rc = main(
        ["exact", "stationarity", "--family", DATA_FAMILY, "--rho", "0.3",
         "--out", str(out)]
    )
    assert rc == 0
    (rec,) = read_records(str(out))
    assert rec["residual"] <= 1e-12


def test_exact_sector(tmp_path):
    out = tmp_path / "e.jsonl"
    rc = main(
        ["exact", "sector", "--family", DATA_FAMILY, "--particles", "3",
         "--out", str(out)]
    )
    assert rc == 0
    (rec,) = read_records(str(out))
    assert rec["states"] == 56
    assert rec["uniform_gap"] <= 1e-10


def test_exact_sector_past_generator_caps(tmp_path):
    """L=24 is past every full-space cap; its 2-particle sector has 276 states."""
    path = write_family(tmp_path, three_cycles(24))
    out = tmp_path / "e.jsonl"
    assert main(["exact", "sector", "--family", path, "--particles", "2", "--out", str(out)]) == 0
    (rec,) = read_records(str(out))
    assert rec["states"] == 276
    assert rec["pass"] is True


def test_exact_commands_build_no_dense_generator(tmp_path, monkeypatch):
    build = exact.build_generator

    def sparse_only(fam, sparse=False):
        if not sparse:
            raise AssertionError("dense generator built")
        return build(fam, sparse=sparse)

    monkeypatch.setattr(exact, "build_generator", sparse_only)
    out = tmp_path / "e.jsonl"
    for cmd in (["stationarity", "--rho", "0.3"], ["sector", "--particles", "3"]):
        assert main(["exact", *cmd, "--family", DATA_FAMILY, "--out", str(out)]) == 0


def test_exact_duality_and_tolerance(tmp_path):
    out = tmp_path / "e.jsonl"
    args = [
        "exact", "duality", "--family", DATA_FAMILY, "--time", "1.0",
        "--sites", "0,1,3", "--sites-eta", "0,2,3,5", "--out", str(out),
    ]
    assert main(args) == 0
    (rec,) = read_records(str(out))
    assert 0.0 <= rec["gap"] <= 1e-9
    # a negative tolerance fails every gap, so the same run flips to a failure
    assert main(args + ["--tolerance-duality", "-1"]) == 1


def test_exact_falsify(tmp_path):
    fam = three_cycles(6)
    oneway = P.RateFamily(fam.lattice, (fam.base[0],))
    path = write_family(tmp_path, oneway)
    out = tmp_path / "f.jsonl"
    rc = main(["exact", "falsify", "--family", path, "--time", "1.0",
               "--out", str(out)])
    assert rc == 0
    rec = read_records(str(out))[-1]
    assert rec["witness_found"] is True
    assert rec["max_gap"] > 1e-6

    out2 = tmp_path / "f2.jsonl"
    rc = main(["exact", "falsify", "--family", DATA_FAMILY, "--time", "1.0",
               "--out", str(out2)])
    assert rc == 0
    rec = read_records(str(out2))[-1]
    assert rec["witness_found"] is False


def test_records_carry_hash_and_seed(tmp_path):
    out = tmp_path / "s.jsonl"
    main(["simulate", "--family", DATA_FAMILY, "--seed", "5", "--time", "1.0",
          "--out", str(out)])
    (rec,) = read_records(str(out))
    assert rec["family_hash"] == P.family_hash(three_cycles(8))
    assert rec["seed"] == 5
    assert not any("stamp" in k for k in rec)
