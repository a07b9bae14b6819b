import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import permuta as P
from conftest import one_way_three_cycles, swaps, three_cycles
from permuta import exact
from permuta.exact import _assemble, _sector_words, _uniformized
from permuta.process import _compiled, permute_bits


def coo_generator(fam, sparse):
    """Reference generator: global COO triplets in expanded-permutation order,
    summed by scipy (sparse) or by np.add.at (dense)."""
    S = 1 << fam.lattice.n_sites
    if not fam.base:
        return sp.csr_matrix((S, S)) if sparse else np.zeros((S, S))
    comp = _compiled(fam)
    words = np.arange(S, dtype=np.int64)
    rows, cols, vals = [], [], []
    for pairs, mask, q in zip(comp.pairs, comp.masks, comp.rates):
        img = permute_bits(pairs, mask, words)
        moved = img != words
        rows.append(words[moved])
        cols.append(img[moved])
        vals.append(np.full(rows[-1].shape, float(q)))
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    diag = np.zeros(S)
    np.add.at(diag, rows, -vals)
    if sparse:
        return (sp.coo_matrix((vals, (rows, cols)), shape=(S, S)).tocsr() + sp.diags(diag)).tocsr()
    Q = np.zeros((S, S))
    np.add.at(Q, (rows, cols), vals)
    Q[words, words] = diag
    return Q


REFERENCE_FAMILIES = {
    "L6": lambda: three_cycles(6),
    "L8": lambda: three_cycles(8),
    "L13": lambda: three_cycles(13),
    "mixed-L9": lambda: three_cycles(9, rate=1.0, rate_inverse=2.5),
    "swaps3x4": lambda: swaps(3, 4),
    "empty": lambda: P.RateFamily(P.Lattice.torus([4]), ()),
}


def csr_equal(A, B):
    return all(np.array_equal(getattr(A, a), getattr(B, a)) for a in ("indptr", "indices", "data"))


@pytest.mark.parametrize("name", REFERENCE_FAMILIES)
def test_generator_equals_coo_reference(name):
    fam = REFERENCE_FAMILIES[name]()
    G = P.build_generator(fam, sparse=True)
    assert csr_equal(G.Q, coo_generator(fam, sparse=True))
    D = P.build_generator(fam)
    assert not D.sparse and np.array_equal(D.Q, coo_generator(fam, sparse=False))


@pytest.mark.parametrize("name", REFERENCE_FAMILIES)
def test_sector_generator_equals_slice(name):
    fam = REFERENCE_FAMILIES[name]()
    N = fam.lattice.n_sites
    G = P.build_generator(fam, sparse=True)
    words = np.arange(1 << N)
    for n in range(N + 1):
        idx = _sector_words(N, n)
        assert np.array_equal(idx, words[np.bitwise_count(words) == n])
        assert csr_equal(_assemble(fam, idx, sector=True), G.Q[idx][:, idx])


def test_generator_memory_peak():
    """Rows are assembled in blocks, never as global COO triplets: the traced
    peak stays within 3x the bytes of the returned CSR."""
    fam = three_cycles(16)
    _compiled(fam)
    tracemalloc.start()
    try:
        G = P.build_generator(fam, sparse=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    Q = G.Q
    assert peak <= 3 * (Q.indptr.nbytes + Q.indices.nbytes + Q.data.nbytes)


def test_swap_generator_hand_entries():
    """L=(4) nearest-neighbor swaps: spot-check rows built by hand."""
    fam = swaps(4)
    Q = P.build_generator(fam).dense()
    assert Q.shape == (16, 16)
    # single particle at site 0 can swap to 1 (perm at 0) or to 3 (perm at 3)
    src = 0b0001
    assert Q[src, 0b0010] == 1.0
    assert Q[src, 0b1000] == 1.0
    assert Q[src, src] == -2.0
    # the other two swaps leave it alone, so the row holds nothing else
    assert np.count_nonzero(Q[src]) == 3
    # full and empty words never move
    assert np.count_nonzero(Q[0]) == 0
    assert np.count_nonzero(Q[15]) == 0
    # adjacent pair 0,1: boundary swaps move one end each
    src = 0b0011
    assert Q[src, 0b0101] == 1.0  # swap (1,2) frees site 1
    assert Q[src, 0b1010] == 1.0  # swap (3,0) frees site 0
    assert Q[src, src] == -2.0


def test_generator_row_sums_vanish():
    for fam in [three_cycles(8), swaps(6), three_cycles(6, rate=1.0, rate_inverse=3.0)]:
        G = P.build_generator(fam)
        assert G.row_sum_residual() <= 1e-12
        S = P.build_generator(fam, sparse=True)
        assert S.row_sum_residual() <= 1e-12
        assert np.allclose(S.dense(), G.dense())


def test_generator_empty_family_is_zero():
    G = P.build_generator(P.RateFamily(P.Lattice.torus([4]), ()))
    assert np.abs(G.dense()).max() == 0.0


def test_generator_size_caps(monkeypatch):
    """14 sites would be a 2 GiB dense matrix: TooLarge before any row is
    assembled, pointing to the sparse mode."""
    def refuse(*args, **kwargs):
        raise AssertionError("assembled before the cap check")

    with monkeypatch.context() as m:
        m.setattr(exact, "_assemble", refuse)
        with pytest.raises(P.TooLarge, match="sparse=True"):
            P.build_generator(three_cycles(14))
    with pytest.raises(P.TooLarge):
        P.build_generator(three_cycles(23), sparse=True)
    # sparse mode stretches past the dense cap
    S = P.build_generator(three_cycles(18), sparse=True)
    assert S.sparse
    assert S.row_sum_residual() <= 1e-12


def test_product_measures_stationary():
    for fam in [three_cycles(8), three_cycles(8, rate=1.0, rate_inverse=3.0), swaps(8)]:
        G = P.build_generator(fam)
        for rho in [0.0, 0.3, 0.5, 1.0]:
            nu = P.product_measure_vector(rho, 8)
            assert P.stationarity_residual(nu, G) <= 1e-12


def test_stationarity_residual_detects_drift(fam8):
    G = P.build_generator(fam8)
    # point mass on a non-absorbing word is not stationary
    nu = np.zeros(256)
    nu[0b00000111] = 1.0
    assert P.stationarity_residual(nu, G) > 0.1


def test_stationarity_residual_validates():
    G = P.build_generator(three_cycles(6))
    with pytest.raises(ValueError):
        P.stationarity_residual(np.ones(7), G)
    with pytest.raises(ValueError):
        P.stationarity_residual(np.full(64, 0.9 / 64), G)
    with pytest.raises(ValueError):
        P.stationarity_residual(np.full(64, -1.0 / 64), G)


def sources(fam):
    """What sector_stationary takes: the family, or a dense or sparse G."""
    return [fam, P.build_generator(fam), P.build_generator(fam, sparse=True)]


def test_sector_stationary_uniform():
    for fam in [three_cycles(8), swaps(8)]:
        srcs = sources(fam)
        for n in [0, 1, 3, 4, 8]:
            sec, *via_G = (P.sector_stationary(src, n) for src in srcs)
            for other in via_G:  # a G stands for its family: the same solve
                assert np.array_equal(other.words, sec.words)
                assert np.array_equal(other.probs, sec.probs)
            size = math.comb(8, n)
            assert len(sec.words) == size
            assert all(bin(w).count("1") == n for w in sec.words)
            assert abs(sec.probs.sum() - 1.0) < 1e-12
            assert np.abs(sec.probs - 1.0 / size).max() < 1e-9


def test_sector_stationary_uniform_when_asymmetric():
    # doubly stochastic dynamics keep the uniform sector measure even
    # without symmetry
    for src in sources(three_cycles(8, rate=1.0, rate_inverse=3.0)):
        sec = P.sector_stationary(src, 4)
        assert np.abs(sec.probs - 1.0 / math.comb(8, 4)).max() < 1e-9


def test_sector_reducible_raises():
    dist2 = P.RateFamily(
        P.Lattice.torus([8]), ((P.FinitePermutation((((0,), (2,)),)), 1.0),)
    )
    for src in sources(dist2):
        with pytest.raises(P.SectorReducible):
            P.sector_stationary(src, 1)


def test_sector_stationary_leaky_permutation(monkeypatch, fam8):
    """An image outside the particle-count sector is a PropertyViolation."""
    def leaky(pairs, mask, words):
        return permute_bits(pairs, mask, words) | 1

    monkeypatch.setattr(exact, "permute_bits", leaky)
    with pytest.raises(P.PropertyViolation, match="outside"):
        P.sector_stationary(fam8, 3)


def test_sector_stationary_cap(monkeypatch):
    """The cap lies between C(14, 7) = 3432 and C(16, 8) = 12870 states; the
    larger sector, and any sector past 63 sites, raise TooLarge before any
    sector word or generator row is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the cap check")

    assert math.comb(14, 7) <= exact._SECTOR_SOLVE_CAP < math.comb(16, 8)
    monkeypatch.setattr(exact, "_sector_words", refuse)
    monkeypatch.setattr(exact, "_assemble", refuse)
    with pytest.raises(P.TooLarge):
        P.sector_stationary(three_cycles(16), 8)
    with pytest.raises(P.TooLarge):
        P.sector_stationary(three_cycles(64), 1)


def test_uniformization_matches_expm(fam6):
    """The uniformized semigroup against scipy's matrix exponential."""
    Q = P.build_generator(fam6).dense()
    for t in [0.1, 0.7, 3.0]:
        ref = expm(Q.T * t)
        p0 = np.zeros(64)
        p0[0b010110] = 1.0
        mine = _uniformized(p0, Q.T, t)
        assert np.abs(mine - ref @ p0).max() < 1e-10


def test_duality_exact_symmetric(fam8):
    eta0 = P.Configuration(fam8.lattice, 0b00101101)
    for A in [[(0,)], [(0,), (1,)], [(0,), (1,), (3,)]]:
        for t in [0.1, 1.0, 10.0]:
            lhs, rhs = P.duality_exact(fam8, eta0, A, t)
            assert abs(lhs - rhs) <= 1e-9
            assert 0.0 <= lhs <= 1.0


def test_duality_exact_truncation_stable(fam8):
    eta0 = P.Configuration(fam8.lattice, 0b00101101)
    A = [(0,), (1,), (3,)]
    base = P.duality_exact(fam8, eta0, A, 1.0)
    longer = P.duality_exact(fam8, eta0, A, 1.0, extra_terms=5)
    assert abs(base[0] - longer[0]) < 1e-10
    assert abs(base[1] - longer[1]) < 1e-10


def test_duality_exact_equilibrium_limit(fam6):
    # at large t the chain mixes within its sector: a 4-particle sector on
    # 6 sites covers a fixed 2-set with prob C(4,2)/C(6,2)
    eta0 = P.Configuration(fam6.lattice, 0b001111)
    lhs, rhs = P.duality_exact(fam6, eta0, [(0,), (1,)], 30.0)
    target = math.comb(4, 2) / math.comb(6, 2)
    assert abs(lhs - target) < 1e-9
    assert abs(rhs - target) < 1e-9


def test_duality_exact_long_horizon(fam8):
    """Rate * horizon far past exp underflow (~16 * 200): both sides against
    scipy's expm_multiply and the uniform law of the 4-particle sector."""
    eta0 = P.Configuration(fam8.lattice, 0b00101101)
    mask = 0b1011  # A = {0, 1, 3}
    Q = P.build_generator(fam8, sparse=True).Q
    words = np.arange(256)
    p0 = np.zeros(256)
    p0[eta0.word] = 1.0
    target = math.comb(5, 1) / math.comb(8, 4)  # P[A inside a uniform 4-subset]
    for t in [50.0, 200.0]:
        lhs, rhs = P.duality_exact(fam8, eta0, [(0,), (1,), (3,)], t)
        assert abs(lhs - rhs) <= 1e-9
        ref = expm_multiply(Q.T.tocsc() * t, p0)[(words & mask) == mask].sum()
        assert abs(lhs - ref) <= 1e-10
        assert abs(rhs - ref) <= 1e-10
        assert abs(lhs - target) <= 1e-9
        assert abs(rhs - target) <= 1e-9


def test_duality_exact_sector_L20():
    """L=20 is past the full-space caps; the 4-particle and |A| sectors are
    small.  At a large t both sides reach the uniform law of the sector."""
    fam = three_cycles(20)
    eta0 = P.Configuration(fam.lattice, 0b1000_0000_1001_0000_0001)
    for A in [[(0,)], [(0,), (4,)], [(0,), (1,), (19,)]]:
        lhs, rhs = P.duality_exact(fam, eta0, A, 1.0)
        assert abs(lhs - rhs) <= 1e-9
        lhs, rhs = P.duality_exact(fam, eta0, A, 100.0)
        target = math.comb(4, len(A)) / math.comb(20, len(A))
        assert abs(lhs - rhs) <= 1e-9
        assert abs(lhs - target) <= 1e-9
        assert abs(rhs - target) <= 1e-9


def test_sector_words_dense_sector():
    """A sector with most bits set is built from its own words: the traced
    peak for the 231 words of C(22, 20) stays under 1 MB, where keeping
    every count up to 20 would hold about 4.2M words (34 MB)."""
    N, n = 22, 20
    tracemalloc.start()
    try:
        idx = _sector_words(N, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    full = (1 << N) - 1
    holes = sorted(full ^ ((1 << i) | (1 << j)) for i in range(N) for j in range(i + 1, N))
    assert idx.tolist() == holes
    assert peak <= 1 << 20
    idx = _sector_words(40, 38)
    assert idx.size == math.comb(40, 38) and np.all(np.diff(idx) > 0)
    assert np.all(np.bitwise_count(idx) == 38)


def test_duality_exact_dense_sector_L40():
    """38 particles on L=40 is a sector of C(40, 38) = 780 states, well under
    the cap; both sides reach C(38, |A|)/C(40, |A|) at a large t."""
    fam = three_cycles(40)
    eta0 = P.Configuration(fam.lattice, ((1 << 40) - 1) ^ 0b1001)
    for A in [[(0,)], [(1,), (3,)]]:
        lhs, rhs = P.duality_exact(fam, eta0, A, 1.0)
        assert abs(lhs - rhs) <= 1e-9
        lhs, rhs = P.duality_exact(fam, eta0, A, 400.0)
        target = math.comb(38, len(A)) / math.comb(40, len(A))
        assert abs(lhs - rhs) <= 1e-9
        assert abs(lhs - target) <= 1e-9
        assert abs(rhs - target) <= 1e-9


def test_duality_exact_sector_cap(monkeypatch):
    """Half filling at L=24 is C(24, 12) states: TooLarge before any sector
    word or generator row is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the cap check")

    monkeypatch.setattr(exact, "_sector_words", refuse)
    monkeypatch.setattr(exact, "_assemble", refuse)
    fam = three_cycles(24)
    eta0 = P.Configuration(fam.lattice, (1 << 12) - 1)
    with pytest.raises(P.TooLarge):
        P.duality_exact(fam, eta0, [(0,)], 1.0)
    # a small eta0 sector does not hide a large |A| sector
    with pytest.raises(P.TooLarge):
        P.duality_exact(fam, P.Configuration(fam.lattice, 1), [(i,) for i in range(12)], 1.0)


def test_duality_exact_leaky_permutation(monkeypatch, fam8):
    """An image outside the particle-count sector is a PropertyViolation."""
    def leaky(pairs, mask, words):
        return permute_bits(pairs, mask, words) | 1

    monkeypatch.setattr(exact, "permute_bits", leaky)
    eta0 = P.Configuration(fam8.lattice, 0b00101100)
    with pytest.raises(P.PropertyViolation, match="outside"):
        P.duality_exact(fam8, eta0, [(1,)], 1.0)


def test_duality_exact_rejects_asymmetric():
    fam = three_cycles(6, rate=1.0, rate_inverse=2.0)
    with pytest.raises(P.NotSymmetric):
        P.duality_exact(fam, P.Configuration(fam.lattice, 0b000111), [(0,)], 1.0)


def test_duality_mc_brackets_exact(fam8):
    eta0 = P.Configuration(fam8.lattice, 0b00101101)
    A = [(0,), (1,), (3,)]
    lhs, rhs = P.duality_exact(fam8, eta0, A, 1.0)
    est_l, est_r = P.duality_mc(eta0, A, fam8, 1.0, 20000, 31)
    assert abs(est_l.mean - lhs) < 3 * est_l.std_error
    assert abs(est_r.mean - rhs) < 3 * est_r.std_error


def test_falsifier_finds_asymmetric_witness():
    rep = P.asymmetric_duality_falsifier(one_way_three_cycles(6), 1.0)
    assert rep.witness_found
    assert rep.max_gap > 1e-6
    assert rep.n_checked > 0
    assert abs(rep.lhs - rep.rhs) == pytest.approx(rep.max_gap)
    d = rep.to_dict()
    assert d["witness_found"] is True


def test_falsifier_clears_symmetric_family(fam6):
    rep = P.asymmetric_duality_falsifier(fam6, 1.0)
    assert not rep.witness_found
    assert rep.max_gap < 1e-9


@pytest.mark.parametrize("fam, t", [(three_cycles(8), 1.0), (three_cycles(10), 3.0),
                                    (swaps(3, 3), 0.7)], ids=["L8", "L10", "swaps3x3"])
def test_falsifier_pair_matches_duality_exact(fam, t):
    rep = P.asymmetric_duality_falsifier(fam, t)
    eta0 = P.Configuration.from_sites(fam.lattice, rep.eta0_sites)
    lhs, rhs = P.duality_exact(fam, eta0, rep.A_sites, t)
    assert abs(rep.lhs - lhs) <= 1e-12 and abs(rep.rhs - rhs) <= 1e-12


def test_falsifier_no_witness_at_time_zero():
    rep = P.asymmetric_duality_falsifier(one_way_three_cycles(6), 0.0)
    assert not rep.witness_found
