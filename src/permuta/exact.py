"""Exact finite-state verification on small tori.

Configurations are bit words, and this is the oracle side of the package:
generator matrices, stationarity residuals, particle-count sector solves, and
duality computed two independent ways through uniformized semigroups.  One
assembly builds a generator on all 2^N words or on one particle-count sector,
which the chain never leaves (sector solves and ``duality_exact`` work on
sectors only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import NotSymmetric, PropertyViolation, SectorReducible, TooLarge
from .lattice import Site
from .process import Configuration, DualState, _compiled, permute_bits
from .rates import RateFamily, check_symmetry

TOL_STRUCTURAL = 1e-12
TOL_SOLVE = 1e-10
TOL_DUALITY = 1e-9

_DENSE_SITE_CAP = 13  # a 2^13 x 2^13 float64 matrix is 512 MB
_SPARSE_SITE_CAP = 22
_SECTOR_SOLVE_CAP = 4096
_SECTOR_STATE_CAP = math.comb(20, 10)  # states per sector evolved by duality_exact
_BLOCK = 4096  # words per block of generator rows
_LOG_TINY = -700.0  # uniformization starts at the first Poisson weight above e^-700


@dataclass(frozen=True)
class GeneratorMatrix:
    """Generator of ``family`` on the full 2^N configuration space,
    row-indexed by bit word."""

    Q: Union[np.ndarray, sp.csr_matrix]
    family: RateFamily
    sparse: bool

    @property
    def n_sites(self) -> int:
        return self.family.lattice.n_sites

    def dense(self) -> np.ndarray:
        return self.Q.toarray() if self.sparse else self.Q

    def row_sum_residual(self) -> float:
        sums = np.asarray(self.Q.sum(axis=1)).ravel()
        return float(np.abs(sums).max()) if sums.size else 0.0


@dataclass(frozen=True)
class SectorDistribution:
    n: int
    words: np.ndarray  # configuration codes of the sector, ascending
    probs: np.ndarray

    def to_dict(self) -> dict:
        return {"n": self.n, "words": self.words.tolist(), "probs": self.probs.tolist()}


def _assemble(fam: RateFamily, words: np.ndarray, sector: bool) -> sp.csr_matrix:
    """Generator on the ascending ``words``, a block of rows at a time: entry
    (w, w') sums the rates sending w to w' != w in expanded-permutation order,
    the diagonal balances each row.  Columns are image words on all 2^N words,
    or positions among ``words`` on a sector (PropertyViolation if outside)."""
    comp = _compiled(fam) if fam.base else None  # an empty family: a zero matrix
    moves = list(zip(comp.pairs, comp.masks, comp.rates)) if comp else []
    P, n = len(moves), words.size
    shift = P.bit_length()
    indptr = np.zeros(n + 1, dtype=np.int32)
    cols, vals = [], []
    for lo in range(0, n, _BLOCK):
        w = words[lo:lo + _BLOCK]
        img = np.empty((w.size, P + 1), dtype=np.int64)
        val = np.zeros(img.shape)
        for p, (pairs, mask, q) in enumerate(moves):
            img[:, p] = permute_bits(pairs, mask, w)
            val[:, p] = (img[:, p] != w) * q
            val[:, P] -= val[:, p]  # the diagonal, in expanded-permutation order
        img[:, P] = w
        if sector:
            col = np.searchsorted(words, img)
            out = words[np.minimum(col, n - 1)] != img
            if out.any():
                r, p = np.argwhere(out)[0]
                raise PropertyViolation(f"permutation {p} sends word {w[r]} to {img[r, p]}, outside its sector")
            img = col
        # sort each row by column, ties in row order: the position rides in the low bits
        key = (img << shift) | np.arange(P + 1)
        key.sort(axis=1)
        img, val = key >> shift, np.take_along_axis(val, key & ((1 << shift) - 1), axis=1)
        starts = np.flatnonzero(np.diff(img, axis=1, prepend=-1))  # each row's column runs
        sums = np.add.reduceat(val.ravel(), starts)
        starts, sums = starts[sums != 0.0], sums[sums != 0.0]
        indptr[lo + 1:lo + w.size + 1] = np.bincount(starts // (P + 1), minlength=w.size)
        cols.append(img.ravel()[starts].astype(np.int32))
        vals.append(sums)
    np.cumsum(indptr, out=indptr)
    return sp.csr_matrix((np.concatenate(vals), np.concatenate(cols), indptr), shape=(n, n))


def build_generator(fam: RateFamily, sparse: bool = False) -> GeneratorMatrix:
    """The generator on all 2^N words; the dense mode writes the CSR out."""
    lat = fam.lattice
    if not lat.is_torus:
        raise ValueError("exact computations need a torus")
    N = lat.n_sites
    cap = _SPARSE_SITE_CAP if sparse else _DENSE_SITE_CAP
    if N > cap:
        hint = "" if sparse else f" (sparse=True builds up to {_SPARSE_SITE_CAP})"
        raise TooLarge(f"{N} sites exceeds the {'sparse' if sparse else 'dense'} cap of {cap}{hint}")
    Q = _assemble(fam, np.arange(1 << N, dtype=np.int64), sector=False)
    return GeneratorMatrix(Q if sparse else Q.toarray(), fam, sparse)


def product_measure_vector(rho: float, N: int) -> np.ndarray:
    """Bernoulli(rho) product law over all 2^N configuration codes."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    pc = np.bitwise_count(np.arange(1 << N, dtype=np.uint64)).astype(np.int64)
    return np.power(rho, pc) * np.power(1.0 - rho, N - pc)


def stationarity_residual(nu: np.ndarray, G: GeneratorMatrix) -> float:
    """Max-norm of nu Q for a probability vector nu."""
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (1 << G.n_sites,):
        raise ValueError("distribution length does not match the state space")
    if nu.min() < -1e-12 or abs(nu.sum() - 1.0) > 1e-9:
        raise ValueError("not a probability vector")
    return float(np.abs(G.Q.T @ nu).max())


def _sector_words(N: int, n: int) -> np.ndarray:
    """The C(N, n) words with n of N bits set, ascending."""
    by_count = [np.zeros(1, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * n
    for m in range(N):  # words with bit m clear (all smaller) first, then with it set
        by_count = by_count[:1] + [np.concatenate([c, d | (1 << m)])
                                   for c, d in zip(by_count[1:], by_count)]
        # empty the counts the bits left cannot raise to n: at most C(N, n) words stay
        for c in range(n - (N - m - 1)):
            by_count[c] = by_count[c][:0]
    return by_count[n]


def _sector(fam: RateFamily, n: int):
    """The n-particle sector: its ascending words and its generator."""
    words = _sector_words(fam.lattice.n_sites, n)
    return words, _assemble(fam, words, sector=True)


def sector_stationary(source: Union[RateFamily, GeneratorMatrix], n: int) -> SectorDistribution:
    """Unique stationary law of the n-particle sector via dense solve.

    The sector is assembled from the family (a GeneratorMatrix stands for the
    one it was built from), which raises PropertyViolation if it is not
    closed.  It must be strongly connected; uniqueness is re-asserted through
    the nullity of its generator.
    """
    fam = source.family if isinstance(source, GeneratorMatrix) else source
    if not fam.lattice.is_torus:
        raise ValueError("exact computations need a torus")
    N = fam.lattice.n_sites
    if not 0 <= n <= N:
        raise ValueError("particle count outside 0..N")
    size = math.comb(N, n)
    if N > 63 or size > _SECTOR_SOLVE_CAP:
        raise TooLarge(f"sector has {size} states on {N} sites: dense solve capped at "
                       f"{_SECTOR_SOLVE_CAP} and 63")
    idx, sub = _sector(fam, n)
    if idx.size == 1:
        return SectorDistribution(n, idx, np.ones(1))
    sub = sub.toarray()
    adj = sp.csr_matrix((sub > 0).astype(np.int8))
    n_comp, _ = connected_components(adj, directed=True, connection="strong")
    if n_comp > 1:
        raise SectorReducible(f"{n}-particle sector splits into {n_comp} strong components")
    sv = np.linalg.svd(sub.T, compute_uv=False)
    nullity = int(np.sum(sv <= max(sv.max(), 1.0) * TOL_SOLVE))
    if nullity != 1:
        raise SectorReducible(f"stationary law not unique (nullity {nullity})")
    M = np.vstack([sub.T, np.ones(idx.size)])
    b = np.r_[np.zeros(idx.size), 1.0]
    pi, *_ = np.linalg.lstsq(M, b, rcond=None)
    if pi.min() < -1e-12:
        raise PropertyViolation(f"stationary solve produced probability {pi.min()}")
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    return SectorDistribution(n, idx, pi)


def _uniformized(v: np.ndarray, M, t: float, tol: float = 1e-12,
                 extra_terms: int = 0) -> np.ndarray:
    """e^{tQ} applied through M by Poisson-weighted powers of the jump kernel
    I + M/Lam: pass M = Q.T to push a distribution forward (v e^{tQ}), M = Q to
    pull a column function back (e^{tQ} v).

    Iterates are probability vectors (M = Q.T) or averages of v (M = Q), so
    the expansion is stable; extra_terms extends the series past the tail
    cutoff for stability checks.
    """
    diag = M.diagonal()
    lam = float(max(-diag.min(), 0.0)) if diag.size else 0.0
    g = v.astype(float)
    lt = lam * t
    if lt == 0.0:
        return g
    # Poisson(lt) weights: the first one that is a normal double comes from
    # log space (k = 0 unless exp(-lt) underflows), the rest from w *= lt / k
    log_lt = math.log(lt)
    k = 0
    while k * log_lt - lt - math.lgamma(k + 1) < _LOG_TINY:
        k += 1
        g = g + (M @ g) / lam
    w = math.exp(k * log_lt - lt - math.lgamma(k + 1))
    out = w * g
    cum = w
    remaining = extra_terms
    while True:
        # rounding can hold the summed weights just short of 1 - tol at long
        # horizons; past the mode the tail is below the geometric bound
        if cum >= 1.0 - tol or (k + 1 > lt and w * (k + 1) / (k + 1 - lt) <= tol):
            if remaining == 0:
                return out
            remaining -= 1
        k += 1
        g = g + (M @ g) / lam
        w *= lt / k
        out = out + w * g
        cum += w


def _sector_law(sector, word: int, t: float, extra_terms: int = 0) -> np.ndarray:
    """Law at time t on ``sector`` (words, generator) of the chain started
    from ``word``: a configuration, or the bit mask of a set (subset chain)."""
    words, Q = sector
    q0 = np.zeros(words.size)
    q0[int(np.searchsorted(words, word))] = 1.0
    return _uniformized(q0, Q.T, t, extra_terms=extra_terms)


def duality_exact(
    fam: RateFamily,
    eta0: Configuration,
    A: Union[DualState, Iterable[Site]],
    t: float,
    extra_terms: int = 0,
) -> Tuple[float, float]:
    """Both sides of the duality identity, each through its own uniformized
    semigroup: the configuration chain from eta0 on eta0's particle-count
    sector versus the |A|-subset chain from A.  For symmetric families the
    two numbers agree.  Each sector is capped at C(20, 10) states."""
    if not check_symmetry(fam):
        raise NotSymmetric("exact duality needs a symmetric family")
    lat = fam.lattice
    if not lat.is_torus:
        raise ValueError("exact duality needs a torus")
    if eta0.lattice != lat:
        raise ValueError("initial configuration lives on a different lattice")
    N = lat.n_sites
    dual = A if isinstance(A, DualState) else DualState.of(lat, A)
    mask = sum(1 << lat.index(s) for s in dual.sites)
    states = max(math.comb(N, eta0.word.bit_count()), math.comb(N, mask.bit_count()))
    if N > 63 or states > _SECTOR_STATE_CAP:
        raise TooLarge(f"{states} sector states on {N} sites: capped at {_SECTOR_STATE_CAP} and 63")
    sector = _sector(fam, eta0.word.bit_count())
    pT = _sector_law(sector, eta0.word, t, extra_terms)
    lhs = float(pT[(sector[0] & mask) == mask].sum())
    sector = _sector(fam, mask.bit_count())
    qT = _sector_law(sector, mask, t, extra_terms)
    rhs = float(qT[(sector[0] & ~eta0.word) == 0].sum())
    return lhs, rhs


@dataclass(frozen=True)
class FalsifierReport:
    witness_found: bool
    max_gap: float
    n_checked: int
    t: float
    eta0_sites: Optional[Tuple[Site, ...]]
    A_sites: Optional[Tuple[Site, ...]]
    lhs: Optional[float]
    rhs: Optional[float]

    def to_dict(self) -> dict:
        return {
            "witness_found": self.witness_found,
            "max_gap": self.max_gap,
            "n_checked": self.n_checked,
            "t": self.t,
            "eta0_sites": [list(s) for s in self.eta0_sites] if self.eta0_sites else None,
            "A_sites": [list(s) for s in self.A_sites] if self.A_sites else None,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


def asymmetric_duality_falsifier(fam: RateFamily, t: float) -> FalsifierReport:
    """Scan every initial configuration against every dual state of size 1 or
    2, reporting the largest |lhs - rhs|.  A gap above 1e-6 is a witness that
    the naive duality identity fails; finding none is reported, not asserted.
    """
    lat = fam.lattice
    if not lat.is_torus:
        raise ValueError("the falsifier needs a torus")
    N = lat.n_sites
    if N > 10:
        raise TooLarge(f"falsifier scans all pairs, capped at 10 sites (got {N})")
    G = build_generator(fam, sparse=True)
    S = 1 << N
    words = np.arange(S, dtype=np.int64)
    masks = np.array([1 << i for i in range(N)]
                     + [(1 << i) | (1 << j) for i in range(N) for j in range(i + 1, N)])
    # lhs(eta0, A) for every eta0 at once: each indicator of A pulled back as a column
    lhs = _uniformized(((words[:, None] & masks) == masks).astype(float), G.Q, t)
    # rhs(eta0, A): the subset chain's law out of each A pushed forward as a
    # column (it stays on the |A| sector), then a subset-sum over eta0
    rhs = np.zeros((S, masks.size))
    rhs[masks, np.arange(masks.size)] = 1.0
    rhs = _uniformized(rhs, G.Q.T, t)
    for i in range(N):
        has = ((words >> i) & 1).astype(bool)
        rhs[has] += rhs[words[has] ^ (1 << i)]
    gaps = np.abs(lhs - rhs).T  # mask by mask: the first mask, then word, of the largest gap
    a, w = divmod(int(np.argmax(gaps)), S)
    best_gap = float(gaps[a, w])
    found = best_gap > 1e-6
    eta0_sites = tuple(lat.site_at(i) for i in range(N) if (w >> i) & 1)
    A_sites = tuple(lat.site_at(i) for i in range(N) if (masks[a] >> i) & 1)
    return FalsifierReport(found, best_gap, gaps.size, t, eta0_sites, A_sites,
                           float(lhs[w, a]), float(rhs[w, a]))
