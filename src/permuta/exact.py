"""Exact finite-state verification on small tori.

Everything here works on the full configuration space of a torus encoded as
bit words, so it is the oracle side of the package: generator matrices,
stationarity residuals, particle-count sector solves, and duality computed
two independent ways through uniformized semigroups.
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

_DENSE_SITE_CAP = 16
_SPARSE_SITE_CAP = 22
_SECTOR_SOLVE_CAP = 4096
_LOG_TINY = -700.0  # uniformization starts at the first Poisson weight above e^-700


@dataclass(frozen=True)
class GeneratorMatrix:
    """Generator on the full 2^N configuration space, row-indexed by bit word."""

    Q: Union[np.ndarray, sp.csr_matrix]
    n_sites: int
    sparse: bool

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


def build_generator(fam: RateFamily, sparse: bool = False) -> GeneratorMatrix:
    """Assemble the full generator; entry (w, w') sums the rates of expanded
    permutations sending w to w' != w, diagonal balancing each row to zero."""
    lat = fam.lattice
    if not lat.is_torus:
        raise ValueError("exact computations need a torus")
    N = lat.n_sites
    cap = _SPARSE_SITE_CAP if sparse else _DENSE_SITE_CAP
    if N > cap:
        raise TooLarge(f"{N} sites exceeds the {'sparse' if sparse else 'dense'} cap of {cap}")
    S = 1 << N
    if not fam.base:
        Q = sp.csr_matrix((S, S)) if sparse else np.zeros((S, S))
        return GeneratorMatrix(Q, N, sparse)
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
    # entries accumulate in expanded-permutation order, as separate += would
    diag = np.zeros(S)
    np.add.at(diag, rows, -vals)
    if sparse:
        Q = sp.coo_matrix((vals, (rows, cols)), shape=(S, S)).tocsr() + sp.diags(diag)
        return GeneratorMatrix(Q.tocsr(), N, True)
    Q = np.zeros((S, S))
    np.add.at(Q, (rows, cols), vals)
    Q[words, words] = diag
    return GeneratorMatrix(Q, N, False)


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
    if G.sparse:
        res = G.Q.T.dot(nu)
    else:
        res = nu @ G.Q
    return float(np.abs(res).max())


def _sector_words(N: int, n: int) -> np.ndarray:
    words = np.arange(1 << N, dtype=np.int64)
    return words[np.bitwise_count(words.astype(np.uint64)).astype(np.int64) == n]


def sector_stationary(G: GeneratorMatrix, n: int) -> SectorDistribution:
    """Unique stationary law of the n-particle sector via dense solve.

    The sector must be closed (structural) and strongly connected; uniqueness
    is re-asserted through the nullity of the restricted generator.
    """
    N = G.n_sites
    if not 0 <= n <= N:
        raise ValueError("particle count outside 0..N")
    idx = _sector_words(N, n)
    if idx.size > _SECTOR_SOLVE_CAP:
        raise TooLarge(f"sector has {idx.size} states, dense solve capped at {_SECTOR_SOLVE_CAP}")
    rows = sp.csr_matrix(G.Q)[idx]
    sub = rows[:, idx].toarray()
    # closure: all off-sector mass in these rows must vanish
    leak = np.asarray(abs(rows).sum(axis=1)).ravel() - np.abs(sub).sum(axis=1)
    if idx.size and leak.size and leak.max() > TOL_STRUCTURAL:
        raise PropertyViolation(f"sector leaks mass {leak.max()} outside itself")
    if idx.size == 1:
        return SectorDistribution(n, idx, np.ones(1))
    adj = sp.csr_matrix((sub > 0).astype(np.int8))
    n_comp, _ = connected_components(adj, directed=True, connection="strong")
    if n_comp > 1:
        raise SectorReducible(f"{n}-particle sector splits into {n_comp} strong components")
    sv = np.linalg.svd(sub.T, compute_uv=False)
    nullity = int(np.sum(sv <= max(sv.max(), 1.0) * TOL_SOLVE))
    if nullity != 1:
        raise SectorReducible(f"stationary law not unique (nullity {nullity})")
    M = np.vstack([sub.T, np.ones(idx.size)])
    b = np.zeros(idx.size + 1)
    b[-1] = 1.0
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


def _subset_law(G: GeneratorMatrix, mask: int, t: float, extra_terms: int = 0):
    """Law at time t of the subset chain started from the set with bit mask
    ``mask``: the words of its particle-count sector and their probabilities."""
    idx = _sector_words(G.n_sites, mask.bit_count())
    sub = G.Q[idx][:, idx]
    q0 = np.zeros(idx.size)
    q0[int(np.searchsorted(idx, mask))] = 1.0
    return idx, _uniformized(q0, sub.T, t, extra_terms=extra_terms)


def duality_exact(
    fam: RateFamily,
    eta0: Configuration,
    A: Union[DualState, Iterable[Site]],
    t: float,
    extra_terms: int = 0,
) -> Tuple[float, float]:
    """Both sides of the duality identity, each through its own uniformized
    semigroup: the full configuration chain from eta0 versus the |A|-subset
    chain from A.  For symmetric families the two numbers agree."""
    if not check_symmetry(fam):
        raise NotSymmetric("exact duality needs a symmetric family")
    lat = fam.lattice
    if not lat.is_torus:
        raise ValueError("exact duality needs a torus")
    if eta0.lattice != lat:
        raise ValueError("initial configuration lives on a different lattice")
    N = lat.n_sites
    if N > _DENSE_SITE_CAP:
        raise TooLarge(f"{N} sites exceeds the duality cap of {_DENSE_SITE_CAP}")
    dual = A if isinstance(A, DualState) else DualState.of(lat, A)
    mask = 0
    for s in dual.sites:
        mask |= 1 << lat.index(s)
    G = build_generator(fam, sparse=True)
    S = 1 << N

    p0 = np.zeros(S)
    p0[eta0.word] = 1.0
    pT = _uniformized(p0, G.Q.T, t, extra_terms=extra_terms)
    words = np.arange(S, dtype=np.int64)
    lhs = float(pT[(words & mask) == mask].sum())

    idx, qT = _subset_law(G, mask, t, extra_terms=extra_terms)
    rhs = float(qT[(idx & ~eta0.word) == 0].sum())
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

    masks = [1 << i for i in range(N)]
    masks += [(1 << i) | (1 << j) for i in range(N) for j in range(i + 1, N)]

    best_gap = -1.0
    best: Optional[Tuple[int, int, float, float]] = None
    n_checked = 0
    for mask in masks:
        # lhs(eta0) for every eta0 at once: evolve the indicator as a column
        f = ((words & mask) == mask).astype(float)
        lhs_vec = _uniformized(f, G.Q, t)
        # rhs(eta0): subset-chain law out of A, then a subset-sum over eta0
        idx, qT = _subset_law(G, mask, t)
        r_full = np.zeros(S)
        r_full[idx] = qT
        for i in range(N):
            has = ((words >> i) & 1).astype(bool)
            r_full[has] += r_full[words[has] ^ (1 << i)]
        gaps = np.abs(lhs_vec - r_full)
        n_checked += S
        top = int(np.argmax(gaps))
        if gaps[top] > best_gap:
            best_gap = float(gaps[top])
            best = (top, mask, float(lhs_vec[top]), float(r_full[top]))
    found = best_gap > 1e-6
    eta0_sites = A_sites = None
    lhs = rhs = None
    if best is not None:
        w, mask, lhs, rhs = best
        eta0_sites = tuple(lat.site_at(i) for i in range(N) if (w >> i) & 1)
        A_sites = tuple(lat.site_at(i) for i in range(N) if (mask >> i) & 1)
    return FalsifierReport(found, best_gap, n_checked, t, eta0_sites, A_sites, lhs, rhs)
