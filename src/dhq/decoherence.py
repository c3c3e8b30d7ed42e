"""Decoherence functional, medium-decoherence verdicts, history probabilities.

The decoherence criterion is scale-invariant: every pair of branches must
satisfy |<Psi_a|Psi_b>| / sqrt(p_a p_b) <= tol_dec.  Branches whose
probability falls below an absolute floor are treated as non-interfering
(a never-occurring history cannot carry interference), so the verdict is
decided over the live branch rows alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidPartition, NotDecoherent
from .histories import HistoryGrid, HistoryIndex, branch_matrix, enumerate_histories, history_labels
from .linalg import TOL_ALG, check_dense_size
from .values import FrozenValue

TOL_DEC_DEFAULT = 1e-8

# Absolute floor added to the geometric-mean denominator, and the probability
# below which a branch counts as zero-norm (dead).
OFFDIAG_FLOOR = 1e-14

# Edge of the square tiles every pairwise loop walks.  Fixed, never derived from
# the BLAS thread count, so reports are byte-identical across thread counts.
GRAM_TILE = 256


def _tiles(n: int):
    """Upper-triangle tiles of an n x n matrix as (rows, cols, on_diagonal) slices."""
    # A last tile one row wide would go through gemv, which rounds unlike gemm: fold it in.
    edges = [*range(0, max(n - 1, 1), GRAM_TILE), n]
    for a, (i, k) in enumerate(zip(edges, edges[1:])):
        for j, m in zip(edges[a:], edges[a + 1:]):
            yield slice(i, k), slice(j, m), i == j


def _tile_products(branches: np.ndarray):
    """(rows, cols, t, on_diagonal) per tile: t = conj(B_r) B_c^T, or (t + t^dag)/2 on diagonals."""
    left = branches.conj()
    for rows, cols, on_diagonal in _tiles(branches.shape[0]):
        t = left[rows] @ branches[cols].T
        yield rows, cols, 0.5 * (t + t.conj().T) if on_diagonal else t, on_diagonal


def gram_matrix(branches: np.ndarray) -> np.ndarray:
    """D = conj(B) B^T from the upper `_tile_products`, off-diagonal ones mirrored."""
    n = branches.shape[0]
    gram = np.empty((n, n), dtype=np.complex128)
    for rows, cols, t, on_diagonal in _tile_products(branches):
        gram[rows, cols] = t
        if not on_diagonal:
            gram[cols, rows] = t.conj().T
    return gram


def branch_probabilities(branches: np.ndarray) -> np.ndarray:
    """Squared row norms p_a = ||Psi_a||^2, each summed on its own row without BLAS."""
    x = np.ascontiguousarray(branches, dtype=np.complex128).view(np.float64)
    return np.einsum("ij,ij->i", x, x)


def _walk(rows: np.ndarray, p: np.ndarray) -> float:
    """Max of |D(a,b)| / (sqrt(p_a p_b) + floor) over pairs a != b of these rows, by tiles."""
    worst = 0.0
    if len(p) < 2:
        return worst
    for r, c, t, on_diagonal in _tile_products(rows):
        if on_diagonal:
            np.fill_diagonal(t, 0.0)
        denominator = np.sqrt(np.outer(p[r], p[c]))
        denominator += OFFDIAG_FLOOR
        worst = max(worst, float((np.abs(t) / denominator).max()))
    return worst


def normalized_offdiag(
    branches: np.ndarray, probabilities: np.ndarray, final_size: int = 1
) -> float:
    """Max of |D(a,b)| / (sqrt(p_a p_b) + floor) over live rows a != b, D(a,b) = <Psi_a|Psi_b>.

    Only the L rows with p >= OFFDIAG_FLOOR enter.  Their L^2 pairs are checked against the
    budget, then walked in `_tile_products`, so no N x N or L x L array is formed.

    Rows of a grid in enumeration order end in final alternative i mod m, m = `final_size`,
    and rows ending in different members of the final exclusive set do not interfere.  So
    each block branches[g::m] is walked on its own first, and the largest block value M is
    the answer when M > B, a bound on the computed value of every cross-block pair.  Else
    (and for m = 1) all live pairs are walked.

    B.  Let delta = d TOL_ALG and u = 2^-52.  The load checks bound P - P^dag, P^2 - P,
    P P' (P != P' in one set) and sum P - I by TOL_ALG in max norm, so by delta in spectral
    norm (a set certified from its columns bounds them for P = Q Q^dag by TOL_ALG in spectral
    norm, and its product phi P^T, taken as (phi conj(Q)) Q^T, rounds within the eta below).
    Hence ||P|| <= rho = 1 + 2 delta, as ||P||^2 = ||P^dag P|| <= ||P^2|| + delta ||P||,
    and ||P^dag P'|| <= delta + delta rho <= c = 2 delta rho.  A computed row is
    Psi_a = V P phi_a + g_a: phi_a is the computed row entering the last projector product,
    V the unitary nearest the computed e^{iHt_n} (I when H = 0), and g_a the rounding of the
    last two products and of V (LAPACK's eigenvectors are orthonormal to a small multiple of
    d u), ||g_a|| <= eta ||phi_a|| with eta = 4 (d + 2)^2 u.  As x_a = P phi_a = P x_a +
    (P - P^2) phi_a, Psi_a = V P x_a + e_a with ||e_a|| <= eps = (delta + eta) Phi for any
    Phi >= ||phi_a||; and ||x_a|| <= ||Psi_a|| + eta Phi <= (1 + eta) (s_a + eps), s_a =
    sqrt(p_a).  For rows ending in P and P',
        <Psi_a|Psi_b> = <x_a|P^dag P'|x_b> + <V P x_a|e_b> + <e_a|V P' x_b> + <e_a|e_b>,
    so with q = eps / sqrt(min live p), |D(a,b)| / (s_a s_b) <= (1 + eta)^2 (c (1 + q)^2
    + 2 rho q (1 + q) + q^2).  Rounding the product, the roots and the quotient adds less
    than eta, and the floor only lowers the quotient: B is that sum.  Phi = 2 sqrt(sum p):
    completeness over the m final members gives ||phi||^2 <= sum_a ||P_a phi||^2 + (delta
    + m c) ||phi||^2, each ||P_a phi|| <= (1 + eta) s_a + eta ||phi||, so ||phi|| <= (4/3)
    (1 + eta) sqrt(sum p) while delta + m c + sqrt(m) eta <= 1/4.  Past that, nothing is
    certified.
    """
    live = probabilities >= OFFDIAG_FLOOR
    n = int(live.sum())
    check_dense_size(n * n, f"{n}^2 pairs of live branch rows")
    m = final_size
    if m > 1 and n > 1:
        blocks = ((branches[g::m], probabilities[g::m], live[g::m]) for g in range(m))
        worst = max(_walk(rows[alive], p[alive]) for rows, p, alive in blocks)
        d = branches.shape[1]
        delta, eta = d * TOL_ALG, 4 * (d + 2) ** 2 * np.finfo(float).eps
        rho, c = 1 + 2 * delta, 2 * delta * (1 + 2 * delta)
        q = (delta + eta) * 2 * np.sqrt(probabilities.sum() / probabilities[live].min())
        bound = (1 + eta) ** 2 * (c * (1 + q) ** 2 + 2 * rho * q * (1 + q) + q**2) + eta
        if delta + m * c + np.sqrt(m) * eta <= 0.25 and worst > bound:
            return worst
    rows, p = (branches, probabilities) if live.all() else (branches[live], probabilities[live])
    return _walk(rows, p)


class DecoherenceReport(FrozenValue):
    """Branch rows of a set of histories, with their probabilities and verdict.

    Row a of `branches` is C_a|Psi>, named `labels[a]` by the `names` axes; every other number
    is formed from the rows here.  `final_size` > 1 says the rows are a grid's in enumeration
    order, ending in that many final alternatives (see `normalized_offdiag`).  `probabilities`,
    `max_offdiag_normalized` and `decoherent` are derived from the rows.
    """

    _fields = ("names", "branches", "tol_used", "final_size",
               "probabilities", "max_offdiag_normalized", "decoherent")

    def __init__(self, names: tuple[tuple[str, ...], ...], branches: np.ndarray, tol_used: float,
                 final_size: int = 1):
        self._set(names=names, branches=branches, tol_used=tol_used, final_size=final_size)
        self.__post_init__()

    def __post_init__(self):
        rows, n = self.branches, math.prod(map(len, self.names))
        if len(rows) != n:
            raise ValueError(f"{len(rows)} branch rows for {n} labels")
        state = rows.sum(axis=0)  # the sum of all D(a,b) is ||sum of rows||^2
        total = float(np.vdot(state, state).real)
        if not abs(total - 1.0) <= TOL_ALG:  # so that NaN fails too
            raise AssertionError(f"gram entries sum to {total!r}, expected 1")
        p = branch_probabilities(rows)
        worst = normalized_offdiag(rows, p, self.final_size)
        self._set(probabilities=p, max_offdiag_normalized=worst, decoherent=worst <= self.tol_used)
        for array in (rows, p):
            array.setflags(write=False)

    @property
    def labels(self) -> tuple[str, ...]:  # formed on each access
        return tuple(history_labels(self.names))

    @property
    def gram(self) -> np.ndarray:
        """The N x N Gram matrix D(a,b) = <Psi_a|Psi_b>, formed on each access if it fits."""
        n = len(self.branches)
        check_dense_size(n * n, f"{n}^2 Gram entries of {n} histories")
        gram = gram_matrix(self.branches)
        gram.setflags(write=False)
        return gram


def decoherence_functional(grid: HistoryGrid, tol_dec: float = TOL_DEC_DEFAULT) -> DecoherenceReport:
    """Report of every history's branch row: probabilities and the verdict over the live rows."""
    names = tuple(s.names() for s in grid.sets)
    return DecoherenceReport(names, branch_matrix(grid), tol_dec, grid.sets[-1].size)


def decoherent_report(grid: HistoryGrid, tol_dec: float = TOL_DEC_DEFAULT) -> DecoherenceReport:
    """The grid's report; NotDecoherent (carrying it) when the set fails the medium check."""
    report = decoherence_functional(grid, tol_dec=tol_dec)
    if not report.decoherent:
        raise NotDecoherent(f"set fails decoherence: max normalized off-diagonal "
                            f"{report.max_offdiag_normalized:.3e} > {tol_dec:.3e}", report)
    return report


def probabilities(grid: HistoryGrid,
                  tol_dec: float = TOL_DEC_DEFAULT) -> list[tuple[HistoryIndex, float]]:
    """History probabilities p(a) = ||C_a |Psi>||^2 of a grid's `decoherent_report`."""
    report = decoherent_report(grid, tol_dec=tol_dec)
    return list(zip(enumerate_histories(grid), (float(p) for p in report.probabilities)))


def flat_indices(arrays, shape: tuple[int, ...]) -> np.ndarray:
    """Flat (enumeration) index in a grid of `shape` of each row of these history arrays, or -1."""
    n = len(shape)
    rows = [np.empty((0, n), dtype=np.int64)]
    for a in arrays:
        if a.dtype == object:  # rows kept as given are walked: an index 1.0 is 1
            a = np.array([h if len(h) == n and all(x in range(m) for x, m in zip(h, shape))
                          else (-1,) * n for h in a], dtype=np.int64).reshape(-1, n)
        rows.append(a if a.shape[1:] == (n,) else np.full((len(a), n), -1))
    rows = np.concatenate(rows)
    known = ((rows >= 0) & (rows < shape)).all(axis=1)
    return np.where(known, np.ravel_multi_index(rows.T, shape, mode="clip"), -1)


def validate_partition(classes, shape: tuple[int, ...]) -> np.ndarray:
    """Class id of every history of a grid of this `shape`, indexed by flat (enumeration) index.

    The classes (`history_array`s) must be disjoint, nonempty and exhaustive: one `bincount`
    of their flat indices is 1 everywhere.  Else a walk in file order names the first defect.
    """
    sizes = list(map(len, classes))
    flat = flat_indices(classes, shape)
    counts = np.bincount(flat + 1, minlength=math.prod(shape) + 1)  # rows naming none at 0
    if all(sizes) and counts[0] == 0 and (counts[1:] == 1).all():  # flat is a permutation
        return np.repeat(np.arange(len(classes)), sizes)[np.argsort(flat)]
    first = np.full(len(counts) - 1, -1)  # the class each history is first listed in
    for i, (c, j) in enumerate(zip(classes, np.cumsum([0, *sizes]))):
        if not len(c):
            raise InvalidPartition(f"class {i} is empty")
        for h, f in zip(c.tolist(), flat[j:]):
            if f < 0:
                raise InvalidPartition(f"class {i} contains unknown history {tuple(h)}")
            if first[f] >= 0:
                raise InvalidPartition(f"class {i} lists history {tuple(h)} twice" if first[f] == i
                                       else f"history {tuple(h)} appears in more than one class")
            first[f] = i
    missing = np.argwhere(counts[1:].reshape(shape) == 0)[:4].tolist()  # in enumeration order
    raise InvalidPartition(f"partition misses histories, e.g. {list(map(tuple, missing))}")


def check_sum_rules(grid: HistoryGrid, partition) -> float:
    """Max violation of p(class) = sum of member candidate probabilities.

    The class probability is the squared norm of the summed class operator
    applied to the initial state; exact decoherence makes the violation
    vanish, interference shows up as a nonzero value.
    """
    ids = validate_partition(partition.classes, grid.shape)
    branches = branch_matrix(grid)
    worst = 0.0
    for members in (branches[ids == i] for i in range(len(partition.classes))):  # row order
        coarse = sum(members)
        p_sum = float(sum(np.vdot(b, b).real for b in members))
        worst = max(worst, abs(float(np.vdot(coarse, coarse).real) - p_sum))
    return worst
