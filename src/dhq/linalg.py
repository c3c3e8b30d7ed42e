"""Dense complex linear algebra: state vectors, projectors, Hamiltonians.

All operators are dense complex128 arrays: matrices, or the orthonormal
columns of a projector given by them.  Algebraic identities
(Hermiticity, idempotency, completeness) are enforced at an absolute
max-norm tolerance TOL_ALG, far above double-precision noise for the
dimensions in scope (<= a few hundred) and far below any physical signal.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DegenerateSpan, DimensionMismatch, GridTooLarge, NotHermitian
from .values import FrozenValue

TOL_ALG = 1e-10

# Norm tolerance for state vectors, which are normalized.
TOL_NORM = 1e-12

# The one size budget for dense arrays, in complex entries (256 MiB): the N histories of a
# grid (`HistoryGrid`'s rule), the pairs of L live rows L^2, a grid of n d x d projectors
# with its Hamiltonian (n + 1) d^2.  Each is checked before anything that size is allocated.
MAX_DENSE_ENTRIES = 2**24


def check_dense_size(entries: int, what: str) -> None:
    """Raise GridTooLarge, naming `what`, unless `entries` fit MAX_DENSE_ENTRIES."""
    if entries > MAX_DENSE_ENTRIES:
        raise GridTooLarge(f"{what} exceed the limit of {MAX_DENSE_ENTRIES} dense entries")


def check_grid_size(n: int, dim: int) -> None:
    """Raise GridTooLarge unless n projectors of dimension dim and a Hamiltonian fit."""
    check_dense_size((n + 1) * dim * dim, f"{n} projectors of dimension {dim}")


def _as_complex_matrix(m) -> np.ndarray:
    a = np.array(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    a.setflags(write=False)
    return a


def _as_complex_vector(v) -> np.ndarray:
    a = np.array(v, dtype=np.complex128).reshape(-1)
    if a.size == 0:
        raise DimensionMismatch("empty vector")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector entries must be finite")
    a.setflags(write=False)
    return a


def max_abs(a: np.ndarray) -> float:
    """Max-norm of an array (0.0 for empty input)."""
    return float(np.max(np.abs(a))) if a.size else 0.0


# Validation products of huge entries overflow to inf or NaN, which the checks refuse quietly.
_quiet = np.errstate(over="ignore", invalid="ignore")


class StateVector(FrozenValue):
    """Complex amplitude vector of unit norm (at TOL_NORM): an initial state."""

    _fields = ("amplitudes",)

    @_quiet
    def __init__(self, amplitudes: np.ndarray):
        self._set(amplitudes=_as_complex_vector(amplitudes))
        n = self.norm()
        if abs(n - 1.0) > TOL_NORM:
            raise ValueError(f"state vector has norm {n!r}, expected 1")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


class Projector(FrozenValue):
    """Hermitian idempotent matrix with an integer rank and a label.

    One given by orthonormal columns Q holds only them, as `isometry`, and forms `matrix` =
    Q Q^dag on each read.
    """

    _fields = ("matrix", "rank", "name")

    def __init__(self, matrix: np.ndarray | None = None, name: str = "P",
                 isometry: np.ndarray | None = None, basis: tuple[int, ...] | None = None):
        # `isometry`: d x rank orthonormal columns Q in place of the matrix, checked only as
        # ||Q^dag Q - I||_F <= TOL_ALG (which bounds ||P^2 - P||_max by TOL_ALG); they set rank
        # and matrix = Q Q^dag.  A matrix's rank is its trace.  `basis`: with Q, the sorted indices
        # of the columns of I that Q is, for the `basis` form of `scenario_to_dict`; else None.
        self._set(_matrix=matrix, name=name, isometry=isometry, basis=basis)
        self.__post_init__()

    @_quiet
    def __post_init__(self):
        if (self._matrix is None) == (self.isometry is None):
            raise ValueError(f"projector {self.name!r}: give either its matrix or its isometry")
        if self.basis is not None:  # Q is those columns of I if its only nonzeros are ones at
            # (basis[j], j): certified in O(d r) with no product; Q is kept read-only, not copied.
            b, q = tuple(self.basis), np.asarray(self.isometry, np.complex128)
            if not (q.ndim == 2 and q.shape[1] == len(b) and all(np.diff((-1, *b, len(q))) > 0)
                    and np.count_nonzero(q) == len(b) and (q[b, range(len(b))] == 1).all()):
                raise ValueError(f"projector {self.name!r}: isometry is not the columns of I at its basis")
            q.setflags(write=False)
            self._set(isometry=q, rank=len(b), basis=b)
        elif self.isometry is not None:
            q = _as_complex_matrix(self.isometry)
            defect = np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1]))
            if not defect <= TOL_ALG:
                raise ValueError(f"projector {self.name!r}: ||Q^dag Q - I|| = {defect:.3e}")
            self._set(isometry=q, rank=q.shape[1])
        else:
            m = _as_complex_matrix(self._matrix)
            if m.shape[0] != m.shape[1]:
                raise DimensionMismatch(f"projector matrix must be square, got {m.shape}")
            herm = max_abs(m - m.conj().T)
            if herm > TOL_ALG:
                raise NotHermitian(f"projector {self.name!r}: ||P - P^dag|| = {herm:.3e}")
            idem = max_abs(m @ m - m)
            if not idem <= TOL_ALG:  # so that NaN fails too
                raise ValueError(f"projector {self.name!r}: ||P^2 - P|| = {idem:.3e}")
            tr = float(np.trace(m).real)
            r = int(round(tr))
            if abs(tr - r) > TOL_ALG:
                raise ValueError(f"projector {self.name!r}: trace {tr!r} is not near an integer")
            self._set(_matrix=m, rank=r)

    @property
    def matrix(self) -> np.ndarray:
        """The d x d matrix; from Q, `q @ q.conj().T` formed on each read and not kept."""
        q = self.isometry
        if q is None:
            return self._matrix
        m = q @ q.conj().T
        m.setflags(write=False)
        return m

    def _values(self) -> tuple:
        # The one array held in place of `matrix`, so that == and hash form no matrix.
        return (self._matrix if self.isometry is None else self.isometry, self.rank, self.name)

    @property
    def dim(self) -> int:
        return (self._matrix if self.isometry is None else self.isometry).shape[0]


class Hamiltonian(FrozenValue):
    """Hermitian generator of evolution; energy units with hbar = 1."""

    _fields = ("matrix",)

    @_quiet
    def __init__(self, matrix: np.ndarray):
        m = _as_complex_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"Hamiltonian must be square, got {m.shape}")
        zero = not m.any()
        herm = 0.0 if zero else max_abs(m - m.conj().T)  # H = 0 is Hermitian as it stands
        if herm > TOL_ALG:
            raise NotHermitian(f"||H - H^dag|| = {herm:.3e}")
        self._set(matrix=m)
        # hermitian_eig(H), computed once and shared by every grid over this H; None when H = 0.
        self._set(eigenbasis=None if zero else hermitian_eig(self))
        if not self.is_zero and not np.isfinite(self.eigenbasis[0]).all():
            raise ValueError("Hamiltonian eigenvalues must be finite")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_zero(self) -> bool:
        return self.eigenbasis is None

    @classmethod
    def zero(cls, dim: int) -> "Hamiltonian":
        # A view of one zero: the copy `__init__` makes is the only d x d array.
        return cls(np.broadcast_to(np.complex128(0), (dim, dim)))


def projector_from_span(vectors, name: str = "P") -> Projector:
    """Orthogonal projector onto the span of the given state vectors.

    Raises DegenerateSpan when the vectors are linearly dependent at TOL_ALG (relative
    singular-value test), DimensionMismatch when their dimensions differ.
    """
    vecs = [v.amplitudes if isinstance(v, StateVector) else _as_complex_vector(v)
            for v in vectors]
    if not vecs:
        raise DegenerateSpan("empty span")
    dim = vecs[0].size
    if any(v.size != dim for v in vecs):
        raise DimensionMismatch("spanning vectors have mixed dimensions")
    if len(vecs) > dim:
        raise DegenerateSpan(f"{len(vecs)} vectors cannot be independent in dimension {dim}")
    a = np.column_stack(vecs)
    try:  # columns that are already orthonormal define the projector as they are
        return Projector(isometry=a, name=name)
    except ValueError:
        pass
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= TOL_ALG * s[0]:
        raise DegenerateSpan(
            f"numerical rank below vector count (smallest/largest singular value "
            f"= {s[-1] / max(s[0], 1e-300):.3e})"
        )
    return Projector(isometry=u[:, : len(vecs)], name=name)


def basis_projector(dim: int, indices, name: str = "P") -> Projector:
    """Projector onto the span of the listed canonical basis vectors, kept as its isometry.

    Indices are 0-based and distinct; an empty list gives rank 0.  Raises ValueError naming
    the first index that is not an integer in [0, dim), else on a repeated index.
    """
    indices = list(indices)
    for i in indices:
        if not isinstance(i, numbers.Integral) or isinstance(i, bool) or not 0 <= i < dim:
            raise ValueError(f"projector {name!r}: basis index {i!r} is not an integer in [0, {dim})")
    basis = tuple(sorted({int(i) for i in indices}))
    if len(basis) < len(indices):
        raise ValueError("duplicate basis index")
    q = np.zeros((dim, len(basis)), dtype=np.complex128)
    q[basis, range(len(basis))] = 1.0
    return Projector(isometry=q, name=name, basis=basis)


def complement(p: Projector) -> Projector:
    """I - P ('not P'), named ~name."""
    return Projector(np.eye(p.dim, dtype=np.complex128) - p.matrix, name=f"~{p.name}")


def hermitian_eig(h: Hamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition H = U diag(w) U^dag with deterministic conventions.

    Eigenvalues ascending; each eigenvector's largest-magnitude component
    (first among near-ties) is made real positive so reports are
    bit-reproducible across runs.
    """
    w, u = np.linalg.eigh(h.matrix)
    mags = np.abs(u)
    top = np.argmax(mags > mags.max(axis=0) * (1 - 1e-12), axis=0)
    cols = np.flatnonzero(mags[top, np.arange(u.shape[1])] > 0)
    # One scalar abs(ph) / ph per column: numpy's array division rounds some quotients
    # differently, and the phases must stay bit-reproducible.
    u[:, cols] *= np.array([abs(ph) / ph for ph in u[top[cols], cols]])
    return w, u


def propagator(h: Hamiltonian, t: float) -> np.ndarray:
    """e^{-iHt} = U diag(e^{-iwt}) U^dag from H's one eigenbasis, hbar = 1; I when H = 0."""
    if h.eigenbasis is None:
        return np.eye(h.dim, dtype=np.complex128)
    w, u = h.eigenbasis
    return (u * np.exp(-1j * w * t)) @ u.conj().T


def evolve_heisenberg(p: Projector, h: Hamiltonian, t: float) -> Projector:
    """Heisenberg evolution P(t) = e^{+iHt} P e^{-iHt}, hbar = 1."""
    if p.dim != h.dim:
        raise DimensionMismatch(f"projector dim {p.dim} != Hamiltonian dim {h.dim}")
    if t == 0.0 or h.is_zero:
        return p
    expp = propagator(h, -t)
    m = expp @ p.matrix @ expp.conj().T
    # Re-symmetrize to keep the Projector constructor's checks sharp.
    m = 0.5 * (m + m.conj().T)
    return Projector(m, name=p.name)
