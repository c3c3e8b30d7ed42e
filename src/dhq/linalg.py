"""Dense complex linear algebra: state vectors, projectors, Hamiltonians.

All operators are dense complex128 matrices.  Algebraic identities
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

# Norm tolerance for vectors flagged as normalized.
TOL_NORM = 1e-12

# The one size budget for dense arrays, in complex entries (256 MiB): the branch rows of n
# histories in dimension d take n d, the pairs of L live rows L^2, a grid of n d x d
# projectors with its Hamiltonian (n + 1) d^2.  Each is checked before anything that size
# is allocated.
MAX_DENSE_ENTRIES = 2**24


def check_dense_size(entries: int, what: str) -> None:
    """Raise GridTooLarge, naming `what`, unless `entries` fit MAX_DENSE_ENTRIES."""
    if entries > MAX_DENSE_ENTRIES:
        raise GridTooLarge(f"{what} exceed the limit of {MAX_DENSE_ENTRIES} dense entries")


def check_rows_size(n: int, dim: int) -> None:
    """Raise GridTooLarge unless the branch rows of n histories of dimension dim fit."""
    check_dense_size(n * dim, f"{n} branch rows of dimension {dim}")


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
    """Complex amplitude vector; flagged normalized for initial states."""

    _fields = ("amplitudes", "normalized")

    @_quiet
    def __init__(self, amplitudes: np.ndarray, normalized: bool = False):
        self._set(amplitudes=_as_complex_vector(amplitudes), normalized=normalized)
        if normalized:
            n = self.norm()
            if abs(n - 1.0) > TOL_NORM:
                raise ValueError(f"state flagged normalized has norm {n!r}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


class Projector(FrozenValue):
    """Hermitian idempotent matrix with an integer rank and a label."""

    _fields = ("matrix", "rank", "name")

    def __init__(self, matrix: np.ndarray | None = None, rank: int = -1, name: str = "P",
                 isometry: np.ndarray | None = None):
        # `isometry`: d x rank orthonormal columns Q in place of the matrix, checked only as
        # ||Q^dag Q - I||_F <= TOL_ALG (which bounds ||P^2 - P||_max by TOL_ALG); they set rank
        # and matrix = Q Q^dag.  `basis`: sorted canonical-basis indices spanned, kept by
        # basis_projector for the `basis` dump form of `scenario.scenario_to_dict`; else None.
        self._set(matrix=matrix, rank=rank, name=name, isometry=isometry, basis=None)
        self.__post_init__()

    @_quiet
    def __post_init__(self):
        if (self.matrix is None) == (self.isometry is None):
            raise ValueError(f"projector {self.name!r}: give either its matrix or its isometry")
        if self.isometry is not None:
            q = _as_complex_matrix(self.isometry)
            defect = np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1]))
            if not defect <= TOL_ALG:
                raise ValueError(f"projector {self.name!r}: ||Q^dag Q - I|| = {defect:.3e}")
            self._set(isometry=q)
            m, r = q @ q.conj().T, q.shape[1]
            m.setflags(write=False)
        else:
            m = _as_complex_matrix(self.matrix)
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
        if self.rank >= 0 and self.rank != r:
            raise ValueError(f"projector {self.name!r}: declared rank {self.rank} != trace {r}")
        self._set(matrix=m, rank=r)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class Hamiltonian(FrozenValue):
    """Hermitian generator of evolution; energy units with hbar = 1."""

    _fields = ("matrix",)

    @_quiet
    def __init__(self, matrix: np.ndarray):
        m = _as_complex_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"Hamiltonian must be square, got {m.shape}")
        herm = max_abs(m - m.conj().T)
        if herm > TOL_ALG:
            raise NotHermitian(f"||H - H^dag|| = {herm:.3e}")
        self._set(matrix=m)
        # hermitian_eig(H), computed once and shared by every grid over this H; None when H = 0.
        self._set(eigenbasis=hermitian_eig(self) if m.any() else None)
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
        return cls(np.zeros((dim, dim), dtype=np.complex128))


def projector_from_span(vectors, name: str = "P") -> Projector:
    """Orthogonal projector onto the span of the given state vectors.

    Raises DegenerateSpan when the vectors are linearly dependent at
    TOL_ALG (relative singular-value test), DimensionMismatch when their
    dimensions differ.
    """
    vecs = [v.amplitudes if isinstance(v, StateVector) else _as_complex_vector(v) for v in vectors]
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

    Indices are 0-based and deduplicated; an empty list gives rank 0.  Raises
    ValueError naming an index that is not an integer in [0, dim).
    """
    indices = list(indices)
    for i in indices:
        if not isinstance(i, numbers.Integral) or isinstance(i, bool) or not 0 <= i < dim:
            raise ValueError(f"projector {name!r}: basis index {i!r} is not an integer in [0, {dim})")
    basis = tuple(sorted({int(i) for i in indices}))
    p = Projector(isometry=np.eye(dim)[:, list(basis)], name=name)
    p._set(basis=basis)
    return p


def complement(p: Projector, name: str | None = None) -> Projector:
    """I - P ('not P')."""
    eye = np.eye(p.dim, dtype=np.complex128)
    return Projector(eye - p.matrix, rank=p.dim - p.rank, name=name or f"~{p.name}")


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
    return Projector(m, rank=p.rank, name=p.name)
