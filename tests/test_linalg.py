import math
import re

import numpy as np
import pytest

from dhq.errors import DegenerateSpan, DimensionMismatch, NotHermitian
from dhq.linalg import (
    TOL_ALG,
    Hamiltonian,
    Projector,
    StateVector,
    basis_projector,
    complement,
    evolve_heisenberg,
    hermitian_eig,
    projector_from_span,
    propagator,
)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T)


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def test_projector_from_basis_vector():
    p = projector_from_span([np.array([1, 0, 0], complex)])
    assert np.allclose(p.matrix, np.diag([1, 0, 0]))
    assert p.rank == 1


def test_projector_from_phi_state():
    phi = np.array([1, 1, -1], complex) / math.sqrt(3)
    p = projector_from_span([phi], name="Phi")
    assert abs(np.trace(p.matrix) - 1) < TOL_ALG
    assert np.allclose(p.matrix @ phi, phi, atol=TOL_ALG)


def test_projector_from_two_basis_vectors():
    e1 = np.array([1, 0, 0], complex)
    e2 = np.array([0, 1, 0], complex)
    p = projector_from_span([e1, e2])
    assert np.allclose(p.matrix, np.diag([1, 1, 0]))
    assert p.rank == 2


def test_projector_span_rejects_dependent_vectors():
    v = np.array([1, 2, 3], complex)
    with pytest.raises(DegenerateSpan):
        projector_from_span([v, 2 * v])
    with pytest.raises(DegenerateSpan):
        projector_from_span([v, v + 1e-13 * np.array([1, 0, 0])])


def test_projector_span_rejects_mixed_dims():
    with pytest.raises(DimensionMismatch):
        projector_from_span([np.array([1, 0], complex), np.array([1, 0, 0], complex)])


def test_projector_constructor_rejects_non_idempotent():
    with pytest.raises(ValueError):
        Projector(np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(NotHermitian):
        Projector(np.array([[1, 1], [0, 0]], complex))


def test_transposed_matrices_are_accepted():
    # A Fortran-ordered matrix used to fail the finiteness check with numpy's
    # "To change to a dtype of a different size, the last axis must be contiguous".
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
    m = q @ q.conj().T
    p = Projector(m.T, name="T")
    assert p.rank == 2 and np.array_equal(p.matrix, m.T)
    h = random_hermitian(rng, 4)
    assert np.array_equal(Hamiltonian(h.T).matrix, h.T)
    bad = h.copy()
    bad[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Hamiltonian(bad.T)
    with pytest.raises(ValueError, match="finite"):
        Projector(isometry=np.array([[1, 0, 0, 0], [0, np.nan, 0, 0]]).T)


def test_isometry_defines_the_projector():
    rng = np.random.default_rng(6)
    q = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))[0]
    p = Projector(isometry=q, name="Q")
    assert p.rank == 3 and p.dim == 6 and p.basis is None
    assert p.isometry.tobytes() == np.ascontiguousarray(q).tobytes()
    assert p.matrix.tobytes() == (p.isometry @ p.isometry.conj().T).tobytes()
    assert not p.matrix.flags.writeable and not p.isometry.flags.writeable
    assert np.max(np.abs(p.matrix @ p.matrix - p.matrix)) <= TOL_ALG
    assert Projector(isometry=np.zeros((3, 0))).rank == 0
    assert Projector(np.eye(2)).isometry is None


def test_isometry_refused_unless_orthonormal():
    q = np.eye(4)[:, :2]
    with pytest.raises(ValueError, match=re.escape("projector 'Q': ||Q^dag Q - I|| = 2.828e-09")):
        Projector(isometry=q * (1 + 1e-9), name="Q")
    with pytest.raises(ValueError, match="declared rank 1 != trace 2"):
        Projector(isometry=q, rank=1, name="Q")
    with pytest.raises(ValueError, match="either its matrix or its isometry"):
        Projector(q @ q.T, isometry=q)
    with pytest.raises(ValueError, match="either its matrix or its isometry"):
        Projector()
    with pytest.raises(DimensionMismatch):
        Projector(isometry=np.ones(3))


def test_span_keeps_orthonormal_columns_as_they_are():
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))[0]
    p = projector_from_span(list(q.T), name="S")
    assert p.isometry.tobytes() == np.ascontiguousarray(q).tobytes()
    # Other spans go through the SVD: orthonormal columns of the same span.
    a = q @ np.array([[2.0, 1.0], [0.0, 0.5]])
    r = projector_from_span(list(a.T), name="S")
    assert np.max(np.abs(r.isometry.conj().T @ r.isometry - np.eye(2))) <= 1e-14
    assert np.max(np.abs(r.matrix - p.matrix)) <= 1e-14


def test_complement_of_diagonal():
    p = basis_projector(3, [0])
    q = complement(p)
    assert np.allclose(q.matrix, np.diag([0, 1, 1]))
    assert q.rank == 2
    assert q.name == "~P"


def test_basis_projector_keeps_its_columns_of_identity():
    p = basis_projector(4, [3, 1, 3], name="B")
    assert p.rank == 2 and np.array_equal(p.matrix, np.diag([0, 1, 0, 1]).astype(complex))
    assert np.array_equal(p.isometry, np.eye(4)[:, [1, 3]])
    assert p.basis == (1, 3)
    assert basis_projector(4, []).isometry.shape == (4, 0)
    assert basis_projector(4, []).basis == ()
    assert basis_projector(4, np.array([2, 0])).basis == (0, 2)


@pytest.mark.parametrize("bad", [-1, 3, 1.7, True, "1", None, np.float64(1.0), np.True_])
def test_basis_projector_rejects_bad_index(bad):
    # Negative indices used to wrap (-1 gave e_2), and 1.7 or True became index 1.
    with pytest.raises(ValueError, match=f"basis index {re.escape(repr(bad))} is not an integer"):
        basis_projector(3, [0, bad], name="B")


def test_complement_applied_to_three_box_state():
    psi = np.array([1, 1, 1], complex) / math.sqrt(3)
    p_a = basis_projector(3, [0], name="A")
    out = complement(p_a).matrix @ psi
    assert np.allclose(out, np.array([0, 1, 1]) / math.sqrt(3), atol=1e-14)


def test_complement_is_involution():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        k = int(rng.integers(1, dim))
        vs = [random_state(rng, dim) for _ in range(k)]
        p = projector_from_span(vs)
        assert np.allclose(complement(complement(p)).matrix, p.matrix, atol=TOL_ALG)


def test_hermitian_eig_diagonal():
    w, u = hermitian_eig(Hamiltonian(np.diag([1.0, 2.0, 3.0]).astype(complex)))
    assert np.allclose(w, [1, 2, 3])
    assert np.allclose(u, np.eye(3))


def test_hermitian_eig_pauli_x():
    w, _ = hermitian_eig(Hamiltonian(np.array([[0, 1], [1, 0]], complex)))
    assert np.allclose(w, [-1, 1])


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(11)
    for dim in (2, 4, 8, 16):
        h = Hamiltonian(random_hermitian(rng, dim))
        w, u = hermitian_eig(h)
        resid = np.max(np.abs(h.matrix - (u * w) @ u.conj().T))
        assert resid <= 1e-10
        assert np.all(np.diff(w) >= 0)


def test_hermitian_eig_phase_convention_deterministic():
    rng = np.random.default_rng(13)
    h = Hamiltonian(random_hermitian(rng, 5))
    w1, u1 = hermitian_eig(h)
    w2, u2 = hermitian_eig(h)
    assert np.array_equal(w1, w2)
    assert np.array_equal(u1, u2)
    for k in range(5):
        i = int(np.argmax(np.abs(u1[:, k])))
        assert u1[i, k].imag == pytest.approx(0.0, abs=1e-15)
        assert u1[i, k].real > 0


def _phase_convention_by_columns(u):
    """The per-column loop hermitian_eig used to run: the oracle of its array form."""
    u = u.copy()
    for k in range(u.shape[1]):
        col = u[:, k]
        mags = np.abs(col)
        i = int(np.argmax(mags > mags.max() * (1 - 1e-12)))
        ph = col[i]
        if abs(ph) > 0:
            u[:, k] = col * (abs(ph) / ph)
    return u


def _degenerate_hermitian(rng, dim):
    """Random eigenvectors with eigenvalues repeated in threes."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    w = np.repeat(rng.standard_normal((dim + 2) // 3), 3)[:dim]
    return 0.5 * ((q * w) @ q.conj().T + ((q * w) @ q.conj().T).conj().T)


@pytest.mark.parametrize("dim", [3, 4, 7, 16, 33, 96, 256])
def test_hermitian_eig_phase_convention_matches_column_loop(dim):
    rng = np.random.default_rng(dim)
    ties = np.kron(np.eye(dim // 2 + 1), [[0, 1], [1, 0]])[:dim, :dim]  # exact magnitude ties
    for m in (random_hermitian(rng, dim), np.diag(rng.standard_normal(dim)),
              _degenerate_hermitian(rng, dim), ties):
        h = Hamiltonian(m.astype(complex))
        w, u = hermitian_eig(h)
        w_ref, u_ref = np.linalg.eigh(h.matrix)
        assert [x.hex() for x in w.tolist()] == [x.hex() for x in w_ref.tolist()]
        got = [x.hex() for x in u.view(float).ravel().tolist()]
        assert got == [x.hex() for x in _phase_convention_by_columns(u_ref).view(float).ravel().tolist()]


def test_propagator_is_exp_minus_iht():
    w = np.array([0.5, -1.0, 2.0])
    h = Hamiltonian(np.diag(w).astype(complex))
    assert np.allclose(propagator(h, 0.7), np.diag(np.exp(-0.7j * w)), rtol=0, atol=1e-15)
    u = propagator(Hamiltonian(random_hermitian(np.random.default_rng(4), 5)), 1.3)
    assert np.allclose(u @ u.conj().T, np.eye(5), rtol=0, atol=1e-14)
    assert np.array_equal(propagator(Hamiltonian.zero(3), 0.7), np.eye(3))


def test_evolution_with_zero_hamiltonian_is_identity():
    p = basis_projector(3, [1])
    out = evolve_heisenberg(p, Hamiltonian.zero(3), 2.7)
    assert np.allclose(out.matrix, p.matrix)


def test_evolution_at_time_zero_is_identity():
    rng = np.random.default_rng(3)
    p = projector_from_span([random_state(rng, 4)])
    h = Hamiltonian(random_hermitian(rng, 4))
    assert np.allclose(evolve_heisenberg(p, h, 0.0).matrix, p.matrix)


def test_two_level_precession_half_period():
    # H = diag(0, E): |+><+| precesses to |-><-| at t = pi/E
    e = 1.7
    h = Hamiltonian(np.diag([0.0, e]).astype(complex))
    plus = np.array([1, 1], complex) / math.sqrt(2)
    minus = np.array([1, -1], complex) / math.sqrt(2)
    p = projector_from_span([plus])
    out = evolve_heisenberg(p, h, math.pi / e)
    assert np.allclose(out.matrix, np.outer(minus, minus.conj()), atol=1e-12)


def test_evolution_preserves_invariants_and_composes():
    rng = np.random.default_rng(5)
    for _ in range(25):
        dim = 4
        k = int(rng.integers(1, dim))
        p = projector_from_span([random_state(rng, dim) for _ in range(k)])
        h = Hamiltonian(random_hermitian(rng, dim))
        t1, t2 = rng.standard_normal(2)
        a = evolve_heisenberg(evolve_heisenberg(p, h, t1), h, t2)
        b = evolve_heisenberg(p, h, t1 + t2)
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-10
        assert a.rank == p.rank
        assert abs(np.trace(a.matrix).real - p.rank) <= 1e-10


def test_state_vector_normalization_flag():
    StateVector(np.array([1, 0], complex), normalized=True)
    with pytest.raises(ValueError):
        StateVector(np.array([1, 1], complex), normalized=True)


def test_state_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        StateVector(np.array([np.nan, 0], complex))


def test_evolve_dimension_mismatch():
    p = basis_projector(3, [0])
    with pytest.raises(DimensionMismatch):
        evolve_heisenberg(p, Hamiltonian.zero(2), 1.0)
