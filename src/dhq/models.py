"""Built-in scenario factories.

three_box
    Three orthogonal box states A, B, C, zero Hamiltonian, initial state
    (|A>+|B>+|C>)/sqrt(3) and present data |Phi> = (|A>+|B>-|C>)/sqrt(3).
    Kinds: past_A, past_B, past_Psi (each decoherent) and joint_AB (the
    finer-grained non-decoherent set).

two_slit
    Discrete Fresnel-style table on m screen bins.  Slit s contributes the
    amplitude a[s,j] = exp(i*pi*(x_j - x_s)^2 / m) / sqrt(m) at bin j, with
    bin centers x_j = j - (m-1)/2 and slits at x = +-1/2 (bin pitch and slit
    separation 1, wavelength*distance = m).  That single relation makes the
    two patterns exactly orthonormal, so a unitary propagates slits to the
    screen and the total screen probability is exactly 1.  The slit
    projectors are the projectors onto the propagated patterns (Heisenberg
    picture with H = 0, as in the three-box model); screen bins are
    canonical basis projectors.  Without an environment the two-time set
    fails decoherence and the slit-merging sum rule is violated by
    max_j |Re(conj(a[u,j]) a[l,j])| = max_j |cos(2 pi x_j / m)| / m
    (0.1154.. for the built-in m = 8; a property of this table, not of the
    underlying physics).  With an environment, an ancilla qubit carries a
    perfect which-slit record and the fine set decoheres.

spin_environment
    One system qubit in (|0>+|1>)/sqrt(2) plus n environment qubits in |0>.
    When the system is |1>, every environment qubit is conditionally
    rotated about y; the rotation angle is chosen so each scatterer's
    record overlaps the idle record by exactly cos(theta/2)^2 (the product
    of an in- and an out-going amplitude factor cos(theta/2)).  Following
    the system's z alternative and then its recombination (x) alternative
    gives four equiprobable histories whose only surviving interference is
    the record overlap: normalized off-diagonal = |cos(theta/2)|^(2 n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoherence import normalized_offdiag
from .errors import EnvironmentTooLarge, GridTooLarge
from .histories import AlternativeSet, HistoryGrid
from .linalg import Hamiltonian, Projector, StateVector, complement, projector_from_span
from .realms import Partition

THREE_BOX_KINDS = ("past_A", "past_B", "past_Psi", "joint_AB")

# Largest Hilbert-space dimension for which dense d x d operators are built
# (validation costs O(dim^3) matmuls): the spin-environment grid (beyond it
# only the state-vector figures are available) and scenario files.
DENSE_DIM_CAP = 1024

SPIN_ENV_MAX = 20

# Most screen bins of the two-slit model.  It builds one dense projector per
# bin, of dimension 2 * bins with the record: 128 bins hold 134 MB of
# projectors, and memory grows as bins^3.
TWO_SLIT_MAX_BINS = 128


@dataclass(frozen=True)
class ThreeBoxScenario:
    realm_kind: str
    grid: HistoryGrid
    data_name: str = "Phi"
    data_time: float = 0.0


@dataclass(frozen=True)
class TwoSlitScenario:
    screen_bins: int
    with_environment: bool
    grid: HistoryGrid
    amplitudes: np.ndarray  # (2, bins): rows upper, lower
    slit_merge_partition: Partition


def _three_box_vectors():
    psi = np.array([1, 1, 1], dtype=np.complex128) / math.sqrt(3)
    phi = np.array([1, 1, -1], dtype=np.complex128) / math.sqrt(3)
    return psi, phi


def three_box(kind: str) -> ThreeBoxScenario:
    """One of the three-box past realms, or the joint non-decoherent set."""
    if kind not in THREE_BOX_KINDS:
        raise ValueError(f"unknown three-box kind {kind!r}, expected one of {THREE_BOX_KINDS}")
    psi, phi = _three_box_vectors()
    p_a = projector_from_span([np.array([1, 0, 0], complex)], name="A")
    p_b = projector_from_span([np.array([0, 1, 0], complex)], name="B")
    p_phi = projector_from_span([phi], name="Phi")
    p_psi = projector_from_span([psi], name="Psi")
    phi_set = AlternativeSet(time=0.0, projectors=(p_phi, complement(p_phi)), label="present")

    def at(t, s):
        return AlternativeSet(time=t, projectors=s.projectors, label=s.label)

    if kind == "past_A":
        past = AlternativeSet(time=1.0, projectors=(p_a, complement(p_a)), label="box-A")
        sets = [past, at(2.0, phi_set)]
        data_time = 2.0
    elif kind == "past_B":
        past = AlternativeSet(time=1.0, projectors=(p_b, complement(p_b)), label="box-B")
        sets = [past, at(2.0, phi_set)]
        data_time = 2.0
    elif kind == "past_Psi":
        past = AlternativeSet(time=1.0, projectors=(p_psi, complement(p_psi)), label="initial-state")
        sets = [past, at(2.0, phi_set)]
        data_time = 2.0
    else:  # joint_AB: chain P_Phi P_A P_B, rightmost earliest
        set_b = AlternativeSet(time=1.0, projectors=(p_b, complement(p_b)), label="box-B")
        set_a = AlternativeSet(time=2.0, projectors=(p_a, complement(p_a)), label="box-A")
        sets = [set_b, set_a, at(3.0, phi_set)]
        data_time = 3.0
    grid = HistoryGrid(
        sets, Hamiltonian.zero(3), StateVector(psi, normalized=True)
    )
    return ThreeBoxScenario(realm_kind=kind, grid=grid, data_name="Phi", data_time=data_time)


def two_slit_amplitudes(bins: int) -> np.ndarray:
    """The built-in Fresnel-style amplitude table, rows (upper, lower)."""
    if bins < 2:
        raise ValueError("need at least 2 screen bins")
    j = np.arange(bins)
    x = j - (bins - 1) / 2.0
    out = np.empty((2, bins), dtype=np.complex128)
    for row, x_s in enumerate((+0.5, -0.5)):
        out[row] = np.exp(1j * np.pi * (x - x_s) ** 2 / bins) / math.sqrt(bins)
    return out


def two_slit(bins: int = 8, with_environment: bool = False) -> TwoSlitScenario:
    """Two-slit model on `bins` screen bins, optionally with a which-slit record."""
    if bins > TWO_SLIT_MAX_BINS:
        raise GridTooLarge(f"two-slit bins must be at most {TWO_SLIT_MAX_BINS}, got {bins}")
    amps = two_slit_amplitudes(bins)
    psi_u, psi_l = amps[0], amps[1]
    dim = bins * (2 if with_environment else 1)

    if with_environment:
        r0 = np.array([1, 0], complex)
        r1 = np.array([0, 1], complex)
        init = (np.kron(psi_u, r0) + np.kron(psi_l, r1)) / math.sqrt(2)
        p_u = projector_from_span([np.kron(psi_u, r0), np.kron(psi_u, r1)], name="upper")
        p_l = projector_from_span([np.kron(psi_l, r0), np.kron(psi_l, r1)], name="lower")
        screen = [
            Projector(np.kron(_bin_matrix(bins, b), np.eye(2)), name=f"bin{b}")
            for b in range(bins)
        ]
    else:
        init = (psi_u + psi_l) / math.sqrt(2)
        p_u = projector_from_span([psi_u], name="upper")
        p_l = projector_from_span([psi_l], name="lower")
        screen = [Projector(_bin_matrix(bins, b), name=f"bin{b}") for b in range(bins)]

    slit_projs = [p_u, p_l]
    rest = np.eye(dim) - p_u.matrix - p_l.matrix
    rest_rank = dim - p_u.rank - p_l.rank
    if rest_rank > 0:
        slit_projs.append(Projector(0.5 * (rest + rest.conj().T), rank=rest_rank, name="blocked"))
    slit_set = AlternativeSet(time=1.0, projectors=tuple(slit_projs), label="slit")
    screen_set = AlternativeSet(time=2.0, projectors=tuple(screen), label="screen")
    init = init / np.linalg.norm(init)
    grid = HistoryGrid(
        [slit_set, screen_set], Hamiltonian.zero(dim), StateVector(init, normalized=True)
    )
    n_slit = len(slit_projs)
    classes = [[(s, b) for s in range(n_slit)] for b in range(bins)]
    partition = Partition.from_lists(classes, [f"bin{b}" for b in range(bins)])
    return TwoSlitScenario(
        screen_bins=bins,
        with_environment=with_environment,
        grid=grid,
        amplitudes=amps,
        slit_merge_partition=partition,
    )


def _bin_matrix(bins: int, b: int) -> np.ndarray:
    m = np.zeros((bins, bins), dtype=np.complex128)
    m[b, b] = 1.0
    return m


class SpinEnvironmentScenario:
    """Dephasing of a system qubit by n conditionally-rotated environment spins.

    `predicted_offdiag` is the closed-form normalized off-diagonal
    |cos(theta/2)|^(2 n); `numeric_offdiag` comes from a full state-vector
    computation in the 2^(n+1)-dimensional space.  The dense HistoryGrid is
    materialized lazily and only up to dimension DENSE_DIM_CAP.
    """

    def __init__(self, n_env: int, theta: float):
        if not 1 <= n_env <= SPIN_ENV_MAX:
            raise EnvironmentTooLarge(f"n_env must be in [1, {SPIN_ENV_MAX}], got {n_env}")
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta}")
        self.n_env = int(n_env)
        self.theta = float(theta)
        self.dim = 2 ** (self.n_env + 1)
        self.record_overlap = math.cos(theta / 2.0) ** 2
        self.predicted_offdiag = abs(math.cos(theta / 2.0)) ** (2 * self.n_env)
        self._grid = None
        gram = self._state_vector_gram()
        self.numeric_gram = gram
        self.numeric_offdiag = normalized_offdiag(gram)
        self.probabilities = gram.diagonal().real.copy()

    # The per-scatterer conditional rotation: angle chosen so that
    # <0|R|0> = cos(theta/2)^2 exactly.
    def _record_rotation(self) -> np.ndarray:
        c = self.record_overlap
        s = math.sqrt(max(0.0, 1.0 - c * c))
        return np.array([[c, -s], [s, c]], dtype=np.complex128)

    def _state_vector_gram(self) -> np.ndarray:
        n = self.n_env
        rot = self._record_rotation()
        shape = (2,) * (n + 1)
        psi = np.zeros(shape, dtype=np.complex128)
        idx0 = (0,) + (0,) * n
        idx1 = (1,) + (0,) * n
        psi[idx0] = 1 / math.sqrt(2)
        psi[idx1] = 1 / math.sqrt(2)

        def scatter(state):
            # conditionally rotate every environment axis where system = 1
            out = state.copy()
            sub = out[1]
            for axis in range(n):
                sub = np.moveaxis(np.tensordot(rot, sub, axes=(1, axis)), 0, axis)
            out[1] = sub
            return out

        def project_sys(state, sign):
            # |+-><+-| on the system axis
            plus = (state[0] + sign * state[1]) / 2.0
            out = np.empty_like(state)
            out[0] = plus
            out[1] = sign * plus
            return out

        branches = []
        for s in (0, 1):
            sel = np.zeros_like(psi)
            sel[s] = psi[s]
            evolved = scatter(sel)
            for sign in (+1, -1):
                branches.append(project_sys(evolved, sign).reshape(-1))
        b = np.stack(branches)
        gram = b.conj() @ b.T
        return 0.5 * (gram + gram.conj().T)

    @property
    def history_labels(self) -> tuple[str, ...]:
        return ("plus,up", "minus,up", "plus,down", "minus,down")

    @property
    def grid(self) -> HistoryGrid:
        if self._grid is None:
            self._grid = self._build_grid()
        return self._grid

    def _build_grid(self) -> HistoryGrid:
        if self.dim > DENSE_DIM_CAP:
            raise EnvironmentTooLarge(
                f"dense grid needs dimension {self.dim} > {DENSE_DIM_CAP}; "
                "use the scenario's state-vector figures instead"
            )
        n = self.n_env
        rot = self._record_rotation()
        env_eye = np.eye(2**n, dtype=np.complex128)
        rot_all = np.array([[1.0]], dtype=np.complex128)
        for _ in range(n):
            rot_all = np.kron(rot_all, rot)
        p0 = np.diag([1.0, 0.0]).astype(np.complex128)
        p1 = np.diag([0.0, 1.0]).astype(np.complex128)
        plus = np.full((2, 2), 0.5, dtype=np.complex128)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=np.complex128)
        v = np.kron(p0, env_eye) + np.kron(p1, rot_all)
        pos_set = AlternativeSet(
            time=1.0,
            projectors=(
                Projector(np.kron(p0, env_eye), name="up"),
                Projector(np.kron(p1, env_eye), name="down"),
            ),
            label="position",
        )
        vh = v.conj().T

        def conj(m):
            out = vh @ m @ v
            return 0.5 * (out + out.conj().T)

        recomb_set = AlternativeSet(
            time=2.0,
            projectors=(
                Projector(conj(np.kron(plus, env_eye)), name="plus"),
                Projector(conj(np.kron(minus, env_eye)), name="minus"),
            ),
            label="recombined",
        )
        psi = np.zeros(self.dim, dtype=np.complex128)
        psi[0] = 1 / math.sqrt(2)
        psi[2**n] = 1 / math.sqrt(2)
        return HistoryGrid(
            [pos_set, recomb_set],
            Hamiltonian.zero(self.dim),
            StateVector(psi, normalized=True),
        )


def spin_environment(n_env: int, theta: float) -> SpinEnvironmentScenario:
    return SpinEnvironmentScenario(n_env, theta)
