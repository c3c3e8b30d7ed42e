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
    rotated about y by R, chosen so each scatterer's record overlaps the idle
    record by exactly cos(theta/2)^2 (an in- and an out-going amplitude factor
    cos(theta/2)).  The records |E_0> = |0...0> and |E_1> = (R|0>)^(x n) are
    product states, so their overlap is the product of the per-scatterer
    overlaps.  Following the system's z and then its recombination (x)
    alternative gives four equiprobable histories whose only interference is
    that overlap: normalized off-diagonal = |cos(theta/2)|^(2 n).
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .decoherence import branch_probabilities, normalized_offdiag
from .errors import EnvironmentTooLarge, GridTooLarge
from .histories import AlternativeSet, HistoryGrid
from .linalg import (
    Hamiltonian, Projector, StateVector, basis_projector, check_grid_size, complement,
    projector_from_span,
)
from .realms import Partition
from .scenario import Scenario

# Each kind's past chain of (span name, set label), earliest first: joint_AB is
# the chain P_Phi P_A P_B, rightmost earliest.  The present set follows it.
_THREE_BOX_PASTS = {
    "past_A": (("A", "box-A"),),
    "past_B": (("B", "box-B"),),
    "past_Psi": (("Psi", "initial-state"),),
    "joint_AB": (("B", "box-B"), ("A", "box-A")),
}
THREE_BOX_KINDS = tuple(_THREE_BOX_PASTS)

SPIN_ENV_MAX = 20


def three_box(kind: str) -> Scenario:
    """One of the three-box past realms, or the joint non-decoherent set, with data Phi."""
    if kind not in THREE_BOX_KINDS:
        raise ValueError(f"unknown three-box kind {kind!r}, expected one of {THREE_BOX_KINDS}")
    psi, phi = np.array([[1, 1, 1], [1, 1, -1]], dtype=np.complex128) / math.sqrt(3)
    box = np.eye(3, dtype=np.complex128)
    spans = {"A": box[0], "B": box[1], "Psi": psi, "Phi": phi}
    sets = []
    for k, (name, label) in enumerate(_THREE_BOX_PASTS[kind] + (("Phi", "present"),)):
        p = projector_from_span([spans[name]], name=name)
        sets.append(AlternativeSet(time=k + 1.0, projectors=(p, complement(p)), label=label))
    grid = HistoryGrid(sets, Hamiltonian.zero(3), StateVector(psi))
    return Scenario(grid, data_name="Phi", data_time=sets[-1].time)


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


def two_slit(bins: int = 8, with_environment: bool = False) -> Scenario:
    """Two-slit model on `bins` screen bins, optionally with a which-slit record.

    Its one partition, "merge-slits", has a class per screen bin.
    """
    # Slit s leaves record state s (one shared record, r = 1, without the environment).
    r = 2 if with_environment else 1
    check_grid_size(bins + 3, r * bins)  # the screen bins and at most three slit projectors
    amps = two_slit_amplitudes(bins)
    records = np.eye(r, dtype=complex)
    dim = bins * r
    init = (np.kron(amps[0], records[0]) + np.kron(amps[1], records[-1])) / math.sqrt(2)
    p_u = projector_from_span([np.kron(amps[0], e) for e in records], name="upper")
    p_l = projector_from_span([np.kron(amps[1], e) for e in records], name="lower")
    screen = [basis_projector(dim, range(r * b, r * b + r), name=f"bin{b}") for b in range(bins)]

    slit_projs = [p_u, p_l]
    rest = np.eye(dim) - p_u.matrix - p_l.matrix
    if p_u.rank + p_l.rank < dim:
        slit_projs.append(Projector(0.5 * (rest + rest.conj().T), name="blocked"))
    slit_set = AlternativeSet(time=1.0, projectors=tuple(slit_projs), label="slit")
    screen_set = AlternativeSet(time=2.0, projectors=tuple(screen), label="screen")
    init = init / np.linalg.norm(init)
    grid = HistoryGrid([slit_set, screen_set], Hamiltonian.zero(dim), StateVector(init))
    slits = np.arange(len(slit_projs))  # class b holds (s, b) for every slit alternative s
    classes = [np.column_stack((slits, np.full_like(slits, b))) for b in range(bins)]
    partition = Partition(classes, [f"bin{b}" for b in range(bins)])
    return Scenario(grid, {"merge-slits": partition})


class SpinEnvironmentScenario:
    """Dephasing of a system qubit by n conditionally-rotated environment spins.

    `predicted_offdiag` is the closed-form normalized off-diagonal
    |cos(theta/2)|^(2 n); `numeric_offdiag` is computed from the four branch
    vectors in the 2^(n+1)-dimensional space, each formed directly from a
    record as a Kronecker product.  The dense HistoryGrid is materialized
    lazily and only within `linalg.MAX_DENSE_ENTRIES` (n <= 9).
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
        branches = self._state_vector_branches()
        self.probabilities = branch_probabilities(branches)
        self.numeric_offdiag = normalized_offdiag(branches, self.probabilities)

    # The per-scatterer conditional rotation: angle chosen so that
    # <0|R|0> = cos(theta/2)^2 exactly.
    def _record_rotation(self) -> np.ndarray:
        c = self.record_overlap
        s = math.sqrt(max(0.0, 1.0 - c * c))
        return np.array([[c, -s], [s, c]], dtype=np.complex128)

    def _state_vector_branches(self) -> np.ndarray:
        # Scattering makes (|0>|E_0> + |1>|E_1>)/sqrt(2), so each branch is |+-> x v/sqrt(2),
        # the row (v, +-v)/2, with v = |E_0>/sqrt(2) for up and +-|E_1>/sqrt(2) for down.
        e0 = np.zeros(2**self.n_env, dtype=np.complex128)
        e0[0] = 1 / math.sqrt(2)
        col = self._record_rotation()[:, 0]
        e1 = reduce(np.kron, [col] * self.n_env, np.array([1 / math.sqrt(2)], dtype=np.complex128))
        rows = [(e0, +1), (e0, -1), (e1, +1), (-e1, -1)]
        return np.stack([np.concatenate([v / 2.0, sign * (v / 2.0)]) for v, sign in rows])

    names = (("up", "down"), ("plus", "minus"))  # the grid's sets' names, in time order

    @property
    def grid(self) -> HistoryGrid:  # built on each access
        return self._build_grid()

    def _build_grid(self) -> HistoryGrid:
        try:
            check_grid_size(4, self.dim)
        except GridTooLarge as err:
            raise EnvironmentTooLarge(f"{err}; use the scenario's state-vector figures") from None
        n = self.n_env
        rot = self._record_rotation()
        rot_all = reduce(np.kron, [rot] * n, np.array([[1.0]], dtype=np.complex128))
        pos_set = AlternativeSet(
            time=1.0,
            projectors=(
                basis_projector(self.dim, range(2**n), name="up"),
                basis_projector(self.dim, range(2**n, self.dim), name="down"),
            ),
            label="position",
        )
        # V^dag (|+-> x I) for V = |0><0| x I + |1><1| x R^(x n), R real: [I; +-R^T] / sqrt(2).
        env_eye = np.eye(2**n)
        recomb_set = AlternativeSet(
            time=2.0,
            projectors=(
                Projector(isometry=np.vstack([env_eye, rot_all.T]) / math.sqrt(2), name="plus"),
                Projector(isometry=np.vstack([env_eye, -rot_all.T]) / math.sqrt(2), name="minus"),
            ),
            label="recombined",
        )
        psi = np.zeros(self.dim, dtype=np.complex128)
        psi[0] = 1 / math.sqrt(2)
        psi[2**n] = 1 / math.sqrt(2)
        return HistoryGrid([pos_set, recomb_set], Hamiltonian.zero(self.dim), StateVector(psi))


def spin_environment(n_env: int, theta: float) -> SpinEnvironmentScenario:
    return SpinEnvironmentScenario(n_env, theta)
