"""Random exactly-decoherent history grids for property sweeps.

The construction puts every alternative set and the Hamiltonian into one
random eigenbasis: projectors onto disjoint eigen-index blocks commute with
the evolution, so branch vectors of distinct histories have disjoint
eigen-support and the set decoheres to machine precision.  Initial-state
amplitudes are kept away from zero so every structurally-nonzero branch has
a probability well above the zero-branch floor.
"""

from __future__ import annotations

import numpy as np

from dhq.histories import AlternativeSet, HistoryGrid
from dhq.linalg import Hamiltonian, Projector, StateVector
from dhq.realms import Partition


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_blocks(rng: np.random.Generator, dim: int, most: int) -> list[list[int]]:
    """Random partition of range(dim) into 2..most nonempty blocks."""
    n_blocks = int(rng.integers(2, most + 1))
    perm = rng.permutation(dim).tolist()
    cuts = sorted(rng.choice(np.arange(1, dim), size=n_blocks - 1, replace=False).tolist())
    bounds = [0] + cuts + [dim]
    return [sorted(perm[a:b]) for a, b in zip(bounds, bounds[1:])]


def random_decoherent_grid(
    rng: np.random.Generator,
    dim: int = 4,
    n_times: int = 2,
    span: bool = False,
    max_alternatives: int | None = None,
) -> HistoryGrid:
    """A grid that decoheres exactly (up to roundoff) by construction.

    With `span`, every member is defined by its orthonormal columns instead of its matrix.
    Each set has 2..dim alternatives, or 2..max_alternatives when that is given.
    """
    if dim < 2:
        raise ValueError("need dim >= 2")
    u = random_unitary(rng, dim)
    h = Hamiltonian(u @ np.diag(rng.standard_normal(dim)) @ u.conj().T)
    # amplitudes bounded away from zero in the common eigenbasis
    mags = 0.5 + 0.5 * rng.random(dim)
    phases = np.exp(2j * np.pi * rng.random(dim))
    psi = u @ (mags * phases)
    psi /= np.linalg.norm(psi)
    times = np.sort(rng.random(n_times) * 10.0)
    while len(set(times.tolist())) < n_times:
        times = np.sort(rng.random(n_times) * 10.0)
    sets = []
    for k in range(n_times):
        blocks = _random_blocks(rng, dim, min(dim, max_alternatives or dim))
        projs = []
        for bi, block in enumerate(blocks):
            cols = u[:, block]
            name = f"t{k}b{bi}"
            projs.append(Projector(isometry=cols, name=name) if span else
                         Projector(cols @ cols.conj().T, name=name))
        sets.append(AlternativeSet(time=float(times[k]), projectors=tuple(projs), label=f"set{k}"))
    return HistoryGrid(sets, h, StateVector(psi))


def random_partition(
    rng: np.random.Generator, histories, keep_singleton=None
) -> Partition:
    """Random partition of the given histories into 1..len classes.

    When `keep_singleton` is one of the histories it gets a class of its
    own, so its summed class operator stays the fine class operator.
    """
    hs = [tuple(h) for h in histories]
    pool = [h for h in hs if keep_singleton is None or h != tuple(keep_singleton)]
    classes: list[list] = []
    if keep_singleton is not None:
        classes.append([tuple(keep_singleton)])
    if pool:
        n_classes = int(rng.integers(1, len(pool) + 1))
        assignment = rng.integers(0, n_classes, size=len(pool))
        for c in range(n_classes):
            members = [pool[i] for i in range(len(pool)) if assignment[i] == c]
            if members:
                classes.append(members)
    return Partition(classes)
