"""Reference values computed independently of dhq, straight from generated data.

A scenario here is the benchmark's own plain description of a history grid
(`Spec`): projector matrices, Hamiltonian, initial state and times.  Branch
vectors are propagated level by level in the Schroedinger picture in the
eigenbasis of H.  The chain norms and overlaps equal dhq's Heisenberg-picture
chains (the final e^{iHt_n} is a common unitary), so probabilities, Gram
entries and the normalized off-diagonal can be compared with dhq's reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# dhq's definition of the normalized off-diagonal: absolute floor added to the
# geometric-mean denominator, and the diagonal level below which a branch is
# treated as zero-norm.  Part of the metric's definition, not of the engine.
OFFDIAG_FLOOR = 1e-14
ZERO_PRODUCT_NORM = 1e-12


@dataclass
class AltSet:
    time: float
    label: str
    names: list
    mats: list  # d x d projector matrices


@dataclass
class Spec:
    dim: int
    ham: np.ndarray | None  # None means H = 0
    psi: np.ndarray
    sets: list  # AltSet, strictly increasing times
    partitions: dict = field(default_factory=dict)  # name -> (labels, classes)


def _propagate(spec: Spec, sets):
    """Branch matrix (rows in dhq's enumeration order) for the given sets."""
    if spec.ham is None:
        w, v = np.zeros(spec.dim), None
    else:
        w, v = np.linalg.eigh(spec.ham)
    rows = (spec.psi if v is None else v.conj().T @ spec.psi)[None, :]
    t_prev = 0.0
    for s in sets:
        rows = rows * np.exp(-1j * w * (s.time - t_prev))
        t_prev = s.time
        mats = np.stack(s.mats if v is None else [v.conj().T @ m @ v for m in s.mats])
        rows = np.einsum("aij,nj->nai", mats, rows).reshape(-1, spec.dim)
    return rows


def _labels(sets):
    return [
        ",".join(sets[k].names[h[k]] for k in reversed(range(len(h))))
        for h in itertools.product(*(range(len(s.names)) for s in sets))
    ]


def normalized_offdiag(gram: np.ndarray) -> float:
    d = gram.diagonal().real
    if d.size < 2:
        return 0.0
    ratio = np.abs(gram) / (np.sqrt(np.outer(np.abs(d), np.abs(d))) + OFFDIAG_FLOOR)
    live = d >= OFFDIAG_FLOOR
    ratio[~live, :] = 0.0
    ratio[:, ~live] = 0.0
    np.fill_diagonal(ratio, 0.0)
    return float(ratio.max())


def decoherence(spec: Spec, sets=None):
    """(labels, probabilities, max normalized off-diagonal, branch matrix)."""
    sets = spec.sets if sets is None else sets
    b = _propagate(spec, sets)
    gram = b.conj() @ b.T
    return _labels(sets), gram.diagonal().real.copy(), normalized_offdiag(gram), b


def coarse(spec: Spec, partition: str):
    """Coarse probabilities, coarse off-diagonal and max sum-rule violation."""
    labels, classes = spec.partitions[partition]
    _, p_fine, _, b = decoherence(spec)
    shape = [len(s.names) for s in spec.sets]
    rows = [[int(np.ravel_multi_index(h, shape)) for h in cls] for cls in classes]
    cb = np.stack([b[r].sum(axis=0) for r in rows])
    gram = cb.conj() @ cb.T
    p_coarse = gram.diagonal().real
    violation = max(abs(pc - p_fine[r].sum()) for pc, r in zip(p_coarse, rows))
    return dict(zip(labels, p_coarse)), normalized_offdiag(gram), float(violation)


def conditioned(spec: Spec, data_name: str, data_time: float, future: bool):
    """predict/retrodict: {label: p(alternatives | data)} over one side of the data."""
    kd = [s.time for s in spec.sets].index(data_time)
    side = [k for k, s in enumerate(spec.sets) if (s.time > data_time if future else s.time < data_time)]
    sub = [spec.sets[k] for k in sorted(side + [kd])]
    sub_kd = sorted(side + [kd]).index(kd)
    i_d = spec.sets[kd].names.index(data_name)
    _, p_sub, _, _ = decoherence(spec, sub)
    shape = [len(s.names) for s in sub]
    _, p_data, _, _ = decoherence(spec, [spec.sets[kd]])
    positions = [p for p in range(len(sub)) if p != sub_kd]
    out = {}
    for combo in itertools.product(*(range(shape[p]) for p in positions)):
        h = list(combo)
        h.insert(sub_kd, i_d)
        label = ",".join(sub[p].names[a] for p, a in sorted(zip(positions, combo), reverse=True))
        out[label] = p_sub[np.ravel_multi_index(h, shape)] / p_data[i_d]
    return out


def conditional(spec: Spec, given: tuple, target: tuple) -> float:
    """p(target | given) with (name, time) references, over the full grid."""
    _, p, _, _ = decoherence(spec)
    times = [s.time for s in spec.sets]
    gk, tk = times.index(given[1]), times.index(target[1])
    gi, ti = spec.sets[gk].names.index(given[0]), spec.sets[tk].names.index(target[0])
    hs = list(itertools.product(*(range(len(s.names)) for s in spec.sets)))
    p_given = sum(p[i] for i, h in enumerate(hs) if h[gk] == gi)
    p_joint = sum(p[i] for i, h in enumerate(hs) if h[gk] == gi and h[tk] == ti)
    return p_joint / p_given


def join(a: Spec, b: Spec) -> Spec:
    """The commuting product join of two grids, in dhq's alternative order."""
    by_a = {s.time: s for s in a.sets}
    by_b = {s.time: s for s in b.sets}
    sets = []
    for t in sorted(set(by_a) | set(by_b)):
        sa, sb = by_a.get(t), by_b.get(t)
        if sa is None or sb is None:
            sets.append(sa or sb)
            continue
        names, mats = [], []
        for pn, pm in zip(sa.names, sa.mats):
            for qn, qm in zip(sb.names, sb.mats):
                m = pm @ qm
                if np.max(np.abs(m)) < ZERO_PRODUCT_NORM:
                    continue
                names.append(pn if pn == qn else f"{pn}&{qn}")
                mats.append(0.5 * (m + m.conj().T))
        label = f"{sa.label}&{sb.label}" if sa.label != sb.label else sa.label
        sets.append(AltSet(t, label, names, mats))
    return Spec(a.dim, a.ham, a.psi, sets)
