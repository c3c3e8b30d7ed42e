"""Seeded workloads: input files, command scripts and expected outputs.

Every workload is a list of `dhq --format json ...` commands run in order
(one pass).  `build(name, seed, workdir, scale)` writes the input files with
the benchmark's own JSON writer and returns the commands; the same seed gives
byte-identical files.  Sizes depend only on the scale, never on the seed, so
the cost of a pass is the same for every seed; the seed only changes contents
(random unitaries, blocks, partitions, angles).

Each command carries what its output must show: the exit code, verdicts,
scalars and probability tables.  Seeded values come from `oracle` (computed
from the generated data, independently of dhq) or from closed forms; values of
seed-independent commands are also compared with `reference.json`, recorded
from dhq itself.  `counts` are trace counters expected at the commit that
defined the benchmark; a mismatch is reported, it does not fail the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from oracle import AltSet, Spec

WORKLOADS = {
    "dense-io": "Dense H = 0 scenario files of about ten MB: time goes to reading and writing "
    "scenario JSON and to projector and set validation; the control for evolution and Gram work.",
    "evolve-gram": "Seeded grids with nonzero H, about 1k-2k histories: time goes to eigh and "
    "evolution, branch vectors and the N^2 Gram; parsing is a small share.",
    "realm-ops": "Many short compat, coarse, retrodict, predict and condition commands: realm "
    "code, repeated branch passes, process start-up and report rendering.",
}

# Sizes per scale.  "full" is what the benchmark measures; "smoke" is the
# smallest set that still runs every command kind.
SIZES = {
    "full": {
        "two_slit_bins": 32, "spin_env_n": 6, "dense": (64, 2, 16),
        "evolve": [(96, 2, 32), (64, 3, 12)],
        "pair": (24, 6, 4, 6), "coarse": (32, 3, 6, 8), "cond": (24, (4, 5, 4)),
    },
    "smoke": {
        "two_slit_bins": 4, "spin_env_n": 2, "dense": (8, 2, 3),
        "evolve": [(8, 2, 3)],
        "pair": (6, 2, 2, 2), "coarse": (6, 2, 2, 2), "cond": (6, (2, 2, 2)),
    },
}


@dataclass
class Command:
    key: str  # stable name of the command within the workload
    argv: list
    exit_code: int = 0
    verdicts: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)  # name -> (value, abs tolerance)
    tables: dict = field(default_factory=dict)  # title -> {label: probability}
    fixed: bool = False  # output independent of the seed: also checked against reference.json
    counts: dict = field(default_factory=dict)  # trace counter -> value expected per run
    # Oracle expectations are computed after the timed set-up: a callable
    # returning (verdicts, scalars, tables) to merge in.
    deferred: object = None

    def finish(self) -> None:
        if self.deferred is not None:
            v, s, t = self.deferred()
            self.verdicts.update(v)
            self.scalars.update(s)
            self.tables.update(t)
            self.deferred = None

    @property
    def kind(self) -> str:
        return self.argv[0]


TOL = 1e-12  # ROADMAP item 3: every probability and scalar within 1e-12


# ----------------------------------------------------------------------------
# Generation


def _unitary(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _blocks(rng, d, m, min_size=1):
    """Random partition of range(d) into exactly m blocks of at least min_size."""
    extra = d - m * min_size
    bars = np.sort(rng.choice(extra + m - 1, size=m - 1, replace=False))
    sizes = np.diff(np.concatenate(([-1], bars, [extra + m - 1]))) - 1 + min_size
    return [np.sort(b) for b in np.split(rng.permutation(d), np.cumsum(sizes)[:-1])]


def _halves(rng, block):
    """Split a block of at least two indices into two random nonempty parts."""
    b = rng.permutation(block)
    cut = int(rng.integers(1, len(b)))
    return [np.sort(b[:cut]), np.sort(b[cut:])]


def _times(rng, n):
    return sorted(float(t) for t in rng.uniform(0.5, 10.0, n))


def _amplitudes(rng, u):
    c = (0.5 + 0.5 * rng.random(u.shape[0])) * np.exp(2j * np.pi * rng.random(u.shape[0]))
    return u @ (c / np.linalg.norm(c))


def _eigen_sets(rng, u, times, counts, tag="t", blocks=None):
    """Alternative sets projecting onto blocks of the columns of u.

    `blocks` gives the index blocks per time; by default they are random,
    `counts[k]` of them at time k.  Returns (AltSet list for the oracle, span
    columns per projector for the file).
    """
    if blocks is None:
        blocks = [_blocks(rng, u.shape[0], m) for m in counts]
    sets, spans = [], []
    for k, (t, bl) in enumerate(zip(times, blocks)):
        cols = [u[:, b] for b in bl]
        names = [f"{tag}{k}b{i}" for i in range(len(bl))]
        sets.append(AltSet(t, f"set{k}", names, [c @ c.conj().T for c in cols]))
        spans.append(cols)
    return sets, spans


def _cvec(v):
    v = np.asarray(v)
    return np.stack([v.real, v.imag], axis=-1).tolist()


def write_scenario(path: Path, spec: Spec, spans=None, data=None, matrix_form=False):
    """The benchmark's own writer for schema dhq-scenario/1.

    Projectors go out as spanning vectors (`spans[k][i]`, a d x r array) or,
    with matrix_form, as full matrices.  Partitions come from spec.partitions.
    """
    sets = []
    for k, s in enumerate(spec.sets):
        projs = []
        for i, name in enumerate(s.names):
            if matrix_form:
                projs.append({"name": name, "matrix": _cvec(s.mats[i])})
            else:
                projs.append({"name": name, "span": _cvec(np.asarray(spans[k][i]).T)})
        sets.append({"time": s.time, "label": s.label, "projectors": projs})
    doc = {
        "schema": "dhq-scenario/1",
        "dimension": spec.dim,
        "hamiltonian": "zero" if spec.ham is None else _cvec(spec.ham),
        "initial_state": _cvec(spec.psi),
        "alternative_sets": sets,
    }
    if spec.partitions:
        doc["partitions"] = [
            {"name": name, "classes": [
                {"label": lab, "histories": [list(h) for h in cls]} for lab, cls in zip(*part)
            ]}
            for name, part in spec.partitions.items()
        ]
    if data is not None:
        doc["data_projector"] = f"{data[0]}@{data[1]!r}"
    path.write_text(json.dumps(doc, separators=(",", ":")))


def _hamiltonian(rng, basis):
    h = (basis * rng.standard_normal(basis.shape[0])) @ basis.conj().T
    return 0.5 * (h + h.conj().T)


def _eigen_grid(rng, d, counts):
    """A grid whose sets and H share one random eigenbasis: it decoheres exactly."""
    u = _unitary(rng, d)
    sets, spans = _eigen_sets(rng, u, _times(rng, len(counts)), counts)
    return Spec(d, _hamiltonian(rng, u), _amplitudes(rng, u), sets), spans


def _histories(spec):
    return int(np.prod([len(s.names) for s in spec.sets]))


def _alternatives(spec):
    return sum(len(s.names) for s in spec.sets)


def _decoherence_expect(spec, decoherent, prefix=""):
    labels, p, worst, _ = oracle.decoherence(spec)
    tag = f"{prefix}." if prefix else ""
    title = f"{prefix} probabilities".strip()
    return (
        {f"{tag}decoherent": decoherent},
        {f"{tag}max_offdiag_normalized": (worst, TOL)},
        {title: dict(zip(labels, p))},
    )


def _check_cmd(key, path, spec, decoherent, kind, counts):
    exit_code = 2 if kind == "prob" and not decoherent else 0
    return Command(key, [kind, path], exit_code, counts=counts,
                   deferred=lambda: _decoherence_expect(spec, decoherent))


# ----------------------------------------------------------------------------
# Workloads


def _dense_io(rng, workdir, z):
    cmds = []
    bins, n_env = z["two_slit_bins"], z["spin_env_n"]
    theta = float(rng.uniform(0.5, 2.0))
    ts = f"two-slit-{bins}"
    # Closed forms (models docstring): with the which-slit record, the slit
    # branches are orthogonal, p(slit, bin) = |a[s, bin]|^2 / 2 = 1 / (2 bins),
    # the blocked alternative has p = 0, and merging slits gives p(bin) = 1 / bins.
    fine = {}
    for s in ("upper", "lower", "blocked"):
        for b in range(bins):
            fine[f"bin{b},{s}"] = 0.0 if s == "blocked" else 0.5 / bins
    n_ts = 3 * bins
    dec = ({"decoherent": True}, {"max_offdiag_normalized": (0.0, TOL)}, {"probabilities": fine})
    cmds.append(Command(f"{ts}/dump", ["model", "two-slit", "--bins", str(bins), "--environment",
                                       "--dump", "two_slit.json"],
                        verdicts={"with_environment": True}, fixed=True,
                        counts={"histories.branch_passes": 0, "linalg.eigh_calls": 0}))
    for kind in ("check", "prob"):
        cmds.append(Command(f"{ts}/{kind}", [kind, "two_slit.json"], 0, *dec, fixed=True,
                            counts={"histories.branch_passes": 1, "histories.branch_vectors": n_ts,
                                    "linalg.eigh_calls": 0}))
    cmds.append(Command(
        f"{ts}/coarse", ["coarse", "two_slit.json", "--partition", "merge-slits"], 0,
        {"coarse.decoherent": True},
        {"coarse.max_offdiag_normalized": (0.0, TOL), "max_sum_rule_violation": (0.0, TOL)},
        {"coarse probabilities": {f"bin{b}": 1.0 / bins for b in range(bins)}}, fixed=True,
        counts={"histories.branch_passes": 3, "histories.branch_vectors": 3 * n_ts,
                "histories.class_operators": n_ts, "linalg.eigh_calls": 0}))
    # Spin environment: four equiprobable histories whose only interference is
    # the record overlap, normalized off-diagonal |cos(theta/2)|^(2n).
    closed = abs(math.cos(theta / 2.0)) ** (2 * n_env)
    quarter = {lab: 0.25 for lab in ("plus,up", "minus,up", "plus,down", "minus,down")}
    cmds.append(Command(
        "spin-env/dump", ["model", "spin-env", "--n-env", str(n_env), "--theta", repr(theta),
                          "--dump", "spin_env.json"], 0, {},
        {"predicted_offdiag_normalized": (closed, TOL), "numeric_offdiag_normalized": (closed, TOL)},
        {"history probabilities (state vector)": quarter},
        counts={"histories.branch_passes": 0, "linalg.eigh_calls": 0}))
    cmds.append(Command("spin-env/check", ["check", "spin_env.json"], 0,
                        {"decoherent": closed <= 1e-8}, {"max_offdiag_normalized": (closed, TOL)},
                        {"probabilities": quarter},
                        counts={"histories.branch_passes": 1, "histories.branch_vectors": 4,
                                "linalg.eigh_calls": 0}))
    # A seeded dense grid in matrix form with H = 0, decoherent by construction.
    d, n_times, m = z["dense"]
    spec, _ = _eigen_grid(rng, d, [m] * n_times)
    spec.ham = None
    write_scenario(workdir / "dense.json", spec, matrix_form=True)
    n = _histories(spec)
    for kind in ("check", "prob"):
        cmds.append(_check_cmd(f"dense/{kind}", "dense.json", spec, True, kind,
                               {"histories.branch_passes": 1, "histories.branch_vectors": n,
                                "linalg.eigh_calls": 0}))
    return cmds


def _evolve_gram(rng, workdir, z):
    cmds = []
    for gi, (d, n_times, m) in enumerate(z["evolve"]):
        # Twins share eigenbasis, blocks, times and state; one H commutes with
        # every set (decoherent), the other has an independent eigenbasis.
        spec, spans = _eigen_grid(rng, d, [m] * n_times)
        generic = Spec(d, _hamiltonian(rng, _unitary(rng, d)), spec.psi, spec.sets)
        for twin, decoherent in ((spec, True), (generic, False)):
            name = f"g{gi}-{'dec' if decoherent else 'gen'}"
            write_scenario(workdir / f"{name}.json", twin, spans)
            alts = _alternatives(twin)
            counts = {"linalg.eigh_calls": alts, "linalg.evolve_calls": alts,
                      "histories.branch_passes": 1, "histories.branch_vectors": _histories(twin)}
            for kind in ("check", "prob"):
                cmds.append(_check_cmd(f"{name}/{kind}", f"{name}.json", twin, decoherent, kind,
                                       counts))
    return cmds


def _three_box(workdir):
    """The three-box past_A and past_B realms, written by the benchmark."""
    s3 = 1.0 / math.sqrt(3.0)
    psi = np.array([s3, s3, s3], dtype=complex)
    phi = np.array([s3, s3, -s3], dtype=complex)
    not_phi = np.array([[1, -1, 0], [1, 1, 2]], dtype=complex).T / np.array([math.sqrt(2), math.sqrt(6)])
    e = np.eye(3, dtype=complex)
    present = [phi[:, None], not_phi]
    out = {}
    for box, idx in (("A", 0), ("B", 1)):
        rest = e[:, [i for i in range(3) if i != idx]]
        past = [e[:, [idx]], rest]
        sets = [
            AltSet(1.0, f"box-{box}", [box, f"~{box}"], [c @ c.conj().T for c in past]),
            AltSet(2.0, "present", ["Phi", "~Phi"], [c @ c.conj().T for c in present]),
        ]
        spec = Spec(3, None, psi, sets)
        write_scenario(workdir / f"box_{box}.json", spec, [past, present], data=("Phi", 2.0))
        out[box] = spec
    return out


def _join_expect(a, b, compatible):
    v, s, t = _decoherence_expect(oracle.join(a, b), compatible, "join")
    v["compatibility"] = "compatible" if compatible else "incompatible"
    return v, s, t


def _coarse_expect(spec, pname):
    probs, worst, violation = oracle.coarse(spec, pname)
    return (
        {"coarse.decoherent": True},
        {"coarse.max_offdiag_normalized": (worst, TOL), "max_sum_rule_violation": (violation, TOL)},
        {"coarse probabilities": probs},
    )


def _realm_ops(rng, workdir, z):
    cmds = []
    # compat on a seeded pair sharing time t2 and a common eigenbasis, so the
    # refine_join path runs and the join decoheres.  B's blocks at t2 halve
    # A's, so the join has the same number of histories for every seed.
    d, m1, m2, m3 = z["pair"]
    u = _unitary(rng, d)
    t1, t2, t3 = _times(rng, 3)
    h, psi = _hamiltonian(rng, u), _amplitudes(rng, u)
    a1, a2, b3 = _blocks(rng, d, m1), _blocks(rng, d, m2, min_size=2), _blocks(rng, d, m3)
    b2 = [half for block in a2 for half in _halves(rng, block)]
    sa, spa = _eigen_sets(rng, u, [t1, t2], None, "a", [a1, a2])
    sb, spb = _eigen_sets(rng, u, [t2, t3], None, "b", [b2, b3])
    a, b = Spec(d, h, psi, sa), Spec(d, h, psi, sb)
    write_scenario(workdir / "realm_a.json", a, spa)
    write_scenario(workdir / "realm_b.json", b, spb)
    cmds.append(Command("pair/compat", ["compat", "realm_a.json", "realm_b.json"],
                        counts={"histories.branch_passes": 3},
                        deferred=lambda: _join_expect(a, b, True)))
    # compat on the three-box pasts: the join fails decoherence.
    boxes = _three_box(workdir)
    cmds.append(Command("three-box/compat", ["compat", "box_A.json", "box_B.json"], fixed=True,
                        counts={"histories.branch_passes": 3},
                        deferred=lambda: _join_expect(boxes["A"], boxes["B"], False)))
    # coarse with two seeded random partitions stored in the file.
    d, n_times, m, n_classes = z["coarse"]
    spec, spans = _eigen_grid(rng, d, [m] * n_times)
    hs = [tuple(int(i) for i in np.unravel_index(r, [m] * n_times)) for r in range(m**n_times)]
    for pname in ("rand1", "rand2"):
        assign = rng.integers(0, n_classes, size=len(hs))
        classes = [[h for h, c in zip(hs, assign) if c == k] for k in range(n_classes)]
        classes = [c for c in classes if c]
        spec.partitions[pname] = ([f"c{i}" for i in range(len(classes))], classes)
    write_scenario(workdir / "coarse.json", spec, spans)
    for pname in spec.partitions:
        cmds.append(Command(
            f"coarse/{pname}", ["coarse", "coarse.json", "--partition", pname],
            counts={"histories.branch_passes": 3, "histories.branch_vectors": 3 * len(hs),
                    "histories.class_operators": len(hs)},
            deferred=lambda pname=pname: _coarse_expect(spec, pname)))
    # retrodict / condition on the three-box model: p(A|Phi) = p(B|Phi) = 1.
    for box in ("A", "B"):
        cmds.append(Command(
            f"three-box/retrodict-{box}", ["retrodict", f"box_{box}.json"], fixed=True,
            tables={"retrodicted probabilities given Phi@2": {box: 1.0, f"~{box}": 0.0}},
            counts={"histories.branch_passes": 1, "histories.branch_vectors": 4}))
    cmds.append(Command(
        "three-box/condition", ["condition", "box_A.json", "--given", "Phi@2.0", "--target", "A@1.0"],
        fixed=True, tables={"conditional probability": {"p(A@1 | Phi@2)": 1.0}},
        counts={"histories.branch_passes": 1, "histories.branch_vectors": 4}))
    # retrodict / predict / condition on a seeded grid with a data projector in
    # the middle set.
    d, sizes = z["cond"]
    spec_c, spans = _eigen_grid(rng, d, list(sizes))
    t_past, t_data, _ = (s.time for s in spec_c.sets)
    data = (spec_c.sets[1].names[int(rng.integers(sizes[1]))], t_data)
    target = (spec_c.sets[0].names[int(rng.integers(sizes[0]))], t_past)
    write_scenario(workdir / "cond.json", spec_c, spans, data=data)
    for kind, future in (("retrodict", False), ("predict", True)):
        title = f"{'predicted' if future else 'retrodicted'} probabilities given {data[0]}@{data[1]:g}"
        cmds.append(Command(
            f"cond/{kind}", [kind, "cond.json"],
            counts={"histories.branch_passes": 1,
                    "histories.branch_vectors": sizes[1] * sizes[2 if future else 0]},
            deferred=lambda title=title, future=future: (
                {}, {}, {title: oracle.conditioned(spec_c, *data, future)})))
    label = f"p({target[0]}@{target[1]:g} | {data[0]}@{data[1]:g})"
    cmds.append(Command(
        "cond/condition", ["condition", "cond.json", "--given", f"{data[0]}@{data[1]!r}",
                           "--target", f"{target[0]}@{target[1]!r}"],
        counts={"histories.branch_passes": 1, "histories.branch_vectors": _histories(spec_c)},
        deferred=lambda: ({}, {}, {"conditional probability": {
            label: oracle.conditional(spec_c, data, target)}})))
    return cmds


_BUILDERS = {"dense-io": _dense_io, "evolve-gram": _evolve_gram, "realm-ops": _realm_ops}


def build(name: str, seed: int, workdir: Path, scale: str = "full") -> list:
    """Write the workload's input files into workdir and return its commands."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    return _BUILDERS[name](rng, workdir, SIZES[scale])
