"""The package's names: resolved from their submodules on first use, in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dhq

EXPORTS = """
AlternativeSet Boost CompatibilityVerdict ConditionOnNull DecoherenceReport DegenerateSpan
DhqError DimensionMismatch EnvironmentTooLarge Event GridTooLarge Hamiltonian HistoryGrid Igus
IgusGroup InvalidPartition NonCommutingSets NotDecoherent NotHermitian ParseError Partition
Projector Realm Scenario StateVector SuperluminalBoost TOL_ALG TOL_DEC_DEFAULT ValidationError
basis_projector boost_event branch_vector check_compatibility check_sum_rules class_operator
classify coarse_grain common_present_check complement conditional_probability
decoherence_functional dump_scenario enumerate_histories evolve_heisenberg
happened_relative_to_surface hermitian_eig interval_squared marginal_partition parse_scenario
predict probabilities projector_from_span refine_join retrodict simultaneity_boost
spin_environment three_box two_slit
""".split()
SUBMODULES = "decoherence errors histories linalg models realms scenario spacetime values".split()
MODULE_DUNDERS = """
__all__ __builtins__ __cached__ __doc__ __file__ __loader__ __name__ __package__ __path__
__spec__ __version__
""".split()


def fresh(*lines):
    """The JSON the last line of `lines` prints, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(dhq.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", "\n".join(["import json, sys", *lines])],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def test_import_loads_no_submodule_and_not_numpy():
    assert fresh("import dhq", "print(json.dumps(sorted(m for m in sys.modules "
                 "if m.startswith(('dhq.', 'numpy')))))") == []


def test_dir_and_all_list_the_public_names():
    names, everything = fresh("import dhq", "print(json.dumps([dhq.__all__, dir(dhq)]))")
    assert len(EXPORTS) == 58
    assert names == EXPORTS
    assert everything == sorted(EXPORTS + SUBMODULES + MODULE_DUNDERS)


def test_star_import_binds_every_export_and_submodules_resolve():
    bound, modules = fresh(
        "from dhq import *",
        "import dhq",
        "print(json.dumps([sorted(n for n in dir() if n in dhq.__all__),"
        " [getattr(dhq, m).__name__ for m in "
        + repr(SUBMODULES) + "]]))")
    assert bound == sorted(EXPORTS)
    assert modules == [f"dhq.{m}" for m in SUBMODULES]


def test_each_export_is_its_modules_object():
    for name in EXPORTS:
        obj = getattr(dhq, name)
        home = {"TOL_ALG": "dhq.linalg", "TOL_DEC_DEFAULT": "dhq.decoherence"}.get(name)
        assert obj is getattr(sys.modules[home or obj.__module__], name), name


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError, match="^module 'dhq' has no attribute 'no_such_name'$"):
        dhq.no_such_name
    with pytest.raises(ImportError, match="cannot import name 'no_such_name' from 'dhq'"):
        from dhq import no_such_name  # noqa: F401
