import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import altwalk
from altwalk import lattice, limit, model, spectral, verify

# the package binds its five modules and its version; every other public name
# lives in the module that defines it
PUBLIC = ["lattice", "limit", "model", "spectral", "verify", "__version__"]

DELETED = ["Branch", "BranchError", "classify_branch", "inverse_map", "EigenSystem",
           "eigensystem", "bloch_matrix", "spectral_evolve", "write_state_binary",
           "read_state_binary", "forward_map", "step", "tau_of", "CoinParameters",
           "from_squared_moduli", "build_model", "derive_constants", "jacobian_inverse",
           "SHELL_FLOOR", "FORWARD_CONSISTENCY_TOL", "DEDUP_K_TOL", "bloch_entries",
           "DEGENERACY_TOL", "eigenvalues", "_sector_of", "_branch_labels", "_inverse_labelled"]

# the public names of each module, 38 in all
ALL_SIZES = {"model": 4, "lattice": 10, "spectral": 10, "limit": 14}


def test_public_names():
    assert altwalk.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(altwalk, name) is not None


def test_package_binds_only_modules():
    assert [name for name, obj in vars(altwalk).items()
            if not name.startswith("_") and not inspect.ismodule(obj)] == []


@pytest.mark.parametrize("module", [altwalk, model, lattice, limit, spectral, verify],
                         ids=lambda m: m.__name__)
def test_deleted_names_stay_deleted(module):
    assert [name for name in DELETED if hasattr(module, name)] == []
    assert [name for name in DELETED if hasattr(getattr(module, "Model", None), name)] == []
    for name in getattr(module, "__all__", ()):
        getattr(module, name)


def test_module_public_name_counts():
    assert {name: len(getattr(altwalk, name).__all__) for name in ALL_SIZES} == ALL_SIZES


def test_cli_import_loads_neither_logging_nor_futures():
    # importing concurrent.futures, which imports logging, raised the peak RSS of
    # a benchmark that never uses it
    src = Path(altwalk.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import altwalk.cli; "
            "print(sorted({'logging', 'concurrent.futures'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
