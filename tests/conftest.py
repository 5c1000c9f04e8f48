import os
import pathlib
import subprocess
import sys

import pytest

import lfac

# three types declared only in a catalog file: a char param, an irred param
# with its determinant, and an irred param whose determinant must be trivial
THREE_SHAPES = """catalog-format 1
type T
params sigma:char
block sigma sp 2
similitude sigma^2

type Y
params rho:irred sigma:char
block rho*sigma sp 0
block sigma*det(rho) sp 0
block sigma sp 0
similitude sigma^2*det(rho)

type Z
params sigma:char rho:irred
require trivial-det rho
block rho*sigma sp 0
block sigma sp 1
similitude sigma^2
"""


@pytest.fixture(scope="session")
def three_shape_catalog(tmp_path_factory):
    """Path of a catalog file declaring the types T, Y and Z."""
    f = tmp_path_factory.mktemp("three") / "cat.txt"
    f.write_text(THREE_SHAPES)
    return str(f)


@pytest.fixture(scope="session")
def fresh_python():
    """Run python with the given arguments in a fresh interpreter that
    imports lfac from where the tests do; returns the CompletedProcess."""
    src = str(pathlib.Path(lfac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return lambda *args: subprocess.run([sys.executable, *args], env=env,
                                        capture_output=True, text=True,
                                        timeout=120)
