"""Shared group fixtures.

Groups are immutable once built, so session scope is safe and keeps the
subgroup-lattice caches warm across test modules.
"""

import os
import subprocess
import sys

import pytest

import idemconv

from idemconv import (
    cyclic_group,
    dihedral_group,
    direct_product,
    quaternion_group,
    semidirect_product,
    symmetric_group,
)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric_group(4)


@pytest.fixture(scope="session")
def s5():
    return symmetric_group(5)


@pytest.fixture(scope="session")
def d4():
    return dihedral_group(4)


@pytest.fixture(scope="session")
def q8():
    return quaternion_group()


@pytest.fixture(scope="session")
def c12():
    return cyclic_group(12)


@pytest.fixture(scope="session")
def g18():
    # (C3 x C3) x| C2 with the involution swapping the two torus factors.
    torus = direct_product(cyclic_group(3), cyclic_group(3))
    swap = tuple((x % 3) * 3 + x // 3 for x in range(9))
    return semidirect_product(torus, cyclic_group(2), [tuple(range(9)), swap])


@pytest.fixture
def scatter_dtypes(monkeypatch):
    """The dtype each convolution scatter of the test ran on, observed at the
    kernel's one widening point (idemconv.cyclo._exact)."""
    from idemconv import _kernel

    dtypes = []
    real = _kernel._exact

    def spy(bound, op, *arrays):
        def observed(*operands):
            dtypes.append(operands[0].dtype)
            return op(*operands)

        return real(bound, observed, *arrays)

    monkeypatch.setattr(_kernel, "_exact", spy)
    return dtypes


def _run_optimized(code):
    """Run code under python -O (asserts stripped); it exits 0 on success."""
    src = os.path.dirname(os.path.dirname(idemconv.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "if __debug__:\n    raise SystemExit(2)\n" + code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="session")
def run_optimized():
    return _run_optimized
