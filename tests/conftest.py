"""Shared group fixtures, and the python -O harness run_optimized.

Groups are immutable once built, so session scope is safe and keeps the
subgroup-lattice caches warm across test modules.
"""

import contextlib
import inspect
import json
import os
import signal
import subprocess
import sys
import tempfile
import traceback

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


def _serve():
    """The python -O worker of run_optimized: for each JSON request {code,
    timeout} on stdin it forks one child, which runs code as a script in a
    fresh namespace with its output captured, and answers one JSON line
    {returncode, stdout, stderr}.  SIGALRM ends a child after timeout seconds."""
    for line in sys.stdin:
        request = json.loads(line)
        with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
            if os.fork() == 0:
                status = 1
                try:
                    os.dup2(out.fileno(), 1)
                    os.dup2(err.fileno(), 2)
                    signal.alarm(request["timeout"])
                    exec(request["code"], {"__name__": "__main__"})
                    status = 0
                except SystemExit as exc:
                    status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                except BaseException:
                    traceback.print_exc()
                finally:  # no interpreter teardown, and never back to the loop
                    sys.stdout.flush()
                    sys.stderr.flush()
                    os._exit(status)
            status = os.waitstatus_to_exitcode(os.wait()[1])
            out.seek(0)
            err.seek(0)
            reply = dict(returncode=status, stdout=out.read(), stderr=err.read())
        print(json.dumps(reply), flush=True)


# The worker exits 2 without -O, so the guard covers every scenario.  It
# runs _serve from its source, so that it never imports pytest.
_WORKER = (
    "if __debug__: raise SystemExit(2)\n"
    "import json, os, signal, sys, tempfile, traceback\n"
    "sys.path[:0] = sys.argv[1:]\nimport idemconv\n"
) + inspect.getsource(_serve) + "_serve()\n"


@pytest.fixture(scope="session")
def run_optimized():
    """run_optimized(code, timeout=60) runs code as a script under python -O
    and returns the CompletedProcess; a nonzero exit status fails the test
    with the script's output.  One worker, which imports idemconv once, forks
    a child for each script."""
    src = os.path.dirname(os.path.dirname(idemconv.__file__))
    args = [sys.executable, "-O", "-c", _WORKER, src, os.path.dirname(os.path.abspath(__file__))]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")  # no BLAS threads for fork to lose
    pipe = subprocess.PIPE
    worker = subprocess.Popen(args, env=env, stdin=pipe, stdout=pipe, stderr=pipe, text=True)

    def run(code, timeout=60):
        with contextlib.suppress(BrokenPipeError):  # the worker has exited
            worker.stdin.write(json.dumps({"code": code, "timeout": timeout}) + "\n")
            worker.stdin.flush()
        line = worker.stdout.readline()
        if not line:
            exited = "worker exited\n" + worker.stderr.read()
            line = json.dumps(dict(returncode=worker.wait(), stdout="", stderr=exited))
        proc = subprocess.CompletedProcess(code, **json.loads(line))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return proc

    yield run
    worker.communicate()
