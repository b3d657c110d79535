"""Host-speed calibration for the benchmark's timed figures.

On a shared machine the same work takes up to twice as long from one minute
to the next, as other tenants come and go.  Two fixed reference tasks, which
use numpy and scipy but none of ``sparsebeam``, measure how fast the host is
right now; the benchmark divides each time it reports by the reference task
run beside it and multiplies by that task's time on the reference machine.
The result reads in seconds of the reference machine, and a change to the
program moves it while the host's speed does not.

- ``kernel_seconds``: a compute kernel like one ADMM operation (a small
  L-BFGS-B descent, complex matrix-vector products, Hermitian
  eigendecompositions), timed in this process between operations.
- ``import_seconds``: a fresh interpreter importing numpy and
  ``scipy.optimize``, timed next to each set-up probe, which spends most of
  its time on the same imports.

The reference values are medians measured on the machine described in
README.md; they are constants so that no measured figure depends on them.
"""

import subprocess
import sys
import time

import numpy as np
import scipy.optimize

KERNEL_REPS = 5
KERNEL_REF_S = 0.048  # kernel_seconds() on the reference machine
IMPORT_REF_S = 0.75  # import_seconds() on the reference machine

IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import numpy, scipy.optimize
print(repr(time.perf_counter() - t0))
"""

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((10, 10)) + 1j * _rng.standard_normal((10, 10))
_H = _A @ _A.conj().T


def _rosenbrock(x):
    r = x[1:] - x[:-1] ** 2
    grad = np.zeros_like(x)
    grad[1:] += 200.0 * r
    grad[:-1] -= 400.0 * x[:-1] * r + 2.0 * (1.0 - x[:-1])
    return float(np.sum(100.0 * r * r + (1.0 - x[:-1]) ** 2)), grad


def _kernel():
    scipy.optimize.minimize(_rosenbrock, np.full(12, -1.0), jac=True,
                            method="L-BFGS-B", options={"maxiter": 60})
    v = np.ones(10, dtype=complex)
    for _ in range(60):
        v = _H @ v
        v = v / np.linalg.norm(v)
        w, U = np.linalg.eigh(_H + np.outer(v, v.conj()))
        v = U[:, -1] * max(w[-1], 1.0) ** -0.5


def kernel_seconds():
    """Wall time of KERNEL_REPS runs of the compute kernel."""
    start = time.perf_counter()
    for _ in range(KERNEL_REPS):
        _kernel()
    return time.perf_counter() - start


def import_seconds(cwd):
    """Wall time a fresh interpreter takes to import numpy and scipy.optimize."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         capture_output=True, text=True, timeout=120, cwd=cwd)
    if out.returncode != 0:
        raise RuntimeError(f"import probe failed: {out.stderr.strip()}")
    return float(out.stdout.strip().splitlines()[-1])
