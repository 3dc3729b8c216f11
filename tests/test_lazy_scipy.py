"""SciPy loads only where a sparse matrix is built.

The runtime, the MPI model and the DHT and KV apps never touch SciPy, and
importing the extend-add driver must not map it either: a process that
only runs the DHT or the KV service would otherwise carry SciPy's pages
and the objects every full garbage collection walks.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MODULES = (
    "repro.upcxx",
    "repro.mpisim",
    "repro.apps.dht",
    "repro.apps.kvservice",
    "repro.apps.sparse.extend_add",
)


def test_simulator_and_app_imports_leave_scipy_unloaded():
    code = "".join(f"import {m}\n" for m in MODULES) + (
        "import sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_building_a_matrix_still_works():
    from repro.apps.sparse.matrices import laplacian_3d

    a = laplacian_3d(3)
    assert a.shape == (27, 27) and a.nnz == 27 + 2 * 3 * 18
