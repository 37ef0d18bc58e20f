"""Results and counters do not depend on the CPU NumPy dispatches to.

NumPy picks its ``np.partition`` and ``np.sort`` kernels at import, from
the SIMD features of the CPU, and those kernels leave equal-ranked
elements in different orders.  Every 1-D cut sorts the part it keeps, so
no result or counter may depend on that choice.  The test starts a child
interpreter with ``NPY_DISABLE_CPU_FEATURES`` set to every name in
``__cpu_dispatch__``, which leaves NumPy its baseline kernels (a baseline
name would make the import fail, and an unknown name is accepted
silently, so only those names are used).  The child's digest must equal
this process's.

The digest covers all five selectors and the oracle on tie-heavy,
signed-zero and paper-m64 inputs (the oracle only where it fits under its
guard): values in returned order, with ``-0.0`` mapped to ``0.0``, since
the two may trade places; ``repr(RunStats)``; and the index tuples of the
oracle, sort-tensor and sort-tree.

Run as a script, it prints the digest of the interpreter it runs in:

    PYTHONPATH=src python tests/test_dispatch.py
"""

import hashlib
import os
import random
import subprocess
import sys

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # NumPy 1.x
    from numpy.core import _multiarray_umath as umath

from cartesian_topk import SELECTORS, RunStats, brute_force_select
from cartesian_topk.bench import generate_inputs

KEYWORDS = {"sort-tree": {"want_indices": True}}  # sort-tensor always has indices


def _inputs():
    rng = random.Random(61)
    return {
        "tie-heavy": ([[float(rng.randint(0, 7)) for _ in range(100)] for _ in range(3)], 3000),
        "signed-zero": ([[rng.choice((-0.0, 0.0, -0.0, 1.0, -1.5)) for _ in range(30)]
                         for _ in range(4)], 2000),
        "paper-m64": (generate_inputs("exponential", 64, 1024, 1), 512),
    }


def digest() -> str:
    trace = []
    for kind, (arrays, k) in _inputs().items():
        if kind != "paper-m64":  # 1024**64 cells: past the oracle's guard
            oracle = brute_force_select(arrays, k)
            trace.append((kind, "brute-force", [v + 0.0 for v in oracle.values], oracle.indices))
        for name, select in SELECTORS.items():
            stats = RunStats()
            result = select(arrays, k, stats=stats, **KEYWORDS.get(name, {}))
            trace.append((kind, name, [v + 0.0 for v in result.values], repr(stats),
                          result.indices))
    return hashlib.sha256(repr(trace).encode()).hexdigest()


def test_results_do_not_depend_on_simd_dispatch():
    import cartesian_topk
    src = os.path.dirname(os.path.dirname(os.path.abspath(cartesian_topk.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    dispatch = list(umath.__cpu_dispatch__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               NPY_DISABLE_CPU_FEATURES=" ".join(dispatch))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    enabled, child = proc.stdout.split()
    assert enabled == "enabled:", enabled  # the child runs every kernel at baseline
    assert child == digest()


def main() -> int:
    on = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]
    print("enabled:" + ",".join(on), digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
