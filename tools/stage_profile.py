"""Time each in-process stage of one ppca pipeline and print one JSON line.

    OPENBLAS_NUM_THREADS=1 python3 tools/stage_profile.py --design calibrated \
        --p 5000 --T 10 --J auto --repeat 9

It draws one panel of ``--design`` from ``np.random.default_rng([0, p, T, 0])``, as replication
0 of that cell does in a Monte Carlo scenario of seed 0, and builds the basis at ``--J`` (an
integer, or ``auto`` for ``basis.default_J``), with K the design's factor count.  Each stage runs
``--repeat`` times on the same inputs, and its best time is reported in ms: generate (the same
draw), basis, projector, select_k, projected fit, regular fit, test_g and test_gamma.  The line
also gives which path the projector took (``cholesky``, ``cholesky_qr2`` or ``svd``, told apart
by counting calls to ``np.linalg.cholesky`` and ``np.linalg.svd``) and which the regular fit took
(``certified``, or ``eigh`` when it fell back to the full ``eigh`` of the T x T or p x p Gram, told
by a call to ``estimator._small_gram_pairs`` or an ``np.linalg.eigh`` of a T x T matrix, which the
subspace iteration's own q x q eigenproblems, q < T, never are), the ``tracemalloc`` peak of
basis + projector + projected fit over ``Y.nbytes``, and the environment.  It imports ``ppca``
from the ``src`` beside this file, so a ``git archive`` of another revision profiles that
revision.
"""

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def recorded(module, *names):
    """Record the shape of the first argument of each call to ``module``'s functions ``names``."""
    calls, originals = {n: [] for n in names}, {n: getattr(module, n) for n in names}

    def spy(name):
        def call(*args, **kwargs):
            calls[name].append(np.shape(args[0]))
            return originals[name](*args, **kwargs)
        return call

    for name in names:
        setattr(module, name, spy(name))
    try:
        yield calls
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def best_ms(fn, repeat):
    """The fastest of ``repeat`` calls of ``fn``, in ms."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            **{v: os.environ.get(v) for v in THREAD_VARS}}


def profile(design, p, T, J, repeat):
    """The JSON-ready record of one profile; see the module docstring."""
    from ppca import estimator
    from ppca.basis import BasisSpec, build_basis, default_J
    from ppca.estimator import fit_projected_pca, fit_regular_pca
    from ppca.inference import select_k, test_g_zero, test_gamma_zero
    from ppca.projection import make_projector
    from ppca.simulate import gen_design

    def generate():
        return gen_design(design, p, T, np.random.default_rng([0, p, T, 0]))

    panel = generate()
    data, K = panel.data, panel.k_true
    spec = BasisSpec(J=default_J(p, T, data.x.shape[1]) if J == "auto" else int(J))
    tracemalloc.start()
    try:
        basis = build_basis(data.x, spec)
        P = make_projector(basis)
        fit_projected_pca(data, P, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with recorded(np.linalg, "cholesky", "svd") as calls:
        make_projector(basis)
    path = "svd" if calls["svd"] else "cholesky_qr2" if len(calls["cholesky"]) > 1 else "cholesky"
    with recorded(np.linalg, "eigh") as la, recorded(estimator, "_small_gram_pairs") as small:
        fit_regular_pca(data.y, K)
    regular = "eigh" if small["_small_gram_pairs"] or (T, T) in la["eigh"] else "certified"
    stages = {
        "generate": generate,
        "basis": lambda: build_basis(data.x, spec),
        "projector": lambda: make_projector(basis),
        "select_k": lambda: select_k(data.y, P, basis.m),
        "fit_projected": lambda: fit_projected_pca(data, P, K),
        "fit_regular": lambda: fit_regular_pca(data.y, K),
        "test_g": lambda: test_g_zero(data, P, K),
        "test_gamma": lambda: test_gamma_zero(data, P, K),
    }
    return {"environment": environment(), "design": design, "p": p, "T": T, "J": spec.J,
            "m": basis.m, "K": K, "repeat": repeat,
            "ms": {name: round(best_ms(fn, repeat), 3) for name, fn in stages.items()},
            "projector_path": path, "fit_regular_path": regular,
            "peak_over_y": round(peak / data.y.nbytes, 3)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--design", required=True, choices=["design2", "calibrated"])
    ap.add_argument("--p", type=int, required=True)
    ap.add_argument("--T", type=int, required=True)
    ap.add_argument("--J", default="auto", help="an integer, or auto for default_J (default)")
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args(argv)
    if args.J != "auto" and not args.J.isdigit():
        ap.error(f"--J must be an integer or auto, got {args.J!r}")
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(json.dumps(profile(args.design, args.p, args.T, args.J, args.repeat)), flush=True)


if __name__ == "__main__":
    main()
