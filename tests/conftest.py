import ctypes
import multiprocessing
import os
import pickle
import shutil
import signal
import sys
import tempfile

# One BLAS thread, pinned before numpy loads (as the benchmark does). The
# suite's matrices are a few thousand rows; a second OpenBLAS thread buys
# nothing there, and while the other core is busy its spin-waiting made one
# taped flow forward and backward 6x slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from flowssm.flow import FlowConfig  # noqa: E402
from flowssm.model import TrainingConfig, train  # noqa: E402
from flowssm.synthetic import FamilySpec, family_template, generate_family  # noqa: E402

# ------------------------------------------------- prefetched fixtures
#
# A few training runs take most of the suite's time, and with one BLAS
# thread the suite keeps one core busy. A fixture declared with
# ``@prefetched`` may instead be built ahead in one worker process, forked
# once collection has finished, while this process runs the other tests: the
# worker builds, in declaration order, every prefetched fixture that a
# selected test uses, and pickles each value to a file. The builds are
# deterministic, so the value is the one this process would have built. A
# build that fails (or a worker that dies) is built again here, so the error
# surfaces, with its traceback, in the test that needs it. Prefetching needs
# Linux (fork and the parent-death signal) and a second usable CPU.

_BUILDERS = {}
_prefetcher = None


def prefetched(build):
    """Module-scoped fixture named after ``build`` (no arguments) whose value
    a worker process may build ahead."""
    _BUILDERS[build.__name__] = build

    def fixture():
        if _prefetcher is not None:
            ok, value = _prefetcher.take(build.__name__)
            if ok:
                return value
        return build()

    return pytest.fixture(fixture, scope="module", name=build.__name__)


def _build_all(names, directory, conn, parent):
    # die with the test process, also when a time limit kills it
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    sys.stdout = sys.stderr = open(os.devnull, "w")
    for name in names:
        path = os.path.join(directory, name + ".pickle")
        try:
            with open(path, "wb") as f:
                pickle.dump(_BUILDERS[name](), f, protocol=pickle.HIGHEST_PROTOCOL)
            conn.send((name, path))
        except Exception:
            conn.send((name, None))
    conn.close()


class _Prefetcher:
    """One worker process building the named fixtures into pickle files."""

    def __init__(self, names):
        ctx = multiprocessing.get_context("fork")
        self.directory = tempfile.mkdtemp(prefix="prefetched-fixtures-")
        self.conn, child = ctx.Pipe(duplex=False)
        self.process = ctx.Process(target=_build_all, daemon=True,
                                   args=(names, self.directory, child, os.getpid()))
        self.process.start()
        child.close()
        self.pending, self.paths = set(names), {}

    def take(self, name):
        """(True, value) once the worker has built ``name``, else (False, None)."""
        while name in self.pending and name not in self.paths:
            try:
                got, path = self.conn.recv()
            except (EOFError, OSError):
                self.pending.clear()
                break
            self.paths[got] = path
        self.pending.discard(name)
        path = self.paths.pop(name, None)
        if path is None:
            return False, None
        with open(path, "rb") as f:
            value = pickle.load(f)
        os.remove(path)
        return True, value

    def close(self):
        self.process.kill()
        self.process.join()
        self.conn.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def pytest_collection_finish(session):
    global _prefetcher
    used = {name for item in session.items for name in getattr(item, "fixturenames", ())}
    names = [name for name in _BUILDERS if name in used]
    if (names and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
            and not session.config.option.collectonly):
        _prefetcher = _Prefetcher(names)


def pytest_sessionfinish(session):
    global _prefetcher
    if _prefetcher is not None:
        _prefetcher.close()
        _prefetcher = None


def tiny_config(**overrides) -> TrainingConfig:
    base = dict(
        epochs=30,
        lr=2e-3,
        batch_size=4,
        n_sample_points=350,
        latent_init_std=0.1,
        latent_dim=6,
        n_control_points=16,
        initial_eps=3.0,
        hidden=(16, 16, 8, 8),
        flow=FlowConfig(n_steps=4),
        inference_epochs=60,
        inference_lr=0.01,
        seed=0,
    )
    base.update(overrides)
    return TrainingConfig(**base)


@pytest.fixture(scope="session")
def ellipsoid_family():
    spec = FamilySpec(family="ellipsoid", n_vertices=350, seed=5,
                      axis_range=(0.6, 0.95))
    members = generate_family(spec, 10)
    return {
        "spec": spec,
        "shapes": [m for m, _ in members],
        "params": np.stack([p for _, p in members]),
        "template": family_template(spec, subdivisions=2),
    }


@pytest.fixture(scope="session")
def tiny_model(ellipsoid_family):
    """Small trained model shared by the model/evaluation tests."""
    model, states = train(
        ellipsoid_family["shapes"][:8],
        ellipsoid_family["template"],
        tiny_config(),
    )
    return {"model": model, "states": states, **ellipsoid_family}


@pytest.fixture(scope="session")
def identical_pair_model(ellipsoid_family):
    """Degenerate population: two copies of one shape."""
    shape = ellipsoid_family["shapes"][0]
    cfg = tiny_config(epochs=20, latent_dim=4, n_control_points=8)
    model, states = train([shape, shape.copy()], ellipsoid_family["template"], cfg)
    return {"model": model, "states": states, "shape": shape}
