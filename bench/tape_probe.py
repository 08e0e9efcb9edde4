"""Tape memory of one training step at the library's default config.

    python3 bench/tape_probe.py

Runs one taped global-stage flow forward and backward on ``ROWS`` template
points with the widths of ``TrainingConfig()`` (the README's reference
protocol), traced like a benchmark run, and prints the tape's output bytes
per point row and what a full default step (batch x sample points rows)
would hold at that rate.
"""

from __future__ import annotations

import resource

import common

common.prepare()

import numpy as np  # noqa: E402
from flowssm import autodiff as ad  # noqa: E402
from flowssm import flow  # noqa: E402
from flowssm.model import TrainingConfig  # noqa: E402
from flowssm.synthetic import icosphere  # noqa: E402
from flowssm.mesh import sample_surface  # noqa: E402

import tracing  # noqa: E402

ROWS = 200


def main() -> None:
    cfg = TrainingConfig()
    rng = np.random.default_rng(0)
    mlp = flow.ImNetMlp(3 + cfg.latent_dim, cfg.hidden, alpha=cfg.alpha, seed=0)
    x0 = sample_surface(icosphere(3), ROWS, seed=0).points
    target = x0 * 0.9
    z = ad.Tensor(rng.normal(0.0, cfg.latent_init_std, size=(ROWS, cfg.latent_dim)),
                  requires_grad=True)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    with ad.Tape() as tape:
        out = flow.integrate_flow(mlp, x0, z, cfg.flow)
        ad.backward(ad.tmean(ad.row_norm(out - target)), tape)
    tracer.uninstall()

    per_row = tracer.counts["autodiff.tape_bytes_per_row_peak"]
    step_rows = cfg.batch_size * cfg.n_sample_points
    print(f"config: latent_dim {cfg.latent_dim}, hidden {cfg.hidden}, "
          f"{cfg.flow.integrator} x {cfg.flow.n_steps}; {ROWS} rows; "
          f"BLAS threads {common.blas_threads_in_use()}")
    print(f"autodiff.tape_bytes_per_row = {per_row:.0f} B/row ({per_row / 2**20:.2f} MiB)")
    print(f"autodiff.tape_nodes = {tracer.counts['autodiff.tape_nodes_total']:.0f}")
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB")
    print(f"default step of {cfg.batch_size} x {cfg.n_sample_points} = {step_rows} rows "
          f"would hold {per_row * step_rows / 1e9:.0f} GB of tape")


if __name__ == "__main__":
    main()
