"""Rebuild the stored model the inference workloads load.

    python3 bench/make_model.py

Trains the acceptance config for 100 epochs per stage on family members
0-39 at the benchmark's pinned BLAS thread count (about 3 minutes on 2
cores) and writes ``bench/model.fssm``. Training is deterministic at a fixed
thread count, so the file comes out byte for byte the same.
"""

from __future__ import annotations

import hashlib
import time

import common

common.prepare()

from flowssm import synthetic  # noqa: E402
from flowssm import model as fm  # noqa: E402

import inputs  # noqa: E402


def main() -> None:
    t0 = time.perf_counter()
    shapes = [m for m, _ in synthetic.generate_family(inputs.FAMILY, inputs.N_MEMBERS)]
    cfg = inputs.training_config(inputs.MODEL_EPOCHS, inputs.MODEL_SEED)
    model, _ = fm.train(shapes[:inputs.N_TRAIN], inputs.template(), cfg)
    fm.save_model(model, common.MODEL_PATH)
    digest = hashlib.sha256(common.MODEL_PATH.read_bytes()).hexdigest()
    print(f"wrote {common.MODEL_PATH.relative_to(common.ROOT)} in "
          f"{time.perf_counter() - t0:.1f} s at {common.blas_threads_in_use()} BLAS "
          f"thread(s); final losses stage1 {model.train_log['stage1'][-1]:.6f} "
          f"stage2 {model.train_log['stage2'][-1]:.6f}; sha256 {digest}")


if __name__ == "__main__":
    main()
