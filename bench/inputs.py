"""The benchmark's inputs: the acceptance ``bumpy_run`` family and config.

50 bumpy ellipsoids (500 +/- 10% vertices, own triangulation each); members
0-39 train, 40-49 are held out. Training config: d=16, M=125, hidden
32-32-16-16, RK4 x 4 steps, 700 points, batch 8, lr 2e-3.
"""

from __future__ import annotations

from flowssm.flow import FlowConfig
from flowssm.model import TrainingConfig
from flowssm.synthetic import FamilySpec, family_template

N_MEMBERS = 50
N_TRAIN = 40
FAMILY = FamilySpec(family="bumpy_ellipsoid", n_vertices=500, jitter=True,
                    axis_range=(0.65, 0.95), bump_amplitude=(0.05, 0.13),
                    bump_width=(0.35, 0.55), n_bumps=6, seed=42)
MODEL_EPOCHS = 100
MODEL_SEED = 0


def training_config(epochs: int, seed: int) -> TrainingConfig:
    return TrainingConfig(
        epochs=epochs, lr=2e-3, batch_size=8, n_sample_points=700,
        latent_dim=16, n_control_points=125, initial_eps=3.0,
        hidden=(32, 32, 16, 16), flow=FlowConfig(n_steps=4),
        inference_epochs=150, inference_lr=0.01, seed=seed)


def template():
    return family_template(FAMILY, subdivisions=3)
