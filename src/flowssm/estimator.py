"""Estimator-style facade over the shape model.

``FlowSsm`` follows the scikit-learn parameter protocol (constructor args
mirror attributes, ``get_params``/``set_params``, ``fit`` returns ``self``)
so it clones and composes with that ecosystem by duck typing, without a
scikit-learn dependency. ``transform`` turns meshes into PCA-weight feature
rows, which is exactly what the latent classification pipeline consumes.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, fields

import numpy as np

from .errors import DataError
from .flow import FlowConfig
from .latents import LatentState
from .mesh.core import TriMesh
from .model import (FlowSsmModel, TrainingConfig, fit_latent, load_model,
                    sample_shape, save_model, train)
from .validation import check_rng


class BaseEstimator:
    """Minimal scikit-learn-compatible parameter handling."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [n for n, p in sig.parameters.items()
                if n != "self" and p.kind == p.POSITIONAL_OR_KEYWORD]

    def get_params(self, deep: bool = True) -> dict:
        return {n: getattr(self, n) for n in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self


_DEFAULTS = TrainingConfig()


class FlowSsm(BaseEstimator):
    """Landmark-free statistical shape model with a fit/transform surface.

    Parameters mirror the training configuration. ``fit`` expects a list of
    preprocessed TriMesh instances plus a template mesh; ``transform`` embeds
    meshes as PCA-weight rows (global weights, then local); ``sample`` draws
    new shapes from the latent statistics.

    ``inference_epochs`` and ``inference_lr`` are the default ``iters`` and
    ``lr`` of every embedding (``transform``, ``reconstruct``, ``score``):
    ``inference_epochs`` caps the L-BFGS iterations of the global and of the
    local coefficient solve and sets the ``inference_epochs // 2`` steps of
    the averaged joint Adam refinement that follows; ``inference_lr`` is
    that refinement's step size. See :func:`flowssm.model.fit_latent`.
    """

    def __init__(
        self,
        latent_dim: int = _DEFAULTS.latent_dim,
        n_control_points: int = _DEFAULTS.n_control_points,
        initial_eps: float = _DEFAULTS.initial_eps,
        hidden: tuple[int, ...] = _DEFAULTS.hidden,
        epochs: int = _DEFAULTS.epochs,
        lr: float = _DEFAULTS.lr,
        batch_size: int = _DEFAULTS.batch_size,
        n_sample_points: int = _DEFAULTS.n_sample_points,
        latent_init_std: float = _DEFAULTS.latent_init_std,
        n_steps: int = _DEFAULTS.flow.n_steps,
        integrator: str = _DEFAULTS.flow.integrator,
        inference_epochs: int = _DEFAULTS.inference_epochs,
        inference_lr: float = _DEFAULTS.inference_lr,
        alpha: float = _DEFAULTS.alpha,
        include_local: bool = True,
        seed: int = _DEFAULTS.seed,
    ):
        self.latent_dim = latent_dim
        self.n_control_points = n_control_points
        self.initial_eps = initial_eps
        self.hidden = hidden
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.n_sample_points = n_sample_points
        self.latent_init_std = latent_init_std
        self.n_steps = n_steps
        self.integrator = integrator
        self.inference_epochs = inference_epochs
        self.inference_lr = inference_lr
        self.alpha = alpha
        self.include_local = include_local
        self.seed = seed

    def _config(self) -> TrainingConfig:
        flow = FlowConfig(**{f.name: getattr(self, f.name) for f in fields(FlowConfig)})
        return TrainingConfig(**{f.name: flow if f.name == "flow" else getattr(self, f.name)
                                 for f in fields(TrainingConfig)})

    def fit(self, shapes: list[TriMesh], template: TriMesh | None = None,
            norm_scale: float | None = None) -> "FlowSsm":
        if template is None:
            raise DataError("fit requires a template mesh")
        self.model_, self.training_latents_ = train(
            shapes, template, self._config(),
            include_local=self.include_local, norm_scale=norm_scale)
        return self

    def _require_fitted(self) -> FlowSsmModel:
        model = getattr(self, "model_", None)
        if model is None:
            raise DataError("estimator is not fitted; call fit() first")
        return model

    @property
    def n_features_(self) -> int:
        return self._require_fitted().n_weights

    def transform(self, shapes, loss_mode: str = "symmetric",
                  iters: int | None = None, seed: int = 0) -> np.ndarray:
        """Embed each mesh / point set as a row of PCA weights."""
        model = self._require_fitted()
        rows = []
        for i, target in enumerate(shapes):
            state, _ = fit_latent(model, target, loss_mode=loss_mode,
                                  iters=iters, seed=seed + i)
            rows.append(model.weights_of(state))
        return np.stack(rows)

    def fit_transform(self, shapes, template: TriMesh | None = None) -> np.ndarray:
        """Fit, then return the training shapes' own PCA weights (no refit)."""
        self.fit(shapes, template)
        return self.model_.training_weights()

    def inverse_transform(self, weights: np.ndarray) -> list[TriMesh]:
        """Decode PCA-weight rows back into meshes (template connectivity)."""
        model = self._require_fitted()
        return [model.decode_mesh(model.state_of(w)) for w in np.atleast_2d(weights)]

    def reconstruct(self, target, loss_mode: str = "symmetric",
                    iters: int | None = None, seed: int = 0) -> tuple[TriMesh, LatentState]:
        """Fit a single mesh or point set; returns (mesh, latent state)."""
        state, mesh = fit_latent(self._require_fitted(), target,
                                 loss_mode=loss_mode, iters=iters, seed=seed)
        return mesh, state

    def sample(self, n: int = 1, seed: int = 0) -> list[TriMesh]:
        model = self._require_fitted()
        rng = check_rng(seed)
        return [sample_shape(model, seed=rng)[0] for _ in range(n)]

    def score(self, shapes, iters: int | None = None, seed: int = 0) -> float:
        """Negative mean symmetric Chamfer of per-shape fits (higher=better)."""
        from .mesh.distance import chamfer_distance
        from .mesh.sampling import sample_surface

        model = self._require_fitted()
        losses = []
        for i, target in enumerate(shapes):
            _, fitted = fit_latent(model, target, iters=iters, seed=seed + i)
            a = sample_surface(fitted, 4000, seed=seed).points
            b = sample_surface(target, 4000, seed=seed + 1).points
            losses.append(chamfer_distance(a, b))
        return -float(np.mean(losses))

    def save(self, path) -> None:
        save_model(self._require_fitted(), path)

    @classmethod
    def from_checkpoint(cls, path) -> "FlowSsm":
        model = load_model(path)
        params = asdict(model.config)
        params.update(params.pop("flow"))  # the flow settings are top-level parameters
        est = cls(**params, include_local=model.has_local)
        est.model_ = model
        return est
