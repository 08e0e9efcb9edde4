import numpy as np
import pytest

from flowssm import FlowSsm
from flowssm.errors import DataError


@pytest.fixture(scope="module")
def fitted(ellipsoid_family):
    est = FlowSsm(
        latent_dim=4, n_control_points=8, hidden=(12, 12, 8, 8),
        epochs=6, lr=2e-3, batch_size=4, n_sample_points=250,
        n_steps=2, inference_epochs=12, seed=0,
    )
    est.fit(ellipsoid_family["shapes"][:6], template=ellipsoid_family["template"])
    return est, ellipsoid_family


@pytest.fixture(scope="module")
def fitted_global(ellipsoid_family):
    est = FlowSsm(
        latent_dim=4, hidden=(12, 12, 8, 8), epochs=6, lr=2e-3, batch_size=4,
        n_sample_points=250, n_steps=2, inference_epochs=12, include_local=False,
        seed=0,
    )
    est.fit(ellipsoid_family["shapes"][:6], template=ellipsoid_family["template"])
    return est


def test_get_set_params_round_trip():
    est = FlowSsm(latent_dim=32, epochs=5)
    params = est.get_params()
    assert params["latent_dim"] == 32
    assert params["epochs"] == 5
    est.set_params(latent_dim=16)
    assert est.latent_dim == 16
    with pytest.raises(ValueError):
        est.set_params(bogus=1)


def test_clone_by_duck_typing():
    """sklearn-style clone: type(est)(**est.get_params()) must reconstruct."""
    est = FlowSsm(latent_dim=12, epochs=7, hidden=(8, 8, 8, 8))
    clone = type(est)(**est.get_params())
    assert clone.get_params() == est.get_params()


def test_unfitted_estimator_raises():
    with pytest.raises(DataError):
        FlowSsm().sample(1)
    with pytest.raises(DataError):
        FlowSsm().fit([], template=None)


def test_fit_returns_self_and_exposes_model(fitted):
    est, family = fitted
    assert est.model_ is not None
    assert est.model_.has_local
    assert est.n_features_ == (est.model_.pca_global.n_modes
                               + est.model_.pca_local.n_modes)


def test_training_weights_shape(fitted):
    est, family = fitted
    weights = est.model_.training_weights()
    assert weights.shape == (6, est.n_features_)


def test_transform_embeds_new_shapes(fitted):
    est, family = fitted
    feats = est.transform(family["shapes"][6:8], iters=8)
    assert feats.shape == (2, est.n_features_)
    assert np.all(np.isfinite(feats))


def test_inverse_transform_decodes_training_weights(fitted):
    est, family = fitted
    weights = est.model_.training_weights()
    meshes = est.inverse_transform(weights[:2])
    assert len(meshes) == 2
    np.testing.assert_array_equal(meshes[0].faces, est.model_.template.faces)
    # decoding the stored weights reproduces the stored latent decode
    direct = est.model_.decode_mesh(est.model_.training_states()[0])
    np.testing.assert_allclose(meshes[0].vertices, direct.vertices, atol=1e-9)
    with pytest.raises(DataError):
        est.inverse_transform(weights[:2, :-1])


def test_sample_returns_meshes(fitted):
    est, _ = fitted
    meshes = est.sample(3, seed=4)
    assert len(meshes) == 3
    assert all(m.n_vertices == est.model_.template.n_vertices for m in meshes)


def test_reconstruct_single_target(fitted):
    est, family = fitted
    mesh, state = est.reconstruct(family["shapes"][8], iters=8)
    assert state.z_global.shape == (est.latent_dim,)
    np.testing.assert_array_equal(mesh.faces, est.model_.template.faces)


def test_save_and_from_checkpoint(fitted, tmp_path):
    est, family = fitted
    path = tmp_path / "est.fssm"
    est.save(path)
    est2 = FlowSsm.from_checkpoint(path)
    assert est2.get_params() == est.get_params()
    w1 = est.model_.training_weights()
    w2 = est2.model_.training_weights()
    np.testing.assert_allclose(w1, w2, atol=1e-12)
    m1 = est.sample(1, seed=9)[0]
    m2 = est2.sample(1, seed=9)[0]
    np.testing.assert_array_equal(m1.vertices, m2.vertices)


def test_global_only_weights_and_decoding(fitted_global):
    est = fitted_global
    model = est.model_
    assert not model.has_local
    assert est.n_features_ == model.pca_global.n_modes
    meshes = est.inverse_transform(model.training_weights())
    for mesh, state in zip(meshes, model.training_states()):
        np.testing.assert_allclose(mesh.vertices, model.decode_mesh(state).vertices,
                                   atol=1e-9)


@pytest.mark.parametrize("kind", ["composed", "global_only"])
def test_state_weights_round_trip(fitted, fitted_global, kind):
    model = (fitted[0] if kind == "composed" else fitted_global).model_
    for state in model.training_states():
        back = model.state_of(model.weights_of(state))
        np.testing.assert_allclose(back.z_global, state.z_global, atol=1e-12)
        assert back.z_local.shape == model.local_shape
        np.testing.assert_allclose(back.z_local, state.z_local, atol=1e-12)
    with pytest.raises(DataError):
        model.state_of(np.zeros(model.n_weights + 1))
