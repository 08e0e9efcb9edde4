import numpy as np
import pytest

from flowssm.checkpoint import MAGIC, load_container, save_container
from flowssm.errors import IoError, ParseError, TopologyError
from flowssm.model import load_model, save_model


def test_round_trip(tmp_path):
    tensors = {
        "a": np.arange(12, dtype=float).reshape(3, 4),
        "b/nested": np.array(3.5),
        "c": np.zeros(0),
    }
    manifest = {"kind": "test", "nested": {"x": [1, 2, 3]}}
    path = tmp_path / "data.fssm"
    save_container(path, tensors, manifest)
    back, mani = load_container(path)
    assert mani == manifest
    assert set(back) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(back[k], tensors[k])
        assert back[k].shape == tensors[k].shape


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "bad.fssm"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ParseError):
        load_container(path)


def test_truncated_container_raises(tmp_path):
    tensors = {"a": np.ones((4, 4))}
    path = tmp_path / "data.fssm"
    save_container(path, tensors, {})
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ParseError):
        load_container(path)


def test_trailing_bytes_raise(tmp_path):
    path = tmp_path / "data.fssm"
    save_container(path, {"a": np.ones(3)}, {})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ParseError, match="after the last tensor"):
        load_container(path)


def test_manifest_must_be_an_object(tmp_path):
    path = tmp_path / "data.fssm"
    save_container(path, {}, [1, 2])
    with pytest.raises(ParseError, match="manifest"):
        load_container(path)


def test_model_truncated_anywhere_raises_parse_error(tiny_model, tmp_path):
    path = tmp_path / "model.fssm"
    save_model(tiny_model["model"], path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.fssm"
    # the header, the manifest, tensor names and shapes, and tensor data
    for n in [0, 12, 20, 100, *np.linspace(200, len(raw) - 1, 12).astype(int)]:
        cut.write_bytes(raw[:n])
        with pytest.raises(ParseError):
            load_model(cut)


def test_model_missing_tensor_raises_parse_error(tiny_model, tmp_path):
    path = tmp_path / "model.fssm"
    save_model(tiny_model["model"], path)
    tensors, manifest = load_container(path)
    for name in ["pca_global/stddevs", "mlp_local/w0"]:
        kept = {k: v for k, v in tensors.items() if k != name}
        save_container(path, kept, manifest)
        with pytest.raises(ParseError, match=name.split("/")[-1]):
            load_model(path)


MALFORMED_ENTRIES = {
    "n_train_not_a_number": lambda t, m: m.update(n_train="abc"),
    "z_local_one_column_short": lambda t, m: t.update(z_local_train=t["z_local_train"][:, :-1]),
    "config_is_a_list": lambda t, m: m.update(config=[1, 2]),
    "mlp_is_a_string": lambda t, m: m.update(mlp="x"),
    "latent_dim_not_a_number": lambda t, m: m.update(latent_dim="q"),
    "has_local_a_string": lambda t, m: m.update(has_local="no"),
    "norm_scale_a_string": lambda t, m: m.update(norm_scale="x"),
    "z_global_flattened": lambda t, m: t.update(z_global_train=t["z_global_train"].ravel()),
    "template_two_columns": lambda t, m: t.update(
        {"template/vertices": t["template/vertices"][:, :2]}),
    "mlp_weights_one_row_short": lambda t, m: t.update(
        {"mlp_global/w0": t["mlp_global/w0"][:-1]}),
}


@pytest.mark.parametrize("damage", sorted(MALFORMED_ENTRIES))
def test_model_malformed_entry_raises_parse_error(tiny_model, tmp_path, damage):
    path = tmp_path / "model.fssm"
    save_model(tiny_model["model"], path)
    tensors, manifest = load_container(path)
    MALFORMED_ENTRIES[damage](tensors, manifest)
    save_container(path, tensors, manifest)
    with pytest.raises(ParseError, match="malformed checkpoint entry"):
        load_model(path)


def test_model_non_integer_template_faces_raise(tiny_model, tmp_path):
    path = tmp_path / "model.fssm"
    save_model(tiny_model["model"], path)
    tensors, manifest = load_container(path)
    tensors["template/faces"] = tensors["template/faces"] + 0.5
    save_container(path, tensors, manifest)
    with pytest.raises(TopologyError, match="integer"):
        load_model(path)


def test_magic_is_versioned():
    assert len(MAGIC) == 8
    assert MAGIC.endswith(b"1")


def test_missing_file_raises(tmp_path):
    with pytest.raises(IoError):
        load_container(tmp_path / "nope.fssm")
