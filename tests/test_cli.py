import json
import time
from pathlib import Path

import numpy as np
import pytest

from flowssm.cli import main
from flowssm.mesh import load_mesh, save_mesh


def run(*argv) -> int:
    return main([str(a) for a in argv])


def small_train_config(tmp_path, data_dir, out_dir, epochs=3) -> Path:
    cfg = {
        "dataset_dir": str(data_dir),
        "template": str(data_dir / "template.obj"),
        "output_dir": str(out_dir),
        "training": {
            "epochs": epochs,
            "lr": 0.002,
            "batch_size": 4,
            "n_sample_points": 250,
            "latent_dim": 4,
            "n_control_points": 8,
            "initial_eps": 3.0,
            "hidden": [12, 12, 8, 8],
            "flow": {"n_steps": 2, "integrator": "rk4"},
            "inference_epochs": 10,
            "inference_lr": 0.01,
            "seed": 0,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("family")
    code = run("synth", "--family", "ellipsoid", "--n", 6, "--out-dir", out,
               "--seed", 3, "--n-vertices", 300, "--template-subdivisions", 2)
    assert code == 0
    return out


def test_synth_outputs(synth_dir):
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["kind"] == "flowssm-synthetic-family"
    assert len(manifest["parameters"]) == 6
    assert (synth_dir / "template.obj").is_file()
    mesh = load_mesh(synth_dir / "member_000.obj")
    assert mesh.n_vertices > 0
    assert (synth_dir / "run.json").is_file()


def test_full_smoke_pipeline(tmp_path, synth_dir):
    """synth -> preprocess -> train -> evaluate on a tiny config, < 5 min."""
    t0 = time.monotonic()
    pre = tmp_path / "pre"
    assert run("preprocess", "--in-dir", synth_dir, "--template",
               synth_dir / "template.obj", "--out-dir", pre) == 0
    manifest = json.loads((pre / "preprocess_manifest.json").read_text())
    assert manifest["scale"] > 0

    out = tmp_path / "runout"
    cfg = small_train_config(tmp_path, pre, out, epochs=3)
    assert run("train", "--config", cfg) == 0
    assert (out / "model.fssm").is_file()
    loss_rows = (out / "loss.csv").read_text().strip().splitlines()
    assert loss_rows[0] == "stage,epoch,loss"
    assert len(loss_rows) == 1 + 2 * 3  # both stages logged

    eval_dir = tmp_path / "eval"
    assert run("evaluate", "--checkpoint", out / "model.fssm",
               "--test-dir", pre, "--out-dir", eval_dir,
               "--iters", 5, "--assd-samples", 1000,
               "--specificity-samples", 2, "--specificity-points", 500,
               "--train-dir", pre) == 0
    report = json.loads((eval_dir / "report.json").read_text())
    assert report["generality"]["mean"] > 0
    assert report["specificity"] is not None
    assert (eval_dir / "generality.csv").is_file()
    assert time.monotonic() - t0 < 300  # the smoke budget


def test_preprocess_perturbation_round_trip(tmp_path):
    """Rigidly perturbed template copies come back within 1e-3 of the
    preprocessed template."""
    from flowssm.synthetic import icosphere

    rng = np.random.default_rng(0)
    base = icosphere(2)
    dirs = base.vertices
    centers = rng.normal(size=(6, 3))
    centers /= np.linalg.norm(centers, axis=1)[:, None]
    bump = np.zeros(len(dirs))
    for c in centers:
        ang = np.arccos(np.clip(dirs @ c, -1, 1))
        bump += 0.12 * np.exp(-((ang / 0.4) ** 2))
    r = (1.0 + bump) / np.sqrt(((dirs / np.array([1.0, 0.8, 0.65])) ** 2).sum(1))
    template = base.with_vertices(dirs * r[:, None])

    raw = tmp_path / "raw"
    raw.mkdir()
    save_mesh(template, raw / "template.obj")
    for i, angle in enumerate((3.0, -5.0)):
        c, s = np.cos(np.radians(angle)), np.sin(np.radians(angle))
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        moved = template.with_vertices(template.vertices @ rot.T + [0.05, -0.02, 0.01])
        save_mesh(moved, raw / f"member_{i:03d}.obj")

    pre = tmp_path / "pre"
    assert run("preprocess", "--in-dir", raw, "--template", raw / "template.obj",
               "--out-dir", pre, "--max-iters", 300, "--tol", 1e-13) == 0
    tpl = load_mesh(pre / "template.obj")
    for i in range(2):
        back = load_mesh(pre / f"member_{i:03d}.obj")
        assert np.abs(back.vertices - tpl.vertices).max() < 1e-3


def test_commands_do_not_mutate_inputs(tmp_path, synth_dir):
    import hashlib

    member = synth_dir / "member_000.obj"
    before = hashlib.sha256(member.read_bytes()).hexdigest()
    pre = tmp_path / "pre_immut"
    assert run("preprocess", "--in-dir", synth_dir, "--template",
               synth_dir / "template.obj", "--out-dir", pre) == 0
    assert hashlib.sha256(member.read_bytes()).hexdigest() == before


def test_preprocess_idempotent(tmp_path, synth_dir, capsys):
    pre = tmp_path / "pre2"
    assert run("preprocess", "--in-dir", synth_dir, "--template",
               synth_dir / "template.obj", "--out-dir", pre) == 0
    first = (pre / "preprocess_manifest.json").read_bytes()
    assert run("preprocess", "--in-dir", synth_dir, "--template",
               synth_dir / "template.obj", "--out-dir", pre) == 0
    assert "nothing to do" in capsys.readouterr().out
    assert (pre / "preprocess_manifest.json").read_bytes() == first


def test_preprocess_missing_template_exit_2(tmp_path, synth_dir):
    code = run("preprocess", "--in-dir", synth_dir, "--template",
               tmp_path / "missing.obj", "--out-dir", tmp_path / "x")
    assert code == 2


def test_train_rejects_unknown_config_keys(tmp_path, synth_dir):
    cfg = {
        "dataset_dir": str(synth_dir),
        "template": str(synth_dir / "template.obj"),
        "output_dir": str(tmp_path / "o"),
        "typo_key": 1,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run("train", "--config", path) == 2


@pytest.mark.parametrize("training", [
    {"epochs": 1, "nonsense": True},
    {"epochs": 1.5},
    {"flow": {"n_steps": 2.5, "integrator": "rk4"}},
    {"seed": -1},
], ids=["unknown_key", "fractional_epochs", "fractional_n_steps", "negative_seed"])
def test_train_rejects_unknown_training_keys(tmp_path, synth_dir, training):
    cfg = {
        "dataset_dir": str(synth_dir),
        "template": str(synth_dir / "template.obj"),
        "output_dir": str(tmp_path / "o"),
        "training": training,
    }
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps(cfg))
    assert run("train", "--config", path) == 2


def test_corrupt_checkpoint_exit_3(tmp_path, synth_dir):
    bad = tmp_path / "bad.fssm"
    bad.write_bytes(b"GARBAGE!" + b"\x00" * 100)
    code = run("sample", "--checkpoint", bad, "--n", 1,
               "--out-dir", tmp_path / "s")
    assert code == 3
    assert not list((tmp_path / "s").glob("*.obj"))


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_dir):
    tmp = tmp_path_factory.mktemp("trained")
    pre = tmp / "pre"
    assert run("preprocess", "--in-dir", synth_dir, "--template",
               synth_dir / "template.obj", "--out-dir", pre) == 0
    out = tmp / "out"
    cfg = small_train_config(tmp, pre, out, epochs=2)
    assert run("train", "--config", cfg) == 0
    return {"pre": pre, "ckpt": out / "model.fssm", "tmp": tmp}


class TestWithTrainedCheckpoint:
    def test_sample_deterministic_bytes(self, trained):
        d1 = trained["tmp"] / "s1"
        d2 = trained["tmp"] / "s2"
        for d in (d1, d2):
            assert run("sample", "--checkpoint", trained["ckpt"], "--n", 2,
                       "--seed", 5, "--out-dir", d) == 0
        for name in ("sample_000.obj", "sample_001.obj"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_sample_negative_seed_exit_2(self, trained, capsys):
        out = trained["tmp"] / "s_bad"
        assert run("sample", "--checkpoint", trained["ckpt"], "--n", 1,
                   "--seed", -1, "--out-dir", out) == 2
        assert "seed" in capsys.readouterr().err
        assert not list(out.glob("*.obj"))

    def test_fit_one_sided_half_mesh(self, trained):
        full = load_mesh(trained["pre"] / "member_000.obj")
        keep = full.triangles().mean(axis=1)[:, 0] < 0.2
        half = type(full)(full.vertices, full.faces[keep])
        half_path = trained["tmp"] / "half.obj"
        save_mesh(half, half_path)

        fit_dir = trained["tmp"] / "fit"
        assert run("fit", "--checkpoint", trained["ckpt"], "--target", half_path,
                   "--loss-mode", "one_sided_deformed_to_target",
                   "--iters", 5, "--out-dir", fit_dir) == 0
        fitted = load_mesh(fit_dir / "fitted.obj")
        template_faces = load_mesh(trained["pre"] / "template.obj").faces
        np.testing.assert_array_equal(fitted.faces, template_faces)
        latent = json.loads((fit_dir / "latent.json").read_text())
        assert latent["loss_mode"] == "one_sided_deformed_to_target"

    def test_fit_accepts_point_cloud_file(self, trained):
        from flowssm.mesh import sample_surface

        mesh = load_mesh(trained["pre"] / "member_001.obj")
        pts = sample_surface(mesh, 200, seed=0).points
        pts_path = trained["tmp"] / "sparse.xyz"
        pts_path.write_text("\n".join(f"{x} {y} {z}" for x, y, z in pts))
        fit_dir = trained["tmp"] / "fit_sparse"
        assert run("fit", "--checkpoint", trained["ckpt"], "--target", pts_path,
                   "--loss-mode", "one_sided_target_to_deformed",
                   "--iters", 5, "--out-dir", fit_dir) == 0
        assert (fit_dir / "fitted.obj").is_file()

    @pytest.mark.parametrize("flags", [("--iters", 0), ("--lr", -0.01), ("--lr", "nan")])
    def test_fit_invalid_inference_arguments_exit_2(self, trained, flags, capsys):
        fit_dir = trained["tmp"] / "fit_bad"
        assert run("fit", "--checkpoint", trained["ckpt"],
                   "--target", trained["pre"] / "member_000.obj",
                   *flags, "--out-dir", fit_dir) == 2
        assert flags[0][2:] in capsys.readouterr().err
        assert not (fit_dir / "fitted.obj").exists()

    @pytest.mark.parametrize("content", [b"", b"1 2 3\n4 five 6\n", b"\xff\xfe\x00\x81"],
                             ids=["empty", "non_numeric", "not_utf8"])
    def test_fit_malformed_point_file_exit_3(self, trained, content, capsys):
        pts_path = trained["tmp"] / "bad.xyz"
        pts_path.write_bytes(content)
        fit_dir = trained["tmp"] / "fit_malformed"
        assert run("fit", "--checkpoint", trained["ckpt"], "--target", pts_path,
                   "--out-dir", fit_dir) == 3
        assert "bad.xyz" in capsys.readouterr().err
        assert not (fit_dir / "fitted.obj").exists()

    def test_run_json_written(self, trained):
        run_meta = json.loads((trained["tmp"] / "out" / "run.json").read_text())
        assert run_meta["command"] == "train"
        assert run_meta["inputs"]  # content hashes recorded
        assert "version" in run_meta
        assert set(run_meta["threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}


def test_classify_command(tmp_path):
    rng = np.random.default_rng(0)
    pos = rng.normal(0, 1, size=(15, 3)) + 4
    neg = rng.normal(0, 1, size=(15, 3)) - 4
    feats = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(15), -np.ones(15)])
    fpath = tmp_path / "features.csv"
    lpath = tmp_path / "labels.csv"
    np.savetxt(fpath, feats, delimiter=",")
    np.savetxt(lpath, labels, delimiter=",")
    out = tmp_path / "cls"
    assert run("classify", "--features", fpath, "--labels", lpath,
               "--out-dir", out, "--n-splits", 20) == 0
    rows = (out / "accuracy.csv").read_text().strip().splitlines()
    assert rows[0] == "fraction,accuracy_mean,accuracy_std,n_splits"
    assert len(rows) == 10
    accs = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(a == 1.0 for a in accs)


@pytest.mark.parametrize("bad", ["features", "labels"])
def test_classify_non_numeric_csv_exit_3(tmp_path, bad, capsys):
    paths = {"features": tmp_path / "features.csv", "labels": tmp_path / "labels.csv"}
    paths["features"].write_text("1.0,2.0\n3.0,4.0\n-1.0,-2.0\n-3.0,-4.0\n")
    paths["labels"].write_text("1\n1\n-1\n-1\n")
    paths[bad].write_text(paths[bad].read_text().replace("-1", "minus one", 1))
    assert run("classify", "--features", paths["features"], "--labels", paths["labels"],
               "--out-dir", tmp_path / "cls", "--n-splits", 2) == 3
    assert f"{bad}.csv" in capsys.readouterr().err
    assert not (tmp_path / "cls" / "accuracy.csv").exists()


def test_train_byte_identical_outputs(tmp_path, synth_dir):
    pre = tmp_path / "pre"
    assert run("preprocess", "--in-dir", synth_dir, "--template",
               synth_dir / "template.obj", "--out-dir", pre) == 0
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        cfg = small_train_config(tmp_path, pre, out, epochs=2)
        assert run("train", "--config", cfg) == 0
        outs.append(out)
    assert (outs[0] / "model.fssm").read_bytes() == (outs[1] / "model.fssm").read_bytes()
    assert (outs[0] / "loss.csv").read_bytes() == (outs[1] / "loss.csv").read_bytes()
