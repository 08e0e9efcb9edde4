"""Command-line pipeline: synth, preprocess, train, fit, sample, evaluate,
classify.

Exit codes: 0 success, 1 numeric failure, 2 usage/config error, 3 I/O error.
All outputs are written atomically (temp file + rename) and every run drops a
``run.json`` echoing the configuration, seed, BLAS thread settings and
content hashes of inputs.

Set ``FLOWSSM_NUM_THREADS`` to cap BLAS/OpenMP thread pools; it must take
effect before numpy loads, which is why this module defers all numeric
imports into the command handlers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _configure_threads():
    want = os.environ.get("FLOWSSM_NUM_THREADS")
    if want:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, want)


class UsageError(Exception):
    """Bad arguments or config; maps to exit code 2."""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_text_atomic(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


def _write_json_atomic(path: Path, payload: dict):
    _write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _save_mesh_atomic(mesh, path: Path):
    from .mesh.io import save_mesh

    tmp = path.with_name(path.name + ".tmp" + path.suffix)
    save_mesh(mesh, tmp, fmt=path.suffix.lstrip("."))
    tmp.replace(path)


def _write_run_json(out_dir: Path, command: str, config: dict, inputs: list[Path]):
    from . import __version__

    payload = {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs if p.is_file()},
        # results are only bit-reproducible at a fixed BLAS thread count
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "version": __version__,
    }
    _write_json_atomic(out_dir / "run.json", payload)


class _OutputLock:
    """Advisory exclusive lock on the output directory."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / ".lock"
        self.fh = None

    def __enter__(self):
        import fcntl

        self.fh = open(self.path, "w")
        try:
            fcntl.flock(self.fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            raise UsageError(f"output directory is locked by another run: {exc}")
        return self

    def __exit__(self, *exc):
        import fcntl

        if self.fh:
            fcntl.flock(self.fh, fcntl.LOCK_UN)
            self.fh.close()
        return False


def _require_file(path: Path, what: str) -> Path:
    if not path.is_file():
        raise UsageError(f"{what} not found: {path}")
    return path


def _require_dir(path: Path, what: str) -> Path:
    if not path.is_dir():
        raise UsageError(f"{what} not found: {path}")
    return path


def _mesh_files(directory: Path) -> list[Path]:
    files = sorted(p for p in directory.iterdir()
                   if p.suffix.lower() in (".obj", ".ply"))
    if not files:
        raise UsageError(f"no mesh files (.obj/.ply) in {directory}")
    return files


def _load_text(path: Path, delimiter=None, ndmin: int = 0):
    """Numbers from a plain-text table; text that is not one raises ParseError."""
    import numpy as np

    from .errors import ParseError

    try:
        return np.loadtxt(path, delimiter=delimiter, dtype=np.float64, ndmin=ndmin)
    except ValueError as exc:  # includes UnicodeDecodeError
        raise ParseError(f"{path}: {exc}") from exc


def _load_points_file(path: Path):
    """Plain-text point clouds: one ``x y z`` (or comma-separated) per line."""
    from .errors import ParseError
    from .mesh.core import PointSet

    data = path.read_bytes()
    if not data.strip():
        raise ParseError(f"{path}: no points")
    return PointSet(_load_text(path, "," if b"," in data.split(b"\n", 1)[0] else None))


# ---------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    from .mesh.io import save_mesh  # noqa: F401 - ensures mesh deps import early
    from .synthetic import FamilySpec, family_template, generate_family

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = FamilySpec(family=args.family, n_vertices=args.n_vertices,
                      jitter=not args.no_jitter, seed=args.seed)
    with _OutputLock(out_dir):
        members = generate_family(spec, args.n)
        params = {}
        for i, (mesh, p) in enumerate(members):
            name = f"member_{i:03d}.obj"
            _save_mesh_atomic(mesh, out_dir / name)
            params[name] = [float(v) for v in p]
        template = family_template(spec, subdivisions=args.template_subdivisions)
        _save_mesh_atomic(template, out_dir / "template.obj")
        _write_json_atomic(out_dir / "manifest.json", {
            "kind": "flowssm-synthetic-family",
            "spec": spec.to_dict(),
            "n": args.n,
            "parameters": params,
            "template": "template.obj",
        })
        _write_run_json(out_dir, "synth", vars_of(args), [])
    return 0


def vars_of(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def cmd_preprocess(args) -> int:
    from .mesh.io import load_mesh
    from .mesh.registration import icp_align, normalize_to_unit_box

    in_dir = _require_dir(Path(args.in_dir), "input directory")
    template_path = _require_file(Path(args.template), "template mesh")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    files = [p for p in _mesh_files(in_dir) if p.resolve() != template_path.resolve()]
    input_hashes = {p.name: _sha256(p) for p in files}
    input_hashes["__template__"] = _sha256(template_path)

    manifest_path = out_dir / "preprocess_manifest.json"
    if manifest_path.is_file():
        existing = json.loads(manifest_path.read_text())
        if existing.get("input_hashes") == input_hashes:
            print("preprocess: outputs up to date, nothing to do")
            return 0

    with _OutputLock(out_dir):
        template = load_mesh(template_path)
        aligned = []
        for p in files:
            mesh = load_mesh(p)
            _, moved = icp_align(mesh, template,
                                 max_iters=args.max_iters, tol=args.tol)
            aligned.append(moved)
        normalized, scale, centers = normalize_to_unit_box([template] + aligned)
        _save_mesh_atomic(normalized[0], out_dir / "template.obj")
        names = []
        for p, mesh in zip(files, normalized[1:]):
            name = p.stem + ".obj"
            _save_mesh_atomic(mesh, out_dir / name)
            names.append(name)
        _write_json_atomic(manifest_path, {
            "kind": "flowssm-preprocess",
            "scale": scale,
            "centers": {n: [float(v) for v in c]
                        for n, c in zip(["template.obj"] + names, centers)},
            "template": "template.obj",
            "input_hashes": input_hashes,
        })
        _write_run_json(out_dir, "preprocess", vars_of(args),
                        files + [template_path])
    return 0


_RUN_CONFIG_KEYS = {"dataset_dir", "template", "output_dir", "training", "include_local"}


def _load_run_config(path: Path) -> dict:
    from .model import TrainingConfig

    try:
        raw = json.loads(_require_file(path, "config").read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}")
    unknown = set(raw) - _RUN_CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key in ("dataset_dir", "template", "output_dir"):
        if key not in raw:
            raise UsageError(f"config missing required key {key!r}")
    try:
        cfg = TrainingConfig.from_dict(raw.get("training", {}))
    except Exception as exc:  # unknown keys or bad values
        raise UsageError(f"bad training config: {exc}")
    raw["_training_config"] = cfg
    return raw


def cmd_train(args) -> int:
    from .mesh.io import load_mesh
    from .model import save_model, train

    raw = _load_run_config(Path(args.config))
    cfg = raw["_training_config"]
    dataset_dir = _require_dir(Path(raw["dataset_dir"]), "dataset directory")
    template_path = _require_file(Path(raw["template"]), "template mesh")
    out_dir = Path(raw["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    files = [p for p in _mesh_files(dataset_dir)
             if p.resolve() != template_path.resolve()]
    norm_scale = None
    manifest = dataset_dir / "preprocess_manifest.json"
    if manifest.is_file():
        norm_scale = json.loads(manifest.read_text()).get("scale")

    with _OutputLock(out_dir):
        shapes = [load_mesh(p) for p in files]
        template = load_mesh(template_path)
        model, _ = train(shapes, template, cfg,
                         include_local=raw.get("include_local", True),
                         norm_scale=norm_scale)
        save_model(model, out_dir / "model.fssm")
        rows = ["stage,epoch,loss"]
        for stage_name in ("stage1", "stage2"):
            for epoch, loss in enumerate(model.train_log.get(stage_name, [])):
                rows.append(f"{stage_name},{epoch},{loss!r}")
        _write_text_atomic(out_dir / "loss.csv", "\n".join(rows) + "\n")
        config_echo = {k: v for k, v in raw.items() if not k.startswith("_")}
        config_echo["training"] = cfg.to_dict()
        _write_run_json(out_dir, "train", config_echo, files + [template_path])
    return 0


def cmd_fit(args) -> int:
    from .mesh.io import load_mesh
    from .model import fit_latent, load_model

    ckpt = _require_file(Path(args.checkpoint), "checkpoint")
    target_path = _require_file(Path(args.target), "target")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    model = load_model(ckpt)
    if target_path.suffix.lower() in (".obj", ".ply"):
        target = load_mesh(target_path)
    else:
        target = _load_points_file(target_path)

    with _OutputLock(out_dir):
        state, fitted = fit_latent(model, target, loss_mode=args.loss_mode,
                                   iters=args.iters, lr=args.lr, seed=args.seed)
        _save_mesh_atomic(fitted, out_dir / "fitted.obj")
        _write_json_atomic(out_dir / "latent.json", {
            "loss_mode": args.loss_mode,
            "z_global": [float(v) for v in state.z_global],
            "z_local": [[float(v) for v in row] for row in state.z_local],
        })
        _write_run_json(out_dir, "fit", vars_of(args), [ckpt, target_path])
    return 0


def cmd_sample(args) -> int:
    from .model import load_model, sample_shape
    from .validation import check_rng

    ckpt = _require_file(Path(args.checkpoint), "checkpoint")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = load_model(ckpt)
    rng = check_rng(args.seed)
    with _OutputLock(out_dir):
        for i in range(args.n):
            mesh, _ = sample_shape(model, seed=rng)
            _save_mesh_atomic(mesh, out_dir / f"sample_{i:03d}.obj")
        _write_run_json(out_dir, "sample", vars_of(args), [ckpt])
    return 0


def cmd_evaluate(args) -> int:
    from .evaluation import EvalReport, evaluate_generality, evaluate_specificity
    from .mesh.io import load_mesh
    from .model import load_model

    ckpt = _require_file(Path(args.checkpoint), "checkpoint")
    test_dir = _require_dir(Path(args.test_dir), "test directory")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    model = load_model(ckpt)
    test_files = _mesh_files(test_dir)
    test_shapes = [load_mesh(p) for p in test_files]

    with _OutputLock(out_dir):
        generality = evaluate_generality(
            model, test_shapes, iters=args.iters,
            assd_samples=args.assd_samples, seed=args.seed)
        specificity = None
        train_files = []
        if args.train_dir:
            train_dir = _require_dir(Path(args.train_dir), "training directory")
            train_files = _mesh_files(train_dir)
            train_shapes = [load_mesh(p) for p in train_files]
            specificity = evaluate_specificity(
                model, train_shapes, n_samples=args.specificity_samples,
                n_points=args.specificity_points, seed=args.seed)
        report = EvalReport(generality=generality, specificity=specificity,
                            norm_scale=model.norm_scale, config=vars_of(args))
        _write_json_atomic(out_dir / "report.json", report.to_dict())
        rows = ["index,assd,self_intersecting,intersecting_pairs"]
        for r in generality.per_shape:
            rows.append(f"{r['index']},{r['assd']!r},{int(r['self_intersecting'])},"
                        f"{r['intersecting_pairs']}")
        _write_text_atomic(out_dir / "generality.csv", "\n".join(rows) + "\n")
        if specificity is not None:
            rows = ["index,chamfer,self_intersecting,intersecting_pairs"]
            for r in specificity.per_shape:
                rows.append(f"{r['index']},{r['chamfer']!r},"
                            f"{int(r['self_intersecting'])},{r['intersecting_pairs']}")
            _write_text_atomic(out_dir / "specificity.csv", "\n".join(rows) + "\n")
        _write_run_json(out_dir, "evaluate", vars_of(args),
                        [ckpt] + test_files + train_files)
    return 0


def cmd_classify(args) -> int:
    from .evaluation import classify_monte_carlo

    features_path = _require_file(Path(args.features), "features CSV")
    labels_path = _require_file(Path(args.labels), "labels CSV")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    features = _load_text(features_path, ",", ndmin=2)
    labels = _load_text(labels_path, ",").reshape(-1)
    with _OutputLock(out_dir):
        results = classify_monte_carlo(features, labels, n_splits=args.n_splits,
                                       lam=args.lam, seed=args.seed)
        rows = ["fraction,accuracy_mean,accuracy_std,n_splits"]
        for r in results:
            rows.append(f"{r['fraction']!r},{r['accuracy_mean']!r},"
                        f"{r['accuracy_std']!r},{r['n_splits']}")
        _write_text_atomic(out_dir / "accuracy.csv", "\n".join(rows) + "\n")
        _write_run_json(out_dir, "classify", vars_of(args),
                        [features_path, labels_path])
    return 0


# ---------------------------------------------------------------- parser

ITERS_HELP = ("maximum L-BFGS iterations per coefficient stage (global, then "
              "local); the averaged joint Adam refinement runs ITERS // 2 steps "
              "(default: the checkpoint's inference_epochs)")
LR_HELP = ("step size of the averaged joint Adam refinement "
           "(default: the checkpoint's inference_lr)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowssm",
        description="Landmark-free statistical shape modeling pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic shape family")
    p.add_argument("--family", required=True,
                   choices=("ellipsoid", "bumpy_ellipsoid", "lobed_blob"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-vertices", type=int, default=642)
    p.add_argument("--template-subdivisions", type=int, default=3)
    p.add_argument("--no-jitter", action="store_true",
                   help="share one triangulation across members (PDM baseline)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="ICP-align to template and normalize")
    p.add_argument("--in-dir", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train the shape model from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fit", help="fit the model to a target mesh or point cloud")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--loss-mode", default="symmetric",
                   choices=("symmetric", "one_sided_deformed_to_target",
                            "one_sided_target_to_deformed"))
    p.add_argument("--iters", type=int, default=None, help=ITERS_HELP)
    p.add_argument("--lr", type=float, default=None, help=LR_HELP)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="decode random shapes from the model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate", help="generality (and optional specificity) report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test-dir", required=True)
    p.add_argument("--train-dir", default=None,
                   help="training meshes; enables the specificity arm")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--iters", type=int, default=None, help=ITERS_HELP)
    p.add_argument("--assd-samples", type=int, default=8000)
    p.add_argument("--specificity-samples", type=int, default=100)
    p.add_argument("--specificity-points", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("classify", help="Monte-Carlo linear-SVM accuracy curve")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-splits", type=int, default=1000)
    p.add_argument("--lam", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    _configure_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    from .errors import (DataError, DegenerateLabels, FlowSsmError, IoError,
                         NonFiniteValue, ParseError, ShapeMismatch,
                         TopologyError)

    try:
        return args.func(args) or 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (DataError, DegenerateLabels, ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IoError, ParseError, TopologyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonFiniteValue as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except FlowSsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
