"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload train --seed 1 --seconds 10 --trace 0

Set-up (family generation, model load) runs three times and reports the
median. Then whole rounds of the workload's operations run until
``--seconds`` have passed, with at least one round. The outputs are checked,
and the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics and no end-to-end metric: set-up runs once, traced; round
0 runs twice untraced and then once traced, and the traced wall time minus
the second untraced one is the tracing overhead. Each run writes a record,
and a traced run its spans, to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import common

SETUP_REPEATS = 3

# Spans whose self time a per-layer metric reports. The self time of every
# other span (the round itself, model.train, model.add_local_stage,
# model.fit_latent, model.lbfgs, evaluation.generality: loss assembly, Python
# loops, scipy's L-BFGS) belongs to no layer and is reported as uncovered.
LAYER_SPANS = ("flow.forward", "flow.integrate", "autodiff.backward", "autodiff.adam",
               "latents.rbf_weights", "latents.compose_deformers", "model.chamfer_nn",
               "mesh.sampling.sample", "mesh.distance.assd", "mesh.intersection.count",
               "evaluation.decode", "evaluation.specificity")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _measure(workload, state, seconds: float) -> tuple[list[dict], float]:
    records: list[dict] = []
    t0 = time.perf_counter()
    r = 0
    while True:
        records += [{**rec, "round": r} for rec in workload.round(state, r)]
        r += 1
        if time.perf_counter() - t0 >= seconds:
            return records, time.perf_counter() - t0


def _end_to_end(workload, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    records, wall = _measure(workload, state, seconds)
    done = [r for r in records if not r["failed"]]
    rounds = sorted({r["round"] for r in done})
    per_round = [statistics.fmean(r["per_op_s"] for r in done if r["round"] == k) for k in rounds]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mib(), "MiB"),
        "op_s": (statistics.median(per_round) if done else None, "s/op"),
        "error": (statistics.fmean(r["error"] for r in done) if done else None, "norm_units"),
    }
    return state, records, {"metrics": metrics, "setup_times": setup_times, "wall_s": wall}


def _per_layer(workload, seed: int) -> tuple[dict, list[dict], dict]:
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    state = workload.setup(seed)
    setup_spans = tracer.n
    inclusive, _ = tracer.totals()
    tracer.uninstall()

    workload.round(state, 0)  # warm-up, so both timed rounds start alike
    t0 = time.perf_counter()
    workload.round(state, 0)
    reference = time.perf_counter() - t0

    tracing.install(tracer)
    first = tracer.n
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    with tracer.span("bench.round") as root:
        records = workload.round(state, 0)
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    tracer.uninstall()

    incl, own = tracer.totals(first)
    counts = tracer.counts
    wall = tracer.duration(root)
    backwards = counts["autodiff.backwards"]
    layer = {
        "flow.forward_s": (own["flow.forward"], "s"),
        "flow.forward_rows": (counts["flow.forward_rows"], "rows"),
        "flow.integrate_s": (own["flow.integrate"], "s"),
        "autodiff.backward_s": (incl["autodiff.backward"], "s"),
        "autodiff.tape_nodes": (counts["autodiff.tape_nodes_total"] / backwards
                                if backwards else 0.0, "nodes"),
        "autodiff.tape_bytes_per_row": (counts["autodiff.tape_bytes_per_row_peak"], "B/row"),
        "autodiff.adam_s": (incl["autodiff.adam"], "s"),
        "latents.rbf_weights_s": (incl["latents.rbf_weights"], "s"),
        "latents.compose_deformers_s": (incl["latents.compose_deformers"], "s"),
        "model.train_stage1_s": (incl["model.train"]
                                 - tracer.nested_in("model.add_local_stage", "model.train", first),
                                 "s"),
        "model.train_stage2_s": (incl["model.add_local_stage"], "s"),
        "model.lbfgs_s": (incl["model.lbfgs"], "s"),
        "model.lbfgs_evals": (counts["model.lbfgs_evals"], "count"),
        "model.fit_refine_s": (incl["model.fit_latent"]
                               - tracer.nested_in("model.lbfgs", "model.fit_latent", first), "s"),
        "model.chamfer_nn_s": (incl["model.chamfer_nn"], "s"),
        "mesh.sampling.sample_s": (incl["mesh.sampling.sample"], "s"),
        "mesh.sampling.points": (counts["mesh.sampling.points"], "count"),
        "mesh.distance.assd_s": (incl["mesh.distance.assd"], "s"),
        "mesh.intersection.count_s": (incl["mesh.intersection.count"], "s"),
        "mesh.intersection.pairs_tested": (counts["mesh.intersection.pairs_tested"], "count"),
        "mesh.intersection.pairs_intersecting": (
            counts["mesh.intersection.pairs_intersecting"], "count"),
        "evaluation.decode_s": (incl["evaluation.decode"], "s"),
        "evaluation.specificity_nn_s": (own["evaluation.specificity"], "s"),
        "checkpoint.load_s": (inclusive["checkpoint.load"], "s"),
        "synthetic.generate_s": (inclusive["synthetic.generate"], "s"),
        "process.minor_faults": (usage1.ru_minflt - usage0.ru_minflt, "count"),
        "process.sys_s": (usage1.ru_stime - usage0.ru_stime, "s"),
        "process.user_s": (usage1.ru_utime - usage0.ru_utime, "s"),
        "trace.round_s": (wall, "s"),
        "trace.overhead_s": (wall - reference, "s"),
        "trace.uncovered_s": (wall - sum(own[name] for name in LAYER_SPANS), "s"),
    }
    extra = {"metrics": layer, "reference_round_s": reference, "spans": tracer.n,
             "setup_spans": setup_spans, "tracer": tracer}
    return state, records, extra


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        common.prepare()
        import workloads
    except (common.SetupError, ImportError) as exc:
        print(f"cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("--seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2

    try:
        if args.trace:
            state, records, extra = _per_layer(workload, args.seed)
        else:
            state, records, extra = _end_to_end(workload, args.seed, args.seconds)
    except common.SetupError as exc:
        print(f"cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    results = [(name, bool(ok), detail) for name, ok, detail in workload.checks(state, records)]
    failed = sum(r.get("count", 1) for r in records if r["failed"])
    attempted = sum(r.get("count", 1) for r in records)
    correct = bool(results) and all(ok for _, ok, _ in results)

    blas = common.blas_threads_in_use()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}; BLAS threads {blas}; "
          f"{attempted} operations, {failed} failed; op_s is per {workload.per_op_unit}")
    for name, ok, detail in results:
        print(f"check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in extra.pop("metrics").items()}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")

    tracer = extra.pop("tracer", None)
    common.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(common.OUT_DIR / f"{stem}.spans.json")
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "blas_threads": blas, "checks": results, "metrics": metrics,
              "ops": [{k: v for k, v in r.items() if isinstance(v, (int, float, str, bool))}
                      for r in records], **extra}
    (common.OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
