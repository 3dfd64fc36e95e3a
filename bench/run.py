"""End-to-end benchmark of the ``lagp`` CLI, with an optional traced run.

    python3 bench/run.py --workload toy1d-regression --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/``. Each
run sets up its workload several times (the median is ``setup_s``), then
repeats whole rounds of CLI commands for ``--seconds`` and reports each
metric as the median over rounds. The outputs of the last round are then
checked against computations made apart from the program. The last line
of standard output is one JSON object: correct, attempted, failed, and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
See bench/README.md.
"""

import os

BLAS_THREADS = 1  # one thread per run: steadier timings on a shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, layer_stats, self_time_total  # noqa: E402
from verify import Checks, verify_outputs  # noqa: E402
from workloads import SETUP_REPEATS, WORKLOADS, Cli  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "train_map_s": "s",
    "fit_valla_s": "s",
    "fit_exact_s": "s",
    "fit_ella_s": "s",
    "fit_diag_s": "s",
    "fit_last_layer_s": "s",
    "predict_valla_pts_per_s": "points/s",
    "predict_exact_pts_per_s": "points/s",
    "predict_ella_pts_per_s": "points/s",
    "predict_diag_pts_per_s": "points/s",
    "predict_last_layer_pts_per_s": "points/s",
    "peak_rss_mb": "MB",
    "valla_test_crps": "target-units",
    "valla_test_brier": "1",
}

PER_LAYER = {
    "kernel.kernel_input_gradient_multi.calls": "count",
    "kernel.kernel_input_gradient_multi.s": "s",
    "kernel.kernel_input_gradient_multi.entries": "count",
    "ella.ella_fit.calls": "count",
    "ella.ella_fit.s": "s",
    "ella.ella_fit.self_s": "s",
    "linalg.sym_eig.calls": "count",
    "linalg.sym_eig.s": "s",
    "lla.lambda_of.calls": "count",
    "kernel.kernel_block_fast.calls_per_valla_step": "calls/step",
    "linalg.cholesky.calls": "count",
    "linalg.cholesky.s": "s",
    "linalg.cholesky.jittered": "count",
    "valla.kl_dual.calls": "count",
    "valla.objective_gradient.calls": "count",
    "valla.objective_gradient.s": "s",
    "valla.objective_gradient.self_s": "s",
    "lla.grid_search_hyperparameters.calls": "count",
    "lla.grid_search_hyperparameters.s": "s",
    "kernel.kernel_block_fast.calls": "count",
    "kernel.kernel_block_fast.s": "s",
    "kernel.kernel_block_fast.entries": "count",
    "kernel.kernel_block_fast.peak_aux_floats": "floats",
    "kernel.kernel_diag_blocks.calls": "count",
    "kernel.kernel_diag_blocks.s": "s",
    "linalg.solve_psd.calls": "count",
    "linalg.solve_psd.s": "s",
    "linalg.solve_psd.rhs_cols": "count",
    "kernel.jacobian.calls": "count",
    "kernel.jacobian.s": "s",
    "lla.fit_exact.s": "s",
    "lla.fit_diag.s": "s",
    "lla.fit_last_layer.s": "s",
    "valla.fit_valla.s": "s",
    "lla.predict_exact_batch.calls": "count",
    "lla.predict_exact_batch.self_s": "s",
    "lla.predict_diag_batch.self_s": "s",
    "lla.predict_last_layer_batch.self_s": "s",
    "ella.ella_predict_batch.self_s": "s",
    "valla.valla_predict_batch.self_s": "s",
    "metrics.predictive_class_probs.calls": "count",
    "metrics.predictive_class_probs.s": "s",
    "nn.train_map.calls": "count",
    "nn.train_map.s": "s",
    "nn.forward.calls": "count",
    "nn.forward.s": "s",
    "serialize.save_state.calls": "count",
    "serialize.save_state.s": "s",
    "serialize.save_state.bytes": "bytes",
    "serialize.load_state.calls": "count",
    "serialize.load_state.s": "s",
    "data.load_idx_images.calls": "count",
    "data.load_idx_images.s": "s",
    "trace.round_s": "s",
    "trace.traced_round_s": "s",
    "trace.overhead_s": "s",
    "trace.self_s_sum": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import ``lagp`` from this checkout's ``src/``, or exit 2 without a result."""
    if not (SRC / "lagp" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'lagp'}; run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import lagp.cli

    if Path(lagp.cli.__file__).resolve().parent != (SRC / "lagp").resolve():
        print(f"error: lagp imported from {lagp.cli.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return lagp.cli


def run_record(args, rounds, attempted, failed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def _digest(paths):
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[str(path)] = hashlib.file_digest(fh, "sha256").hexdigest()
    return out


def _differing(digests):
    return [f"round {i + 1} wrote other files than round 1" for i, d in enumerate(digests) if d != digests[0]]


def set_up(wl, cli, samples, work):
    """Set the workload up SETUP_REPEATS times from scratch; setup_s samples."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        wl.setup(cli, samples)
        times.append(time.perf_counter() - start)
    samples["setup_s"] = times


def run_rounds(wl, cli, samples, checks, seconds, tracer):
    """Whole rounds until ``seconds`` have passed; returns (rounds, per-layer values).

    The first round fills allocator and library caches: its outputs are
    checked like every other round's, its timings are dropped. With a
    tracer, untraced and traced rounds alternate.
    """
    wl.round(cli, {})
    digests = [_digest(wl.round_outputs())]
    untraced, traced, layers = [], [], []
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds or not untraced:
        start = time.perf_counter()
        wl.round(cli, samples)
        untraced.append(time.perf_counter() - start)
        digests.append(_digest(wl.round_outputs()))
        if tracer is None:
            continue
        cli.tracer = tracer
        tracer.install()
        try:
            with tracer.span("bench.round") as index:
                wl.round(cli, {})
        finally:
            tracer.uninstall()
            cli.tracer = None
        digests.append(_digest(wl.round_outputs()))
        start, end = tracer.spans[index][1:3]
        stats = layer_stats(tracer.spans, index)
        traced.append(end - start)
        layers.append(stats)
        wall = end - start
        checks.add("layer self times within the round",
                   lambda t: [] if t <= wall else [f"layer self times sum to {t} s in a {wall} s round"],
                   self_time_total(stats), 1.01 * wall, "self times above the wall time")
    checks.add("rounds write identical files", _differing, digests, digests + [{}], "a round with other files")
    if tracer is None:
        return len(digests), None
    values = {k: statistics.median(r.get(k, 0.0) for r in layers) for k in PER_LAYER}
    values["trace.round_s"] = statistics.median(untraced)
    values["trace.traced_round_s"] = statistics.median(traced)
    values["trace.overhead_s"] = values["trace.traced_round_s"] - values["trace.round_s"]
    values["trace.self_s_sum"] = statistics.median(self_time_total(r) for r in layers)
    return len(digests), values


def main(argv=None):
    args = parse_args(argv)
    cli_mod = import_program()

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = run_dir / "work"
    wl = WORKLOADS[args.workload](work, args.seed)
    cli = Cli(cli_mod.main)
    checks = Checks()
    tracer = Tracer() if args.trace else None
    samples = {}
    try:
        set_up(wl, cli, samples, work)
        rounds, layer_values = run_rounds(wl, cli, samples, checks, args.seconds, tracer)
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        for key, value in verify_outputs(wl, checks).items():
            samples[key] = [value]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        names = END_TO_END
        values = {k: statistics.median(samples[k]) for k in names if samples.get(k)}
    else:
        names = PER_LAYER
        values = layer_values
        tracer.write(run_dir / "spans.jsonl")
    missing = [k for k in names if k not in values]
    if missing:
        print(f"error: no measurement of {', '.join(missing)}", file=sys.stderr)
        return 1

    failed_checks = sum(1 for _, failures in checks.results if failures)
    record = run_record(args, rounds, cli.attempted + len(checks.results), cli.failed + failed_checks)
    print(json.dumps(record), file=sys.stderr)
    record["samples"] = samples
    (run_dir / "run_record.json").write_text(json.dumps(record, indent=2) + "\n")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not checks.failures,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": names[k]} for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
