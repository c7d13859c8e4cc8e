"""lexbeam benchmark: one seeded workload, timed, checked and reported.

    python3 bench/run.py --workload caption --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/``
of the same checkout. Inputs are generated from ``--seed`` into a
scratch directory under ``bench/`` (not timed), loaded through the
library's loaders several times (``setup_s`` is the median), then
whole passes over them run until ``--seconds`` have elapsed. Every
operation's output is checked after the timed passes. The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics of BENCHMARK.json with
``--trace 0`` and its per-layer metrics, from spans, with ``--trace 1``.
Run facts (versions, nproc, git SHA, passes, failures) go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

from spans import CALLS, END, INNER, NAME, PARENT, START, NullTracer, Tracer

# One process, one thread: keep numeric libraries from starting pools.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPS = 60


def _import_program():
    """Import lexbeam from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import lexbeam

    if not os.path.abspath(lexbeam.__file__).startswith(src + os.sep):
        raise ImportError(f"lexbeam imported from {lexbeam.__file__}, not from {src}")
    return lexbeam


def _git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _median_per_pass(passes: list[dict], name: str) -> float:
    return statistics.median(p.get(name, 0) for p in passes)


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-pass layer times from spans (median over passes) and counts.

    Layer spans are the direct children of a ``bench.pass`` span; what
    of the pass they do not cover is the benchmark's own bookkeeping.
    """
    pass_spans = [i for i, s in enumerate(spans) if s[NAME] == "bench.pass"]
    per_pass: list[dict] = []
    for p in pass_spans:
        acc: dict[str, float] = {}
        covered = 0.0
        for s in spans:
            if s[PARENT] != p:
                continue
            dur = s[END] - s[START]
            covered += dur
            acc[s[NAME] + "_s"] = acc.get(s[NAME] + "_s", 0.0) + dur
            acc["scorers.calls"] = acc.get("scorers.calls", 0) + s[CALLS]
            acc["scorers.s"] = acc.get("scorers.s", 0.0) + s[INNER]
        acc["beam.search_s"] = acc.get("beam.decode_s", 0.0) - acc["scorers.s"]
        acc["fsm.compile_s"] = acc.get("fsm.compile_failure_s", 0.0) + acc.get("fsm.compile_faithful_s", 0.0)
        acc["bench.pass_s"] = spans[p][END] - spans[p][START]
        acc["bench.other_s"] = acc["bench.pass_s"] - covered
        per_pass.append(acc)
    loads = [s[END] - s[START] for s in spans if s[NAME] == "scorers.load"]
    out = {
        "scorers.load_s": statistics.median(loads) if loads else 0.0,
        "scorers.calls": _median_per_pass(per_pass, "scorers.calls"),
    }
    for name in ("scorers.s", "beam.decode_s", "beam.search_s", "fsm.compile_s",
                 "fsm.compile_failure_s", "fsm.compile_faithful_s", "filtering.filter_s",
                 "sampling.exclude_s", "sampling.sample_s", "sampling.tokenize_s",
                 "sampling.ngram_s", "bench.pass_s", "bench.other_s"):
        out[name] = _median_per_pass(per_pass, name)
    for name in ("beam.finalists", "fsm.states", "filtering.detections_in",
                 "filtering.groups_out", "sampling.sample_steps", "sampling.candidates_scored"):
        out[name] = counts.get(name, 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
            spec = json.load(fp)
        lexbeam = _import_program()
    except (OSError, ImportError) as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 2
    import numpy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer()

    workdir = os.path.join(HERE, ".work", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = wl.generate(args.seed, workdir)
        # The generator's expectations are the benchmark's, not the
        # program's: keep the collector from walking them in timed code.
        gc.collect()
        gc.freeze()

        setup_times, st = [], None
        t_first = perf_counter()
        while len(setup_times) < SETUP_MIN_REPS or (
            perf_counter() - t_first < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPS
        ):
            st = None  # drop the previous copy before loading the next one
            gc.collect()
            t0 = perf_counter()
            st = wl.setup(inputs, tracer)
            setup_times.append(perf_counter() - t0)

        # Whole passes while the next one, as long as the last, still
        # fits in --seconds; always at least one.
        passes = []
        t_start = perf_counter()
        while not passes or perf_counter() - t_start + passes[-1][0] <= args.seconds:
            with tracer.span("bench.pass"):
                t0 = perf_counter()
                ops = wl.run_pass(st, tracer)
                passes.append((perf_counter() - t0, ops))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failures, wrong = 0, [], 0
    for _, ops in passes:
        for op in ops:
            attempted += 1
            if isinstance(op.out, Exception):
                failures.append(f"{op.kind} {op.rid}: raised " + "".join(
                    traceback.format_exception_only(type(op.out), op.out)).strip())
                continue
            err = wl.check(inputs, st, op)
            if err:
                wrong += 1
                failures.append(f"{op.kind} {op.rid}: {err}")
    clean = [ops for _, ops in passes
             if not any(isinstance(op.out, Exception) for op in ops)]

    if args.trace:
        values = layer_metrics(tracer.spans, wl.counts(clean[0]) if clean else {})
        wanted = spec["per_layer"]
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", f"spans-{wl.name}-{args.seed}.jsonl"))
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(t for t, _ in passes),
            "loss_nats": wl.loss(clean[0]) if clean else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    if {m["name"] for m in wanted} != set(values):
        raise SystemExit(f"bench: metrics {sorted(values)} do not match BENCHMARK.json")

    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "pass_s": [round(t, 4) for t, _ in passes], "setup_s": [round(t, 4) for t in setup_times],
        "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "lexbeam": lexbeam.__version__, "git_sha": _git_sha(), "failures": failures[:5],
    }
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
