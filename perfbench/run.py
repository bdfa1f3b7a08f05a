"""crownkit benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload repn_sobolev --seed 1 --seconds 20 \
        --trace 0

Runs whole rounds of the workload's case mix (perfbench/cases.py) until
at least --seconds have passed, checks every case, and prints as its last
stdout line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  Lines before it start with `#` and
record the machine, the set-up samples, each failed case and the tail
percentile.  The traced run keeps its spans in memory and writes them to
.bench_out/ when it ends.

The program under test is the crownkit source in src/ of the checkout
holding this file; without it the run exits non-zero and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

#: BLAS/OpenMP threads of this process and every child; at most nproc
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("repn_sobolev", "spectral_orbital", "cli_cold")
#: set-up samples per run: at least this many, and until this long passed
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0


def _import_program():
    """Import crownkit from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "crownkit", "__init__.py")):
        sys.exit(f"perfbench: no crownkit sources under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import crownkit
    if not os.path.abspath(crownkit.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: crownkit imported from {crownkit.__file__}")


def machine_record() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version,
            "blas": blas_name, "blas_threads": int(BLAS_THREADS),
            "clients": 1, "platform": platform.platform()}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _setup_samples(workload, ctx) -> list[float]:
    """Wall time of fresh processes that start, import and build the
    workload's warm state, then exit."""
    from perfbench.workloads import SETUP_CODE, run_child
    out = []
    t_start = time.perf_counter()
    while (len(out) < SETUP_MIN_REPEATS
           or time.perf_counter() - t_start < SETUP_MIN_SECONDS):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", SETUP_CODE[workload]],
                  ctx).check_returncode()
        out.append(time.perf_counter() - t0)
    return out


def _describe(case, outcome) -> str:
    if outcome.error:
        why = outcome.error
    else:
        why = ", ".join(f"{c.name} {c.gap:.3g} >= {c.tol:g}"
                        for c in outcome.checks if not c.passed)
    args = json.dumps(case["args"], sort_keys=True)
    return f"# FAIL case {case['id']} {case['kind']} {args[:160]}: {why}"


def run(workload: str, seed: int, seconds: float, traced: bool):
    from perfbench import cases, metrics, speed, trace, workloads

    machine = machine_record()
    print("# machine " + json.dumps(machine, sort_keys=True))
    ctx = workloads.Context(root=ROOT, env=_child_env())
    tr = trace.Tracer() if traced else trace.NullTracer()
    setup_samples = [] if traced else _setup_samples(workload, ctx)
    if setup_samples:
        print("# setup_s samples " + json.dumps(setup_samples))
    workloads.setup(workload, ctx, tr)
    # only cases run in this process are read at the reference speed
    probing = not traced and workload in workloads.IN_PROCESS

    kinds, latencies, probes, outcomes, n_rounds = [], [], [], [], 0
    t_start = time.perf_counter()
    while True:
        for case in cases.round_cases(workload, seed, n_rounds):
            tr.case = case["id"]
            t0 = time.perf_counter()
            with tr.span("case." + case["kind"]):
                outcome = workloads.run_case(workload, case, ctx, tr)
            latencies.append(time.perf_counter() - t0)
            if probing:
                probes.append(speed.probe())
            kinds.append(case["kind"])
            outcomes.append(outcome)
            if outcome.failed and sum(o.failed for o in outcomes) <= 20:
                print(_describe(case, outcome))
        n_rounds += 1
        if time.perf_counter() - t_start >= seconds:
            break
    wall = time.perf_counter() - t_start
    loop_spans = len(tr.spans) if traced else 0
    tr.case = "reference"
    reference = workloads.reference_checks(workload, ctx, tr)
    tr.case = None
    print("# reference checks: " + ", ".join(
        f"{c.name} {c.gap:.3g} (tol {c.tol:g})" for c in reference.checks
        if c.digits) + (f"; {reference.error}" if reference.error else ""))
    n = len(latencies)
    outcomes.append(reference)
    failed = sum(o.failed for o in outcomes)
    correct = not any(o.malformed for o in outcomes)
    tail_pct = metrics.tail_percentile(len(cases.ROUNDS[workload]))
    beyond = sum(1 for x in latencies
                 if x > metrics.percentile(latencies, tail_pct))
    by_kind = {}
    for case_kind, latency in zip(kinds, latencies):
        by_kind.setdefault(case_kind, []).append(latency)
    print("# median latency by kind: " + ", ".join(
        f"{k} {statistics.median(v):.4f} s (n={len(v)})"
        for k, v in by_kind.items()))
    print(f"# {n} cases in {n_rounds} round(s), {wall:.3f} s, and the "
          f"reference checks; failed {failed} (fail_ratio "
          f"{failed / (n + 1):.4f}); case_tail_s is "
          f"p{tail_pct} of {n} cases, {beyond} beyond it")

    if not traced:
        who = (resource.RUSAGE_SELF if workload in workloads.IN_PROCESS
               else resource.RUSAGE_CHILDREN)
        checks = [(c.gap, c.tol) for c in reference.checks if c.digits]
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        if probing:
            measured = metrics.end_to_end(latencies, n + 1, failed, checks,
                                          setup_samples, rss_mb, tail_pct)
            print(f"# speed probe median {statistics.median(probes):.6f} s "
                  f"(reference {speed.REFERENCE_S} s); cases as measured: "
                  + ", ".join(f"{k} {measured[k]:.6g}" for k in
                              ("cases_per_s", "case_p50_s", "case_tail_s")))
            latencies = speed.at_reference(latencies, probes)
        values = metrics.end_to_end(latencies, n + 1, failed, checks,
                                    setup_samples, rss_mb, tail_pct)
        return correct, n + 1, failed, metrics.emit(values, "end_to_end")

    overhead = 100.0 * trace.span_cost_s() * loop_spans / wall
    print(f"# tracing: {loop_spans} spans in the case loop, overhead "
          f"{overhead:.4f}% of its wall time")
    extras = workloads.run_probes(workload, seed, ctx, tr)
    extras["trace.overhead_pct"] = overhead
    names = [m["name"] for m in metrics.declared()["per_layer"]]
    values = metrics.per_layer(tr.self_times(), extras, names)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-{seed}.json")
    tr.dump(path, {"workload": workload, "seed": seed, "machine": machine})
    print(f"# spans written to {os.path.relpath(path, ROOT)}")
    return correct, n + 1, failed, metrics.emit(values, "per_layer")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _import_program()
    correct, attempted, failed, values = run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
