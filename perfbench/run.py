"""Map-and-verify benchmark for revamp.

    python3 perfbench/run.py --workload area_map --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout and driven through its public functions only; nothing under
``src/`` is changed.  One process, no workers.

Set-up (import, corpus generation and, for ``verify_load``, building the
containers) is repeated and its median reported as ``setup_s``.  The timed
loop then runs passes over the workload's jobs until ``--seconds`` is spent
(at least ``MIN_PASSES``).  A job is one circuit x flow x geometry: it maps,
writes the ``.rvmp`` container and checks the program against its source
network with ``verifier.check_equivalence``.

Every job is also checked, outside the timed region: the container must
read back and write to the same bytes, the simulated cycle count must be
``i_total + 2``, and each pass must emit the same bytes (sha256) as the
first.  Per-job rows go to ``perfbench/out/<workload>-seed<seed>.json``; a
later run with the same workload and seed must reproduce them exactly.  A
failed job counts against ``verified_frac`` and makes the exit code 1.

The four time metrics are scaled by ``HostSpeed`` to a reference host speed;
the unscaled values are printed above the result.

``--trace 1`` alternates untraced and traced passes instead, prints the
per-layer metrics, runs the known-defect probe once and writes the spans to
``perfbench/out/<workload>-seed<seed>-spans.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

MODULES = ("circuits", "netlist", "lutmap", "esop", "areamap", "delaymap",
           "isa", "simulator", "verifier")
SETUP_REPEATS = 3
MIN_PASSES = 4
MIN_TRACED_PASSES = 2
TAIL_BEYOND = 10  # job samples that must lie beyond the tail percentile
# Median seconds of reference_loop() on the 2-vCPU host the bounds were set
# on.  That host's speed drifts by up to 1.5x over minutes, for pure-Python
# loops and for the package alike, so end-to-end times are scaled by
# REFERENCE_S / (this run's median reference_loop() time).
REFERENCE_S = 0.0046
TIME_METRICS = ("setup_s", "wall_s", "job_p50_ms", "job_tail_ms")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "i_total": "instr",
    "cycles": "cycles",
    "words_used": "words",
    "devices_used": "devices",
    "code_bytes": "B",
    "verified_frac": "ratio",
}

# spans whose inclusive seconds are reported as "<name>.s"
TIMED_SPANS = (
    "netlist.aig_to_mig", "netlist.normalize_mig", "netlist.evaluate_masks",
    "lutmap.cover_klut", "lutmap.min_dev", "esop.extract_esop",
    "areamap.schedule_luts", "areamap.map_minimal", "delaymap.assign_roles",
    "delaymap.form_blocks", "delaymap.pack_blocks",
    "delaymap.gen_program_delay", "isa.write_program", "isa.read_program",
    "simulator.run_vectors",
)
PER_LAYER = {name + ".s": "s" for name in TIMED_SPANS}
PER_LAYER.update({
    "areamap.map_lut_graph.self_s": "s",
    "verifier.check_equivalence.self_s": "s",
    "netlist.normalize_mig.nodes_out": "count",
    "lutmap.cover_klut.luts": "count",
    "esop.extract_esop.calls": "count",
    "esop.cubes": "count",
    "esop.literals": "count",
    "areamap.schedule_luts.recycles": "count",
    "delaymap.form_blocks.blocks": "count",
    "delaymap.pack_blocks.w_util": "%",
    "isa.read_program.instr_per_s": "1/s",
    "simulator.run_vectors.vec_instr_per_s": "1/s",
    "verifier.check_equivalence.vectors": "count",
    "verifier.check_equivalence.mismatches": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "probe.untyped_errors": "count",
    "probe.parity2000.untyped_errors": "count",
    "probe.and_chain3000.untyped_errors": "count",
    "probe.mutated_rvmp.untyped_errors": "count",
    "probe.mutated_rvmp.unbounded_header": "count",
    "probe.normalize_parity16.nodes_out": "count",
})
ROW_COUNTS = ("i_total", "cycles", "words_used", "devices_used", "code_bytes")


def reference_loop() -> int:
    """Fixed pure-Python work that does not touch the package."""
    table = {}
    acc = 0
    for i in range(10000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + (i ^ (i >> 3))
        acc = (acc + key) & 0xFFFFFFFF
    return acc


class HostSpeed:
    """Samples reference_loop() through a run to gauge the host's speed."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self):
        for _ in range(3):
            start = time.perf_counter()
            reference_loop()
            self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


def load_package():
    """Import (or import afresh) the package from this checkout's ``src/``."""
    for name in [m for m in sys.modules
                 if m == "revamp" or m.startswith("revamp.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    lib = types.SimpleNamespace(**{m: importlib.import_module("revamp." + m)
                                   for m in MODULES})
    found = os.path.dirname(os.path.abspath(lib.isa.__file__))
    if found != os.path.join(SRC, "revamp"):
        raise ImportError("revamp imported from %s, not from %s"
                          % (found, SRC))
    return lib


def tail_rank(n_jobs: int) -> int:
    """1-based rank, fastest first, of the job reported as ``job_tail_ms``.

    The highest rank whose slower jobs still give at least TAIL_BEYOND
    samples at MIN_PASSES passes.  It depends only on the corpus, so every
    run of a workload reports the same statistic.
    """
    return max(1, n_jobs - math.ceil(TAIL_BEYOND / MIN_PASSES))


class Bench:
    """Runs passes over a workload's jobs and checks every output."""

    def __init__(self, lib, jobs):
        self.lib = lib
        self.jobs = jobs
        self.rows = [None] * len(jobs)  # first successful run of each job
        self.samples = [[] for _ in jobs]  # untraced host seconds per job
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer=None) -> float:
        wall = 0.0
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = i
                root = tracer.open("job")
            start = time.perf_counter()
            try:
                out, err = job.run(), None
            except Exception as exc:  # a failed job is counted, not fatal
                out, err = None, exc
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.close(root)
            else:
                self.samples[i].append(seconds)
            wall += seconds
            self.account(i, out, err)
        return wall

    def account(self, i: int, out, err):
        job = self.jobs[i]
        self.attempted += 1
        if err is not None:
            problems = ["%s: %s" % (type(err).__name__, err)]
        else:
            program, data, result = out
            digest = hashlib.sha256(data).hexdigest()
            if self.rows[i] is None:
                self.rows[i] = self.describe(job, program, data, result,
                                             digest)
            row = self.rows[i]
            problems = list(row["problems"])
            if (digest, len(program.instructions)) != (row["sha256"],
                                                       row["i_total"]):
                problems.append("output differs from the first pass")
            if not result.ok:
                problems.append("not equivalent: %s" % result.counterexample)
        if problems:
            self.failed += 1
            self.problems.extend("%s: %s" % (job.name, p) for p in problems)

    def describe(self, job, program, data, result, digest) -> dict:
        """Exact counts of one job's program, with the untimed checks."""
        lib = self.lib
        problems = []
        back = lib.isa.read_program(data)
        if lib.isa.write_program(back) != data:
            problems.append("container does not round-trip")
        state, _ = lib.simulator.run_vectors(back, [0] * back.num_pis, 1)
        i_total = len(program.instructions)
        if state.cycles != i_total + 2 or len(back.instructions) != i_total:
            problems.append("cycles %d for %d instructions"
                            % (state.cycles, i_total))
        devices = {(ins.w, j) for ins in program.instructions
                   if isinstance(ins, lib.isa.ApplyInstr)
                   for j, pair in enumerate(ins.pairs) if pair.valid}
        return {
            "job": job.name,
            "flow": job.flow,
            "geometry": "%dx%d" % (program.config.s_d, program.config.w_d),
            "i_total": i_total,
            "cycles": state.cycles,
            "words_used": len({w for w, _ in devices}),
            "devices_used": len(devices),
            "code_bytes": len(data),
            "check": "%s/%d" % (result.mode, result.vectors),
            "sha256": digest,
            "problems": problems,
        }

    def check_reproduced(self, path: str):
        """Compare this run's rows with an earlier run of the same seed."""
        if any(row is None for row in self.rows):
            return
        if os.path.exists(path):
            with open(path) as f:
                earlier = json.load(f)
            if earlier != self.rows:
                self.failed += 1
                self.problems.append("rows differ from the earlier run in %s"
                                     % os.path.relpath(path))
            return
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.rows, f, indent=1)
        os.replace(tmp, path)


def run_untraced(bench: Bench, seconds: float, host: HostSpeed) -> dict:
    walls = []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or (time.perf_counter() - start
                                      + statistics.median(walls) / 2
                                      <= seconds):
        gc.collect()
        host.sample()
        walls.append(bench.run_pass())
    host.sample()
    job_medians = sorted(statistics.median(s) for s in bench.samples)
    rank = tail_rank(len(job_medians))
    beyond = sum(len(s) for s in bench.samples) - rank * len(walls)
    rows = [r for r in bench.rows if r is not None]
    print("pass walls %s s; job_tail_ms is job %d of %d (p%d of the job "
          "medians, %d job samples beyond it)"
          % (" ".join("%.3f" % w for w in walls), rank, len(job_medians),
             100 * (rank - 0.5) // len(job_medians), beyond))
    metrics = {
        "wall_s": statistics.median(walls),
        "job_p50_ms": 1e3 * statistics.median(job_medians),
        "job_tail_ms": 1e3 * job_medians[rank - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "verified_frac": (bench.attempted - bench.failed) / bench.attempted,
    }
    for key in ROW_COUNTS:
        metrics[key] = sum(r[key] for r in rows)
    return metrics


def run_traced(bench: Bench, seconds: float, seed: int, spans_path: str
               ) -> dict:
    from probe import run_probe
    from tracing import Tracer

    untraced, traced, layers, spans = [], [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or (
            time.perf_counter() - start + (untraced[-1] + traced[-1]) / 2
            <= seconds):
        gc.collect()
        untraced.append(bench.run_pass())
        gc.collect()
        tracer = Tracer()
        tracer.install(bench.lib)
        try:
            traced.append(bench.run_pass(tracer))
        finally:
            tracer.uninstall()
        layers.append(layer_metrics(tracer))
        spans.extend([len(traced)] + s for s in tracer.spans)
    metrics = {name: statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
    metrics.update(run_probe(bench.lib, seed))
    with open(spans_path, "w") as f:
        json.dump({"fields": ["pass", "name", "start", "end", "parent",
                              "job"],
                   "jobs": [job.name for job in bench.jobs],
                   "spans": spans}, f)
    print("untraced passes %d, traced passes %d, %d spans"
          % (len(untraced), len(traced), len(spans)))
    return metrics


def layer_metrics(tracer) -> dict:
    inclusive, self_time = tracer.layer_times()
    c = tracer.counters
    m = {name + ".s": inclusive.get(name, 0.0) for name in TIMED_SPANS}
    m["areamap.map_lut_graph.self_s"] = self_time.get(
        "areamap.map_lut_graph", 0.0)
    m["verifier.check_equivalence.self_s"] = self_time.get(
        "verifier.check_equivalence", 0.0)
    for name in ("netlist.normalize_mig.nodes_out", "lutmap.cover_klut.luts",
                 "esop.extract_esop.calls", "esop.cubes", "esop.literals",
                 "areamap.schedule_luts.recycles",
                 "delaymap.form_blocks.blocks",
                 "verifier.check_equivalence.vectors",
                 "verifier.check_equivalence.mismatches"):
        m[name] = c[name]
    m["delaymap.pack_blocks.w_util"] = (
        100.0 * c["pack.occupied"] / c["pack.capacity"]
        if c["pack.capacity"] else 0.0)
    read_s = inclusive.get("isa.read_program", 0.0)
    m["isa.read_program.instr_per_s"] = (
        c["read.instructions"] / read_s if read_s else 0.0)
    sim_s = inclusive.get("simulator.run_vectors", 0.0)
    m["simulator.run_vectors.vec_instr_per_s"] = (
        c["sim.vector_instructions"] / sim_s if sim_s else 0.0)
    m["trace.spans"] = len(tracer.spans)
    return m


def print_rows(bench: Bench):
    print("%-18s %-7s %-7s %8s %8s %6s %8s %9s %-16s %-16s %9s"
          % ("job", "flow", "geom", "i_total", "cycles", "words", "devices",
             "bytes", "check", "sha256", "median_ms"))
    for r, samples in zip(bench.rows, bench.samples):
        if r is not None:
            ms = 1e3 * statistics.median(samples) if samples else math.nan
            print("%-18s %-7s %-7s %8d %8d %6d %8d %9d %-16s %-16s %9.2f"
                  % (r["job"], r["flow"], r["geometry"], r["i_total"],
                     r["cycles"], r["words_used"], r["devices_used"],
                     r["code_bytes"], r["check"], r["sha256"][:16], ms))


def main(argv=None) -> int:
    from corpus import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build = WORKLOADS[args.workload]
    host = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        host.sample()
        start = time.perf_counter()
        try:
            lib = load_package()
        except ImportError as exc:
            print("cannot import revamp from %s: %s" % (SRC, exc),
                  file=sys.stderr)
            return 2
        jobs = build(lib, args.seed)
        setups.append(time.perf_counter() - start)

    bench = Bench(lib, jobs)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d" % (args.workload, args.seed))
    if args.trace:
        metrics = run_traced(bench, args.seconds, args.seed,
                             stem + "-spans.json")
        units = PER_LAYER
    else:
        metrics = run_untraced(bench, args.seconds, host)
        metrics["setup_s"] = statistics.median(setups)
        scale = host.scale()
        print("host speed scale %.4f (reference_loop median %.3f ms); "
              "unscaled %s" % (scale, 1e3 * REFERENCE_S / scale,
                               ", ".join("%s %.6g" % (k, metrics[k])
                                         for k in TIME_METRICS)))
        for key in TIME_METRICS:
            metrics[key] *= scale
        units = END_TO_END
    bench.check_reproduced(stem + ".json")

    print_rows(bench)
    rows = [r for r in bench.rows if r is not None]
    print("corpus sha256 %s" % hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest())
    for problem in bench.problems[:20]:
        print("FAILED %s" % problem)
    for name, unit in units.items():
        print("%-40s %16.6f %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
