"""Command-line entry point binding the mapping flows together.

Subcommands: cover, map-area, map-delay, simulate, verify, disassemble,
bench.  Networks load by extension: ``.aag`` (ASCII AIGER) or ``.mig``
(textual majority graph).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import os
import sys
import tempfile
import time

from . import circuits
from .areamap import InfeasibleMapping, map_area, map_minimal
from .delaymap import map_delay
from .isa import format_asm, read_program, write_program
from .lutmap import cover_klut, feasible, lut_graph_to_dict, min_dev
from .netlist import (aig_to_mig, normalize_mig, parse_aiger, parse_mig,
                      serialize_aig, serialize_mig)
from .reports import BENCH_COLUMNS, BenchRow
from .simulator import grid_dump, run
from .verifier import check_equivalence

CORPUS_ENV = "REVAMP_CORPUS"


def load_network(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".mig"):
        return parse_mig(text)
    return parse_aiger(text)


def load_network_as_mig(path: str):
    net = load_network(path)
    return net if net.kind == "mig" else aig_to_mig(net)


def _write(path, data):
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)


def cmd_cover(args):
    net = load_network(args.netlist)
    if args.rows is not None and not args.cols:
        print("--rows needs --cols for the feasibility check",
              file=sys.stderr)
        return 2
    ks = [args.k]
    if args.auto_k:
        ks = list(range(args.k, 1, -1))
    last_err = None
    for k in ks:
        graph = cover_klut(net, k)
        if args.rows is None or feasible(graph, args.rows, args.cols):
            doc = json.dumps(lut_graph_to_dict(graph), indent=2)
            if args.output:
                _write(args.output, doc)
            else:
                print(doc)
            return 0
        last_err = "k=%d needs %d devices" % (k, min_dev(graph))
    print("no feasible cover: %s" % last_err, file=sys.stderr)
    return 1


def _emit_mapping(args, program, report):
    _write(args.output, write_program(program))
    if args.asm:
        _write(args.asm, program.to_asm())
    if args.report:
        _write(args.report, report.to_json())
    print("%s: %d instructions, %d cycles"
          % (args.output, report.i_total, report.cycles))


def cmd_map_area(args):
    net = load_network(args.netlist)
    if net.kind == "mig":
        print("the area flow maps AIGs; convert first", file=sys.stderr)
        return 2
    try:
        program, report = map_area(net, args.k, args.rows, args.cols)
    except InfeasibleMapping as exc:
        print("infeasible: %s" % exc, file=sys.stderr)
        return 1
    _emit_mapping(args, program, report)
    return 0


def cmd_map_delay(args):
    mig = load_network_as_mig(args.netlist)
    program, report = map_delay(mig, args.cols)
    _emit_mapping(args, program, report)
    return 0


def cmd_map_minimal(args):
    mig = normalize_mig(load_network_as_mig(args.netlist))
    program, report = map_minimal(mig)
    _emit_mapping(args, program, report)
    return 0


def _read_vectors(path, num_pis):
    vectors = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            s = raw.split("#", 1)[0].strip()
            if not s:
                continue
            if len(s) != num_pis or set(s) - {"0", "1"}:
                raise ValueError("vector %r does not give %d bits"
                                 % (s, num_pis))
            vectors.append([int(c) for c in s])
    return vectors


def cmd_simulate(args):
    with open(args.program, "rb") as fh:
        program = read_program(fh.read())
    vectors = ([[0] * program.num_pis] if args.inputs is None
               else _read_vectors(args.inputs, program.num_pis))
    out = []
    for vec in vectors:
        state, trace = run(program, vec,
                           record_trace=args.trace is not None
                           or args.step_grid,
                           record_state=args.step_grid)
        entry = {
            "inputs": vec,
            "cycles": state.cycles,
            "results": {name: state.dcm[w][b]
                        for name, (w, b) in program.result_locations.items()},
        }
        out.append(entry)
        if args.step_grid:
            print(trace.to_text(dump_state=True), end="")
        if args.grid:
            print(grid_dump(state))
        if args.trace:
            _write(args.trace, trace.to_json())
    print(json.dumps(out, indent=2))
    return 0


def cmd_verify(args):
    net = load_network(args.netlist)
    with open(args.program, "rb") as fh:
        program = read_program(fh.read())
    mode = "random" if args.random else "exhaustive"
    try:
        result = check_equivalence(net, program, mode=mode, seed=args.seed,
                                   n=args.random or 10000)
    except ValueError as exc:
        print("interface mismatch: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps({
        "ok": result.ok,
        "mode": result.mode,
        "vectors": result.vectors,
        "counterexample": result.counterexample,
    }, indent=2))
    return 0 if result.ok else 1


def cmd_disassemble(args):
    with open(args.program, "rb") as fh:
        program = read_program(fh.read())
    for instr in program.instructions:
        print(format_asm(instr))
    return 0


# -- bench ------------------------------------------------------------------------

def _bench_job(spec):
    name, path, flow, k, s_d, w_d, seed = spec
    t0 = time.monotonic()
    net = load_network(path)
    try:
        if flow == "area":
            if net.kind == "mig":
                return BenchRow(name, flow, k, s_d, w_d, None, False,
                                "skipped: area flow maps AIGs",
                                time.monotonic() - t0)
            program, report = map_area(net, k, s_d, w_d)
            ref = net
        elif flow == "delay":
            mig = net if net.kind == "mig" else aig_to_mig(net)
            program, report = map_delay(mig, w_d)
            ref = mig
        else:
            mig = normalize_mig(net if net.kind == "mig" else aig_to_mig(net))
            if len(mig.outputs) != 1:
                return BenchRow(name, flow, k, s_d, w_d, None, False,
                                "skipped: multi-output", time.monotonic() - t0)
            program, report = map_minimal(mig)
            ref = mig
    except InfeasibleMapping as exc:
        return BenchRow(name, flow, k, s_d, w_d, None, False,
                        "infeasible: %s" % exc, time.monotonic() - t0)
    if ref.num_pis <= 12:
        check = check_equivalence(ref, program, mode="exhaustive")
    else:
        check = check_equivalence(ref, program, mode="random", seed=seed,
                                  n=4096)
    report.benchmark = name
    status = "ok" if check.ok else "MISMATCH %r" % (check.counterexample,)
    return BenchRow(name, flow, k, s_d, w_d, report, check.ok, status,
                    time.monotonic() - t0)


def _run_bench_jobs(files, args) -> list[BenchRow]:
    jobs = []
    for name, path in files:
        for flow in args.flow:
            if flow == "area":
                for k in args.k:
                    for w_d in args.cols:
                        # a fixed device budget turns into rows per width
                        rows = ([args.budget // w_d] if args.budget
                                else args.rows)
                        for s_d in rows:
                            jobs.append((name, path, "area", k, s_d, w_d,
                                         args.seed))
            else:
                for w_d in args.cols:
                    jobs.append((name, path, flow, None, 0, w_d, args.seed))

    results = []
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(args.jobs) as pool:
            futures = {pool.submit(_bench_job, j): j for j in jobs}
            for fut, job in futures.items():
                try:
                    results.append(fut.result(timeout=args.limit_seconds))
                except concurrent.futures.TimeoutError:
                    results.append(BenchRow(job[0], job[2], job[3], job[4],
                                            job[5], None, False, "timeout",
                                            args.limit_seconds))
    else:
        for job in jobs:
            results.append(_bench_job(job))
    return results


def cmd_bench(args):
    corpus = args.corpus or os.environ.get(CORPUS_ENV)
    files = []
    if corpus:
        for fn in sorted(os.listdir(corpus)):
            if fn.endswith((".aag", ".mig")):
                files.append((os.path.splitext(fn)[0],
                              os.path.join(corpus, fn)))
    if not files and args.builtin:
        # the jobs read the corpus files, so the directory outlives them
        with tempfile.TemporaryDirectory(prefix="revamp-corpus-") as tmp:
            for name, net in circuits.default_corpus():
                path = os.path.join(tmp, name + (".mig" if net.kind == "mig"
                                                 else ".aag"))
                _write(path, serialize_mig(net) if net.kind == "mig"
                       else serialize_aig(net))
                files.append((name, path))
            results = _run_bench_jobs(files, args)
    else:
        results = _run_bench_jobs(files, args)

    results.sort(key=lambda r: (r.benchmark, r.flow, r.k or 0, r.s_d, r.w_d))
    dicts = [r.to_dict() for r in results]
    if args.format == "json":
        doc = json.dumps(dicts, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(dicts)
        doc = buf.getvalue()
    if args.output:
        _write(args.output, doc)
    else:
        print(doc, end="")
    return 0 if all(r.verified or r.status.startswith(("infeasible",
                                                       "skipped"))
                    for r in results) else 1


def build_parser():
    p = argparse.ArgumentParser(prog="revamp",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cover", help="partition an AIG into k-input LUTs")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--auto-k", action="store_true",
                   help="sweep k downward until the cover fits the crossbar")
    c.add_argument("--rows", type=int)
    c.add_argument("--cols", type=int, default=0)
    c.add_argument("netlist")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_cover)

    for flow, fn in (("map-area", cmd_map_area), ("map-delay", cmd_map_delay),
                     ("map-minimal", cmd_map_minimal)):
        c = sub.add_parser(flow, help="generate a crossbar program")
        if flow == "map-area":
            c.add_argument("--k", type=int, required=True)
            c.add_argument("--rows", type=int, required=True)
        if flow != "map-minimal":
            c.add_argument("--cols", type=int, required=True)
        c.add_argument("netlist")
        c.add_argument("-o", "--output", required=True)
        c.add_argument("--asm")
        c.add_argument("--report")
        c.set_defaults(func=fn)

    c = sub.add_parser("simulate", help="run a program on the machine model")
    c.add_argument("program")
    c.add_argument("--inputs", help="file of 0/1 vectors, one per line")
    c.add_argument("--trace", help="write a JSON step trace")
    c.add_argument("--grid", action="store_true",
                   help="dump the final crossbar contents")
    c.add_argument("--step-grid", action="store_true",
                   help="dump the crossbar grid after every instruction")
    c.set_defaults(func=cmd_simulate)

    c = sub.add_parser("verify", help="prove a program against its network")
    c.add_argument("netlist")
    c.add_argument("program")
    mode = c.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=False)
    mode.add_argument("--random", type=int, default=0, metavar="N")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_verify)

    c = sub.add_parser("disassemble", help="print a program as assembly")
    c.add_argument("program")
    c.set_defaults(func=cmd_disassemble)

    c = sub.add_parser("bench", help="map and verify a corpus of circuits")
    c.add_argument("corpus", nargs="?",
                   help="directory of .aag/.mig files ($%s)" % CORPUS_ENV)
    c.add_argument("--builtin", action="store_true",
                   help="use the built-in corpus when no directory is given")
    c.add_argument("--flow", nargs="+", default=["area", "delay"],
                   choices=["area", "delay", "minimal"])
    c.add_argument("--k", nargs="+", type=int, default=[4])
    c.add_argument("--rows", nargs="+", type=int, default=[64])
    c.add_argument("--cols", nargs="+", type=int, default=[16])
    c.add_argument("--budget", type=int, default=0,
                   help="fixed device budget; delay rows = budget/cols")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--jobs", type=int, default=1)
    c.add_argument("--limit-seconds", type=float, default=60.0)
    c.add_argument("--format", choices=["csv", "json"], default="csv")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
