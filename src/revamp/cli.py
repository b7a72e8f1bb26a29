"""Command-line entry point binding the mapping flows together.

Subcommands: cover, map-area, map-delay, map-minimal, simulate, verify,
disassemble, bench.  Networks load by extension: ``.aag`` (ASCII AIGER) or
``.mig`` (textual majority graph).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import os
import signal
import sys
import time

from . import circuits
from .areamap import InfeasibleMapping, map_area, map_minimal
from .delaymap import map_delay
from .isa import CrossbarConfig, format_asm, read_program, write_program
from .lutmap import cover_klut, feasible, lut_graph_to_dict, min_dev
from .netlist import NetlistError, parse_aiger, parse_mig, rebuild
from .reports import BENCH_COLUMNS
from .simulator import grid_dump, run_vectors
from .verifier import EXHAUSTIVE_MAX_PIS, check_equivalence

CORPUS_ENV = "REVAMP_CORPUS"
# setitimer overflows above 2^63 ns (about 9.2e9 s); a bench limit stays below
MAX_LIMIT_SECONDS = 1e9


def load_network(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".mig"):
        return parse_mig(text)
    return parse_aiger(text)


class NotApplicable(Exception):
    """The flow does not take this network; nothing was mapped."""


def map_network(net, flow: str, k: int | None, s_d: int, w_d: int):
    """Map ``net`` through one flow: ``(program, report)``.

    The program computes ``net`` itself, through whatever the flow builds
    from it, and is checked against it.  Every flow maps the MIG
    ``netlist.rebuild`` cleans ``net`` to, folded and hashed, an AIG or a
    MIG alike (``lutmap.cover_klut`` cleans its own input), and the
    minimal flow pushes complements itself.  Raises ``NotApplicable`` for a
    minimal map of a multi-output network and one whose program would
    exceed ``areamap.MAX_MINIMAL_INSTRUCTIONS``; every other error comes
    through unchanged.
    """
    if flow == "area":
        return map_area(net, k, s_d, w_d)
    if flow == "minimal" and len(net.outputs) != 1:
        raise NotApplicable("multi-output")
    mig = rebuild(net)
    if flow == "delay":
        return map_delay(mig, w_d)
    try:
        return map_minimal(mig)
    except NetlistError as exc:  # a cleaned MIG is refused only for length
        raise NotApplicable("too large: %s" % exc) from None


def _check_mode(net) -> str:
    """Exhaustive (a proof) up to EXHAUSTIVE_MAX_PIS inputs, else random."""
    return "exhaustive" if net.num_pis <= EXHAUSTIVE_MAX_PIS else "random"


def _write(path, data):
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)


def cmd_cover(args):
    net = load_network(args.netlist)
    if args.rows is not None:
        if args.cols is None:
            print("error: --rows needs --cols for the feasibility check",
                  file=sys.stderr)
            return 2
        CrossbarConfig(args.rows, args.cols)  # refuse a bad geometry
    elif args.cols is not None:
        print("error: --cols needs --rows for the feasibility check",
              file=sys.stderr)
        return 2
    ks = [args.k]  # first, so cover_klut refuses a k out of range either way
    if args.auto_k:
        ks += range(args.k - 1, 1, -1)
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


def cmd_map(args):
    net = load_network(args.netlist)
    try:
        program, report = map_network(net, args.flow, args.k, args.rows,
                                      args.cols)
    except NotApplicable as exc:
        print("map-%s does not apply: %s" % (args.flow, exc), file=sys.stderr)
        return 2
    except InfeasibleMapping as exc:
        print("infeasible: %s" % exc, file=sys.stderr)
        return 1
    _write(args.output, write_program(program))
    if args.asm:
        _write(args.asm, program.to_asm())
    if args.report:
        _write(args.report, report.to_json())
    print("%s: %d instructions, %d cycles"
          % (args.output, report.i_total, report.cycles))
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
    if args.inputs is None:  # the all-zero vector, its inputs not printed
        vectors, masks, width = None, [0] * program.num_pis, 1
    else:  # one bit-parallel run; bit k of each mask is vector k's
        vectors = _read_vectors(args.inputs, program.num_pis)
        masks = [int("".join(str(vec[i]) for vec in reversed(vectors)), 2)
                 for i in range(program.num_pis)] if vectors else []
        width = len(vectors)
    record = args.trace is not None or args.step_grid
    if width:
        state, trace = run_vectors(program, masks, width, record_trace=record,
                                   record_state=args.step_grid)
    out = []
    traces = []
    for k in range(width):
        alone = state.vector(k)
        row = {} if vectors is None else {"inputs": vectors[k]}
        row["cycles"] = alone.cycles
        row["results"] = {name: alone.dcm[w][b] for name, (w, b)
                          in program.result_locations.items()}
        out.append(row)
        if record:
            steps = trace.vector(k)
        if args.trace:
            traces.append(steps.to_list())
        if args.step_grid:
            print(steps.to_text(dump_state=True), end="")
        if args.grid:
            print(grid_dump(alone))
    if args.trace:
        # one step list per input vector, in input order; unindented, as
        # indenting puts every bit on its own line and quadruples the file
        _write(args.trace, json.dumps(traces, separators=(",", ":")))
    print(json.dumps(out, indent=2))
    return 0


def cmd_verify(args):
    net = load_network(args.netlist)
    with open(args.program, "rb") as fh:
        program = read_program(fh.read())
    mode = ("exhaustive" if args.exhaustive else
            "random" if args.random else _check_mode(net))
    result = check_equivalence(net, program, mode=mode, seed=args.seed,
                               n=args.random or 10000)
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

class _Expired(BaseException):
    """A bench job ran out of time.  Not an ``Exception``, so no handler in
    the flows can catch it."""


def _expire(signum, frame):
    raise _Expired


def _bench_job(spec):
    """Map and check one network: its bench row, keyed by BENCH_COLUMNS.

    The job stops itself ``limit`` seconds after it starts, in whichever
    process runs it: a POSIX interval timer interrupts the mapping or the
    check, and the row reads ``timeout`` with the seconds that passed.
    """
    name, net, flow, k, s_d, w_d, seed, limit = spec
    t0 = time.monotonic()
    previous = signal.signal(signal.SIGALRM, _expire)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                program, report = map_network(net, flow, k, s_d, w_d)
            except NotApplicable as exc:
                status, report = "skipped: %s" % exc, None
            except InfeasibleMapping as exc:
                status, report = "infeasible: %s" % exc, None
            else:
                # against the network given, so the flow's own rewrites are
                # proven too
                check = check_equivalence(net, program, mode=_check_mode(net),
                                          seed=seed, n=4096)
                status = ("ok" if check.ok else
                          "MISMATCH %r" % (check.counterexample,))
        finally:  # an expiry before the timer is disarmed is caught below
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _Expired:
        status, report = "timeout", None
    finally:
        signal.signal(signal.SIGALRM, previous)
    row = dict.fromkeys(BENCH_COLUMNS, "")
    row.update(benchmark=name, flow=flow, k="" if k is None else k, s_d=s_d,
               w_d=w_d, verified=status == "ok", status=status,
               seconds=round(time.monotonic() - t0, 3))
    if report is not None:
        rep = report.to_dict()
        row.update((c, rep[c]) for c in BENCH_COLUMNS if c in rep)
    return row


def _run_bench_jobs(nets, args) -> list[dict]:
    jobs = []
    for name, net in nets:
        for flow in args.flow:
            if flow == "area":
                for k in args.k:
                    for w_d in args.cols:
                        # a fixed device budget turns into rows per width
                        rows = args.rows
                        if args.budget:
                            if not 0 < w_d <= args.budget:
                                raise ValueError(
                                    "--budget %d fits no row of --cols %d"
                                    % (args.budget, w_d))
                            rows = [args.budget // w_d]
                        jobs += [(name, net, flow, k, s_d, w_d)
                                 for s_d in rows]
            elif flow == "delay":
                jobs += [(name, net, flow, None, 0, w_d) for w_d in args.cols]
            else:
                # the depth-bounded mapper sizes its own crossbar
                jobs.append((name, net, flow, None, 0, 0))
    # the rows' order: by the spec's own geometry, not the emitted one
    jobs.sort(key=lambda j: (j[0], j[2], j[3] or 0, j[4], j[5]))
    jobs = [j + (args.seed, args.limit_seconds) for j in jobs]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(args.jobs) as pool:
            return list(pool.map(_bench_job, jobs))
    return list(map(_bench_job, jobs))


def cmd_bench(args):
    if not 0 < args.limit_seconds <= MAX_LIMIT_SECONDS:
        raise ValueError("--limit-seconds must be a positive number of "
                         "seconds up to %g, not %s"
                         % (MAX_LIMIT_SECONDS, args.limit_seconds))
    corpus = args.corpus or os.environ.get(CORPUS_ENV)
    if not (corpus or args.builtin):
        raise ValueError("no network to map: give a directory, $%s or "
                         "--builtin" % CORPUS_ENV)
    nets = []
    if corpus:
        for fn in sorted(os.listdir(corpus)):
            if fn.endswith((".aag", ".mig")):
                nets.append((os.path.splitext(fn)[0],
                             load_network(os.path.join(corpus, fn))))
    if not nets and args.builtin:
        nets = circuits.default_corpus()
    if not nets:
        raise ValueError("no .aag or .mig file in %s; give --builtin to map "
                         "the built-in corpus" % corpus)
    rows = _run_bench_jobs(nets, args)
    if args.format == "json":
        doc = json.dumps(rows, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        doc = buf.getvalue()
    if args.output:
        _write(args.output, doc)
    else:
        print(doc, end="")
    return 0 if all(r["verified"] or r["status"].startswith(("infeasible",
                                                             "skipped"))
                    for r in rows) else 1


def build_parser():
    p = argparse.ArgumentParser(prog="revamp",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cover",
                       help="the k-input LUT cover map-area maps")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--auto-k", action="store_true",
                   help="sweep k downward until the cover fits the crossbar")
    c.add_argument("--rows", type=int)
    c.add_argument("--cols", type=int)
    c.add_argument("netlist")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_cover)

    for flow in ("area", "delay", "minimal"):
        c = sub.add_parser("map-" + flow, help="generate a crossbar program")
        if flow == "area":
            c.add_argument("--k", type=int, required=True)
            c.add_argument("--rows", type=int, required=True)
        if flow != "minimal":
            c.add_argument("--cols", type=int, required=True)
        c.add_argument("netlist")
        c.add_argument("-o", "--output", required=True)
        c.add_argument("--asm")
        c.add_argument("--report")
        c.set_defaults(func=cmd_map, flow=flow, k=None, rows=0, cols=0)

    c = sub.add_parser("simulate", help="run a program on the machine model")
    c.add_argument("program")
    c.add_argument("--inputs", help="file of 0/1 vectors, one per line; "
                   "without it the all-zero vector runs, and each result "
                   "row leaves out its inputs")
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
                   help="fixed device budget; area rows = budget/cols, "
                        "so each width must fit one row")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--jobs", type=int, default=1)
    c.add_argument("--limit-seconds", type=float, default=60.0,
                   help="stop each row's job after this many seconds, at "
                        "every --jobs value (a POSIX interval timer), and "
                        "report it as 'timeout' with the time it ran")
    c.add_argument("--format", choices=["csv", "json"], default="csv")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a closed stdout shows here, not at exit
        return rc
    except BrokenPipeError:
        # the reader is gone: exit as SIGPIPE would end the process, with
        # stdout on the null device so the flush at exit is quiet (SIGPIPE
        # itself stays ignored, as bench's process pool needs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + signal.SIGPIPE
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
