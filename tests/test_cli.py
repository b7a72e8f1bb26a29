import csv
import dataclasses
import hashlib
import json
import os
import signal
import struct
import subprocess
import sys
import time

import pytest

from conftest import LEAF_OUTPUT_MIGS, layered_mig, serialize_aig
from revamp import areamap, cli, netlist
from revamp.areamap import InfeasibleMapping, map_minimal
from revamp.circuits import (default_corpus, full_adder, multiplier, parity,
                             ripple_adder, two_bit_xor, two_bit_xor_program)
from revamp.cli import main
from revamp.isa import MAX_PIS, CrossbarConfig, Program, write_program
from revamp.netlist import aig_to_mig, normalize_mig, serialize_mig
from revamp.reports import BENCH_COLUMNS
from revamp.simulator import run


@pytest.fixture
def workdir(tmp_path):
    aag = tmp_path / "fa.aag"
    aag.write_text(serialize_aig(full_adder()))
    mig = tmp_path / "fa.mig"
    mig.write_text(serialize_mig(aig_to_mig(full_adder())))
    return tmp_path


def test_cover_json(workdir, capsys):
    assert main(["cover", "--k", "4", str(workdir / "fa.aag")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 4 and doc["luts"]


def test_cover_auto_k(workdir, capsys):
    rc = main(["cover", "--k", "6", "--auto-k", "--rows", "4", "--cols", "4",
               str(workdir / "fa.aag")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["min_dev"] <= 4


def test_cover_reports_the_cover_map_area_maps(tmp_path, capsys):
    """mult3's constant logic folds away before the cover, so it fits an
    8x4 crossbar for cover and map-area alike."""
    aag = tmp_path / "mult3.aag"
    aag.write_text(serialize_aig(multiplier(3)))
    geometry = ["--k", "4", "--rows", "8", "--cols", "4"]
    assert main(["cover", *geometry, str(aag)]) == 0
    assert json.loads(capsys.readouterr().out)["min_dev"] == 11
    report = tmp_path / "mult3.json"
    assert main(["map-area", *geometry, str(aag), "-o",
                 str(tmp_path / "mult3.rvmp"), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["min_dev"] == 11


@pytest.mark.parametrize("k", ["1", "0"])
def test_cover_auto_k_refuses_a_k_below_two(workdir, capsys, k):
    for sweep in ([], ["--auto-k"]):
        rc = main(["cover", "--k", k, *sweep, str(workdir / "fa.aag")])
        assert rc == 2
        assert capsys.readouterr().err == "error: k must be in 2..16\n"


def test_map_area_simulate_verify(workdir, capsys):
    prog = workdir / "fa.rvmp"
    rep = workdir / "rep.json"
    asm = workdir / "fa.asm"
    rc = main(["map-area", "--k", "4", "--rows", "8", "--cols", "8",
               str(workdir / "fa.aag"), "-o", str(prog),
               "--report", str(rep), "--asm", str(asm)])
    assert rc == 0
    report = json.loads(rep.read_text())
    assert report["flow"] == "area"
    assert report["cycles"] == report["i_total"] + 2
    assert "Apply" in asm.read_text()

    capsys.readouterr()
    rc = main(["verify", str(workdir / "fa.aag"), str(prog),
               "--exhaustive"])
    out = capsys.readouterr().out
    assert rc == 0 and json.loads(out)["ok"]

    vectors = workdir / "v.txt"
    vectors.write_text("101\n000\n")
    rc = main(["simulate", str(prog), "--inputs", str(vectors)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["results"]["sum"] == 0 and doc[0]["results"]["cout"] == 1
    assert doc[1]["results"]["sum"] == 0 and doc[1]["results"]["cout"] == 0


def test_map_area_infeasible_exit(workdir, capsys):
    # too little storage, and a valid crossbar whose three rows are all
    # working rows, so it has none
    for k, rows, cols in (("2", "4", "2"), ("4", "3", "4")):
        rc = main(["map-area", "--k", k, "--rows", rows, "--cols", cols,
                   str(workdir / "fa.aag"), "-o", str(workdir / "x.rvmp")])
        assert rc == 1
        assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("rows, cols", [("-2", "4"), ("0", "4"),
                                        ("64", "1"), ("4", "1")])
def test_map_area_refuses_a_geometry_that_is_no_crossbar(workdir, capsys,
                                                         rows, cols):
    rc = main(["map-area", "--k", "4", "--rows", rows, "--cols", cols,
               str(workdir / "fa.aag"), "-o", str(workdir / "x.rvmp")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (workdir / "x.rvmp").exists()


def test_bench_area_geometry(workdir, capsys):
    argv = ["bench", str(workdir), "--flow", "area", "--cols", "4"]
    assert main(argv + ["--rows", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: S_D must be >= 1\n" and not captured.out
    assert main(argv + ["--rows", "3"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    # one row each for fa.aag and fa.mig
    assert [(r["benchmark"], r["status"]) for r in rows] == [
        ("fa", "infeasible: needs 2 storage devices but the crossbar "
               "offers 0")] * 2


def test_bench_budget_below_one_row(workdir, capsys):
    # every width must fit one row of the budget, or no area job runs
    argv = ["bench", str(workdir), "--flow", "area", "--budget", "32"]
    assert main(argv + ["--cols", "16", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --budget 32 fits no row of --cols 64\n"
    assert not captured.out
    assert main(argv + ["--cols", "0"]) == 2
    assert capsys.readouterr().err == \
        "error: --budget 32 fits no row of --cols 0\n"
    assert main(argv + ["--cols", "16"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(r["s_d"], r["w_d"], r["status"]) for r in rows] == \
        [("2", "16", "infeasible: needs 2 storage devices but the crossbar "
                     "offers 0")] * 2


def test_map_area_maps_a_mig(workdir, capsys):
    prog = workdir / "fa_area.rvmp"
    rc = main(["map-area", "--k", "4", "--rows", "8", "--cols", "8",
               str(workdir / "fa.mig"), "-o", str(prog)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["verify", str(workdir / "fa.mig"), str(prog)])
    assert rc == 0 and json.loads(capsys.readouterr().out)["ok"]


def test_map_delay_and_disassemble(workdir, capsys):
    prog = workdir / "fa_delay.rvmp"
    rep = workdir / "rep.json"
    rc = main(["map-delay", "--cols", "4", str(workdir / "fa.mig"),
               "-o", str(prog), "--report", str(rep)])
    assert rc == 0
    report = json.loads(rep.read_text())
    assert report["flow"] == "delay" and report["w_util"] > 0
    # the full adder's nine gates, mapped as its majority rewrite's three
    assert (report["n_maj"], report["n_maj_mapped"]) == (9, 3)
    rc = main(["verify", str(workdir / "fa.mig"), str(prog)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["disassemble", str(prog)])
    out = capsys.readouterr().out
    assert rc == 0 and out.splitlines()[0].startswith(("Read", "Apply"))


def test_map_delay_accepts_aig_input(workdir, capsys):
    prog = workdir / "fa_delay2.rvmp"
    rc = main(["map-delay", "--cols", "8", str(workdir / "fa.aag"),
               "-o", str(prog)])
    assert rc == 0


def test_map_minimal_roundtrip(tmp_path, capsys):
    mig = tmp_path / "net.mig"
    mig.write_text("pi 0 a\npi 1 b\npi 2 c\nnode 3 = MAJ(0,1,!2)\npo 3 f\n")
    prog = tmp_path / "net.rvmp"
    rc = main(["map-minimal", str(mig), "-o", str(prog)])
    assert rc == 0
    assert main(["verify", str(mig), str(prog)]) == 0


def test_simulate_traces_every_vector(tmp_path, capsys):
    prog = tmp_path / "xor.rvmp"
    prog.write_bytes(write_program(two_bit_xor_program()))
    vectors = tmp_path / "v.txt"
    vectors.write_text("0000\n0101\n1111\n1000\n0011\n")
    trace = tmp_path / "trace.json"
    rc = main(["simulate", str(prog), "--inputs", str(vectors),
               "--trace", str(trace)])
    assert rc == 0
    runs = json.loads(trace.read_text())
    assert [len(steps) for steps in runs] == [8] * 5
    program = two_bit_xor_program()
    for steps, line in zip(runs, vectors.read_text().split()):
        _, alone = run(program, [int(c) for c in line], record_trace=True)
        assert steps == json.loads(json.dumps(alone.to_list()))


@pytest.mark.parametrize("name, lines, out_digest, trace_digest", [
    ("xor", "0000 0101 1111 1000 0011",
     "f06fcbd5f0220226baab6974631460217d537fceeb9027b44c67a02244f023fa",
     "6930af429c842b4728770a07ea601784165f42290883ccfecbd161b2c07cb4fe"),
    # the minimal program moves with the mapper, so its id leaves out the
    # digests
    pytest.param("parity4", "0000 0110 1111 1000 1011",
                 "c026530cafd85101f102dbe18b7a9b6c"
                 "545ec281f6b5be7190a7a18ef863fc94",
                 "5de367bd10603f16e5bfb5825c4ded6b"
                 "d1a2039e0a2293390c8076f45b8a05dc",
                 id="parity4"),
])
def test_simulate_output_pinned(tmp_path, capsys, name, lines, out_digest,
                                trace_digest):
    """stdout and the trace file of five vectors with every output option,
    pinned to the bytes of one simulator run per vector."""
    if name == "xor":
        program = two_bit_xor_program()
    else:
        program, _ = map_minimal(normalize_mig(aig_to_mig(parity(4))))
    prog = tmp_path / "p.rvmp"
    prog.write_bytes(write_program(program))
    vectors = tmp_path / "v.txt"
    vectors.write_text("".join(line + "\n" for line in lines.split()))
    trace = tmp_path / "trace.json"
    assert main(["simulate", str(prog), "--inputs", str(vectors), "--trace",
                 str(trace), "--grid", "--step-grid"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == out_digest
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_digest


def test_simulate_trace_file_is_unindented(tmp_path, capsys):
    prog = tmp_path / "xor.rvmp"
    prog.write_bytes(write_program(two_bit_xor_program()))
    vectors = tmp_path / "v.txt"
    vectors.write_text("0110\n1011\n")
    trace = tmp_path / "trace.json"
    assert main(["simulate", str(prog), "--inputs", str(vectors),
                 "--trace", str(trace), "--step-grid"]) == 0
    text = trace.read_text()
    program = two_bit_xor_program()
    expected = []
    for line in vectors.read_text().split():
        _, alone = run(program, [int(c) for c in line], record_trace=True,
                       record_state=True)
        expected.append(alone.to_list())
    assert json.loads(text) == json.loads(json.dumps(expected))
    assert "\n" not in text
    # stdout keeps its indented layout
    assert '\n  {\n    "inputs"' in capsys.readouterr().out


def test_verify_picks_random_above_the_exhaustive_bound(tmp_path, capsys):
    net = tmp_path / "add9.aag"
    net.write_text(serialize_aig(ripple_adder(9)))  # 18 inputs
    prog = tmp_path / "add9.rvmp"
    assert main(["map-delay", "--cols", "16", str(net), "-o", str(prog)]) == 0
    capsys.readouterr()
    assert main(["verify", str(net), str(prog)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and doc["mode"] == "random"
    assert main(["verify", str(net), str(prog), "--exhaustive"]) == 2
    assert "limited to 16" in capsys.readouterr().err


def test_simulate_and_verify_refuse_a_crossbar_too_large(workdir, capsys):
    """A well-formed container whose header declares more devices than the
    simulator allocates is a typed refusal, not a traceback."""
    prog = workdir / "big.rvmp"
    prog.write_bytes(write_program(Program(
        CrossbarConfig(4096, 2048), [], {}, {"sum": (0, 0), "cout": (0, 1)},
        3)))
    for argv in (["simulate", str(prog)],
                 ["verify", str(workdir / "fa.aag"), str(prog)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: a 4096x2048 crossbar has more than "
                                "4194304 devices\n") and not captured.out


@pytest.mark.parametrize("num_pis", [2**24, 2**32 - 1])
def test_simulate_refuses_a_container_declaring_too_many_inputs(
        workdir, capsys, num_pis):
    """A header may declare any input count its field holds; simulate
    refuses one above the bound before it builds a mask or a vector."""
    data = bytearray(write_program(Program(CrossbarConfig(4, 4), [], {},
                                           {}, 0)))
    struct.pack_into("<I", data, 20, num_pis)  # the num_pis header field
    prog = workdir / "wide.rvmp"
    prog.write_bytes(bytes(data))
    t0 = time.perf_counter()
    assert main(["simulate", str(prog)]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.err == ("error: %d primary inputs, more than the 1048576 "
                            "a program may declare\n" % num_pis)
    assert not captured.out


def test_simulate_without_inputs_prints_no_input_vector(workdir, capsys):
    """Without --inputs the all-zero vector runs, and its row leaves the
    vector out: a container declaring the most inputs prints a short
    result."""
    prog = workdir / "wide.rvmp"
    prog.write_bytes(write_program(Program(CrossbarConfig(4, 4), [], {},
                                           {"z": (3, 3)}, MAX_PIS)))
    assert main(["simulate", str(prog)]) == 0
    out = capsys.readouterr().out
    assert len(out) < 1024
    assert json.loads(out) == [{"cycles": 2, "results": {"z": 0}}]


def test_verify_exit_code_on_mismatch(workdir, capsys, tmp_path):
    prog = workdir / "fa.rvmp"
    main(["map-area", "--k", "4", "--rows", "8", "--cols", "8",
          str(workdir / "fa.aag"), "-o", str(prog)])
    # same interface, swapped outputs: must be caught as a mismatch
    wrong = full_adder()
    wrong.output_names = ["cout", "sum"]
    other = tmp_path / "other.aag"
    other.write_text(serialize_aig(wrong))
    capsys.readouterr()
    rc = main(["verify", str(other), str(prog), "--exhaustive"])
    assert rc == 1
    # incompatible interface exits differently
    narrow = tmp_path / "narrow.aag"
    narrow.write_text(serialize_aig(ripple_adder(1)))
    rc = main(["verify", str(narrow), str(prog), "--random", "50"])
    assert rc == 2


def _run_with_stdout_closed(unbuffered, *argv):
    """``revamp argv`` in a new process whose stdout is a pipe with no
    reader: ``(exit code, stderr)``.  Unbuffered, the first write fails;
    buffered, the flush of what was written."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "revamp.cli", *argv],
                              stdout=w, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(w)
    return proc.returncode, proc.stderr.decode()


@pytest.mark.parametrize("unbuffered", ["", "1"],
                         ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_as_sigpipe_would(workdir, unbuffered):
    prog = workdir / "fa.rvmp"
    assert main(["map-area", "--k", "4", "--rows", "8", "--cols", "8",
                 str(workdir / "fa.aag"), "-o", str(prog)]) == 0
    assert _run_with_stdout_closed(unbuffered, "verify",
                                   str(workdir / "fa.aag"),
                                   str(prog)) == (141, "")
    # a refused input is still bad input, whatever stdout is
    rc, err = _run_with_stdout_closed(unbuffered, "verify",
                                      str(workdir / "fa.aag"),
                                      str(workdir / "missing.rvmp"))
    assert rc == 2 and err.startswith("error: ")


def test_verify_refuses_exhaustive_with_random(workdir, capsys):
    prog = workdir / "fa.rvmp"
    main(["map-area", "--k", "4", "--rows", "8", "--cols", "8",
          str(workdir / "fa.aag"), "-o", str(prog)])
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(workdir / "fa.aag"), str(prog), "--exhaustive",
              "--random", "50"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_bench_empty_corpus(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no network here\n")
    rc = main(["bench", str(tmp_path), "--format", "csv"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == ("error: no .aag or .mig file in %s; give --builtin to "
                   "map the built-in corpus\n" % tmp_path)


def test_bench_small_corpus(tmp_path, capsys):
    for name, net in [("xor2", two_bit_xor()), ("adder2", ripple_adder(2))]:
        (tmp_path / (name + ".aag")).write_text(serialize_aig(net))
    out_file = tmp_path / "bench.csv"
    rc = main(["bench", str(tmp_path), "--flow", "area", "delay",
               "--k", "4", "--rows", "8", "--cols", "4", "8",
               "-o", str(out_file)])
    assert rc == 0
    rows = list(csv.DictReader(out_file.read_text().splitlines()))
    # 2 circuits x (area x 1 cols-ignored? area uses cols list) + delay rows
    assert all(r["verified"] == "True" for r in rows
               if r["status"] == "ok")
    assert any(r["flow"] == "area" for r in rows)
    assert any(r["flow"] == "delay" for r in rows)
    for r in rows:
        if r["status"] == "ok":
            assert int(r["cycles"]) == int(r["i_total"]) + 2


def test_bench_json_format(tmp_path, capsys):
    (tmp_path / "xor2.aag").write_text(serialize_aig(two_bit_xor()))
    rc = main(["bench", str(tmp_path), "--flow", "delay", "--cols", "4",
               "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc and doc[0]["flow"] == "delay"


def test_bench_env_corpus(tmp_path, capsys, monkeypatch):
    (tmp_path / "xor2.aag").write_text(serialize_aig(two_bit_xor()))
    monkeypatch.setenv("REVAMP_CORPUS", str(tmp_path))
    rc = main(["bench", "--flow", "delay", "--cols", "4"])
    assert rc == 0
    assert "xor2" in capsys.readouterr().out


def test_bench_adder_multiplier_widths(tmp_path, capsys):
    from revamp.circuits import full_adder as fa, multiplier, ripple_adder
    for name, net in [("full_adder", fa()), ("adder4", ripple_adder(4)),
                      ("mult4", multiplier(4))]:
        (tmp_path / (name + ".aag")).write_text(serialize_aig(net))
    rc = main(["bench", str(tmp_path), "--flow", "delay",
               "--cols", "4", "8", "16"])
    assert rc == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 9
    assert all(r["verified"] == "True" for r in rows)


def test_bench_fixed_budget_sweep(tmp_path, capsys):
    (tmp_path / "adder2.aag").write_text(serialize_aig(ripple_adder(2)))
    rc = main(["bench", str(tmp_path), "--flow", "area", "--k", "4",
               "--budget", "64", "--cols", "4", "8", "16"])
    assert rc == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    geometry = {(int(r["s_d"]), int(r["w_d"])) for r in rows}
    assert geometry == {(16, 4), (8, 8), (4, 16)}
    assert all(r["verified"] == "True" for r in rows
               if r["status"] == "ok")


def test_bench_builtin_pool_matches_serial_rows(capsys):
    argv = ["bench", "--builtin", "--flow", "area", "delay", "minimal",
            "--cols", "8", "--format", "json"]
    docs = []
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs]) == 0
        rows = json.loads(capsys.readouterr().out)
        for r in rows:
            r.pop("seconds")
        docs.append(rows)
    serial, pooled = docs
    assert pooled == serial
    assert all(r["verified"] or r["status"].startswith("skipped")
               for r in pooled)


def test_bench_minimal_runs_once_per_circuit(tmp_path, capsys):
    (tmp_path / "xor2.aag").write_text(serialize_aig(two_bit_xor()))
    (tmp_path / "par4.aag").write_text(serialize_aig(parity(4)))
    rc = main(["bench", str(tmp_path), "--flow", "minimal",
               "--cols", "4", "8", "16"])
    assert rc == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(r["benchmark"], r["status"]) for r in rows] == [
        ("par4", "ok"), ("xor2", "skipped: multi-output")]
    assert rows[0]["w_d"] == "2" and rows[0]["verified"] == "True"


def test_bench_rows_match_map_reports(tmp_path, capsys):
    (tmp_path / "fa.aag").write_text(serialize_aig(full_adder()))
    (tmp_path / "par4.aag").write_text(serialize_aig(parity(4)))
    rc = main(["bench", str(tmp_path), "--flow", "area", "delay", "minimal",
               "--k", "4", "--rows", "8", "--cols", "8", "--format", "json"])
    assert rc == 0
    rows = [r for r in json.loads(capsys.readouterr().out)
            if r["status"] == "ok"]
    assert len(rows) == 5  # fa is multi-output: no minimal row
    geometry = {"area": ["--k", "4", "--rows", "8", "--cols", "8"],
                "delay": ["--cols", "8"], "minimal": []}
    rep = tmp_path / "rep.json"
    for row in rows:
        assert main(["map-" + row["flow"], *geometry[row["flow"]],
                     str(tmp_path / (row["benchmark"] + ".aag")),
                     "-o", str(tmp_path / "x.rvmp"),
                     "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        for col in ("i_total", "cycles", "s_d", "w_d"):
            assert row[col] == report[col], (row["benchmark"], row["flow"])


def test_bench_minimal_maps_leaf_outputs(tmp_path, capsys):
    for name, text in LEAF_OUTPUT_MIGS.items():
        (tmp_path / (name.replace("!", "not_") + ".mig")).write_text(text)
    rc = main(["bench", str(tmp_path), "--flow", "minimal"])
    assert rc == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(r["benchmark"], r["status"], r["verified"]) for r in rows] == [
        (name, "ok", "True")
        for name in ("b", "const0", "not_b", "not_const0")]


def test_bench_skips_a_tree_too_large(tmp_path, capsys, monkeypatch):
    """The minimal flow is bounded by its program's length, not by the
    network's tree: parity24, whose tree has 25,165,821 MAJ nodes, maps
    and verifies, and a network whose program would pass the bound is
    skipped, or refused by ``map-minimal``, as soon as it does."""
    (tmp_path / "par24.aag").write_text(serialize_aig(parity(24)))
    (tmp_path / "par4.aag").write_text(serialize_aig(parity(4)))
    assert main(["bench", str(tmp_path), "--flow", "minimal"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(r["benchmark"], r["status"], r["verified"]) for r in rows] == [
        ("par24", "ok", "True"), ("par4", "ok", "True")]

    big = tmp_path / "big"
    big.mkdir()
    (big / "layers16.mig").write_text(
        serialize_mig(layered_mig(16, 6, 12, seed=1)))
    (big / "parity4.mig").write_text(serialize_mig(aig_to_mig(parity(4))))
    monkeypatch.setattr(areamap, "MAX_MINIMAL_INSTRUCTIONS", 10_000)
    t0 = time.monotonic()
    assert main(["bench", str(big), "--flow", "minimal"]) == 0
    assert time.monotonic() - t0 < 1.0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["benchmark"] for r in rows] == ["layers16", "parity4"]
    assert rows[0]["status"].startswith("skipped: too large")
    assert "10000" in rows[0]["status"]
    assert rows[1]["status"] == "ok"
    prog = tmp_path / "layers16.rvmp"
    assert main(["map-minimal", str(big / "layers16.mig"), "-o",
                 str(prog)]) == 2
    assert capsys.readouterr().err == (
        "map-minimal does not apply: too large: the program would exceed "
        "10000 instructions\n")
    assert not prog.exists()


def test_bench_checks_rows_against_the_input_network(tmp_path, capsys,
                                                     monkeypatch):
    """A minimal row proves conversion and mapping together: a conversion
    that complements the output reads as a mismatch."""
    def complemented(net):
        mig = netlist.rebuild(net)
        return dataclasses.replace(
            mig, outputs=[e.flip() for e in mig.outputs])

    monkeypatch.setattr(cli, "rebuild", complemented)
    (tmp_path / "par4.aag").write_text(serialize_aig(parity(4)))
    rc = main(["bench", str(tmp_path), "--flow", "minimal"])
    assert rc == 1
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert rows[0]["status"].startswith("MISMATCH")
    assert rows[0]["verified"] == "False"


@pytest.fixture
def late_dir(tmp_path):
    # 76 nodes whose tree has 265,720: the minimal flow computes much of it
    # again, 187,961 instructions and most of a second to map and prove,
    # where parity4 takes a few milliseconds
    (tmp_path / "layers16.mig").write_text(
        serialize_mig(layered_mig(16, 6, 12, seed=1)))
    (tmp_path / "parity4.mig").write_text(serialize_mig(aig_to_mig(parity(4))))
    return tmp_path


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_limit_stops_a_late_job(late_dir, capsys, jobs):
    t0 = time.monotonic()
    rc = main(["bench", str(late_dir), "--flow", "minimal",
               "--limit-seconds", "0.1", "--jobs", jobs, "--format", "json"])
    elapsed = time.monotonic() - t0
    rows = {r["benchmark"]: r for r in json.loads(capsys.readouterr().out)}
    assert rows["layers16"]["status"] == "timeout"
    assert 0.1 <= rows["layers16"]["seconds"] < 0.3
    assert rows["parity4"]["status"] == "ok"
    assert rc == 1
    assert elapsed < 0.4


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_limit_that_does_not_expire_changes_nothing(tmp_path, capsys,
                                                          jobs):
    """Rows equal the flows' own reports, and the caller's SIGALRM handler
    is back in place with no timer left armed."""
    (tmp_path / "fa.aag").write_text(serialize_aig(full_adder()))
    (tmp_path / "par4.aag").write_text(serialize_aig(parity(4)))

    def handler(signum, frame):
        raise AssertionError("a bench timer fired in the caller")

    previous = signal.signal(signal.SIGALRM, handler)
    try:
        rc = main(["bench", str(tmp_path), "--flow", "area", "delay",
                   "minimal", "--k", "4", "--rows", "8", "--cols", "8",
                   "--limit-seconds", "30", "--jobs", jobs,
                   "--format", "json"])
        assert signal.getsignal(signal.SIGALRM) is handler
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["benchmark"], r["flow"], r["status"]) for r in rows] == [
        ("fa", "area", "ok"), ("fa", "delay", "ok"),
        ("fa", "minimal", "skipped: multi-output"),
        ("par4", "area", "ok"), ("par4", "delay", "ok"),
        ("par4", "minimal", "ok")]
    for row in rows[:2] + rows[3:]:
        net = cli.load_network(str(tmp_path / (row["benchmark"] + ".aag")))
        _, report = cli.map_network(net, row["flow"], 4, 8, 8)
        expected = report.to_dict()
        assert {c: row[c] for c in BENCH_COLUMNS if c in expected} == {
            c: expected[c] for c in BENCH_COLUMNS if c in expected}


def _no_jobs(nets, args):
    pytest.fail("a refused bench ran its jobs")


@pytest.mark.parametrize("limit", ["0", "-1", "nan", "inf", "1e300"])
def test_bench_refuses_a_limit_that_is_no_positive_finite_time(
        capsys, monkeypatch, limit):
    monkeypatch.setattr(cli, "_run_bench_jobs", _no_jobs)
    rc = main(["bench", "--builtin", "--limit-seconds", limit])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == ("error: --limit-seconds must be a positive number of "
                   "seconds up to 1e+09, not %s\n" % float(limit))


def test_bench_refuses_a_run_with_no_network_to_map(capsys, monkeypatch):
    monkeypatch.delenv(cli.CORPUS_ENV, raising=False)
    monkeypatch.setattr(cli, "_run_bench_jobs", _no_jobs)
    rc = main(["bench", "--flow", "delay"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == ("error: no network to map: give a directory, "
                   "$REVAMP_CORPUS or --builtin\n")


# sha256 over the containers every flow emits for ``default_corpus()``: the
# area flow at k 3/4/6 on 8x4, 16x16 and 64x32 ("infeasible" for a job that
# would not fit; every job fits today), the delay flow at w_D 4/16/32 and
# the minimal flow on each single-output network, mapped from ``rebuild``'s
# MIG (parity8, rand8, rand10 and rand12: 57, 59, 104 and 136
# instructions); a refactor of any flow must keep these bytes.  The delay
# jobs of the adders and parity8 map their majority rewrite (their 15
# programs 417 instructions, 684 before; all 39 delay programs 1,577,
# 1,844 before)
CORPUS_PROGRAMS = (
    "b70aa6aa54421ac8ea0094f110de24857b593c22509d9eb3338ebcd0ed71441d")


def test_corpus_programs_byte_identical():
    jobs = [("area", k, s_d, w_d) for k in (3, 4, 6)
            for s_d, w_d in ((8, 4), (16, 16), (64, 32))]
    jobs += [("delay", None, 0, w_d) for w_d in (4, 16, 32)]
    jobs += [("minimal", None, 0, 0)]
    digest = hashlib.sha256()
    count = 0
    for name, net in default_corpus():
        for job in jobs:
            try:
                program, _ = cli.map_network(net, *job)
            except cli.NotApplicable:
                continue
            except InfeasibleMapping:
                data = b"infeasible"
            else:
                data = write_program(program)
            digest.update(repr((name,) + job).encode() + data)
            count += 1
    assert count == 160
    assert digest.hexdigest() == CORPUS_PROGRAMS
