import dataclasses

import pytest

from revamp.areamap import map_area, map_minimal
from revamp.circuits import default_corpus, parity, ripple_adder
from revamp.codegen import ProgramBuilder
from revamp.delaymap import map_delay
from revamp.isa import (SLOT_CONST0, ApplyInstr, CrossbarConfig, IsaError,
                        Program, ReadInstr, WsMode, write_program)
from revamp.netlist import LogicNetwork, aig_to_mig, normalize_mig, pi_patterns
from revamp.simulator import PIPELINE_FILL, run_vectors


def test_counts_split_reads_and_applies():
    builder = ProgramBuilder(CrossbarConfig(3, 2), 1)
    assert builder.counts() == {"i_apply": 0, "i_read": 0, "i_total": 0,
                                "cycles": PIPELINE_FILL, "devices_used": 0}
    builder.apply_from_pir(0, WsMode.ONE, {0: 0})
    builder.read(0)
    builder.read(0)  # redundant, skipped
    builder.apply_from_dmr(1, WsMode.ONE, {1: 0})
    assert builder.counts() == {"i_apply": 2, "i_read": 1, "i_total": 3,
                                "cycles": 3 + PIPELINE_FILL,
                                "devices_used": 2}


def test_pir_applies_at_the_same_positions_share_one_instruction():
    """PIR Applies whose wires read other inputs at the same slot positions
    are one instruction object, each with its own slots; other positions
    give another instruction."""
    builder = ProgramBuilder(CrossbarConfig(3, 4), 3)
    builder.apply_from_pir(1, WsMode.ONE, {0: 0, 2: 1})
    builder.apply_from_pir(1, WsMode.ONE, {0: 2, 2: 0})
    builder.apply_from_pir(1, WsMode.ONE, {0: 0, 2: 0})
    first, second, third = builder.instructions
    assert first is second and first != third
    c0 = SLOT_CONST0
    assert builder.pir_schedule == {0: (0, 1, c0, c0), 1: (2, 0, c0, c0),
                                    2: (0, c0, c0, c0)}


def test_every_flow_reports_the_simulated_counts():
    net = ripple_adder(3)
    tree = normalize_mig(aig_to_mig(parity(4)))
    for program, report in (map_area(net, 4, 16, 8),
                            map_delay(aig_to_mig(net), 8), map_minimal(tree)):
        state, _ = run_vectors(program, [0] * program.num_pis, 1)
        reads = sum(isinstance(i, ReadInstr) for i in program.instructions)
        assert (report.i_read, report.i_total, report.cycles) == (
            reads, len(program.instructions), state.cycles)
        assert report.i_apply == report.i_total - reads
        devices = {(i.w, j) for i in program.instructions
                   if isinstance(i, ApplyInstr)
                   for j, pair in enumerate(i.pairs) if pair.valid}
        assert (report.num_pis, report.s_d, report.w_d,
                report.devices_used) == (
            program.num_pis, program.config.s_d, program.config.w_d,
            len(devices)), report.flow


def test_finish_leaves_validation_to_encode_and_execute():
    builder = ProgramBuilder(CrossbarConfig(3, 2), 1)
    builder.apply_from_pir(0, WsMode.ONE, {0: 0})
    builder.result_locations["f"] = (7, 0)  # no word 7 on a 3x2 crossbar
    program = builder.finish()
    assert program.result_locations == {"f": (7, 0)}
    with pytest.raises(IsaError, match="out of range"):
        write_program(program)
    with pytest.raises(IsaError, match="out of range"):
        run_vectors(program, [0b10], 2)


@pytest.fixture(scope="module")
def corpus_programs():
    """(flow, name, num_pis, program, report) over the default corpus: area
    at k=4 on 256x32 and 16x16, delay at w_D=32 and one minimal tree per
    output."""
    out = []
    for name, net in default_corpus():
        for s_d, w_d in ((256, 32), (16, 16)):
            out.append(("area", name, net.num_pis,
                        *map_area(net, 4, s_d, w_d)))
        mig = aig_to_mig(net)
        out.append(("delay", name, net.num_pis, *map_delay(mig, 32)))
        for edge, output in zip(mig.outputs, mig.output_names):
            tree = normalize_mig(
                LogicNetwork("mig", mig.nodes, [edge], [output]))
            out.append(("minimal", name + "." + output, net.num_pis,
                        *map_minimal(tree)))
    return out


def test_builder_shares_one_object_per_distinct_instruction(corpus_programs):
    total = distinct = 0
    for flow, name, _, program, _ in corpus_programs:
        instrs = program.instructions
        assert len({id(i) for i in instrs}) == len(set(instrs)), (flow, name)
        if flow == "minimal":
            total += len(instrs)
            distinct += len(set(instrs))
    assert distinct < total // 4  # the minimal programs repeat themselves


def test_devices_used_counts_the_programs_devices(corpus_programs):
    flows = set()
    for flow, name, _, program, report in corpus_programs:
        devices = {(i.w, j) for i in program.instructions
                   if isinstance(i, ApplyInstr)
                   for j, pair in enumerate(i.pairs) if pair.valid}
        assert report.devices_used == len(devices), (flow, name)
        flows.add(flow)
    assert flows == {"area", "delay", "minimal"}


def _unshared(program: Program) -> Program:
    """The same program with every instruction and slot tuple its own
    object."""
    return Program(program.config,
                   [dataclasses.replace(i) for i in program.instructions],
                   {i: tuple(list(slots))
                    for i, slots in program.pir_schedule.items()},
                   dict(program.result_locations), program.num_pis)


def test_shared_objects_encode_and_run_like_fresh_ones(corpus_programs):
    for flow, name, num_pis, program, _ in corpus_programs:
        fresh = _unshared(program)
        assert len({id(i) for i in fresh.instructions}) == len(
            fresh.instructions)
        assert write_program(fresh) == write_program(program), (flow, name)
        masks, width = pi_patterns(num_pis), 1 << num_pis
        shared_run = run_vectors(program, masks, width, record_trace=True)
        fresh_run = run_vectors(fresh, masks, width, record_trace=True)
        assert fresh_run[0].dcm == shared_run[0].dcm, (flow, name)
        assert fresh_run[1].to_list() == shared_run[1].to_list(), (flow, name)
