import pytest

from revamp.areamap import map_area, map_minimal
from revamp.circuits import parity, ripple_adder
from revamp.codegen import ProgramBuilder
from revamp.delaymap import map_delay
from revamp.isa import (CrossbarConfig, IsaError, ReadInstr, WsMode,
                        write_program)
from revamp.netlist import aig_to_mig, normalize_mig
from revamp.simulator import PIPELINE_FILL, run_vectors


def test_counts_split_reads_and_applies():
    builder = ProgramBuilder(CrossbarConfig(3, 2), 1)
    assert builder.counts() == {"i_apply": 0, "i_read": 0, "i_total": 0,
                                "cycles": PIPELINE_FILL}
    builder.apply_from_pir(0, WsMode.ONE, {0: 0})
    builder.read(0)
    builder.read(0)  # redundant, skipped
    builder.apply_from_dmr(1, WsMode.ONE, {1: 0})
    assert builder.counts() == {"i_apply": 2, "i_read": 1, "i_total": 3,
                                "cycles": 3 + PIPELINE_FILL}


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
