import itertools
import json

import pytest

from conftest import two_bit_xor_program
from revamp.isa import (SLOT_CONST0, SLOT_CONST1, SRC_PIR, ApplyInstr,
                        BitlinePair, CrossbarConfig, IsaError, Program,
                        ReadInstr, WordlineSelect, WsMode, read_program,
                        write_program)
from revamp.simulator import (MAX_DEVICES, SimulationError, device_step, run,
                              run_vectors)


def brute_majority(a, b, c):
    return 1 if a + b + c >= 2 else 0


def test_device_step_full_truth_table():
    for z, wl, bl in itertools.product((0, 1), repeat=3):
        assert device_step(z, wl, bl) == brute_majority(z, wl, 1 - bl)


def test_device_step_set_and_reset():
    assert device_step(0, 1, 0) == 1  # set
    assert device_step(1, 0, 1) == 0  # reset
    assert device_step(0, 1, 1) == 0  # hold
    assert device_step(1, 1, 1) == 1  # hold


def test_device_step_mask_parallel():
    full = 0b1111
    z, wl, bl = 0b0011, 0b0101, 0b0110
    expect = 0
    for k in range(4):
        expect |= brute_majority((z >> k) & 1, (wl >> k) & 1,
                                 1 - ((bl >> k) & 1)) << k
    assert device_step(z, wl, bl, full) == expect


def _pairs(*vals):
    """Apply pairs: an int is a valid pair reading that PIR line, None a nop."""
    return tuple(BitlinePair(False, 0) if v is None else BitlinePair(True, v)
                 for v in vals)


def test_read_is_non_destructive():
    cfg = CrossbarConfig(4, 4)
    # a wordline driven to 1 stores the complemented bitlines: word 2 <- not p
    load = ApplyInstr(2, SRC_PIR, WordlineSelect(WsMode.ONE, 0),
                      _pairs(0, 1, 2, 3))
    prog = Program(cfg, [load, ReadInstr(2)], {0: (0, 1, 2, 3)}, {}, 4)
    state, trace = run(prog, [0, 1, 0, 0], record_trace=True)
    assert state.dmr == [1, 0, 1, 1]
    assert state.dcm[2] == [1, 0, 1, 1]
    assert trace.steps[1].pre == trace.steps[1].post == [1, 0, 1, 1]


def test_apply_touches_only_valid_pairs():
    cfg = CrossbarConfig(4, 4)
    one = WordlineSelect(WsMode.ONE, 0)
    zeros = (SLOT_CONST0,) * 4
    prog = Program(cfg, [
        ApplyInstr(0, SRC_PIR, one, _pairs(0, 1, 2, 3)),  # word 0 <- 1111
        ApplyInstr(1, SRC_PIR, one, _pairs(None, 1, None, 3)),  # 0101
        ApplyInstr(1, SRC_PIR, one, _pairs(0, None, 1, None)),
    ], {0: zeros, 1: zeros,
        2: (SLOT_CONST0, SLOT_CONST1, SLOT_CONST0, SLOT_CONST0)}, {}, 0)
    state, trace = run(prog, record_trace=True)
    assert trace.steps[2].pre == [0, 1, 0, 1]
    assert state.pir == [0, 1, 0, 0]
    assert state.dcm[1] == [1, 1, 0, 1]  # bitlines 1 and 3 untouched
    assert state.dcm[0] == [1, 1, 1, 1]  # other words untouched


def test_apply_requires_pir_vector():
    cfg = CrossbarConfig(2, 2)
    instr = ApplyInstr(0, SRC_PIR, WordlineSelect(WsMode.ONE, 0),
                       _pairs(0, 1))
    with pytest.raises(IsaError, match="no schedule entry"):
        run(Program(cfg, [instr], {}, {}, 0))


def test_device_matrix_is_bounded():
    cfg = CrossbarConfig(2, MAX_DEVICES // 2 + 1)
    back = read_program(write_program(Program(cfg, [], {}, {}, 0)))
    assert back.config == cfg
    with pytest.raises(SimulationError, match="2x%d" % cfg.w_d):
        run(back)


def test_container_with_huge_word_count_is_refused():
    data = write_program(Program(CrossbarConfig(2**32 - 1, 2), [], {}, {}, 0))
    with pytest.raises(SimulationError, match="4294967295x2"):
        run(read_program(data))


def test_empty_program_cycles():
    prog = Program(CrossbarConfig(4, 2), [], {}, {}, num_pis=0)
    state, _ = run(prog, [])
    assert state.cycles == 2
    assert all(all(b == 0 for b in row) for row in state.dcm)


def test_out_of_range_address_names_instruction():
    from revamp.isa import IsaError
    cfg = CrossbarConfig(2, 2)
    prog = Program(cfg, [ReadInstr(1), ReadInstr(1)], {}, {}, 0)
    prog.instructions.append(ReadInstr(5))
    with pytest.raises(IsaError, match="instruction 2"):
        run(prog, [])


def test_two_bit_xor_all_inputs():
    prog = two_bit_xor_program()
    for p1, p0, q1, q0 in itertools.product((0, 1), repeat=4):
        state, _ = run(prog, [p1, p0, q1, q0])
        assert state.dcm[2][0] == p1 ^ q1
        assert state.dcm[2][1] == p0 ^ q0
        assert state.cycles == 10


def test_two_bit_xor_panel_snapshots():
    prog = two_bit_xor_program()
    for p1, p0, q1, q0 in itertools.product((0, 1), repeat=4):
        _, trace = run(prog, [p1, p0, q1, q0], record_trace=True)
        after = {s.index: s.post for s in trace.steps}
        assert after[0] == [1 - p1, 1 - p0]            # word0 holds not p
        assert after[2] == [p1, p0]                    # word2 holds p
        assert after[3] == [p1, p0]                    # word1 holds p
        assert after[4] == [p1 & (1 - q1), p0 & (1 - q0)]
        assert after[5] == [p1 | (1 - q1), p0 | (1 - q0)]
        assert after[7] == [p1 ^ q1, p0 ^ q0]


def test_two_bit_xor_vectorized_matches_scalar():
    prog = two_bit_xor_program()
    width = 16
    masks = [0, 0, 0, 0]
    for k in range(width):
        bits = [(k >> i) & 1 for i in range(4)]
        for i in range(4):
            masks[i] |= bits[i] << k
    state, _ = run_vectors(prog, masks, width)
    for k in range(width):
        p1, p0, q1, q0 = ((k >> i) & 1 for i in range(4))
        assert (state.dcm[2][0] >> k) & 1 == p1 ^ q1
        assert (state.dcm[2][1] >> k) & 1 == p0 ^ q0


def test_trace_exports():
    prog = two_bit_xor_program()
    _, trace = run(prog, [1, 0, 1, 1], record_trace=True)
    text = trace.to_text()
    assert "Apply" in text and "Read" in text
    steps = json.loads(json.dumps(trace.to_list()))
    assert [s["index"] for s in steps] == list(range(len(prog.instructions)))


def test_cycles_is_instruction_count_plus_fill():
    prog = two_bit_xor_program()
    state, _ = run(prog, [0, 0, 0, 0])
    assert state.cycles == len(prog.instructions) + 2


def test_long_synthetic_program_cycles():
    # a 1116-instruction stream finishes in 1118 cycles
    cfg = CrossbarConfig(4, 2)
    prog = Program(cfg, [ReadInstr(i % 4) for i in range(1116)], {}, {}, 0)
    state, _ = run(prog, [])
    assert state.cycles == 1118


def test_per_step_state_recording():
    prog = two_bit_xor_program()
    _, trace = run(prog, [1, 1, 0, 1], record_trace=True, record_state=True)
    assert all(s.dcm is not None for s in trace.steps)
    assert "w2" in trace.to_text(dump_state=True)
    # last snapshot equals the final grid
    assert trace.steps[-1].dcm[2] == [1 ^ 0, 1 ^ 1]
