import itertools
import json
import random
import struct
import time

import pytest

from conftest import apply_from_pairs, two_bit_xor_program
from revamp.isa import (SLOT_CONST0, SLOT_CONST1, SRC_DMR, SRC_PIR,
                        ApplyInstr, BitlinePair, CrossbarConfig, IsaError,
                        Program, ReadInstr, WordlineSelect, WsMode,
                        read_program, write_program)
from revamp.simulator import (MAX_DEVICES, PIPELINE_FILL, MachineState,
                              SimulationError, Trace, TraceStep, device_step,
                              run, run_vectors)


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


def _lines(*vals):
    """An Apply's ``(lines, width)``: an int is a valid pair reading that
    line, None a nop."""
    lines = tuple((j, v) for j, v in enumerate(vals) if v is not None)
    return lines, len(vals)


def test_read_is_non_destructive():
    cfg = CrossbarConfig(4, 4)
    # a wordline driven to 1 stores the complemented bitlines: word 2 <- not p
    load = ApplyInstr(2, SRC_PIR, WordlineSelect(WsMode.ONE, 0),
                      *_lines(0, 1, 2, 3))
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
        ApplyInstr(0, SRC_PIR, one, *_lines(0, 1, 2, 3)),  # word 0 <- 1111
        ApplyInstr(1, SRC_PIR, one, *_lines(None, 1, None, 3)),  # 0101
        ApplyInstr(1, SRC_PIR, one, *_lines(0, None, 1, None)),
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
                       *_lines(0, 1))
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


class _CountedMasks(list):
    """Input masks that record which inputs the simulator reads."""

    def __init__(self, masks):
        super().__init__(masks)
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


def test_only_the_inputs_a_program_looks_up_get_masks():
    """An empty container declaring MAX_PIS inputs runs at once (building
    a mask and a complement for every declared input took 0.3 s), and a
    program reads the masks of the inputs its PIR Applies use, no others,
    with the same final state as before."""
    from revamp.isa import MAX_PIS
    empty = Program(CrossbarConfig(4, 4), [], {}, {}, MAX_PIS)
    masks = _CountedMasks([0] * MAX_PIS)
    t0 = time.perf_counter()
    state, _ = run_vectors(empty, masks, 1)
    assert time.perf_counter() - t0 < 0.05
    assert masks.read == set() and state.cycles == PIPELINE_FILL

    one = WordlineSelect(WsMode.ONE, 0)
    prog = Program(CrossbarConfig(2, 2), [
        ApplyInstr(0, SRC_PIR, one, *_lines(0, 1)),
        ApplyInstr(1, SRC_PIR, one, *_lines(1, None)),
    ], {0: (3, SLOT_CONST1), 1: (SLOT_CONST0, 7)}, {}, 10)
    masks = _CountedMasks([0b01, 0b10, 0, 0b11, 0, 0, 0, 0b10, 0, 0])
    state, trace = run_vectors(prog, masks, 2, record_trace=True)
    assert masks.read == {3, 7}
    assert state.dcm == [[0b00, 0b00], [0b01, 0]]
    assert state.pir == [0, 0b10]
    assert [s.post for s in trace.steps] == [[0, 0], [0b01, 0]]


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


# -- differential check of the loop against device_step ---------------------

def _reference_run_vectors(program, input_masks, width, record_trace=False,
                           record_state=False):
    """Reference loop without memos: the wordline is resolved per
    instruction and each valid pair takes one ``device_step`` call."""
    program.validate()
    full = (1 << width) - 1
    state = MachineState(program.config, full=full)
    dcm = state.dcm
    slot_masks = {i: input_masks[i] & full for i in range(program.num_pis)}
    slot_masks[SLOT_CONST0] = 0
    slot_masks[SLOT_CONST1] = full
    trace = Trace()
    for i, instr in enumerate(program.instructions):
        row = dcm[instr.w]
        if record_trace:
            pre = list(row)
        if isinstance(instr, ReadInstr):
            state.dmr = list(row)
        else:
            if instr.source == SRC_PIR:
                source = state.pir = [slot_masks[s]
                                      for s in program.pir_schedule[i]]
            else:
                source = state.dmr
            mode = instr.ws.mode
            wl = (0 if mode == WsMode.ZERO else full if mode == WsMode.ONE
                  else source[instr.ws.wb])
            for j, pair in enumerate(instr.pairs):
                if pair.valid:
                    row[j] = device_step(row[j], wl, source[pair.val], full)
        if record_trace:
            trace.steps.append(TraceStep(
                i, instr, instr.w, pre, list(row), list(state.dmr),
                [list(r) for r in dcm] if record_state else None))
    state.pc = len(program.instructions)
    state.cycles = state.pc + PIPELINE_FILL
    return state, trace


def _random_program(rng):
    """A valid program with shared instruction objects and slot tuples.

    One slot tuple alternates the two constants, so PIR lines with a
    constant bitline, and FROM_SOURCE lines with a constant wordline, come
    up in every wordline mode."""
    s_d, w_d = rng.randint(1, 6), rng.randint(2, 8)
    num_pis = rng.randint(0, 4)
    slot_choices = [SLOT_CONST0, SLOT_CONST1, *range(num_pis)]
    slot_pool = [tuple(rng.choice(slot_choices) for _ in range(w_d))
                 for _ in range(3)]
    slot_pool.append(tuple(SLOT_CONST0 if j % 2 else SLOT_CONST1
                           for j in range(w_d)))
    pool = []
    for _ in range(rng.randint(2, 8)):
        w = rng.randrange(s_d)
        if rng.random() < 0.2:
            pool.append(ReadInstr(w))
            continue
        ws = WordlineSelect(rng.choice(list(WsMode)), rng.randrange(w_d))
        pool.append(apply_from_pairs(
            w, rng.choice((SRC_PIR, SRC_DMR)), ws,
            tuple(BitlinePair(rng.random() < 0.7, rng.randrange(w_d))
                  for _ in range(w_d))))
    instrs, schedule = [], {}
    for i in range(rng.randint(1, 60)):
        instr = rng.choice(pool)
        instrs.append(instr)
        if isinstance(instr, ApplyInstr) and instr.source == SRC_PIR:
            schedule[i] = rng.choice(slot_pool)
    return Program(CrossbarConfig(s_d, w_d), instrs, schedule, {}, num_pis)


@pytest.mark.parametrize("width", [1, 7, 64, 300])
def test_loop_matches_device_step_reference(width):
    rng = random.Random(width)
    kinds, const_lines = set(), set()
    for _ in range(80):
        prog = _random_program(rng)
        masks = [rng.getrandbits(width + 3) for _ in range(prog.num_pis)]
        for record in (False, True):
            want, want_trace = _reference_run_vectors(prog, masks, width,
                                                      record, record)
            got, got_trace = run_vectors(prog, masks, width, record, record)
            assert (got.dcm, got.dmr, got.pir, got.cycles) == (
                want.dcm, want.dmr, want.pir, want.cycles)
            assert got_trace.to_list() == want_trace.to_list()
        kinds.update((i.ws.mode, i.source) for i in prog.instructions
                     if isinstance(i, ApplyInstr))
        for i, instr in enumerate(prog.instructions):
            if isinstance(instr, ApplyInstr) and instr.source == SRC_PIR:
                slots = prog.pir_schedule[i]
                const_lines.update((instr.ws.mode, slots[val])
                                   for _, val in instr.lines
                                   if slots[val] < 0)
    # every wordline mode ran from both sources, and every mode met both
    # constants on a PIR bitline, where the simulator folds the line
    assert kinds == set(itertools.product(WsMode, (SRC_PIR, SRC_DMR)))
    assert const_lines == set(itertools.product(
        WsMode, (SLOT_CONST0, SLOT_CONST1)))


# -- Program.validate applies every rule, for each of its callers ----------

_BOTH = ((0, 0), (1, 1))


def _set_instruction(i, instr):
    def mutate(prog):
        prog.instructions[i] = instr
    return mutate


def _set_entry(i, slots):
    def mutate(prog):
        prog.pir_schedule[i] = slots
    return mutate


def _drop_entry(prog):
    del prog.pir_schedule[4]


def _move_result(prog):
    prog.result_locations["x0"] = (3, 0)


def _both(*mutations):
    def mutate(prog):
        for m in mutations:
            m(prog)
    return mutate


# defects in the two-bit XOR program (3x2 crossbar, 4 inputs), one each
# but the last
_DEFECTS = {
    "read address": (_set_instruction(6, ReadInstr(3)),
                     "instruction 6: read address 3 out of range"),
    "apply address": (_set_instruction(
        2, ApplyInstr(3, SRC_DMR, WordlineSelect(WsMode.ONE, 0), _BOTH,
                      2)),
        "instruction 2: apply address 3 out of range"),
    "wb": (_set_instruction(7, ApplyInstr(
        2, SRC_DMR, WordlineSelect(WsMode.FROM_SOURCE, 2), _BOTH, 2)),
        "instruction 7: wb 2 out of range"),
    "val": (_set_instruction(5, ApplyInstr(
        1, SRC_PIR, WordlineSelect(WsMode.ONE, 0), ((0, 0), (1, 2)), 2)),
        "instruction 5: val 2 out of range"),
    "pair count": (_set_instruction(3, ApplyInstr(
        1, SRC_DMR, WordlineSelect(WsMode.ONE, 0), _BOTH[:1], 1)),
        "instruction 3: apply needs exactly 2 (v val) pairs, got 1"),
    "bitline order": (_set_instruction(3, ApplyInstr(
        1, SRC_DMR, WordlineSelect(WsMode.ONE, 0), _BOTH[::-1], 2)),
        "instruction 3: bitline 0 out of order or out of range"),
    "missing entry": (_drop_entry, "instruction 4 sources the PIR but has "
                      "no schedule entry"),
    "short slots": (_set_entry(4, (2,)),
                    "schedule entry 4 has 1 slots, want 2"),
    "bad slot": (_set_entry(5, (2, 4)),
                 "schedule entry 5 references bad slot 4"),
    "unused bad entry": (_set_entry(9, (SLOT_CONST1 - 1, 0)),
                         "schedule entry 9 references bad slot -3"),
    "result": (_move_result, "result 'x0' at (3,0) is out of range"),
    # two defects: the instruction rules run before the table rules, even
    # where the bad entry comes first in the instruction stream
    "bad slot and wb": (_both(_set_entry(4, (2, 4)), _set_instruction(
        7, ApplyInstr(2, SRC_DMR, WordlineSelect(WsMode.FROM_SOURCE, 2),
                      _BOTH, 2))),
        "instruction 7: wb 2 out of range"),
}


@pytest.mark.parametrize("defect", sorted(_DEFECTS))
def test_every_check_names_the_defect_alike(defect):
    mutate, message = _DEFECTS[defect]
    prog = two_bit_xor_program()
    mutate(prog)
    got = []
    for check in (prog.validate, lambda: write_program(prog),
                  lambda: run_vectors(prog, [0b01, 0b10, 0b11, 0b00], 2),
                  lambda: run_vectors(prog, [1, 0, 1, 1], 1, True, True)):
        with pytest.raises(IsaError) as info:
            check()
        got.append(str(info.value))
    assert got == [message] * 4


def _only_entry_program():
    """Reads, one PIR Apply at index 1 and its schedule entry."""
    load = ApplyInstr(1, SRC_PIR, WordlineSelect(WsMode.ONE, 0),
                      *_lines(0, None))
    return Program(CrossbarConfig(2, 2), [ReadInstr(0), load, ReadInstr(1)],
                   {1: (0, SLOT_CONST0)}, {"f": (1, 0)}, 1)


def _entry_count_offset(prog):
    """Header (magic, five fields, instruction count), then instructions."""
    return 28 + len(prog.instructions) * ((prog.config.w_i + 7) // 8)


def test_container_without_its_only_schedule_entry():
    prog = _only_entry_program()
    data = write_program(prog)
    assert run(read_program(data), [1])[0].dcm[1][0] == 0
    at = _entry_count_offset(prog)
    assert struct.unpack_from("<I", data, at) == (1,)
    cut = data[:at] + struct.pack("<I", 0) + data[at + 4 + 4 + 2 * 4:]
    with pytest.raises(IsaError, match="^instruction 1 sources the PIR but "
                                       "has no schedule entry$"):
        read_program(cut)


@pytest.mark.parametrize("slot, result, message, entry", [
    (1, (1, 0), "schedule entry 1 references bad slot 1", 1),
    (0, (1, 2), "result 'f' at (1,2) is out of range", 1),
    (1, (1, 0), "schedule entry 2 references bad slot 1", 2),
])
def test_container_with_one_bad_table_entry(slot, result, message, entry):
    """A bad slot, in the entry of the PIR Apply or in one no PIR Apply
    uses, or a bad result location in a container: the message of
    ``Program.validate`` on the same program."""
    prog = _only_entry_program()
    prog.pir_schedule[2] = (0, SLOT_CONST0)  # instruction 2 is a Read
    data = bytearray(write_program(prog))
    # entries of an index and two slots follow their count; the result's
    # bit is last
    at = _entry_count_offset(prog) + 4 + 12 * (entry - 1) + 4
    struct.pack_into("<i", data, at, slot)
    struct.pack_into("<I", data, len(data) - 4, result[1])
    prog.pir_schedule[entry] = (slot, SLOT_CONST0)
    prog.result_locations["f"] = result
    with pytest.raises(IsaError) as want:
        prog.validate()
    assert str(want.value) == message
    with pytest.raises(IsaError) as got:
        read_program(bytes(data))
    assert str(got.value) == message
