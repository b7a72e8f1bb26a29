"""Cycle-level functional model of the crossbar machine.

State is the device matrix (one stored bit per wordline/bitline crossing),
the data register holding the last word read out, the input register and a
cycle counter.  The only compute primitive is the per-device state update

    Z' = M3(Z, wordline, not bitline)

i.e. a three-input majority with the bitline input complemented.  Driving
the wordline with 1 and the bitline with 0 sets a device, 0/1 resets it, and
the remaining combinations leave the state alone.

Execution is bit-parallel over test vectors: every stored bit is a Python
integer mask whose bit k is the value under input vector k.  Running a
single concrete assignment is the width-1 special case.  The fetch/decode/
execute pipeline is modelled as a flat two-cycle fill, so a T-instruction
program takes T + 2 cycles.

:func:`run_vectors` checks a program once, up front: ``Program.validate()``
admits every address, source, wordline select, ``val`` and PIR schedule
entry, and the input count is checked against ``num_pis``.  One unchecked
loop then executes the instructions, traced or not.  The program builder
shares one object among all equal instructions, so the loop turns each
distinct instruction object into an op tuple once per run,

    (w, mode, wb, from_pir, lines)

where ``mode`` is the wordline select as a plain int (``None`` for a Read)
and ``lines`` lists the valid ``(bitline, val)`` pairs of an Apply.  Each
shared PIR slot tuple is likewise turned into its input masks once.  The
device update is then written out per wordline mode, with ``nbl = full ^ bl``
and, for FROM_SOURCE, ``wl`` the source's bit ``wb``:

    ZERO         z & nbl
    ONE          z | nbl
    FROM_SOURCE  (z & (wl | nbl)) | (wl & nbl)

Each equals ``device_step(z, wl, bl, full)`` because every mask the loop
sees lies within ``full``: the input masks are cut to ``full``, the constant
slots are 0 and ``full``, the data register is a copy of a row, rows start
at 0, and each update keeps them within ``full``.  :func:`device_step` stays
the reference for the three forms.  A machine state refuses a geometry of
more than ``MAX_DEVICES`` devices before it allocates anything, since a
container header may declare any ``S_D`` and ``w_D`` that fit its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .isa import (SLOT_CONST0, SLOT_CONST1, SRC_PIR, CrossbarConfig,
                  Instruction, Program, ReadInstr, WsMode, format_asm)

PIPELINE_FILL = 2

# Largest device matrix a machine state allocates: four 1024x1024 crossbars.
MAX_DEVICES = 1 << 22


class SimulationError(RuntimeError):
    pass


def device_step(z: int, wl: int, bl: int, full: int = 1) -> int:
    """Next device state M3(Z, wl, not bl), mask-parallel over ``full``."""
    nbl = full & ~bl
    return (z & wl) | (z & nbl) | (wl & nbl)


@dataclass
class MachineState:
    config: CrossbarConfig
    dcm: list[list[int]] = field(default_factory=list)
    dmr: list[int] = field(default_factory=list)
    pir: list[int] = field(default_factory=list)
    pc: int = 0
    cycles: int = 0
    full: int = 1  # all-ones mask for the simulated vector width

    def __post_init__(self):
        s_d, w_d = self.config.s_d, self.config.w_d
        if s_d * w_d > MAX_DEVICES:
            raise SimulationError("a %dx%d crossbar has more than %d devices"
                                  % (s_d, w_d, MAX_DEVICES))
        if not self.dcm:
            self.dcm = [[0] * w_d for _ in range(s_d)]
        if not self.dmr:
            self.dmr = [0] * w_d
        if not self.pir:
            self.pir = [0] * w_d


@dataclass
class TraceStep:
    index: int
    instruction: Instruction
    word: int | None  # word touched (read or applied)
    pre: list[int]
    post: list[int]
    dmr: list[int]
    dcm: list[list[int]] | None = None  # full grid, when state is recorded


def _grid_rows(dcm: list[list[int]], indent: str = "") -> list[str]:
    """One line per wordline, highest wordline first."""
    return ["%sw%-3d %s" % (indent, w, " ".join(map(str, dcm[w])))
            for w in reversed(range(len(dcm)))]


@dataclass
class Trace:
    steps: list[TraceStep] = field(default_factory=list)

    def to_text(self, dump_state: bool = False) -> str:
        lines = []
        for s in self.steps:
            lines.append("%4d  %-40s word=%s pre=%s post=%s dmr=%s"
                         % (s.index, format_asm(s.instruction), s.word,
                            s.pre, s.post, s.dmr))
            if dump_state and s.dcm is not None:
                lines.extend(_grid_rows(s.dcm, " " * 6))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_list(self) -> list[dict]:
        return [{
            "index": s.index,
            "asm": format_asm(s.instruction),
            "word": s.word,
            "pre": s.pre,
            "post": s.post,
            "dmr": s.dmr,
            **({"dcm": s.dcm} if s.dcm is not None else {}),
        } for s in self.steps]


def grid_dump(state: MachineState) -> str:
    """Crossbar contents, one row per wordline, highest wordline first."""
    return "\n".join(_grid_rows(state.dcm))


_ZERO, _ONE = int(WsMode.ZERO), int(WsMode.ONE)


def _op(instr: Instruction) -> tuple:
    """The op tuple ``(w, mode, wb, from_pir, lines)`` of one instruction."""
    if isinstance(instr, ReadInstr):
        return instr.w, None, 0, False, ()
    # a pair with v=0 leaves its bitline's device alone
    lines = tuple((j, pair.val) for j, pair in enumerate(instr.pairs)
                  if pair.valid)
    return (instr.w, int(instr.ws.mode), instr.ws.wb,
            instr.source == SRC_PIR, lines)


def run_vectors(program: Program, input_masks: list[int], width: int,
                record_trace: bool = False, record_state: bool = False
                ) -> tuple[MachineState, Trace]:
    """Execute a program over ``width`` input vectors at once.

    ``input_masks[i]`` packs the value of primary input i across all
    vectors.  Returns the final state and (optionally populated) trace;
    ``record_state`` additionally snapshots the whole grid per step.
    ``cycles`` is the instruction count plus the pipeline fill.
    """
    program.validate()
    if len(input_masks) < program.num_pis:
        raise SimulationError("program needs %d inputs, got %d"
                              % (program.num_pis, len(input_masks)))
    full = (1 << width) - 1
    state = MachineState(program.config, full=full)
    dcm = state.dcm
    slot_masks = {i: input_masks[i] & full for i in range(program.num_pis)}
    slot_masks[SLOT_CONST0] = 0
    slot_masks[SLOT_CONST1] = full
    trace = Trace()
    ops = {}  # id of an instruction -> its op tuple (see the module doc)
    pir_of = {}  # id of a slot tuple -> the PIR it loads (never mutated)
    schedule = program.pir_schedule
    dmr, pir = state.dmr, state.pir
    for i, instr in enumerate(program.instructions):
        op = ops.get(id(instr))
        if op is None:
            op = ops[id(instr)] = _op(instr)
        w, mode, wb, from_pir, lines = op
        row = dcm[w]
        if record_trace:
            pre = list(row)
        if mode is None:
            dmr = list(row)  # a read leaves the stored word untouched
        else:
            if from_pir:
                slots = schedule[i]
                source = pir_of.get(id(slots))
                if source is None:
                    source = pir_of[id(slots)] = [slot_masks[s]
                                                  for s in slots]
                pir = source
            else:
                source = dmr
            if mode == _ZERO:
                for j, val in lines:
                    row[j] &= full ^ source[val]
            elif mode == _ONE:
                for j, val in lines:
                    row[j] |= full ^ source[val]
            else:
                wl = source[wb]
                for j, val in lines:
                    nbl = full ^ source[val]
                    row[j] = (row[j] & (wl | nbl)) | (wl & nbl)
        if record_trace:
            trace.steps.append(TraceStep(
                i, instr, w, pre, list(row), list(dmr),
                [list(r) for r in dcm] if record_state else None))
    state.dmr, state.pir = dmr, pir
    state.pc = len(program.instructions)
    state.cycles = state.pc + PIPELINE_FILL
    return state, trace


def run(program: Program, inputs=(), record_trace: bool = False,
        record_state: bool = False) -> tuple[MachineState, Trace]:
    """Execute a program for one concrete input assignment."""
    return run_vectors(program, [bit & 1 for bit in inputs], 1,
                       record_trace=record_trace, record_state=record_state)
