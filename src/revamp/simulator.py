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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .isa import (SLOT_CONST0, SLOT_CONST1, SRC_PIR, ApplyInstr,
                  CrossbarConfig, Instruction, Program, ReadInstr, WsMode,
                  format_asm)

PIPELINE_FILL = 2


class SimulationError(RuntimeError):
    def __init__(self, message, index=None):
        if index is not None:
            message = "instruction %d: %s" % (index, message)
        super().__init__(message)
        self.index = index


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
        if not self.dcm:
            self.dcm = [[0] * self.config.w_d for _ in range(self.config.s_d)]
        if not self.dmr:
            self.dmr = [0] * self.config.w_d
        if not self.pir:
            self.pir = [0] * self.config.w_d

    def word_bits(self, w: int) -> list[int]:
        return list(self.dcm[w])


@dataclass
class TraceStep:
    index: int
    instruction: Instruction
    word: int | None  # word touched (read or applied)
    pre: list[int]
    post: list[int]
    dmr: list[int]
    dcm: list[list[int]] | None = None  # full grid, when state is recorded


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
                for w in reversed(range(len(s.dcm))):
                    lines.append("      w%-3d %s"
                                 % (w, " ".join(str(b) for b in s.dcm[w])))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> str:
        return json.dumps([{
            "index": s.index,
            "asm": format_asm(s.instruction),
            "word": s.word,
            "pre": s.pre,
            "post": s.post,
            "dmr": s.dmr,
            **({"dcm": s.dcm} if s.dcm is not None else {}),
        } for s in self.steps], indent=2)


def grid_dump(state: MachineState) -> str:
    """Crossbar contents, one row per wordline, highest wordline first."""
    rows = []
    for w in reversed(range(state.config.s_d)):
        rows.append("w%-3d %s" % (w, " ".join(str(b) for b in state.dcm[w])))
    return "\n".join(rows)


def exec_read(state: MachineState, w: int) -> MachineState:
    """Word readout into the data register; the stored word is untouched."""
    if not 0 <= w < state.config.s_d:
        raise SimulationError("read address %d out of range" % w)
    state.dmr = list(state.dcm[w])
    return state


def exec_apply(state: MachineState, instr: ApplyInstr,
               pir_vector: list[int] | None = None) -> MachineState:
    """Parallel device update of one word.

    ``pir_vector`` must be given when the instruction sources the PIR; it is
    latched into the input register first.  Only bitlines whose pair has
    v=1 are updated.
    """
    if not 0 <= instr.w < state.config.s_d:
        raise SimulationError("apply address %d out of range" % instr.w)
    full = state.full
    if instr.source == SRC_PIR:
        if pir_vector is None:
            raise SimulationError("apply sources the PIR but no vector given")
        state.pir = [v & full for v in pir_vector]
        source = state.pir
    else:
        source = state.dmr
    if instr.ws.mode == WsMode.ZERO:
        wl = 0
    elif instr.ws.mode == WsMode.ONE:
        wl = full
    else:
        wl = source[instr.ws.wb]
    row = state.dcm[instr.w]
    for j, pair in enumerate(instr.pairs):
        if pair.valid:
            row[j] = device_step(row[j], wl, source[pair.val], full)
    return state


def _resolve_slots(slots, input_masks, full):
    out = []
    for s in slots:
        if s == SLOT_CONST0:
            out.append(0)
        elif s == SLOT_CONST1:
            out.append(full)
        else:
            out.append(input_masks[s])
    return out


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
    trace = Trace()
    for i, instr in enumerate(program.instructions):
        try:
            if isinstance(instr, ReadInstr):
                pre = state.word_bits(instr.w)
                exec_read(state, instr.w)
                word = instr.w
            else:
                pir = None
                if instr.source == SRC_PIR:
                    pir = _resolve_slots(program.pir_schedule[i],
                                         input_masks, full)
                pre = state.word_bits(instr.w)
                exec_apply(state, instr, pir)
                word = instr.w
        except SimulationError as exc:
            raise SimulationError(str(exc), index=i) from None
        if record_trace:
            trace.steps.append(TraceStep(
                i, instr, word, pre, state.word_bits(word), list(state.dmr),
                [list(row) for row in state.dcm] if record_state else None))
        state.pc = i + 1
    state.cycles = len(program.instructions) + PIPELINE_FILL
    return state, trace


def run(program: Program, inputs=(), record_trace: bool = False,
        record_state: bool = False) -> tuple[MachineState, Trace]:
    """Execute a program for one concrete input assignment."""
    masks = [bit & 1 for bit in inputs]
    if len(masks) < program.num_pis:
        raise SimulationError("program needs %d inputs, got %d"
                              % (program.num_pis, len(masks)))
    return run_vectors(program, masks, 1, record_trace=record_trace,
                       record_state=record_state)
