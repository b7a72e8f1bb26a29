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

:func:`run_vectors` refuses too few inputs and too large a crossbar, then
runs ``Program.validate`` and works from the distinct instructions it
returns.  The program builder shares one object among all equal
instructions, and the run makes one op tuple of each distinct instruction
object: a Read, a DMR Apply ``(w, mode, wb, lines)`` with the valid
``(bitline, val)`` pairs the instruction holds, or a PIR Apply.  The
device update is written out per wordline mode, with ``nbl = full ^ bl``
and, for FROM_SOURCE, ``wl`` the source's bit ``wb``:

    ZERO         z & nbl
    ONE          z | nbl
    FROM_SOURCE  (z & (wl | nbl)) | (wl & nbl)

Each equals ``device_step(z, wl, bl, full)`` because every mask the loop
sees lies within ``full``: the input masks are cut to ``full``, the constant
slots are 0 and ``full``, the data register is a copy of a row, rows start
at 0, and each update keeps them within ``full``.  :func:`device_step` stays
the reference for the three forms.

A PIR Apply's bitlines come from the input register, whose values are
fixed for the run.  So the run builds the mask of a slot (an input, 0 or
``full``) and its complement once, when it first looks the slot up, and
folds each distinct pair of a PIR Apply and slot tuple once into per-line
actions that refer to these shared masks.  With ``wl`` 0 (ZERO) a line
becomes ``z = 0`` when ``nbl`` is 0, is dropped when ``nbl`` is ``full``,
and is ``z &= nbl`` otherwise; with ``wl`` equal to ``full`` (ONE) it
becomes ``z = full``, is dropped when ``nbl`` is 0, or is ``z |= nbl``.  A
FROM_SOURCE line folds the same way when its wordline's mask is 0 or
``full``, and otherwise keeps the majority form with ``nbl`` from the
table.  A set or reset from a constant slot thus does no full-width work.
Applies from the data register stay as written above.

A machine state refuses a geometry of more than ``MAX_DEVICES`` devices
before it allocates anything, since a container header may declare any
``S_D`` and ``w_D`` that fit its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .isa import (SLOT_CONST0, SLOT_CONST1, SRC_PIR, CrossbarConfig,
                  Instruction, Program, ReadInstr, WsMode, format_asm)

PIPELINE_FILL = 2

# Largest device matrix a machine state allocates: four 1024x1024 crossbars.
MAX_DEVICES = 1 << 22


class SimulationError(ValueError):
    """A program or input the machine model refuses to run: bad input,
    reported like ``IsaError``, not a fault of the simulator."""


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

    def vector(self, k: int) -> MachineState:
        """The state under vector ``k`` of a bit-parallel run, width 1."""
        return MachineState(self.config, [_bits(r, k) for r in self.dcm],
                            _bits(self.dmr, k), _bits(self.pir, k), self.pc,
                            self.cycles)


def _bits(masks: list[int], k: int) -> list[int]:
    return [(m >> k) & 1 for m in masks]


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

    def vector(self, k: int) -> Trace:
        """The trace under vector ``k`` of a bit-parallel run."""
        return Trace([TraceStep(
            s.index, s.instruction, s.word, _bits(s.pre, k),
            _bits(s.post, k), _bits(s.dmr, k),
            None if s.dcm is None else [_bits(r, k) for r in s.dcm])
            for s in self.steps])

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
_READ, _PIR = -1, -2  # op codes beside the wordline modes
_SET, _AND, _OR, _MAJ = range(4)  # folded PIR line actions


def _op(instr: Instruction) -> tuple:
    """The op tuple ``(w, code, a, b)`` of a checked instruction.

    A Read is ``(w, _READ, None, None)`` and a DMR Apply ``(w, mode, wb,
    lines)``.  A PIR Apply is ``(w, _PIR, folds, (mode, wb, lines))``, where
    ``folds`` collects its folded lines per slot tuple as the run meets them.
    """
    if isinstance(instr, ReadInstr):
        return instr.w, _READ, None, None
    mode, wb = int(instr.ws.mode), instr.ws.wb
    if instr.source == SRC_PIR:
        return instr.w, _PIR, {}, (mode, wb, instr.lines)
    return instr.w, mode, wb, instr.lines


def _fold(apply: tuple, slots: tuple[int, ...], masks: dict, inv: dict,
          full: int) -> tuple:
    """A PIR Apply's lines under one slot tuple: ``(wl, actions)``.

    Each action is ``(j, kind, m)`` with ``m`` one of the run's shared
    masks; a line that holds its device is dropped (see the module doc).
    """
    mode, wb, lines = apply
    wl = 0 if mode == _ZERO else full if mode == _ONE else masks[slots[wb]]
    actions = []
    for j, val in lines:
        nbl = inv[slots[val]]
        if wl == 0:  # z & nbl
            if nbl != full:
                actions.append((j, _SET, 0) if nbl == 0 else (j, _AND, nbl))
        elif wl == full:  # z | nbl
            if nbl != 0:
                actions.append((j, _SET, full) if nbl == full
                               else (j, _OR, nbl))
        else:
            actions.append((j, _MAJ, nbl))
    return wl, tuple(actions)


class _Memo(dict):
    """A dict that makes a missing key's value with ``make`` and keeps it."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def run_vectors(program: Program, input_masks: list[int], width: int,
                record_trace: bool = False, record_state: bool = False
                ) -> tuple[MachineState, Trace]:
    """Execute a program over ``width`` input vectors at once.

    ``input_masks[i]`` packs the value of primary input i across all
    vectors.  Returns the final state and (optionally populated) trace;
    ``record_state`` additionally snapshots the whole grid per step.
    ``cycles`` is the instruction count plus the pipeline fill.  A program
    that fails a check of ``Program.validate`` raises its ``IsaError``.
    """
    cfg, num_pis = program.config, program.num_pis
    if len(input_masks) < num_pis:
        raise SimulationError("program needs %d inputs, got %d"
                              % (num_pis, len(input_masks)))
    full = (1 << width) - 1
    state = MachineState(cfg, full=full)
    dcm = state.dcm
    # the mask of each slot and its complement, made when first looked up
    masks = _Memo(lambda s: input_masks[s] & full)
    masks.update({SLOT_CONST0: 0, SLOT_CONST1: full})
    inv = _Memo(lambda s: full ^ masks[s])  # bitline complements
    trace = Trace()
    # id of each distinct instruction -> its op tuple (see _op)
    ops = {key: _op(instr) for key, instr in program.validate().items()}
    schedule = program.pir_schedule
    last_slots = None
    dmr = state.dmr
    for i, instr in enumerate(program.instructions):
        w, code, a, b = ops[id(instr)]
        row = dcm[w]
        if record_trace:
            pre = list(row)
        if code == _PIR:
            slots = last_slots = schedule[i]
            fold = a.get(id(slots))
            if fold is None:
                fold = a[id(slots)] = _fold(b, slots, masks, inv, full)
            wl, actions = fold
            for j, kind, m in actions:
                if kind == _SET:
                    row[j] = m
                elif kind == _AND:
                    row[j] &= m
                elif kind == _OR:
                    row[j] |= m
                else:
                    row[j] = (row[j] & (wl | m)) | (wl & m)
        elif code == _READ:
            dmr = list(row)  # a read leaves the stored word untouched
        elif code == _ZERO:
            for j, val in b:
                row[j] &= full ^ dmr[val]
        elif code == _ONE:
            for j, val in b:
                row[j] |= full ^ dmr[val]
        else:
            wl = dmr[a]
            for j, val in b:
                nbl = full ^ dmr[val]
                row[j] = (row[j] & (wl | nbl)) | (wl & nbl)
        if record_trace:
            trace.steps.append(TraceStep(
                i, instr, w, pre, list(row), list(dmr),
                [list(r) for r in dcm] if record_state else None))
    state.dmr = dmr
    if last_slots is not None:
        state.pir = [masks[s] for s in last_slots]
    state.pc = len(program.instructions)
    state.cycles = state.pc + PIPELINE_FILL
    return state, trace


def run(program: Program, inputs=(), record_trace: bool = False,
        record_state: bool = False) -> tuple[MachineState, Trace]:
    """Execute a program for one concrete input assignment."""
    return run_vectors(program, [bit & 1 for bit in inputs], 1,
                       record_trace=record_trace, record_state=record_state)
