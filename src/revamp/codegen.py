"""Program construction shared by the area, depth-bounded and delay flows.

Every flow emits the same two-instruction program through one
:class:`ProgramBuilder`, which also makes every flow's report (``report``).
The builder does not validate what it builds: ``Program.validate`` checks
the program where it is encoded (``isa.write_program``) or executed
(``simulator.run_vectors``).

The flows' programs are long and repetitive, so the builder interns: equal
instructions are one shared (immutable) object, made once by ``_apply``,
and a PIR Apply shares its slot tuple too; an Apply's ``lines`` are its
intern key's sorted ``(bitline, val)`` pairs.  The encoder, the validator
and the simulator key their per-instruction work by object, so each does
it once per distinct instruction.
"""

from __future__ import annotations

from functools import lru_cache

from .isa import (SLOT_CONST0, SLOT_CONST1, SRC_DMR, SRC_PIR, ApplyInstr,
                  CrossbarConfig, Program, ReadInstr, WordlineSelect, WsMode)
from .reports import MappingReport
from .simulator import PIPELINE_FILL


@lru_cache(maxsize=None)
def _select(mode: WsMode, wb: int) -> WordlineSelect:
    """One shared wordline select per (mode, wb), made on first use."""
    return WordlineSelect(mode, wb)


class ProgramBuilder:
    """Accumulates instructions, PIR slot schedules and result locations.

    Tracks which word the data register currently mirrors so redundant
    readouts are skipped; a write to the mirrored word forces a re-read.
    """

    def __init__(self, config: CrossbarConfig, num_pis: int):
        self.config = config
        self.num_pis = num_pis
        self.instructions = []
        self.pir_schedule = {}
        self.result_locations = {}
        # Read: w -> instruction.  Apply: (w, source, mode, wb, sorted
        # bitline -> wire pairs) -> instruction.  A PIR Apply's wires are
        # slot positions, as its slots are not part of it; the slot codes
        # it was asked for are kept under (w, SRC_PIR, mode, None, sorted
        # bitline -> code pairs) -> (instruction, slots), and in that order
        # they fix the positions.
        self._interned = {}
        self._dmr_word = None  # word a Read would be redundant for
        self._dmr_loaded = False
        self._reads = 0
        # devices (w, j) that some Apply drives through a valid pair,
        # recorded as each distinct Apply is made
        self.touched: set[tuple[int, int]] = set()
        # instructions the flow counts as staging (the area flow's bank)
        self.i_staging = 0

    def counts(self) -> dict[str, int]:
        """Instruction mix, cycle count and devices driven, keyed as in
        ``MappingReport``."""
        i_total = len(self.instructions)
        i_read = self._reads
        return {"i_apply": i_total - i_read, "i_read": i_read,
                "i_total": i_total, "cycles": i_total + PIPELINE_FILL,
                "devices_used": len(self.touched)}

    def report(self, flow: str, **fields) -> MappingReport:
        """The ``flow``'s report of this program: its inputs, geometry and
        ``counts()``, with the flow's own ``fields``."""
        return MappingReport(flow=flow, num_pis=self.num_pis,
                             s_d=self.config.s_d, w_d=self.config.w_d,
                             **self.counts(), **fields)

    @property
    def mirrored_word(self) -> int | None:
        """The word the data register mirrors, whose Read is skipped."""
        return self._dmr_word

    def read(self, w: int):
        if self._dmr_word == w:
            return
        instr = self._interned.get(w)
        if instr is None:
            instr = self._interned[w] = ReadInstr(w)
        self._reads += 1
        self.instructions.append(instr)
        self._dmr_word = w
        self._dmr_loaded = True

    def _apply(self, key: tuple) -> ApplyInstr:
        """The Apply of ``key``, (w, source, mode, wb, sorted (bitline, val)
        lines); made, and the devices it drives recorded, on first use."""
        instr = self._interned.get(key)
        if instr is None:
            w, source, mode, wb, lines = key
            self.touched.update((w, j) for j, _ in lines)
            instr = self._interned[key] = ApplyInstr(
                w, source, _select(mode, wb), lines, self.config.w_d)
        return instr

    def apply_from_dmr(self, w: int, mode: WsMode, wires: dict[int, int],
                       wb: int = 0):
        if not self._dmr_loaded:
            raise RuntimeError("apply from DMR before any readout")
        self.instructions.append(self._apply(
            (w, SRC_DMR, mode, wb, tuple(sorted(wires.items())))))
        if w == self._dmr_word:
            self._dmr_word = None

    def apply_from_pir(self, w: int, mode: WsMode, wires: dict[int, int]):
        """Apply with PIR wires given as slot codes (PI index or constant)."""
        key = (w, SRC_PIR, mode, None, tuple(sorted(wires.items())))
        entry = self._interned.get(key)
        if entry is None:
            entry = self._interned[key] = self._pir_apply(w, mode, key[4])
        instr, slots = entry
        self.pir_schedule[len(self.instructions)] = slots
        self.instructions.append(instr)
        if w == self._dmr_word:
            self._dmr_word = None

    def _pir_apply(self, w: int, mode: WsMode,
                   wires: tuple[tuple[int, int], ...]
                   ) -> tuple[ApplyInstr, tuple[int, ...]]:
        """A PIR Apply and its slots; slot positions follow wire order."""
        slots = [SLOT_CONST0] * self.config.w_d
        position = {}
        lines = []
        for j, code in wires:
            if code not in position:
                if len(position) >= self.config.w_d:
                    raise RuntimeError("more distinct PIR wires than lines")
                position[code] = len(position)
                slots[position[code]] = code
            lines.append((j, position[code]))
        # wires of other PIs at the same positions share one instruction
        return self._apply((w, SRC_PIR, mode, 0, tuple(lines))), tuple(slots)

    def reset_bits(self, w: int, bits):
        bits = list(bits)
        if bits:
            self.apply_from_pir(w, WsMode.ZERO, {b: SLOT_CONST1 for b in bits})

    def finish(self) -> Program:
        return Program(self.config, self.instructions, self.pir_schedule,
                       self.result_locations, self.num_pis)

