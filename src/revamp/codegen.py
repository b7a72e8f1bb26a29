"""Program construction shared by the area, depth-bounded and delay flows.

Every flow emits the same two-instruction program through one
:class:`ProgramBuilder`, and reads its instruction counts and cycle count
from the same place.  The builder does not validate what it builds: the
program is checked where it is encoded (``isa.write_program``) or executed
(``simulator.run_vectors``).

The flows' programs are long and repetitive, so the builder interns: equal
instructions are one shared (immutable) object, and a PIR Apply shares its
slot tuple too.  The encoder, the validator and the simulator key their
per-instruction work by object, so each does it once per distinct
instruction.

A flow that emits the same stretch of program more than once can replay
it: ``replay(start, end, state)`` re-appends instructions ``start..end-1``
of the builder's own list with their PIR slot schedules, and sets the
read-elision state (``read_state``) to ``state``, the one the stretch's
first emission ended in.  What the builder appends depends only on the
calls made and on the read state they begin in, so replaying a stretch
from the read state it began in appends exactly what making its calls
again would.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

from .isa import (SLOT_CONST0, SLOT_CONST1, SRC_DMR, SRC_PIR, ApplyInstr,
                  BitlinePair, CrossbarConfig, Program, ReadInstr,
                  WordlineSelect, WsMode)
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
        # wires) -> instruction, or (instruction, slots) from the PIR.  The
        # wires fix the pairs and, in sorted order, the PIR slot positions.
        # A PIR Apply's slots are not part of it, so each is also kept
        # under (w, source, mode, None, sorted bitline -> position pairs),
        # and the values hold each distinct Apply.
        self._interned = {}
        self._dmr_word = None  # word a Read would be redundant for
        self._dmr_loaded = False
        self._pir_at = []  # indices of PIR Applies, ascending
        self._read_at = []  # indices of Reads, ascending
        # devices (w, j) that some Apply drives through a valid pair,
        # recorded as each distinct Apply is made
        self.touched: set[tuple[int, int]] = set()
        # instructions the flow counts as staging (the area flow's bank)
        self.i_staging = 0

    def counts(self) -> dict[str, int]:
        """Instruction mix and cycle count, keyed as in ``MappingReport``."""
        i_total = len(self.instructions)
        i_read = len(self._read_at)
        return {"i_apply": i_total - i_read, "i_read": i_read,
                "i_total": i_total, "cycles": i_total + PIPELINE_FILL}

    @property
    def read_state(self) -> tuple[int | None, bool]:
        """What the next Read may skip: ``(mirrored word, anything read)``."""
        return self._dmr_word, self._dmr_loaded

    def replay(self, start: int, end: int, state: tuple[int | None, bool]):
        """Append instructions ``start..end-1`` again and set the read state.

        ``state`` is the ``read_state`` the first emission of the stretch
        ended in.  A stretch is kept as a range, not a copied list, so a
        flow can remember every stretch it emitted at no cost in memory.
        """
        shift = len(self.instructions) - start
        self.instructions.extend(self.instructions[start:end])
        moved_pir = _shifted(self._pir_at, start, end, shift)
        schedule = self.pir_schedule
        for i in moved_pir:
            schedule[i] = schedule[i - shift]
        self._pir_at.extend(moved_pir)
        self._read_at.extend(_shifted(self._read_at, start, end, shift))
        self._dmr_word, self._dmr_loaded = state

    def read(self, w: int):
        if self._dmr_word == w:
            return
        instr = self._interned.get(w)
        if instr is None:
            instr = self._interned[w] = ReadInstr(w)
        self._read_at.append(len(self.instructions))
        self.instructions.append(instr)
        self._dmr_word = w
        self._dmr_loaded = True

    def _pairs(self, wires: dict[int, int]) -> tuple[BitlinePair, ...]:
        lay = self.config.layout
        pairs = [lay.nop_pair] * self.config.w_d
        for j, val in wires.items():
            pairs[j] = lay.valid_pairs[val]
        return tuple(pairs)

    def apply_from_dmr(self, w: int, mode: WsMode, wires: dict[int, int],
                       wb: int = 0):
        if not self._dmr_loaded:
            raise RuntimeError("apply from DMR before any readout")
        key = (w, SRC_DMR, mode, wb, tuple(sorted(wires.items())))
        instr = self._interned.get(key)
        if instr is None:
            instr = self._interned[key] = ApplyInstr(
                w, SRC_DMR, _select(mode, wb), self._pairs(wires))
            for j in wires:
                self.touched.add((w, j))
        self.instructions.append(instr)
        if w == self._dmr_word:
            self._dmr_word = None

    def apply_from_pir(self, w: int, mode: WsMode, wires: dict[int, int]):
        """Apply with PIR wires given as slot codes (PI index or constant)."""
        key = (w, SRC_PIR, mode, 0, tuple(sorted(wires.items())))
        entry = self._interned.get(key)
        if entry is None:
            entry = self._interned[key] = self._pir_apply(w, mode, key[4])
        instr, slots = entry
        self._pir_at.append(len(self.instructions))
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
        wire_vals = {}
        for j, code in wires:
            if code not in position:
                if len(position) >= self.config.w_d:
                    raise RuntimeError("more distinct PIR wires than lines")
                position[code] = len(position)
                slots[position[code]] = code
            wire_vals[j] = position[code]
        # wires of other PIs at the same positions share one instruction
        key = (w, SRC_PIR, mode, None, tuple(wire_vals.items()))
        instr = self._interned.get(key)
        if instr is None:
            instr = self._interned[key] = ApplyInstr(
                w, SRC_PIR, _select(mode, 0), self._pairs(wire_vals))
            for j in wire_vals:
                self.touched.add((w, j))
        return instr, tuple(slots)

    def reset_bits(self, w: int, bits):
        bits = list(bits)
        if bits:
            self.apply_from_pir(w, WsMode.ZERO, {b: SLOT_CONST1 for b in bits})

    def finish(self) -> Program:
        return Program(self.config, self.instructions, self.pir_schedule,
                       self.result_locations, self.num_pis)


def _shifted(at: list[int], start: int, end: int, shift: int) -> list[int]:
    """The ascending indices of ``at`` in ``start..end-1``, plus ``shift``."""
    return [i + shift for i in at[bisect_left(at, start):bisect_left(at, end)]]
