"""Instruction set of the two-instruction crossbar machine.

The machine executes ``Read`` (copy one stored word into the data register)
and ``Apply`` (update selected devices of one word in parallel).  This module
defines the structured instruction records, the crossbar geometry, the
bit-exact binary encoding, a one-line-per-instruction assembly printer and
a binary program container.  Assembly is output only (``format_asm``,
``Program.to_asm``); programs are read back from the container.

Encoding layout (fields concatenated most-significant first, zero padded on
the right up to the instruction-memory word width):

    Read:   opcode(1)=0 | w
    Apply:  opcode(1)=1 | w | s(1) | ws(2) | wb | (v val) * w_D

``w`` takes ceil(log2(S_D)) bits, ``wb`` and every ``val`` take
ceil(log2(w_D)) bits.  ``ws`` selects the wordline input: 00 drives logic 0,
01 drives logic 1, 11 drives bit ``wb`` of the selected source; 10 is
invalid.  A pair with v=0 leaves its bitline's device untouched.

An Apply holds only its valid pairs, ``lines``, as ascending ``(bitline,
val)``, so every layer works per valid pair, not per bitline.  A geometry's
:class:`CodecLayout`, cached on its :class:`CrossbarConfig`, holds each
field's shift: the encoder ORs each valid pair in at its shift, and the
decoder walks the pair field's set bits from the top, in bitline order,
refusing a v=0 pair with a val.  :func:`read_program` decodes each distinct
word once, by a per-call memo from its bytes, and repeats share the
(immutable) instruction; PIR slot tuples are shared the same way.

A program's rules are applied in one place, ``Program.validate``: the
declared input count, then each distinct instruction object it does not
hold as checked, then the tables (:meth:`Program.check_tables`): a
schedule entry for every PIR Apply, each distinct slot tuple in range and
every result location a device.  The first broken rule raises, so
``validate``, :func:`write_program` and ``simulator.run_vectors`` name the
same defect of a program.  ``validate`` returns the distinct instructions
by id, and the other two work from that: :func:`write_program` packs each
distinct instruction once, and ``run_vectors`` makes one op of each.  A
program holds the instruction objects that passed, for its config object,
so a program written and then run checks each instruction once; the input
count and the mutable tables are checked on every call.
:func:`read_program` builds its instructions with ``decode``, which checks
every field (the decoder's wordline selects come from :func:`select`, as
the program builder's do), and holds them as checked after its table check.

A container header is untrusted until bounded: its input count must not
exceed ``MAX_PIS``, and the instruction table must fit in the bytes that
follow it before any instruction is decoded or the codec layout (a shift
per bitline) is built; an empty program builds none.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property, lru_cache

MAGIC = b"RVMP"

# PIR slot codes used in a program's input schedule: a slot is either a
# primary-input index (>= 0) or one of these constants.
SLOT_CONST0 = -1
SLOT_CONST1 = -2

SRC_PIR = 0
SRC_DMR = 1

# Most primary inputs a program declares.  The container field holds up to
# 2^32 - 1, and running a program builds one input mask per PI, referenced
# or not, so a header is refused above this before anything is built.
MAX_PIS = 1 << 20


class IsaError(ValueError):
    pass


class DecodeError(IsaError):
    pass


def _clog2(n: int) -> int:
    return max(1, (n - 1).bit_length()) if n > 1 else 0


class WsMode(IntEnum):
    ZERO = 0b00
    ONE = 0b01
    FROM_SOURCE = 0b11


@dataclass(frozen=True)
class WordlineSelect:
    mode: WsMode
    wb: int = 0


@lru_cache(maxsize=None)
def select(mode: WsMode, wb: int) -> WordlineSelect:
    """One shared wordline select per (mode, wb), made on first use."""
    return WordlineSelect(mode, wb)


@dataclass(frozen=True)
class BitlinePair:
    valid: bool
    val: int = 0


@dataclass(frozen=True)
class ReadInstr:
    w: int


@dataclass(frozen=True)
class ApplyInstr:
    w: int
    source: int  # SRC_PIR or SRC_DMR
    ws: WordlineSelect
    lines: tuple[tuple[int, int], ...]  # ascending (bitline, val), v=1 only
    width: int  # w_D, the number of (v val) pairs in the word

    @property
    def pairs(self) -> tuple[BitlinePair, ...]:
        """All ``width`` pairs, made on each access; v=0 pairs have val 0."""
        pairs = [BitlinePair(False)] * self.width
        for j, val in self.lines:
            pairs[j] = BitlinePair(True, val)
        return tuple(pairs)


Instruction = ReadInstr | ApplyInstr


@dataclass(frozen=True)
class CrossbarConfig:
    """Geometry of the data/compute memory and instruction memory."""

    s_d: int  # words in the data memory
    w_d: int  # bits per data word == primary-input lines
    s_i: int = 1  # words in the instruction memory
    w_i: int | None = None  # bits per instruction word

    def __post_init__(self):
        if self.s_d < 1:
            raise IsaError("S_D must be >= 1")
        if self.w_d < 2:
            raise IsaError("w_D must be >= 2")
        if self.s_i < 1:
            raise IsaError("S_I must be >= 1")
        if self.w_i is None:
            object.__setattr__(self, "w_i", max(instruction_lengths(self)))
        elif self.w_i < max(instruction_lengths(self)):
            raise IsaError("w_I=%d is below the longest instruction (%d)"
                           % (self.w_i, max(instruction_lengths(self))))

    @property
    def word_bits(self) -> int:
        return _clog2(self.s_d)

    @property
    def bit_bits(self) -> int:
        return _clog2(self.w_d)

    @cached_property
    def layout(self) -> CodecLayout:
        """Codec field layout, built on first use."""
        return CodecLayout(self)


def instruction_lengths(config) -> tuple[int, int]:
    """Bit lengths (read, apply) of the two instructions for a geometry."""
    sw = _clog2(config.s_d)
    bw = _clog2(config.w_d)
    il_read = 1 + sw
    il_apply = 3 + sw + (1 + config.w_d) * (1 + bw)
    return il_read, il_apply


def validate_instruction(instr: Instruction, config: CrossbarConfig):
    if isinstance(instr, ReadInstr):
        if not 0 <= instr.w < config.s_d:
            raise IsaError("read address %d out of range" % instr.w)
        return
    if not 0 <= instr.w < config.s_d:
        raise IsaError("apply address %d out of range" % instr.w)
    if instr.source not in (SRC_PIR, SRC_DMR):
        raise IsaError("bad source flag %r" % (instr.source,))
    if instr.ws.mode not in (WsMode.ZERO, WsMode.ONE, WsMode.FROM_SOURCE):
        raise IsaError("bad wordline select %r" % (instr.ws.mode,))
    if not 0 <= instr.ws.wb < config.w_d:
        raise IsaError("wb %d out of range" % instr.ws.wb)
    w_d = config.w_d
    if instr.width != w_d:
        raise IsaError("apply needs exactly %d (v val) pairs, got %d"
                       % (w_d, instr.width))
    last = -1
    for j, val in instr.lines:
        if not last < j < w_d:
            raise IsaError("bitline %d out of order or out of range" % j)
        if not 0 <= val < w_d:
            raise IsaError("val %d out of range" % val)
        last = j


def check_num_pis(num_pis: int):
    """Check the declared primary-input count against ``MAX_PIS``."""
    if num_pis > MAX_PIS:
        raise IsaError("%d primary inputs, more than the %d a program may "
                       "declare" % (num_pis, MAX_PIS))


# -- binary codec ------------------------------------------------------------

# wordline select modes by their 2-bit code; code 10 is invalid
_WS_MODES = (WsMode.ZERO, WsMode.ONE, None, WsMode.FROM_SOURCE)


class CodecLayout:
    """Field positions of both instructions for one geometry.

    ``pair_shifts[j]`` is the shift of bitline j's ``(v val)`` pair, and
    ``tail_mask`` covers the pairs and the padding below the Apply head.
    """

    def __init__(self, config: CrossbarConfig):
        sw, bw = config.word_bits, config.bit_bits
        il_read, il_apply = instruction_lengths(config)
        self.s_d, self.w_d = config.s_d, config.w_d
        self.word_bits, self.bit_bits = sw, bw
        self.opcode_shift = config.w_i - 1
        # the address field sits right after the opcode in both instructions
        self.read_pad = config.w_i - il_read
        self.read_pad_mask = (1 << self.read_pad) - 1
        self.word_mask = (1 << sw) - 1
        # opcode | w | s | ws | wb, the fixed head of an Apply
        self.head_shift = config.w_i - (4 + sw + bw)
        self.tail_mask = (1 << self.head_shift) - 1
        self.bit_mask = (1 << bw) - 1
        self.apply_pad = config.w_i - il_apply
        self.pair_bits = 1 + bw
        self.pair_shifts = tuple(self.apply_pad + (config.w_d - 1 - j)
                                 * self.pair_bits for j in range(config.w_d))
        self.valid_bit = 1 << bw


def encode(instr: Instruction, config: CrossbarConfig) -> int:
    """Pack an instruction into a w_I-bit word (returned as an int)."""
    validate_instruction(instr, config)
    return _pack(instr, config.layout)


def _pack(instr: Instruction, lay: CodecLayout) -> int:
    """Pack an instruction that has passed :func:`validate_instruction`."""
    if isinstance(instr, ReadInstr):
        return instr.w << lay.read_pad
    ws = instr.ws
    word = (((((1 << lay.word_bits | instr.w) << 1 | instr.source) << 2
              | ws.mode) << lay.bit_bits) | ws.wb) << lay.head_shift
    for j, val in instr.lines:
        word |= (lay.valid_bit | val) << lay.pair_shifts[j]
    return word


def decode(word: int, config: CrossbarConfig) -> Instruction:
    """Inverse of :func:`encode`; refuses every word it never writes."""
    if word < 0 or word >> config.w_i:
        raise DecodeError("word wider than w_I")
    lay = config.layout
    w = (word >> lay.read_pad) & lay.word_mask
    if w >= lay.s_d:
        raise DecodeError("address %d out of range" % w)
    if not word >> lay.opcode_shift:
        if word & lay.read_pad_mask:
            raise DecodeError("nonzero padding after read")
        return ReadInstr(w)
    head_shift, bit_bits, bit_mask, w_d = (lay.head_shift, lay.bit_bits,
                                          lay.bit_mask, lay.w_d)
    head = word >> head_shift
    mode = _WS_MODES[(head >> bit_bits) & 0b11]
    if mode is None:
        raise DecodeError("wordline select code 10 is invalid")
    wb = head & bit_mask
    if wb >= w_d:
        raise DecodeError("wb %d out of range" % wb)
    # the tail's top set bit is in its first pair not all 0, else the padding
    tail, shifts, lines = word & lay.tail_mask, lay.pair_shifts, []
    pad, pair_bits = lay.apply_pad, lay.pair_bits
    while (top := tail.bit_length()) > pad:
        j = (head_shift - top) // pair_bits
        shift = shifts[j]
        code = tail >> shift
        tail ^= code << shift
        val = code & bit_mask
        if val >= w_d:
            raise DecodeError("val %d out of range" % val)
        if code == val:
            raise DecodeError("val %d on a pair with v=0" % val)
        lines.append((j, val))
    if tail:
        raise DecodeError("nonzero padding after apply")
    return ApplyInstr(w, (head >> (bit_bits + 2)) & 1, select(mode, wb),
                      tuple(lines), w_d)


# -- assembly ----------------------------------------------------------------

def format_asm(instr: Instruction) -> str:
    """One-line assembly: ``Read <w>`` / ``Apply <w> <s> <ws> <wb> <v val>...``."""
    if isinstance(instr, ReadInstr):
        return "Read %d" % instr.w
    parts = ["Apply", str(instr.w), str(instr.source),
             format(int(instr.ws.mode), "02b"), str(instr.ws.wb)]
    return " ".join(parts + ["%d %d" % (p.valid, p.val) for p in instr.pairs])


# -- programs ------------------------------------------------------------------

@dataclass
class Program:
    """Instruction stream plus the input schedule and result map.

    ``pir_schedule`` maps an instruction index to the w_D PIR slots live
    during that instruction.  Slots are symbolic so one program can be run
    under every input assignment: a slot is a PI index, ``SLOT_CONST0`` or
    ``SLOT_CONST1``.  Every ``Apply`` sourcing the PIR must have an entry.
    """

    config: CrossbarConfig
    instructions: list[Instruction] = field(default_factory=list)
    pir_schedule: dict[int, tuple[int, ...]] = field(default_factory=dict)
    result_locations: dict[str, tuple[int, int]] = field(default_factory=dict)
    num_pis: int = 0
    # (config, id -> instruction) of the objects that passed every
    # instruction rule for that config object; see validate
    _held: tuple = field(default=(None, None), init=False, repr=False,
                         compare=False)

    def validate(self) -> dict[int, Instruction]:
        """Apply every rule of a program; return its distinct instructions.

        The rules run in one order: the declared input count, each distinct
        instruction object once (named by its first position), then
        :meth:`check_tables`.  The first broken rule raises its
        ``IsaError``.  The result maps the ``id`` of each instruction object
        to the object, in order of first use, so the encoder and the
        simulator work once per distinct instruction from it.

        The objects that pass are held, with the config object they were
        checked for, and a later call checks only objects it does not hold
        (an instruction is immutable; a held one is matched by ``id`` and
        identity, so a copied program's stale ids match nothing); another
        config object starts afresh.  The input count and the tables,
        which are mutable, are checked on every call.
        """
        cfg, instrs = self.config, self.instructions
        check_num_pis(self.num_pis)
        ids = list(map(id, instrs))  # one walk serves every rule below
        distinct = dict(zip(ids, instrs))
        held_cfg, held = self._held
        if held_cfg is not cfg:
            held = {}
        for key, instr in distinct.items():
            if held.get(key) is instr:
                continue
            try:
                validate_instruction(instr, cfg)
            except IsaError as exc:
                i = ids.index(key)
                raise IsaError("instruction %d: %s" % (i, exc)) from None
        self._held = cfg, distinct
        self.check_tables(distinct.values(), ids)
        return distinct

    def check_tables(self, distinct, ids=None):
        """Check the schedule and result tables against the instructions.

        ``distinct`` holds each instruction object of the program once, and
        ``ids``, when the caller has it, the ``id`` of the instruction at
        each position.  Every PIR Apply needs a schedule entry, each
        distinct slot tuple w_D slots that name an input or a constant, and
        each result location a device of the crossbar.
        """
        cfg, schedule, num_pis = self.config, self.pir_schedule, self.num_pis
        pir_ids = {id(instr) for instr in distinct
                   if isinstance(instr, ApplyInstr) and instr.source == SRC_PIR}
        if pir_ids:  # stream the positions of PIR Applies
            if ids is None:
                ids = map(id, self.instructions)
            pir_at = itertools.compress(itertools.count(), map(
                pir_ids.__contains__, ids))
            missing = next(itertools.filterfalse(schedule.__contains__,
                                                 pir_at), None)
            if missing is not None:
                raise IsaError("instruction %d sources the PIR but has no "
                               "schedule entry" % missing)
        checked = set()  # ids of slot tuples, which entries often share
        for i, slots in schedule.items():
            if id(slots) in checked:
                continue
            checked.add(id(slots))
            if len(slots) != cfg.w_d:
                raise IsaError("schedule entry %d has %d slots, want %d"
                               % (i, len(slots), cfg.w_d))
            for s in slots:
                if s >= num_pis or s < SLOT_CONST1:
                    raise IsaError("schedule entry %d references bad slot %d"
                                   % (i, s))
        for name, (w, b) in self.result_locations.items():
            if not (0 <= w < cfg.s_d and 0 <= b < cfg.w_d):
                raise IsaError("result %r at (%d,%d) is out of range"
                               % (name, w, b))

    def to_asm(self) -> str:
        return "\n".join(format_asm(i) for i in self.instructions) + "\n"


# -- binary container ----------------------------------------------------------
#
# magic "RVMP", u32 LE: S_D w_D S_I w_I num_pis, u32 instruction count,
# instructions as big-endian byte strings of ceil(w_I/8) bytes each, u32
# schedule entry count, entries as (u32 index, w_D * i32 slots), u32 result
# count, results as (u16 name length, utf-8 name, u32 word, u32 bit).

def write_program(program: Program) -> bytes:
    try:
        return _write_program(program)
    except struct.error as exc:  # a field wider than its container slot
        raise IsaError("program does not fit the container: %s" % exc
                       ) from None


def _write_program(program: Program) -> bytes:
    distinct = program.validate()
    cfg, schedule = program.config, program.pir_schedule
    nbytes = (cfg.w_i + 7) // 8
    # one growing buffer: b"".join over per-instruction pieces would take
    # a buffer descriptor per piece, several times the output's size
    out = bytearray(MAGIC)
    out += struct.pack("<5I", cfg.s_d, cfg.w_d, cfg.s_i, cfg.w_i,
                       program.num_pis)
    out += struct.pack("<I", len(program.instructions))
    if distinct:  # an empty program needs no codec layout
        lay = cfg.layout
        words = {key: _pack(instr, lay).to_bytes(nbytes, "big")
                 for key, instr in distinct.items()}
        for instr in program.instructions:
            out += words[id(instr)]
    out += struct.pack("<I", len(schedule))
    pack_index = struct.Struct("<I").pack
    pack_slots = struct.Struct("<%di" % cfg.w_d).pack
    packed = {}  # id -> bytes of a slot tuple, which entries often share
    for idx in sorted(schedule):
        slots = schedule[idx]
        raw = packed.get(id(slots))
        if raw is None:
            raw = packed[id(slots)] = pack_slots(*slots)
        out += pack_index(idx)
        out += raw
    out += struct.pack("<I", len(program.result_locations))
    for name, (w, b) in sorted(program.result_locations.items()):
        raw = name.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw + struct.pack("<2I", w, b)
    return bytes(out)


def read_program(data: bytes) -> Program:
    try:
        return _read_program(data)
    except (struct.error, IndexError):
        raise IsaError("truncated or corrupt program container") from None


def _read_program(data: bytes) -> Program:
    data = bytes(data)  # slices of it key the decode memo
    if data[:4] != MAGIC:
        raise IsaError("bad magic, not a program container")
    off = 4
    s_d, w_d, s_i, w_i, num_pis = struct.unpack_from("<5I", data, off)
    off += 20
    check_num_pis(num_pis)
    cfg = CrossbarConfig(s_d, w_d, s_i, w_i)
    (count,) = struct.unpack_from("<I", data, off)
    off += 4
    nbytes = (w_i + 7) // 8
    end = off + count * nbytes
    if end > len(data):
        raise IsaError("%d instructions of %d bytes overrun the container"
                       % (count, nbytes))
    # the check above bounds w_I, and with it the codec layout, by the data
    # decode checks every field; a decoded word needs no further check
    memo = {}
    instrs = []
    for start in range(off, end, nbytes):
        raw = data[start:start + nbytes]
        instr = memo.get(raw)
        if instr is None:
            instr = memo[raw] = decode(int.from_bytes(raw, "big"), cfg)
        instrs.append(instr)
    off = end
    (n_sched,) = struct.unpack_from("<I", data, off)
    off += 4
    sched = {}
    slot_memo = {}  # equal slot bytes share one tuple, as equal words do
    unpack_slots = struct.Struct("<%di" % w_d).unpack
    for _ in range(n_sched):
        (idx,) = struct.unpack_from("<I", data, off)
        off += 4
        raw = data[off:off + 4 * w_d]
        slots = slot_memo.get(raw)
        if slots is None:
            slots = slot_memo[raw] = unpack_slots(raw)
        off += 4 * w_d
        if idx in sched:
            raise IsaError("schedule index %d is listed twice" % idx)
        sched[idx] = slots
    (n_res,) = struct.unpack_from("<I", data, off)
    off += 4
    results = {}
    for _ in range(n_res):
        (nlen,) = struct.unpack_from("<H", data, off)
        off += 2
        try:
            name = data[off:off + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise IsaError("result name is not valid utf-8") from None
        off += nlen
        w, b = struct.unpack_from("<2I", data, off)
        off += 8
        if name in results:
            raise IsaError("result %r is listed twice" % name)
        results[name] = (w, b)
    if off != len(data):
        raise IsaError("%d trailing bytes after the result table"
                       % (len(data) - off))
    program = Program(cfg, instrs, sched, results, num_pis)
    program.check_tables(memo.values())
    program._held = cfg, {id(instr): instr for instr in memo.values()}
    return program
