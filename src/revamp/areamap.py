"""Area-constrained mapping flow.

The crossbar is split into a working area of three wordlines (rows 0..2,
called e0/e1/e2 below) and storage rows for intermediate LUT results.  Each
LUT of the cover is scheduled onto a storage device and expanded to an
ESOP.  A level's LUTs are computed side by side on e2, one bitline per
cube, in batches as wide as the row (a LUT of more cubes than w_D goes
alone, in chunks), and each LUT's cubes are folded by an XOR reduction
tree whose rounds alternate between e2 and e0: a round reads one row and
leaves its results, complemented, on the other (``xor_round``).  The bits
of e0, from bit 0 up, are also the staging bank, which is empty while the
rounds run; e1 is reserved but unused.

Machine idioms used throughout (device update is M3(Z, wl, not bl)):

    load complement   Z=0, wl=1, bitline x   ->  not x
    AND a literal     wl=0, bitline x        ->  Z and not x
    OR a literal      wl=1, bitline x        ->  Z or not x
    reset             wl=0, bitline 1        ->  0

so the bitline always carries the *complement* of the value contributed to
the majority.  All bitline wires of one Apply must come from a single
source (the input register or one read-out word), so a cube batch is
emitted source by source: each source is loaded once and its wires go out
in rounds of at most one wire per bitline.  A value needed in the polarity
its source does not hold is staged: its source loads the complement onto
a bank bit of e0, together with its other staged values, and the bank,
filled by every source of the batch, is read once, applied in rounds and
reset (``_emit_bank``).  ``MappingReport.i_staging`` counts these loads,
reads, Applies and resets, and the staging of plain stores below.

Storage convention: each value carries a polarity, 1 where its device
holds the complement.  The last XOR round of a batch stores each LUT's
value straight into its device, at the polarity the tree gives it; a LUT
without a round (one cube) is stored complemented by write-back.  A LUT
that drives a primary output must be stored plain, so that the declared
result locations hold the output values: one that the last round would
store complemented lands on the other working row instead and is
complemented on its way to storage, and one without a round goes through
the staging bank with the batch's other plain stores.  A consumer reads
each stored value at its own polarity.

Scheduling walks the levels once, after one pass for the device demand
(``lutmap.min_dev``), and each distinct truth table has its ESOP cover
extracted once per mapping.  A LUT reads each input from its ``Source``,
the input register or the input's stored device.  The builder alone
decides read elision and interning, and makes the report.

The depth-bounded mapper (``map_minimal``) lives here too, with a layout
of its own and an index of what each of its devices holds (see its
docstring); it shares only the builder with the other flows.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .codegen import ProgramBuilder
from .esop import Cube, EsopCover, extract_esop
from .isa import SLOT_CONST0, CrossbarConfig, Program, WsMode
from .lutmap import (LUT_REF, PI_REF, LutGraph, cover_klut, min_dev,
                     storage_capacity)
from .netlist import CONST0, MAJ, Edge, LogicNetwork, NetlistError, levels
from .reports import MappingReport

E0, E2 = 0, 2  # working rows: staging, cube accumulators (e1 is unused)


class InfeasibleMapping(RuntimeError):
    def __init__(self, needed, capacity):
        super().__init__("needs %d storage devices but the crossbar offers %d"
                         % (needed, capacity))
        self.needed = needed
        self.capacity = capacity


# -- operand sources ---------------------------------------------------------------

class Source(NamedTuple):
    """Where a variable is held: on the input register (``word`` None),
    whose ``wire`` is the PI slot, or at bit ``wire`` of a stored word,
    complemented where ``inverted``.  The register holds plain values."""
    word: int | None
    wire: int
    inverted: bool = False


def _load(builder: ProgramBuilder, word: int | None):
    """The Apply that drives a source's wires: the input register's
    (``word`` None), or the data register's once ``word`` is read out."""
    if word is None:
        return builder.apply_from_pir
    builder.read(word)
    return builder.apply_from_dmr


# -- cube computation ----------------------------------------------------------------

def _emit_rounds(apply, row: int, lines: dict[int, list[int]],
                 fresh: set[int]):
    """Apply ``lines`` (bitline -> its wire values, all from the source of
    ``apply``) to ``row``, consuming the lists.  One Apply at wordline 1
    loads a wire onto every ``fresh`` bitline; then each round, one Apply
    at wordline 0, ANDs at most one more wire into each bitline."""
    loads = {j: vals.pop() for j, vals in lines.items() if j in fresh}
    if loads:
        apply(row, WsMode.ONE, loads)
        fresh.difference_update(loads)
    rest = [(j, vals) for j, vals in lines.items() if vals]
    while rest:
        apply(row, WsMode.ZERO, {j: vals.pop() for j, vals in rest})
        rest = [(j, vals) for j, vals in rest if vals]


def _emit_bank(builder: ProgramBuilder, row: int, lines: dict[int, list[int]],
               fresh: set[int], held: int):
    """Read the staging bank (e0 bits below ``held``), apply ``lines``
    (bitline -> bank bits) to ``row`` in rounds and reset the bank."""
    start = len(builder.instructions)
    builder.read(E0)
    _emit_rounds(builder.apply_from_dmr, row, lines, fresh)
    builder.reset_bits(E0, range(held))
    builder.i_staging += len(builder.instructions) - start


def compute_cube_batch(builder: ProgramBuilder, cubes: list[Cube],
                       bits: list[int], sources: list[list[Source]]):
    """Compute each cube on its e2 bitline, cube i from the variable
    sources ``sources[i]``; the devices must start at zero.

    The literals are grouped by the source that holds their wire: the
    input register (the primary inputs, and the constant of the empty
    cubes) or one stored word.  As the device complements the bitline, a
    source serves the literals of the polarity opposite to the one it
    holds directly.  Each source is loaded once (a word is read once) and
    emits those wires in rounds (``_emit_rounds``); the source that reaches
    the most bitlines goes first, so most first literals load together.
    A value whose other polarity is wanted goes to the staging bank, e0
    bits 0 and up, once however many cubes want it: each source loads its
    share onto the bank with one Apply, and when the bank is full or every
    source is done, it is read once, applied in rounds and reset.  A
    source whose staged values outlast the bank loads again for the rest.
    """
    # per source (a word, or None for the input register): its direct
    # wires by bitline, and its staged wires with their bitlines
    groups: dict[int | None, tuple[dict, dict]] = {}
    for c, bit, srcs in zip(cubes, bits, sources):
        if not (c.pos or c.neg):
            groups.setdefault(None, ({}, {}))[0][bit] = [SLOT_CONST0]
        for mask, pos in ((c.pos, True), (c.neg, False)):
            while mask:
                low = mask & -mask
                mask ^= low
                src = srcs[low.bit_length() - 1]
                group = groups.get(src.word)
                if group is None:
                    group = groups[src.word] = ({}, {})
                # a literal v wants the complement of v on its wire
                if src.inverted == pos:
                    group[0].setdefault(bit, []).append(src.wire)
                else:
                    group[1].setdefault(src.wire, []).append(bit)

    fresh = set(bits)
    w_d = builder.config.w_d
    bank: dict[int, list[int]] = {}  # e2 bitline -> its bank bits
    held = 0  # bank bits loaded
    for word, (lines, staged) in sorted(groups.items(),
                                        key=lambda group: -len(group[1][0])):
        apply = _load(builder, word)
        if lines:
            _emit_rounds(apply, E2, lines, fresh)
        wires: dict[int, int] = {}  # this source's bank bits -> wires
        for val, targets in staged.items():
            if apply is None:  # the bank was emptied: load again
                apply = _load(builder, word)
            wires[held] = val
            for j in targets:
                bank.setdefault(j, []).append(held)
            held += 1
            if held == w_d:  # a full bank: empty it
                apply(E0, WsMode.ONE, wires)
                builder.i_staging += 1
                _emit_bank(builder, E2, bank, fresh, held)
                wires, bank, held, apply = {}, {}, 0, None
        if wires:
            apply(E0, WsMode.ONE, wires)
            builder.i_staging += 1
    if held:
        _emit_bank(builder, E2, bank, fresh, held)


def xor_round(builder: ProgramBuilder, row: int,
              pairs: list[tuple[int, int]], moved: list[int],
              dests: dict[int, tuple[int, int]] | None = None):
    """One XOR round: fold each pair (lo, hi) of working row ``row`` (R) and
    move each ``moved`` bit m, onto the other working row (O), which must
    be zero at those bits; a bit in ``dests`` goes to that device (w, j)
    instead of to O at its own bit.

    With lo = x and hi = y, one AND Apply crosses each pair from the
    read-out (lo = x.not(y), hi = y.not(x)).  From a second read, an OR
    Apply per target word loads not(lo) and not(m), and an AND Apply of hi
    leaves not(x xor y) at lo's target.  One reset clears R's bits.  Six
    instructions when every target is on O, shared by every value of the
    round; two Applies more for each other word."""
    cross = dict(pairs)
    other = E0 + E2 - row
    targets: dict[int, tuple[dict, dict]] = {}  # word -> (loads, ANDs)
    for bit in [*cross, *moved]:
        w, j = dests.get(bit, (other, bit)) if dests else (other, bit)
        if w not in targets:
            targets[w] = {}, {}
        loads, ands = targets[w]
        loads[j] = bit
        if bit in cross:
            ands[j] = cross[bit]
    builder.read(row)
    if cross:
        builder.apply_from_dmr(row, WsMode.ZERO,
                               {**cross, **{hi: lo for lo, hi in pairs}})
        builder.read(row)
    for w, (loads, ands) in targets.items():
        builder.apply_from_dmr(w, WsMode.ONE, loads)
        if ands:
            builder.apply_from_dmr(w, WsMode.ZERO, ands)
    builder.reset_bits(row, [*cross, *cross.values(), *moved])


def xor_reduce(builder: ProgramBuilder, groups: list[list[tuple[int, int]]],
               dests: list[tuple[tuple[int, int], bool] | None] | None = None
               ) -> tuple[int, list[int | None], list[int]]:
    """XOR-reduction trees over groups of e2 values, each group given as
    ascending (bit, polarity) pairs, where a value of polarity 1 is held
    complemented.  Each round (``xor_round``) folds the pairs of every
    group and moves every other value to the other working row, so rounds
    alternate between e2 and e0: a pair's result has polarity
    p_x ^ p_y ^ 1, and a moved value's polarity flips.

    Returns (row, bits, polarities): each group's XOR is at its first bit
    of ``row``.  ``dests`` gives each group a storage device and whether
    it must hold the plain value, or None.  The last round stores each
    such group's result straight into its device, unless the device must
    hold the plain value and the result there would be complemented; that
    one stays on ``row``.  A stored group's bit is None, and its polarity
    is that of the stored value."""
    row = E2
    bits = [[b for b, _ in values] for values in groups]
    pols = [[p for _, p in values] for values in groups]
    longest = max(map(len, bits))
    while longest > 1:
        pairs, moved, stores = [], [], {}
        for g, (these, ps) in enumerate(zip(bits, pols)):
            pairs += zip(these[::2], these[1::2])
            folded = [x ^ y ^ 1 for x, y in zip(ps[::2], ps[1::2])]
            if len(these) % 2:
                moved.append(these[-1])
                folded.append(ps[-1] ^ 1)
            bits[g], pols[g] = these[::2], folded
            if longest == 2 and dests and dests[g]:  # the last round
                device, plain = dests[g]
                if not (plain and folded[0]):
                    stores[these[0]] = device
                    bits[g] = [None]
        xor_round(builder, row, pairs, moved, stores)
        row = E0 + E2 - row
        longest = (longest + 1) // 2
    return row, [these[0] for these in bits], [ps[0] for ps in pols]


def compute_esop(builder: ProgramBuilder,
                 covers: list[tuple[list[Cube], list[Source]]],
                 dests: list[tuple[tuple[int, int], bool] | None] | None = None
                 ) -> tuple[int, list[int | None], list[int]]:
    """Compute covers, given as (cubes, sources), side by side on e2 from
    bitline 0, one bitline per cube (an empty cover takes one that stays
    0).  The covers share one cube batch and every XOR round; ``dests``
    and the result are those of ``xor_reduce``.

    A lone cover wider than the row goes in chunks: the first on every
    bitline, each next one on bitlines 1 and up, reduced together with
    the XOR so far at bitline 0.  That XOR moves back to e2 (one round
    with no pair) when it lands on e0, which the next batch stages on."""
    w_d = builder.config.w_d
    lone, sources = covers[0]
    if len(lone) > w_d:
        carry: list[tuple[int, int]] = []  # the XOR so far, at e2 bit 0
        pos = 0
        while pos < len(lone):
            chunk = lone[pos:pos + w_d - len(carry)]
            pos += len(chunk)
            bits = list(range(len(carry), len(carry) + len(chunk)))
            compute_cube_batch(builder, chunk, bits, [sources] * len(chunk))
            row, (bit,), (p,) = xor_reduce(
                builder, [carry + [(b, 0) for b in bits]],
                dests if pos == len(lone) else None)
            if row == E0 and pos < len(lone):
                xor_round(builder, E0, [], [bit])
                row, p = E2, p ^ 1
            carry = [(bit, p)]
        return row, [bit], [p]
    cubes, bits, sources, groups = [], [], [], []
    first = 0
    for cover, srcs in covers:
        cubes += cover
        bits += range(first, first + len(cover))
        sources += [srcs] * len(cover)
        groups.append([(b, 0) for b in range(first,
                                             first + (len(cover) or 1))])
        first += len(cover) or 1
    compute_cube_batch(builder, cubes, bits, sources)
    return xor_reduce(builder, groups, dests)


def _store(builder: ProgramBuilder, stores: list[tuple[int, tuple[int, int]]]):
    """Apply each data-register wire of ``stores``, given as (wire, device),
    to its reset device: one Apply at wordline 1 per word."""
    by_word: dict[int, dict[int, int]] = {}
    for val, (word, bit) in stores:
        by_word.setdefault(word, {})[bit] = val
    for word, wires in by_word.items():
        builder.apply_from_dmr(word, WsMode.ONE, wires)


def write_back(builder: ProgramBuilder, row: int,
               stores: list[tuple[int | None, int, tuple[int, int], bool]]
               ) -> list[int]:
    """Move results of working row ``row``, given as (bit, polarity,
    device, plain), into reset storage devices and clear their bits;
    returns the polarity each device holds.  A result whose bit is None
    is stored already (see ``xor_reduce``).

    One read of ``row`` and one Apply per word store the complements,
    which for a result of polarity 1 is the plain value.  A plain store of
    a polarity-0 result, which only e2 holds after a batch with no XOR
    round, goes through the staging bank with the others: one Apply loads
    their complements onto e0 bits 0 and up, one read of e0 and one Apply
    per word store them, and one reset clears the bank."""
    left = [store for store in stores if store[0] is not None]
    if left:
        builder.read(row)
        _store(builder, [(bit, dest) for bit, p, dest, plain in left
                         if p or not plain])
        staged = [(bit, dest) for bit, p, dest, plain in left
                  if plain and not p]
        if staged:
            start = len(builder.instructions)
            builder.apply_from_dmr(E0, WsMode.ONE, {
                i: bit for i, (bit, _) in enumerate(staged)})
            builder.read(E0)
            _store(builder, [(i, dest) for i, (_, dest) in enumerate(staged)])
            builder.reset_bits(E0, range(len(staged)))
            builder.i_staging += len(builder.instructions) - start
        builder.reset_bits(row, [store[0] for store in left])
    return [p if bit is None else 0 if plain else 1 - p
            for bit, p, _, plain in stores]


# -- standalone cover program ------------------------------------------------------

def gen_esop_program(cover: EsopCover, config: CrossbarConfig
                     ) -> tuple[Program, int]:
    """Whole-cover program on any crossbar of at least three wordlines and
    two bitlines; every variable streams from the input register.  The
    result location, an e2 bit, holds the cover's plain value."""
    if config.s_d < 3:
        raise ValueError("the working area needs three wordlines")
    sources = [Source(None, v) for v in range(cover.arity)]
    builder = ProgramBuilder(config, cover.arity)
    row, (bit,), (p,) = compute_esop(builder, [(cover.cubes, sources)])
    # the result sits at bit 0 and every other working device is zero.  A
    # move complements, so a complemented result moves onto e2 (to bit 1
    # from e2 itself), and a plain one on e0 first moves to e0 bit 1
    if row == E0 and not p:
        xor_round(builder, E0, [], [bit], {bit: (E0, 1)})
        bit, p = 1, 1
    if p:
        to = bit if row == E0 else 1
        xor_round(builder, row, [], [bit], {bit: (E2, to)})
        bit = to
    builder.result_locations["f"] = (E2, bit)
    return builder.finish(), bit


# -- LUT scheduling ---------------------------------------------------------------

@dataclass
class LutSchedule:
    placements: dict[int, tuple[int, int]] = field(default_factory=dict)
    # ordered events: ("reset", word, [(bit, lut_id), ...]) and
    # ("place", lut_id, word, bit)
    events: list = field(default_factory=list)
    min_dev: int = 0  # device demand of the graph, checked against capacity


def schedule_luts(graph: LutGraph, s_d: int, w_d: int) -> LutSchedule:
    """Assign every LUT a storage device in level order.

    Allocation is best-fit: the fullest wordline that still fits the level's
    remaining nodes wins, otherwise the emptiest wordlines are filled one
    after another.  When nothing is free, the wordline with the most dirty
    devices (values whose consumers are all scheduled) is recycled.  Output
    values are never recycled.

    The LUTs are bucketed by level once, each value counts down its
    unscheduled consumers, and the rows sit in a list sorted by free
    devices, so a level costs its LUTs and a bisection per row it fills.
    A demand above the storage capacity is refused, and so is any LUT on
    a crossbar of three rows, which has no storage row.
    """
    capacity = storage_capacity(s_d, w_d)
    need = min_dev(graph)
    storage_rows = list(range(3, s_d))
    if need > capacity or (graph.luts and not storage_rows):
        # each LUT takes a device, which three rows do not offer
        raise InfeasibleMapping(max(need, 1), capacity)

    free = {}  # row -> its free devices, made when the row is first filled
    # (free devices, -row) of every storage row, ascending: the first entry
    # with enough room is the fullest row that fits, ties to the higher row
    rank = sorted((w_d, -w) for w in storage_rows)
    occupant: dict[tuple[int, int], int] = {}
    dirty: set[tuple[int, int]] = set()

    # per LUT, the consumers not yet scheduled; a value whose count reaches
    # zero may be recycled, unless it is a result (those stay live forever)
    waiting = [0] * len(graph.luts)
    by_level: list[list[int]] = [[] for _ in range(
        max((l.level for l in graph.luts), default=0) + 1)]
    for lut in graph.luts:
        by_level[lut.level].append(lut.id)
        for kind, ref in lut.inputs:
            if kind == LUT_REF:
                waiting[ref] += 1
    pinned = set(graph.outputs)

    sched = LutSchedule(min_dev=need)

    def place(lut_id: int, w: int):
        row = free.get(w)
        if row is None:
            row = free[w] = set(range(w_d))
        b = min(row)
        row.remove(b)
        occupant[(w, b)] = lut_id
        sched.placements[lut_id] = (w, b)
        sched.events.append(("place", lut_id, w, b))
        for kind, ref in graph.luts[lut_id].inputs:
            if kind == LUT_REF:
                waiting[ref] -= 1
                if not waiting[ref] and ref not in pinned:
                    dirty.add(sched.placements[ref])

    def recycle() -> int:
        counts = Counter(w for w, _ in dirty)
        w = max(storage_rows, key=lambda r: (counts[r], r))
        if counts[w] == 0:
            raise InfeasibleMapping(need, capacity)
        victims = sorted(b for (rw, b) in dirty if rw == w)
        sched.events.append(("reset", w,
                             [(b, occupant[(w, b)]) for b in victims]))
        for b in victims:
            dirty.discard((w, b))
            del occupant[(w, b)]
            free[w].add(b)
        return w

    for todo in by_level[1:]:
        while todo:
            i = bisect_left(rank, (len(todo), -s_d))
            if i == len(rank):  # no row fits: fill the emptiest one
                i = bisect_left(rank, (rank[-1][0], -s_d))
            room, w = rank[i][0], -rank[i][1]
            if not room:  # every row is full
                w = recycle()
                rank.remove((0, -w))
            else:
                del rank[i]
                for lut_id in todo[:room]:
                    place(lut_id, w)
                todo = todo[room:]
            insort(rank, (len(free[w]), -w))
    return sched


# -- area flow ----------------------------------------------------------------------

def map_area(network: LogicNetwork, k: int, s_d: int, w_d: int
             ) -> tuple[Program, MappingReport]:
    """Full area-constrained pipeline: cover, schedule, compute, verify-ready.

    ``network`` is an AIG or a MIG; ``cover_klut`` covers the MIG it
    cleans to.  Raises :class:`InfeasibleMapping` when the cover's device
    demand exceeds the storage capacity of the requested crossbar (a
    crossbar of fewer than four rows has none), and ``isa.IsaError`` when
    ``s_d`` x ``w_d`` is not a crossbar at all (``s_d < 1`` or ``w_d < 2``).
    """
    return map_lut_graph(cover_klut(network, k), s_d, w_d)


def map_lut_graph(graph: LutGraph, s_d: int, w_d: int
                  ) -> tuple[Program, MappingReport]:
    """Schedule the LUTs, then compute and store them in event order, each
    run of one level's ``place`` events between ``reset`` events in batches
    of at most W = w_D e2 bitlines; a LUT of more cubes than that is a
    batch of its own.  No LUT reads another of its level, and each
    destination was free before its batch."""
    config = CrossbarConfig(s_d, w_d)  # refuse a bad geometry up front
    sched = schedule_luts(graph, s_d, w_d)
    builder = ProgramBuilder(config, graph.num_pis)
    is_output = set(graph.outputs)
    placements = sched.placements
    keys = [(lut.tt, len(lut.inputs)) for lut in graph.luts]
    covers = {key: extract_esop(*key).cubes for key in dict.fromkeys(keys)}
    cubes = [covers[key] for key in keys]
    need = [max(1, len(c)) for c in cubes]  # e2 bitlines of each LUT
    batch, used = [], 0  # the open batch's LUTs and e2 bitlines
    polarity = {}  # LUT -> 1 where its device holds the complement
    # the last, empty reset emits the last batch
    for event in sched.events + [("reset", E2, [])]:
        lut = graph.luts[event[1]] if event[0] == "place" else None
        if batch and (lut is None or lut.level != batch[0].level
                      or used + need[lut.id] > w_d):
            dests = [(placements[l.id], l.id in is_output) for l in batch]
            row, bits, pols = compute_esop(builder, [(cubes[l.id], [
                Source(None, ref) if kind == PI_REF else
                Source(*placements[ref], polarity[ref])
                for kind, ref in l.inputs]) for l in batch], dests)
            polarity.update(zip((l.id for l in batch), write_back(
                builder, row, [(bit, p, *dest)
                               for bit, p, dest in zip(bits, pols, dests)])))
            batch, used = [], 0
        if lut is None:
            builder.reset_bits(event[1], [b for b, _ in event[2]])
        else:
            batch.append(lut)
            used += need[lut.id]

    for lut_id, name in zip(graph.outputs, graph.output_names):
        builder.result_locations[name] = placements[lut_id]
    return builder.finish(), builder.report(
        "area", n_lut=len(graph.luts),
        levels=max((l.level for l in graph.luts), default=0),
        min_dev=sched.min_dev, i_staging=builder.i_staging)


# -- depth-bounded minimal-device mapper ----------------------------------------------

# program length past which map_minimal refuses a network; it is checked
# before each step, so a program may end a step's few instructions past it
MAX_MINIMAL_INSTRUCTIONS = 1 << 20


def map_minimal(mig: LogicNetwork) -> tuple[Program, MappingReport]:
    """Map a single-output MIG with at most 2(depth+1) devices.

    Any MIG is taken; the CLI gives it the one ``rebuild`` cleans its
    input to.  A complemented node is computed by majority self-duality,
    ``not M(a,b,c) == M(not a, not b, not c)``: its fanins are taken
    complemented (``pick_roles``), so no normal form is needed.  Row 0
    holds the inverter device at bitline 0 and the final host at bitline
    1; each level gets one operand row.  A node computed onto a device
    places its wordline operand at bitline 1 of its level's row, the
    complement of its bitline operand at bitline 0 and its host operand on
    the device itself, then applies the row to the host.  A subtree writes
    only the rows below its root's level, its target device and the
    inverter, so no operand waiting in a higher row is disturbed.

    The mapper knows what every device holds, as a literal (an ``Edge``),
    and which devices hold each literal.  A device keeps its value until
    it must take another one, and is reset only then; where
    both devices of a waiting operand row must still change, the first
    reset clears the row in one Apply.  A value to be placed on a device
    is, in order of preference: already there; a constant (one Apply); a
    complemented input, loaded from the input register; copied from a
    device holding its complement (a Read, often elided, and one Apply);
    for a plain input, loaded complemented onto the inverter and copied
    from there; for a node held only in the same polarity, copied through
    the inverter; and only otherwise computed.  So a node is computed again
    only once every copy of it has been overwritten; ``MappingReport.n_maj``
    counts the program's MAJ Applies.  The program still grows with the
    tree where the crossbar no longer holds a value, so mapping stops with
    ``NetlistError`` as soon as the program grows past
    ``MAX_MINIMAL_INSTRUCTIONS``.
    """
    if mig.kind != "mig":
        raise NetlistError("map_minimal expects a MIG")
    if len(mig.outputs) != 1:
        raise NetlistError("map_minimal maps single-output networks")
    lv = levels(mig)
    out_edge = mig.outputs[0]
    k = lv[out_edge.target]
    config = CrossbarConfig(max(1, k + 1), 2)
    nodes, pis = mig.nodes, mig.pis
    builder = ProgramBuilder(config, len(pis))
    pi_line = {nid: i for i, nid in enumerate(pis)}
    INVERTER, TARGET = (0, 0), (0, 1)
    zero = Edge(next((i for i, n in enumerate(nodes) if n.kind == CONST0), -1))
    # device -> the literal it holds, and literal -> the devices holding it
    held = {(w, b): zero for w in range(config.s_d) for b in (0, 1)}
    holders: dict[tuple, dict] = {zero: dict.fromkeys(held)}
    # operand row of a node being computed -> the literals its bitlines take
    need: dict[int, tuple] = {}

    def write(dev, lit):
        devs = holders[held[dev]]
        del devs[dev]
        if not devs:
            del holders[held[dev]]
        held[dev] = lit
        holders.setdefault(lit, {})[dev] = None

    def holder(lit):
        """A device holding ``lit``, one of the read-out word if any."""
        devs = holders.get(lit)
        if not devs:
            return None
        w = builder.mirrored_word
        return ((w, 0) if (w, 0) in devs else (w, 1) if (w, 1) in devs
                else next(iter(devs)))

    def clear(dev):
        """Reset ``dev`` unless it holds 0, with its row's other device
        too if that one waits for a value it does not hold yet."""
        if held[dev] != zero:
            w, b = dev
            other = (w, 1 - b)
            if w in need and held[other] not in (zero, need[w][1 - b]):
                builder.reset_bits(w, (0, 1))
                write(other, zero)
            else:
                builder.reset_bits(w, (b,))
            write(dev, zero)

    def copy(src, dst):
        """Store the complement of ``src``'s value on ``dst``.  The Read
        comes first, so ``src`` may be ``dst`` itself."""
        lit = held[src].flip()
        builder.read(src[0])
        clear(dst)
        builder.apply_from_dmr(dst[0], WsMode.ONE, {dst[1]: src[1]})
        write(dst, lit)

    def load(dev, nid):
        """Load input ``nid`` complemented from the input register."""
        clear(dev)
        builder.apply_from_pir(dev[0], WsMode.ONE, {dev[1]: pi_line[nid]})
        write(dev, Edge(nid, True))

    @functools.cache
    def pick_roles(lit):
        """Split the three fanins of node literal ``lit``, complemented if
        it is (by majority self-duality, each fanin complemented), into
        the literal its bitline device stores and its wordline and host
        operands; made once per literal.

        The bitline stores the complement of its effective value (the
        device update re-complements it).  It takes the first complemented
        internal fanin, so the stored value is the child's plain result;
        otherwise a leaf, plain first, since leaves load in either
        polarity; otherwise the lowest-id internal fanin, whose complement
        is then computed the same way.
        """
        nid, neg = lit
        # (bitline rank, wordline rank, fanin) per fanin, lowest rank first;
        # the wordline rank takes leaves (level 0) by id, internal fanins of
        # a level by position
        ranked = []
        for j, e in enumerate(nodes[nid].fanins):
            if neg:
                e = e.flip()
            t, inv = e
            if nodes[t].kind == MAJ:
                ranked.append(((0, j) if inv else (2, t, j), (lv[t], 0, j), e))
            else:
                ranked.append(((1, inv, t, j), (0, t, j), e))
        ranked.sort()
        (_, wl), (_, host) = sorted(r[1:] for r in ranked[1:])
        return ranked[0][2].flip(), wl, host

    n_maj = 0

    def place(lit, dev):
        """Leave the value of literal ``lit`` on device ``dev``.

        Pending steps sit on a stack, popped last first, so a deep chain
        needs no recursion: a node computed in place pushes its Apply, then
        its host, bitline and wordline operands.
        """
        nonlocal n_maj
        steps = [(False, lit, dev)]
        while steps:
            if len(builder.instructions) > MAX_MINIMAL_INSTRUCTIONS:
                raise NetlistError("the program would exceed %d instructions"
                                   % MAX_MINIMAL_INSTRUCTIONS)
            apply, lit, dev = steps.pop()
            nid, neg = lit
            node = nodes[nid]
            if apply:
                builder.read(lv[nid])
                builder.apply_from_dmr(dev[0], WsMode.FROM_SOURCE,
                                       {dev[1]: 0}, wb=1)
                write(dev, lit)
                del need[lv[nid]]
                n_maj += 1
            elif held[dev] == lit:
                pass
            elif node.kind == CONST0:
                if neg:  # sets dev whatever it holds
                    builder.apply_from_pir(dev[0], WsMode.ONE,
                                           {dev[1]: SLOT_CONST0})
                    write(dev, lit)
                else:
                    clear(dev)
            elif node.kind != MAJ and neg:
                load(dev, nid)
            elif (src := holder(lit.flip())) is not None:
                copy(src, dev)
            elif node.kind != MAJ:
                load(INVERTER, nid)
                copy(INVERTER, dev)
            elif (src := holder(lit)) is not None:
                copy(src, INVERTER)
                copy(INVERTER, dev)
            else:
                bl, wl, host = pick_roles(lit)
                row = lv[nid]  # operand row for this level
                need[row] = (bl, wl)
                steps += ((True, lit, dev), (False, host, dev),
                          (False, bl, (row, 0)), (False, wl, (row, 1)))

    place(out_edge, TARGET)
    builder.result_locations[mig.output_names[0]] = TARGET

    return builder.finish(), builder.report(
        "minimal", n_maj=n_maj, levels=k, device_bound=2 * (k + 1))
