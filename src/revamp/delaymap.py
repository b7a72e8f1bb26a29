"""Delay-focused mapping flow for majority graphs.

The crossbar width is fixed, the word count is an output.  ``map_delay``
first picks the MIG to map: the one it is given, or that MIG with its
3-input majority and XOR3 cones rewritten (``netlist.rewrite_majority``),
when the rewrite's ``compute_bound`` is not higher.  The rewrite makes the
levels fewer, yet its majorities read more distinct wordline values than
the AND gates' shared constants, and an Apply drives one wordline.  Then
four phases:

1. *Role assignment.*  Each internal node picks which parent's device hosts
   its computation and which parents feed the wordline and bitline.  The
   device update is ``M3(Z, wl, not bl)``, so the bitline operand is stored
   as the complement of the value it contributes: a complemented fanin
   stores the parent's plain value, a plain fanin needs a negated copy.
   A parent feeding several nodes of one level becomes their shared
   wordline so the nodes can compute in a single instruction; constant
   fanins take the wordline whenever possible since the instruction can
   drive a literal 0/1 there for free.

2. *Block formation.*  Only one word can be read per cycle, so a node's
   wordline and bitline operands must sit in the same word.  Operand pairs
   open blocks; blocks merge when they share an input value (keeping one
   copy) or when their hosts compute together under a shared wordline
   (keeping both host copies), never beyond the word width.  Input merges
   come before host merges; visiting newest first, each block joins its
   newest older partner that fits.  A merge only makes blocks larger and a
   descent only makes them share less, so a pair that did not fit never
   fits later.  Each level's input merges therefore visit only the blocks
   it created and those a merge gave an input value an older block holds,
   and its host merges only the blocks hosting a node of the level.  Each
   element records its block and each block its input values; the index
   from input value to blocks lives across levels, so a level costs time
   in the blocks it touches, not in the network's depth.  A level descends
   through its elements block by block, oldest block first and each
   block's in place order.  Negated copies of internal values get a
   single plain instance to be copied from.  The result is the blocks,
   each level's sites (one node computed on one host device, with its
   wordline element or constant and its bitline element) and the output
   elements.

3. *Packing.*  Blocks are first-fit packed into words (a classic 2-factor
   approximation of the bin-packing optimum, checked in tests against an
   exact branch-and-bound).

4. *Generation.*  One walk over the packed words gives every element its
   word and bit.  Primary inputs load first: complemented copies write in
   one cycle through the bitlines, plain copies stage through one scratch
   wordline that is reset after each use.  Then the levels' sites compute
   in level order, sites sharing a host word, source word and wordline
   fold into one instruction, and negated copies are written at the end
   of the producing level from the node's first site.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from itertools import count
from operator import attrgetter
from typing import NamedTuple

from .codegen import ProgramBuilder
from .isa import SLOT_CONST0, CrossbarConfig, Program, WsMode
from .netlist import (CONST0, MAJ, PI, Edge, LogicNetwork, NetlistError,
                      levels, rewrite_majority)
from .reports import MappingReport


class ValueRef(NamedTuple):
    """A node's value, possibly complemented."""
    node: int
    negated: bool = False


@dataclass
class NodeRoles:
    host: Edge
    wl_input: Edge
    bl_input: Edge


def assign_roles(mig: LogicNetwork, lv: list[int] | None = None
                 ) -> dict[int, NodeRoles]:
    """Partition every internal node's fanins into host/wordline/bitline.

    Priority: shared or constant parents take the wordline, a complemented
    fanin takes the bitline, the deepest remaining parent hosts (its device
    is overwritten in place).  Ties break toward the lowest node id, but
    of the shared parents the one with the highest id takes the wordline.
    ``lv`` is ``levels(mig)`` when the caller has it already.
    """
    if mig.kind != "mig":
        raise NetlistError("assign_roles expects a MIG")
    if lv is None:
        lv = levels(mig)
    # wordline sharing only works when every grouped node sees the parent
    # with the same polarity, so the count is per (parent, level, polarity)
    share_count: dict[tuple[int, int, bool], int] = {}
    for i, n in enumerate(mig.nodes):
        if n.kind != MAJ:
            continue
        for e in n.fanins:
            key = (e.target, lv[i], e.inverted)
            share_count[key] = share_count.get(key, 0) + 1

    const = [n.kind == CONST0 for n in mig.nodes]
    roles = {}
    for i, n in enumerate(mig.nodes):
        if n.kind != MAJ:
            continue
        edges = list(n.fanins)
        # each pick is the first edge with the least key among those that
        # qualify; constants take the wordline (the instruction drives a
        # literal 0/1 there, costing no device), then the parent shared
        # within the level with the highest id
        wl = None
        for e in edges:
            if const[e.target] and (wl is None or e.target < wl.target):
                wl = e
        if wl is None:
            for e in edges:
                if share_count[(e.target, lv[i], e.inverted)] >= 2 and (
                        wl is None or e.target > wl.target):
                    wl = e
        if wl is not None:
            edges.remove(wl)
        bl = None
        for e in edges:
            if e.inverted and not const[e.target] and (
                    bl is None or e.target < bl.target):
                bl = e
        if bl is not None:
            edges.remove(bl)
        # the deepest parent hosts
        host = edges[0]
        for e in edges[1:]:
            if lv[e.target] > lv[host.target] or (
                    lv[e.target] == lv[host.target]
                    and e.target < host.target):
                host = e
        edges.remove(host)
        if wl is None:
            wl = min(edges, key=attrgetter("target"))
            edges.remove(wl)
        if bl is None:
            bl = edges.pop()
        roles[i] = NodeRoles(host=host, wl_input=wl, bl_input=bl)
    return roles


def compute_bound(mig: LogicNetwork, roles: dict[int, NodeRoles],
                  lv: list[int]) -> int:
    """The least compute instructions ``mig`` takes under ``roles``, were
    every Apply to need its own Read.

    An Apply drives one wordline, so each level takes one Read and one
    Apply per distinct wordline value among its nodes (a constant, or a
    parent in one polarity), and each majority value some node reads as a
    plain bitline takes its negated copy, counted once.  Only the nodes an
    output reaches count.  The builder skips a Read of the word the data
    register already mirrors, so for this ISA the bound is an estimate.
    """
    wordlines = set()
    copied = set()
    for i in live_majority_nodes(mig):
        r = roles[i]
        wordlines.add((lv[i], r.wl_input))
        bl = r.bl_input
        if not bl.inverted and mig.nodes[bl.target].kind == MAJ:
            copied.add(bl.target)
    return 2 * len(wordlines) + len(copied)


def live_majority_nodes(mig: LogicNetwork) -> list[int]:
    """The MAJ nodes some output reaches."""
    nodes = mig.nodes
    live = [False] * len(nodes)
    for e in mig.outputs:
        live[e.target] = True
    for i in range(len(nodes) - 1, -1, -1):
        if live[i]:
            for e in nodes[i].fanins:
                live[e.target] = True
    return [i for i, n in enumerate(nodes) if live[i] and n.kind == MAJ]


# -- blocks --------------------------------------------------------------------

class BlockElement:
    """One device slot: the value loaded into it and the nodes computed there.

    Each descent through the device replaces ``value`` by the host operand
    of the node computed there, so once blocks are formed ``value`` is what
    the load phase writes.  ``block`` is the block the element sits in.  An
    input element dropped by a merge sits in none and points at its
    survivor via ``merged_into``.
    """

    __slots__ = ("value", "tag", "merged_into", "block")

    def __init__(self, value: ValueRef, tag: str):
        self.value = value
        self.tag = tag
        self.merged_into = None
        self.block = None

    def resolve(self):
        el = self
        while el.merged_into is not None:
            el = el.merged_into
        return el

    def __repr__(self):
        return "<%s%s %s>" % ("!" if self.value.negated else "",
                              self.value.node, self.tag)


@dataclass(eq=False)
class Block:
    """Elements that must share a word; during formation ``inputs`` holds
    the values of the input (``"i"``) elements, once each, then None."""
    id: int
    elements: list[BlockElement] = field(default_factory=list)
    inputs: set[ValueRef] | None = field(default_factory=set)

    def __len__(self):
        return len(self.elements)


@dataclass
class Site:
    """One scheduled computation of a node: its host device and operands.

    ``wl`` is an element, or the constant 0/1 the instruction drives on
    the wordline.  Host elements are never merged away; operand elements
    may be, so they are looked up through ``resolve()``.
    """
    node: int
    host_el: BlockElement
    wl: BlockElement | int
    bl_el: BlockElement


@dataclass
class BlockFormation:
    blocks: list[Block]
    sites: dict[int, list[Site]]  # level -> its sites, in creation order
    output_elements: list[BlockElement]


def form_blocks(mig: LogicNetwork, roles: dict[int, NodeRoles], w_d: int,
                lv: list[int] | None = None) -> BlockFormation:
    """Output-first descent by level, merging as described in the module doc.

    ``lv`` is ``levels(mig)`` when the caller has it already.
    """
    if lv is None:
        lv = levels(mig)
    l_max = max((lv[e.target] for e in mig.outputs), default=0)
    blocks: dict[int, Block] = {}  # live blocks by id, oldest first
    sites: dict[int, list[Site]] = {}
    positive_seen: set[int] = set()
    next_id = count(1)
    # level -> elements given a plain internal value of that level
    pending: dict[int, list[BlockElement]] = {}
    # input value -> the blocks holding it
    holders: dict[ValueRef, set[Block]] = {}
    # ids of the blocks the next input phase visits; the queue holds them
    # negated, so the newest pops first
    dirty: set[int] = set()
    queue: list[int] = []
    by_id = attrgetter("id")

    def is_internal(nid):
        return mig.nodes[nid].kind == MAJ

    def mark(b: Block):
        if b.id not in dirty:
            dirty.add(b.id)
            heappush(queue, -b.id)

    def register(el: BlockElement):
        # a plain internal value is computed at its level; a negated one is
        # copied from a plain instance, so make sure exactly one exists
        node, negated = el.value
        if not is_internal(node):
            return
        if not negated:
            positive_seen.add(node)
            pending.setdefault(lv[node], []).append(el)
        elif node not in positive_seen:
            new_block([make_el(ValueRef(node, False))])

    def new_block(elements: list[BlockElement]) -> Block:
        b = Block(next(next_id), elements)
        blocks[b.id] = b
        for el in elements:
            el.block = b
            if el.tag == "i":
                b.inputs.add(el.value)
                holders.setdefault(el.value, set()).add(b)
        mark(b)
        return b

    def make_el(ref: ValueRef) -> BlockElement:
        el = BlockElement(ref, "i")
        register(el)
        return el

    def descend(el: BlockElement) -> Site:
        nid = el.value.node
        r = roles[nid]
        if el.tag == "i":
            el.block.inputs.discard(el.value)
            holders[el.value].discard(el.block)
        el.tag = "h"  # the device now hosts this node's computation
        el.value = ValueRef(r.host.target, r.host.inverted)
        register(el)
        wl_ref = ValueRef(r.wl_input.target, r.wl_input.inverted)
        # the device re-complements the bitline, so store the complement
        bl_ref = ValueRef(r.bl_input.target, not r.bl_input.inverted)
        spawned = []
        if mig.nodes[wl_ref.node].kind == CONST0:
            wl = int(wl_ref.negated)
        else:
            wl = make_el(wl_ref)
            spawned.append(wl)
        if spawned and bl_ref == wl_ref:
            bl_el = wl
        else:
            bl_el = make_el(bl_ref)
            spawned.append(bl_el)
        new_block(spawned)
        return Site(nid, el, wl, bl_el)

    def merge(hosted: list[Site]):
        """Fold blocks together until no pair merges.

        Input merges come before host merges: the host phase starts only
        when no input merge fits.  Blocks are visited newest first, and a
        visited block ``b`` tries its older partners ``a`` newest first;
        the first that fits the word takes ``b`` in.  A partner qualifies
        by sharing an input value with ``b`` (input merge) or, for a host
        merge, a wordline key among the ``hosted`` sites, the ones
        computed at this level.

        A pair that does not fit never fits later.  Folding ``b`` into
        ``a`` gives ``a`` at least as many elements as any other block
        ``c`` newly shares inputs with, so
        ``|a+b| - |shared(c, a+b)| >= |a| - |shared(c, a)|``, and likewise
        for ``b``; a descent turns input elements into hosts, which only
        shrinks what blocks share, and puts its new values in new blocks.

        The input phase therefore visits only the dirty blocks: those
        created since the last merge, and those an absorb gave an input
        value that an older block holds.  Every pair sharing an input
        value either does not fit or has its newer block dirty.  That
        holds when the phase starts, since the last merge left no older
        pair that fits and new blocks are dirty and newer than the rest.
        A visit clears the flag; if it merges nothing, ``b`` fails
        against every older partner.  When ``a`` absorbs ``b``, take a
        block ``c`` sharing a value with ``a+b``.  A value ``a`` had is
        covered by the pair ``(a, c)``.  For a value only ``b`` had: if
        ``c`` is older than ``a`` the absorb makes ``a`` dirty, if ``c``
        is newer than ``b`` the pair ``(b, c)`` covers it, and otherwise
        ``b`` tried ``c`` before ``a`` and it did not fit.  So the phase
        ends with no dirty block and no pair that fits, and a visit to a
        clean block would only have repeated failures.

        For the same reason a host merge never makes an input merge
        possible, and never drops an input element (its pair shares no
        input value, or it would have failed in the input phase).  The
        wordline keys, the constant or ``resolve()`` of the wordline
        element, are thus fixed once the input phase ends; the host index
        is built then, over the blocks holding a hosted site, and a merge
        only moves ``b``'s keys to ``a``.

        ``holders`` and each block's ``inputs`` live for the whole
        descent: they are updated where a block is created, where a
        descent turns an input element into a host, and in ``absorb``.
        A level costs O(D + H + P log P) set operations and capacity
        tests for its D dirty blocks, H hosted sites and the P pairs they
        share a key in; the blocks it leaves alone cost nothing.
        """
        # wordline keys of each block hosting a site, and their blocks
        host_keys: dict[Block, set] = {}
        host_index: dict = {}

        def absorb(a: Block, b: Block) -> bool:
            # fold b into a, keeping a's copy of each shared input value
            shared = a.inputs & b.inputs
            if len(a.elements) + len(b.elements) - len(shared) > w_d:
                return False
            survivors = {el.value: el for el in a.elements
                         if el.tag == "i"} if shared else {}
            for el in b.elements:
                if el.tag == "i" and el.value in shared:
                    el.merged_into = survivors[el.value]
                    el.block = None
                else:
                    el.block = a
                    a.elements.append(el)
            del blocks[b.id]
            if a.id not in dirty and any(
                    c.id < a.id for v in b.inputs - shared
                    for c in holders[v]):
                mark(a)
            for v in b.inputs:
                holders[v].discard(b)
                holders[v].add(a)
            a.inputs |= b.inputs
            for k in host_keys.pop(b, ()):
                host_index[k].discard(b)
                host_index[k].add(a)
                host_keys[a].add(k)
            return True

        def settle(visits, keys_of, index: dict):
            for b in visits:
                partners = {a for k in keys_of(b) for a in index[k]
                            if a.id < b.id}
                for a in sorted(partners, key=by_id, reverse=True):
                    if absorb(a, b):
                        break

        def dirty_blocks():
            while queue:
                bid = -heappop(queue)
                dirty.discard(bid)
                if bid in blocks:  # a host merge can absorb a marked block
                    yield blocks[bid]

        settle(dirty_blocks(), attrgetter("inputs"), holders)
        for s in hosted:
            k = s.wl if isinstance(s.wl, int) else s.wl.resolve()
            host_keys.setdefault(s.host_el.block, set()).add(k)
            host_index.setdefault(k, set()).add(s.host_el.block)
        settle(sorted(host_keys, key=by_id, reverse=True),
               host_keys.__getitem__, host_index)

    output_elements = []
    for e in mig.outputs:
        el = BlockElement(ValueRef(e.target, e.inverted), "h")
        new_block([el])
        register(el)
        output_elements.append(el)
    merge([])

    for l in range(l_max, 0, -1):
        todo = {el for el in pending.pop(l, ()) if el.merged_into is None}
        touched = sorted({el.block for el in todo}, key=by_id)
        sites[l] = [descend(el) for b in touched for el in b.elements
                    if el in todo]
        merge(sites[l])

    for b in blocks.values():  # nothing after formation reads them
        b.inputs = None
    return BlockFormation(list(blocks.values()), sites, output_elements)


# -- packing -------------------------------------------------------------------

@dataclass
class Packing:
    """First-fit assignment of blocks to words.

    Bins fill in block-list order; bin b becomes word ``n_words - 1 - b`` so
    the last-opened word carries the first (deepest) operand group.
    """

    w_d: int
    n_words: int
    word_blocks: dict[int, list[Block]]

    @property
    def occupancy(self) -> dict[int, int]:
        return {w: sum(len(b) for b in bs)
                for w, bs in self.word_blocks.items()}


def pack_blocks(blocks: list[Block], w_d: int) -> Packing:
    for b in blocks:
        if len(b) > w_d:
            raise NetlistError("block %d wider (%d) than the word (%d)"
                               % (b.id, len(b), w_d))
    bins: list[list[Block]] = []
    used: list[int] = []
    for b in blocks:
        for i in range(len(bins)):
            if used[i] + len(b) <= w_d:
                bins[i].append(b)
                used[i] += len(b)
                break
        else:
            bins.append([b])
            used.append(len(b))
    n = len(bins)
    word_blocks = {n - 1 - i: bs for i, bs in enumerate(bins)}
    return Packing(w_d, n, word_blocks)


# -- instruction generation -------------------------------------------------------

def gen_pi_load(builder: ProgramBuilder, spots, mig: LogicNetwork,
                scratch_word: int | None):
    """Load every PI/constant-valued device of the placement ``spots``.

    Complemented PI copies (and constant 1s) write directly through the
    bitlines.  Plain PI copies stage through the scratch wordline: the
    complement is written there, read out and re-complemented into place,
    then the scratch devices reset.
    """
    pi_line = {nid: i for i, nid in enumerate(mig.pis)}
    direct: dict[int, dict[int, int]] = {}
    positives: list[tuple[int, int, int]] = []  # (word, bit, pi line)
    for el, (w, b) in spots.items():
        kind = mig.nodes[el.value.node].kind
        if kind == PI:
            if el.value.negated:
                direct.setdefault(w, {})[b] = pi_line[el.value.node]
            else:
                positives.append((w, b, pi_line[el.value.node]))
        elif kind == CONST0 and el.value.negated:
            direct.setdefault(w, {})[b] = SLOT_CONST0
    for w in sorted(direct):
        builder.apply_from_pir(w, WsMode.ONE, direct[w])

    w_d = builder.config.w_d
    todo = sorted(positives)
    while todo:
        # a round stages the first w_D distinct lines in placement order
        lines = list(dict.fromkeys(line for _, _, line in todo))[:w_d]
        scratch_bit = {line: k for k, line in enumerate(lines)}
        builder.apply_from_pir(scratch_word, WsMode.ONE,
                               {k: line for line, k in scratch_bit.items()})
        builder.read(scratch_word)
        by_word: dict[int, dict[int, int]] = {}
        for w, b, line in todo:
            if line in scratch_bit:
                by_word.setdefault(w, {})[b] = scratch_bit[line]
        todo = [t for t in todo if t[2] not in scratch_bit]
        for w in sorted(by_word):
            builder.apply_from_dmr(w, WsMode.ONE, by_word[w])
        builder.reset_bits(scratch_word, range(len(lines)))


def gen_program_delay(mig: LogicNetwork, formation: BlockFormation,
                      packing: Packing) -> tuple[Program, MappingReport]:
    """Level-synchronous instruction generation over placed blocks.

    One walk over the packed words gives every element its ``(word, bit)``,
    finds whether a plain PI copy needs the scratch word and collects each
    internal node's negated elements.
    """
    spots: dict[BlockElement, tuple[int, int]] = {}
    negated: dict[int, list[BlockElement]] = {}
    staged = False
    for w in sorted(packing.word_blocks):
        placed = (el for b in packing.word_blocks[w] for el in b.elements)
        for bit, el in enumerate(placed):
            spots[el] = (w, bit)
            ref = el.value
            kind = mig.nodes[ref.node].kind
            if kind == MAJ and ref.negated:
                negated.setdefault(ref.node, []).append(el)
            elif kind == PI and not ref.negated:
                staged = True
    scratch = packing.n_words if staged else None
    s_d = packing.n_words + (1 if staged else 0)
    builder = ProgramBuilder(CrossbarConfig(max(1, s_d), packing.w_d),
                             mig.num_pis)

    gen_pi_load(builder, spots, mig, scratch)

    for _, sites in sorted(formation.sites.items()):
        # (source word, host word, constant wordline or -1, wordline bit)
        # -> wires, and (source word, copy word) -> wires of the negated
        # copies, which the first site of each node writes
        groups: dict[tuple[int, int, int, int], dict[int, int]] = {}
        copies: dict[tuple[int, int], dict[int, int]] = {}
        for site in sites:
            host_w, hb = spots[site.host_el]
            bl_w, bb = spots[site.bl_el.resolve()]
            if isinstance(site.wl, int):
                const_wl, wl_b = site.wl, 0
            else:
                wl_w, wl_b = spots[site.wl.resolve()]
                if wl_w != bl_w:
                    raise NetlistError(
                        "operands of node %d split across words" % site.node)
                const_wl = -1
            groups.setdefault((bl_w, host_w, const_wl, wl_b), {})[hb] = bb
            for el in negated.pop(site.node, ()):
                dw, db = spots[el]
                copies.setdefault((host_w, dw), {})[db] = hb
        for key in sorted(groups):
            src_w, host_w, const_wl, wl_b = key
            builder.read(src_w)
            mode = WsMode.FROM_SOURCE if const_wl < 0 else WsMode(const_wl)
            builder.apply_from_dmr(host_w, mode, groups[key], wb=wl_b)
        # negated copies of this level's values, written through the bitline
        for key in sorted(copies):
            builder.read(key[0])
            builder.apply_from_dmr(key[1], WsMode.ONE, copies[key])

    for el, name in zip(formation.output_elements, mig.output_names):
        builder.result_locations[name] = spots[el]

    counts = builder.counts()
    n_maj = len({s.node for level in formation.sites.values() for s in level})
    d_p_star = 9 * n_maj
    total = packing.n_words * packing.w_d
    report = MappingReport(
        flow="delay",
        num_pis=mig.num_pis,
        n_maj=n_maj,
        n_maj_mapped=n_maj,
        levels=max(formation.sites, default=0),
        s_d=builder.config.s_d, w_d=packing.w_d,
        **counts,
        n_blocks=len(formation.blocks),
        w_util=100.0 * len(spots) / total if total else 100.0,
        d_p_star=d_p_star,
        speedup=d_p_star / counts["cycles"],
    )
    return builder.finish(), report


def map_delay(mig: LogicNetwork, w_d: int) -> tuple[Program, MappingReport]:
    """Whole delay-constrained pipeline: the MIG to map, roles, blocks,
    packing, generation.

    Levels and roles are computed once per MIG considered, and the chosen
    MIG's go on to ``form_blocks``.  The report's ``n_maj``, ``levels``,
    ``d_p_star`` and ``speedup`` describe ``mig``; ``n_maj_mapped`` counts
    the MAJ nodes of the MIG mapped.
    """
    if mig.kind != "mig":
        raise NetlistError("map_delay expects a MIG (use aig_to_mig)")
    if w_d < 2:
        raise NetlistError("w_D must be at least 2")
    lv = levels(mig)
    roles = assign_roles(mig, lv)
    mapped, mapped_lv, mapped_roles = mig, lv, roles
    rewritten = rewrite_majority(mig)
    if rewritten is not mig:
        rw_lv = levels(rewritten)
        rw_roles = assign_roles(rewritten, rw_lv)
        if (compute_bound(rewritten, rw_roles, rw_lv)
                <= compute_bound(mig, roles, lv)):
            mapped, mapped_lv, mapped_roles = rewritten, rw_lv, rw_roles
    formation = form_blocks(mapped, mapped_roles, w_d, mapped_lv)
    packing = pack_blocks(formation.blocks, w_d)
    program, report = gen_program_delay(mapped, formation, packing)
    if mapped is not mig:  # n_maj, levels and d_p_star describe the input
        n_maj = len(live_majority_nodes(mig))
        report = replace(
            report, n_maj=n_maj, d_p_star=9 * n_maj,
            speedup=9 * n_maj / report.cycles,
            levels=max((lv[e.target] for e in mig.outputs), default=0))
    return program, report
