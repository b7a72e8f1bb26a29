"""Covering a network with k-input LUTs and sizing the result.

The cover is of the cleaned, hashed MIG ``netlist.rebuild`` makes of its
input, so an AIG and its MIG cover the same way.  It is a priority-cut
cover (Mishchenko et al., "Combinational and Sequential Mapping with
Priority Cuts", ICCAD 2007): one pass in node order keeps a few cuts per
gate, ranked by area flow, then depth, and picks the best; a second, from
the outputs down, makes a LUT of each gate the chosen cuts need.  A cut may
take in a node with several fanouts, so shared logic may be duplicated;
the constant fanin of MAJ(a, b, 0) is never a leaf.  A cone's truth table
is evaluated gate by gate through ``netlist.gate_mask``.  Optimality is a
non-goal; correctness is proved functionally against the source network.

Device sizing follows the scheduling argument for level-ordered computation:
a level's population includes nodes of lower levels that feed past it
(transient nodes), and the device demand is the worst sum of two adjacent
level populations.  Primary inputs are streamed from the input register and
do not count toward the device budget.  The demand takes one pass over the
LUTs and one over the levels.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from itertools import accumulate

from .esop import extract_esop
from .netlist import (CONST0, MAJ, PI, Edge, LogicNetwork, NetlistError,
                      gate_mask, pi_patterns, rebuild)

# LUT inputs are tagged references: ("pi", pi_index) or ("lut", lut_id).
PI_REF = "pi"
LUT_REF = "lut"
CUTS_KEPT = 3  # priority cuts each gate keeps, besides itself


@dataclass
class Lut:
    id: int
    inputs: tuple[tuple[str, int], ...]
    tt: int  # packed truth table over the inputs, 2^len(inputs) bits
    level: int = 0


@dataclass
class LutGraph:
    k: int
    num_pis: int
    luts: list[Lut] = field(default_factory=list)
    outputs: list[int] = field(default_factory=list)  # lut ids
    output_names: list[str] = field(default_factory=list)


def lut_truth_table(lut: Lut) -> list[int]:
    return [(lut.tt >> v) & 1 for v in range(1 << len(lut.inputs))]


# -- covering -------------------------------------------------------------------

def _cone_tt(network: LogicNetwork, root: int, leaves: list[int]) -> int:
    """Packed truth table of the cone under ``root`` over the given leaves."""
    nodes = network.nodes
    full = (1 << (1 << len(leaves))) - 1
    vals = dict(zip(leaves, pi_patterns(len(leaves))))
    cone, stack = {root}, [root]  # no recursion: a cone may be deep
    while stack:
        for e in nodes[stack.pop()].fanins:
            if e.target not in vals and e.target not in cone:
                cone.add(e.target)
                stack.append(e.target)
    for nid in sorted(cone):  # each fanin before its gate
        if nodes[nid].kind == PI:
            raise NetlistError("cone leaked past a primary input")
        vals[nid] = gate_mask(nodes[nid], vals, full)
    return vals[root]


def _leaves(mask: int) -> list[int]:
    """The node ids of a cut's leaf mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _best_cuts(network: LogicNetwork, k: int, fanout: list[int]) -> list[int]:
    """Per node, the leaf mask of its best cut (0 for a leaf), by priority
    cuts in one pass over the nodes in order.

    A cut is a mask over node ids.  A gate merges one offered cut of each
    fanin, and keeps the ``CUTS_KEPT`` best merges within k leaves; it
    offers those and itself to its fanouts, the constant offers the empty
    cut and a PI only itself.  Merges rank by area flow, then depth, then
    leaves, then mask.  The area flow of a cut is its cost plus the flows
    of its leaves, over the gate's fanout, and a gate's flow and depth are
    its best cut's.  A cut costs one LUT, or, above four leaves, its ESOP
    cubes over eight when that is more; as no cost is below 1, a wide
    cut's ESOP is extracted only when the cut could still be kept.  A
    majority of three fanins with no merge within k (at k = 2) keeps its
    fanins as its one cut.
    """
    nodes = network.nodes
    flow = [0.0] * len(nodes)
    depth = [0] * len(nodes)
    best = [0] * len(nodes)
    offered: list[tuple[int, ...]] = [()] * len(nodes)
    costs: dict[tuple[int, int], float] = {}  # (table, arity) -> cost
    for nid, node in enumerate(nodes):
        if node.kind == PI:
            offered[nid] = (1 << nid,)
            continue
        if node.kind == CONST0:
            offered[nid] = (0,)
            continue
        f0, f1, f2 = node.fanins
        a, b, c = offered[f0.target], offered[f1.target], offered[f2.target]
        if c == (0,):  # AND(a, b) as MAJ(a, b, 0): the constant adds no leaf
            merged = {x | y for x in a for y in b}
        else:
            merged = {x | y | z for x in a for y in b for z in c}
        # (flow times fanout, leaf depth, leaves, mask, leaf flows), a cut
        # above four leaves at cost 1 until its own cost is needed
        ranked = []
        for m in merged:
            size = m.bit_count()
            if size > k:
                continue
            s, d, rest = 0.0, 0, m
            while rest:  # the leaves, last first
                leaf = rest.bit_length() - 1
                rest ^= 1 << leaf
                s += flow[leaf]
                if depth[leaf] > d:
                    d = depth[leaf]
            ranked.append((1 + s, d, size, m, s))
        if not ranked:
            m = a[-1] | b[-1] | c[-1]
            s = sum(flow[x] for x in _leaves(m))
            ranked.append((1 + s, max(depth[x] for x in _leaves(m)), 3, m, s))
        ranked.sort()
        kept = ranked[:CUTS_KEPT]
        if k > 4:  # the best at their own costs
            kept = []
            for key in ranked:
                if len(kept) == CUTS_KEPT and kept[-1] < key:
                    break
                if key[2] > 4:
                    table = _cone_tt(network, nid, _leaves(key[3])), key[2]
                    if table not in costs:
                        costs[table] = max(1, len(
                            extract_esop(*table).cubes) / 8)
                    key = (costs[table] + key[4], *key[1:])
                insort(kept, key)
                del kept[CUTS_KEPT:]
        flow[nid] = kept[0][0] / fanout[nid]
        depth[nid] = kept[0][1] + 1
        kept = [key[3] for key in kept]
        best[nid] = kept[0]
        offered[nid] = (*kept, 1 << nid)
    return best


def cover_klut(network: LogicNetwork, k: int) -> LutGraph:
    """Partition the MIG ``rebuild`` cleans ``network`` to into
    single-output functions of at most k inputs.

    Each gate the cover needs, from the outputs down, is the root of a
    LUT over the leaves of its best priority cut (``_best_cuts``); a leaf
    that is a gate is needed in turn.  A gate inside one LUT's cone may be
    the root of another too.  Every PI is kept, so the LUT inputs number
    the source network's PIs.
    """
    if not 2 <= k <= 16:
        raise NetlistError("k must be in 2..16")
    network = rebuild(network)
    nodes = network.nodes
    fanout = network.fanout_counts()
    best = _best_cuts(network, k, fanout)
    pi_of = {nid: i for i, nid in enumerate(network.pis)}

    graph = LutGraph(k=k, num_pis=network.num_pis)
    lut_of: dict[int, int] = {}  # gate id -> lut id

    def add(inputs: tuple[tuple[str, int], ...], tt: int) -> int:
        """Append a LUT; its id."""
        graph.luts.append(Lut(len(graph.luts), inputs, tt))
        return len(graph.luts) - 1

    def ensure_lut(root: int) -> int:
        """LUT of ``root``, creating the LUTs under it first (post-order)."""
        # explicit stack, so that a deep network does not recurse; an entry
        # carries its cut once the leaves above it have been pushed
        stack = [(root, None)]
        while stack:
            nid, cut = stack.pop()
            if nid in lut_of:
                continue
            if cut is None:
                cut = _leaves(best[nid])
                stack.append((nid, cut))
                for leaf in reversed(cut):  # first leaf on top
                    if leaf not in lut_of and nodes[leaf].kind != PI:
                        stack.append((leaf, None))
                continue
            lut_of[nid] = add(tuple(
                (PI_REF, pi_of[leaf]) if nodes[leaf].kind == PI
                else (LUT_REF, lut_of[leaf]) for leaf in cut),
                _cone_tt(network, nid, cut))
        return lut_of[root]

    # one LUT per output edge; a complemented edge folds into the root LUT
    # itself when the root only feeds that output, otherwise it gets an
    # inverter LUT; PI and constant outputs get buffer/constant LUTs
    out_lut: dict[Edge, int] = {}
    for e, name in zip(network.outputs, network.output_names):
        if e not in out_lut:
            kind = nodes[e.target].kind
            gate = kind == MAJ
            if gate and (not e.inverted or fanout[e.target] == 1):
                lut = graph.luts[ensure_lut(e.target)]
                if e.inverted:  # no other reference needs the plain value
                    lut.tt ^= (1 << (1 << len(lut.inputs))) - 1
                out_lut[e] = lut.id
            elif gate:
                out_lut[e] = add(((LUT_REF, ensure_lut(e.target)),), 0b01)
            elif kind == PI:
                out_lut[e] = add(((PI_REF, pi_of[e.target]),),
                                 0b01 if e.inverted else 0b10)
            else:  # constant output
                out_lut[e] = add((), 1 if e.inverted else 0)
        graph.outputs.append(out_lut[e])
        graph.output_names.append(name)

    assign_levels(graph)
    return graph


def assign_levels(graph: LutGraph):
    """Longest-path levels over the LUT graph; PIs sit at level zero."""
    for lut in graph.luts:
        depths = [0]
        for kind, ref in lut.inputs:
            if kind == LUT_REF:
                depths.append(graph.luts[ref].level)
        lut.level = 1 + max(depths)


# -- sizing -----------------------------------------------------------------------

def min_dev(graph: LutGraph) -> int:
    """Device demand: worst sum of two adjacent level populations.

    Level-ordered scheduling only keeps the previous level's population (with
    transients) live while the current one computes, so adjacent-level sums
    bound the storage demand.  A level's population is its own LUTs plus the
    transient ones: LUTs below it with a consumer above it, whose value must
    stay live while the whole level computes.  Level 0 holds only streamed
    primary inputs and counts as zero.  Output values are read from the final
    state, so an output below the pair of levels stays live as well unless it
    is already counted as a transient.

    One pass finds each LUT's highest consumer level c: a LUT at level s
    counts toward the populations of levels s..c-1 (its own level, then as a
    transient), and an output is held from level max(s+1, c) on.  Difference
    arrays over the levels sum both.
    """
    luts = graph.luts
    l_max = max((l.level for l in luts), default=0)
    if l_max == 0:
        return 0
    last_use = [0] * len(luts)  # highest level of a consumer, 0 for none
    for lut in luts:
        for kind, ref in lut.inputs:
            if kind == LUT_REF and last_use[ref] < lut.level:
                last_use[ref] = lut.level
    step = [0] * (l_max + 2)  # change in population at each level
    kept = [0] * (l_max + 2)  # outputs whose holding starts at each level
    for lut, last in zip(luts, last_use):
        step[lut.level] += 1
        step[max(lut.level + 1, last)] -= 1
    for o in set(graph.outputs):
        kept[max(luts[o].level + 1, last_use[o])] += 1
    pops = list(accumulate(step))
    pops[0] = 0
    held = list(accumulate(kept))
    return max(pops[l] + pops[l + 1] + held[l] for l in range(l_max))


def storage_capacity(s_d: int, w_d: int) -> int:
    """Devices available for stored results: three rows are kept for compute."""
    return max(0, s_d - 3) * w_d


def feasible(graph: LutGraph, s_d: int, w_d: int) -> bool:
    return min_dev(graph) <= storage_capacity(s_d, w_d)


# -- serialization ------------------------------------------------------------------

def lut_graph_to_dict(graph: LutGraph) -> dict:
    return {
        "k": graph.k,
        "num_pis": graph.num_pis,
        "luts": [{
            "id": l.id,
            "inputs": ["%s%d" % ("p" if k == PI_REF else "L", r)
                       for k, r in l.inputs],
            "tt": format(l.tt, "0%dx" % max(1, (1 << len(l.inputs)) // 4)),
            "level": l.level,
        } for l in graph.luts],
        "outputs": graph.outputs,
        "output_names": graph.output_names,
        "min_dev": min_dev(graph),
        "levels": max((l.level for l in graph.luts), default=0),
    }
