"""Combinational logic networks: and-inverter and majority-inverter graphs.

A network is a DAG of nodes in topological order (every fanin id is smaller
than the node's own id).  Edges carry a complement flag.  The same container
holds both AIGs (2-input AND nodes) and MIGs (3-input majority nodes); the
``kind`` field says which flavour the network is.  Output names are
unique: a program declares its result locations by name.

One builder, ``MigBuilder``, makes every MIG this module emits.  It works
on integer literals, folds constants, merges equal gates on request, drops
gates no output reaches and emits one output form.  One gate walk feeds it
each gate of an AIG or a MIG, for ``rebuild``, which every flow cleans its
input with (``aig_to_mig`` is a call of it), and for ``rewrite_majority``,
which only the delay flow calls: it finds 3-input cones by cut enumeration
and the walk makes each one majority (three for an XOR3).
``normalize_mig`` feeds the builder each gate once per polarity.  The
depth-bounded mapper pushes complements itself on ``rebuild``'s MIG, so
only the benchmark harness normalizes.  Outside the builder every literal
is an ``Edge``.

This module also provides the brute-force functional oracle (``evaluate`` /
``truth_table``) used by every other part of the mapper to prove equivalence.
Truth tables are bit-parallel: all assignments are evaluated at once on
Python integers, bit k of a table is the value under assignment k, and bit i
of k is the value of primary input i.  ``pi_patterns`` builds those input
patterns and ``gate_mask`` evaluates one gate; the LUT cover's cone tables
use the same two and ``esop.cover_truth_table`` the same patterns.  Tables
are refused above ``EXHAUSTIVE_MAX_PIS`` inputs, the bound the verifier's
exhaustive mode shares.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import NamedTuple

PI = "pi"
CONST0 = "const0"
AND = "and"
MAJ = "maj"

_ARITY = {PI: 0, CONST0: 0, AND: 2, MAJ: 3}

# widest network evaluated on all 2^k input vectors (2^16 bits per mask)
EXHAUSTIVE_MAX_PIS = 16


class NetlistError(ValueError):
    pass


class ParseError(NetlistError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class Edge(NamedTuple):
    """Reference to a node, optionally complemented."""

    target: int
    inverted: bool = False

    def flip(self):
        # past NamedTuple's Python-level __new__, which costs twice as much
        return tuple.__new__(Edge, (self.target, not self.inverted))


@dataclass
class Node:
    kind: str
    fanins: tuple[Edge, ...] = ()
    name: str | None = None


@dataclass
class LogicNetwork:
    """DAG of PI/CONST0/AND/MAJ nodes with complemented edges and outputs."""

    kind: str  # "aig" or "mig"
    nodes: list[Node] = field(default_factory=list)
    outputs: list[Edge] = field(default_factory=list)
    output_names: list[str] = field(default_factory=list)

    # -- construction -----------------------------------------------------

    def add_node(self, kind, fanins=(), name=None) -> int:
        fanins = tuple(fanins)
        if len(fanins) != _ARITY[kind]:
            raise NetlistError("%s node takes %d fanins, got %d"
                               % (kind, _ARITY[kind], len(fanins)))
        nid = len(self.nodes)
        for e in fanins:
            if not 0 <= e.target < nid:
                raise NetlistError("fanin %d of node %d is not topological"
                                   % (e.target, nid))
        if self.kind == "aig" and kind == MAJ:
            raise NetlistError("MAJ node in an AIG")
        if self.kind == "mig" and kind == AND:
            raise NetlistError("AND node in a MIG")
        self.nodes.append(Node(kind, fanins, name))
        return nid

    def add_pi(self, name=None) -> int:
        return self.add_node(PI, name=name)

    def add_const0(self) -> int:
        return self.add_node(CONST0)

    def add_output(self, edge: Edge, name=None):
        """Append an output; its name defaults to ``o<position>`` and must
        be new, since programs declare their result locations by name."""
        if not 0 <= edge.target < len(self.nodes):
            raise NetlistError("output references unknown node %d" % edge.target)
        if name is None:
            name = "o%d" % len(self.outputs)
        if name in self.output_names:
            raise NetlistError("duplicate output name %r" % name)
        self.outputs.append(edge)
        self.output_names.append(name)

    # -- queries -----------------------------------------------------------

    @property
    def pis(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.kind == PI]

    @property
    def num_pis(self) -> int:
        return len(self.pis)

    def fanout_counts(self) -> list[int]:
        counts = [0] * len(self.nodes)
        for n in self.nodes:
            for e in n.fanins:
                counts[e.target] += 1
        for e in self.outputs:
            counts[e.target] += 1
        return counts

    def validate(self):
        if not self.outputs:
            raise NetlistError("network has no outputs")
        for i, n in enumerate(self.nodes):
            if len(n.fanins) != _ARITY[n.kind]:
                raise NetlistError("node %d has wrong arity" % i)
            for e in n.fanins:
                if not 0 <= e.target < i:
                    raise NetlistError("node %d has non-topological fanin" % i)


# -- levels ----------------------------------------------------------------

def levels(network: LogicNetwork) -> list[int]:
    """Level of every node: longest path from any PI (PIs and constants = 0)."""
    out = [0] * len(network.nodes)
    for i, n in enumerate(network.nodes):
        if n.fanins:
            out[i] = 1 + max(out[e.target] for e in n.fanins)
    return out


# -- evaluation ------------------------------------------------------------

def gate_mask(node: Node, vals, full: int) -> int:
    """Mask of an AND, MAJ or CONST0 node given its fanins' masks.

    ``vals`` maps node ids to masks (a list or a dict); ``full`` is the
    all-ones mask for the vector width.
    """
    ops = [vals[e.target] ^ full if e.inverted else vals[e.target]
           for e in node.fanins]
    if node.kind == AND:
        return ops[0] & ops[1]
    if node.kind == MAJ:
        a, b, c = ops
        return (a & b) | (a & c) | (b & c)
    return 0


def evaluate_masks(network: LogicNetwork, pi_masks: list[int], full: int) -> list[int]:
    """Bit-parallel evaluation: each mask packs one bit per test vector.

    ``full`` is the all-ones mask for the vector width.  Returns one mask per
    output.  A node's mask is dropped after the last gate that reads it, so
    only the masks still to be read are held at once.
    """
    nodes = network.nodes
    last = list(range(len(nodes)))  # index of the last node reading each mask
    for i, n in enumerate(nodes):
        for e in n.fanins:
            last[e.target] = i
    for e in network.outputs:
        last[e.target] = len(nodes)
    vals = [0] * len(nodes)
    it = iter(pi_masks)
    for i, n in enumerate(nodes):
        if n.kind == PI:
            vals[i] = next(it) & full
        else:
            vals[i] = gate_mask(n, vals, full)
            for e in n.fanins:
                if last[e.target] == i:
                    vals[e.target] = 0
        if last[i] == i:  # read by no gate and no output
            vals[i] = 0
    return [(vals[e.target] ^ (full if e.inverted else 0)) & full
            for e in network.outputs]


def evaluate(network: LogicNetwork, assignment) -> list[int]:
    """Evaluate all outputs for one PI assignment (sequence of 0/1 bits)."""
    assignment = list(assignment)
    if len(assignment) != network.num_pis:
        raise NetlistError("assignment has %d bits, network has %d PIs"
                           % (len(assignment), network.num_pis))
    return evaluate_masks(network, assignment, 1)


def pi_patterns(num_pis: int) -> list[int]:
    """Standard exhaustive input masks: bit k of pattern i is bit i of k."""
    n_vec = 1 << num_pis
    pats = []
    for i in range(num_pis):
        pat = ((1 << (1 << i)) - 1) << (1 << i)  # one period: 0s, then 1s
        period = 1 << (i + 1)
        while period < n_vec:  # double the pattern up to 2^num_pis bits
            pat |= pat << period
            period <<= 1
        pats.append(pat)
    return pats


def truth_table_ints(network: LogicNetwork) -> list[int]:
    """Truth tables as packed integers (bit k = value under assignment k)."""
    k = network.num_pis
    if k > EXHAUSTIVE_MAX_PIS:
        raise NetlistError(
            "truth_table refused: %d PIs exceeds the %d-PI bound; "
            "use randomized checking (verifier.check_equivalence random mode)"
            % (k, EXHAUSTIVE_MAX_PIS))
    full = (1 << (1 << k)) - 1
    return evaluate_masks(network, pi_patterns(k), full)


def truth_table(network: LogicNetwork) -> list[list[int]]:
    """Exhaustive truth table, one bit list of length 2^num_pis per output."""
    n_vec = 1 << network.num_pis
    return [[(m >> v) & 1 for v in range(n_vec)]
            for m in truth_table_ints(network)]


# -- the MIG builder, cleaning, and AIG -> MIG ---------------------------------

class MigBuilder:
    """A MIG built gate by gate on integer literals, 2 * node + complement:
    node 0 is the constant, nodes 1..n the PIs named ``pi_names``, and each
    gate made is the next node.

    ``maj`` folds ``M(x, x, y) = x`` and ``M(x, not x, y) = y``, so a gate
    made has three distinct literals, none the complement of another; with
    ``strash`` a gate with the same set of fanin literals as an earlier gate
    is that gate.  ``network`` emits the one output form: every PI in
    order, used or not, then the constant if anything reads it, then the
    gates that reach an output, in the order made, with their names.
    """

    def __init__(self, pi_names, strash=True):
        self.pi_names = pi_names
        self.base = len(pi_names) + 1  # the first gate's node
        self.gates = []  # fanin literals of each gate, in the order made
        self.names = []
        self.table = {} if strash else None

    def maj(self, a, b, c, name=None) -> int:
        """Literal of MAJ(a, b, c), folded, merged or made."""
        if a == b or a == c or b ^ c == 1:
            return a
        if b == c or a ^ c == 1:
            return b
        if a ^ b == 1:
            return c
        at = 2 * (self.base + len(self.gates))
        if self.table is not None:
            hit = self.table.setdefault(frozenset((a, b, c)), at)
            if hit != at:
                return hit
        self.gates.append((a, b, c))
        self.names.append(name)
        return at

    def live(self, outputs) -> list[bool]:
        """Per node, whether it is kept for the output literals
        ``outputs``: every PI, and the constant and gates they reach."""
        base = self.base
        live = [False] + [True] * (base - 1) + [False] * len(self.gates)
        for l in outputs:
            live[l >> 1] = True
        for g in range(len(self.gates) - 1, -1, -1):
            if live[base + g]:
                for l in self.gates[g]:
                    live[l >> 1] = True
        return live

    def network(self, outputs, output_names, live) -> LogicNetwork:
        """The MIG of output literals ``outputs`` named ``output_names``,
        keeping the nodes ``live`` (``self.live(outputs)``) marks."""
        out = LogicNetwork(kind="mig")
        made = out.nodes
        by_lit = [None] * (2 * len(live))  # literal -> Edge

        def add(node: Node, at: int):
            by_lit[at] = Edge(len(made))
            by_lit[at + 1] = Edge(len(made), True)
            made.append(node)

        for j, name in enumerate(self.pi_names):
            add(Node(PI, (), name), 2 * j + 2)
        if live[0]:
            add(Node(CONST0), 0)
        for g, (a, b, c) in enumerate(self.gates, self.base):
            if live[g]:
                add(Node(MAJ, (by_lit[a], by_lit[b], by_lit[c]),
                         self.names[g - self.base]), 2 * g)
        out.outputs = [by_lit[l] for l in outputs]
        out.output_names = list(output_names)
        return out


def rebuild(network: LogicNetwork) -> LogicNetwork:
    """The cleaned MIG of ``network``, an AIG or a MIG: constants folded,
    equal gates merged and dead gates dropped; functions are unchanged.

    Each gate goes through a ``MigBuilder`` in source order, AND(a, b) as
    MAJ(a, b, 0), so the result is in the builder's one output form, with
    the outputs' order and names.  A MIG already in that form, with
    nothing to change, is returned as it is.
    """
    return _build(network, {})


def _build(network: LogicNetwork, cones: dict) -> LogicNetwork:
    """``rebuild``'s gate walk; a gate in ``cones``, mapped to its cut's
    sorted leaves and 8-bit table, is built from the leaves instead of its
    fanins (``rewrite_majority``)."""
    nodes = network.nodes
    builder = MigBuilder([n.name for n in nodes if n.kind == PI])
    maj = builder.maj
    lit = [0] * len(nodes)  # the builder literal of each node
    n_pi = 0
    for i, n in enumerate(nodes):
        if n.kind == PI:
            n_pi += 1
            lit[i] = 2 * n_pi
        elif i in cones:
            leaves, table = cones[i]
            a, b, c = (lit[x] for x in leaves)
            if table in _MAJORITY:
                p, neg = _MAJORITY[table]
                lit[i] = maj(a ^ p & 1, b ^ p >> 1 & 1, c ^ p >> 2,
                             n.name) ^ neg
            else:
                lit[i] = maj(maj(a, b, c) ^ 1, c, maj(a, b, c ^ 1),
                             n.name) ^ (table == _XNOR3)
        elif n.kind != CONST0:
            f = n.fanins
            lit[i] = maj(lit[f[0].target] ^ f[0].inverted,
                         lit[f[1].target] ^ f[1].inverted,
                         lit[f[2].target] ^ f[2].inverted
                         if n.kind == MAJ else 0, n.name)
    out_lits = [lit[e.target] ^ e.inverted for e in network.outputs]
    live = builder.live(out_lits)
    if (not cones and network.kind == "mig" and sum(live) == len(nodes)
            and all(n.kind == PI for n in nodes[:n_pi])
            and (not live[0] or nodes[n_pi].kind == CONST0)):
        return network  # every node kept, each in its own place
    return builder.network(out_lits, network.output_names, live)


def aig_to_mig(network: LogicNetwork) -> LogicNetwork:
    """The MIG of an AIG: ``rebuild``, each AND(a, b) a MAJ(a, b, 0).  A
    MIG is refused."""
    if network.kind != "aig":
        raise NetlistError("aig_to_mig expects an AIG")
    return rebuild(network)


# -- majority rewriting --------------------------------------------------------

_LEAF = (0xAA, 0xCC, 0xF0)  # 8-bit tables of a cut's leaves 0, 1 and 2
_XOR3, _XNOR3 = 0x96, 0x69


def _majority_tables() -> dict[int, tuple[int, int]]:
    """Each table of a 3-input majority in some polarity -> (the leaves it
    complements, as bits 0-2, and whether the output is complemented),
    complementing at most one leaf: M(not a, not b, not c) = not M(a, b, c)."""
    out = {}
    for p in (0, 1, 2, 4):
        a, b, c = (t ^ 0xFF if p >> j & 1 else t for j, t in enumerate(_LEAF))
        t = (a & b) | (a & c) | (b & c)
        out[t], out[t ^ 0xFF] = (p, 0), (p, 1)
    return out


_MAJORITY = _majority_tables()


@functools.cache
def _stretch(table: int, at: tuple[int, ...]) -> int:
    """``table`` over leaves 0..len(at)-1, as a table over a cut holding
    its leaf j at position ``at[j]``; at most 256 tables times 16
    placements are ever asked for, so the cache stays small."""
    out = 0
    for x in range(8):
        k = 0
        for j, pos in enumerate(at):
            k |= (x >> pos & 1) << j
        out |= (table >> k & 1) << x
    return out


def _first_cut(fanins, cuts) -> tuple[tuple[int, ...], int]:
    """The first merge of at most three leaves of one cut per fanin, in
    fanin order and each fanin's ``cuts`` in their order: the sorted leaf
    tuple and the gate's 8-bit table over it.  The fanins' own nodes
    always qualify, so there is one."""
    e0, e1, e2 = fanins
    for l0, t0 in cuts[e0.target]:
        for l1, t1 in cuts[e1.target]:
            u01 = set(l0).union(l1)
            if len(u01) > 3:
                continue
            for l2, t2 in cuts[e2.target]:
                leaves = tuple(sorted(u01.union(l2)))
                if len(leaves) > 3:
                    continue
                at = leaves.index
                a = _stretch(t0, tuple(map(at, l0))) ^ 0xFF * e0[1]
                b = _stretch(t1, tuple(map(at, l1))) ^ 0xFF * e1[1]
                c = _stretch(t2, tuple(map(at, l2))) ^ 0xFF * e2[1]
                return leaves, (a & b) | (a & c) | (b & c)
    raise AssertionError("a gate's fanins are a cut of it")


def rewrite_majority(mig: LogicNetwork) -> LogicNetwork:
    """``mig`` with each 3-input majority and XOR3 cone made of majorities.

    One pass in node order finds the cones.  Besides its trivial cut, each
    gate keeps one cut of at most three leaves, with its 8-bit table: the
    first such merge of one cut per fanin, each fanin's kept cut tried
    before its trivial one, so the deepest small cone is found first.  A
    gate whose kept cut has three leaves, other than its own fanins, and
    is a majority in some polarity becomes one MAJ of the leaves; one that
    is XOR3 or XNOR3 becomes ``M(not M(a,b,c), c, M(a,b,not c))`` with c
    the last leaf, whose M(a, b, c) the hashing ``MigBuilder`` shares with
    a carry over the same leaves.  The cones go through ``rebuild``'s gate
    walk, so the result has its output form.  A MIG with no such cone is
    returned as it is.
    """
    if mig.kind != "mig":
        raise NetlistError("rewrite_majority expects a MIG")
    nodes = mig.nodes
    cuts: list = [None] * len(nodes)  # per node, its cuts, trivial last
    cones = {}  # gate -> its kept cut, for the gates rewritten
    for i, n in enumerate(nodes):
        if n.kind == CONST0:
            cuts[i] = (((), 0),)
            continue
        trivial = ((i,), _LEAF[0])
        if n.kind == PI:
            cuts[i] = (trivial,)
            continue
        leaves, table = cut = _first_cut(n.fanins, cuts)
        cuts[i] = (cut, trivial)
        if len(leaves) == 3 and (table in _MAJORITY or table == _XOR3
                                 or table == _XNOR3) and set(leaves) != {
                                     e.target for e in n.fanins}:
            cones[i] = cut
    return _build(mig, cones) if cones else mig


# -- MIG normalization -------------------------------------------------------

def normalize_mig(network: LogicNetwork) -> LogicNetwork:
    """Rewrite a MIG so each node has canonical fanin polarity.

    The MIG is cleaned by ``rebuild`` first: ``M(x, not x, y)`` can no
    longer be seen once x is built apart for each polarity.  Complements
    are pushed with the majority self-duality
    ``not M(a,b,c) == M(not a, not b, not c)``: a node built complemented
    complements its fanins instead.  Each node inverts its internal fanin
    with the lowest source id, unless a primary-input or constant fanin is
    already inverted; no node can emit the complement of a raw leaf, so
    leaf edges keep their polarity.  So every node carries at most one
    complemented edge to an internal node, and exactly one complemented
    edge whenever it has an internal fanin and no inverted leaf.

    A source node is built once per polarity it is needed in and then
    referenced again, so the output has at most two MAJ nodes per source
    node.  Two linear passes do it: one from the outputs down marks each
    (node, polarity) needed, and one up feeds those gates, in source
    order and plain before complemented, to a ``MigBuilder`` that does not
    merge, so the result is in ``rebuild``'s output form.
    """
    if network.kind != "mig":
        raise NetlistError("normalize_mig expects a MIG")
    network = rebuild(network)
    nodes = network.nodes
    pi_names = [n.name for n in nodes if n.kind == PI]
    # builder literals of the leaves: in rebuild's form PI j is node j and
    # the constant, if any, node len(pi_names)
    leaf = [2 * j + 2 for j in range(len(pi_names))] + [0]

    def fanins(nid: int, flipped: bool):
        """``(target, inverted, internal)`` per fanin of node ``nid`` built
        complemented if ``flipped``, and the position of the fanin whose
        edge is complemented (-1 if none); an internal fanin's
        ``inverted`` is the polarity its child is built in."""
        ops = [(e.target, e.inverted ^ flipped, nodes[e.target].kind == MAJ)
               for e in nodes[nid].fanins]
        internal = [j for j, (_, _, is_maj) in enumerate(ops) if is_maj]
        if internal and not any(inv for _, inv, is_maj in ops if not is_maj):
            # the child absorbs the flip; the edge to it is complemented
            j = min(internal, key=lambda j: ops[j][0])
            ops[j] = (ops[j][0], not ops[j][1], True)
            return ops, j
        return ops, -1

    # down: each (source node, flipped) needed, complemented first, from
    # the last node to the first, so a node's fanins are marked before
    # the walk reaches them
    plans = {}  # needed (source node, flipped) -> its fanins
    need = {(e.target, e.inverted) for e in network.outputs
            if nodes[e.target].kind == MAJ}
    for nid in range(len(nodes) - 1, -1, -1):
        for key in ((nid, True), (nid, False)):
            if key in need:
                ops, _ = plans[key] = fanins(*key)
                need.update((t, inv) for t, inv, internal in ops if internal)
    # up: source order, plain before complemented
    builder = MigBuilder(pi_names, strash=False)
    made = {}  # (source node, flipped) -> builder literal
    for key in reversed(plans):
        ops, flip = plans[key]
        made[key] = builder.maj(*[
            made[t, inv] ^ (j == flip) if internal else leaf[t] ^ inv
            for j, (t, inv, internal) in enumerate(ops)],
            name=nodes[key[0]].name)
    out_lits = [made[e.target, e.inverted] if nodes[e.target].kind == MAJ
                else leaf[e.target] ^ e.inverted for e in network.outputs]
    return builder.network(out_lits, network.output_names,
                           builder.live(out_lits))


# -- ASCII AIGER -------------------------------------------------------------

def parse_aiger(text: str) -> LogicNetwork:
    """Read a combinational ASCII AIGER ("aag") document in one pass.

    The format numbers the inputs by line position: the k-th input line
    declares primary input k, node k of the network, named ``i<k>`` unless
    the symbol table names it, whatever variable the line gives.  Only
    what the text holds is built: each input is made when its line is
    read, and every section stops at its first missing line, whatever
    counts the header declares.  AND rows may come in any acyclic order;
    one depth-first walk from the rows in file order adds each row after
    the rows defining its inputs, so rows already in order keep it.
    Latches are rejected; constant literals 0/1 are supported.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty document")
    header = lines[0].split()
    if not header or header[0] != "aag":
        raise ParseError("expected 'aag' header", line=1)
    try:
        counts = [int(t) for t in header[1:]]
    except ValueError:
        raise ParseError("malformed header %r" % lines[0], line=1)
    if len(counts) < 5:
        raise ParseError("header needs M I L O A", line=1)
    m, n_in, n_latch, n_out, n_and = counts[:5]
    if n_latch > 0:
        raise ParseError("latches are not supported (combinational only)", line=1)
    if len(counts) > 5 and any(c != 0 for c in counts[5:]):
        raise ParseError("bad-state/constraint/justice/fairness sections "
                         "are not supported", line=1)
    idx = 1

    def section(count, what, width):
        """The next ``count`` lines, each as (its literals, line number)."""
        nonlocal idx
        for _ in range(count):
            if idx >= len(lines):
                raise ParseError("unexpected end of file, expected %s line"
                                 % what, line=len(lines))
            s = lines[idx]
            idx += 1
            lits = s.split()
            if len(lits) != width or not all(t.isdecimal() for t in lits):
                raise ParseError("malformed %s line %r" % (what, s), line=idx)
            yield [int(t) for t in lits], idx

    net = LogicNetwork(kind="aig")
    var_node: dict[int, int] = {}  # variable -> node id, once it is built
    for (lit,), ln in section(n_in, "input", 1):
        if lit & 1 or not 0 < lit >> 1 <= n_in or lit >> 1 in var_node:
            raise ParseError("input literal %d is not a new even literal "
                             "in 2..%d" % (lit, 2 * n_in), line=ln)
        var_node[lit >> 1] = net.add_pi("i%d" % len(var_node))
    outputs = list(section(n_out, "output", 1))
    rows = {}  # lhs variable -> (rhs literals, line), in file order
    for (lhs, r0, r1), ln in section(n_and, "and", 3):
        if lhs & 1 or lhs >> 1 <= n_in:
            raise ParseError("bad and lhs literal %d" % lhs, line=ln)
        if lhs >> 1 in rows:
            raise ParseError("and lhs literal %d is defined twice" % lhs,
                             line=ln)
        rows[lhs >> 1] = (r0, r1, ln)

    def lit_edge(lit: int, ln: int) -> Edge:
        if lit < 2 and 0 not in var_node:  # the constant, on first use
            var_node[0] = net.add_const0()
        if lit >> 1 not in var_node:
            raise ParseError("dangling literal %d" % lit, line=ln)
        return Edge(var_node[lit >> 1], bool(lit & 1))

    # the first row on top: a row is entered, then added once the rows
    # defining its inputs are; the walk meets an entered row only on a cycle
    stack = list(reversed(rows))
    entered = set()  # rows entered and not yet added
    while stack:
        var = stack[-1]
        if var in var_node:
            stack.pop()
            continue
        r0, r1, ln = rows[var]
        todo = []
        for lit in (r0, r1):
            if lit >> 1 in entered:
                raise ParseError("and gates form a cycle through literal %d"
                                 % (lit & ~1), line=ln)
            if lit >> 1 in rows and lit >> 1 not in var_node:
                todo.append(lit >> 1)
        if todo:
            entered.add(var)
            stack += reversed(todo)
        else:
            stack.pop()
            entered.discard(var)
            var_node[var] = net.add_node(AND, (lit_edge(r0, ln),
                                               lit_edge(r1, ln)))

    out_names = {}
    for s in lines[idx:]:
        if s.startswith("c"):
            break
        parts = s.split(None, 1)  # a name keeps its inner spaces
        if (len(parts) == 2 and parts[0][:1] in ("i", "o")
                and parts[0][1:].isdecimal()):
            pos, name = int(parts[0][1:]), parts[1].rstrip()
            if parts[0][0] == "i" and pos < n_in:
                net.nodes[pos].name = name  # input pos is node pos
            elif parts[0][0] == "o":
                out_names[pos] = name

    for pos, ((lit,), ln) in enumerate(outputs):
        try:
            net.add_output(lit_edge(lit, ln), out_names.get(pos))
        except NetlistError as exc:
            raise ParseError(str(exc), line=ln)
    net.validate()
    return net


# -- textual MIG format ------------------------------------------------------
#
# One node per line:
#   pi <id> [<name>]
#   const0 <id>
#   node <id> = MAJ(<lit>,<lit>,<lit>)     with <lit> = <id> or !<id>
#   po <lit> [<name>]
# '#' starts a comment.  A name is the rest of its line, spaces included.
# Ids must be declared before use (forward references are rejected) and
# arity is exactly three.

def parse_mig(text: str) -> LogicNetwork:
    net = LogicNetwork(kind="mig")
    id_map: dict[int, int] = {}

    def parse_lit(tok: str, ln: int) -> Edge:
        tok = tok.strip()
        inv = tok.startswith("!")
        if inv:
            tok = tok[1:]
        if not tok.isdecimal():
            raise ParseError("bad literal %r" % tok, line=ln)
        ext = int(tok)
        if ext not in id_map:
            raise ParseError("forward or unknown reference to id %d" % ext,
                             line=ln)
        return Edge(id_map[ext], inv)

    for ln, raw in enumerate(text.splitlines(), start=1):
        s = raw.split("#", 1)[0].strip()
        if not s:
            continue
        parts = s.split(None, 2)  # a name keeps its inner spaces
        if parts[0] == "pi":
            if len(parts) < 2 or not parts[1].isdecimal():
                raise ParseError("pi line needs an id", line=ln)
            ext = int(parts[1])
            if ext in id_map:
                raise ParseError("duplicate id %d" % ext, line=ln)
            name = parts[2] if len(parts) > 2 else None
            id_map[ext] = net.add_pi(name)
        elif parts[0] == "const0":
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ParseError("const0 line needs an id", line=ln)
            ext = int(parts[1])
            if ext in id_map:
                raise ParseError("duplicate id %d" % ext, line=ln)
            id_map[ext] = net.add_const0()
        elif parts[0] == "node":
            body = s[len("node"):].strip()
            if "=" not in body:
                raise ParseError("node line needs '='", line=ln)
            left, right = body.split("=", 1)
            if not left.strip().isdecimal():
                raise ParseError("bad node id %r" % left.strip(), line=ln)
            ext = int(left.strip())
            if ext in id_map:
                raise ParseError("duplicate id %d" % ext, line=ln)
            right = right.strip()
            if not (right.startswith("MAJ(") and right.endswith(")")):
                raise ParseError("expected MAJ(...)", line=ln)
            lits = right[4:-1].split(",")
            if len(lits) != 3:
                raise ParseError("MAJ takes exactly three fanins, got %d"
                                 % len(lits), line=ln)
            fanins = tuple(parse_lit(t, ln) for t in lits)
            id_map[ext] = net.add_node(MAJ, fanins)
        elif parts[0] == "po":
            if len(parts) < 2:
                raise ParseError("po line needs a literal", line=ln)
            edge = parse_lit(parts[1], ln)
            name = parts[2] if len(parts) > 2 else None
            try:
                net.add_output(edge, name)
            except NetlistError as exc:
                raise ParseError(str(exc), line=ln)
        else:
            raise ParseError("unknown directive %r" % parts[0], line=ln)
    net.validate()
    return net


def serialize_mig(network: LogicNetwork) -> str:
    if network.kind != "mig":
        raise NetlistError("serialize_mig expects a MIG")
    out = []

    def lit(e: Edge) -> str:
        return ("!" if e.inverted else "") + str(e.target)

    def name(text: str) -> str:
        # parse_mig reads the stripped rest of one line, up to any '#'
        if text.splitlines() != [text] or text != text.strip() or "#" in text:
            raise NetlistError("name %r cannot be written to a .mig line"
                               % text)
        return text

    for i, n in enumerate(network.nodes):
        if n.kind == PI:
            pi_name = "x%d" % i if n.name is None else n.name
            out.append("pi %d %s" % (i, name(pi_name)))
        elif n.kind == CONST0:
            out.append("const0 %d" % i)
        else:
            out.append("node %d = MAJ(%s,%s,%s)" % (
                i, lit(n.fanins[0]), lit(n.fanins[1]), lit(n.fanins[2])))
    for e, po_name in zip(network.outputs, network.output_names):
        out.append("po %s %s" % (lit(e), name(po_name)))
    return "\n".join(out) + "\n"


# -- random networks (used by tests and the bench corpus) --------------------

def random_aig(num_pis: int, num_ands: int, seed: int = 0,
               num_outputs: int = 1) -> LogicNetwork:
    return _random_network("aig", AND, "i", num_pis, num_ands, seed,
                           num_outputs)


def random_mig(num_pis: int, num_nodes: int, seed: int = 0,
               num_outputs: int = 1) -> LogicNetwork:
    return _random_network("mig", MAJ, "x", num_pis, num_nodes, seed,
                           num_outputs)


def _random_network(kind, gate, prefix, num_pis, num_gates, seed,
                    num_outputs) -> LogicNetwork:
    """Seeded network of ``num_gates`` gates over any earlier nodes; each
    gate draws its fanins' targets, then their complement flags."""
    rng = random.Random(seed)
    net = LogicNetwork(kind=kind)
    for i in range(num_pis):
        net.add_pi("%s%d" % (prefix, i))
    for _ in range(num_gates):
        picks = [rng.randrange(len(net.nodes)) for _ in range(_ARITY[gate])]
        net.add_node(gate, tuple(Edge(p, rng.random() < 0.5) for p in picks))
    for i in range(num_outputs):
        net.add_output(Edge(len(net.nodes) - 1 - i % max(1, num_gates),
                            rng.random() < 0.5), "o%d" % i)
    return net
