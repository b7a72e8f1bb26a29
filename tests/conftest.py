"""Shared golden fixtures: the hand-assembled two-bit XOR program, the
five-input reference MIG used across the mapping tests, the leaf-output
MIGs of the depth-bounded flow, a layered MIG whose tree is far larger
than its network, the tree-size reference the depth-bounded flow's MAJ
count is held to, an ASCII AIGER writer for the ``.aag`` files the CLI
tests read, the fixpoint check of delay-flow block merging, the MIG the
delay flow chooses to map and an Apply built from a full pair field."""

import random

from revamp.circuits import two_bit_xor_program  # noqa: F401  (re-export)
from revamp.delaymap import assign_roles, compute_bound
from revamp.isa import ApplyInstr
from revamp.netlist import (AND, CONST0, MAJ, Edge, LogicNetwork,
                            NetlistError, levels, rewrite_majority)


# two PIs and a constant; the one output is a leaf, plain or complemented
LEAF_OUTPUT_MIGS = {"%s%s" % ("!" * inv, leaf): (
    "pi 0 a\npi 1 b\nconst0 2\npo %s%d f\n" % ("!" * inv, target))
    for leaf, target in (("b", 1), ("const0", 2)) for inv in (0, 1)}


def example_mig() -> LogicNetwork:
    """Five-input reference MIG with four majority nodes and output s4.

    s1 = M(a, b, !c); s2 = M(a, b, c); s3 = M(s1, c, !s2);
    s4 = M(s3, d, e).
    """
    net = LogicNetwork(kind="mig")
    a = net.add_pi("a")
    b = net.add_pi("b")
    c = net.add_pi("c")
    d = net.add_pi("d")
    e = net.add_pi("e")
    s1 = net.add_node(MAJ, (Edge(a), Edge(b), Edge(c, True)), name="s1")
    s2 = net.add_node(MAJ, (Edge(a), Edge(b), Edge(c)), name="s2")
    s3 = net.add_node(MAJ, (Edge(s1), Edge(c), Edge(s2, True)), name="s3")
    s4 = net.add_node(MAJ, (Edge(s3), Edge(d), Edge(e)), name="s4")
    net.add_output(Edge(s4), "s4")
    return net


def layered_mig(num_pis: int, width: int, depth: int,
                seed: int = 0) -> LogicNetwork:
    """Seeded MIG of ``depth`` layers of ``width`` MAJ nodes.  Each node
    takes three distinct nodes of the layer below, each in a random
    polarity, and the output is the first node of the top layer.  So the
    network stays a few dozen nodes while its tree grows as 3^depth."""
    rng = random.Random(seed)
    net = LogicNetwork(kind="mig")
    layer = [net.add_pi("x%d" % i) for i in range(num_pis)]
    for _ in range(depth):
        layer = [net.add_node(MAJ, tuple(Edge(t, rng.random() < 0.5)
                                         for t in rng.sample(layer, 3)))
                 for _ in range(width)]
    net.add_output(Edge(layer[0]), "f")
    return net


def tree_size(network: LogicNetwork) -> int:
    """MAJ nodes in the per-output trees of ``network``, counted in one
    pass without building them: a MAJ node counts 1 plus the sizes of its
    MAJ fanins, summed over outputs.  ``map_minimal`` evaluates at most one
    MAJ per tree node, fewer where it copies a value the crossbar holds."""
    nodes = network.nodes
    sizes = [0] * len(nodes)
    for i, n in enumerate(nodes):  # fanins come before their node
        if n.kind == MAJ:
            sizes[i] = 1 + sum(sizes[e.target] for e in n.fanins)
    return sum(sizes[e.target] for e in network.outputs)


def sharing_pairs_that_overflow(formation, w_d: int) -> int:
    """Assert that every two blocks sharing an input value overflow the
    word together (so no input merge is left to make); return how many
    such pairs there are."""
    blocks = formation.blocks
    ivals = [{el.value for el in b.elements if el.tag == "i"}
             for b in blocks]
    pairs = 0
    for j in range(len(blocks)):
        for i in range(j):
            shared = ivals[i] & ivals[j]
            if shared:
                pairs += 1
                assert len(blocks[i]) + len(blocks[j]) - len(shared) \
                    > w_d, (blocks[i].id, blocks[j].id, w_d)
    return pairs


def delay_mapped_mig(mig: LogicNetwork) -> LogicNetwork:
    """The MIG ``map_delay`` maps for ``mig``, chosen by its stated rule:
    the majority rewrite when that rewrite's compute bound is not higher,
    else ``mig``."""
    rewritten = rewrite_majority(mig)
    if rewritten is mig:
        return mig

    def bound(m):
        lv = levels(m)
        return compute_bound(m, assign_roles(m, lv), lv)
    return rewritten if bound(rewritten) <= bound(mig) else mig


def apply_from_pairs(w, source, ws, pairs) -> ApplyInstr:
    """The Apply whose ``(v val)`` field is ``pairs``, one ``BitlinePair``
    per bitline: its v=1 pairs become ``lines``, and a v=0 pair's val is
    dropped."""
    return ApplyInstr(w, source, ws, tuple(
        (j, p.val) for j, p in enumerate(pairs) if p.valid), len(pairs))


def serialize_aig(network: LogicNetwork) -> str:
    """Write an AIG back to ASCII AIGER."""
    if network.kind != "aig":
        raise NetlistError("serialize_aig expects an AIG")
    pis = network.pis
    var_of: dict[int, int] = {nid: i + 1 for i, nid in enumerate(pis)}
    ands = [i for i, n in enumerate(network.nodes) if n.kind == AND]
    for j, nid in enumerate(ands):
        var_of[nid] = len(pis) + 1 + j

    def lit(e: Edge) -> int:
        node = network.nodes[e.target]
        if node.kind == CONST0:
            return 1 if e.inverted else 0
        return var_of[e.target] * 2 + (1 if e.inverted else 0)

    m = len(pis) + len(ands)
    out = ["aag %d %d 0 %d %d" % (m, len(pis), len(network.outputs), len(ands))]
    for nid in pis:
        out.append(str(var_of[nid] * 2))
    for e in network.outputs:
        out.append(str(lit(e)))
    for nid in ands:
        f = network.nodes[nid].fanins
        out.append("%d %d %d" % (var_of[nid] * 2, lit(f[0]), lit(f[1])))
    for i, nid in enumerate(pis):
        if network.nodes[nid].name:
            out.append("i%d %s" % (i, network.nodes[nid].name))
    for i, name in enumerate(network.output_names):
        if name:
            out.append("o%d %s" % (i, name))
    return "\n".join(out) + "\n"
