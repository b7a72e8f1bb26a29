import hashlib
import json
import random
import time

import pytest

from revamp.areamap import map_area
from revamp.circuits import (AigBuilder, comparator, default_corpus,
                             full_adder, multiplier, parity, ripple_adder)
from revamp.lutmap import (PI_REF, Lut, LutGraph, _best_cuts, _cone_tt,
                           _leaves, assign_levels, cover_klut, feasible,
                           lut_graph_to_dict, lut_truth_table, min_dev)
from revamp.netlist import (AND, CONST0, MAJ, Edge, LogicNetwork, aig_to_mig,
                            evaluate_masks, parse_aiger, parse_mig,
                            pi_patterns, random_aig, rebuild, serialize_mig,
                            truth_table_ints)
from revamp.verifier import check_equivalence


def evaluate_lut_graph_masks(graph: LutGraph, pi_masks: list[int],
                             full: int) -> list[int]:
    """Reference: each LUT as the OR of its on-set minterms, bit-parallel."""
    vals = [0] * len(graph.luts)
    for lut in graph.luts:
        ins = []
        for kind, ref in lut.inputs:
            ins.append(pi_masks[ref] if kind == PI_REF else vals[ref])
        acc = 0
        for k in range(1 << len(ins)):
            if not (lut.tt >> k) & 1:
                continue
            term = full
            for i, mv in enumerate(ins):
                term &= mv if (k >> i) & 1 else full & ~mv
            acc |= term
        vals[lut.id] = acc
    return [vals[o] for o in graph.outputs]


def lut_graph_truth_tables(graph: LutGraph) -> list[int]:
    full = (1 << (1 << graph.num_pis)) - 1
    return evaluate_lut_graph_masks(graph, pi_patterns(graph.num_pis), full)


def test_trivial_cover_one_lut_per_and():
    net = random_aig(num_pis=4, num_ands=10, seed=1)
    graph = cover_klut(net, 2)
    # the cover is of the cleaned network, which keeps five gates, one LUT
    # per gate but for AND(AND(x, !y), !y): that cone still has the two
    # leaves x and y, so it takes its inner gate in
    mig = rebuild(net)
    assert sum(n.kind == MAJ for n in mig.nodes) == 5
    assert len(graph.luts) == 4
    assert all(len(l.inputs) <= 2 for l in graph.luts)
    assert lut_graph_truth_tables(graph) == truth_table_ints(net)


@pytest.mark.parametrize("k", [3, 4, 6])
def test_a_mig_covers_like_its_aig(k):
    """The cover of a MIG read from text equals the cover of the AIG it
    was written from: the constant of MAJ(a, b, 0) takes no LUT input."""
    for name, net in default_corpus():
        mig = parse_mig(serialize_mig(rebuild(net)))
        aig_graph, mig_graph = cover_klut(net, k), cover_klut(mig, k)
        assert mig_graph.luts == aig_graph.luts, (name, k)
        assert mig_graph.outputs == aig_graph.outputs, (name, k)


def test_cover_partitions_two_luts():
    # two disjoint cones of three ANDs each fit in two 4-input LUTs
    net = LogicNetwork(kind="aig")
    pis = [net.add_pi() for _ in range(8)]
    g = []
    for base in (0, 4):
        a = net.add_node(AND, (Edge(pis[base]), Edge(pis[base + 1], True)))
        b = net.add_node(AND, (Edge(pis[base + 2]), Edge(pis[base + 3])))
        g.append(net.add_node(AND, (Edge(a), Edge(b, True))))
    net.add_output(Edge(g[0]))
    net.add_output(Edge(g[1]))
    graph = cover_klut(net, 4)
    assert len(graph.luts) == 2
    assert all(len(l.inputs) == 4 for l in graph.luts)
    assert lut_graph_truth_tables(graph) == truth_table_ints(net)


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_cover_equivalence_random(k):
    for seed in range(12):
        net = random_aig(num_pis=8, num_ands=20 + seed, seed=seed,
                         num_outputs=2)
        graph = cover_klut(net, k)
        assert all(len(l.inputs) <= k for l in graph.luts)
        assert lut_graph_truth_tables(graph) == truth_table_ints(net)


def test_cover_handles_constants_and_wires():
    net = parse_aiger("aag 1 1 0 3 0\n2\n2\n3\n0\n")
    graph = cover_klut(net, 4)
    assert lut_graph_truth_tables(graph) == truth_table_ints(net)


def test_cover_known_circuits():
    for builder in (full_adder, lambda: ripple_adder(3)):
        net = builder()
        for k in (2, 4, 6):
            graph = cover_klut(net, k)
            assert lut_graph_truth_tables(graph) == truth_table_ints(net)


def test_lut_truth_table_bits():
    lut = Lut(0, (("pi", 0), ("pi", 1)), 0b1000)
    assert lut_truth_table(lut) == [0, 0, 0, 1]


def _chain_graph(n):
    graph = LutGraph(k=2, num_pis=1)
    prev = None
    for i in range(n):
        inputs = (("pi", 0),) if prev is None else (("lut", prev),)
        graph.luts.append(Lut(i, inputs, 0b10))
        prev = i
    graph.outputs = [n - 1]
    graph.output_names = ["o0"]
    assign_levels(graph)
    return graph


def test_chain_has_no_transients():
    graph = _chain_graph(6)
    for l in range(7):
        assert transient_nodes(graph, l) == set()


def test_transient_detection():
    # lut1 at level 1 feeds lut3 at level 3, skipping level 2
    graph = LutGraph(k=2, num_pis=2)
    graph.luts = [
        Lut(0, (("pi", 0), ("pi", 1)), 0b1000),
        Lut(1, (("pi", 0),), 0b10),
        Lut(2, (("lut", 0),), 0b10),
        Lut(3, (("lut", 2), ("lut", 1)), 0b1000),
    ]
    graph.outputs = [3]
    graph.output_names = ["o0"]
    assign_levels(graph)
    assert graph.luts[3].level == 3
    assert transient_nodes(graph, 2) == {1}
    assert transient_nodes(graph, 1) == set()


def transient_nodes(graph, level):
    """LUTs below ``level`` with an edge to a LUT above it."""
    out = set()
    for lut in graph.luts:
        for kind, ref in lut.inputs:
            if kind == "lut" and graph.luts[ref].level < level < lut.level:
                out.add(ref)
    return out


def min_dev_per_level(graph):
    """Reference device demand: a transient scan at every level, then the
    worst adjacent pair of populations plus the outputs held below it."""
    l_max = max((l.level for l in graph.luts), default=0)
    if l_max == 0:
        return 0
    transients = [transient_nodes(graph, l) for l in range(l_max + 1)]
    pops = [len(t) for t in transients]
    for lut in graph.luts:
        pops[lut.level] += 1
    pops[0] = 0
    outputs = set(graph.outputs)
    best = 0
    for l in range(l_max):
        held = sum(1 for o in outputs
                   if graph.luts[o].level < l and o not in transients[l])
        best = max(best, pops[l] + pops[l + 1] + held)
    return best


def _random_lut_graph(rng, max_inputs, num_pis=3):
    num = rng.randrange(2, 16)
    graph = LutGraph(k=max_inputs, num_pis=num_pis)
    for i in range(num):
        pool = [("pi", p) for p in range(num_pis)] + [("lut", j)
                                                      for j in range(i)]
        picks = rng.sample(pool, k=min(len(pool),
                                       rng.randrange(1, max_inputs + 1)))
        graph.luts.append(Lut(i, tuple(picks),
                              rng.getrandbits(1 << len(picks))))
    graph.outputs = sorted(rng.sample(range(num),
                                      rng.randrange(1, min(4, num + 1))))
    if num - 1 not in graph.outputs:
        graph.outputs.append(num - 1)
    graph.output_names = ["o%d" % i for i in range(len(graph.outputs))]
    assign_levels(graph)
    return graph


@pytest.mark.parametrize("k", range(2, 9))
def test_min_dev_matches_the_per_level_formula(k):
    rng = random.Random(k)
    for seed in range(8):
        net = random_aig(num_pis=8, num_ands=30 + 10 * seed,
                         seed=100 * k + seed, num_outputs=1 + seed % 4)
        graph = cover_klut(net, k)
        assert min_dev(graph) == min_dev_per_level(graph), seed
    for trial in range(40):
        graph = _random_lut_graph(rng, k)
        assert min_dev(graph) == min_dev_per_level(graph), trial


def test_min_dev_single_level():
    graph = LutGraph(k=4, num_pis=4)
    for i in range(5):
        graph.luts.append(Lut(i, (("pi", 0), ("pi", 1)), 0b1000))
    graph.outputs = list(range(5))
    graph.output_names = ["o%d" % i for i in range(5)]
    assign_levels(graph)
    assert min_dev(graph) == 5


def test_min_dev_two_levels():
    graph = LutGraph(k=4, num_pis=4)
    for i in range(3):
        graph.luts.append(Lut(i, (("pi", 0), ("pi", 1)), 0b1000))
    for i in range(3, 7):
        graph.luts.append(Lut(i, (("lut", 0), ("lut", 1), ("lut", 2)),
                              0b10101010))
    graph.outputs = [3, 4, 5, 6]
    graph.output_names = ["o%d" % i for i in range(4)]
    assign_levels(graph)
    assert min_dev(graph) == 7


def test_min_dev_counts_transients():
    graph = LutGraph(k=2, num_pis=2)
    graph.luts = [
        Lut(0, (("pi", 0), ("pi", 1)), 0b1000),
        Lut(1, (("pi", 0),), 0b10),
        Lut(2, (("lut", 0),), 0b01),
        Lut(3, (("lut", 2), ("lut", 1)), 0b1000),
    ]
    graph.outputs = [3]
    graph.output_names = ["o0"]
    assign_levels(graph)
    # populations: L1 = {0,1}, L2 = {2, transient 1}, L3 = {3}
    assert min_dev(graph) == 4


def test_min_dev_brute_census():
    # independent census: per adjacent level pair, enumerate everything that
    # must be live (both populations with transients, plus finished outputs
    # that the final state still has to hold)
    rng = random.Random(5)
    for trial in range(40):
        num = rng.randrange(2, 14)
        graph = LutGraph(k=3, num_pis=3)
        for i in range(num):
            pool = [("pi", rng.randrange(3))] + [("lut", j)
                                                 for j in range(i)]
            picks = rng.sample(pool, k=min(len(pool), rng.randrange(1, 4)))
            graph.luts.append(Lut(i, tuple(picks),
                                  rng.getrandbits(1 << len(picks))))
        graph.outputs = sorted(rng.sample(range(num),
                                          rng.randrange(1, min(4, num + 1))))
        if num - 1 not in graph.outputs:
            graph.outputs.append(num - 1)
        graph.output_names = ["o%d" % i for i in range(len(graph.outputs))]
        assign_levels(graph)
        top = max(l.level for l in graph.luts)
        expect = 0
        for l in range(top):
            # the demand formula sums the two level populations (a value
            # transient across both windows budgets one device per window)
            def population(lv):
                if lv == 0:
                    return 0
                return (sum(1 for x in graph.luts if x.level == lv)
                        + len(transient_nodes(graph, lv)))

            held = {o for o in graph.outputs if graph.luts[o].level < l}
            held -= transient_nodes(graph, l)
            expect = max(expect, population(l) + population(l + 1)
                         + len(held))
        assert min_dev(graph) == expect


def test_feasibility_gate_boundary():
    graph = _chain_graph(2)
    # demand is 2 (two adjacent single-node levels)
    assert min_dev(graph) == 2
    assert feasible(graph, 4, 2)        # capacity (4-3)*2 = 2: equality holds
    assert not feasible(graph, 4, 1)    # capacity 1
    assert not feasible(graph, 3, 8)    # no storage rows at all


def _scalar_cone(net, root, leaves, leaf_bits):
    """Value of ``root`` with the leaves forced, by scalar topological
    evaluation (inputs outside the cut are 0 and must not matter)."""
    vals = []
    for i, n in enumerate(net.nodes[:root + 1]):
        if i in leaf_bits:
            vals.append(leaf_bits[i])
        elif n.kind == MAJ:
            ops = [vals[e.target] ^ e.inverted for e in n.fanins]
            vals.append(int(sum(ops) >= 2))
        else:
            vals.append(0)
    return vals[root]


def test_cone_tt_matches_scalar_reference():
    for seed in range(15):
        net = LogicNetwork(kind="aig")
        for _ in range(6):
            net.add_pi()
        net.add_const0()
        rng = random.Random(seed)
        for _ in range(30):
            hi = len(net.nodes)
            net.add_node(AND, (Edge(rng.randrange(hi), rng.random() < 0.5),
                               Edge(rng.randrange(hi), rng.random() < 0.5)))
        net.add_output(Edge(len(net.nodes) - 1))
        mig = rebuild(net)
        fanout = mig.fanout_counts()
        for k in (2, 4, 6):
            best = _best_cuts(mig, k, fanout)
            for root in (i for i, n in enumerate(mig.nodes)
                         if n.kind == MAJ):
                cut = _leaves(best[root])
                tt = _cone_tt(mig, root, cut)
                for a in range(1 << len(cut)):
                    bits = {leaf: (a >> i) & 1 for i, leaf in enumerate(cut)}
                    assert (tt >> a) & 1 == _scalar_cone(mig, root, cut, bits)


def test_parity_covers_as_a_chain_of_four_input_luts():
    """Each XOR reads the one before it through both its inner ANDs, so
    every XOR but the last has two fanouts; the priority cuts take such
    nodes into a cone, so 64 inputs take 21 LUTs of four inputs, one a
    level (a cover cut at every node of several fanouts takes 63 LUTs of
    two inputs)."""
    graph = cover_klut(parity(64), 4)
    assert len(graph.luts) == 21
    assert max(l.level for l in graph.luts) == 21
    assert all(len(l.inputs) == 4 for l in graph.luts)


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8, 16])
def test_cover_luts_fit_k_and_read_no_constant(k):
    nets = [net for _, net in default_corpus()]
    nets += [aig_to_mig(net) for net in nets[:4]]
    for net in nets:
        graph = cover_klut(net, k)
        assert all(len(l.inputs) <= k for l in graph.luts)
        mig = rebuild(net)
        const = {i for i, n in enumerate(mig.nodes) if n.kind == CONST0}
        best = _best_cuts(mig, k, mig.fanout_counts())
        assert not any(set(_leaves(m)) & const for m in best)
        # a LUT reads each input once
        assert all(len(set(l.inputs)) == len(l.inputs) for l in graph.luts)


def test_cover_is_deterministic():
    for net in (multiplier(6), random_aig(12, 150, seed=4, num_outputs=5)):
        for k in (4, 8):
            first, again = cover_klut(net, k), cover_klut(net, k)
            assert first.luts == again.luts
            assert first.outputs == again.outputs


@pytest.mark.parametrize("k", range(2, 17))
def test_mult8_maps_and_verifies_at_every_k(k):
    """Every k gives a bounded program: never longer than the 2,049
    instructions mult8 took at k = 4 under the greedy cover, mapped in
    under two seconds, and proven on all 65,536 input vectors."""
    net = multiplier(8)
    start = time.perf_counter()
    program, report = map_area(net, k, 256, 32)
    assert time.perf_counter() - start < 2.0
    assert report.i_total <= 2049
    assert check_equivalence(net, program).ok


def _and_chain(n):
    b = AigBuilder()
    acc = b.pi()
    for _ in range(n - 1):
        acc = b.and_(acc, b.pi())
    b.output(acc, "y")
    return b.build()


@pytest.mark.parametrize("build", [lambda: parity(2000),
                                   lambda: _and_chain(3000)],
                         ids=["parity2000", "and_chain3000"])
def test_cover_deep_networks_without_recursion(build):
    net = build()
    graph = cover_klut(net, 4)
    assert all(len(l.inputs) <= 4 for l in graph.luts)
    rng = random.Random(2000)
    full = (1 << 64) - 1
    for _ in range(4):
        masks = [rng.getrandbits(64) for _ in range(net.num_pis)]
        assert (evaluate_lut_graph_masks(graph, masks, full)
                == evaluate_masks(net, masks, full))


# sha256 over the serialized covers of the default corpus, then mult8,
# cmp16, parity64 and a seeded 24-input random AIG, each at k = 2, 3, 4, 6, 8
PINNED_LUT_COVERS = (
    "527edfe467613ac206a0d55057f622c8fbaa2fc3f7b863df2c0dd029787b930f")


def test_lut_covers_pinned():
    nets = [net for _, net in default_corpus()] + [
        multiplier(8), comparator(16), parity(64),
        random_aig(24, 120, seed=5, num_outputs=6)]
    digest = hashlib.sha256()
    for net in nets:
        for k in (2, 3, 4, 6, 8):
            digest.update(json.dumps(lut_graph_to_dict(cover_klut(net, k)),
                                     sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_LUT_COVERS
