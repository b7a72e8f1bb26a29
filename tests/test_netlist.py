import hashlib
import itertools
import random
import time

import pytest

from conftest import example_mig, serialize_aig
from revamp.circuits import (AigBuilder, comparator, default_corpus,
                             full_adder, multiplier, parity, ripple_adder)
from revamp.netlist import (AND, CONST0, MAJ, PI, Edge, LogicNetwork,
                            NetlistError, ParseError, aig_to_mig, evaluate,
                            evaluate_masks, gate_mask, levels, normalize_mig,
                            parse_aiger, parse_mig, pi_patterns, random_aig,
                            random_mig, rebuild, rewrite_majority,
                            serialize_mig, truth_table, truth_table_ints)


def _shape(net):
    """Network structure up to node names."""
    return net.kind, [(n.kind, n.fanins) for n in net.nodes], net.outputs


def test_parse_single_buffer():
    net = parse_aiger("aag 1 1 0 1 0\n2\n2\n")
    assert net.num_pis == 1
    assert net.outputs == [Edge(0, False)]
    assert truth_table(net) == [[0, 1]]


def test_parse_two_input_and():
    net = parse_aiger("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
    assert truth_table(net) == [[0, 0, 0, 1]]


def test_parse_inverted_output_and_const():
    net = parse_aiger("aag 1 1 0 2 0\n2\n3\n1\n")
    assert truth_table(net) == [[1, 0], [1, 1]]


def test_parse_rejects_latches():
    with pytest.raises(ParseError):
        parse_aiger("aag 2 1 1 1 0\n2\n4 2\n4\n")


def test_parse_rejects_dangling_literal():
    with pytest.raises(ParseError) as err:
        parse_aiger("aag 3 2 0 1 0\n2\n4\n12\n")
    assert "line" in str(err.value)


def test_parse_resolves_a_reversed_chain_in_linear_time():
    n = 20000
    rows = ["%d %d 2" % (2 * k + 4, 2 * k + 2) for k in range(n)]
    text = "aag %d 1 0 1 %d\n2\n%d\n" % (n + 1, n, 2 * n + 2)
    t0 = time.perf_counter()
    net = parse_aiger(text + "\n".join(reversed(rows)) + "\n")
    assert time.perf_counter() - t0 < 1.0
    assert truth_table(net) == [[0, 1]]


def test_parse_shuffled_and_rows_keep_the_function():
    for seed in range(30):
        net = random_aig(num_pis=2 + seed % 6, num_ands=5 + seed % 30,
                         seed=seed, num_outputs=1 + seed % 3)
        lines = serialize_aig(net).splitlines()
        first = 1 + net.num_pis + len(net.outputs)
        rows = lines[first:first + sum(1 for n in net.nodes if n.kind == AND)]
        random.Random(seed).shuffle(rows)
        lines[first:first + len(rows)] = rows
        again = parse_aiger("\n".join(lines) + "\n")
        assert truth_table_ints(again) == truth_table_ints(net)


def test_parse_binds_inputs_by_line_position():
    # the first input line declares variable 2, so it is input 0
    net = parse_aiger("aag 2 2 0 1 0\n4\n2\n2\n")
    assert truth_table(net) == [[0, 0, 1, 1]]
    net = parse_aiger("aag 3 2 0 1 1\n4\n2\n7\n6 4 3\ni0 a\ni1 b\n")
    assert [net.nodes[p].name for p in net.pis] == ["a", "b"]
    assert truth_table(net) == [[1, 0, 1, 1]]  # not (a and not b)


def test_parse_refuses_a_header_promising_more_inputs_than_lines():
    text = "aag 5000000 5000000 0 0 0\n"
    t0 = time.perf_counter()
    with pytest.raises(ParseError, match="line 1: unexpected end of file"):
        parse_aiger(text)
    assert time.perf_counter() - t0 < 0.5


def test_parse_names_many_inputs_in_linear_time():
    n = 20000
    text = ("aag %d %d 0 1 0\n" % (n, n)
            + "".join("%d\n" % (2 * k + 2) for k in range(n))
            + "%d\n" % (2 * n)
            + "".join("i%d in%d\n" % (k, k) for k in range(n)))
    t0 = time.perf_counter()
    net = parse_aiger(text)
    assert time.perf_counter() - t0 < 1.0
    assert [net.nodes[p].name for p in net.pis] == ["in%d" % k
                                                    for k in range(n)]
    assert net.outputs == [Edge(net.pis[-1])]


def test_parse_rejects_cyclic_and_rows():
    with pytest.raises(ParseError,
                       match="line 5: and gates form a cycle through literal 6"):
        parse_aiger("aag 4 1 0 1 2\n2\n8\n6 2 8\n8 6 2\n")


def test_parse_rejects_an_and_gate_defined_twice():
    with pytest.raises(ParseError, match="line 5: and lhs literal 4 is defined"):
        parse_aiger("aag 2 1 0 1 2\n2\n4\n4 2 2\n4 3 3\n")


def test_parse_rejects_garbage_header():
    with pytest.raises(ParseError):
        parse_aiger("aig 1 1 0 1 0\n2\n2\n")


def test_aiger_roundtrip_random():
    for seed in range(30):
        net = random_aig(num_pis=1 + seed % 8, num_ands=seed % 12,
                         seed=seed, num_outputs=1 + seed % 3)
        again = parse_aiger(serialize_aig(net))
        assert _shape(again) == _shape(net)


def test_names_survive_aiger_roundtrip():
    net = parse_aiger("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 x\ni1 y\no0 z\n")
    text = serialize_aig(net)
    again = parse_aiger(text)
    assert again.nodes[again.pis[0]].name == "x"
    assert again.output_names == ["z"]


def test_mig_text_roundtrip_example():
    net = example_mig()
    again = parse_mig(serialize_mig(net))
    assert _shape(again) == _shape(net)
    majs = [n for n in again.nodes if n.kind == MAJ]
    assert len(majs) == 4
    assert again.num_pis == 5


def test_mig_roundtrip_random():
    for seed in range(100):
        net = random_mig(num_pis=2 + seed % 6, num_nodes=1 + seed % 9,
                         seed=seed)
        assert _shape(parse_mig(serialize_mig(net))) == _shape(net)


@pytest.mark.parametrize("symbols, pi_names, po_names", [
    ("i0 in a\no0 carry out\n", ["in a", "i1"], ["carry out", "o1"]),
    ("o0 q x\no1 q y\n", ["i0", "i1"], ["q x", "q y"]),
    ("i0 a \no0 f\t\no1 g h  \n", ["a", "i1"], ["f", "g h"]),
], ids=["spaced", "shared-first-word", "trailing-space"])
def test_mig_roundtrip_keeps_names_with_spaces(symbols, pi_names, po_names):
    # AIGER symbol names may hold spaces, and the MIG text keeps all of them
    # but the trailing ones, which the reader strips
    net = aig_to_mig(parse_aiger("aag 3 2 0 2 1\n2\n4\n6\n7\n6 2 4\n"
                                 + symbols))
    again = parse_mig(serialize_mig(net))
    assert [again.nodes[p].name for p in again.pis] == pi_names
    assert again.output_names == po_names
    assert _shape(again) == _shape(net)


@pytest.mark.parametrize("bad", ["", " a", "a ", "a#b", "a\nb", "a\rb"],
                         ids=["empty", "leading-space", "trailing-space",
                              "hash", "newline", "carriage-return"])
def test_serialize_mig_refuses_a_name_it_cannot_read_back(bad):
    net = parse_mig("pi 0 a\npo 0 f\n")
    net.output_names = [bad]
    with pytest.raises(NetlistError, match="cannot be written"):
        serialize_mig(net)
    net = parse_mig("pi 0 a\npo 0 f\n")
    net.nodes[0].name = bad
    with pytest.raises(NetlistError, match="cannot be written"):
        serialize_mig(net)


def test_mig_constant_output():
    net = parse_mig("const0 0\npo !0 one\n")
    assert truth_table(net) == [[1]]


def test_mig_parse_errors():
    with pytest.raises(ParseError):
        parse_mig("node 0 = MAJ(1,2,3)\n")  # forward refs
    with pytest.raises(ParseError):
        parse_mig("pi 0 a\nnode 1 = MAJ(0,0)\npo 1\n")  # arity


def test_parsers_refuse_digits_int_cannot_read():
    # "²" is a digit to str.isdigit, but int() refuses it
    for text in ("pi ² a\n", "const0 ²\n", "node ² = MAJ(0,0,0)\n",
                 "pi 0 a\npo ²\n"):
        with pytest.raises(ParseError):
            parse_mig(text)
    net = parse_aiger("aag 1 1 0 1 0\n2\n2\ni² x\n")  # not a symbol line
    assert net.nodes[0].name == "i0"


def test_mig_refuses_duplicate_output_names():
    # the second po takes the default name o1, which the first already uses
    text = "pi 0 a\npi 1 b\npi 2 c\nnode 3 = MAJ(0,1,2)\n" \
           "node 4 = MAJ(0,!1,2)\npo 3 o1\npo 4\n"
    with pytest.raises(ParseError, match="line 7: duplicate output name 'o1'"):
        parse_mig(text)


def test_aiger_refuses_duplicate_output_names():
    text = "aag 3 2 0 2 1\n2\n4\n6\n7\n6 2 4\no0 y\no1 y\n"
    with pytest.raises(ParseError, match="duplicate output name 'y'"):
        parse_aiger(text)


def test_levels_of_example_mig():
    net = example_mig()
    lv = levels(net)
    names = {n.name: i for i, n in enumerate(net.nodes) if n.name}
    assert all(lv[p] == 0 for p in net.pis)
    assert lv[names["s1"]] == 1
    assert lv[names["s4"]] == 3


def test_levels_monotone_along_edges():
    for seed in range(10):
        net = random_mig(num_pis=4, num_nodes=8, seed=seed)
        lv = levels(net)
        for i, n in enumerate(net.nodes):
            for e in n.fanins:
                assert lv[i] >= lv[e.target] + 1


def test_level_of_and_chain():
    net = LogicNetwork(kind="aig")
    a = net.add_pi()
    b = net.add_pi()
    cur = net.add_node(AND, (Edge(a), Edge(b)))
    for _ in range(9):
        cur = net.add_node(AND, (Edge(cur), Edge(a)))
    net.add_output(Edge(cur))
    assert levels(net)[cur] == 10


def test_evaluate_majority():
    net = LogicNetwork(kind="mig")
    pis = [net.add_pi() for _ in range(3)]
    m = net.add_node(MAJ, tuple(Edge(p) for p in pis))
    net.add_output(Edge(m))
    assert evaluate(net, [1, 0, 1]) == [1]
    assert evaluate(net, [1, 0, 0]) == [0]


def test_evaluate_masks_matches_keeping_every_mask():
    # evaluate_masks drops a mask after its last reader; outputs on PIs,
    # on nodes later gates still read and on unread nodes must not notice
    rng = random.Random(175)
    for seed in range(30):
        net = (random_aig(8, 40, seed=seed, num_outputs=5) if seed % 2
               else random_mig(8, 30, seed=seed))
        net.add_output(Edge(0, inverted=True))
        net.add_output(Edge(len(net.nodes) // 2))
        full = (1 << 64) - 1
        masks = [rng.getrandbits(64) for _ in range(net.num_pis)]
        vals, it = [], iter(masks)
        for n in net.nodes:
            vals.append(next(it) if n.kind == PI
                        else gate_mask(n, vals, full))
        want = [(vals[e.target] ^ (full if e.inverted else 0)) & full
                for e in net.outputs]
        assert evaluate_masks(net, masks, full) == want, seed


def test_example_mig_hand_evaluation():
    net = example_mig()

    def maj(x, y, z):
        return (x & y) | (x & z) | (y & z)

    for k in range(32):
        a, b, c, d, e = ((k >> i) & 1 for i in range(5))
        s1 = maj(a, b, 1 - c)
        s2 = maj(a, b, c)
        s3 = maj(s1, c, 1 - s2)
        s4 = maj(s3, d, e)
        assert evaluate(net, [a, b, c, d, e]) == [s4]


def test_aig_to_mig_preserves_functions():
    for seed in range(20):
        net = random_aig(num_pis=3 + seed % 5, num_ands=2 + seed,
                         seed=seed, num_outputs=2)
        mig = aig_to_mig(net)
        assert mig.kind == "mig"
        assert all(n.kind != AND for n in mig.nodes)
        assert truth_table_ints(net) == truth_table_ints(mig)


def test_aig_to_mig_single_and():
    net = parse_aiger("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
    mig = aig_to_mig(net)
    assert truth_table(mig) == [[0, 0, 0, 1]]
    majs = [n for n in mig.nodes if n.kind == MAJ]
    assert len(majs) == 1 and len(majs[0].fanins) == 3


def test_aig_to_mig_refuses_a_mig():
    with pytest.raises(NetlistError, match="expects an AIG"):
        aig_to_mig(random_mig(3, 4))


def test_truth_table_refuses_wide_networks():
    net = random_aig(num_pis=17, num_ands=4, seed=0)
    with pytest.raises(NetlistError, match="random"):
        truth_table(net)


# -- the network builder -----------------------------------------------------------

OPERANDS = {"x": Edge(0), "!x": Edge(0, True), "y": Edge(1),
            "!y": Edge(1, True), "0": Edge(2), "1": Edge(2, True)}


def _one_gate(kind, operands):
    """PIs x and y, the constant, and one gate over ``operands`` (keys of
    ``OPERANDS``) as the only output."""
    net = LogicNetwork(kind=kind)
    net.add_pi("x")
    net.add_pi("y")
    net.add_const0()
    gate = net.add_node(AND if kind == "aig" else MAJ,
                        [OPERANDS[o] for o in operands])
    net.add_output(Edge(gate), "f")
    return net


def _operand(net, edge):
    """``edge`` of ``net`` as a key of ``OPERANDS``, or None for a gate."""
    node = net.nodes[edge.target]
    if node.kind == CONST0:
        return "1" if edge.inverted else "0"
    if node.kind == PI:
        return "!" * edge.inverted + node.name
    return None


@pytest.mark.parametrize("operands, folded", [
    (("x", "x", "y"), "x"),  # M(x, x, y) = x
    (("x", "!x", "y"), "y"),  # M(x, !x, y) = y
    (("0", "0", "x"), "0"),
    (("1", "1", "x"), "1"),
    (("0", "1", "x"), "x"),
    (("0", "1", "!x"), "!x"),
    (("x", "!x", "0"), "0"),
])
def test_rebuild_folds_each_majority_rule_in_every_position(operands,
                                                            folded):
    for order in set(itertools.permutations(operands)):
        net = rebuild(_one_gate("mig", order))
        assert _operand(net, net.outputs[0]) == folded, order
        assert [n.kind for n in net.nodes] == [PI, PI] + [CONST0] * (
            folded in "01")


@pytest.mark.parametrize("operands, folded", [
    (("x", "0"), "0"), (("x", "1"), "x"), (("x", "x"), "x"),
    (("x", "!x"), "0"), (("!x", "!x"), "!x"),
])
def test_rebuild_folds_and_gates_as_majorities_with_zero(operands, folded):
    for order in (operands, operands[::-1]):
        for net in (rebuild(_one_gate("aig", order)),
                    aig_to_mig(_one_gate("aig", order))):
            assert _operand(net, net.outputs[0]) == folded, order
            assert [n.kind for n in net.nodes] == [PI, PI] + [CONST0] * (
                folded in "01")


def test_rebuild_keeps_a_gate_with_nothing_to_fold():
    for order in itertools.permutations(("0", "x", "y")):
        net = _one_gate("mig", order)
        assert rebuild(net) is net
    net = aig_to_mig(_one_gate("aig", ("x", "!y")))
    assert [(n.kind, n.fanins) for n in net.nodes] == [
        (PI, ()), (PI, ()), (CONST0, ()),
        (MAJ, (Edge(0), Edge(1, True), Edge(2)))]


def test_rebuild_keeps_every_input_and_output_name_in_order():
    net = LogicNetwork(kind="aig")
    a, b, c = (net.add_pi(name) for name in "abc")  # b is read by nothing
    dead = net.add_node(AND, (Edge(a), Edge(c)))
    net.add_node(AND, (Edge(dead), Edge(a, True)))  # read by nothing
    f = net.add_node(AND, (Edge(c), Edge(a, True)))
    g = net.add_node(AND, (Edge(f), Edge(f)))  # folds to f
    net.add_output(Edge(g, True), "z")
    net.add_output(Edge(c), "a")
    net.add_output(Edge(f), "m")
    for out in (rebuild(net), aig_to_mig(net)):
        assert [out.nodes[p].name for p in out.pis] == ["a", "b", "c"]
        assert out.output_names == ["z", "a", "m"]
        assert [e.inverted for e in out.outputs] == [True, False, False]
        assert out.outputs[0] == out.outputs[2].flip()
        assert sum(n.kind in (AND, MAJ) for n in out.nodes) == 1
        assert truth_table_ints(out) == truth_table_ints(net)


def _plain_conversion(net):
    """AND(a, b) as MAJ(a, b, 0) for every gate: the PIs, the constant,
    then the gates, nothing folded or merged."""
    mig = LogicNetwork(kind="mig")
    ids = {}
    for i, n in enumerate(net.nodes):
        if n.kind == PI:
            ids[i] = mig.add_pi(n.name)
    zero = mig.add_const0()
    for i, n in enumerate(net.nodes):
        if n.kind == AND:
            ids[i] = mig.add_node(MAJ, [Edge(ids[e.target], e.inverted)
                                        for e in n.fanins] + [Edge(zero)],
                                  name=n.name)
    for e, name in zip(net.outputs, net.output_names):
        mig.add_output(Edge(ids[e.target], e.inverted), name)
    return mig


def _nodes(net):
    return [(n.kind, n.fanins, n.name) for n in net.nodes]


def _in_output_form(net):
    """Whether ``net`` is a MIG in the builder's output form with nothing
    to fold: the PIs, then the constant if a gate or output reads it, then
    gates of three distinct fanins, each read by a later gate or an
    output."""
    n_pi = net.num_pis
    kinds = [n.kind for n in net.nodes]
    first = n_pi + (kinds[n_pi:n_pi + 1] == [CONST0])
    return (net.kind == "mig" and kinds[:n_pi] == [PI] * n_pi
            and kinds[first:] == [MAJ] * (len(kinds) - first)
            and all(len({e.target for e in n.fanins}) == 3
                    for n in net.nodes[first:])
            and 0 not in net.fanout_counts()[n_pi:])


@pytest.mark.parametrize("build, merged", [
    (lambda: ripple_adder(8), 0), (lambda: comparator(8), 8),
    (lambda: parity(16), 0)], ids=["ripple_adder", "comparator", "parity"])
def test_rebuild_leaves_circuits_with_nothing_to_fold_node_for_node(build,
                                                                    merged):
    # nothing folds in these circuits, so an AIG's plain MIG is in the
    # output form, and without equal gates it comes back gate for gate;
    # the comparator builds each bit's AND(!a, b) twice, for its equality
    # and its less-than, and structural hashing merges the two
    net = build()
    plain = _plain_conversion(net)
    assert _in_output_form(plain)
    mig = aig_to_mig(net)
    assert len(plain.nodes) - len(mig.nodes) == merged
    if not merged:
        assert _nodes(mig) == _nodes(plain)
        assert (mig.outputs, mig.output_names) == (plain.outputs,
                                                   plain.output_names)
        assert rebuild(plain) is plain
    assert rebuild(mig) is mig


def test_rebuild_twice_gives_the_same_nodes():
    nets = [random_aig(6, 30, seed=s, num_outputs=3) for s in range(20)]
    nets += [random_mig(6, 30, seed=s, num_outputs=3) for s in range(20)]
    nets.append(multiplier(4))
    for net in nets:
        first = rebuild(net)
        again = rebuild(first)
        assert _nodes(again) == _nodes(first)
        assert again.outputs == first.outputs


def test_rebuild_is_equivalent_on_random_networks():
    shrunk = 0
    for s in range(300):
        outputs = 1 + s % 4
        for net in (random_aig(8, 5 + s % 60, seed=s, num_outputs=outputs),
                    random_mig(8, 5 + s % 60, seed=s, num_outputs=outputs)):
            tables = truth_table_ints(net)
            variants = [rebuild(net)]
            if net.kind == "aig":
                variants.append(aig_to_mig(net))
            for out in variants:
                assert truth_table_ints(out) == tables, (s, net.kind)
                assert out.num_pis == 8
                assert out.output_names == net.output_names
            shrunk += len(variants[0].nodes) < len(net.nodes)
    assert shrunk > 300


# -- majority rewriting ----------------------------------------------------------

def test_rewrite_majority_keeps_every_function():
    """Exhaustively, over the builtin corpus and 100 seeded random AIGs and
    MIGs, cleaned and (for a MIG) as generated."""
    nets = [net for _, net in default_corpus()]
    for s in range(100):
        shape = (3 + s % 8, 4 + s % 50)
        nets.append(random_aig(*shape, seed=700 + s, num_outputs=1 + s % 4))
        nets.append(random_mig(*shape, seed=800 + s, num_outputs=1 + s % 4))
    rewritten = 0
    for net in nets:
        tables = truth_table_ints(net)
        for mig in [rebuild(net)] + ([net] if net.kind == "mig" else []):
            out = rewrite_majority(mig)
            assert truth_table_ints(out) == tables
            assert [n.name for n in out.nodes if n.kind == PI] == \
                [n.name for n in net.nodes if n.kind == PI]
            assert out.output_names == net.output_names
            rewritten += out is not mig
    assert rewritten > 100


def test_rewrite_majority_makes_a_full_adder_of_three_majorities():
    """The carry is one MAJ of the inputs, and the sum's XOR3 shares it:
    M(not M(a,b,c), c, M(a,b,not c)), two levels where the AIG has four."""
    mig = aig_to_mig(full_adder())
    out = rewrite_majority(mig)
    a, b, c = (Edge(i) for i in out.pis)
    carry = out.outputs[out.output_names.index("cout")]
    assert out.nodes[carry.target].fanins == (a, b, c)
    assert sum(n.kind == MAJ for n in out.nodes) == 3
    assert max(levels(out)[e.target] for e in out.outputs) == 2
    assert max(levels(mig)[e.target] for e in mig.outputs) == 4


def _and_chain(n):
    b = AigBuilder()
    acc = b.pi()
    for _ in range(n - 1):
        acc = b.and_(acc, b.pi())
    b.output(acc, "y")
    return b.build()


def test_rewrite_majority_returns_a_mig_with_no_cone_as_it_is():
    one = LogicNetwork(kind="mig")
    a, b, c = (one.add_pi(x) for x in "abc")
    one.add_output(Edge(one.add_node(MAJ, (Edge(a), Edge(b, True),
                                           Edge(c)))), "m")
    for mig in (aig_to_mig(_and_chain(8)), one):
        assert rewrite_majority(mig) is mig
    with pytest.raises(NetlistError, match="expects a MIG"):
        rewrite_majority(full_adder())


# sha256 over serialize_mig(rewrite_majority(m)) for the cleaned builtin
# corpus, adders of 8, 32 and 64 bits, multipliers of 3, 4 and 8 bits,
# comparator(12) and parity(32), then 200 seeded random MIGs as generated
PINNED_REWRITES = (
    "c5b06c2acb8b3f9c5b75ba86e1e4600812a61f772e498fc2a66fa92bf3cd0b47")


def test_rewrite_majority_output_pinned():
    nets = [rebuild(net) for _, net in default_corpus()]
    nets += [rebuild(net) for net in (
        ripple_adder(8), ripple_adder(32), ripple_adder(64), multiplier(3),
        multiplier(4), multiplier(8), comparator(12), parity(32))]
    nets += [random_mig(3 + s % 8, 4 + s % 40, seed=900 + s,
                        num_outputs=1 + s % 4) for s in range(200)]
    digest = hashlib.sha256()
    for mig in nets:
        digest.update(serialize_mig(rewrite_majority(mig)).encode())
    assert digest.hexdigest() == PINNED_REWRITES


@pytest.mark.parametrize("net", [parity(2000), _and_chain(3000)],
                         ids=["parity2000", "and_chain3000"])
def test_rewrite_majority_is_linear(net):
    """Cuts hold leaf tuples of their own, so a gate costs the same
    however many nodes come before it."""
    mig = aig_to_mig(net)
    t0 = time.perf_counter()
    out = rewrite_majority(mig)
    assert time.perf_counter() - t0 < 1.0
    assert len(out.nodes) <= len(mig.nodes)


# -- normalization ---------------------------------------------------------------

def _node_masks(net):
    """Exhaustive truth table of every node, not just the outputs."""
    full = (1 << (1 << net.num_pis)) - 1
    vals = []
    pats = iter(pi_patterns(net.num_pis))
    for n in net.nodes:
        vals.append(next(pats) if n.kind == "pi" else gate_mask(n, vals, full))
    return vals, full


def _normalize_checked(net):
    """``normalize_mig`` of ``net``, checked for the normal form.

    The MAJ nodes of ``net`` are named by id first, so that each output
    node names its source node: it must compute that node or its
    complement, and no (source node, polarity) may be built twice.
    """
    for i, n in enumerate(net.nodes):
        if n.kind == MAJ:
            n.name = str(i)
    norm = normalize_mig(net)
    assert truth_table_ints(norm) == truth_table_ints(net)
    src, full = _node_masks(net)
    out, _ = _node_masks(norm)
    built = set()
    for i, n in enumerate(norm.nodes):
        if n.kind != MAJ:
            continue
        source = int(n.name)
        assert out[i] in (src[source], src[source] ^ full)
        key = (source, out[i] != src[source])
        assert key not in built, "one output node per source and polarity"
        built.add(key)
        inv_internal = sum(1 for e in n.fanins
                           if e.inverted and norm.nodes[e.target].kind == MAJ)
        assert inv_internal <= 1
        internal = sum(1 for e in n.fanins
                       if norm.nodes[e.target].kind == MAJ)
        inv_total = sum(1 for e in n.fanins if e.inverted)
        if internal:
            # with an internal fanin available the canonical single
            # complemented edge is always reachable
            leaf_inv = inv_total - inv_internal
            if leaf_inv == 0:
                assert inv_internal == 1
            elif leaf_inv == 1:
                assert inv_internal == 0
    return norm


def test_normalize_canonical_node_unchanged():
    net = parse_mig("pi 0 a\npi 1 b\npi 2 c\n"
                    "node 3 = MAJ(0,1,!2)\npo 3 f\n")
    norm = normalize_mig(net)
    assert truth_table_ints(norm) == truth_table_ints(net)
    assert len(norm.nodes) == len(net.nodes)


def test_normalize_pushes_complements():
    # root with three complemented edges to internal nodes
    net = LogicNetwork(kind="mig")
    pis = [net.add_pi() for _ in range(5)]
    m1 = net.add_node(MAJ, (Edge(pis[0]), Edge(pis[1]), Edge(pis[2], True)))
    m2 = net.add_node(MAJ, (Edge(pis[1]), Edge(pis[2]), Edge(pis[3], True)))
    m3 = net.add_node(MAJ, (Edge(pis[2]), Edge(pis[3]), Edge(pis[4], True)))
    root = net.add_node(MAJ, (Edge(m1, True), Edge(m2, True), Edge(m3, True)))
    net.add_output(Edge(root))
    _normalize_checked(net)


def test_normalize_shares_fanout():
    # diamond: the shared internal node is built once and referenced twice
    net = LogicNetwork(kind="mig")
    a, b, c, d = (net.add_pi() for _ in range(4))
    shared = net.add_node(MAJ, (Edge(a), Edge(b), Edge(c, True)))
    left = net.add_node(MAJ, (Edge(shared), Edge(c), Edge(d, True)))
    right = net.add_node(MAJ, (Edge(shared), Edge(d), Edge(a, True)))
    root = net.add_node(MAJ, (Edge(left), Edge(right), Edge(b, True)))
    net.add_output(Edge(root))
    norm = _normalize_checked(net)
    before = sum(1 for n in net.nodes if n.kind == MAJ)
    after = sum(1 for n in norm.nodes if n.kind == MAJ)
    assert after == before
    copy = next(i for i, n in enumerate(norm.nodes) if n.name == str(shared))
    assert norm.fanout_counts()[copy] == 2


def test_normalize_random_migs():
    for seed in range(40):
        net = random_mig(num_pis=3 + seed % 4, num_nodes=2 + seed % 7,
                         seed=seed)
        _normalize_checked(net)


def test_normalize_keeps_output_polarity_semantics():
    net = random_mig(num_pis=4, num_nodes=5, seed=3, num_outputs=3)
    norm = normalize_mig(net)
    assert truth_table_ints(norm) == truth_table_ints(net)


def test_normalize_parity16_stays_under_the_limit():
    norm = normalize_mig(aig_to_mig(parity(16)))
    assert len(norm.nodes) == 62
    assert sum(1 for n in norm.nodes if n.kind == MAJ) == 45


def _mig_with_const(seed):
    """Random MIG whose fanins may pick a constant, and whose MAJ nodes are
    partly named: the first node built need not use the constant;
    ``normalize_mig`` places it right after the PIs all the same."""
    rng = random.Random(seed)
    net = LogicNetwork(kind="mig")
    for i in range(2 + seed % 5):
        net.add_pi("x%d" % i)
    net.add_const0()
    for j in range(3 + seed % 20):
        hi = len(net.nodes)
        net.add_node(MAJ, tuple(Edge(rng.randrange(hi), rng.random() < 0.5)
                                for _ in range(3)),
                     name="m%d" % j if rng.random() < 0.3 else None)
    for i in range(1 + seed % 3):
        net.add_output(Edge(len(net.nodes) - 1 - i, rng.random() < 0.5),
                       "o%d" % i)
    return net


# sha256 over normalize_mig's node lists (kind, fanins, name) and outputs for
# parity 2-14, 300 random MIGs, 60 converted random AIGs and 100 MIGs with a
# constant fanin; each normal form is also in rebuild's output form
PINNED_NORMAL_FORMS = (
    "024a4018067dd44ef1fe0d2c437bd665efdcd410582d2267caa0efbdee1ec52d")


def test_normalize_output_pinned():
    nets = [aig_to_mig(parity(k)) for k in range(2, 15)]
    nets += [random_mig(3 + s % 8, 4 + s % 24, seed=s, num_outputs=1 + s % 4)
             for s in range(300)]
    nets += [aig_to_mig(random_aig(3 + s % 6, 5 + s % 25, seed=s,
                                   num_outputs=1 + s % 3))
             for s in range(60)]
    nets += [_mig_with_const(s) for s in range(100)]
    digest = hashlib.sha256()
    for net in nets:
        norm = normalize_mig(net)
        assert _in_output_form(norm)
        digest.update(repr((
            [(n.kind, [(e.target, e.inverted) for e in n.fanins], n.name)
             for n in norm.nodes],
            [(e.target, e.inverted) for e in norm.outputs],
            norm.output_names)).encode())
    assert digest.hexdigest() == PINNED_NORMAL_FORMS


def _reference_outputs(net, bits):
    """Scalar evaluation of one assignment, independent of the mask oracle."""
    vals = []
    it = iter(bits)
    for n in net.nodes:
        if n.kind == "pi":
            vals.append(next(it))
        elif n.kind == "const0":
            vals.append(0)
        else:
            ops = [vals[e.target] ^ e.inverted for e in n.fanins]
            vals.append(int(sum(ops) * 2 > len(ops)) if n.kind == MAJ
                        else int(all(ops)))
    return [vals[e.target] ^ e.inverted for e in net.outputs]


def test_truth_table_matches_scalar_reference():
    for seed in range(20):
        num_pis = 1 + seed % 7
        for net in (random_aig(num_pis, 5 + seed, seed=seed, num_outputs=3),
                    random_mig(num_pis, 5 + seed, seed=seed, num_outputs=3)):
            net.add_output(Edge(net.add_const0(), seed % 2 == 0), "c")
            table = truth_table(net)
            packed = truth_table_ints(net)
            for k in range(1 << num_pis):
                bits = [(k >> i) & 1 for i in range(num_pis)]
                want = _reference_outputs(net, bits)
                assert [row[k] for row in table] == want
                assert [(m >> k) & 1 for m in packed] == want
                assert evaluate(net, bits) == want


def test_truth_table_ints_refuses_wide_networks():
    net = random_aig(num_pis=17, num_ands=4, seed=0)
    with pytest.raises(NetlistError, match="random"):
        truth_table_ints(net)
