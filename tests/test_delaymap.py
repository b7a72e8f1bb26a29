import functools
import hashlib
import random
import time

import pytest

from conftest import (delay_mapped_mig, example_mig,
                      sharing_pairs_that_overflow)
from revamp import delaymap
from revamp.circuits import (comparator, default_corpus, full_adder,
                             multiplier, parity, ripple_adder)
from revamp.cli import map_network
from revamp.delaymap import (assign_roles, compute_bound, form_blocks,
                             gen_program_delay, map_delay, pack_blocks)
from revamp.isa import ApplyInstr, IsaError, format_asm, write_program
from revamp.netlist import (AND, MAJ, PI, Edge, LogicNetwork, aig_to_mig,
                            levels, pi_patterns, random_aig, random_mig,
                            rewrite_majority)
from revamp.simulator import run_vectors
from revamp.verifier import check_equivalence, optimal_packing


def _names(mig):
    return {i: (n.name or "x%d" % i) for i, n in enumerate(mig.nodes)}


def test_roles_on_reference_mig():
    mig = example_mig()
    names = _names(mig)
    ids = {v: k for k, v in names.items()}
    roles = assign_roles(mig)

    def role(n):
        r = roles[ids[n]]
        return (names[r.host.target], names[r.wl_input.target],
                names[r.bl_input.target])

    assert role("s1") == ("a", "b", "c")
    assert role("s2") == ("a", "b", "c")
    assert role("s3") == ("s1", "c", "s2")
    assert role("s4") == ("s3", "d", "e")
    # bitline operands are stored complemented relative to their edge
    assert not roles[ids["s1"]].bl_input.inverted is False  # edge c inverted
    assert roles[ids["s2"]].bl_input.inverted is False      # plain edge


def test_roles_cover_each_fanin_once():
    for seed in range(30):
        mig = random_mig(num_pis=4, num_nodes=8, seed=seed)
        roles = assign_roles(mig)
        for nid, r in roles.items():
            fanins = list(mig.nodes[nid].fanins)
            for edge in (r.host, r.wl_input, r.bl_input):
                fanins.remove(edge)  # raises if not present
            assert fanins == []


def test_roles_isolated_node():
    mig = LogicNetwork(kind="mig")
    a, b, c = (mig.add_pi(x) for x in "abc")
    m = mig.add_node(MAJ, (Edge(a), Edge(b), Edge(c, True)))
    mig.add_output(Edge(m))
    r = assign_roles(mig)[m]
    assert r.bl_input.target == c and r.bl_input.inverted
    assert {r.host.target, r.wl_input.target} == {a, b}


def _block_names(mig, formation):
    names = _names(mig)
    out = []
    for b in formation.blocks:
        out.append([("!" if el.value.inverted else "") + names[el.value.target]
                    for el in b.elements])
    return out


def test_block_formation_reference_trace():
    """Word width three: the final block list of the documented walkthrough."""
    mig = example_mig()
    roles = assign_roles(mig)
    formation = form_blocks(mig, roles, 3)
    assert _block_names(mig, formation) == [
        ["a", "c", "a"], ["d", "!e"], ["b", "c", "!c"]]
    tags = [[el.tag for el in b.elements] for b in formation.blocks]
    assert tags == [["h", "i", "h"], ["i", "i"], ["i", "i", "i"]]
    assert [b.id for b in formation.blocks] == [1, 2, 4]


def test_block_formation_single_node():
    mig = LogicNetwork(kind="mig")
    a, b, c = (mig.add_pi(x) for x in "abc")
    m = mig.add_node(MAJ, (Edge(a), Edge(b), Edge(c, True)))
    mig.add_output(Edge(m))
    formation = form_blocks(mig, assign_roles(mig), 4)
    shapes = sorted(len(b) for b in formation.blocks)
    assert shapes == [1, 2]  # [host], [wl, bl]


def test_blocks_colocate_operands():
    for seed in range(25):
        mig = random_mig(num_pis=4, num_nodes=7, seed=100 + seed)
        roles = assign_roles(mig)
        formation = form_blocks(mig, roles, 4)
        for sites in formation.sites.values():
            for site in sites:
                if isinstance(site.wl, int):
                    continue
                blocks_of = []
                for b in formation.blocks:
                    if site.wl.resolve() in b.elements:
                        blocks_of.append(b.id)
                    if site.bl_el.resolve() in b.elements:
                        blocks_of.append(b.id)
                assert len(set(blocks_of)) == 1, \
                    "operands of %d split" % site.node


def test_pack_reference_blocks():
    mig = example_mig()
    formation = form_blocks(mig, assign_roles(mig), 3)
    packing = pack_blocks(formation.blocks, 3)
    assert packing.n_words == 3
    occupied = sum(len(b) for b in formation.blocks)
    assert occupied == 8
    w_util = 100.0 * occupied / (packing.n_words * 3)
    assert abs(w_util - 88.8) < 0.1
    # deepest operand group lands in word 0
    word_of = {b.id: w for w, bs in packing.word_blocks.items() for b in bs}
    assert word_of[4] == 0
    assert word_of[2] == 1
    assert word_of[1] == 2


def test_pack_two_small_blocks_share_word():
    from revamp.delaymap import Block, BlockElement
    blocks = [Block(1, [BlockElement(Edge(0), "i")] * 2),
              Block(2, [BlockElement(Edge(1), "i")] * 2)]
    packing = pack_blocks(blocks, 4)
    assert packing.n_words == 1


def test_first_fit_within_twice_optimal():
    from revamp.delaymap import Block, BlockElement
    rng = random.Random(12)
    for trial in range(100):
        w_d = rng.randrange(2, 9)
        sizes = [rng.randrange(1, w_d + 1)
                 for _ in range(rng.randrange(1, 13))]
        blocks = [Block(i + 1, [BlockElement(Edge(0), "i")] * s)
                  for i, s in enumerate(sizes)]
        ff = pack_blocks(blocks, w_d).n_words
        opt = optimal_packing(sizes, w_d)
        assert opt <= ff <= 2 * opt


def test_reference_instruction_sequence_and_states():
    """Compute phase: exactly the six documented instructions, and the word
    states walk through the documented panels for every assignment."""
    mig = example_mig()
    roles = assign_roles(mig)
    formation = form_blocks(mig, roles, 3)
    packing = pack_blocks(formation.blocks, 3)
    program, report = gen_program_delay(mig, formation, packing)

    compute = [format_asm(i) for i in program.instructions[-6:]]
    assert compute == [
        "Read 0",
        "Apply 2 1 11 0 1 1 0 0 1 2",
        "Read 2",
        "Apply 2 1 11 1 1 2 0 0 0 0",
        "Read 1",
        "Apply 2 1 11 0 1 1 0 0 0 0",
    ]

    masks = pi_patterns(5)
    full = (1 << 32) - 1
    a, b, c, d, e = masks

    def maj(x, y, z):
        return (x & y) | (x & z) | (y & z)

    s1 = maj(a, b, full & ~c)
    s2 = maj(a, b, c)
    s3 = maj(s1, c, full & ~s2)
    s4 = maj(s3, d, e)

    state, trace = run_vectors(program, masks, 32, record_trace=True)
    n_load = len(program.instructions) - 6
    # panel after loading: w0=[b,c,!c], w1=[d,!e,-], w2=[a,c,a]
    dcm = {}
    for step in trace.steps[:n_load]:
        dcm[step.word] = step.post
    assert dcm[0] == [b, c, full & ~c]
    assert dcm[1] == [d, full & ~e, 0]
    assert dcm[2] == [a, c, a]
    # panels after each compute instruction
    applies = [s for s in trace.steps[n_load:]
               if format_asm(s.instruction).startswith("Apply")]
    assert applies[0].post == [s1, c, s2]
    assert applies[1].post == [s3, c, s2]
    assert applies[2].post == [s4, c, s2]
    assert state.dcm[2][0] == s4
    assert program.result_locations["s4"] == (2, 0)
    # three block words plus the scratch word that stages b and c
    assert report.s_d == 4 and abs(report.w_util - 88.8) < 0.1
    assert report.i_total == len(program.instructions)
    assert report.cycles == report.i_total + 2


def test_constant_network_is_load_only():
    mig = LogicNetwork(kind="mig")
    mig.add_pi("a")
    cid = mig.add_const0()
    mig.add_output(Edge(cid, True), "one")
    program, report = map_delay(mig, 2)
    assert check_equivalence(mig, program).ok
    assert report.i_read == 0  # nothing to compute, loads only


def test_delay_flow_random_migs():
    for seed in range(25):
        mig = random_mig(num_pis=3 + seed % 5, num_nodes=2 + seed % 10,
                         seed=200 + seed, num_outputs=1 + seed % 2)
        for w_d in (3, 4, 8):
            program, report = map_delay(mig, w_d)
            res = check_equivalence(mig, program)
            assert res.ok, "seed %d w_d %d: %r" % (seed, w_d,
                                                   res.counterexample)
            assert report.cycles == report.i_total + 2


def test_delay_flow_on_converted_aigs():
    for seed in range(10):
        net = random_aig(num_pis=5, num_ands=12 + seed, seed=300 + seed,
                         num_outputs=2)
        mig = aig_to_mig(net)
        for w_d in (4, 8):
            program, report = map_delay(mig, w_d)
            assert check_equivalence(mig, program).ok


def test_delay_flow_known_circuits():
    for net in (full_adder(), ripple_adder(3)):
        mig = aig_to_mig(net)
        for w_d in (4, 16):
            program, report = map_delay(mig, w_d)
            assert check_equivalence(mig, program).ok
            assert report.d_p_star == 9 * report.n_maj
            assert report.speedup == report.d_p_star / report.cycles


def test_delay_report_counts_only_live_majority_nodes():
    net = LogicNetwork(kind="mig")
    x, y, z = (net.add_pi(name) for name in "xyz")
    g = net.add_node(MAJ, (Edge(x), Edge(y), Edge(z)))
    twin = net.add_node(MAJ, (Edge(z), Edge(x), Edge(y)))  # g, hashed
    net.add_node(MAJ, (Edge(g), Edge(x, True), Edge(y)))  # read by nothing
    folds = net.add_node(MAJ, (Edge(g), Edge(g, True), Edge(twin)))  # twin
    h = net.add_node(MAJ, (Edge(folds), Edge(x), Edge(z, True)))
    net.add_output(Edge(h), "f")
    net.add_output(Edge(twin, True), "g")
    assert map_delay(net, 8)[1].n_maj == 4
    program, report = map_network(net, "delay", None, 0, 8)
    assert (report.n_maj, report.d_p_star) == (2, 18)
    assert check_equivalence(net, program).ok


def live_majority_nodes(mig):
    """How many MAJ nodes some output reaches."""
    seen, stack = set(), [e.target for e in mig.outputs]
    while stack:
        nid = stack.pop()
        if nid not in seen and mig.nodes[nid].kind == MAJ:
            seen.add(nid)
            stack += [e.target for e in mig.nodes[nid].fanins]
    return len(seen)


def test_reports_match_the_formation_and_packing():
    """Every block figure of the report, rebuilt from the phases alone on
    the MIG the report names by its ``n_maj_mapped``; ``n_maj``,
    ``levels`` and ``d_p_star`` describe the MIG given."""
    # outputs that are complemented inputs and constants need no scratch word
    loads = LogicNetwork(kind="mig")
    x, y = loads.add_pi("x"), loads.add_pi("y")
    loads.add_output(Edge(x, True), "nx")
    loads.add_output(Edge(loads.add_const0(), True), "one")
    loads.add_output(Edge(y, True), "ny")
    migs = [random_mig(4 + seed % 5, 10 + 3 * seed, seed=500 + seed,
                       num_outputs=1 + seed % 3) for seed in range(12)]
    migs += [aig_to_mig(net) for net in (ripple_adder(3), parity(6),
                                         multiplier(3))]
    rewritten = []
    for mig in migs + [loads]:
        n_maj = live_majority_nodes(mig)
        depth = max(levels(mig)[e.target] for e in mig.outputs)
        mapped = delay_mapped_mig(mig)
        rewritten.append(mapped is not mig)
        roles = assign_roles(mapped)
        for w_d in (2, 3, 4, 8, 32):
            formation = form_blocks(mapped, roles, w_d)
            packing = pack_blocks(formation.blocks, w_d)
            _, report = map_delay(mig, w_d)
            placed = [el.value for b in formation.blocks for el in b.elements]
            plain_pi = any(mapped.nodes[v.target].kind == PI and not v.inverted
                           for v in placed)
            assert report.n_maj_mapped == live_majority_nodes(mapped)
            assert report.n_blocks == len(formation.blocks)
            assert report.w_util == \
                100.0 * len(placed) / (packing.n_words * w_d)
            assert report.s_d == packing.n_words + (1 if plain_pi else 0)
            assert report.levels == depth
            assert report.d_p_star == 9 * n_maj
            assert report.speedup == report.d_p_star / report.cycles
    # both ways: the adder's rewrite is mapped, the multiplier as given
    assert rewritten[12:15] == [True, True, False] and sum(rewritten) == 11


def test_negated_internal_copies():
    # node s feeds one consumer plain and one complemented, so a single
    # plain instance plus one written complemented copy must appear
    mig = LogicNetwork(kind="mig")
    a, b, c, d = (mig.add_pi(x) for x in "abcd")
    s = mig.add_node(MAJ, (Edge(a), Edge(b), Edge(c, True)), name="s")
    t = mig.add_node(MAJ, (Edge(s), Edge(c), Edge(d, True)), name="t")
    u = mig.add_node(MAJ, (Edge(s, True), Edge(a), Edge(d)), name="u")
    root = mig.add_node(MAJ, (Edge(t), Edge(u), Edge(b, True)), name="r")
    mig.add_output(Edge(root), "f")
    program, report = map_delay(mig, 4)
    assert check_equivalence(mig, program).ok


def test_word_capacity_never_exceeded():
    for seed in range(15):
        mig = random_mig(num_pis=5, num_nodes=9, seed=400 + seed)
        for w_d in (3, 5):
            roles = assign_roles(mig)
            formation = form_blocks(mig, roles, w_d)
            packing = pack_blocks(formation.blocks, w_d)
            assert all(n <= w_d for n in packing.occupancy.values())


# digests of the containers emitted since map_delay maps the majority
# rewrite when its compute bound is not higher: add8 58 instructions (101
# before), parity16 46 (126); mult3, cmp8 and rand16 keep their MIG and
# their bytes
PINNED_PROGRAMS = [
    ("add8", lambda: ripple_adder(8),
     "b115b9d9611a6c7e7b8fa25d30a4eedce60f2b4b9f2d9b47f1d2240e3ad6114b"),
    ("mult3", lambda: multiplier(3),
     "6b752d3844e6ca17bdd0e8ec7e81d4f8d65107a7a170130c0d8599f808a5de24"),
    ("cmp8", lambda: comparator(8),
     "9b038a654726b50a30048496505f47ee5009607374f4f8f85975054577a0db6a"),
    ("parity16", lambda: parity(16),
     "eff6e73474f08404613a532e7dec63a7e1940ec3cf3a838bb34621af6fd69a84"),
    ("rand16", lambda: random_aig(16, 200, seed=3, num_outputs=6),
     "2033d04a41bb40db464b2c137683cc14f9d13a100f1da4ee483203f8609aeb8d"),
]


def test_delay_programs_byte_identical():
    for name, build, digest in PINNED_PROGRAMS:
        program, _ = map_delay(aig_to_mig(build()), 32)
        got = hashlib.sha256(write_program(program)).hexdigest()
        assert got == digest, name


def test_map_delay_computes_levels_once_per_mig_considered(monkeypatch):
    calls = []
    monkeypatch.setattr(delaymap, "levels",
                        lambda mig: calls.append(mig) or levels(mig))
    # an adder's rewrite is considered and mapped; a lone AND has no cone
    # to rewrite, so only the MIG given is considered
    lone = LogicNetwork(kind="aig")
    p, q = lone.add_pi("p"), lone.add_pi("q")
    lone.add_output(Edge(lone.add_node(AND, (Edge(p), Edge(q)))), "f")
    for net, considered in ((ripple_adder(4), 2), (lone, 1)):
        mig = aig_to_mig(net)
        calls.clear()
        program, _ = map_delay(mig, 8)
        assert len(calls) == considered
        # the phases called one by one on the MIG mapped compute them
        # themselves, to the same end
        mapped = delay_mapped_mig(mig)
        assert (mapped is not mig) == (considered == 2)
        roles = assign_roles(mapped)
        formation = form_blocks(mapped, roles, 8)
        again, _ = gen_program_delay(mapped, formation,
                                     pack_blocks(formation.blocks, 8))
        assert write_program(again) == write_program(program)


def test_map_delay_is_never_longer_than_the_mig_given():
    """Over the builtin corpus, mapping the MIG chosen never takes more
    instructions or words than mapping the MIG given through the phases."""
    shorter = 0
    for name, net in default_corpus():
        mig = aig_to_mig(net)
        roles = assign_roles(mig)
        for w_d in (4, 8, 16, 32):
            formation = form_blocks(mig, roles, w_d)
            unrewritten, _ = gen_program_delay(
                mig, formation, pack_blocks(formation.blocks, w_d))
            program, _ = map_delay(mig, w_d)
            got, was = len(program.instructions), len(
                unrewritten.instructions)
            assert got <= was, (name, w_d, got, was)
            assert program.config.s_d <= unrewritten.config.s_d, (name, w_d)
            shorter += got < was
    assert shorter >= 20


def test_ripple_adder_8_maps_its_rewrite_in_three_words():
    """Its carries become one MAJ each and its sums XOR3 cones sharing
    them: 25 MAJ nodes on 9 levels where the AIG's MIG has 67 on 16."""
    program, report = map_delay(aig_to_mig(ripple_adder(8)), 32)
    words = {ins.w for ins in program.instructions
             if isinstance(ins, ApplyInstr)}
    assert (report.i_total, len(words), report.devices_used) == (58, 3, 68)
    assert (report.n_maj, report.n_maj_mapped, report.levels) == (67, 25, 16)
    assert max(levels(rewrite_majority(aig_to_mig(ripple_adder(8))))) == 9
    assert check_equivalence(ripple_adder(8), program).ok


def test_compute_bound_counts_wordlines_per_level_and_negated_copies():
    """Two ANDs of one level share the constant wordline (one Read and one
    Apply); a MAJ reading one of them as a plain bitline also reads a
    wordline of its own and needs a negated copy: 2 + 2 + 1."""
    mig = LogicNetwork(kind="mig")
    a, b, c = (mig.add_pi(x) for x in "abc")
    zero = mig.add_const0()
    g = mig.add_node(MAJ, (Edge(a), Edge(b), Edge(zero)))
    h = mig.add_node(MAJ, (Edge(b), Edge(c), Edge(zero)))
    top = mig.add_node(MAJ, (Edge(g), Edge(h), Edge(c)))
    mig.add_output(Edge(top), "f")
    roles = assign_roles(mig)
    assert roles[top].bl_input == Edge(h)  # plain, so a copy of not h
    assert compute_bound(mig, roles, levels(mig)) == 5


def _block_tags(formation):
    return [(b.id, " ".join(("!" if el.value.inverted else "")
                            + str(el.value.target) + el.tag
                            for el in b.elements))
            for b in formation.blocks]


def test_block_lists_on_random_migs():
    """Merge order pinned on networks that need input and host merges."""
    pinned = {
        (3, 3): [(1, "!10h"), (2, "!11h"), (3, "!7h !5h !5h"), (5, "4i 3i"),
                 (7, "0h 2i 0h"), (9, "4h"), (10, "1i !4i 4i"),
                 (12, "!1i 2i")],
        (3, 4): [(1, "!10h"), (2, "!11h"), (3, "!7h !5h !5h"),
                 (5, "4i 3i 1i !4i"), (7, "0h 2i 0h !1i"), (9, "4h")],
        (3, 8): [(1, "!10h"), (2, "!11h"), (3, "!7h !5h !5h"),
                 (5, "4i 3i 1i !4i"), (7, "0h 2i 0h !1i 4h")],
        (11, 3): [(1, "!12h"), (2, "!11h"), (3, "!8h"), (4, "!4i 1i 1h"),
                  (6, "!5h"), (7, "0h 4h"), (8, "!9i 3i 4i"), (9, "1h 2i"),
                  (12, "0i 4i"), (13, "!3i 3i")],
        (11, 4): [(1, "!12h"), (2, "!11h"), (3, "!8h"),
                  (4, "!4i 1i 1h 2i"), (6, "!5h"), (7, "0h 4h"),
                  (8, "!9i 3i 4i !3i"), (12, "0i 4i")],
        (11, 8): [(1, "!12h"), (2, "!11h"), (3, "!8h"),
                  (4, "!4i 1i 1h 2i"), (6, "!5h"), (7, "0h 4h"),
                  (8, "!9i 3i 4i !3i 0i")],
    }
    for (seed, w_d), expected in pinned.items():
        mig = random_mig(5, 8, seed=seed, num_outputs=2)
        formation = form_blocks(mig, assign_roles(mig), w_d)
        assert _block_tags(formation) == expected, (seed, w_d)


@functools.cache
def _formations():
    """Block formations over 200 random MIGs and three converted circuits."""
    out = []
    for s in range(200):
        mig = random_mig(3 + s % 8, 4 + s % 30, seed=s, num_outputs=1 + s % 4)
        roles = assign_roles(mig)
        out += [(w_d, form_blocks(mig, roles, w_d)) for w_d in (2, 3, 4, 5, 8)]
    for net in (ripple_adder(16), multiplier(4), parity(32)):
        mig = aig_to_mig(net)
        out.append((32, form_blocks(mig, assign_roles(mig), 32)))
    return out


def test_merge_order_pinned_on_many_networks():
    # digest of the block lists formed when every merge rescanned all blocks
    h = hashlib.sha256()
    for w_d, formation in _formations():
        h.update(repr((w_d, _block_tags(formation))).encode())
    assert h.hexdigest() == \
        "5af4c177b460a4408d0d668fd23a0ab32d11b48d57502c27deba405db8ec631d"


def test_formation_state_on_blocks_and_elements():
    """Each element knows its block, a block holds each input value once
    and drops its index of them when formation returns, and host and
    output elements are never merged away."""
    mig = example_mig()
    reference = (3, form_blocks(mig, assign_roles(mig), 3))
    for _, formation in [reference] + _formations():
        for b in formation.blocks:
            assert all(el.block is b for el in b.elements)
            held = [el.value for el in b.elements if el.tag == "i"]
            assert b.inputs is None and len(set(held)) == len(held)
        for sites in formation.sites.values():
            assert all(s.host_el.merged_into is None for s in sites)
        assert all(el.merged_into is None
                   for el in formation.output_elements)


def test_no_two_blocks_sharing_an_input_fit_together():
    """Merging reaches its fixpoint: every pair sharing an input overflows."""
    pairs = sum(sharing_pairs_that_overflow(formation, w_d)
                for w_d, formation in _formations())
    assert pairs == 2919


def test_block_lists_pinned_on_large_circuits():
    # deep networks, where a level that revisited every earlier block
    # cost time quadratic in depth; digest of the lists formed that way
    h = hashlib.sha256()
    for net in (ripple_adder(64), multiplier(8), comparator(16)):
        mig = aig_to_mig(net)
        roles = assign_roles(mig)
        for w_d in (8, 32):
            formation = form_blocks(mig, roles, w_d)
            h.update(repr((w_d, _block_tags(formation))).encode())
    assert h.hexdigest() == \
        "01238e5496acd44b77861273895f7159557459cce3946e54c15feaf3edd5e75e"


def test_delay_flow_scales_to_mult8_and_add32():
    for net, budget in ((multiplier(8), 3.0), (ripple_adder(32), None)):
        mig = aig_to_mig(net)
        t0 = time.perf_counter()
        program, report = map_delay(mig, 32)
        elapsed = time.perf_counter() - t0
        if budget is not None:
            assert elapsed < budget, "mapping took %.2f s" % elapsed
        if mig.num_pis <= 16:
            res = check_equivalence(mig, program)
        else:
            res = check_equivalence(mig, program, mode="random", seed=1,
                                    n=10000)
        assert res.ok, res.counterexample
        assert report.s_d == program.config.s_d


def test_map_delay_refuses_a_width_below_two():
    """Fewer than two bitlines is no crossbar: ``map_delay`` refuses the
    width before mapping, with the refusal ``CrossbarConfig`` gives."""
    mig = aig_to_mig(full_adder())
    for w_d in (1, 0, -3):
        with pytest.raises(IsaError, match="^w_D must be >= 2$"):
            map_delay(mig, w_d)
