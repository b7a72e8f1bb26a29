"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and asserting the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import itertools
import random
import time

import pytest

from conftest import apply_from_pairs, example_mig, two_bit_xor_program
from revamp.areamap import InfeasibleMapping, gen_esop_program, map_area, map_minimal
from revamp.circuits import default_corpus, multiplier, ripple_adder
from revamp.delaymap import (assign_roles, form_blocks, gen_program_delay,
                             map_delay, pack_blocks)
from revamp.esop import cover_truth_table, extract_esop
from revamp.isa import (SRC_DMR, SRC_PIR, ApplyInstr, BitlinePair,
                        CrossbarConfig, ReadInstr, WordlineSelect, WsMode,
                        decode, encode, format_asm, instruction_lengths)
from revamp.lutmap import Lut, LutGraph, assign_levels, min_dev
from revamp.netlist import (MAJ, Edge, LogicNetwork, aig_to_mig,
                            normalize_mig, pi_patterns)
from revamp.simulator import device_step, run, run_vectors
from revamp.verifier import check_equivalence, optimal_packing

# programs generated along the way, re-checked by the timing criterion
ALL_PROGRAMS = []


class criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        in_budget = dt < self.budget
        status = "PASS" if exc_type is None and in_budget else "FAIL"
        print("criterion %2d %s: %s (%.3f s, budget %g s)"
              % (self.number, status, self.label, dt, self.budget))
        if exc_type is None:
            assert in_budget, \
                "criterion %d exceeded its %gs budget (%.3fs)" \
                % (self.number, self.budget, dt)
        return False


def test_criterion_1_device_semantics():
    with criterion(1, "device update truth table", 0.001):
        # wl=1/bl=0 sets, wl=0/bl=1 resets, all else holds the state
        expected = {
            (0, 0, 0): 0, (0, 0, 1): 0, (0, 1, 0): 1, (0, 1, 1): 0,
            (1, 0, 0): 1, (1, 0, 1): 0, (1, 1, 0): 1, (1, 1, 1): 1,
        }
        for (z, wl, bl), want in expected.items():
            assert device_step(z, wl, bl) == want


def test_criterion_2_golden_xor_trace():
    with criterion(2, "two-bit XOR golden program", 1.0):
        prog = two_bit_xor_program()
        ALL_PROGRAMS.append(prog)
        for p1, p0, q1, q0 in itertools.product((0, 1), repeat=4):
            state, trace = run(prog, [p1, p0, q1, q0], record_trace=True)
            assert state.dcm[2] == [p1 ^ q1, p0 ^ q0]
            assert state.cycles == 10
            after = {s.index: s.post for s in trace.steps}
            assert after[0] == [1 - p1, 1 - p0]
            assert after[2] == [p1, p0]
            assert after[3] == [p1, p0]
            assert after[4] == [p1 & (1 - q1), p0 & (1 - q0)]
            assert after[5] == [p1 | (1 - q1), p0 | (1 - q0)]


def test_criterion_3_instruction_codec():
    with criterion(3, "codec round-trip and length formulas", 5.0):
        assert instruction_lengths(CrossbarConfig(64, 64)) == (7, 464)
        for s_d, w_d in [(2, 2), (8, 4), (64, 16), (64, 64)]:
            cfg = CrossbarConfig(s_d, w_d)
            rng = random.Random(s_d * 1000 + w_d)
            for _ in range(10000):
                if rng.random() < 0.3:
                    instr = ReadInstr(rng.randrange(s_d))
                else:
                    mode = rng.choice([WsMode.ZERO, WsMode.ONE,
                                       WsMode.FROM_SOURCE])
                    instr = apply_from_pairs(
                        rng.randrange(s_d),
                        rng.choice([SRC_PIR, SRC_DMR]),
                        WordlineSelect(mode, rng.randrange(w_d)),
                        tuple(BitlinePair(rng.random() < 0.5,
                                          rng.randrange(w_d))
                              for _ in range(w_d)))
                assert decode(encode(instr, cfg), cfg) == instr


def test_criterion_4_area_flow_equivalence():
    with criterion(4, "area flow equivalence over the corpus", 300.0):
        corpus = default_corpus()
        assert len(corpus) >= 10
        assert all(net.num_pis <= 12 for _, net in corpus)
        verified = 0
        for name, net in corpus:
            for k in (2, 4, 6):
                for s_d, w_d in ((4, 2), (8, 8), (16, 16)):
                    try:
                        program, report = map_area(net, k, s_d, w_d)
                    except InfeasibleMapping:
                        continue
                    res = check_equivalence(net, program)
                    assert res.ok, "%s k=%d %dx%d: %r" % (
                        name, k, s_d, w_d, res.counterexample)
                    ALL_PROGRAMS.append(program)
                    verified += 1
        assert verified >= 30, "only %d feasible mappings" % verified


def test_criterion_5_esop_on_three_by_two():
    with criterion(5, "random covers on a 3x2 crossbar", 120.0):
        rng = random.Random(1234)
        cfg = CrossbarConfig(3, 2)
        done = 0
        while done < 200:
            arity = rng.randrange(1, 7)
            tt = rng.getrandbits(1 << arity)
            cover = extract_esop(tt, arity)
            if len(cover.cubes) > 8:
                continue
            prog, bit = gen_esop_program(cover, cfg)
            masks = pi_patterns(arity)
            state, _ = run_vectors(prog, masks, 1 << arity)
            assert state.dcm[2][bit] == cover_truth_table(cover) == tt
            ALL_PROGRAMS.append(prog)
            done += 1


def _random_tree_mig(depth, num_pis, seed):
    rng = random.Random(seed)
    net = LogicNetwork(kind="mig")
    pis = [net.add_pi("x%d" % i) for i in range(num_pis)]

    def build(d):
        if d == 0:
            return Edge(rng.choice(pis), rng.random() < 0.5)
        kids = tuple(build(d - 1 if rng.random() < 0.75 else rng.randrange(d))
                     for _ in range(3))
        return Edge(net.add_node(MAJ, kids), rng.random() < 0.3)

    net.add_output(build(depth), "f")
    return net


def test_criterion_6_depth_bounded_mapper():
    with criterion(6, "depth-bounded mapper device bound", 120.0):
        for i in range(100):
            depth = 1 + i % 6
            mig = normalize_mig(_random_tree_mig(depth, 3 + i % 6, seed=i))
            program, report = map_minimal(mig)
            assert report.devices_used <= report.device_bound
            res = check_equivalence(mig, program)
            assert res.ok, "seed %d: %r" % (i, res.counterexample)
            ALL_PROGRAMS.append(program)


def test_criterion_7_feasibility_gate():
    with criterion(7, "feasibility gate straddles the bound", 10.0):
        # synthetic LUT graphs with demand from 1 to 12 against many layouts
        for demand in range(1, 13):
            g = LutGraph(k=2, num_pis=2)
            for i in range(demand):
                g.luts.append(Lut(i, (("pi", 0), ("pi", 1)), 0b0110))
            g.outputs = list(range(demand))
            g.output_names = ["o%d" % i for i in range(demand)]
            assign_levels(g)
            assert min_dev(g) == demand
            from revamp.areamap import map_lut_graph
            for s_d, w_d in ((4, 2), (4, 4), (5, 4), (6, 2), (7, 3)):
                capacity = (s_d - 3) * w_d
                if demand <= capacity:
                    program, _ = map_lut_graph(g, s_d, w_d)  # accepted
                else:
                    with pytest.raises(InfeasibleMapping):
                        map_lut_graph(g, s_d, w_d)
        # exact boundary: demand == capacity must be accepted
        g = LutGraph(k=2, num_pis=2)
        for i in range(2):
            g.luts.append(Lut(i, (("pi", 0), ("pi", 1)), 0b0110))
        g.outputs = [0, 1]
        g.output_names = ["o0", "o1"]
        assign_levels(g)
        from revamp.areamap import map_lut_graph
        program, _ = map_lut_graph(g, 4, 2)
        assert program is not None


def test_criterion_8_delay_flow_golden():
    with criterion(8, "delay flow golden trace", 1.0):
        mig = example_mig()
        roles = assign_roles(mig)
        formation = form_blocks(mig, roles, 3)
        names = {i: (n.name or "") for i, n in enumerate(mig.nodes)}
        rendered = [[("!" if el.value.inverted else "") + names[el.value.target]
                     for el in b.elements] for b in formation.blocks]
        assert rendered == [["a", "c", "a"], ["d", "!e"], ["b", "c", "!c"]]

        packing = pack_blocks(formation.blocks, 3)
        assert packing.n_words == 3
        program, report = gen_program_delay(mig, formation, packing)
        assert abs(report.w_util - 88.8) < 0.1

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
        applies = [s for s in trace.steps[n_load:]
                   if isinstance(s.instruction, ApplyInstr)]
        assert [s.post for s in applies] == [
            [s1, c, s2], [s3, c, s2], [s4, c, s2]]
        assert state.dcm[2][0] == s4
        assert program.result_locations["s4"] == (2, 0)
        ALL_PROGRAMS.append(program)
        assert check_equivalence(mig, program).ok


def test_criterion_9_delay_flow_equivalence():
    with criterion(9, "delay flow equivalence over the corpus", 300.0):
        for name, net in default_corpus():
            mig = aig_to_mig(net)
            for w_d in (4, 8, 16, 32):
                program, report = map_delay(mig, w_d)
                if mig.num_pis <= 12:
                    res = check_equivalence(mig, program)
                else:
                    res = check_equivalence(mig, program, mode="random",
                                            seed=1, n=10000)
                assert res.ok, "%s w_d=%d: %r" % (name, w_d,
                                                  res.counterexample)
                ALL_PROGRAMS.append(program)


def test_criterion_10_packing_quality():
    with criterion(10, "first-fit within twice the optimum", 60.0):
        from revamp.delaymap import Block, BlockElement
        rng = random.Random(99)
        for _ in range(100):
            w_d = rng.randrange(2, 9)
            sizes = [rng.randrange(1, w_d + 1)
                     for _ in range(rng.randrange(1, 13))]
            blocks = [Block(i + 1, [BlockElement(Edge(0), "i")] * s)
                      for i, s in enumerate(sizes)]
            ff = pack_blocks(blocks, w_d).n_words
            assert ff <= 2 * optimal_packing(sizes, w_d)


def test_criterion_11_timing_identity():
    with criterion(11, "cycle count is instructions plus fill", 60.0):
        assert len(ALL_PROGRAMS) > 300
        for program in ALL_PROGRAMS:
            state, _ = run_vectors(program, [0] * program.num_pis, 1)
            assert state.cycles == len(program.instructions) + 2


def test_criterion_12_speedup_over_serial_baseline():
    with criterion(12, "wide words beat the serial baseline", 60.0):
        migs = [(name, aig_to_mig(net)) for name, net in default_corpus()]
        # folding leaves mult4 alone above the threshold in that list
        migs += [(name, aig_to_mig(net)) for name, net in (
            ("mult4", multiplier(4)), ("add8", ripple_adder(8)),
            ("mult5", multiplier(5)))]
        qualifying = 0
        speedups = []
        for name, mig in migs:
            n_maj = sum(1 for n in mig.nodes if n.kind == MAJ)
            if n_maj < 50:
                continue
            qualifying += 1
            program, report = map_delay(mig, 16)
            assert report.d_p_star == 9 * n_maj
            assert report.cycles < report.d_p_star, \
                "%s: %d cycles vs serial %d" % (name, report.cycles,
                                                report.d_p_star)
            speedups.append(report.speedup)
        assert qualifying >= 3
        print("  mean speedup over the serial baseline at width 16: %.2fx"
              % (sum(speedups) / len(speedups)))
