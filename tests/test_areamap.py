import hashlib
import itertools
import random
import time
from collections import Counter

import pytest

from conftest import LEAF_OUTPUT_MIGS, layered_mig, tree_size
from revamp import areamap
from revamp.areamap import (E0, E2, InfeasibleMapping, Source,
                            compute_cube_batch, compute_esop,
                            gen_esop_program, map_area, map_lut_graph,
                            map_minimal, schedule_luts, write_back,
                            xor_reduce, xor_round)
from revamp.circuits import (AigBuilder, comparator, default_corpus,
                             full_adder, multiplier, parity, ripple_adder,
                             two_bit_xor)
from revamp.codegen import ProgramBuilder
from revamp.esop import Cube, EsopCover, cover_truth_table, extract_esop
from revamp.isa import (SRC_PIR, ApplyInstr, CrossbarConfig, IsaError,
                        WsMode, read_program, write_program)
from revamp.lutmap import (Lut, LutGraph, assign_levels, cover_klut, min_dev,
                           storage_capacity)
from revamp.netlist import (EXHAUSTIVE_MAX_PIS, MAJ, Edge, LogicNetwork,
                            NetlistError, aig_to_mig, normalize_mig,
                            parse_mig, pi_patterns, random_aig, random_mig,
                            rebuild)
from revamp.simulator import run, run_vectors
from revamp.verifier import check_equivalence


# -- scheduling ---------------------------------------------------------------

def replay_safety(schedule, graph: LutGraph,
                  storage_devices: int | None = None) -> list[str]:
    """Replay a storage schedule's event list and collect safety violations.

    Checks that no device is recycled while its value still has an
    unscheduled consumer, that placements never collide and that occupancy
    never exceeds the storage capacity.
    """
    succs: dict[int, set[int]] = {l.id: set() for l in graph.luts}
    for lut in graph.luts:
        for kind, ref in lut.inputs:
            if kind == "lut":
                succs[ref].add(lut.id)

    violations = []
    occupant: dict[tuple[int, int], int] = {}
    placed: set[int] = set()
    outputs = set(graph.outputs)
    for event in schedule.events:
        if event[0] == "place":
            _, lut_id, w, b = event
            if (w, b) in occupant:
                violations.append("device (%d,%d) double-booked by %d and %d"
                                  % (w, b, occupant[(w, b)], lut_id))
            occupant[(w, b)] = lut_id
            placed.add(lut_id)
        else:
            _, w, victims = event
            for b, lut_id in victims:
                if occupant.get((w, b)) != lut_id:
                    violations.append("reset of (%d,%d) does not match its "
                                      "occupant" % (w, b))
                waiting = succs.get(lut_id, set()) - placed
                if waiting:
                    violations.append(
                        "value of %d recycled while consumers %s are "
                        "unscheduled" % (lut_id, sorted(waiting)))
                if lut_id in outputs:
                    violations.append("output value %d recycled" % lut_id)
                occupant.pop((w, b), None)
        if storage_devices is not None and len(occupant) > storage_devices:
            violations.append("occupancy %d exceeds capacity %d"
                              % (len(occupant), storage_devices))
    unplaced = {l.id for l in graph.luts} - placed
    if unplaced:
        violations.append("never placed: %s" % sorted(unplaced))
    return violations


def _seven_lut_graph():
    """Four-level, seven-LUT reference graph on a 6x4 crossbar.

    Levels: {n1, n2} -> {n3} -> {n4, n5, n6} -> {n7}; n1 feeds only n3,
    n2 feeds n3 and the level-3 nodes.
    """
    g = LutGraph(k=4, num_pis=6)
    g.luts = [
        Lut(0, (("pi", 0), ("pi", 1)), 0b1000),            # n1
        Lut(1, (("pi", 2), ("pi", 3)), 0b0110),            # n2
        Lut(2, (("lut", 0), ("lut", 1)), 0b0110),          # n3
        Lut(3, (("lut", 2), ("lut", 1)), 0b1000),          # n4
        Lut(4, (("lut", 2), ("pi", 4)), 0b0110),           # n5
        Lut(5, (("lut", 2), ("lut", 1), ("pi", 5)), 0x96),  # n6
        Lut(6, (("lut", 3), ("lut", 4), ("lut", 5)), 0xe8),  # n7
    ]
    g.outputs = [6]
    g.output_names = ["f"]
    assign_levels(g)
    return g


def test_schedule_walkthrough_wordlines():
    g = _seven_lut_graph()
    sched = schedule_luts(g, 6, 4)
    rows = {i: sched.placements[i][0] for i in range(7)}
    assert rows[0] == 5 and rows[1] == 5          # level 1 -> wordline 5
    assert rows[2] == 5                           # level 2 joins wordline 5
    assert rows[3] == rows[4] == rows[5] == 4     # level 3 -> wordline 4
    assert rows[6] == 5                           # level 4 back in wordline 5
    assert replay_safety(sched, g, storage_devices=(6 - 3) * 4) == []


def test_schedule_single_lut():
    g = LutGraph(k=2, num_pis=2)
    g.luts = [Lut(0, (("pi", 0), ("pi", 1)), 0b1000)]
    g.outputs = [0]
    g.output_names = ["f"]
    assign_levels(g)
    sched = schedule_luts(g, 4, 4)
    assert sched.placements[0] == (3, 0)


def test_schedule_recycles_under_pressure():
    # a long chain on a single storage row of two devices forces recycling
    g = LutGraph(k=2, num_pis=1)
    prev = None
    for i in range(6):
        ins = (("pi", 0),) if prev is None else (("lut", prev),)
        g.luts.append(Lut(i, ins, 0b10))
        prev = i
    g.outputs = [5]
    g.output_names = ["f"]
    assign_levels(g)
    sched = schedule_luts(g, 4, 2)
    assert any(ev[0] == "reset" for ev in sched.events)
    assert replay_safety(sched, g, storage_devices=2) == []


def test_schedule_safety_random():
    rng = random.Random(1)
    for trial in range(30):
        net = random_aig(num_pis=6, num_ands=10 + trial, seed=trial)
        g = cover_klut(net, 3)
        capacity_rows = max(4, 3 + (min_dev(g) + 3) // 4 + (trial % 2))
        try:
            sched = schedule_luts(g, capacity_rows, 4)
        except InfeasibleMapping:
            continue
        assert replay_safety(sched, g,
                             storage_devices=(capacity_rows - 3) * 4) == []


def test_schedule_rejects_infeasible():
    g = _seven_lut_graph()
    with pytest.raises(InfeasibleMapping):
        schedule_luts(g, 4, 2)


# -- cube programs --------------------------------------------------------------

def _word_states(builder, num_pis, width, masks):
    """(word, post-state) of every step of the builder's program."""
    from revamp.isa import Program
    prog = Program(builder.config, builder.instructions,
                   builder.pir_schedule, {}, num_pis)
    _, trace = run_vectors(prog, masks, width, record_trace=True)
    return [(step.word, tuple(step.post)) for step in trace.steps]


def _e2_states_after_steps(builder, num_pis, width, masks):
    return [post for word, post in _word_states(builder, num_pis, width,
                                                masks) if word == E2]


def test_cube_batch_reference_panels():
    """Two three-literal cubes, a !b c and !a b c, from the input register
    walk through the documented e2 states, source by source.  The register
    loads !b and !a directly in one Apply; a, b and c go through the
    staging bank, which on four bitlines is loaded once and applied in two
    rounds, and on two is filled twice.  The bank ends reset, and e2 holds
    the two cubes."""
    cubes = [Cube(pos=0b101, neg=0b010),   # a !b c
             Cube(pos=0b110, neg=0b001)]   # !a b c
    masks = pi_patterns(3)
    full = (1 << 8) - 1
    a, b, c = masks
    na, nb = full & ~a, full & ~b
    direct = (nb, na)
    for w_d, panels, count in (
            # one bank fill of (!a, !c, !b): rounds (c, b), then (a, c)
            (4, [direct, (nb & c, na & b), (a & nb & c, na & b & c)], 6),
            # bank fills (!a, !c), then (!b)
            (2, [direct, (nb & c, na & c), (a & nb & c, na & c),
                 (a & nb & c, na & b & c)], 10)):
        builder = ProgramBuilder(CrossbarConfig(3, w_d), 3)
        compute_cube_batch(builder, cubes, [0, 1],
                           [[Source(None, v) for v in range(3)]] * 2)
        assert len(builder.instructions) == count, w_d
        states = [s[:2] for s in _e2_states_after_steps(builder, 3, 8, masks)]
        assert states == panels, w_d
        from revamp.isa import Program
        state, _ = run_vectors(Program(builder.config, builder.instructions,
                                       builder.pir_schedule, {}, 3), masks, 8)
        assert state.dcm[0] == [0] * w_d and state.dcm[1] == [0] * w_d
        assert state.dcm[E2][:2] == [a & nb & c, na & b & c]


def test_single_positive_cube():
    cfg = CrossbarConfig(3, 2)
    cover = EsopCover([Cube(pos=0b11)], 2)
    builder = ProgramBuilder(cfg, 2)
    compute_cube_batch(builder, cover.cubes, [0],
                       [[Source(None, 0), Source(None, 1)]])
    from revamp.isa import Program
    prog = Program(cfg, builder.instructions, builder.pir_schedule, {}, 2)
    for a, b in itertools.product((0, 1), repeat=2):
        state, _ = run(prog, [a, b])
        assert state.dcm[E2][0] == (a & b)


def test_empty_cube_is_single_set_instruction():
    cfg = CrossbarConfig(3, 2)
    cover = EsopCover([Cube()], 0)
    builder = ProgramBuilder(cfg, 0)
    compute_cube_batch(builder, cover.cubes, [0], [[]])
    assert len(builder.instructions) == 1
    instr = builder.instructions[0]
    assert isinstance(instr, ApplyInstr)
    assert instr.source == SRC_PIR and instr.ws.mode == WsMode.ONE
    from revamp.isa import Program
    prog = Program(cfg, builder.instructions, builder.pir_schedule, {}, 0)
    state, _ = run(prog, [])
    assert state.dcm[E2][0] == 1


def test_xor_reduction_tree():
    rng = random.Random(8)
    for m in range(1, 9):
        for trial in range(6):
            w_d = max(2, m + rng.randrange(0, 3))
            cfg = CrossbarConfig(3, w_d)
            bits = sorted(rng.sample(range(w_d), m))
            builder = ProgramBuilder(cfg, 0)
            # deposit random values on e2 through direct complemented loads
            values = [rng.randrange(2) for _ in bits]
            from revamp.isa import SLOT_CONST0, SLOT_CONST1
            builder.apply_from_pir(E2, WsMode.ONE, {
                b: (SLOT_CONST0 if v else SLOT_CONST1)
                for b, v in zip(bits, values)})
            row, (result,), (p,) = xor_reduce(builder,
                                              [[(b, 0) for b in bits]])
            if m == 1:
                assert len(builder.instructions) == 1  # no reduction emitted
                assert (row, result, p) == (E2, bits[0], 0)
            from revamp.isa import Program
            prog = Program(cfg, builder.instructions, builder.pir_schedule,
                           {}, 0)
            state, _ = run(prog, [])
            want = 0
            for v in values:
                want ^= v
            assert state.dcm[row][result] == want ^ p
            # nothing else is left on the working rows
            assert sum(map(sum, state.dcm)) == state.dcm[row][result]


def test_xor_reduction_four_terms_two_rounds():
    cfg = CrossbarConfig(3, 4)
    builder = ProgramBuilder(cfg, 0)
    row, bits, pols = xor_reduce(builder, [[(b, 0) for b in range(4)]])
    # two rounds of six instructions each, e2 -> e0 -> e2; pairs share
    # instructions, and each fold complements: not(not(a^b) ^ not(c^d))
    assert len(builder.instructions) == 12
    assert (row, bits, pols) == (E2, [0], [1])


def test_xor_round_moves_results_to_the_other_row():
    """One round folds four pairs and moves two unpaired values, holding
    the four input pairs (x, y) and the values 0 and 1 on e2, through the
    documented states: the cross Apply leaves x.not(y) and y.not(x) on
    e2, then e0 takes not(x.not(y)) and not(m), then not(x xor y), and
    the reset clears e2.  Six instructions, and none writes e1."""
    from revamp.isa import SLOT_CONST0, SLOT_CONST1
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
    xys = list(itertools.product((0, 1), repeat=2))
    moved, ms = [8, 9], [0, 1]
    builder = ProgramBuilder(CrossbarConfig(3, 10), 0)
    # a complemented load of the constant's complement deposits each value
    e2 = dict(zip(moved, ms))
    e2.update((bit, v) for pair, xy in zip(pairs, xys)
              for bit, v in zip(pair, xy))
    builder.apply_from_pir(E2, WsMode.ONE, {
        bit: SLOT_CONST0 if v else SLOT_CONST1 for bit, v in e2.items()})
    start = len(builder.instructions)
    xor_round(builder, E2, pairs, moved)
    assert len(builder.instructions) - start == 6
    states = _word_states(builder, 0, 1, [])[start:]
    loaded = tuple(e2[j] for j in range(10))
    crossed = [0] * 10
    for (lo, hi), (x, y) in zip(pairs, xys):
        crossed[lo], crossed[hi] = x & ~y & 1, y & ~x & 1
    crossed[8:] = ms
    ones, folded = [0] * 10, [0] * 10
    for (lo, _), (x, y) in zip(pairs, xys):
        ones[lo] = 1 - (x & ~y & 1)
        folded[lo] = 1 - (x ^ y)
    for m, v in zip(moved, ms):
        ones[m] = folded[m] = 1 - v
    assert states == [(E2, loaded), (E2, tuple(crossed)), (E2, tuple(crossed)),
                      (E0, tuple(ones)), (E0, tuple(folded)),
                      (E2, (0,) * 10)]
    assert 1 not in {i.w for i in builder.instructions}


def _random_cube(rng, arity):
    pos = rng.getrandbits(arity)
    return Cube(pos=pos, neg=rng.getrandbits(arity) & ~pos)


def test_xor_rounds_store_each_group_at_its_polarity():
    """Seeded batches of groups of 1..w_D random cubes, with mixed round
    counts, through ``compute_esop`` and ``write_back`` with a storage
    device for most groups, plain (an output) or not: on every input
    vector each device holds its group's XOR at the polarity returned, a
    plain one the plain value; a group without a device stays on the
    returned row at its polarity, and the other working devices end at
    zero.  Groups are stored by the last round, from the other row after
    it, or, with no round at all, from e2 directly or through the
    staging bank."""
    from revamp.isa import Program
    rng = random.Random(29)
    seen = Counter()
    for trial in range(300):
        w_d = rng.choice((2, 3, 4, 5, 8, 16))
        arity = rng.randrange(1, 5)
        sizes = [rng.randrange(1, w_d + 1)]
        while sum(sizes) < w_d and rng.random() < 0.7:
            sizes.append(rng.randrange(1, w_d - sum(sizes) + 1))
        covers = [[_random_cube(rng, arity) for _ in range(n)] for n in sizes]
        cfg = CrossbarConfig(5, w_d)  # storage rows 3 and 4
        devices = rng.sample([(w, j) for w in (3, 4) for j in range(w_d)],
                             len(covers))
        dests = [(dev, rng.random() < 0.5) if rng.random() < 0.8 else None
                 for dev in devices]
        builder = ProgramBuilder(cfg, arity)
        sources = [Source(None, v) for v in range(arity)]
        row, bits, pols = compute_esop(
            builder, [(cubes, sources) for cubes in covers], dests)
        stored = write_back(builder, row, [
            (bit, p, *dest) for bit, p, dest in zip(bits, pols, dests)
            if dest])
        state, _ = run_vectors(Program(cfg, builder.instructions,
                                       builder.pir_schedule, {}, arity),
                               pi_patterns(arity), 1 << arity)
        full = (1 << (1 << arity)) - 1
        stored = iter(stored)
        held = set()
        rounds = max(sizes) > 1
        for cubes, bit, p, dest in zip(covers, bits, pols, dests):
            f = cover_truth_table(EsopCover(cubes, arity))
            case = (trial, sizes, dests)
            if dest is None:
                assert state.dcm[row][bit] == f ^ (full * p), case
                held.add((row, bit))
                seen["kept"] += 1
                continue
            (w, j), plain = dest
            got = next(stored)
            assert state.dcm[w][j] == f ^ (full * got), case
            assert not (plain and got), case
            seen["fused" if bit is None else
                 "from the other row" if rounds else
                 "staged" if plain else "from e2"] += 1
        assert not any(state.dcm[r][j] for r in range(3) for j in range(w_d)
                       if (r, j) not in held), trial
        seen["mixed round counts"] += len({(n - 1).bit_length()
                                           for n in sizes}) > 1
    assert len(seen) == 6 and min(seen.values()) > 10, seen


def test_esop_program_minimal_geometry():
    """Random covers compute on three wordlines and two bitlines."""
    rng = random.Random(21)
    for trial in range(60):
        arity = rng.randrange(1, 7)
        tt = rng.getrandbits(1 << arity)
        cover = extract_esop(tt, arity)
        if len(cover.cubes) > 8:
            continue
        prog, bit = gen_esop_program(cover, CrossbarConfig(3, 2))
        masks = pi_patterns(arity)
        state, _ = run_vectors(prog, masks, 1 << arity)
        assert state.dcm[E2][bit] == tt, "trial %d" % trial


def test_esop_program_wider_crossbars():
    rng = random.Random(5)
    for w_d in (4, 8):
        for trial in range(15):
            arity = rng.randrange(2, 7)
            tt = rng.getrandbits(1 << arity)
            cover = extract_esop(tt, arity)
            prog, bit = gen_esop_program(cover, CrossbarConfig(3, w_d))
            masks = pi_patterns(arity)
            state, _ = run_vectors(prog, masks, 1 << arity)
            assert state.dcm[E2][bit] == tt


def test_stored_operand_sources():
    """Mixing a streamed variable with one held complemented in storage."""
    from revamp.isa import SLOT_CONST0, SLOT_CONST1, Program
    cfg = CrossbarConfig(5, 2)
    cover = extract_esop(0b0110, 2)  # xor of the two variables
    sources = [Source(None, 0), Source(3, 1, inverted=True)]
    for v1 in (0, 1):
        b = ProgramBuilder(cfg, 1)
        # applying v1 through the bitline stores its complement at (3,1)
        b.apply_from_pir(3, WsMode.ONE,
                         {1: SLOT_CONST1 if v1 else SLOT_CONST0})
        row, (bit,), (p,) = compute_esop(b, [(cover.cubes, sources)])
        prog = Program(cfg, b.instructions, b.pir_schedule, {}, 1)
        for a in (0, 1):
            state, _ = run(prog, [a])
            assert state.dcm[row][bit] == a ^ v1 ^ p


# -- full area flow ---------------------------------------------------------------

def test_map_area_two_bit_xor_small():
    net = two_bit_xor()
    program, report = map_area(net, 4, 4, 2)
    assert check_equivalence(net, program).ok
    assert report.cycles == report.i_total + 2


def test_map_area_full_adder():
    net = full_adder()
    program, report = map_area(net, 4, 8, 8)
    result = check_equivalence(net, program)
    assert result.ok and result.vectors == 8


def test_map_area_adder_various_k():
    net = ripple_adder(3)
    for k in (2, 4, 6):
        program, report = map_area(net, k, 16, 8)
        assert check_equivalence(net, program).ok


def test_map_area_output_polarity_is_raw():
    # complemented and constant outputs land in plain form at the declared
    # devices, so the verifier reads them without polarity bookkeeping
    net = random_aig(num_pis=4, num_ands=6, seed=9, num_outputs=3)
    program, report = map_area(net, 4, 8, 4)
    assert check_equivalence(net, program).ok


def test_map_area_infeasibility_reports_numbers():
    net = ripple_adder(4)
    with pytest.raises(InfeasibleMapping) as err:
        map_area(net, 2, 4, 2)
    assert err.value.needed > err.value.capacity == 2


def test_map_area_boundary_acceptance():
    """Storage equal to the demand maps and one device less is refused;
    a one-bitline geometry is no crossbar at all."""
    for net, need in ((two_bit_xor(), 2), (full_adder(), 2),
                      (ripple_adder(2), 3)):
        graph = cover_klut(net, 4)
        assert min_dev(graph) == need
        program, _ = map_lut_graph(graph, 4, need)  # capacity == demand
        assert check_equivalence(net, program).ok
    with pytest.raises(InfeasibleMapping):
        map_lut_graph(graph, 4, need - 1)
    with pytest.raises(IsaError, match="w_D must be >= 2"):
        map_lut_graph(graph, 4, 1)


def test_schedule_refuses_a_crossbar_without_storage_rows(monkeypatch):
    """The scheduler itself refuses LUTs on three rows or fewer, whatever
    the demand bound says: with the bound forced to 0 it raises
    ``InfeasibleMapping``, not an ``IndexError``."""
    import revamp.areamap as areamap
    monkeypatch.setattr(areamap, "min_dev", lambda graph: 0)
    graph = cover_klut(full_adder(), 4)
    for s_d in (1, 2, 3):
        with pytest.raises(InfeasibleMapping) as err:
            schedule_luts(graph, s_d, 8)
        assert (err.value.needed, err.value.capacity) == (1, 0)
        with pytest.raises(InfeasibleMapping):
            map_area(full_adder(), 4, s_d, 8)
    assert schedule_luts(LutGraph(k=4, num_pis=0), 3, 8).events == []


def test_map_area_computes_device_demand_once(monkeypatch):
    import revamp.areamap as areamap
    net = multiplier(3)
    _, expect = map_area(net, 4, 16, 16)
    calls = []

    def counted(graph):
        calls.append(graph)
        return min_dev(graph)

    monkeypatch.setattr(areamap, "min_dev", counted)
    _, report = map_area(net, 4, 16, 16)
    assert len(calls) == 1
    assert report.min_dev == expect.min_dev == min_dev(calls[0])


def test_map_area_extracts_each_function_once(monkeypatch):
    import revamp.areamap as areamap
    net = multiplier(4)
    graph = cover_klut(net, 4)
    functions = {(l.tt, len(l.inputs)) for l in graph.luts}
    calls = []

    def counted(tt, arity):
        calls.append((tt, arity))
        return extract_esop(tt, arity)

    monkeypatch.setattr(areamap, "extract_esop", counted)
    for s_d, w_d in ((256, 32), (16, 16), (16, 16)):
        # the covers are kept for one call only, so each call extracts again
        calls.clear()
        program, _ = map_area(net, 4, s_d, w_d)
        assert sorted(calls) == sorted(functions), (s_d, w_d)
        assert check_equivalence(net, program).ok
    assert len(functions) < len(graph.luts)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_area_mapping_verifies_or_refuses_with_its_demand(k):
    """Seeded networks, some with results that other LUTs read back, on
    roomy, tight and recycling crossbars: every mapped program verifies on
    all input vectors, and every refusal names the cover's device demand
    and the crossbar's storage capacity."""
    seen = {"mapped": 0, "recycled": 0, "refused": 0, "plain inputs": 0}
    rng = random.Random(k)
    for seed in range(24):
        net = random_aig(num_pis=4 + seed % 9, num_ands=10 + 4 * seed,
                         seed=1000 * k + seed, num_outputs=1 + seed % 4)
        for i in range(seed % 3):  # results that other LUTs read back
            net.add_output(Edge(rng.randrange(net.num_pis, len(net.nodes)),
                                rng.random() < 0.5), "t%d" % i)
        graph = cover_klut(net, k)
        seen["plain inputs"] += sum(
            ref in graph.outputs for l in graph.luts
            for kind, ref in l.inputs if kind == "lut")
        tight = (3 + -(-min_dev(graph) // 4), 4)  # room for the demand only
        for s_d, w_d in ((16, 16), (8, 8), tight, (5, 4), (4, 2)):
            try:
                program, _ = map_lut_graph(graph, s_d, w_d)
            except InfeasibleMapping as err:
                assert (err.needed, err.capacity) == (
                    min_dev(graph), storage_capacity(s_d, w_d)), (seed, s_d)
                seen["refused"] += 1
                continue
            assert check_equivalence(net, program).ok, (seed, s_d, w_d)
            seen["mapped"] += 1
            events = schedule_luts(graph, s_d, w_d).events
            seen["recycled"] += any(e[0] == "reset" for e in events)
    assert all(seen.values()), seen


def test_map_area_maps_random_migs():
    """MIGs cover like AIGs: MAJ cones become LUTs, and every mapped
    program verifies on all input vectors."""
    mapped = 0
    for seed in range(12):
        net = random_mig(num_pis=3 + seed % 8, num_nodes=8 + 3 * seed,
                         seed=seed, num_outputs=1 + seed % 3)
        for k in (3, 4, 5, 6):
            for s_d, w_d in ((64, 16), (16, 8), (8, 4)):
                try:
                    program, _ = map_area(net, k, s_d, w_d)
                except InfeasibleMapping as err:
                    assert err.needed == min_dev(cover_klut(net, k))
                    continue
                assert check_equivalence(net, program).ok, (seed, k, s_d)
                mapped += 1
    assert mapped > 100


def _working_devices(program):
    """Devices of rows 0..2 that some Apply of ``program`` writes."""
    return {(i.w, j) for i in set(program.instructions)
            if isinstance(i, ApplyInstr) and i.w <= E2
            for j, pair in enumerate(i.pairs) if pair.valid}


def _one_lut_per_batch(graph, s_d, w_d):
    """The area program of ``graph`` with each LUT computed and stored on
    its own, by the emitters and schedule ``map_lut_graph`` uses."""
    sched = schedule_luts(graph, s_d, w_d)
    builder = ProgramBuilder(CrossbarConfig(s_d, w_d), graph.num_pis)
    outputs = set(graph.outputs)
    polarity = {}
    for event in sched.events:
        if event[0] == "reset":
            builder.reset_bits(event[1], [b for b, _ in event[2]])
            continue
        lut = graph.luts[event[1]]
        sources = [Source(None, ref) if kind == "pi" else
                   Source(*sched.placements[ref], polarity[ref])
                   for kind, ref in lut.inputs]
        cubes = extract_esop(lut.tt, len(lut.inputs)).cubes
        dest = (event[2:], lut.id in outputs)
        row, (bit,), (p,) = compute_esop(builder, [(cubes, sources)], [dest])
        polarity[lut.id], = write_back(builder, row, [(bit, p, *dest)])
    for lut_id, name in zip(graph.outputs, graph.output_names):
        builder.result_locations[name] = sched.placements[lut_id]
    return builder.finish()


def test_level_batches_stay_in_place_and_save_instructions():
    """Seeded networks and the builtin corpus at k 3/4/6 on 8, 16 and 64
    rows of 4, 16 and 32 bitlines.  Every area program verifies on all
    input vectors and writes no working device on e1: a batch fills at
    most W = w_D bitlines of e2, and the staging bank is e0.
    Where two LUTs placed one after the other in a level fit W together,
    the program is shorter than the same schedule mapped one LUT per
    batch; elsewhere it is that program."""
    nets = [net for _, net in default_corpus()] + [
        random_aig(5 + seed % 8, 16 + 8 * seed, seed=300 + seed,
                   num_outputs=1 + seed % 3) for seed in range(8)]
    seen = {"mapped": 0, "batched": 0}
    for net in nets:
        for k in (3, 4, 6):
            graph = cover_klut(net, k)
            bits = {l.id: max(1, len(extract_esop(l.tt, len(l.inputs)).cubes))
                    for l in graph.luts}
            for s_d, w_d in itertools.product((8, 16, 64), (4, 16, 32)):
                try:
                    program, report = map_lut_graph(graph, s_d, w_d)
                except InfeasibleMapping:
                    continue
                case = (net.output_names, k, s_d, w_d)
                result = check_equivalence(net, program, mode="exhaustive")
                assert result.ok, case
                assert _working_devices(program) <= {
                    (row, j) for row in (E0, E2) for j in range(w_d)}, case
                events = schedule_luts(graph, s_d, w_d).events
                shared = any(
                    a[0] == b[0] == "place"
                    and bits[a[1]] + bits[b[1]] <= w_d
                    and graph.luts[a[1]].level == graph.luts[b[1]].level
                    for a, b in zip(events, events[1:]))
                single = _one_lut_per_batch(graph, s_d, w_d).instructions
                if shared:
                    assert report.i_total < len(single), case
                else:
                    assert program.instructions == single, case
                seen["mapped"] += 1
                seen["batched"] += shared
    assert seen["mapped"] > 500 and seen["batched"] > 250, seen


def test_cube_batches_read_each_source_once_per_bank_fill(monkeypatch):
    """Seeded networks and the builtin corpus at k 3/4/6 on 8, 16 and 64
    rows of 4, 16 and 32 bitlines.  In each cube batch every stored word
    is read at most once per fill of the staging bank (a fill ends where
    the bank is read), and the e2 Applies drawn from each source (the
    input register, a stored word or one bank fill) number at most twice
    that source's most literals on one bitline: one round per literal,
    split into a load and an AND Apply.  Every program verifies on all
    input vectors."""
    import revamp.areamap as areamap
    from revamp.isa import ReadInstr
    batches = []
    real = areamap.compute_cube_batch

    def recorded(builder, cubes, bits, sources):
        start = len(builder.instructions)
        real(builder, cubes, bits, sources)
        batches.append((builder.instructions[start:], cubes, bits, sources))

    monkeypatch.setattr(areamap, "compute_cube_batch", recorded)
    nets = [net for _, net in default_corpus()] + [
        random_aig(5 + seed % 8, 16 + 8 * seed, seed=300 + seed,
                   num_outputs=1 + seed % 3) for seed in range(8)]
    seen = {"mapped": 0, "batches": 0, "bank fills": 0, "word reads": 0}
    for net in nets:
        for k in (3, 4, 6):
            graph = cover_klut(net, k)
            for s_d, w_d in ((8, 4), (16, 16), (64, 32)):
                batches.clear()
                try:
                    program, _ = map_lut_graph(graph, s_d, w_d)
                except InfeasibleMapping:
                    continue
                case = (net.output_names, k, s_d, w_d)
                assert check_equivalence(net, program, mode="exhaustive").ok
                seen["mapped"] += 1
                for instrs, cubes, bits, sources in batches:
                    # literals per (source, bitline): a word, None for the
                    # register, "bank" for the literals staged on e0
                    literals = Counter()
                    for c, bit, srcs in zip(cubes, bits, sources):
                        literals[None, bit] += not (c.pos or c.neg)
                        for v, src in enumerate(srcs):
                            for pos, mask in ((True, c.pos), (False, c.neg)):
                                if mask >> v & 1:
                                    literals[src.word if src.inverted == pos
                                             else "bank", bit] += 1
                    most = Counter()
                    for (src, _), n in literals.items():
                        most[src] = max(most[src], n)
                    applies = Counter()
                    reads = Counter()
                    source, fills = None, 0
                    for instr in instrs:
                        if isinstance(instr, ReadInstr):
                            assert instr.w != E2, case
                            if instr.w == 0:
                                source, fills = "bank", fills + 1
                                reads.clear()
                            else:
                                source = instr.w
                                reads[source] += 1
                                assert reads[source] == 1, case
                                seen["word reads"] += 1
                        elif instr.w == E2:
                            key = None if instr.source == SRC_PIR else source
                            applies[key, fills if key == "bank" else 0] += 1
                    for (key, _), n in applies.items():
                        assert n <= 2 * most[key], (case, key)
                    seen["batches"] += 1
                    seen["bank fills"] += fills
    assert seen["mapped"] > 150 and all(seen.values()), seen


def test_area_report_counts_the_staging_instructions(monkeypatch):
    """``i_staging`` counts the staging bank's loads, reads, the Applies
    from it and its resets.  By hand for add8 at k=4 on 256x32: its 15
    LUTs take one batch a level, and each has an XOR round, so none is
    stored through the bank.  Level 1 computes s0, s1 and the carry into
    bit 2 over the four inputs of bits 0 and 1 (9 bitlines) and stages
    their positive literals from the register: one load, a read, three
    rounds of Applies and a reset (6).  Each level 2 to 7 computes the sum
    and carry of one bit from its two inputs and the carry below, stored
    complemented, so that carry's positive literals read its word
    directly; the inputs' positive literals are staged: one load, a read,
    two rounds and a reset (5).  The carry out of level 7 reads the carry
    below negated, so that word loads onto the bank too (6)."""
    import revamp.areamap as areamap
    from revamp.isa import ReadInstr
    fills = []
    real = areamap._emit_bank

    def recorded(builder, *args):
        start = len(builder.instructions)
        real(builder, *args)
        fills.append(builder.instructions[start:])

    monkeypatch.setattr(areamap, "_emit_bank", recorded)
    _, report = map_area(ripple_adder(8), 4, 256, 32)
    # each bank fill: a read of e0, rounds of Applies, a reset of e0
    kinds = Counter(
        "read" if isinstance(i, ReadInstr) and i.w == E0 else
        "reset" if i.source == SRC_PIR and i.w == E0 else "round"
        for fill in fills for i in fill)
    assert kinds == {"read": 1 + 6, "round": 3 + 6 * 2, "reset": 1 + 6}
    loads = 1 + 6 + 1
    assert report.i_staging - sum(kinds.values()) == loads
    assert report.i_staging == 6 + 5 * 5 + 6 == 37
    assert report.to_dict()["i_staging"] == 37


def test_mult8_area_program_spreads_the_xor_rounds_wear():
    """The XOR rounds alternate between e2 and e0, so the most-written
    device of mult8's area program on 256x32 takes 128 write pulses (an
    Apply driving it through a valid pair), where rounds kept on e2 alone
    put 708 on device (2,1) of the greedy cover's program."""
    program, _ = map_area(multiplier(8), 4, 256, 32)
    pulses = Counter((i.w, j) for i in program.instructions
                     if isinstance(i, ApplyInstr)
                     for j, pair in enumerate(i.pairs) if pair.valid)
    assert max(pulses.values()) < 708


# -- depth-bounded mapper ------------------------------------------------------------

def _tree_mig(depth, num_pis, seed):
    rng = random.Random(seed)
    net = LogicNetwork(kind="mig")
    pis = [net.add_pi("x%d" % i) for i in range(num_pis)]

    def build(d):
        if d == 0:
            return Edge(rng.choice(pis), rng.random() < 0.5)
        kids = tuple(build(d - 1 if rng.random() < 0.7 else rng.randrange(d))
                     for _ in range(3))
        return Edge(net.add_node(MAJ, kids), rng.random() < 0.3)

    net.add_output(build(depth), "f")
    return net


def test_map_minimal_two_level():
    net = _tree_mig(1, 3, seed=2)
    norm = normalize_mig(net)
    program, report = map_minimal(norm)
    assert report.devices_used <= 4
    assert check_equivalence(norm, program).ok


def test_map_minimal_respects_bound():
    for seed in range(40):
        depth = 1 + seed % 6
        norm = normalize_mig(_tree_mig(depth, 3 + seed % 5, seed))
        program, report = map_minimal(norm)
        assert report.devices_used <= report.device_bound
        assert program.config.w_d == 2
        assert check_equivalence(norm, program).ok


def test_map_minimal_wire():
    net = LogicNetwork(kind="mig")
    p = net.add_pi("a")
    net.add_output(Edge(p, False), "f")
    program, report = map_minimal(net)
    assert report.devices_used <= 2 == report.device_bound
    # a wire involves no majority computation at all
    assert builder_maj_applies(program) == 0
    assert check_equivalence(net, program).ok


@pytest.mark.parametrize("name", sorted(LEAF_OUTPUT_MIGS))
def test_map_minimal_maps_a_leaf_output(name):
    net = parse_mig(LEAF_OUTPUT_MIGS[name])
    norm = normalize_mig(net)
    src, out = net.outputs[0], norm.outputs[0]
    assert (norm.nodes[out.target].kind, out.inverted) == (
        net.nodes[src.target].kind, src.inverted)
    program, report = map_minimal(norm)
    assert builder_maj_applies(program) == 0 and report.n_maj == 0
    assert check_equivalence(net, program, mode="exhaustive").ok


def builder_maj_applies(program):
    return sum(1 for i in program.instructions
               if isinstance(i, ApplyInstr)
               and i.ws.mode == WsMode.FROM_SOURCE)


def test_map_minimal_maps_a_node_used_in_both_polarities():
    """A node referenced plainly and complemented is computed once; its
    other reference copies the device that holds it.  The report counts
    the program's two MAJ Applies, not the tree's three nodes."""
    net = LogicNetwork(kind="mig")
    a, b, c = (net.add_pi() for _ in range(3))
    shared = net.add_node(MAJ, (Edge(a), Edge(b), Edge(c, True)))
    root = net.add_node(MAJ, (Edge(shared), Edge(shared, True), Edge(a)))
    net.add_output(Edge(root))
    program, report = map_minimal(net)
    assert report.n_maj == builder_maj_applies(program) == 2
    assert tree_size(net) == 3
    assert report.devices_used <= report.device_bound
    assert check_equivalence(net, program).ok


@pytest.mark.parametrize("n", [*range(4, 21), 24, 64])
def test_minimal_parity_copies_held_values(n):
    """Parity's tree has 3(2^(n-1) - 1) MAJ nodes over a DAG of about 4n:
    a value the crossbar still holds is copied rather than computed again,
    so the program stays within 20 instructions per input, from the
    normal form and from ``rebuild``'s MIG, whose complements the mapper
    pushes itself.  Proven on every vector up to 16 inputs, on 4,096
    random vectors above."""
    net = parity(n)
    mig = aig_to_mig(net)
    mode = "exhaustive" if n <= EXHAUSTIVE_MAX_PIS else "random"
    for form in (normalize_mig(mig), mig):
        program, report = map_minimal(form)
        assert report.i_total <= 20 * n
        assert report.devices_used <= report.device_bound
        assert report.s_d == report.levels + 1
        result = check_equivalence(net, program, mode=mode, n=4096)
        assert result.ok and result.mode == mode


def test_minimal_random_migs_verify_within_the_bound():
    """200 seeded MIGs of 6-12 inputs and 10-300 nodes, each mapped from
    its normal form and from ``rebuild``'s MIG and proven on every input
    vector, with at most one MAJ Apply per tree node."""
    for seed in range(200):
        rng = random.Random(seed)
        mig = random_mig(rng.randint(6, 12), rng.randint(10, 300), seed=seed)
        for form in (normalize_mig(mig), rebuild(mig)):
            program, report = map_minimal(form)
            assert report.devices_used <= report.device_bound, seed
            assert report.n_maj == builder_maj_applies(program), seed
            assert report.n_maj <= tree_size(form), seed
            assert check_equivalence(mig, program, mode="exhaustive").ok, seed


def test_minimal_refuses_a_program_past_the_bound(monkeypatch):
    """The program's length, not the network's tree, bounds the flow: at a
    bound of 10,000 a 76-node layered MIG is refused as soon as its
    program passes it, while parity4 maps."""
    monkeypatch.setattr(areamap, "MAX_MINIMAL_INSTRUCTIONS", 10_000)
    with pytest.raises(NetlistError, match="exceed 10000 instructions"):
        map_minimal(rebuild(layered_mig(16, 6, 12, seed=1)))
    program, _ = map_minimal(aig_to_mig(parity(4)))
    assert len(program.instructions) <= 10_000


@pytest.mark.parametrize("n", [600, 3000])
def test_minimal_flow_maps_deep_and_chain(n):
    """A chain deeper than the interpreter's recursion limit normalizes,
    maps, encodes and verifies: at 600 inputs ``map_minimal`` used to
    recurse too deep, at 3000 ``normalize_mig`` already did."""
    b = AigBuilder()
    acc = b.pi()
    for _ in range(n - 1):
        acc = b.and_(acc, b.pi())
    b.output(acc, "y")
    net = b.build()
    tree = normalize_mig(aig_to_mig(net))
    program, report = map_minimal(tree)
    assert report.levels == n - 1
    assert report.devices_used <= report.device_bound
    assert read_program(write_program(program)).instructions == (
        program.instructions)
    result = check_equivalence(net, program, mode="random", n=256)
    assert result.ok and result.mode == "random"


def test_minimal_map_of_a_deep_chain_stays_linear():
    """A 3000-input AND chain has 3000 levels, so 6002 devices, and every
    subtree is distinct.  Each write updates the held-value index and each
    lookup finds a holder in constant time; a scan of the devices per
    lookup would make this chain quadratic."""
    b = AigBuilder()
    acc = b.pi()
    for _ in range(2999):
        acc = b.and_(acc, b.pi())
    b.output(acc, "y")
    tree = normalize_mig(aig_to_mig(b.build()))
    t0 = time.perf_counter()
    map_minimal(tree)
    assert time.perf_counter() - t0 < 0.5


# -- byte identity ---------------------------------------------------------------

# digests of the containers emitted by the bit-by-bit codec
PINNED_AREA_PROGRAMS = [
    ("add8", lambda: ripple_adder(8), {
        (256, 32): "5d36099ce1cea3e909cda70819c86c26"
                   "159050495ffde24caf6dd8ec295a4f47",
        (16, 16): "5fb720b35a91fc81027597c186283f6a"
                  "2ff103339da02ac0d40793a215a8fcf7"}),
    ("mult4", lambda: multiplier(4), {
        (256, 32): "87f083e2b7347a72fbe7d57012571031"
                   "545aaeec71ea5cb52327646a764925d2",
        (16, 16): "c2090fdd5b709fd7fc7b1d0fb6d67b79"
                  "84d97e22f90b08c3f73730d48fc22907"}),
    ("cmp8", lambda: comparator(8), {
        (256, 32): "409cf5b44bdde252fca90812a67d0180"
                   "e35c2342ee75722468ff9f03b50df6db",
        (16, 16): "25dbdee5e0d0adc6b1b0ca0e836d7d9d"
                  "88fff06c4984a8a180d3fb4227115375"}),
    ("rand16", lambda: random_aig(16, 120, seed=5, num_outputs=4), {
        (256, 32): "7ef5e3ea3e624579feee7dc61e498d0d"
                   "97a3a4a5a4f08fae07cd321d4153d721",
        (16, 16): "cb56de0e0ff0a3a34a335d23b4b64377"
                  "22c2eac4804091e74d3c1bd675d65bfb"}),
]

PINNED_MINIMAL_PROGRAMS = [
    ("parity8", lambda: aig_to_mig(parity(8)),
     "7ef8e593c35212ec7f64639d74cffb1bc91938ae503b18981650086a47cbc301"),
    ("randmig", lambda: random_mig(8, 20, seed=4),
     "2342e92ad21d413d7a051b154cc2288d2f2ae0647ad8a7b53e79d33fef9b57d5"),
    ("parity12", lambda: aig_to_mig(parity(12)),
     "790e8009035252feef2e6890c5a8359ac13ebb0a0f8199598dbf18e38397ac04"),
    # 200 MAJ nodes whose tree has 7,243; folded and hashed, 60 and 2,095
    ("randmig200", lambda: random_mig(6, 200, seed=23),
     "5e30d344640029898c97dc44f9c071d1d5a6c9af4112b5ca438a450ada1d9a1c"),
]


def _twin_tree(first_swapped, second_swapped):
    """Fanout-free tree ``MAJ(A, B, y)`` with ``A = MAJ(!N, p, q)`` and ``B``
    alike, so the two copies of ``N = MAJ(C, D, x)``, distinct nodes, are
    computed onto the same device.  ``C`` and ``D`` share a level;
    each copy creates them in the order given, so their ids follow fanin
    order in neither, one or both copies."""
    net = LogicNetwork(kind="mig")
    a, b, c, x, y, p, q = (net.add_pi(name) for name in "abcxypq")

    def half(swapped):
        made = {inv: net.add_node(MAJ, (Edge(a), Edge(b, inv), Edge(c)))
                for inv in ((True, False) if swapped else (False, True))}
        n = net.add_node(MAJ, (Edge(made[False]), Edge(made[True]), Edge(x)))
        return net.add_node(MAJ, (Edge(n, True), Edge(p), Edge(q)))

    first = half(first_swapped)
    second = half(second_swapped)
    net.add_output(Edge(net.add_node(MAJ, (Edge(first), Edge(second),
                                           Edge(y)))), "f")
    return net


# ``pick_roles`` breaks ties between internal fanins of a level by fanin
# position, not by id, so every numbering of the twin tree emits one program
TWIN_PROGRAM = (
    "3f3bd4ef2ef9f26f768ff25839d42d0676cef7be8cd43a573ecfd8b257691f10")


def _digest_and_reread(program):
    data = write_program(program)
    back = read_program(data)
    assert back.instructions == program.instructions
    # equal decoded words are one shared object
    assert len({id(i) for i in back.instructions}) == len(
        set(program.instructions))
    return hashlib.sha256(data).hexdigest()


def test_area_programs_byte_identical():
    for name, build, digests in PINNED_AREA_PROGRAMS:
        for (s_d, w_d), digest in digests.items():
            program, _ = map_area(build(), 4, s_d, w_d)
            assert _digest_and_reread(program) == digest, (name, s_d, w_d)


def test_minimal_programs_byte_identical():
    for name, build, digest in PINNED_MINIMAL_PROGRAMS:
        program, _ = map_minimal(normalize_mig(build()))
        assert _digest_and_reread(program) == digest, name


def test_twin_tree_programs_byte_identical():
    for swaps in itertools.product((False, True), repeat=2):
        net = _twin_tree(*swaps)
        program, report = map_minimal(net)
        assert _digest_and_reread(program) == TWIN_PROGRAM, swaps
        assert (report.i_total, report.devices_used) == (57, 10)
        assert check_equivalence(net, program).ok


# digest of 200 containers: 100 seeded random covers at 3x2 and at 3x4
PINNED_ESOP_PROGRAMS = (
    "96357d33b0c41ed8bebcb3df4fa0924f8cb1ee37ccf22f24b1331dc5cfbf8b5a")


def test_esop_programs_byte_identical():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(100):
        arity = rng.randrange(1, 7)
        cover = extract_esop(rng.getrandbits(1 << arity), arity)
        for w_d in (2, 4):
            program, _ = gen_esop_program(cover, CrossbarConfig(3, w_d))
            digest.update(write_program(program))
    assert digest.hexdigest() == PINNED_ESOP_PROGRAMS


def test_builder_pairs_are_interned():
    cfg = CrossbarConfig(8, 5)
    builder = ProgramBuilder(cfg, 2)
    builder.read(0)
    builder.apply_from_dmr(2, WsMode.ONE, {1: 4, 3: 0})
    builder.apply_from_dmr(6, WsMode.ZERO, {3: 0})
    builder.apply_from_dmr(2, WsMode.ONE, {3: 0, 1: 4})
    first, second, again = builder.instructions[1:]
    assert [(p.valid, p.val) for p in first.pairs] == [
        (False, 0), (True, 4), (False, 0), (True, 0), (False, 0)]
    # an Apply keeps the sorted lines of its intern key, and equal Applies
    # are one object
    assert (first.lines, first.width) == (((1, 4), (3, 0)), 5)
    assert second.lines == ((3, 0),)
    assert again is first
