import dataclasses
import random

import pytest

from conftest import two_bit_xor_program
from revamp.circuits import two_bit_xor
from revamp.isa import (SLOT_CONST0, SRC_PIR, ApplyInstr, CrossbarConfig,
                        Program, WordlineSelect, WsMode)
from revamp.netlist import Edge, LogicNetwork
from revamp.verifier import check_equivalence, optimal_packing


def _wire_network_and_program():
    net = LogicNetwork(kind="mig")
    p = net.add_pi("a")
    net.add_output(Edge(p, True), "f")
    cfg = CrossbarConfig(2, 2)
    prog = Program(cfg, [
        ApplyInstr(0, SRC_PIR, WordlineSelect(WsMode.ONE, 0), ((0, 0),), 2),
    ], {0: (0, SLOT_CONST0)}, {"f": (0, 0)}, num_pis=1)
    return net, prog


def test_identity_wire_program():
    net, prog = _wire_network_and_program()
    result = check_equivalence(net, prog)
    assert result.ok and result.vectors == 2


def test_two_bit_xor_program_vs_network():
    res = check_equivalence(two_bit_xor(), two_bit_xor_program())
    assert res.ok and res.vectors == 16


def test_flipped_polarity_is_caught():
    prog = two_bit_xor_program()
    instr = prog.instructions[4]
    # turn the AND step's wordline from 0 to 1, breaking the combination
    prog.instructions[4] = dataclasses.replace(
        instr, ws=WordlineSelect(WsMode.ONE, 0))
    res = check_equivalence(two_bit_xor(), prog)
    assert not res.ok
    assert res.counterexample["output"] in ("x0", "x1")
    got = res.counterexample
    # replay the counterexample on the scalar model
    from revamp.simulator import run
    state, _ = run(prog, got["assignment"])
    w, b = prog.result_locations[got["output"]]
    assert state.dcm[w][b] == got["got"] != got["expected"]


def test_random_mode_is_reproducible():
    net, prog = _wire_network_and_program()
    a = check_equivalence(net, prog, mode="random", seed=5, n=64)
    b = check_equivalence(net, prog, mode="random", seed=5, n=64)
    assert a.ok and b.ok and a.vectors == b.vectors == 64


def test_random_mode_counterexample_reproducible():
    prog = two_bit_xor_program()
    instr = prog.instructions[4]
    prog.instructions[4] = dataclasses.replace(
        instr, ws=WordlineSelect(WsMode.ONE, 0))
    runs = [check_equivalence(two_bit_xor(), prog, mode="random",
                              seed=123, n=50) for _ in range(2)]
    assert not runs[0].ok
    assert runs[0].counterexample == runs[1].counterexample


def test_exhaustive_refuses_wide_inputs():
    net = LogicNetwork(kind="mig")
    for i in range(17):
        net.add_pi()
    net.add_output(Edge(0), "f")
    cfg = CrossbarConfig(2, 2)
    prog = Program(cfg, [], {}, {"f": (0, 0)}, num_pis=17)
    with pytest.raises(ValueError, match="random"):
        check_equivalence(net, prog)


def test_missing_result_location():
    net, prog = _wire_network_and_program()
    del prog.result_locations["f"]
    with pytest.raises(ValueError, match="result location"):
        check_equivalence(net, prog)


# -- exact packing -----------------------------------------------------------------

def _first_fit_decreasing(sizes, capacity):
    """Words first-fit-decreasing opens, the bound the search starts from."""
    loads = []
    for s in sorted(sizes, reverse=True):
        for i, load in enumerate(loads):
            if load + s <= capacity:
                loads[i] += s
                break
        else:
            loads.append(s)
    return len(loads)


def test_optimal_packing_reference():
    assert optimal_packing([3, 2, 3], 3) == 3
    assert optimal_packing([1, 1], 2) == 1
    assert optimal_packing([], 4) == 0
    assert optimal_packing([2, 2, 2], 4) == 2
    # first-fit-decreasing opens three words (5+4, 4+3+2, 2); only the
    # search finds 5+3+2 and 4+4+2
    assert _first_fit_decreasing([5, 4, 4, 3, 2, 2], 10) == 3
    assert optimal_packing([5, 4, 4, 3, 2, 2], 10) == 2


def test_optimal_packing_rejects_oversize():
    with pytest.raises(ValueError):
        optimal_packing([5], 4)


def _enumerate_optimum(sizes, capacity):
    """Second, independent enumeration: assign items to bins recursively."""
    best = [len(sizes)]

    def go(i, bins):
        if len(bins) >= best[0]:
            return
        if i == len(sizes):
            best[0] = len(bins)
            return
        for j in range(len(bins)):
            if bins[j] + sizes[i] <= capacity:
                bins[j] += sizes[i]
                go(i + 1, bins)
                bins[j] -= sizes[i]
        bins.append(sizes[i])
        go(i + 1, bins)
        bins.pop()

    go(0, [])
    return best[0]


def test_optimal_packing_against_enumeration():
    rng = random.Random(77)
    for _ in range(60):
        cap = rng.randrange(2, 8)
        sizes = [rng.randrange(1, cap + 1)
                 for _ in range(rng.randrange(0, 9))]
        assert optimal_packing(sizes, cap) == _enumerate_optimum(sizes, cap)


def test_optimal_packing_search_against_enumeration():
    """Seeded instances of blocks between a fifth and a half of a word,
    where first-fit-decreasing often opens a word too many; there the
    optimum can only come from the search."""
    rng = random.Random(2018)
    beaten = 0
    for _ in range(3000):
        cap = rng.randrange(10, 31)
        sizes = [rng.randrange(cap // 5 + 1, cap // 2 + 1)
                 for _ in range(rng.randrange(6, 12))]
        want = _enumerate_optimum(sizes, cap)
        assert optimal_packing(sizes, cap) == want, (sizes, cap)
        beaten += _first_fit_decreasing(sizes, cap) > want
    assert beaten == 316
