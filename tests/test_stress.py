"""Condensed randomized stress campaign across all flows.

Seeds are fixed; the full-size campaign (thousands of mappings) runs the
same generators with wider ranges.
"""

import random

from conftest import sharing_pairs_that_overflow
from revamp.areamap import map_area, map_minimal
from revamp.circuits import multiplier, parity, ripple_adder
from revamp.delaymap import assign_roles, form_blocks, map_delay
from revamp.isa import (CrossbarConfig, DecodeError, ReadInstr, decode,
                        encode)
from revamp.lutmap import cover_klut, min_dev
from revamp.netlist import (aig_to_mig, normalize_mig, random_aig,
                            random_mig, truth_table_ints)
from revamp.verifier import check_equivalence


def test_delay_flow_stress():
    for seed in range(40):
        mig = random_mig(num_pis=2 + seed % 8, num_nodes=1 + (seed * 3) % 20,
                         seed=seed, num_outputs=1 + seed % 4)
        for w_d in (2, 3, 16):
            program, report = map_delay(mig, w_d)
            res = check_equivalence(mig, program)
            assert res.ok, (seed, w_d, res.counterexample)


def test_delay_flow_stress_converted():
    for seed in range(15):
        net = random_aig(num_pis=4 + seed % 6, num_ands=5 + seed % 25,
                         seed=seed + 999, num_outputs=1 + seed % 3)
        mig = aig_to_mig(net)
        program, report = map_delay(mig, 2)
        assert check_equivalence(mig, program).ok


def test_delay_flow_at_depth():
    """A 128-bit adder (depth ~256) and a 12-bit multiplier map, verify on
    seeded random vectors and leave no input merge that fits."""
    for net in (ripple_adder(128), multiplier(12)):
        mig = aig_to_mig(net)
        roles = assign_roles(mig)
        for w_d in (8, 32):
            program, report = map_delay(mig, w_d)
            res = check_equivalence(mig, program, mode="random", seed=w_d,
                                    n=4096)
            assert res.ok, (net.num_pis, w_d, res.counterexample)
            formation = form_blocks(mig, roles, w_d)
            assert report.n_blocks == len(formation.blocks)
            sharing_pairs_that_overflow(formation, w_d)


def test_counts_equal_a_scan_of_the_program():
    """Reads counted as they are emitted match the program in every
    flow."""
    tree = normalize_mig(aig_to_mig(parity(10)))
    for program, report in (map_area(multiplier(4), 4, 64, 16),
                            map_delay(aig_to_mig(ripple_adder(16)), 8),
                            map_minimal(tree)):
        reads = sum(isinstance(i, ReadInstr) for i in program.instructions)
        assert (report.i_read, report.i_apply, report.i_total) == (
            reads, len(program.instructions) - reads,
            len(program.instructions))


def test_area_flow_tightest_layout_stress():
    """Capacity exactly equal to the demand must always schedule and verify."""
    for seed in range(25):
        net = random_aig(num_pis=4 + seed % 5, num_ands=8 + seed % 20,
                         seed=seed + 5000, num_outputs=1 + seed % 3)
        for k in (2, 4):
            need = min_dev(cover_klut(net, k))
            for w_d in (2, 4):
                rows = 3 + (need + w_d - 1) // w_d
                program, report = map_area(net, k, rows, w_d)
                res = check_equivalence(net, program)
                assert res.ok, (seed, k, w_d, res.counterexample)


def test_normalize_and_minimal_stress():
    for seed in range(30):
        mig = random_mig(num_pis=2 + seed % 5, num_nodes=1 + seed % 8,
                         seed=seed + 31)
        norm = normalize_mig(mig)
        assert truth_table_ints(norm) == truth_table_ints(mig)
        program, report = map_minimal(norm)
        assert report.devices_used <= report.device_bound
        assert check_equivalence(norm, program).ok


def test_decode_fuzz_reencodes_identically():
    rng = random.Random(0)
    for cfg in (CrossbarConfig(2, 2), CrossbarConfig(8, 4),
                CrossbarConfig(3, 3)):
        accepted = 0
        for _ in range(4000):
            word = rng.getrandbits(cfg.w_i)
            try:
                instr = decode(word, cfg)
            except DecodeError:
                continue
            accepted += 1
            assert encode(instr, cfg) == word
        assert accepted > 0
