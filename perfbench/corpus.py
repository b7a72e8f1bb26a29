"""The four workloads: seeded input networks and the job each one times.

A job is one circuit x flow x geometry.  Its ``run`` callable does the timed
work and returns ``(program, container_bytes, equivalence_result)``.  Jobs
reach the package only through attributes of the modules in ``lib``, looked
up at call time, so the traced run can wrap those bindings from outside.

Every random network and every random vector seed is drawn from
``random.Random(seed)``: the same ``--seed`` gives the same jobs.  Random
networks are kept smaller than the median job of their workload, so the
seed moves the per-job median and tail very little.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

AREA_K = 4
# a roomy crossbar, and a tight one on which schedule_luts recycles storage
AREA_GEOMETRIES = ((256, 32), (16, 16))
DELAY_W_D = 32
EXHAUSTIVE_MAX_PIS = 16
RANDOM_VECTORS = 4096


@dataclass
class Job:
    name: str
    flow: str
    run: Callable[[], tuple]


def check(lib, network, program, vector_seed: int):
    """Exhaustive up to 16 PIs, seeded random vectors above that."""
    if network.num_pis <= EXHAUSTIVE_MAX_PIS:
        return lib.verifier.check_equivalence(network, program)
    return lib.verifier.check_equivalence(network, program, mode="random",
                                          seed=vector_seed, n=RANDOM_VECTORS)


def _seeds(rng: random.Random):
    while True:
        yield rng.randrange(1 << 30)


# -- networks -------------------------------------------------------------------

def area_circuits(lib, seeds):
    c, n = lib.circuits, lib.netlist
    return [
        ("add8", c.ripple_adder(8)),
        ("add16", c.ripple_adder(16)),
        ("add24", c.ripple_adder(24)),
        ("mult4", c.multiplier(4)),
        ("mult6", c.multiplier(6)),
        ("mult8", c.multiplier(8)),
        ("cmp16", c.comparator(16)),
        ("parity64", c.parity(64)),
        ("rand12", n.random_aig(12, 100, seed=next(seeds), num_outputs=4)),
        ("rand24", n.random_aig(24, 120, seed=next(seeds), num_outputs=6)),
    ]


def delay_circuits(lib, seeds):
    # form_blocks grows cubically with adder width: add24 alone takes ~6 s
    # and mult8 ~18 s, so these are the largest that fit several passes
    c, n = lib.circuits, lib.netlist
    return [
        ("add8", c.ripple_adder(8)),
        ("add12", c.ripple_adder(12)),
        ("add16", c.ripple_adder(16)),
        ("mult3", c.multiplier(3)),
        ("mult4", c.multiplier(4)),
        ("cmp12", c.comparator(12)),
        ("parity32", c.parity(32)),
        ("rand16", n.random_aig(16, 60, seed=next(seeds), num_outputs=4)),
        ("rand20", n.random_aig(20, 80, seed=next(seeds), num_outputs=4)),
    ]


def tree_circuits(lib, seeds):
    # parity16 normalizes to 98,318 nodes and parity32 never finishes; the
    # probe in probe.py keeps that growth visible
    c, n = lib.circuits, lib.netlist
    nets = [("parity%d" % k, n.aig_to_mig(c.parity(k)))
            for k in (8, 9, 10, 11, 12, 14)]
    nets += [("randmig%d" % i, n.random_mig(10, 24, seed=next(seeds)))
             for i in range(3)]
    return nets


# -- workloads ------------------------------------------------------------------

def area_map(lib, seed: int) -> list[Job]:
    seeds = _seeds(random.Random(seed))
    jobs = []
    for name, net in area_circuits(lib, seeds):
        for s_d, w_d in AREA_GEOMETRIES:
            jobs.append(Job("%s@%dx%d" % (name, s_d, w_d), "area",
                            _area_job(lib, net, s_d, w_d, next(seeds))))
    return jobs


def _area_job(lib, net, s_d, w_d, vector_seed):
    def run():
        program, _ = lib.areamap.map_area(net, AREA_K, s_d, w_d)
        data = lib.isa.write_program(program)
        return program, data, check(lib, net, program, vector_seed)
    return run


def delay_map(lib, seed: int) -> list[Job]:
    seeds = _seeds(random.Random(seed))
    return [Job("%s@w%d" % (name, DELAY_W_D), "delay",
                _delay_job(lib, net, next(seeds)))
            for name, net in delay_circuits(lib, seeds)]


def _delay_job(lib, net, vector_seed):
    def run():
        mig = lib.netlist.aig_to_mig(net)
        program, _ = lib.delaymap.map_delay(mig, DELAY_W_D)
        data = lib.isa.write_program(program)
        return program, data, check(lib, net, program, vector_seed)
    return run


def minimal_tree(lib, seed: int) -> list[Job]:
    seeds = _seeds(random.Random(seed))
    return [Job(name, "minimal", _tree_job(lib, mig, next(seeds)))
            for name, mig in tree_circuits(lib, seeds)]


def _tree_job(lib, mig, vector_seed):
    def run():
        tree = lib.netlist.normalize_mig(mig)
        program, _ = lib.areamap.map_minimal(tree)
        data = lib.isa.write_program(program)
        return program, data, check(lib, tree, program, vector_seed)
    return run


def verify_load(lib, seed: int) -> list[Job]:
    """Containers of all three flows, mapped here, during set-up.

    The timed job only decodes a container and checks it, so codec and
    simulator changes show without any mapping cost around them.
    """
    seeds = _seeds(random.Random(seed))
    c, n = lib.circuits, lib.netlist
    sources = []  # (name, network checked against, program)
    area = dict(area_circuits(lib, seeds))
    for name, geometries in (("mult8", AREA_GEOMETRIES),
                             ("mult6", AREA_GEOMETRIES[:1]),
                             ("add16", AREA_GEOMETRIES[:1]),
                             ("cmp16", AREA_GEOMETRIES[1:]),
                             ("parity64", AREA_GEOMETRIES[:1]),
                             ("rand24", AREA_GEOMETRIES[:1])):
        for s_d, w_d in geometries:
            program, _ = lib.areamap.map_area(area[name], AREA_K, s_d, w_d)
            sources.append(("%s@%dx%d" % (name, s_d, w_d), area[name],
                            program))
    for name, net in (("add8", c.ripple_adder(8)),
                      ("mult3", c.multiplier(3)),
                      ("cmp8", c.comparator(8)),
                      ("parity16", c.parity(16)),
                      ("rand20", n.random_aig(20, 80, seed=next(seeds),
                                              num_outputs=4))):
        program, _ = lib.delaymap.map_delay(n.aig_to_mig(net), DELAY_W_D)
        sources.append(("%s@w%d" % (name, DELAY_W_D), net, program))
    for name, mig in (("parity10", n.aig_to_mig(c.parity(10))),
                      ("parity12", n.aig_to_mig(c.parity(12))),
                      ("randmig", n.random_mig(10, 24, seed=next(seeds)))):
        tree = n.normalize_mig(mig)
        program, _ = lib.areamap.map_minimal(tree)
        sources.append((name, tree, program))
    return [Job(name, "read", _read_job(lib, net,
                                        lib.isa.write_program(program),
                                        next(seeds)))
            for name, net, program in sources]


def _read_job(lib, net, data, vector_seed):
    def run():
        program = lib.isa.read_program(data)
        return program, data, check(lib, net, program, vector_seed)
    return run


WORKLOADS = {
    "area_map": area_map,
    "delay_map": delay_map,
    "verify_load": verify_load,
    "minimal_tree": minimal_tree,
}
