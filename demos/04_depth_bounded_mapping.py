"""Depth-bounded mapping: a k-level majority tree on 2(k+1) devices.

The mapper takes the MIG ``rebuild`` cleans the tree to and evaluates it
as its tree on a two-bitline crossbar: one operand row per level, the
device at (0,0) doubling as the input inverter, and the output
accumulating at (0,1).  It pushes complements itself with the majority
self-duality, not M(a,b,c) = M(not a, not b, not c): a node needed
complemented is computed from its complemented fanins.  It knows what each
device holds and keeps every value until the device must change, so a
value the crossbar still holds is copied rather than computed again.
"""

import random

from revamp.areamap import map_minimal
from revamp.netlist import MAJ, Edge, LogicNetwork, rebuild
from revamp.verifier import check_equivalence


def random_tree(depth, num_pis, seed):
    rng = random.Random(seed)
    net = LogicNetwork(kind="mig")
    pis = [net.add_pi("x%d" % i) for i in range(num_pis)]

    def build(d):
        if d == 0:
            return Edge(rng.choice(pis), rng.random() < 0.5)
        kids = tuple(build(d - 1) for _ in range(3))
        return Edge(net.add_node(MAJ, kids), rng.random() < 0.3)

    net.add_output(build(depth), "f")
    return net


print("depth  devices  bound  instructions  cycles  equivalent")
for depth in range(1, 7):
    tree = random_tree(depth, num_pis=4, seed=depth)
    program, report = map_minimal(rebuild(tree))
    ok = check_equivalence(tree, program).ok
    print("%5d  %7d  %5d  %12d  %6d  %s"
          % (depth, report.devices_used, report.device_bound,
             report.i_total, report.cycles, ok))

print()
print("the crossbar for a depth-k tree has k+1 rows and two bitlines;")
print("every mapping above stays within the 2(k+1) device bound.")
