"""Logic networks, the two text formats, and the brute-force oracles.

Everything downstream (covering, both mapping flows, verification) rests on
one invariant: any network can be evaluated exhaustively, bit-parallel over
Python integers, so functional equivalence is always decidable at the sizes
this package targets.
"""

from revamp.netlist import (aig_to_mig, evaluate, normalize_mig, parse_aiger,
                            parse_mig, serialize_mig, truth_table)

AIGER = """\
aag 5 3 0 2 2
2
4
6
8
10
8 2 4
10 9 6
i0 a
i1 b
i2 c
o0 and_ab
o1 f
"""

net = parse_aiger(AIGER)
print("parsed AIGER: %d inputs, %d outputs %s"
      % (net.num_pis, len(net.outputs), net.output_names))
print("truth tables (input index is the bit position of the assignment):")
for name, bits in zip(net.output_names, truth_table(net)):
    print("  %-7s %s" % (name, "".join(str(b) for b in bits)))
print("evaluate at a=1 b=1 c=0:", dict(zip(net.output_names,
                                           evaluate(net, [1, 1, 0]))))

mig = aig_to_mig(net)
print("\nas a majority graph (AND(a,b) becomes MAJ(a,b,0)):")
print(serialize_mig(mig))
assert truth_table(mig) == truth_table(net)

norm = normalize_mig(mig)
print("normalized (canonical polarity, each node built once per polarity):")
print(serialize_mig(norm))
assert truth_table(norm) == truth_table(net)

text = """\
# three-input majority with one complemented fanin
pi 0 x
pi 1 y
pi 2 z
node 3 = MAJ(0,1,!2)
po 3 vote
"""
voter = parse_mig(text)
print("majority-graph text format round-trips:")
print(serialize_mig(parse_mig(serialize_mig(voter))), end="")
print("vote table:", truth_table(voter)[0])
