"""Sweeps over the built-in corpus: cycle count versus LUT size and versus
word width at a fixed device budget.

Every row is produced only after the generated program proves equivalent to
its source network, so the numbers describe verified mappings.  The same
data is available from the command line via ``revamp bench``.
"""

from revamp.areamap import InfeasibleMapping, map_area
from revamp.circuits import default_corpus, multiplier, ripple_adder
from revamp.delaymap import map_delay
from revamp.netlist import aig_to_mig
from revamp.verifier import check_equivalence

corpus = dict(default_corpus())

print("area flow on a 16x16 crossbar: cycle count by LUT size")
print("%-12s %8s %8s %8s" % ("benchmark", "k=2", "k=4", "k=6"))
for name in ("adder3", "mult3", "cmp4", "parity8"):
    net = corpus[name]
    row = [name]
    for k in (2, 4, 6):
        try:
            program, report = map_area(net, k, 16, 16)
        except InfeasibleMapping:
            row.append("infeas")
            continue
        assert check_equivalence(net, program).ok
        row.append(str(report.cycles))
    print("%-12s %8s %8s %8s" % tuple(row))

print()
print("delay flow: cycle count and utilization by word width")
print("%-12s %6s %10s %10s %10s" % ("benchmark", "w_d", "cycles",
                                    "words", "w_util%"))
for name in ("adder4", "mult3", "rand10"):
    mig = aig_to_mig(corpus[name])
    for w_d in (4, 8, 16, 32):
        program, report = map_delay(mig, w_d)
        assert check_equivalence(mig, program).ok
        print("%-12s %6d %10d %10d %10.1f"
              % (name, w_d, report.cycles, report.s_d, report.w_util))

print()
print("serial-baseline comparison at width 16 (9 cycles per majority node)")
# with constants folded, the corpus's multiplier slices stay below 50
# nodes, so wider circuits join them
wide = [("mult4", multiplier(4)), ("add8", ripple_adder(8)),
        ("mult5", multiplier(5))]
total = 0.0
count = 0
for name, net in list(corpus.items()) + wide:
    mig = aig_to_mig(net)
    n_maj = sum(1 for n in mig.nodes if n.kind == "maj")
    if n_maj < 50:
        continue
    program, report = map_delay(mig, 16)
    assert check_equivalence(mig, program).ok
    print("  %-12s %5d nodes: %6d cycles vs %6d serial -> %.2fx"
          % (name, n_maj, report.cycles, report.d_p_star, report.speedup))
    total += report.speedup
    count += 1
print("  mean speedup: %.2fx" % (total / count))
