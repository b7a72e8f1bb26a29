"""The delay-focused flow on the five-input reference majority graph.

Each internal node picks a host (the parent device it overwrites) plus
wordline and bitline operands; operand pairs must share a word, which the
block formation and first-fit packing arrange; then the levels compute in
order, several nodes per instruction when they share a wordline.  The
script prints every intermediate artifact and finishes with the word states
after each compute instruction for one concrete assignment.
"""

from revamp.delaymap import (assign_roles, form_blocks, gen_program_delay,
                             pack_blocks)
from revamp.isa import format_asm
from revamp.netlist import MAJ, Edge, LogicNetwork
from revamp.simulator import run
from revamp.verifier import check_equivalence


def reference_mig():
    net = LogicNetwork(kind="mig")
    a, b, c, d, e = (net.add_pi(x) for x in "abcde")
    s1 = net.add_node(MAJ, (Edge(a), Edge(b), Edge(c, True)), name="s1")
    s2 = net.add_node(MAJ, (Edge(a), Edge(b), Edge(c)), name="s2")
    s3 = net.add_node(MAJ, (Edge(s1), Edge(c), Edge(s2, True)), name="s3")
    s4 = net.add_node(MAJ, (Edge(s3), Edge(d), Edge(e)), name="s4")
    net.add_output(Edge(s4), "s4")
    return net


mig = reference_mig()
names = {i: (n.name or x) for i, (n, x) in
         enumerate(zip(mig.nodes, "abcde????"))}

roles = assign_roles(mig)
print("roles (host is overwritten in place):")
for nid, r in sorted(roles.items()):
    print("  %s: host=%s wordline=%s bitline=%s%s"
          % (names[nid], names[r.host.target], names[r.wl_input.target],
             "!" if r.bl_input.inverted else "", names[r.bl_input.target]))

formation = form_blocks(mig, roles, w_d=3)
print("\nblocks (values that must share a word; ! marks a complemented copy):")
for blk in formation.blocks:
    print("  block %d: %s" % (blk.id, [
        ("!" if el.value.inverted else "") + names[el.value.target]
        + ":" + el.tag
        for el in blk.elements]))

packing = pack_blocks(formation.blocks, 3)
print("\nfirst-fit packing into %d words:" % packing.n_words)
for w in sorted(packing.word_blocks, reverse=True):
    print("  word %d <- blocks %s" % (w, [b.id for b in
                                          packing.word_blocks[w]]))

program, report = gen_program_delay(mig, formation, packing)
print("\nprogram: %d loads + compute, %d instructions total"
      % (report.i_total - 6, report.i_total))
for instr in program.instructions[-6:]:
    print("  " + format_asm(instr))
print("report:", report.to_dict())

assignment = [1, 0, 1, 1, 0]  # a b c d e
state, trace = run(program, assignment, record_trace=True)
print("\nword 2 after each compute instruction (a b c d e = %s):"
      % assignment)
for step in trace.steps[-6:]:
    if step.word == 2 and format_asm(step.instruction).startswith("Apply"):
        print("  %s -> %s" % (format_asm(step.instruction), step.post))
print("output s4 =", state.dcm[2][0])
print("equivalent on all 32 assignments:",
      check_equivalence(mig, program).ok)
