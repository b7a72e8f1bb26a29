"""The area-constrained flow, start to finish, on a full adder.

The flow covers the AIG with k-input LUTs, checks the device demand against
the crossbar's storage capacity (three rows always stay reserved as the
working area), schedules each LUT onto a storage device and expands its
function to an exclusive sum of products.  The LUTs of one level are then
computed side by side on working row e2, one cube per bitline; each LUT's
cubes are folded by an XOR tree whose rounds alternate between working
rows e2 and e0, and the last round stores each value in its device.
The result is an ordinary machine program, so the last step just runs it
against the network's truth table.
"""

from revamp.areamap import InfeasibleMapping, map_area
from revamp.circuits import full_adder
from revamp.esop import extract_esop, format_pla
from revamp.lutmap import cover_klut, lut_truth_table, min_dev, storage_capacity
from revamp.verifier import check_equivalence

net = full_adder()
print("full adder: %d inputs, outputs %s" % (net.num_pis, net.output_names))

graph = cover_klut(net, k=4)
print("\n4-input cover: %d LUTs" % len(graph.luts))
for lut in graph.luts:
    print("  L%d level %d inputs %s tt %s"
          % (lut.id, lut.level, list(lut.inputs),
             "".join(str(b) for b in lut_truth_table(lut))))
print("device demand (worst adjacent level populations):", min_dev(graph))

print("\nESOP of the carry LUT:")
carry = graph.luts[graph.outputs[1]]
print(format_pla(extract_esop(carry.tt, len(carry.inputs))))

for s_d, w_d in ((4, 2), (8, 8)):
    capacity = storage_capacity(s_d, w_d)
    try:
        program, report = map_area(net, 4, s_d, w_d)
    except InfeasibleMapping as exc:
        print("crossbar %dx%d: infeasible (%s)" % (s_d, w_d, exc))
        continue
    result = check_equivalence(net, program)
    print("crossbar %dx%d: capacity %d, %d instructions, %d cycles, "
          "equivalent=%s"
          % (s_d, w_d, capacity, report.i_total, report.cycles, result.ok))
    print("  results live at", program.result_locations)
