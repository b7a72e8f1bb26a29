"""Known-defect probe, run once and untimed beside the traced passes.

The timed corpus avoids inputs that make the package crash or blow up.  The
probe feeds those inputs on purpose and counts, per input, the outcomes that
are not a verified result or a typed error of the package, so the defects
stay visible until they are fixed.
"""

from __future__ import annotations

import random
import struct

MUTATIONS = 1000
# byte offset of w_I and of the instruction count in a container header
W_I_OFFSET, COUNT_OFFSET = 16, 24


def _untyped(call, typed) -> int:
    """1 if ``call`` raises anything but one of the ``typed`` errors."""
    try:
        call()
    except typed:
        return 0
    except Exception:
        return 1
    return 0


def _and_chain(lib, n: int):
    b = lib.circuits.AigBuilder()
    acc = b.pi()
    for _ in range(n - 1):
        acc = b.and_(acc, b.pi())
    b.output(acc, "y")
    return b.build()


def _mutated_containers(lib, seed: int) -> tuple[int, int]:
    """Read seeded byte mutations of a small container.

    Returns (untyped errors, unbounded headers).  A mutated header whose w_I
    is wider than the whole container, or whose instruction count exceeds
    its length, is counted and not read: read_program does not check them
    and would build integers of w_I bits (about 1 GB at the largest) or loop
    over the declared count.
    """
    net = lib.netlist.aig_to_mig(lib.circuits.comparator(4))
    data = lib.isa.write_program(lib.delaymap.map_delay(net, 8)[0])
    rng = random.Random(seed)
    untyped = unbounded = 0
    for _ in range(MUTATIONS):
        mutant = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        (w_i,) = struct.unpack_from("<I", mutant, W_I_OFFSET)
        (count,) = struct.unpack_from("<I", mutant, COUNT_OFFSET)
        if w_i > 8 * len(mutant) or count > len(mutant):
            unbounded += 1
            continue
        untyped += _untyped(lambda: lib.isa.read_program(bytes(mutant)),
                            lib.isa.IsaError)
    return untyped, unbounded


def run_probe(lib, seed: int) -> dict[str, int]:
    typed = (lib.netlist.NetlistError,)
    parity = _untyped(lambda: lib.lutmap.cover_klut(lib.circuits.parity(2000),
                                                    4), typed)
    chain = _untyped(lambda: lib.lutmap.cover_klut(_and_chain(lib, 3000), 4),
                     typed)
    mutated, unbounded = _mutated_containers(lib, seed)
    tree = lib.netlist.normalize_mig(
        lib.netlist.aig_to_mig(lib.circuits.parity(16)))
    return {
        "probe.untyped_errors": parity + chain + mutated,
        "probe.parity2000.untyped_errors": parity,
        "probe.and_chain3000.untyped_errors": chain,
        "probe.mutated_rvmp.untyped_errors": mutated,
        "probe.mutated_rvmp.unbounded_header": unbounded,
        "probe.normalize_parity16.nodes_out": len(tree.nodes),
    }
