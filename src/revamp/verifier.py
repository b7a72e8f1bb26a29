"""Independent oracles: program-vs-network equivalence and exact bin
packing.

Equivalence checking runs the machine model bit-parallel over all (or many)
input vectors at once and compares the declared result devices against the
network's truth table.  The random mode draws vectors from Python's seeded
Mersenne Twister (``random.Random(seed).getrandbits``), so a failing seed
reproduces the same counterexample anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .isa import Program
from .netlist import (EXHAUSTIVE_MAX_PIS, LogicNetwork, evaluate_masks,
                      pi_patterns)
from .simulator import run_vectors


@dataclass
class EquivalenceResult:
    ok: bool
    mode: str
    vectors: int
    counterexample: dict | None = None

    def __bool__(self):
        return self.ok


def check_equivalence(network: LogicNetwork, program: Program,
                      mode: str = "exhaustive", seed: int = 0,
                      n: int = 10000) -> EquivalenceResult:
    """Compare a program's result devices against the network oracle.

    Exhaustive mode is definitive for up to ``EXHAUSTIVE_MAX_PIS`` inputs;
    random mode checks ``n`` seeded vectors.  The first mismatch (lowest
    vector index, then output order) is reported as a counterexample.
    """
    k = network.num_pis
    if program.num_pis != k:
        raise ValueError("program expects %d inputs, network has %d"
                         % (program.num_pis, k))
    missing = [name for name in network.output_names
               if name not in program.result_locations]
    if missing:
        raise ValueError("program declares no result location for %s"
                         % ", ".join(missing))

    if mode == "exhaustive":
        if k > EXHAUSTIVE_MAX_PIS:
            raise ValueError("exhaustive mode is limited to %d PIs; "
                             "use random mode" % EXHAUSTIVE_MAX_PIS)
        width = 1 << k
        masks = pi_patterns(k)
    elif mode == "random":
        width = n
        rng = random.Random(seed)
        masks = [rng.getrandbits(width) for _ in range(k)]
    else:
        raise ValueError("mode must be 'exhaustive' or 'random'")

    full = (1 << width) - 1
    expected = evaluate_masks(network, masks, full)
    state, _ = run_vectors(program, masks, width)

    worst = None
    for pos, name in enumerate(network.output_names):
        w, b = program.result_locations[name]
        diff = (state.dcm[w][b] ^ expected[pos]) & full
        if diff:
            idx = (diff & -diff).bit_length() - 1
            if worst is None or (idx, pos) < worst[:2]:
                worst = (idx, pos, name)
    if worst is None:
        return EquivalenceResult(True, mode, width)
    idx, pos, name = worst
    assignment = [(masks[i] >> idx) & 1 for i in range(k)]
    w, b = program.result_locations[name]
    return EquivalenceResult(False, mode, width, {
        "assignment": assignment,
        "output": name,
        "expected": (expected[pos] >> idx) & 1,
        "got": (state.dcm[w][b] >> idx) & 1,
    })


# -- exact bin packing ----------------------------------------------------------

def optimal_packing(sizes, capacity: int) -> int:
    """Minimum word count for the given block sizes, by branch and bound.

    Exponential in the number of blocks; intended for small instances (the
    packing-quality checks use at most a dozen blocks).
    """
    sizes = sorted((s for s in sizes if s > 0), reverse=True)
    if not sizes:
        return 0
    if any(s > capacity for s in sizes):
        raise ValueError("a block exceeds the word capacity")

    # first-fit upper bound
    bins: list[int] = []
    for s in sizes:
        for i in range(len(bins)):
            if bins[i] + s <= capacity:
                bins[i] += s
                break
        else:
            bins.append(s)
    best = len(bins)
    remaining = [0] * (len(sizes) + 1)
    for i in range(len(sizes) - 1, -1, -1):
        remaining[i] = remaining[i + 1] + sizes[i]

    def descend(i, loads):
        nonlocal best
        if i == len(sizes):
            best = min(best, len(loads))
            return
        slack = sum(capacity - l for l in loads)
        extra = max(0, -(-(remaining[i] - slack) // capacity))
        if max(len(loads), len(loads) + extra) >= best:
            return
        s = sizes[i]
        seen = set()
        for j in range(len(loads)):
            if loads[j] + s <= capacity and loads[j] not in seen:
                seen.add(loads[j])
                loads[j] += s
                descend(i + 1, loads)
                loads[j] -= s
        if len(loads) + 1 < best:
            loads.append(s)
            descend(i + 1, loads)
            loads.pop()

    descend(0, [])
    return best
