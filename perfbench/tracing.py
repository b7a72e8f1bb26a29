"""Spans and counters recorded from outside the package, for the traced run.

The tracer replaces module attributes that the flows look up at call time
(``revamp.areamap.extract_esop``, ``revamp.verifier.run_vectors``, ...) with
wrappers that record a span ``(name, start, end, parent, job)`` and, where a
result carries a count, add it to a counter.  Nothing under ``src/`` knows
about it; ``uninstall`` puts the original bindings back.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _luts(c, args, graph):
    c["lutmap.cover_klut.luts"] += len(graph.luts)


def _esop(c, args, cover):
    c["esop.extract_esop.calls"] += 1
    c["esop.cubes"] += len(cover.cubes)
    c["esop.literals"] += sum(cube.num_literals() for cube in cover.cubes)


def _recycles(c, args, schedule):
    c["areamap.schedule_luts.recycles"] += sum(
        1 for event in schedule.events if event[0] == "reset")


def _blocks(c, args, formation):
    c["delaymap.form_blocks.blocks"] += len(formation.blocks)


def _packing(c, args, packing):
    c["pack.occupied"] += sum(packing.occupancy.values())
    c["pack.capacity"] += packing.n_words * packing.w_d


def _normalized(c, args, tree):
    c["netlist.normalize_mig.nodes_out"] += len(tree.nodes)


def _decoded(c, args, program):
    c["read.instructions"] += len(program.instructions)


def _simulated(c, args, result):
    program, _, width = args[:3]
    c["sim.vector_instructions"] += len(program.instructions) * width


def _checked(c, args, result):
    c["verifier.check_equivalence.vectors"] += result.vectors
    c["verifier.check_equivalence.mismatches"] += 0 if result.ok else 1


# (module holding the binding, attribute, span name, counter)
TRACE_POINTS = (
    ("netlist", "aig_to_mig", "netlist.aig_to_mig", None),
    ("netlist", "normalize_mig", "netlist.normalize_mig", _normalized),
    ("areamap", "map_area", "areamap.map_area", None),
    ("areamap", "cover_klut", "lutmap.cover_klut", _luts),
    ("areamap", "map_lut_graph", "areamap.map_lut_graph", None),
    ("areamap", "schedule_luts", "areamap.schedule_luts", _recycles),
    ("areamap", "min_dev", "lutmap.min_dev", None),
    ("areamap", "extract_esop", "esop.extract_esop", _esop),
    ("areamap", "map_minimal", "areamap.map_minimal", None),
    ("delaymap", "map_delay", "delaymap.map_delay", None),
    ("delaymap", "assign_roles", "delaymap.assign_roles", None),
    ("delaymap", "form_blocks", "delaymap.form_blocks", _blocks),
    ("delaymap", "pack_blocks", "delaymap.pack_blocks", _packing),
    ("delaymap", "gen_program_delay", "delaymap.gen_program_delay", None),
    ("isa", "write_program", "isa.write_program", None),
    ("isa", "read_program", "isa.read_program", _decoded),
    ("verifier", "check_equivalence", "verifier.check_equivalence", _checked),
    ("verifier", "run_vectors", "simulator.run_vectors", _simulated),
    ("verifier", "evaluate_masks", "netlist.evaluate_masks", None),
)


class Tracer:
    """Span and counter store for one traced pass over a workload's jobs."""

    def __init__(self):
        self.spans: list = []
        self.counters = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._saved: list = []

    def install(self, lib):
        for module_name, attr, name, count in TRACE_POINTS:
            module = getattr(lib, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counters, args, result)
            return result
        return traced

    def layer_times(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children; calls are serial, so children never overlap.
        """
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            inclusive[name] += end - start
            self_time[name] += end - start
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
        return inclusive, self_time
