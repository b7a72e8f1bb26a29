"""Mapping statistics shared by the flows and the bench harness."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass


@dataclass
class MappingReport:
    flow: str
    # network / cover shape
    num_pis: int = 0
    n_maj: int | None = None
    # delay flow: the MAJ nodes of the MIG mapped, rewritten or not
    n_maj_mapped: int | None = None
    n_lut: int | None = None
    levels: int | None = None
    min_dev: int | None = None
    # crossbar geometry of the emitted program
    s_d: int = 0
    w_d: int = 0
    # instruction statistics
    i_apply: int = 0
    i_read: int = 0
    i_total: int = 0
    cycles: int = 0
    # area flow: the staging bank's loads, reads, Applies and resets
    i_staging: int | None = None
    # delay-flow packing statistics
    n_blocks: int | None = None
    w_util: float | None = None
    # serial-baseline comparison (9 memory cycles per majority node)
    d_p_star: int | None = None
    speedup: float | None = None
    # devices some Apply drives (every flow); the depth-bounded bound
    devices_used: int | None = None
    device_bound: int | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


BENCH_COLUMNS = [
    "benchmark", "flow", "k", "s_d", "w_d", "n_lut", "levels", "min_dev",
    "n_maj", "i_apply", "i_read", "i_total", "n_blocks", "w_util",
    "cycles", "d_p_star", "speedup", "verified", "status", "seconds",
]

