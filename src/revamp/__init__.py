"""Technology mapping and cycle-level simulation for a word-parallel ReRAM
crossbar in-memory computing machine.

Subpackages:

* ``netlist``   -- AIG/MIG networks, parsers, functional oracles
* ``isa``       -- the Read/Apply instruction set, binary codec and
                   assembly printer
* ``simulator`` -- bit-exact machine model with pipeline timing
* ``lutmap``    -- k-input LUT covering and device-demand sizing
* ``esop``      -- exclusive sum-of-products extraction and PLA-style output
* ``codegen``   -- the program builder and instruction/cycle counts
* ``areamap``   -- area-constrained flow and the depth-bounded mapper
* ``delaymap``  -- delay-focused flow (roles, blocks, packing, codegen)
* ``verifier``  -- equivalence checking and exact bin packing
"""

from .netlist import (LogicNetwork, Edge, Node, parse_aiger, parse_mig,
                      serialize_mig, aig_to_mig, normalize_mig, rebuild,
                      evaluate, truth_table, levels)
from .isa import (CrossbarConfig, Program, ReadInstr, ApplyInstr,
                  WordlineSelect, BitlinePair, WsMode, instruction_lengths,
                  encode, decode, format_asm, write_program, read_program)
from .simulator import MachineState, Trace, device_step, run, run_vectors
from .lutmap import LutGraph, Lut, cover_klut, min_dev, feasible
from .esop import EsopCover, Cube, extract_esop
from .areamap import (map_area, map_minimal, schedule_luts, InfeasibleMapping,
                      gen_esop_program)
from .delaymap import map_delay, assign_roles, form_blocks, pack_blocks
from .verifier import check_equivalence, optimal_packing

__version__ = "0.1.0"
