"""Exclusive sum-of-products covers.

A cube is an AND of literals (at most one per variable, stored as a pair of
positive/negative variable masks); a cover is the XOR of its cubes, with the
empty cube standing for constant 1 and the empty cover for constant 0.

Extraction is a recursive pseudo-Kronecker expansion: at every variable the
cheapest of the Shannon, positive-Davio and negative-Davio decompositions is
taken (ties go to positive Davio), with costs memoized per subfunction.
This is not a minimum-ESOP search, but covers are certified correct by
construction and verified against the source truth table in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import pi_patterns


class EsopError(ValueError):
    pass


@dataclass(frozen=True)
class Literal:
    var: int
    inverted: bool


@dataclass(frozen=True)
class Cube:
    """Product of literals; ``pos``/``neg`` are variable bit masks."""

    pos: int = 0
    neg: int = 0

    def __post_init__(self):
        if self.pos & self.neg:
            raise EsopError("variable appears in both polarities")

    def literals(self) -> list[Literal]:
        out = []
        v = 0
        m = self.pos | self.neg
        while m >> v:
            if (self.pos >> v) & 1:
                out.append(Literal(v, False))
            elif (self.neg >> v) & 1:
                out.append(Literal(v, True))
            v += 1
        return out

    def num_literals(self) -> int:
        return (self.pos | self.neg).bit_count()

    def evaluate(self, assignment_mask: int) -> int:
        return int((assignment_mask & self.pos) == self.pos
                   and (assignment_mask & self.neg) == 0)

    @staticmethod
    def from_literals(lits) -> "Cube":
        pos = neg = 0
        for l in lits:
            bit = 1 << l.var
            if (pos | neg) & bit:
                raise EsopError("variable %d appears twice" % l.var)
            if l.inverted:
                neg |= bit
            else:
                pos |= bit
        return Cube(pos, neg)


@dataclass
class EsopCover:
    cubes: list[Cube]
    arity: int


def eval_esop(cover: EsopCover, assignment) -> int:
    """XOR of per-cube ANDs for one assignment (sequence of bits or mask)."""
    if isinstance(assignment, int):
        mask = assignment
    else:
        mask = 0
        for i, bit in enumerate(assignment):
            mask |= (bit & 1) << i
    acc = 0
    for c in cover.cubes:
        acc ^= c.evaluate(mask)
    return acc


def cover_truth_table(cover: EsopCover) -> int:
    """Packed truth table of a cover (bit k = value under assignment k).

    Each cube is the AND of its literals' input patterns.  A literal on a
    variable at or beyond ``arity`` is 0 under every assignment, so a
    positive one zeroes the cube and a negative one drops out.
    """
    pats = pi_patterns(cover.arity)
    full = (1 << (1 << cover.arity)) - 1
    tt = 0
    for c in cover.cubes:
        if c.pos >> cover.arity:
            continue
        term = full
        for v, pat in enumerate(pats):
            if (c.pos >> v) & 1:
                term &= pat
            elif (c.neg >> v) & 1:
                term &= ~pat
        tt ^= term
    return tt


def _as_packed(tt, arity=None) -> tuple[int, int]:
    if isinstance(tt, int):
        if arity is None:
            raise EsopError("packed truth table needs an explicit arity")
        return tt, arity
    bits = list(tt)
    n = len(bits)
    if n == 0 or n & (n - 1):
        raise EsopError("truth table length must be a power of two")
    arity = n.bit_length() - 1
    packed = 0
    for k, b in enumerate(bits):
        packed |= (b & 1) << k
    return packed, arity


def verify_esop(cover: EsopCover, tt, arity=None) -> bool:
    packed, a = _as_packed(tt, arity)
    if a != cover.arity:
        return False
    return cover_truth_table(cover) == packed


def extract_esop(tt, arity: int | None = None) -> EsopCover:
    """Build an ESOP cover for a truth table (bit list or packed int).

    Supports up to 16 variables.  The memo table lives for one call only.
    """
    packed, n = _as_packed(tt, arity)
    if n > 16:
        raise EsopError("extraction bound is 16 variables, got %d" % n)
    cost_memo: dict[tuple[int, int], int] = {}
    build_memo: dict[tuple[int, int], list[Cube]] = {}

    def cofactors(f: int, k: int) -> tuple[int, int]:
        # split on variable k-1, the top variable of a k-variable function
        half = 1 << (k - 1)
        mask = (1 << half) - 1
        return f & mask, (f >> half) & mask

    def cost(f: int, k: int) -> int:
        if k == 0:
            return 1 if f else 0
        key = (f, k)
        got = cost_memo.get(key)
        if got is not None:
            return got
        f0, f1 = cofactors(f, k)
        f2 = f0 ^ f1
        c0, c1, c2 = cost(f0, k - 1), cost(f1, k - 1), cost(f2, k - 1)
        best = min(c0 + c2, c1 + c2, c0 + c1)  # pDavio, nDavio, Shannon
        cost_memo[key] = best
        return best

    def build(f: int, k: int) -> list[Cube]:
        if k == 0:
            return [Cube()] if f else []
        key = (f, k)
        got = build_memo.get(key)
        if got is not None:
            return got
        f0, f1 = cofactors(f, k)
        f2 = f0 ^ f1
        c0, c1, c2 = cost(f0, k - 1), cost(f1, k - 1), cost(f2, k - 1)
        var = 1 << (k - 1)
        p_davio, n_davio, shannon = c0 + c2, c1 + c2, c0 + c1
        best = min(p_davio, n_davio, shannon)
        if best == p_davio:
            cubes = build(f0, k - 1) + [Cube(c.pos | var, c.neg)
                                        for c in build(f2, k - 1)]
        elif best == n_davio:
            cubes = build(f1, k - 1) + [Cube(c.pos, c.neg | var)
                                        for c in build(f2, k - 1)]
        else:
            cubes = ([Cube(c.pos, c.neg | var) for c in build(f0, k - 1)]
                     + [Cube(c.pos | var, c.neg) for c in build(f1, k - 1)])
        build_memo[key] = cubes
        return cubes

    return EsopCover(list(build(packed, n)), n)


# -- PLA-style text exchange ---------------------------------------------------
#
# Rows of {0,1,-} with a single output column under ".type esop" semantics:
# the function is the XOR of the rows whose output column is 1.

def format_pla(cover: EsopCover) -> str:
    lines = [".i %d" % cover.arity, ".o 1", ".type esop",
             ".p %d" % len(cover.cubes)]
    for c in cover.cubes:
        row = []
        for v in range(cover.arity):
            if (c.pos >> v) & 1:
                row.append("1")
            elif (c.neg >> v) & 1:
                row.append("0")
            else:
                row.append("-")
        lines.append("%s 1" % "".join(row))
    lines.append(".e")
    return "\n".join(lines) + "\n"


def parse_pla(text: str) -> EsopCover:
    arity = None
    cubes = []
    for raw in text.splitlines():
        s = raw.split("#", 1)[0].strip()
        if not s:
            continue
        if s.startswith("."):
            parts = s.split()
            if parts[0] == ".i":
                arity = int(parts[1])
            elif parts[0] == ".o" and int(parts[1]) != 1:
                raise EsopError("only single-output covers are supported")
            elif parts[0] == ".type" and parts[1] != "esop":
                raise EsopError("only .type esop is supported")
            continue
        parts = s.split()
        if len(parts) != 2:
            raise EsopError("bad cover row %r" % s)
        row, out = parts
        if arity is None:
            arity = len(row)
        if len(row) != arity:
            raise EsopError("row width %d does not match .i %d"
                            % (len(row), arity))
        if out == "0":
            continue
        pos = neg = 0
        for v, ch in enumerate(row):
            if ch == "1":
                pos |= 1 << v
            elif ch == "0":
                neg |= 1 << v
            elif ch != "-":
                raise EsopError("bad character %r in cover row" % ch)
        cubes.append(Cube(pos, neg))
    if arity is None:
        raise EsopError("no .i line and no rows")
    return EsopCover(cubes, arity)
