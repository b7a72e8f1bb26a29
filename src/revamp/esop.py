"""Exclusive sum-of-products covers.

A cube is an AND of literals (at most one per variable, stored as a pair of
positive/negative variable masks); a cover is the XOR of its cubes, with the
empty cube standing for constant 1 and the empty cover for constant 0.

Extraction is a recursive pseudo-Kronecker expansion: at every variable the
cheapest of the Shannon, positive-Davio and negative-Davio decompositions is
taken (ties go to positive Davio, then negative Davio).  One memo, local to
the call, holds each subfunction's cost and cheapest expansion; the cubes
are then read off in one depth-first walk of the chosen expansions, which
prunes a zero part and emits a cube per nonzero constant.  This is not a minimum-ESOP search, but covers are certified correct by
construction and verified against the source truth table in tests.

``cover_truth_table`` gives the packed table of a cover and ``format_pla``
prints one as ``.type esop`` PLA text; no cover is read back in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import pi_patterns


class EsopError(ValueError):
    pass


@dataclass(frozen=True)
class Cube:
    """Product of literals; ``pos``/``neg`` are variable bit masks."""

    pos: int = 0
    neg: int = 0

    def __post_init__(self):
        if self.pos & self.neg:
            raise EsopError("variable appears in both polarities")

    def num_literals(self) -> int:
        return (self.pos | self.neg).bit_count()


@dataclass
class EsopCover:
    cubes: list[Cube]
    arity: int


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


def extract_esop(tt: int, arity: int) -> EsopCover:
    """Build an ESOP cover for a packed truth table of ``arity`` variables.

    Supports 0 to 16 variables, and refuses a table with bits set at or
    beyond ``2**arity``.  The cost memo lives for one call only; the cubes
    are read off the cheapest expansions in one depth-first walk.
    """
    if not 0 <= arity <= 16:
        raise EsopError("extraction takes 0 to 16 variables, got %d" % arity)
    if not 0 <= tt < 1 << (1 << arity):
        raise EsopError("table %d does not fit %d variables" % (tt, arity))
    # (f, k) -> (cost, expansion): 0 positive Davio, 1 negative, 2 Shannon
    memo: dict[tuple[int, int], tuple[int, int]] = {}

    def cofactors(f: int, k: int) -> tuple[int, int]:
        # split on variable k-1, the top variable of a k-variable function
        half = 1 << (k - 1)
        mask = (1 << half) - 1
        return f & mask, (f >> half) & mask

    def cost(f: int, k: int) -> int:
        if not f or not k:
            return 1 if f else 0
        got = memo.get((f, k))
        if got is None:
            f0, f1 = cofactors(f, k)
            c0, c1, c2 = cost(f0, k - 1), cost(f1, k - 1), cost(f0 ^ f1, k - 1)
            # ties go to the first of pDavio, nDavio, Shannon
            got = memo[f, k] = min((c0 + c2, 0), (c1 + c2, 1), (c0 + c1, 2))
        return got[0]

    cost(tt, arity)
    cubes = []
    # pending parts (f, k, pos, neg); the first part of an expansion is
    # pushed last, so cubes come out in the order of its parts
    stack = [(tt, arity, 0, 0)]
    while stack:
        f, k, pos, neg = stack.pop()
        if not f:
            continue
        if not k:
            cubes.append(Cube(pos, neg))
            continue
        f0, f1 = cofactors(f, k)
        how = memo[f, k][1]
        k -= 1
        var = 1 << k
        if how == 0:  # positive Davio: f0 xor v.f2
            stack += ((f0 ^ f1, k, pos | var, neg), (f0, k, pos, neg))
        elif how == 1:  # negative Davio: f1 xor not(v).f2
            stack += ((f0 ^ f1, k, pos, neg | var), (f1, k, pos, neg))
        else:  # Shannon: not(v).f0 xor v.f1
            stack += ((f1, k, pos | var, neg), (f0, k, pos, neg | var))
    return EsopCover(cubes, arity)


# -- PLA-style text output -----------------------------------------------------
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
