"""Small circuit builders for tests, demos and the bench corpus, plus the
hand-assembled two-bit XOR reference program."""

from __future__ import annotations

from .isa import (SRC_DMR, SRC_PIR, ApplyInstr, CrossbarConfig, Program,
                  ReadInstr, WordlineSelect, WsMode)
from .netlist import AND, Edge, LogicNetwork, random_aig


class AigBuilder:
    """Structural helper building AIGs from and/or/xor literals."""

    def __init__(self):
        self.net = LogicNetwork(kind="aig")

    def pi(self, name=None) -> Edge:
        return Edge(self.net.add_pi(name), False)

    def const0(self) -> Edge:
        for i, n in enumerate(self.net.nodes):
            if n.kind == "const0":
                return Edge(i, False)
        return Edge(self.net.add_const0(), False)

    def inv(self, a: Edge) -> Edge:
        return a.flip()

    def and_(self, a: Edge, b: Edge) -> Edge:
        return Edge(self.net.add_node(AND, (a, b)), False)

    def or_(self, a: Edge, b: Edge) -> Edge:
        return self.and_(a.flip(), b.flip()).flip()

    def xor_(self, a: Edge, b: Edge) -> Edge:
        return self.and_(self.and_(a, b.flip()).flip(),
                         self.and_(a.flip(), b).flip()).flip()

    def output(self, e: Edge, name=None):
        self.net.add_output(e, name)

    def build(self) -> LogicNetwork:
        self.net.validate()
        return self.net


def full_adder() -> LogicNetwork:
    b = AigBuilder()
    a, x, c = b.pi("a"), b.pi("b"), b.pi("cin")
    s1 = b.xor_(a, x)
    b.output(b.xor_(s1, c), "sum")
    b.output(b.or_(b.and_(a, x), b.and_(s1, c)), "cout")
    return b.build()


def ripple_adder(n: int) -> LogicNetwork:
    b = AigBuilder()
    xs = [b.pi("a%d" % i) for i in range(n)]
    ys = [b.pi("b%d" % i) for i in range(n)]
    carry = None
    for i in range(n):
        s = b.xor_(xs[i], ys[i])
        if carry is None:
            b.output(s, "s0")
            carry = b.and_(xs[i], ys[i])
        else:
            b.output(b.xor_(s, carry), "s%d" % i)
            carry = b.or_(b.and_(xs[i], ys[i]), b.and_(s, carry))
    b.output(carry, "s%d" % n)
    return b.build()


def multiplier(n: int, m: int | None = None) -> LogicNetwork:
    """Shift-add multiplier of an n-bit by m-bit operand."""
    m = n if m is None else m
    b = AigBuilder()
    xs = [b.pi("a%d" % i) for i in range(n)]
    ys = [b.pi("b%d" % i) for i in range(m)]
    zero = b.const0()

    def add(u: list[Edge], v: list[Edge]) -> list[Edge]:
        width = max(len(u), len(v))
        u = u + [zero] * (width - len(u))
        v = v + [zero] * (width - len(v))
        out = []
        carry = zero
        for a, c in zip(u, v):
            s = b.xor_(a, c)
            out.append(b.xor_(s, carry))
            carry = b.or_(b.and_(a, c), b.and_(s, carry))
        out.append(carry)
        return out

    acc: list[Edge] = []
    for j in range(m):
        row = [zero] * j + [b.and_(xs[i], ys[j]) for i in range(n)]
        acc = row if j == 0 else add(acc, row)
    acc = acc + [zero] * (n + m - len(acc))
    for k in range(n + m):
        b.output(acc[k], "p%d" % k)
    return b.build()


def comparator(n: int) -> LogicNetwork:
    """n-bit unsigned compare: outputs eq and lt (a < b)."""
    b = AigBuilder()
    xs = [b.pi("a%d" % i) for i in range(n)]
    ys = [b.pi("b%d" % i) for i in range(n)]
    eq = None
    lt = None
    for i in range(n - 1, -1, -1):  # most significant first
        bit_eq = b.xor_(xs[i], ys[i]).flip()
        bit_lt = b.and_(xs[i].flip(), ys[i])
        if eq is None:
            eq, lt = bit_eq, bit_lt
        else:
            lt = b.or_(lt, b.and_(eq, bit_lt))
            eq = b.and_(eq, bit_eq)
    b.output(eq, "eq")
    b.output(lt, "lt")
    return b.build()


def parity(n: int) -> LogicNetwork:
    b = AigBuilder()
    acc = b.pi("x0")
    for i in range(1, n):
        acc = b.xor_(acc, b.pi("x%d" % i))
    b.output(acc, "p")
    return b.build()


def two_bit_xor() -> LogicNetwork:
    """Bitwise XOR of two 2-bit vectors; PIs ordered p1 p0 q1 q0."""
    b = AigBuilder()
    p1, p0, q1, q0 = b.pi("p1"), b.pi("p0"), b.pi("q1"), b.pi("q0")
    b.output(b.xor_(p1, q1), "x1")
    b.output(b.xor_(p0, q0), "x0")
    return b.build()


def two_bit_xor_program() -> Program:
    """Eight-instruction bitwise XOR of p1p0 and q1q0 on a 3x2 crossbar.

    The reference program for the machine model, matching ``two_bit_xor``.
    PI order is p1 p0 q1 q0.  The p operands stream in first and land
    complemented in word 0, get re-complemented into words 1 and 2, then the
    q operands are ANDed into word 2 and ORed into word 1, and the final
    combination leaves p1^q1 at (2,0) and p0^q0 at (2,1):

        x ^ y  ==  x.(not y)  or  not(x or not y)
    """
    cfg = CrossbarConfig(3, 2)
    one = WordlineSelect(WsMode.ONE, 0)
    zero = WordlineSelect(WsMode.ZERO, 0)
    both = ((0, 0), (1, 1))  # (bitline, val) of both valid pairs
    instrs = [
        ApplyInstr(0, SRC_PIR, one, both, 2),   # word0 <- not p
        ReadInstr(0),
        ApplyInstr(2, SRC_DMR, one, both, 2),   # word2 <- p
        ApplyInstr(1, SRC_DMR, one, both, 2),   # word1 <- p
        ApplyInstr(2, SRC_PIR, zero, both, 2),  # word2 <- p and not q
        ApplyInstr(1, SRC_PIR, one, both, 2),   # word1 <- p or not q
        ReadInstr(1),
        ApplyInstr(2, SRC_DMR, one, both, 2),   # word2 <- xor
    ]
    schedule = {
        0: (0, 1),  # p1 p0
        4: (2, 3),  # q1 q0
        5: (2, 3),
    }
    return Program(cfg, instrs, schedule,
                   {"x1": (2, 0), "x0": (2, 1)}, num_pis=4)


def default_corpus() -> list[tuple[str, LogicNetwork]]:
    """Small verification corpus: adders, multiplier slices, comparators
    and random AIGs, all within 12 primary inputs.  The random AIGs' seeds
    are ones whose gates survive cleaning: 14, 18 and 23 of them."""
    return [
        ("full_adder", full_adder()),
        ("adder2", ripple_adder(2)),
        ("adder3", ripple_adder(3)),
        ("adder4", ripple_adder(4)),
        ("mult2", multiplier(2)),
        ("mult3", multiplier(3)),
        ("mult4x2", multiplier(4, 2)),
        ("cmp3", comparator(3)),
        ("cmp4", comparator(4)),
        ("parity8", parity(8)),
        ("rand8", random_aig(8, 24, seed=214)),
        ("rand10", random_aig(10, 40, seed=287)),
        ("rand12", random_aig(12, 56, seed=3)),
    ]
