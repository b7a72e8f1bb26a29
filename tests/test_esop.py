import hashlib
import random

import pytest

from revamp.esop import (Cube, EsopCover, EsopError, cover_truth_table,
                         extract_esop, format_pla)


def eval_esop(cover: EsopCover, mask: int) -> int:
    """Reference: XOR of the cubes whose literals all hold under ``mask``
    (bit i = value of variable i)."""
    acc = 0
    for c in cover.cubes:
        acc ^= int((mask & c.pos) == c.pos and not mask & c.neg)
    return acc


def test_constant_covers():
    zero = extract_esop(0b0000, 2)
    assert zero.cubes == []
    one = extract_esop(0b1111, 2)
    assert len(one.cubes) == 1 and one.cubes[0].num_literals() == 0


def test_two_cube_reference_cover():
    # not(a) b c  xor  a not(b) c    (a = var 0)
    cover = EsopCover([Cube(pos=0b110, neg=0b001),
                       Cube(pos=0b101, neg=0b010)], 3)
    assert len(cover.cubes) == 2
    assert all(c.num_literals() == 3 for c in cover.cubes)
    for k in range(8):
        a, b, c = k & 1, (k >> 1) & 1, (k >> 2) & 1
        expect = ((1 - a) & b & c) ^ (a & (1 - b) & c)
        assert eval_esop(cover, k) == expect
    extracted = extract_esop(cover_truth_table(cover), 3)
    assert extracted.arity == 3
    assert cover_truth_table(extracted) == cover_truth_table(cover)


def test_cube_rejects_double_variable():
    with pytest.raises(EsopError):
        Cube(pos=0b1, neg=0b1)


def test_parity_worst_case_is_linear():
    for n in range(1, 9):
        tt = sum((bin(k).count("1") & 1) << k for k in range(1 << n))
        cover = extract_esop(tt, n)
        assert len(cover.cubes) == n
        assert all(c.num_literals() == 1 for c in cover.cubes)
        assert cover_truth_table(cover) == tt


def test_random_truth_tables_verify():
    rng = random.Random(42)
    for trial in range(1000):
        arity = rng.randrange(1, 9)
        tt = rng.getrandbits(1 << arity)
        cover = extract_esop(tt, arity)
        assert cover.arity == arity
        assert cover_truth_table(cover) == tt, "trial %d" % trial


def test_self_xor_cancels():
    rng = random.Random(7)
    for _ in range(50):
        arity = rng.randrange(1, 6)
        tt = rng.getrandbits(1 << arity)
        cover = extract_esop(tt, arity)
        doubled = EsopCover(cover.cubes + cover.cubes, arity)
        assert cover_truth_table(doubled) == 0


def test_pla_rows_match_cubes():
    rng = random.Random(3)
    for _ in range(30):
        arity = rng.randrange(1, 7)
        cover = extract_esop(rng.getrandbits(1 << arity), arity)
        lines = format_pla(cover).splitlines()
        assert lines[:4] == [".i %d" % arity, ".o 1", ".type esop",
                             ".p %d" % len(cover.cubes)]
        assert lines[-1] == ".e"
        rows = lines[4:-1]
        assert len(rows) == len(cover.cubes)
        for row, c in zip(rows, cover.cubes):
            lits, out = row.split()
            assert out == "1" and len(lits) == arity
            for v, ch in enumerate(lits):
                assert ch == ("1" if (c.pos >> v) & 1
                              else "0" if (c.neg >> v) & 1 else "-")


def test_extraction_bound():
    with pytest.raises(EsopError):
        extract_esop(0, 17)


@pytest.mark.parametrize("tt, arity", [(2, 0), (0b10000, 2), (-1, 2),
                                       (0, -1)])
def test_table_must_fit_its_arity(tt, arity):
    with pytest.raises(EsopError):
        extract_esop(tt, arity)


def test_cover_truth_table_matches_eval_esop():
    """The mask-based table agrees with per-assignment evaluation, including
    literals on variables at or beyond the arity (a positive one zeroes the
    cube, a negative one always holds)."""
    rng = random.Random(31)
    for trial in range(400):
        arity = rng.randrange(0, 8)
        cubes = []
        for _ in range(rng.randrange(0, 10)):
            pos = neg = 0
            for v in range(arity + 2):
                pick = rng.randrange(4)
                if pick == 1:
                    pos |= 1 << v
                elif pick == 2:
                    neg |= 1 << v
            cubes.append(Cube(pos, neg))
        cover = EsopCover(cubes, arity)
        want = 0
        for k in range(1 << arity):
            want |= eval_esop(cover, k) << k
        assert cover_truth_table(cover) == want, "trial %d" % trial


# digest of the covers of 130 seeded truth tables, ten at each arity 0..12:
# constant 0 and 1, four uniform, two sparse and two dense tables
PINNED_COVERS = (
    "fc965c15dbe6ef25ff601a4ece37cdc9abad6c84b6f289c7b0f6e3540a85cde4")


def test_covers_pinned():
    rng = random.Random(2019)
    digest = hashlib.sha256()
    for arity in range(13):
        full = (1 << (1 << arity)) - 1
        draw = [rng.getrandbits(1 << arity) for _ in range(8)]
        sparse = [draw[4] & draw[5] & rng.getrandbits(1 << arity),
                  draw[5] & draw[6] & rng.getrandbits(1 << arity)]
        dense = [draw[6] | draw[7], draw[4] | draw[7]]
        for tt in [0, full, *draw[:4], *sparse, *dense]:
            cover = extract_esop(tt, arity)
            assert cover_truth_table(cover) == tt
            digest.update(repr((arity, [(c.pos, c.neg)
                                        for c in cover.cubes])).encode())
    assert digest.hexdigest() == PINNED_COVERS
