import random

import pytest

from revamp.esop import (Cube, EsopCover, EsopError, Literal,
                         cover_truth_table, eval_esop, extract_esop,
                         format_pla, parse_pla, verify_esop)


def test_constant_covers():
    zero = extract_esop([0, 0, 0, 0])
    assert zero.cubes == []
    one = extract_esop([1, 1, 1, 1])
    assert len(one.cubes) == 1 and one.cubes[0].num_literals() == 0


def test_two_cube_reference_cover():
    # not(a) b c  xor  a not(b) c    (a = var 0)
    cover = EsopCover([Cube.from_literals([Literal(0, True), Literal(1, False),
                                           Literal(2, False)]),
                       Cube.from_literals([Literal(0, False), Literal(1, True),
                                           Literal(2, False)])], 3)
    assert len(cover.cubes) == 2
    assert all(c.num_literals() == 3 for c in cover.cubes)
    for k in range(8):
        a, b, c = k & 1, (k >> 1) & 1, (k >> 2) & 1
        expect = ((1 - a) & b & c) ^ (a & (1 - b) & c)
        assert eval_esop(cover, [a, b, c]) == expect
    extracted = extract_esop([(cover_truth_table(cover) >> k) & 1
                              for k in range(8)])
    assert verify_esop(extracted, cover_truth_table(cover), 3)


def test_cube_rejects_double_variable():
    with pytest.raises(EsopError):
        Cube(pos=0b1, neg=0b1)
    with pytest.raises(EsopError):
        Cube.from_literals([Literal(2, False), Literal(2, True)])


def test_parity_worst_case_is_linear():
    for n in range(1, 9):
        tt = [bin(k).count("1") & 1 for k in range(1 << n)]
        cover = extract_esop(tt)
        assert len(cover.cubes) == n
        assert all(c.num_literals() == 1 for c in cover.cubes)
        assert verify_esop(cover, tt)


def test_random_truth_tables_verify():
    rng = random.Random(42)
    for trial in range(1000):
        arity = rng.randrange(1, 9)
        tt = rng.getrandbits(1 << arity)
        cover = extract_esop(tt, arity)
        assert verify_esop(cover, tt, arity), "trial %d" % trial


def test_self_xor_cancels():
    rng = random.Random(7)
    for _ in range(50):
        arity = rng.randrange(1, 6)
        tt = rng.getrandbits(1 << arity)
        cover = extract_esop(tt, arity)
        doubled = EsopCover(cover.cubes + cover.cubes, arity)
        assert cover_truth_table(doubled) == 0


def test_eval_accepts_masks_and_sequences():
    cover = extract_esop([0, 1, 1, 0])  # xor
    assert eval_esop(cover, [1, 0]) == 1
    assert eval_esop(cover, 0b01) == 1
    assert eval_esop(cover, 0b11) == 0


def test_pla_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        arity = rng.randrange(1, 7)
        cover = extract_esop(rng.getrandbits(1 << arity), arity)
        text = format_pla(cover)
        again = parse_pla(text)
        assert again.arity == arity
        assert cover_truth_table(again) == cover_truth_table(cover)
    assert ".type esop" in format_pla(cover)


def test_pla_rejects_bad_rows():
    with pytest.raises(EsopError):
        parse_pla(".i 2\n.o 1\n012 1\n.e\n")
    with pytest.raises(EsopError):
        parse_pla(".i 2\n.o 2\n")


def test_extraction_bound():
    with pytest.raises(EsopError):
        extract_esop(0, 17)


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
