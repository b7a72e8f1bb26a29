import random
import struct

import pytest

from conftest import apply_from_pairs, two_bit_xor_program
from revamp.isa import (MAX_PIS, SRC_DMR, SRC_PIR, ApplyInstr, BitlinePair,
                        CrossbarConfig, DecodeError, IsaError, Program,
                        ReadInstr, WordlineSelect, WsMode, decode, encode,
                        format_asm, instruction_lengths, read_program,
                        validate_instruction, write_program)


def test_instruction_lengths_reference_points():
    assert instruction_lengths(CrossbarConfig(64, 2))[0] == 7
    assert instruction_lengths(CrossbarConfig(64, 64)) == (7, 464)
    assert instruction_lengths(CrossbarConfig(2, 2)) == (2, 10)


def test_config_validation():
    with pytest.raises(IsaError):
        CrossbarConfig(0, 2)
    with pytest.raises(IsaError):
        CrossbarConfig(2, 1)
    with pytest.raises(IsaError):
        CrossbarConfig(8, 4, w_i=5)  # below the longest instruction


def test_read_encoding_is_opcode_then_address():
    cfg = CrossbarConfig(64, 4)
    word = encode(ReadInstr(0), cfg)
    assert word == 0
    word = encode(ReadInstr(5), cfg)
    # opcode 0, then the six address bits, left-aligned in w_I
    assert word >> (cfg.w_i - 7) == 0b0000101
    assert decode(word, cfg) == ReadInstr(5)


def _random_instruction(rng, cfg):
    """A random Read or Apply; an Apply's v=0 pairs have val 0."""
    if rng.random() < 0.3:
        return ReadInstr(rng.randrange(cfg.s_d))
    mode = rng.choice([WsMode.ZERO, WsMode.ONE, WsMode.FROM_SOURCE])
    pairs = tuple(BitlinePair(rng.random() < 0.5, rng.randrange(cfg.w_d))
                  for _ in range(cfg.w_d))
    return apply_from_pairs(rng.randrange(cfg.s_d),
                            rng.choice([SRC_PIR, SRC_DMR]),
                            WordlineSelect(mode, rng.randrange(cfg.w_d)),
                            pairs)


@pytest.mark.parametrize("s_d,w_d", [(2, 2), (8, 4), (64, 16), (64, 64)])
def test_codec_roundtrip(s_d, w_d):
    cfg = CrossbarConfig(s_d, w_d)
    rng = random.Random(1000 + s_d + w_d)
    for _ in range(2500):
        instr = _random_instruction(rng, cfg)
        assert decode(encode(instr, cfg), cfg) == instr


def test_codec_roundtrip_non_power_of_two():
    cfg = CrossbarConfig(3, 3)
    rng = random.Random(9)
    for _ in range(500):
        instr = _random_instruction(rng, cfg)
        assert decode(encode(instr, cfg), cfg) == instr


# -- bit-by-bit reference codec ------------------------------------------------
#
# The codec as first written, one field at a time through put/take closures,
# with one rule added since: a v=0 pair must have val 0.  The sparse codec
# must agree with it on every word.

def _oracle_encode(instr, config):
    validate_instruction(instr, config)
    sw, bw = config.word_bits, config.bit_bits
    bits = 0
    used = 0

    def put(value, width):
        nonlocal bits, used
        bits = (bits << width) | (value & ((1 << width) - 1))
        used += width

    if isinstance(instr, ReadInstr):
        put(0, 1)
        put(instr.w, sw)
    else:
        put(1, 1)
        put(instr.w, sw)
        put(instr.source, 1)
        put(int(instr.ws.mode), 2)
        put(instr.ws.wb, bw)
        for p in instr.pairs:
            put(1 if p.valid else 0, 1)
            put(p.val, bw)
    if used > config.w_i:
        raise IsaError("instruction longer than w_I")
    return bits << (config.w_i - used)


def _oracle_decode(word, config):
    if word < 0 or word >> config.w_i:
        raise DecodeError("word wider than w_I")
    sw, bw = config.word_bits, config.bit_bits
    pos = config.w_i

    def take(width):
        nonlocal pos
        pos -= width
        if pos < 0:
            raise DecodeError("truncated instruction")
        return (word >> pos) & ((1 << width) - 1)

    opcode = take(1)
    w = take(sw)
    if w >= config.s_d:
        raise DecodeError("address %d out of range" % w)
    if opcode == 0:
        if word & ((1 << pos) - 1):
            raise DecodeError("nonzero padding after read")
        return ReadInstr(w)
    source = take(1)
    ws_code = take(2)
    if ws_code == 0b10:
        raise DecodeError("wordline select code 10 is invalid")
    wb = take(bw)
    if wb >= config.w_d:
        raise DecodeError("wb %d out of range" % wb)
    pairs = []
    for _ in range(config.w_d):
        v = take(1)
        val = take(bw)
        if val >= config.w_d:
            raise DecodeError("val %d out of range" % val)
        if not v and val:
            raise DecodeError("val %d on a pair with v=0" % val)
        pairs.append(BitlinePair(bool(v), val))
    if pos and word & ((1 << pos) - 1):
        raise DecodeError("nonzero padding after apply")
    return apply_from_pairs(w, source, WordlineSelect(WsMode(ws_code), wb),
                            tuple(pairs))


def _outcome(fn, word, cfg):
    try:
        return fn(word, cfg)
    except DecodeError as exc:
        return "DecodeError: %s" % exc


def _fuzz_words(rng, cfg, n):
    """Raw, valid, bit-flipped and padding-cleared words, some too wide."""
    il_read, il_apply = instruction_lengths(cfg)
    for i in range(n):
        kind = i % 4
        if kind == 0:
            yield rng.getrandbits(cfg.w_i + (i % 8 == 0))
        elif kind == 1:
            yield _oracle_encode(_random_instruction(rng, cfg), cfg)
        elif kind == 2:
            word = _oracle_encode(_random_instruction(rng, cfg), cfg)
            for _ in range(rng.randint(1, 3)):
                word ^= 1 << rng.randrange(cfg.w_i)
            yield word
        else:
            length = il_apply if rng.random() < 0.5 else il_read
            word = rng.getrandbits(length - 1)
            if length == il_apply:
                word |= 1 << (length - 1)
            yield word << (cfg.w_i - length)


CODEC_GEOMETRIES = [(1, 2, None), (3, 3, None), (8, 4, None), (5, 32, None),
                    (64, 16, None), (64, 64, None), (6, 5, 40)]


@pytest.mark.parametrize("s_d,w_d,w_i", CODEC_GEOMETRIES)
def test_decode_matches_bitwise_reference(s_d, w_d, w_i):
    cfg = CrossbarConfig(s_d, w_d, w_i=w_i)
    rng = random.Random(77 * s_d + w_d)
    kinds = set()
    for word in _fuzz_words(rng, cfg, 20000):
        want = _outcome(_oracle_decode, word, cfg)
        assert _outcome(decode, word, cfg) == want, hex(word)
        kinds.add(want.split(" ")[1] if isinstance(want, str)
                  else type(want).__name__)
    assert {"ReadInstr", "ApplyInstr"} <= kinds


@pytest.mark.parametrize("s_d,w_d,w_i", CODEC_GEOMETRIES)
def test_encode_matches_bitwise_reference(s_d, w_d, w_i):
    cfg = CrossbarConfig(s_d, w_d, w_i=w_i)
    rng = random.Random(91 * s_d + w_d)
    for _ in range(2000):
        instr = _random_instruction(rng, cfg)
        assert encode(instr, cfg) == _oracle_encode(instr, cfg)


def test_decode_rejects_bad_ws():
    cfg = CrossbarConfig(4, 2)
    instr = ApplyInstr(1, SRC_PIR, WordlineSelect(WsMode.ONE, 0),
                       ((0, 0), (1, 1)), 2)
    word = encode(instr, cfg)
    # flip the ws field (bits after opcode, address and source) to 0b10
    shift = cfg.w_i - 1 - cfg.word_bits - 1 - 2
    bad = (word & ~(0b11 << shift)) | (0b10 << shift)
    with pytest.raises(DecodeError):
        decode(bad, cfg)


def test_decode_rejects_dirty_padding():
    cfg = CrossbarConfig(8, 4)
    word = encode(ReadInstr(3), cfg)
    with pytest.raises(DecodeError):
        decode(word | 1, cfg)


def test_decode_rejects_a_val_on_a_v0_pair_in_bitline_order():
    """A v=0 pair must have val 0.  Of several faults of a word's pairs
    and padding, the first pair in bitline order is named, then the
    padding."""
    cfg = CrossbarConfig(8, 3, w_i=40)
    lay = cfg.layout
    word = encode(ApplyInstr(2, SRC_DMR, WordlineSelect(WsMode.ONE, 0),
                             ((0, 2),), 3), cfg)
    dirty_pad, nop_val = 1, 1 << lay.pair_shifts[2]
    bad_val = (lay.valid_bit | 3) << lay.pair_shifts[1]
    for extra, message in ((dirty_pad, "nonzero padding after apply"),
                           (dirty_pad | nop_val, "val 1 on a pair with v=0"),
                           (dirty_pad | nop_val | bad_val,
                            "val 3 out of range")):
        with pytest.raises(DecodeError, match="^%s$" % message):
            decode(word | extra, cfg)
    assert decode(word, cfg).lines == ((0, 2),)


def test_container_refuses_a_val_on_a_v0_pair():
    cfg = CrossbarConfig(2, 2)
    instr = ApplyInstr(1, SRC_PIR, WordlineSelect(WsMode.ONE, 0), ((0, 0),),
                       2)
    data = write_program(Program(cfg, [instr], {0: (0, 0)}, {}, 1))
    nbytes = (cfg.w_i + 7) // 8
    word = int.from_bytes(data[_COUNT_OFFSET + 4:][:nbytes], "big")
    assert read_program(data).instructions == [instr]
    word |= 1 << cfg.layout.pair_shifts[1]  # val 1 on bitline 1, v=0
    bad = (data[:_COUNT_OFFSET + 4] + word.to_bytes(nbytes, "big")
           + data[_COUNT_OFFSET + 4 + nbytes:])
    with pytest.raises(IsaError, match="val 1 on a pair with v=0"):
        read_program(bad)


@pytest.mark.parametrize("lines,width,message", [
    (((2, 0), (1, 0)), 4, "bitline 1 out of order or out of range"),
    (((1, 0), (1, 3)), 4, "bitline 1 out of order or out of range"),
    (((0, 0), (4, 1)), 4, "bitline 4 out of order or out of range"),
    (((-1, 0),), 4, "bitline -1 out of order or out of range"),
    (((0, 4),), 4, "val 4 out of range"),
    (((0, 0),), 5, "apply needs exactly 4 \\(v val\\) pairs, got 5"),
], ids=["unsorted", "duplicate", "past_w_d", "negative", "val", "width"])
def test_validate_refuses_lines_out_of_order_or_range(lines, width, message):
    cfg = CrossbarConfig(8, 4)
    instr = ApplyInstr(0, SRC_DMR, WordlineSelect(WsMode.ONE, 0), lines,
                       width)
    with pytest.raises(IsaError, match="^%s$" % message):
        validate_instruction(instr, cfg)


def test_asm_tokens_match_fields():
    cfg = CrossbarConfig(8, 4)
    rng = random.Random(4)
    for _ in range(200):
        instr = _random_instruction(rng, cfg)
        tokens = format_asm(instr).split()
        if isinstance(instr, ReadInstr):
            assert tokens == ["Read", str(instr.w)]
            continue
        assert tokens[0] == "Apply"
        assert int(tokens[1]) == instr.w
        assert int(tokens[2]) == instr.source
        assert WsMode(int(tokens[3], 2)) == instr.ws.mode
        assert len(tokens[3]) == 2
        assert int(tokens[4]) == instr.ws.wb
        assert len(tokens) == 5 + 2 * cfg.w_d
        for j, p in enumerate(instr.pairs):
            assert int(tokens[5 + 2 * j]) == int(p.valid)
            assert int(tokens[6 + 2 * j]) == p.val


def test_asm_format_matches_notation():
    instr = ApplyInstr(0, SRC_PIR, WordlineSelect(WsMode.ONE, 0),
                       ((0, 0), (1, 1)), 2)
    assert format_asm(instr) == "Apply 0 0 01 0 1 0 1 1"
    assert format_asm(ReadInstr(2)) == "Read 2"


def test_container_roundtrip():
    prog = two_bit_xor_program()
    data = write_program(prog)
    assert data[:4] == b"RVMP"
    again = read_program(data)
    assert again.instructions == prog.instructions
    assert again.pir_schedule == prog.pir_schedule
    assert again.result_locations == prog.result_locations
    assert again.num_pis == prog.num_pis
    assert again.config.s_d == 3 and again.config.w_d == 2


def test_container_shares_repeated_instructions():
    prog = two_bit_xor_program()
    assert prog.instructions[2] == prog.instructions[7]
    again = read_program(write_program(prog))
    assert again.instructions == prog.instructions
    assert again.instructions[2] is again.instructions[7]
    assert len({id(i) for i in again.instructions}) == len(
        set(prog.instructions))


# header: magic, S_D w_D S_I w_I num_pis, instruction count
_W_I_OFFSET, _COUNT_OFFSET = 16, 24


def _with_header(data, offset, value):
    return data[:offset] + struct.pack("<I", value) + data[offset + 4:]


def test_container_rejects_instructions_past_the_end():
    data = write_program(two_bit_xor_program())
    with pytest.raises(IsaError, match="overrun"):
        read_program(data[:_COUNT_OFFSET + 4 + 8 * 2 - 1])
    with pytest.raises(IsaError, match="overrun"):
        read_program(_with_header(data, _COUNT_OFFSET, len(data)))
    # a w_I far wider than the container is refused before any decoding
    with pytest.raises(IsaError, match="overrun"):
        read_program(_with_header(data, _W_I_OFFSET, 2**32 - 1))


def test_container_bounds_the_declared_input_count():
    data = write_program(Program(CrossbarConfig(4, 4), [], {}, {}, 0))
    assert read_program(_with_header(data, 20, MAX_PIS)).num_pis == MAX_PIS
    with pytest.raises(IsaError, match="%d primary inputs" % (MAX_PIS + 1)):
        read_program(_with_header(data, 20, MAX_PIS + 1))
    with pytest.raises(IsaError, match="%d primary inputs" % (MAX_PIS + 1)):
        write_program(Program(CrossbarConfig(4, 4), [], {}, {}, MAX_PIS + 1))


def test_container_builds_no_codec_table_without_instructions():
    """An empty program's header is not bounded by any instruction bytes."""
    header = struct.pack("<5I", 3, 2**20, 1, 2**32 - 1, 0)
    data = b"RVMP" + header + struct.pack("<3I", 0, 0, 0)
    prog = read_program(data)
    assert prog.instructions == [] and prog.config.w_d == 2**20
    assert "layout" not in vars(prog.config)


def test_container_refuses_a_geometry_its_fields_cannot_hold():
    # w_D = 2^31 is a valid geometry, but its w_I needs more than 32 bits
    prog = Program(CrossbarConfig(2, 2**31), [], {}, {}, 0)
    with pytest.raises(IsaError, match="does not fit the container"):
        write_program(prog)


def test_container_rejects_bad_result_name():
    data = write_program(two_bit_xor_program())
    at = data.index(b"x0")
    with pytest.raises(IsaError, match="utf-8"):
        read_program(data[:at] + b"\xff" + data[at + 1:])


def test_container_rejects_trailing_bytes():
    data = write_program(two_bit_xor_program())
    with pytest.raises(IsaError, match="trailing"):
        read_program(data + b"\0")


def _tables(prog, data):
    """Offsets of the schedule and result tables of ``prog``'s container."""
    schedule = _COUNT_OFFSET + 4 + len(prog.instructions) * (
        (prog.config.w_i + 7) // 8)
    entry = 4 + 4 * prog.config.w_d
    results = schedule + 4 + len(prog.pir_schedule) * entry
    return schedule, entry, results


def _repeat_first_entry(data, table, entry_len):
    """``data`` with the first entry of the table at ``table`` listed twice
    and the table's count raised to match."""
    (count,) = struct.unpack_from("<I", data, table)
    first = data[table + 4:table + 4 + entry_len]
    return (_with_header(data, table, count + 1)[:table + 4] + first
            + data[table + 4:])


def test_container_rejects_a_repeated_schedule_index():
    prog = two_bit_xor_program()
    data = write_program(prog)
    schedule, entry, _ = _tables(prog, data)
    assert struct.unpack_from("<2I", data, schedule) == (3, 0)
    with pytest.raises(IsaError, match="schedule index 0 is listed twice"):
        read_program(_repeat_first_entry(data, schedule, entry))


def test_container_rejects_a_repeated_result_name():
    prog = two_bit_xor_program()
    data = write_program(prog)
    _, _, results = _tables(prog, data)
    (count, nlen) = struct.unpack_from("<IH", data, results)
    name = data[results + 6:results + 6 + nlen].decode()
    assert count == 2 and name in prog.result_locations
    with pytest.raises(IsaError, match="result '%s' is listed twice" % name):
        read_program(_repeat_first_entry(data, results, 2 + nlen + 8))


def test_program_validation_catches_missing_schedule():
    prog = two_bit_xor_program()
    del prog.pir_schedule[4]
    with pytest.raises(IsaError):
        prog.validate()
