"""Per-class encoder/decoder round-trip properties (ISSUE 7 satellite).

The prover's enumeration (``repro.prove.enumerate``) relies on the
decoder/encoder pair being a bijection on the decodable subset of each
class space: every word the decoder claims must re-encode to exactly the
same word, or the prover's acceptance counts would not correspond to real
machine code.

Two tiers: a small seeded deterministic sample per class runs in tier-1;
the Hypothesis property (marked ``slow``) drives far more samples and
shrinks failures.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm64.decoder import decode_word, decoding_class, decoder_names
from repro.arm64.encoder import reencode_word
from repro.prove import default_classes, nightly_classes

ALL_CLASSES = default_classes() + nightly_classes()


def _sample_word(cls, rng: random.Random) -> int:
    word = cls.template
    for f in cls.fields:
        value = (rng.choice(f.values) if f.values is not None
                 else rng.randrange(1 << f.width))
        word |= value << f.lo
    return word


def _assert_roundtrip(cls, word: int) -> None:
    inst = decode_word(word)
    if inst is None:
        assert reencode_word(word) is None
        return
    back = reencode_word(word)
    assert back == word, (
        f"{cls.name}: {word:#010x} ({inst}) re-encoded to "
        f"{back:#010x}" if back is not None else
        f"{cls.name}: {word:#010x} ({inst}) failed to re-encode")


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=[c.name for c in ALL_CLASSES])
def test_seeded_sample_roundtrip(cls):
    rng = random.Random(0xC0DE ^ hash(cls.name) & 0xFFFF)
    for _ in range(64):
        _assert_roundtrip(cls, _sample_word(cls, rng))


@pytest.mark.parametrize("cls",
                         [c for c in ALL_CLASSES if c.space() <= 4096],
                         ids=[c.name for c in ALL_CLASSES
                              if c.space() <= 4096])
def test_small_class_exhaustive_roundtrip(cls):
    for word in cls.words():
        _assert_roundtrip(cls, word)


def test_decoding_class_names_are_known():
    names = decoder_names()
    assert "movi" in names or len(names) > 10
    # Every claimed word reports a claiming decoder.
    assert decoding_class(0xD4200000) is not None  # brk #0
    assert decoding_class(0xFFFFFFFF) is None


@pytest.mark.slow
@pytest.mark.parametrize("cls", ALL_CLASSES, ids=[c.name for c in ALL_CLASSES])
@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_property_roundtrip(cls, data):
    word = cls.template
    for f in cls.fields:
        if f.values is not None:
            value = data.draw(st.sampled_from(f.values), label=f.name)
        else:
            value = data.draw(
                st.integers(min_value=0, max_value=(1 << f.width) - 1),
                label=f.name)
        word |= value << f.lo
    _assert_roundtrip(cls, word)


#: Assembled anchors for the decoder classes neither random words nor the
#: prover's registry reach; their register fields are randomized below.
_ANCHORS = "rbit x0, x1\nclz w2, w3\ndup v0.4s, w1\nfmov d0, #1.0\n" \
           "fneg d0, d1\nfsqrt s2, s3\nmovi v0.16b, #1\nnop\nsvc #0\n" \
           "ror x0, x1, #3\n"


def test_pc_relative_classes_are_exactly_the_pc_dependent_ones():
    """Words outside ``PC_RELATIVE_CLASSES`` decode identically at any
    pc (so the emulator may share their decodes between slots); words
    inside it decode differently at two pcs."""
    from repro.arm64 import parse_assembly
    from repro.arm64.assembler import assemble
    from repro.arm64.decoder import PC_RELATIVE_CLASSES

    rng = random.Random(0x5107)
    words = [rng.getrandbits(32) for _ in range(20_000)]
    for cls in ALL_CLASSES:
        words += [_sample_word(cls, rng) for _ in range(32)]
    text = assemble(parse_assembly(_ANCHORS)).text.data
    for i in range(0, len(text), 4):
        anchor = int.from_bytes(text[i:i + 4], "little")
        words += [anchor] + [anchor ^ rng.getrandbits(10)
                             for _ in range(32)]

    pc_a, pc_b = 0x1_0000_4000, 0x2_3456_7000
    seen = set()
    for word in words:
        klass = decoding_class(word)
        if klass is None:
            continue
        seen.add(klass)
        at_a, at_b = decode_word(word, pc_a), decode_word(word, pc_b)
        if klass in PC_RELATIVE_CLASSES:
            assert at_a != at_b, f"{word:#010x} ({klass}, {at_a})"
        else:
            assert at_a == at_b, f"{word:#010x} ({klass}, {at_a})"
    assert seen == set(decoder_names())
    assert PC_RELATIVE_CLASSES <= seen
