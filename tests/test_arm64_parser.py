"""Unit tests for the GNU assembly parser and printer."""

import pytest

from repro.arm64 import (
    AsmSyntaxError,
    Cond,
    Extended,
    Imm,
    Label,
    Mem,
    POST_INDEX,
    PRE_INDEX,
    Shifted,
    VecReg,
    W,
    X,
    XZR,
    SP,
    parse_assembly,
    parse_operand,
    print_assembly,
)
from repro.arm64.operands import ShiftedImm, canonical_condition, invert_condition
from repro.arm64.program import Directive, LabelDef


def parse_one(text):
    program = parse_assembly(text)
    insts = list(program.instructions())
    assert len(insts) == 1, insts
    return insts[0]


class TestOperands:
    def test_register(self):
        assert parse_operand("x0") is X[0]
        assert parse_operand("W13") is W[13]
        assert parse_operand("xzr") is XZR
        assert parse_operand("sp") is SP
        assert parse_operand("lr") is X[30]

    def test_immediates(self):
        assert parse_operand("#42") == Imm(42)
        assert parse_operand("#-8") == Imm(-8)
        assert parse_operand("#0x1f") == Imm(31)
        assert parse_operand("12") == Imm(12)

    def test_lo12_reloc(self):
        op = parse_operand(":lo12:mydata")
        assert op == Imm(0, reloc="lo12", symbol="mydata")

    def test_label(self):
        assert parse_operand(".Lfoo") == Label(".Lfoo")
        assert parse_operand("bar+16") == Label("bar", 16)

    def test_condition(self):
        assert parse_operand("eq") == Cond("eq")
        assert parse_operand("hs") == Cond("cs")  # alias

    def test_vector(self):
        op = parse_operand("v3.4s")
        assert isinstance(op, VecReg)
        assert op.reg.index == 3
        assert op.arrangement == "4s"
        assert op.lanes == 4 and op.lane_bits == 32

    def test_bad_operand(self):
        with pytest.raises(AsmSyntaxError):
            parse_operand("!!nope!!")


class TestMemoryOperands:
    def test_base_only(self):
        inst = parse_one("ldr x0, [x1]")
        assert inst.mem == Mem(X[1])

    def test_immediate_offset(self):
        inst = parse_one("ldr x0, [x1, #24]")
        assert inst.mem == Mem(X[1], Imm(24))

    def test_pre_index(self):
        inst = parse_one("str x0, [sp, #-16]!")
        assert inst.mem == Mem(SP, Imm(-16), PRE_INDEX)
        assert inst.mem.writes_back

    def test_post_index(self):
        inst = parse_one("ldr x0, [x1], #8")
        assert inst.mem == Mem(X[1], Imm(8), POST_INDEX)

    def test_register_offset_shifted(self):
        inst = parse_one("ldr x0, [x1, x2, lsl #3]")
        assert inst.mem == Mem(X[1], Shifted(X[2], "lsl", 3))

    def test_register_offset_extended(self):
        inst = parse_one("ldr x0, [x1, w2, uxtw #2]")
        assert inst.mem == Mem(X[1], Extended(W[2], "uxtw", 2))

    def test_guard_form(self):
        """The paper's zero-instruction guard addressing mode (§4.1)."""
        inst = parse_one("ldr x0, [x21, w1, uxtw]")
        assert inst.mem == Mem(X[21], Extended(W[1], "uxtw", None))

    def test_sxtw(self):
        inst = parse_one("str w0, [x1, w2, sxtw #2]")
        assert inst.mem == Mem(X[1], Extended(W[2], "sxtw", 2))

    def test_plain_register_offset(self):
        inst = parse_one("ldr x0, [x1, x2]")
        assert inst.mem == Mem(X[1], X[2])


class TestInstructions:
    def test_guard_instruction(self):
        inst = parse_one("add x18, x21, w1, uxtw")
        assert inst.mnemonic == "add"
        assert inst.operands == (X[18], X[21], Extended(W[1], "uxtw", None))

    def test_shifted_imm(self):
        inst = parse_one("movz x9, #0x1234, lsl #16")
        assert inst.operands == (X[9], ShiftedImm(0x1234, 16))

    def test_conditional_branch(self):
        inst = parse_one("b.eq .Ldone")
        assert inst.mnemonic == "b.eq"
        assert inst.base == "b"
        assert inst.branch_target() == Label(".Ldone")

    def test_tbz(self):
        inst = parse_one("tbz x0, #33, target")
        assert inst.operands == (X[0], Imm(33), Label("target"))

    def test_pair(self):
        inst = parse_one("ldp x29, x30, [sp], #16")
        assert inst.transfer_regs == [X[29], X[30]]
        assert inst.mem.mode == POST_INDEX

    def test_defs_load(self):
        inst = parse_one("ldr x0, [x1, #8]")
        assert inst.defs() == [X[0]]

    def test_defs_store_writeback(self):
        inst = parse_one("str x0, [sp, #-16]!")
        assert inst.defs() == [SP]

    def test_defs_bl(self):
        inst = parse_one("bl somewhere")
        assert inst.defs() == [X[30]]

    def test_defs_stxr_status(self):
        inst = parse_one("stxr w1, x0, [x2]")
        assert inst.defs() == [W[1]]

    def test_uses_store(self):
        inst = parse_one("str x0, [x1, x2]")
        assert set(inst.uses()) == {X[0], X[1], X[2]}

    def test_is_flags(self):
        assert parse_one("cmp x0, #0").defs() == []
        assert parse_one("ret").is_indirect_branch
        assert parse_one("b.ne foo").is_direct_branch
        assert not parse_one("b foo").is_call
        assert parse_one("bl foo").is_call
        assert parse_one("b foo").is_terminator
        assert not parse_one("b.eq foo").is_terminator


class TestProgramStructure:
    SRC = """
    .text
    .globl main
main:
    mov x0, #1
    ret
    .data
value:
    .quad 42
    """

    def test_labels_and_sections(self):
        program = parse_assembly(self.SRC)
        labels = program.labels()
        assert "main" in labels and "value" in labels
        sections = {
            item: section
            for item, section in program.items_with_sections()
            if isinstance(item, LabelDef)
        }
        by_name = {item.name: sec for item, sec in sections.items()}
        assert by_name["main"] == ".text"
        assert by_name["value"] == ".data"

    def test_comments_stripped(self):
        program = parse_assembly("mov x0, #1 // a comment\n/* block */ ret\n")
        assert [i.mnemonic for i in program.instructions()] == ["mov", "ret"]

    def test_label_and_inst_same_line(self):
        program = parse_assembly("foo: mov x0, #1\n")
        assert isinstance(program.items[0], LabelDef)
        assert program.items[1].mnemonic == "mov"

    def test_multiple_statements_per_line(self):
        program = parse_assembly("mov x0, #1; mov x1, #2\n")
        assert program.instruction_count() == 2

    def test_directive_args(self):
        program = parse_assembly('.section .rodata\n.asciz "hi, there"\n')
        directives = [i for i in program.items if isinstance(i, Directive)]
        assert directives[1].args == ('"hi, there"',)

    @pytest.mark.parametrize("text", [
        "// not a comment", "user@host", "a; b", "/* kept */",
        "x // y @ z ; w /* v */", "@", ";", "//",
    ])
    def test_comment_markers_inside_strings_are_contents(self, text):
        src = (f'.ascii "{text}"\n'
               f'.ascii "{text}" // trailing\n'
               f'.ascii "{text}" @ trailing\n'
               f'.ascii "{text}" /* block */\n'
               f'.ascii "{text}"; mov x0, #1 // after\n'
               f'/* lead */ .ascii "{text}"\n')
        program = parse_assembly(src)
        directives = [i for i in program.items if isinstance(i, Directive)]
        assert [d.args for d in directives] == [(f'"{text}"',)] * 6
        assert [i.mnemonic for i in program.instructions()] == ["mov"]

    def test_comment_markers_after_strings(self):
        program = parse_assembly(
            '.ascii "a", "b" @ c "d"\n'
            'mov x0, #1 /* "q" */ ; mov x1, #2 /* x */ // "r\n'
            '.asciz "s" /* t */ ; ret ; // u\n')
        directives = [i for i in program.items if isinstance(i, Directive)]
        assert [d.args for d in directives] == [
            ('"a"', '"b"'), ('"s"',)]
        assert [i.mnemonic for i in program.instructions()] \
            == ["mov", "mov", "ret"]


class TestRoundTrip:
    CASES = [
        "add x0, x1, x2",
        "add x18, x21, w1, uxtw",
        "ldr x0, [x21, w1, uxtw]",
        "str x0, [sp, #-16]!",
        "ldp x29, x30, [sp], #16",
        "movz x9, #4660, lsl #16",
        "csel x0, x1, x2, ne",
        "b.eq .Ltarget",
        "tbz x0, #3, .Ltarget",
        "fmadd d0, d1, d2, d3",
        "add v0.4s, v1.4s, v2.4s",
        "ldr q0, [x1, #32]",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_print_parse_identity(self, text):
        program = parse_assembly(text)
        printed = print_assembly(program)
        reparsed = parse_assembly(printed)
        assert print_assembly(reparsed) == printed


class TestConditions:
    def test_canonical(self):
        assert canonical_condition("HS") == "cs"
        with pytest.raises(ValueError):
            canonical_condition("zz")

    def test_invert_pairs(self):
        assert invert_condition("eq") == "ne"
        assert invert_condition("ne") == "eq"
        assert invert_condition("lt") == "ge"
        assert invert_condition("hi") == "ls"
