// Parser / printer / assembler tests for the assembly-text layer.

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <sstream>

#include "arch/decode.h"
#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "asmtext/printer.h"
#include "fuzz/gen.h"
#include "fuzz/rng.h"
#include "golden_util.h"
#include "workloads/workloads.h"

#ifndef LFI_PARSER_GOLDEN
#error "build must define LFI_PARSER_GOLDEN (path to the golden file)"
#endif

namespace lfi::asmtext {
namespace {

using arch::AddrMode;
using arch::Cond;
using arch::Extend;
using arch::Mn;
using arch::Reg;
using arch::Width;

arch::Inst MustParse(const std::string& line) {
  auto s = ParseInst(line);
  EXPECT_TRUE(s.ok()) << line << ": " << (s.ok() ? "" : s.error());
  return s.ok() ? s->inst : arch::Inst{};
}

TEST(Parser, BasicAlu) {
  auto add = MustParse("add x0, x1, #16");
  EXPECT_EQ(add.mn, Mn::kAddImm);
  EXPECT_EQ(add.rd, Reg::X(0));
  EXPECT_EQ(add.rn, Reg::X(1));
  EXPECT_EQ(add.imm, 16);

  auto sub = MustParse("sub w2, w3, w4, lsl #2");
  EXPECT_EQ(sub.mn, Mn::kSubReg);
  EXPECT_EQ(sub.width, Width::kW);
  EXPECT_EQ(sub.shift_amount, 2);

  // Negative add immediate flips to sub.
  auto neg = MustParse("add x0, x1, #-8");
  EXPECT_EQ(neg.mn, Mn::kSubImm);
  EXPECT_EQ(neg.imm, 8);
}

TEST(Parser, GuardInstruction) {
  auto g = MustParse("add x18, x21, w7, uxtw");
  EXPECT_EQ(g.mn, Mn::kAddExt);
  EXPECT_EQ(g.ext, Extend::kUxtw);
  EXPECT_EQ(g.rm, Reg::X(7));
  EXPECT_TRUE(arch::IsGuardFor(g, Reg::X(18)));
}

TEST(Parser, SpGuardSequence) {
  // The two-instruction SP guard from Section 4.2.
  auto mv = MustParse("mov w22, wsp");
  EXPECT_EQ(mv.mn, Mn::kAddImm);
  EXPECT_EQ(mv.width, Width::kW);
  EXPECT_EQ(mv.rd, Reg::X(22));
  EXPECT_EQ(mv.rn, Reg::Sp());
  auto g = MustParse("add sp, x21, x22");
  EXPECT_TRUE(arch::IsSpGuard(g));
}

TEST(Parser, MovAliases) {
  auto movr = MustParse("mov x0, x1");
  EXPECT_EQ(movr.mn, Mn::kOrrReg);
  EXPECT_TRUE(movr.rn.IsZr());
  auto movsp = MustParse("mov x0, sp");
  EXPECT_EQ(movsp.mn, Mn::kAddImm);
  auto movi = MustParse("mov x0, #42");
  EXPECT_EQ(movi.mn, Mn::kMovz);
  EXPECT_EQ(movi.imm, 42);
  auto movn = MustParse("mov x0, #-1");
  EXPECT_EQ(movn.mn, Mn::kMovn);
  EXPECT_EQ(movn.imm, 0);
}

TEST(Parser, CmpAndShiftsAndCset) {
  auto cmp = MustParse("cmp x1, #0");
  EXPECT_EQ(cmp.mn, Mn::kSubsImm);
  EXPECT_TRUE(cmp.rd.IsZr());
  auto lsl = MustParse("lsl x0, x1, #3");
  EXPECT_EQ(lsl.mn, Mn::kUbfm);
  EXPECT_EQ(lsl.immr, 61);
  EXPECT_EQ(lsl.imms, 60);
  auto asr = MustParse("asr w0, w1, #5");
  EXPECT_EQ(asr.mn, Mn::kSbfm);
  EXPECT_EQ(asr.immr, 5);
  EXPECT_EQ(asr.imms, 31);
  auto cset = MustParse("cset w0, eq");
  EXPECT_EQ(cset.mn, Mn::kCsinc);
  EXPECT_EQ(cset.cond, Cond::kNe);
  auto mul = MustParse("mul x0, x1, x2");
  EXPECT_EQ(mul.mn, Mn::kMadd);
  EXPECT_TRUE(mul.ra.IsZr());
}

TEST(Parser, AddressingModes) {
  auto base = MustParse("ldr x0, [x1]");
  EXPECT_EQ(base.mem.mode, AddrMode::kImm);
  EXPECT_EQ(base.mem.imm, 0);
  auto imm = MustParse("ldr x0, [x1, #24]");
  EXPECT_EQ(imm.mem.imm, 24);
  auto pre = MustParse("str x0, [sp, #-16]!");
  EXPECT_EQ(pre.mem.mode, AddrMode::kPreIndex);
  EXPECT_EQ(pre.mem.imm, -16);
  EXPECT_TRUE(pre.mem.base.IsSp());
  auto post = MustParse("ldr x0, [sp], #16");
  EXPECT_EQ(post.mem.mode, AddrMode::kPostIndex);
  EXPECT_EQ(post.mem.imm, 16);
  auto lsl = MustParse("ldr x0, [x1, x2, lsl #3]");
  EXPECT_EQ(lsl.mem.mode, AddrMode::kRegLsl);
  EXPECT_EQ(lsl.mem.shift, 3);
  auto uxtw = MustParse("ldr x0, [x21, w2, uxtw]");
  EXPECT_EQ(uxtw.mem.mode, AddrMode::kRegUxtw);
  EXPECT_EQ(uxtw.mem.shift, 0);
  auto sxtw = MustParse("ldrb w0, [x1, w2, sxtw]");
  EXPECT_EQ(sxtw.mem.mode, AddrMode::kRegSxtw);
  EXPECT_EQ(sxtw.msize, 1);
}

TEST(Parser, LoadStoreVariants) {
  EXPECT_EQ(MustParse("ldrb w0, [x1]").msize, 1);
  EXPECT_EQ(MustParse("ldrh w0, [x1]").msize, 2);
  EXPECT_EQ(MustParse("ldr w0, [x1]").msize, 4);
  auto sw = MustParse("ldrsw x0, [x1]");
  EXPECT_EQ(sw.msize, 4);
  EXPECT_TRUE(sw.msigned);
  auto ldp = MustParse("ldp x29, x30, [sp], #32");
  EXPECT_EQ(ldp.mn, Mn::kLdp);
  EXPECT_EQ(ldp.mem.mode, AddrMode::kPostIndex);
  auto fp = MustParse("ldr d0, [x1, #8]");
  EXPECT_EQ(fp.mn, Mn::kLdrF);
  EXPECT_EQ(fp.msize, 8);
  auto q = MustParse("str q3, [x2]");
  EXPECT_EQ(q.mn, Mn::kStrF);
  EXPECT_EQ(q.msize, 16);
}

TEST(Parser, BranchesAndLabels) {
  auto b = ParseInst("b .Lloop");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->sym, ".Lloop");
  auto bc = ParseInst("b.ne .Lexit");
  ASSERT_TRUE(bc.ok());
  EXPECT_EQ(bc->inst.cond, Cond::kNe);
  auto cbz = ParseInst("cbz w0, done");
  ASSERT_TRUE(cbz.ok());
  EXPECT_EQ(cbz->inst.rt, Reg::X(0));
  auto tbz = ParseInst("tbz x3, #63, skip");
  ASSERT_TRUE(tbz.ok());
  EXPECT_EQ(tbz->inst.bit, 63);
  auto ret = MustParse("ret");
  EXPECT_EQ(ret.rn, Reg::X(30));
}

TEST(Parser, RtcallPseudo) {
  auto s = ParseInst("rtcall #3");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->kind, AsmStmt::Kind::kRtcall);
  EXPECT_EQ(s->inst.imm, 3);
}

TEST(Parser, RejectsBadInput) {
  EXPECT_FALSE(ParseInst("frobnicate x0, x1").ok());
  EXPECT_FALSE(ParseInst("add x0").ok());
  EXPECT_FALSE(ParseInst("ldr x0, [x99]").ok());
  EXPECT_FALSE(ParseInst("mov x0, #1000000000000").ok());
  EXPECT_FALSE(ParseInst("add x0, x1, w2").ok());  // missing extend
}

TEST(Parser, RejectsOverflowingNumbers) {
  // Register numbers and literals past their range used to wrap into
  // valid ones: x4294967297 parsed as x1 and #2^64+1 as #1.
  for (const char* line :
       {"add x4294967297, x0, #1", "ldr x0, [x4294967298]",
        "fadd d4294967299, d0, d1", "add v4294967296.4s, v1.4s, v2.4s",
        "mov x0, #18446744073709551617", "mov x0, #0x10000000000000000",
        "add x0, x1, #-9223372036854775809",
        "ldr x0, [x1, #99999999999999999999]"}) {
    EXPECT_FALSE(ParseInst(line).ok()) << line;
  }
  EXPECT_FALSE(Parse(".p2align 64\n").ok());
  // The extremes that do fit keep their 64-bit pattern.
  EXPECT_EQ(MustParse("orr x0, x1, #0xffffffffffffffff").imm, -1);
  EXPECT_EQ(MustParse("orr x0, x1, #18446744073709551615").imm, -1);
  EXPECT_EQ(MustParse("orr x0, x1, #-9223372036854775808").imm, INT64_MIN);
  EXPECT_EQ(MustParse("add x0, x00000000000000000000030, #1").rn, Reg::X(30));
}

TEST(Parser, FullFileWithSections) {
  const char* src = R"(
// comment
.globl _start
.text
_start:
  adrp x0, msg
  add x0, x0, :lo12:msg
  mov w1, #14
loop:
  subs w1, w1, #1
  b.ne loop
  ret
.data
msg:
  .asciz "hello, world\n"
counter:
  .quad 0
table:
  .quad loop, _start
.bss
buf:
  .zero 4096
)";
  auto f = Parse(src);
  ASSERT_TRUE(f.ok()) << f.error();
  int labels = 0, insts = 0, dirs = 0;
  for (const auto& s : f->stmts) {
    switch (s.kind) {
      case AsmStmt::Kind::kLabel: ++labels; break;
      case AsmStmt::Kind::kInst: ++insts; break;
      case AsmStmt::Kind::kDirective: ++dirs; break;
      default: break;
    }
  }
  EXPECT_EQ(labels, 6);
  EXPECT_EQ(insts, 6);
  EXPECT_GE(dirs, 7);
}

// A statement's one string holds the name its kind carries: a label's
// name, a .globl symbol, the bytes of an .asciz, a branch or :lo12:
// target. Printing a statement and parsing it again gives it back.
TEST(Parser, SymHoldsTheNameEachKindCarries) {
  auto f = Parse(
      ".globl _start\n"
      "_start:\n"
      "  tbz x3, #1, far\n"
      "  add x0, x0, :lo12:msg\n"
      "  b.ne _start\n"
      ".data\n"
      "msg: .asciz \"a\\0b\\nc\"\n");
  ASSERT_TRUE(f.ok()) << f.error();
  using Kind = AsmStmt::Kind;
  const struct {
    Kind kind;
    Reloc reloc;
    std::string sym;
  } want[] = {
      {Kind::kDirective, Reloc::kNone, "_start"},
      {Kind::kLabel, Reloc::kNone, "_start"},
      {Kind::kInst, Reloc::kBranch, "far"},
      {Kind::kInst, Reloc::kLo12, "msg"},
      {Kind::kInst, Reloc::kBranch, "_start"},
      {Kind::kDirective, Reloc::kNone, ""},
      {Kind::kLabel, Reloc::kNone, "msg"},
      {Kind::kDirective, Reloc::kNone, std::string("a\0b\nc", 5)},
  };
  ASSERT_EQ(f->stmts.size(), std::size(want));
  for (size_t k = 0; k < std::size(want); ++k) {
    const AsmStmt& s = f->stmts[k];
    SCOPED_TRACE(PrintStmt(s));
    EXPECT_EQ(s.kind, want[k].kind);
    EXPECT_EQ(s.reloc, want[k].reloc);
    EXPECT_EQ(s.sym, want[k].sym);
    auto again = Parse(PrintStmt(s));
    ASSERT_TRUE(again.ok()) << again.error();
    ASSERT_EQ(again->stmts.size(), 1u);
    EXPECT_EQ(again->stmts[0].kind, s.kind);
    EXPECT_EQ(again->stmts[0].reloc, s.reloc);
    EXPECT_EQ(again->stmts[0].sym, s.sym);
  }
  EXPECT_EQ(f->stmts[0].dir.kind, Directive::Kind::kGlobl);
  EXPECT_EQ(f->stmts[7].dir.kind, Directive::Kind::kAsciz);
}

TEST(Printer, RoundTripsThroughParser) {
  const std::vector<std::string> lines = {
      "add x0, x1, #16",
      "add x18, x21, w7, uxtw",
      "add sp, x21, x22",
      "subs w2, w3, w4, lsr #5",
      "movz x9, #48879, lsl #16",
      "madd x1, x2, x3, x4",
      "csel x0, x1, x2, lt",
      "ldr x0, [x21, w2, uxtw]",
      "ldrsh x5, [sp, #18]",
      "str q1, [x23, #32]",
      "stp x29, x30, [sp, #-32]!",
      "ldp x29, x30, [sp], #32",
      "ldxr x0, [x18]",
      "stxr w1, x2, [x24]",
      "fmadd d0, d1, d2, d3",
      "fadd v0.4s, v1.4s, v2.4s",
      "scvtf d1, x2",
      "ret",
  };
  for (const auto& line : lines) {
    auto s1 = ParseInst(line);
    ASSERT_TRUE(s1.ok()) << line << ": " << s1.error();
    const std::string printed = PrintStmt(*s1);
    auto s2 = ParseInst(printed);
    ASSERT_TRUE(s2.ok()) << printed << ": " << s2.error();
    EXPECT_EQ(s1->inst, s2->inst) << line << " vs " << printed;
  }
}

TEST(Assemble, SimpleProgramLayout) {
  const char* src = R"(
.text
_start:
  adrp x0, msg
  add x0, x0, :lo12:msg
  b next
  nop
next:
  ret
.data
msg:
  .asciz "hi"
)";
  auto f = Parse(src);
  ASSERT_TRUE(f.ok()) << f.error();
  LayoutSpec spec;
  spec.text_offset = 0x20000;
  auto img = Assemble(*f, spec);
  ASSERT_TRUE(img.ok()) << img.error();
  EXPECT_EQ(img->text_addr, 0x20000u);
  EXPECT_EQ(img->text.size(), 20u);
  EXPECT_EQ(img->entry, 0x20000u);
  ASSERT_TRUE(img->symbols.count("msg"));
  EXPECT_EQ(img->symbols.at("msg"), img->data_addr);
  // The b should skip one instruction: offset +8.
  auto insts = arch::DecodeAll(img->text);
  ASSERT_TRUE(insts.ok()) << insts.error();
  EXPECT_EQ((*insts)[2].mn, Mn::kB);
  EXPECT_EQ((*insts)[2].imm, 8);
  // adrp's page offset must reach the data page.
  EXPECT_EQ((*insts)[0].mn, Mn::kAdrp);
  EXPECT_EQ(static_cast<uint64_t>((*insts)[0].imm),
            (img->data_addr & ~uint64_t{0xfff}) - 0x20000);
  // lo12 of msg.
  EXPECT_EQ((*insts)[1].imm,
            static_cast<int64_t>(img->data_addr & 0xfff));
}

TEST(Assemble, JumpTableSymbols) {
  const char* src = R"(
.text
a:
  nop
b:
  ret
.rodata
table:
  .quad a, b
  .word a
)";
  auto f = Parse(src);
  ASSERT_TRUE(f.ok()) << f.error();
  auto img = Assemble(*f, LayoutSpec{});
  ASSERT_TRUE(img.ok()) << img.error();
  ASSERT_EQ(img->rodata.size(), 20u);
  uint64_t e0 = 0, e1 = 0;
  for (int k = 0; k < 8; ++k) e0 |= uint64_t{img->rodata[k]} << (8 * k);
  for (int k = 0; k < 8; ++k) e1 |= uint64_t{img->rodata[8 + k]} << (8 * k);
  EXPECT_EQ(e0, img->symbols.at("a"));
  EXPECT_EQ(e1, img->symbols.at("b"));
}

TEST(Assemble, ErrorsOnUndefinedLabel) {
  auto f = Parse(".text\nb nowhere\n");
  ASSERT_TRUE(f.ok());
  auto img = Assemble(*f, LayoutSpec{});
  EXPECT_FALSE(img.ok());
}

TEST(Assemble, ErrorsOnUnexpandedRtcall) {
  auto f = Parse(".text\nrtcall #1\n");
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(Assemble(*f, LayoutSpec{}).ok());
}

TEST(Assemble, ErrorsOnDataInText) {
  auto f = Parse(".data\nnop\n");
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(Assemble(*f, LayoutSpec{}).ok());
}

TEST(Assemble, ErrorsOnSectionLargerThanSandbox) {
  // Addresses are 32-bit sandbox offsets. Exactly 4GiB of .bss fits the
  // check; one byte more in .bss or .data does not, and is rejected
  // before any byte of the image is built.
  for (const char* src : {".bss\n.zero 2147483648\n.zero 2147483649\n",
                          ".data\n.byte 1, 2\n.zero 4294967295\n"}) {
    auto f = Parse(src);
    ASSERT_TRUE(f.ok()) << f.error();
    auto img = Assemble(*f, LayoutSpec{});
    ASSERT_FALSE(img.ok()) << src;
    EXPECT_NE(img.error().find("4GiB"), std::string::npos) << img.error();
  }
  auto f = Parse(".bss\n.zero 2147483648\n.zero 2147483648\n");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(Assemble(*f, LayoutSpec{}).ok());
}

// --- Golden corpus: the parser's exact output on a few thousand lines. ---
//
// Every distinct statement shape the fuzz grammar and the 15 workload
// generators emit, every mnemonic and directive the parser knows, and
// seeded mutations of all of them (punctuation, case, whitespace,
// comments, labels, truncation, out-of-range numbers). Each input is
// recorded with a field-complete dump of its statements or its exact
// error text, so any change to what the parser accepts or builds shows
// up as a golden diff. Regenerate with LFI_UPDATE_GOLDEN=1.

std::string Escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\\') {
      out += "\\\\";
    } else if (u >= 0x20 && u < 0x7f) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    }
  }
  return out;
}

// Fields that differ from a default-constructed Inst, so the dump stays
// short yet determines the value completely.
std::string DumpInst(const arch::Inst& i) {
  const arch::Inst d;
  std::ostringstream os;
  os << "mn=" << int(i.mn);
  auto num = [&](const char* name, int64_t v, int64_t dv) {
    if (v != dv) os << " " << name << "=" << v;
  };
  auto reg = [&](const char* name, arch::Reg v, arch::Reg dv) {
    num(name, v.id(), dv.id());
  };
  auto vreg = [&](const char* name, arch::VReg v, arch::VReg dv) {
    num(name, v.id(), dv.id());
  };
  num("width", int(i.width), int(d.width));
  reg("rd", i.rd, d.rd);
  reg("rn", i.rn, d.rn);
  reg("rm", i.rm, d.rm);
  reg("ra", i.ra, d.ra);
  vreg("vd", i.vd, d.vd);
  vreg("vn", i.vn, d.vn);
  vreg("vm", i.vm, d.vm);
  vreg("va", i.va, d.va);
  num("fsize", int(i.fsize), int(d.fsize));
  num("imm", i.imm, d.imm);
  num("shift", int(i.shift), int(d.shift));
  num("ext", int(i.ext), int(d.ext));
  num("shamt", i.shift_amount, d.shift_amount);
  num("cond", int(i.cond), int(d.cond));
  num("immr", i.immr, d.immr);
  num("imms", i.imms, d.imms);
  reg("base", i.mem.base, d.mem.base);
  num("mode", int(i.mem.mode), int(d.mem.mode));
  num("mimm", i.mem.imm, d.mem.imm);
  reg("index", i.mem.index, d.mem.index);
  num("mshift", i.mem.shift, d.mem.shift);
  num("msize", i.msize, d.msize);
  num("msigned", i.msigned, d.msigned);
  reg("rt", i.rt, d.rt);
  reg("rt2", i.rt2, d.rt2);
  reg("rs", i.rs, d.rs);
  vreg("vt", i.vt, d.vt);
  num("bit", i.bit, d.bit);
  num("nzcv", i.nzcv, d.nzcv);
  return os.str();
}

// `sym` is dumped under the name its statement kind gives it: a label's
// label=, a directive's text= and an instruction's target=.
std::string DumpStmt(const AsmStmt& s) {
  using Kind = AsmStmt::Kind;
  const bool is_inst = s.kind != Kind::kLabel && s.kind != Kind::kDirective;
  const std::string_view text =
      s.kind == Kind::kDirective ? std::string_view(s.sym) : "";
  std::ostringstream os;
  os << "L" << s.line << " kind=" << int(s.kind);
  if (s.kind == Kind::kLabel && !s.sym.empty()) {
    os << " label=\"" << Escape(s.sym) << "\"";
  }
  const Directive& d = s.dir;
  const Directive dd;
  if (d.kind != dd.kind || d.section != dd.section || !d.values.empty() ||
      !d.syms.empty() || !text.empty()) {
    os << " dir=" << int(d.kind) << " section=" << int(d.section)
       << " values=[";
    for (size_t k = 0; k < d.values.size(); ++k) {
      os << (k ? "," : "") << d.values[k];
    }
    os << "] syms=[";
    for (size_t k = 0; k < d.syms.size(); ++k) {
      os << (k ? "," : "") << "\"" << Escape(d.syms[k]) << "\"";
    }
    os << "] text=\"" << Escape(text) << "\"";
  }
  if (is_inst) {
    os << " " << DumpInst(s.inst);
  } else if (!(s.inst == arch::Inst{})) {
    os << " inst: " << DumpInst(s.inst);
  }
  if (s.reloc != Reloc::kNone) os << " reloc=" << int(s.reloc);
  if (is_inst && !s.sym.empty()) os << " target=\"" << Escape(s.sym) << "\"";
  return os.str();
}

// A random position where `pred(s, k)` holds, or npos if there is none.
template <typename Pred>
size_t PickPos(fuzz::Rng& rng, const std::string& s, Pred pred) {
  std::vector<size_t> pos;
  for (size_t k = 0; k < s.size(); ++k) {
    if (pred(s, k)) pos.push_back(k);
  }
  return pos.empty() ? std::string::npos : pos[rng.Below(pos.size())];
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// One seeded mutation of `line`.
std::string Mutate(fuzz::Rng& rng, std::string line) {
  static const char* const kRegNums[] = {"31", "32", "99", "4294967297",
                                         "4294967298", "4294967299",
                                         "00000000000000000000003"};
  static const char* const kHuge[] = {
      "18446744073709551617", "18446744073709551615", "9223372036854775808",
      "9223372036854775807",  "0xffffffffffffffff",   "0x10000000000000000",
      "-9223372036854775808", "-18446744073709551617", "99999999999999999999",
      "0x8000000000000000",   "4294967296",           "0x"};
  static const char kPunct[] = {'[', ']', '!'};
  static const char* const kLineEnds[] = {"\r", "\v", "\f", " \r"};
  static const char kFlips[] = {':', '!', '-',    '+',    '.', ' ',
                                '"', '\x80', '\xff', '\0', '#'};
  auto at = [&](char c) {
    return PickPos(rng, line, [c](const std::string& s, size_t k) {
      return s[k] == c;
    });
  };
  switch (rng.Below(16)) {
    case 0: {  // delete a comma
      const size_t p = at(',');
      if (p != std::string::npos) line.erase(p, 1);
      break;
    }
    case 1: {  // duplicate a comma
      const size_t p = at(',');
      if (p != std::string::npos) line.insert(p, ",");
      break;
    }
    case 2: {  // delete a bracket
      const size_t p = at(rng.Chance(50) ? '[' : ']');
      if (p != std::string::npos) line.erase(p, 1);
      break;
    }
    case 3: {  // duplicate a bracket or `!`
      const size_t p = at(rng.Pick(kPunct));
      if (p != std::string::npos) line.insert(p, 1, line[p]);
      break;
    }
    case 4:  // uppercase the whole line
      for (char& c : line) {
        if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 32);
      }
      break;
    case 5:  // uppercase some letters
      for (char& c : line) {
        if (c >= 'a' && c <= 'z' && rng.Chance(40)) {
          c = static_cast<char>(c - 32);
        }
      }
      break;
    case 6: {  // extra tabs and spaces
      const int n = 1 + static_cast<int>(rng.Below(3));
      for (int k = 0; k < n; ++k) {
        const size_t p = rng.Below(line.size() + 1);
        line.insert(p, rng.Chance(50) ? "\t" : "  ");
      }
      break;
    }
    case 7:  // trailing or mid-line comment
      if (rng.Chance(50) || line.empty()) {
        line += rng.Chance(50) ? " // note, [x1]" : "//";
      } else {
        line.insert(rng.Below(line.size()), "// cut");
      }
      break;
    case 8:  // several labels on one line
      line = (rng.Chance(50) ? "a: b:\t" : ".L1:c$d:") + line;
      break;
    case 9:  // truncation
      line.resize(rng.Below(line.size() + 1));
      break;
    case 10: {  // register number out of range
      const size_t p = PickPos(rng, line, [](const std::string& s, size_t k) {
        return k > 0 && IsDigit(s[k]) && !IsDigit(s[k - 1]) &&
               std::string_view("xXwWsSdDqQvV").find(s[k - 1]) !=
                   std::string_view::npos;
      });
      if (p != std::string::npos) {
        size_t e = p;
        while (e < line.size() && IsDigit(line[e])) ++e;
        line.replace(p, e - p, rng.Pick(kRegNums));
      }
      break;
    }
    case 11: {  // huge literal
      const size_t p = at('#');
      if (p != std::string::npos) {
        size_t e = p + 1;
        while (e < line.size() &&
               (IsDigit(line[e]) || line[e] == '-' || line[e] == 'x')) {
          ++e;
        }
        line.replace(p + 1, e - p - 1, rng.Pick(kHuge));
      } else {
        line += ", #";
        line += rng.Pick(kHuge);
      }
      break;
    }
    case 12:  // CRLF line ending, or other ASCII whitespace
      line += rng.Pick(kLineEnds);
      break;
    case 13: {  // drop or add the space after the mnemonic
      const size_t p = line.find_first_of(" \t");
      if (p != std::string::npos) {
        line.erase(p, 1);
      } else {
        line += " ";
      }
      break;
    }
    case 14: {  // delete or duplicate a `#`
      const size_t p = at('#');
      if (p != std::string::npos) {
        if (rng.Chance(50)) {
          line.erase(p, 1);
        } else {
          line.insert(p, "#");
        }
      }
      break;
    }
    default: {  // flip one byte to a punctuation or high byte
      if (line.empty()) break;
      line[rng.Below(line.size())] = rng.Pick(kFlips);
      break;
    }
  }
  return line;
}

// Lines covering every mnemonic and directive the parser knows, including
// the forms the generators never emit.
const char* const kHandLines[] = {
    "add v0.4s, v1.4s, v2.4s", "add v3.2d, v4.2d, v5.2d", "add v0.4s, v1.2d",
    "add v0.8b, v1.8b, v2.8b", "adds x0, x1, #-4", "subs w0, w1, #-4",
    "sub x0, x1, #-9223372036854775807", "add x0, x1, w2, sxtw #2",
    "adds x0, x1, w2, uxtw", "add x0, x1, x2, asr #63", "add x0, x1, x2, lsl",
    "add x0, x1, x2, lsl #3, lsl #3", "add x0, x1, :lo12:s",
    "sub x0, x1, :lo12:s", "add x0, x1, :lo12:", "cmp w1, w2", "cmn x1, #3",
    "cmp x1", "cmp", "cmn w1, w2, uxtb", "and x0, x1, #255",
    "ands w0, w1, #0xff00ff00", "orr x0, x1, #-1", "eor w0, w1, #-1",
    "bic x0, x1, #1", "bic x0, x1, x2, ror #7", "orr x0, x1, x2, uxtw",
    "tst x0, #1", "tst w1, w2", "tst", "neg x0, x1", "neg w0, w1, lsl #2",
    "mov sp, x0", "mov wsp, w0", "mov x0, #65535", "mov x0, #65536",
    "mov x0, #-65536", "mov x0, #-65537", "mov x0, :lo12:s", "mov x0",
    "mov #1, x0", "movz w0, #1, lsl #16", "movn x0, #7", "movk x0, #1, lsl #48",
    "movz x0, #1, lsr #16", "movz x0, #1, lsl", "movz x0", "lsl x0, x1, #63",
    "lsl w0, w1, #32", "lsr w0, w1, #31", "asr x0, x1, #0", "lsl x0, x1, x2",
    "sxtw x0, w1", "sxtb w0, w1", "sxth x0, w1", "uxtb w0, w1", "uxth w0, w1",
    "uxtw x0, w1", "ubfm x0, x1, #4, #60", "sbfm w0, w1, #1, #2",
    "ubfm x0, x1, #4", "mul w0, w1, w2", "madd x0, x1, x2, x3",
    "msub x0, x1, x2, x3", "mneg x0, x1, x2", "mul x0, x1, #2",
    "sdiv x0, x1, x2", "udiv w0, w1, w2", "umulh x0, x1, x2",
    "smulh x0, x1, x2", "sdiv x0, x1", "sdiv x0, #1, x2", "ccmp x0, x1, #4, ne",
    "ccmn w0, #31, #15, hs", "ccmp x0, #1, #0, cs", "ccmp x0, x1, #0, zz",
    "ccmp x0, [x1], #0, eq", "ccmp x0, x1, #0, #1", "extr x0, x1, x2, #5",
    "ror w0, w1, #3", "extr x0, x1, #5", "ror x0, x1, x2",
    "csel w0, w1, w2, AL", "csinc x0, x1, x2, Lo", "csinv x0, x1, x2, cc",
    "csneg x0, x1, x2, vs", "csel x0, x1, x2, nv", "csel x0, x1, x2, eqq",
    "cset x0, mi", "cset x0, al", "cset x0, pl, vc", "clz x0, x1",
    "rbit w0, w1", "rev x0, x1", "clz x0", "adr x0, lab", "adrp x1, sym",
    "adr w0, lab", "adr x0, #8", "ldrsb w0, [x1]", "ldrsh x0, [x1, #2]",
    "ldrsw x0, [x1]", "ldrsw w0, [x1]", "ldrh x0, [x1]", "strb w0, [x1, #1]!",
    "strh w0, [x1], #2", "ldur x0, [x1, #-8]", "stur w0, [x1, #-4]",
    "ldr s0, [x1]", "str d0, [x1, #8]", "ldr q0, [x1], #16", "ldrb s0, [x1]",
    "ldr v0.4s, [x1]", "ldr x0, [x1, x2]", "ldr x0, [x1, w2]",
    "ldr x0, [x1, w2, sxtx]", "ldr x0, [x1, x2, uxtw]",
    "ldr x0, [x1, w2, uxtb]", "ldr x0, [x1, x2, lsr #3]",
    "ldr x0, [x1, x2, lsl #3]!", "ldr x0, [x1, :lo12:s]",
    "ldr x0, [x1, #8], #8", "ldr x0, [x1], x2", "ldr x0, [x1], #-8",
    "ldr x0, [xzr]", "ldr x0, [sp]", "ldr x0, [wsp]",
    "ldr x0, [x1, #1, #2, #3]", "ldr x0, []", "ldr x0, [x1, lsl #3]",
    "ldr x0, x1", "ldr x0, [x1] !", "ldr x0, [ x1 , #8 ]",
    "ldp w0, w1, [x2, #8]!", "stp x0, x1, [x2], #-16", "ldp x0, [x2]",
    "ldxr w0, [x1]", "ldar x0, [x1]", "stlr w0, [x1]", "ldxr x0, [x1, #8]",
    "stxr w0, x1, [x2]", "stxr w0, w1, [x2], #4", "b lab", "bl lab", "b.eq lab",
    "b.al lab", "b.nv lab", "b.EQ lab", "b.hs lab, x0", "b", "b #8", "cbz x0",
    "cbnz w0, lab", "tbz w0, #3, lab", "tbnz x0, #63, lab", "tbz x0, x1, lab",
    "br x0", "blr x30", "br sp", "br #1", "ret", "ret x1", "ret #1",
    "ret x0, x1", "fadd s0, s1, s2", "fsub d0, d1, d2",
    "fmul v0.2d, v1.2d, v2.2d", "fdiv d0, d1, d2", "fsub v0.4s, v1.4s, v2.4s",
    "fadd d0, d1, x2", "fsqrt d0, d1", "fsqrt s0, x1", "fmadd d0, d1, d2, d3",
    "fmadd d0, x1, d2, d3", "fmadd d0, d1, d2", "fcmp d0, d1", "fcmp d0, #0",
    "scvtf d0, x1", "scvtf s0, w1", "fcvtzs w0, d1", "fcvtzs x0, s1",
    "fmov d0, d1", "fmov x0, d1", "fmov d0, x1", "fmov x0, x1", "fmov d0, #1",
    "nop", "nop x0", "svc #0", "brk #1000", "svc", "brk x0", "rtcall #3",
    "rtcall", "rtcall x0", "hostcall #2", "hostcall #-1", "frob x0", "", "   ",
    "x0", ":", "::", "lab:", "lab: nop", "a:b:c: ret", "1: nop", "$x.y_z: nop",
    "lab :", "v32.4s", "add v32.4s, v1.4s, v2.4s", "fadd s32, s1, s2",
    "fadd s31, s1, s2", "add x31, x0, x1", "add x30, xzr, x1",
    "add w0, wzr, #1", "add x01, x02, #03", "add x0, x1, #0x10",
    "add x0, x1, #0X1f", "add x0, x1, #+5", "add x0, x1, #-", "add x0, x1, #",
    "add x0, x1, 16", "add x0, x1, -16", "add x0, x1, #1f", "add x0, x1, #0x",
    ".text", ".data", ".rodata", ".bss", ".section .rodata",
    ".section .data.rel", ".section .bss.foo", ".section .text.hot",
    ".section .RODATA", ".section", ".globl _start", ".global main", ".globl",
    ".balign 16", ".align 3", ".p2align 4", ".balign 0", ".balign -4",
    ".balign", ".p2align 63", ".p2align 64", ".byte 1, 2, 0xff",
    ".word 1, sym, -1", ".quad sym, 0x10, lab", ".xword 7", ".byte", ".quad ,",
    ".word 1,,2", ".asciz \"hi\\n\"", ".string \"a\\tb\\0c\\\\d\\\"e\\q\"",
    ".asciz \"unterminated", ".asciz hi", ".asciz \"\"", ".asciz \"\\\"",
    ".zero 64", ".space 8", ".skip 0", ".zero -1", ".zero",
    ".type f, %function", ".size f, .-f", ".file \"a.c\"", ".ident \"gcc\"",
    ".arch armv8-a", ".cfi_startproc", ".cfi_endproc", ".cfi_def_cfa_offset 16",
    ".cfi_offset 29, -16", ".cfi_restore 30", ".weak f", ".TEXT", ".Text", ".",
    ".text junk", "\t.text\t", ".quad 18446744073709551617",
    ".zero 18446744073709551617", ".balign 4294967297",
    "add x4294967297, x0, #1", "ldr x0, [x4294967298]",
    "fadd d4294967299, d0, d1", "mov x0, #18446744073709551617",
    "add x0, x1, #0x8000000000000000", "mov x0, #-9223372036854775808",
    "mov x0, #0xffffffffffffffff", "add x0, x1, #-18446744073709551615",
};

// Narrow fields at and past the edges of their range, and operands of the
// wrong kind. Recorded without mutations, after every other line, so they
// leave the mutation seeds of the lines above unchanged.
const char* const kFieldLines[] = {
    "lsl x0, x1, #264", "lsl w0, w1, #31", "lsl w0, w1, #288",
    "lsr x0, x1, #-1", "asr x0, x1, #320", "add x0, x1, x2, lsl #63",
    "add x0, x1, x2, lsl #264", "add x0, x1, x2, lsl #-1",
    "add x0, x1, w2, uxtw #2", "add x0, x1, w2, uxtw #258",
    "and x0, x1, x2, ror #256", "movz x0, #1, lsl #48",
    "movz x0, #1, lsl #272", "movk w0, #1, lsl #-16",
    "ldr x0, [x1, x2, lsl #3]", "ldr x0, [x1, x2, lsl #259]",
    "ldr x0, [x1, w2, sxtw #258]", "tbz x0, #63, lab", "tbz x0, #64, lab",
    "tbz x0, #300, lab", "tbnz w0, #-1, lab", "ubfm x0, x1, #63, #63",
    "ubfm x0, x1, #260, #3", "sbfm x0, x1, #3, #300", "ubfm x0, x1, #-1, #3",
    "ccmp x0, x1, #15, eq", "ccmp x0, x1, #16, eq", "ccmp x0, #1, #256, ne",
    "ccmn w0, w1, #-1, lt", "ror x0, x1, #63", "ror x0, x1, #300",
    "extr x0, x1, x2, #63", "extr x0, x1, x2, #256", "sdiv x99, x1, x2",
    "udiv x0, x1, lab", "umulh x0, x1, #3", "smulh x0, d1, x2",
    "fmadd d0, d1, d2, x3", "fmadd d0, #1, d2, d3", "fmadd d0, d1, lab, d3",
    "ret lab", "ret #0", "ret d0",
};

// Distinct statement shapes (digit runs collapsed) from the fuzz grammar
// and the workload generators, in first-seen order.
std::vector<std::string> ShapeLines() {
  std::vector<std::string> sources = fuzz::SeedCorpusAsm();
  for (uint64_t k = 0; k < 64; ++k) {
    fuzz::Rng rng(fuzz::DeriveSeed(0x9a55, k));
    sources.push_back(fuzz::GenAsmProgram(rng));
  }
  for (const auto& w : workloads::AllWorkloads()) {
    sources.push_back(workloads::Generate(w.name, 2000));
  }
  std::vector<std::string> out;
  std::map<std::string, bool> seen;
  for (const std::string& src : sources) {
    std::istringstream in(src);
    for (std::string line; std::getline(in, line);) {
      std::string key;
      for (size_t k = 0; k < line.size(); ++k) {
        if (IsDigit(line[k])) {
          if (k == 0 || !IsDigit(line[k - 1])) key += '0';
        } else {
          key += line[k];
        }
      }
      if (!seen[key]) {
        seen[key] = true;
        out.push_back(line);
      }
    }
  }
  return out;
}

std::string ParseDump(std::string_view src) {
  std::string out;
  auto f = Parse(src);
  if (!f.ok()) return "  err: " + Escape(f.error()) + "\n";
  for (const auto& s : f->stmts) out += "  " + DumpStmt(s) + "\n";
  // ParseInst on the same text: recorded in full only where it is not
  // the single instruction statement Parse built.
  auto pi = ParseInst(src);
  if (!pi.ok()) {
    out += "  inst err: " + Escape(pi.error()) + "\n";
  } else {
    AsmStmt same = *pi;
    same.line = 1;
    if (f->stmts.size() != 1 || DumpStmt(same) != DumpStmt(f->stmts[0])) {
      out += "  inst: " + DumpStmt(*pi) + "\n";
    }
  }
  return out;
}

std::string GoldenSnapshot() {
  std::vector<std::string> inputs;
  for (const char* l : kHandLines) inputs.push_back(l);
  for (const std::string& l : ShapeLines()) inputs.push_back(l);
  const size_t bases = inputs.size();
  for (size_t k = 0; k < bases; ++k) {
    fuzz::Rng rng(fuzz::DeriveSeed(0x90d, k));
    for (int m = 0; m < 4; ++m) {
      std::string line = Mutate(rng, inputs[k]);
      if (rng.Chance(25)) line = Mutate(rng, line);
      inputs.push_back(line);
    }
  }
  for (const char* l : kFieldLines) inputs.push_back(l);
  std::string out =
      "# asmtext parser golden: `> input` then its statements "
      "(L<line> kind=...) or `err:`\n";
  for (const std::string& in : inputs) {
    out += "> " + Escape(in) + "\n" + ParseDump(in);
  }
  // Whole files: line numbers, blank and comment-only lines, labels
  // sharing a line with a statement, a last line without a newline.
  const std::string files[] = {
      fuzz::SeedCorpusAsm()[0],
      "\n// head\n.text\n_start: a:\tnop // tail\n\n  ret\r\n.data\nv: .quad 1",
      "nop\nnop\nfrob x0\nnop\n",
  };
  for (const std::string& f : files) {
    out += ">> " + Escape(f) + "\n" + ParseDump(f);
  }
  return out;
}

TEST(Parser, GoldenCorpus) {
  test::CheckGolden(GoldenSnapshot(), LFI_PARSER_GOLDEN);
}

}  // namespace
}  // namespace lfi::asmtext
