// FailKind coverage matrix: every rejection kind the verifier can emit
// must be produced by at least one crafted text here, with the expected
// fail_offset. Adding a FailKind without extending CasesFor() fails
// loudly. Plus exact FailKind transitions at the slot layout's guard and
// call-table edges (runtime/layout.h), and VerifyOptions interaction
// tests under check_loads/allow_llsc combinations.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "verifier/verifier.h"

namespace lfi::verifier {
namespace {

std::vector<uint8_t> AssembleRaw(const std::string& src) {
  auto f = asmtext::Parse(src);
  EXPECT_TRUE(f.ok()) << (f.ok() ? "" : f.error());
  asmtext::LayoutSpec spec;
  auto img = asmtext::Assemble(*f, spec);
  EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error());
  return img.ok() ? img->text : std::vector<uint8_t>{};
}

VerifyResult Check(const std::string& src, VerifyOptions opts = {}) {
  auto text = AssembleRaw(src);
  return Verify({text.data(), text.size()}, opts);
}

struct KindCase {
  std::string name;
  // Either raw bytes (for texts the assembler cannot produce) or source.
  std::vector<uint8_t> bytes;
  std::string src;
  VerifyOptions opts;
  uint64_t fail_offset = 0;
};

// The coverage matrix. Every FailKind in (kNone, kCount) must have at
// least one case; returns nullopt for kinds with no case, which the test
// below reports as a loud failure naming the kind.
std::optional<std::vector<KindCase>> CasesFor(FailKind k) {
  VerifyOptions no_llsc;
  no_llsc.allow_llsc = false;
  switch (k) {
    case FailKind::kNone:
    case FailKind::kCount:
      return std::vector<KindCase>{};  // not real rejection kinds
    case FailKind::kTextSize:
      return std::vector<KindCase>{
          {"3-byte text", {1, 2, 3}, "", {}, 0},
          {"7-byte text", {0x1F, 0x20, 0x03, 0xD5, 1, 2, 3}, "", {}, 4},
      };
    case FailKind::kUndecodable:
      return std::vector<KindCase>{
          {"zero word after nop",
           {0x1F, 0x20, 0x03, 0xD5, 0, 0, 0, 0},
           "", {}, 4},
      };
    case FailKind::kSystemInstruction:
      return std::vector<KindCase>{
          {"svc", {}, "nop\nsvc #0\n", {}, 4},
      };
    case FailKind::kLlscDisallowed:
      return std::vector<KindCase>{
          {"ldxr with llsc off", {}, "add x18, x21, w0, uxtw\nldxr x1, [x18]\n",
           no_llsc, 4},
          {"stxr with llsc off", {}, "add x18, x21, w0, uxtw\n"
           "stxr w2, x1, [x18]\n", no_llsc, 4},
      };
    case FailKind::kBadAddressingMode:
      return std::vector<KindCase>{
          {"unguarded base", {}, "nop\nldr x0, [x1]\n", {}, 4},
          {"sxtw register offset", {},
           "ldr x0, [x21, w2, sxtw]\n", {}, 0},
      };
    case FailKind::kGuardRangeOverflow:
      return std::vector<KindCase>{
          {"imm past the guard", {}, "ldr q0, [x18, #49152]\n", {}, 0},
      };
    case FailKind::kReservedWriteback:
      return std::vector<KindCase>{
          {"post-index on x18", {}, "ldr x0, [x18], #8\n", {}, 0},
      };
    case FailKind::kUnguardedIndirectBranch:
      return std::vector<KindCase>{
          {"br scratch", {}, "nop\nbr x1\n", {}, 4},
          {"blr scratch", {}, "blr x9\n", {}, 0},
      };
    case FailKind::kBaseRegWrite:
      return std::vector<KindCase>{
          {"arith into x21", {}, "add x21, x21, #1\n", {}, 0},
          {"load into x21", {}, "ldr x21, [sp]\n", {}, 0},
      };
    case FailKind::kAddressRegWrite:
      return std::vector<KindCase>{
          {"arith into x18", {}, "nop\nadd x18, x0, x1\n", {}, 4},
          {"wrong guard base", {}, "add x23, x0, w1, uxtw\n", {}, 0},
      };
    case FailKind::kScratchRegWrite:
      return std::vector<KindCase>{
          {"64-bit write to x22", {}, "add x22, x0, x1\n", {}, 0},
          {"load into x22", {}, "ldr x22, [sp]\n", {}, 0},
      };
    case FailKind::kLinkRegProtocol:
      return std::vector<KindCase>{
          {"table load without blr", {}, "ldr x30, [x21, #24]\nnop\n", {}, 0},
          {"arith into x30", {}, "add x30, x0, x1\n", {}, 0},
      };
    case FailKind::kSpProtocol:
      return std::vector<KindCase>{
          {"sp from scratch", {}, "add sp, x0, #16\n", {}, 0},
          {"undischarged adjust", {}, "sub sp, sp, #32\nret\n", {}, 0},
      };
  }
  return std::nullopt;
}

TEST(FailKindMatrix, EveryKindHasACoveredCase) {
  for (uint8_t i = 1; i < static_cast<uint8_t>(FailKind::kCount); ++i) {
    const FailKind kind = static_cast<FailKind>(i);
    const auto cases = CasesFor(kind);
    if (!cases.has_value()) {
      ADD_FAILURE() << "FailKind " << FailKindName(kind)
                    << " has no coverage case; add one to CasesFor()";
      continue;
    }
    EXPECT_FALSE(cases->empty())
        << "FailKind " << FailKindName(kind) << " has an empty case list";
    for (const KindCase& c : *cases) {
      const std::vector<uint8_t> text =
          c.src.empty() ? c.bytes : AssembleRaw(c.src);
      const VerifyResult r = Verify({text.data(), text.size()}, c.opts);
      EXPECT_FALSE(r.ok) << FailKindName(kind) << " / " << c.name
                         << ": unexpectedly accepted";
      EXPECT_EQ(r.kind, kind)
          << c.name << " rejected as " << FailKindName(r.kind) << " ("
          << r.reason << ")";
      EXPECT_EQ(r.fail_offset, c.fail_offset) << c.name;
    }
  }
}

TEST(FailKindMatrix, NamesAreStableAndDistinct) {
  std::vector<std::string> seen;
  for (uint8_t i = 0; i < static_cast<uint8_t>(FailKind::kCount); ++i) {
    const std::string name = FailKindName(static_cast<FailKind>(i));
    EXPECT_FALSE(name.empty());
    for (const auto& other : seen) EXPECT_NE(name, other);
    seen.push_back(name);
  }
}

// --- The slot layout's edges ---------------------------------------

TEST(VerifyOptionsMatrix, GuardBytesBoundaryExact) {
  // hi = imm + 16 must stay <= kGuardSize (48 KiB): 49136 is the last
  // legal q-register offset, and the scaled imm12 still encodes 49152.
  EXPECT_TRUE(Check("ldr q0, [x18, #49136]\n").ok);
  auto r = Check("ldr q0, [x18, #49152]\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.kind, FailKind::kGuardRangeOverflow);
  EXPECT_EQ(r.fail_offset, 0u);
}

TEST(VerifyOptionsMatrix, TableBytesBoundaryExact) {
  // Entry must fit: imm + 8 <= kCallTableBytes (4096, 512 entries).
  EXPECT_TRUE(Check("ldr x30, [x21, #4088]\nblr x30\n").ok);
  // One entry further is an ordinary x30 load, which needs its guard.
  auto r = Check("ldr x30, [x21, #4096]\nblr x30\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.kind, FailKind::kLinkRegProtocol);
  EXPECT_EQ(r.fail_offset, 0u);
}

// --- VerifyOptions interactions -------------------------------------

TEST(VerifyOptionsMatrix, CheckLoadsAndLlscInteraction) {
  VerifyOptions relaxed;       // loads unchecked, llsc allowed
  relaxed.check_loads = false;
  VerifyOptions strict;        // loads unchecked, llsc forbidden
  strict.check_loads = false;
  strict.allow_llsc = false;

  // Unguarded plain load: rejected by default, accepted when loads are
  // unchecked (stores stay checked either way).
  EXPECT_FALSE(Check("ldr x0, [x1]\n").ok);
  EXPECT_TRUE(Check("ldr x0, [x1]\n", relaxed).ok);
  EXPECT_FALSE(Check("str x0, [x1]\n", relaxed).ok);

  // LL/SC precedence: the llsc check fires before the (skipped) load
  // check, so an unguarded ldxr flips between kLlscDisallowed and
  // accepted purely on allow_llsc.
  EXPECT_TRUE(Check("ldxr x0, [x1]\n", relaxed).ok);
  auto r = Check("ldxr x0, [x1]\n", strict);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.kind, FailKind::kLlscDisallowed);

  // ldar is not LL/SC: stays accepted under strict (pure load).
  EXPECT_TRUE(Check("ldar x0, [x1]\n", strict).ok);
  // stlr is a store: still checked even with check_loads=false.
  EXPECT_FALSE(Check("stlr x0, [x1]\n", strict).ok);

  // Both options compose with the layout's edges: an unchecked load, the
  // last legal guard store and the last legal table entry are accepted.
  auto all = Check("ldr x0, [x1]\nstr q0, [x18, #49136]\n"
                   "ldr x30, [x21, #4088]\nblr x30\n", strict);
  EXPECT_TRUE(all.ok) << all.reason;
}

TEST(VerifyOptionsMatrix, UncheckedLoadsStillEnforceRegisterInvariants) {
  VerifyOptions relaxed;
  relaxed.check_loads = false;

  // Writeback on a reserved base is a register invariant, not an access
  // check: still rejected.
  auto r = Check("ldr x0, [x18], #8\n", relaxed);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.kind, FailKind::kReservedWriteback);

  // Loading INTO a reserved register stays governed by the write rules.
  EXPECT_FALSE(Check("ldr x21, [x1]\n", relaxed).ok);
  EXPECT_FALSE(Check("ldr x22, [x1]\n", relaxed).ok);

  // A load whose writeback lands in x30 is still an x30-writing load:
  // legal only with the guard, even though the access is unchecked.
  auto wb = Check("ldr x0, [x30], #8\nnop\n", relaxed);
  EXPECT_FALSE(wb.ok);
  EXPECT_EQ(wb.kind, FailKind::kLinkRegProtocol);
  EXPECT_TRUE(
      Check("ldr x0, [x30], #8\nadd x30, x21, w30, uxtw\n", relaxed).ok);
  auto lr = Check("ldr x30, [x1], #8\nnop\n", relaxed);
  EXPECT_FALSE(lr.ok);
  EXPECT_EQ(lr.kind, FailKind::kLinkRegProtocol);
  EXPECT_TRUE(
      Check("ldr x30, [x1], #8\nadd x30, x21, w30, uxtw\n", relaxed).ok);
}

}  // namespace
}  // namespace lfi::verifier
