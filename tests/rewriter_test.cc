// Rewriter tests: Table 3 transformations, SP/x30 optimizations, RGE,
// rtcall expansion, tbz range fix, and the rewritten-code-verifies
// property.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "asmtext/printer.h"
#include "fuzz/gen.h"
#include "fuzz/rng.h"
#include "golden_util.h"
#include "rewriter/rewriter.h"
#include "verifier/verifier.h"
#include "workloads/workloads.h"

#ifndef LFI_REWRITER_GOLDEN
#error "build must define LFI_REWRITER_GOLDEN (path to the golden file)"
#endif

namespace lfi::rewriter {
namespace {

using arch::AddrMode;
using arch::Mn;
using arch::Reg;
using asmtext::AsmFile;
using asmtext::AsmStmt;

AsmFile MustParse(const std::string& src) {
  auto f = asmtext::Parse(src);
  EXPECT_TRUE(f.ok()) << (f.ok() ? "" : f.error());
  return f.ok() ? *f : AsmFile{};
}

// Rewrites `src` and returns only the instruction statements.
std::vector<AsmStmt> RewriteInsts(const std::string& src,
                                  OptLevel level = OptLevel::kO2,
                                  bool loads = true) {
  RewriteOptions opts;
  opts.level = level;
  opts.sandbox_loads = loads;
  auto out = Rewrite(MustParse(src), opts);
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error());
  std::vector<AsmStmt> insts;
  if (out.ok()) {
    for (auto& s : out->stmts) {
      if (s.kind == AsmStmt::Kind::kInst) insts.push_back(s);
    }
  }
  return insts;
}

// Renders the rewritten instructions as one-per-line text for matching.
std::string RewriteText(const std::string& src,
                        OptLevel level = OptLevel::kO2, bool loads = true) {
  std::string out;
  for (const auto& s : RewriteInsts(src, level, loads)) {
    std::string line = asmtext::PrintStmt(s);
    // Strip leading tab.
    if (!line.empty() && line[0] == '\t') line = line.substr(1);
    out += line + "\n";
  }
  return out;
}

// --- Table 3 transformations at O1 ---

struct Table3Case {
  const char* input;
  const char* expected;  // exact rewritten text
};

class Table3Test : public ::testing::TestWithParam<Table3Case> {};

TEST_P(Table3Test, MatchesPaper) {
  EXPECT_EQ(RewriteText(GetParam().input, OptLevel::kO1),
            GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    LoadForms, Table3Test,
    ::testing::Values(
        // ldr rt, [xN] -> ldr rt, [x21, wN, uxtw]
        Table3Case{"ldr x0, [x1]", "ldr x0, [x21, w1, uxtw]\n"},
        // ldr rt, [xN, #i] -> add w22, wN, #i ; ldr rt, [x21, w22, uxtw]
        Table3Case{"ldr x0, [x1, #16]",
                   "add w22, w1, #16\nldr x0, [x21, w22, uxtw]\n"},
        // pre-index: add xN, xN, #i ; ldr rt, [x21, wN, uxtw]
        Table3Case{"ldr x0, [x1, #16]!",
                   "add x1, x1, #16\nldr x0, [x21, w1, uxtw]\n"},
        // post-index: ldr rt, [x21, wN, uxtw] ; add xN, xN, #i
        Table3Case{"ldr x0, [x1], #16",
                   "ldr x0, [x21, w1, uxtw]\nadd x1, x1, #16\n"},
        // register lsl: add w22, wN, wM, lsl #i ; guarded load
        Table3Case{"ldr x0, [x1, x2, lsl #3]",
                   "add w22, w1, w2, lsl #3\nldr x0, [x21, w22, uxtw]\n"},
        // uxtw: add w22, wN, wM, uxtw #i ; guarded load
        Table3Case{"ldr x0, [x1, w2, uxtw #3]",
                   "add w22, w1, w2, uxtw #3\nldr x0, [x21, w22, uxtw]\n"},
        // sxtw: add w22, wN, wM, sxtw #i ; guarded load
        Table3Case{"ldr x0, [x1, w2, sxtw #3]",
                   "add w22, w1, w2, sxtw #3\nldr x0, [x21, w22, uxtw]\n"},
        // Stores use the same transformations.
        Table3Case{"str x0, [x1]", "str x0, [x21, w1, uxtw]\n"},
        Table3Case{"str x0, [x1, #16]",
                   "add w22, w1, #16\nstr x0, [x21, w22, uxtw]\n"},
        // Negative ldur-style offsets use sub.
        Table3Case{"ldr x0, [x1, #-8]",
                   "sub w22, w1, #8\nldr x0, [x21, w22, uxtw]\n"}));

TEST(Rewriter, O0UsesBasicGuard) {
  EXPECT_EQ(RewriteText("ldr x0, [x1]", OptLevel::kO0),
            "add x18, x21, w1, uxtw\nldr x0, [x18]\n");
  // Immediate offsets stay on the access (they stay within the guard
  // region).
  EXPECT_EQ(RewriteText("ldr x0, [x1, #16]", OptLevel::kO0),
            "add x18, x21, w1, uxtw\nldr x0, [x18, #16]\n");
  // Register-offset modes collapse into w22 first.
  EXPECT_EQ(RewriteText("ldr x0, [x1, x2, lsl #3]", OptLevel::kO0),
            "add w22, w1, w2, lsl #3\nadd x18, x21, w22, uxtw\n"
            "ldr x0, [x18]\n");
}

TEST(Rewriter, PairAndAtomicsUseBasicGuardAtO1) {
  // ldp/stp and exclusives have no guarded addressing mode (Section 4.1).
  EXPECT_EQ(RewriteText("ldp x2, x3, [x1, #16]", OptLevel::kO1),
            "add x18, x21, w1, uxtw\nldp x2, x3, [x18, #16]\n");
  EXPECT_EQ(RewriteText("ldxr x2, [x1]", OptLevel::kO1),
            "add x18, x21, w1, uxtw\nldxr x2, [x18]\n");
  EXPECT_EQ(RewriteText("stlr x2, [x1]", OptLevel::kO1),
            "add x18, x21, w1, uxtw\nstlr x2, [x18]\n");
}

TEST(Rewriter, SpAccessesNeedNoGuard) {
  EXPECT_EQ(RewriteText("ldr x0, [sp, #16]"), "ldr x0, [sp, #16]\n");
  EXPECT_EQ(RewriteText("str x0, [sp, #-16]!"), "str x0, [sp, #-16]!\n");
  EXPECT_EQ(RewriteText("ldp x29, x30, [sp, #32]"),
            // x30 reload gets its guard appended.
            "ldp x29, x30, [sp, #32]\nadd x30, x21, w30, uxtw\n");
}

TEST(Rewriter, SpSmallAdjustWithFollowingAccessIsElided) {
  RewriteStats stats;
  RewriteOptions opts;
  auto out = Rewrite(MustParse("sub sp, sp, #32\nstr x0, [sp, #8]\n"), opts,
                     &stats);
  ASSERT_TRUE(out.ok()) << out.error();
  EXPECT_EQ(stats.guards_elided_sp, 1u);
  // No sp guard in the output.
  for (const auto& s : out->stmts) {
    if (s.kind == AsmStmt::Kind::kInst) {
      EXPECT_FALSE(arch::IsSpGuard(s.inst));
    }
  }
}

TEST(Rewriter, SpAdjustWithoutAccessGetsGuard) {
  EXPECT_EQ(RewriteText("sub sp, sp, #32\nret"),
            "sub sp, sp, #32\nadd w22, wsp, #0\nadd sp, x21, x22\nret\n");
  // Large adjustments always get the guard, access or not.
  EXPECT_EQ(RewriteText("sub sp, sp, #4096\nstr x0, [sp]\nret"),
            "sub sp, sp, #4096\nadd w22, wsp, #0\nadd sp, x21, x22\n"
            "str x0, [sp]\nret\n");
}

TEST(Rewriter, MovSpFromRegisterUsesScratchSequence) {
  // mov sp, x29 (epilogue) -> mov w22, w29 ; add sp, x21, x22.
  EXPECT_EQ(RewriteText("mov sp, x29"),
            "orr w22, wzr, w29\nadd sp, x21, x22\n");
}

TEST(Rewriter, IndirectBranchesAreGuarded) {
  EXPECT_EQ(RewriteText("br x5"), "add x18, x21, w5, uxtw\nbr x18\n");
  EXPECT_EQ(RewriteText("blr x5"), "add x18, x21, w5, uxtw\nblr x18\n");
  EXPECT_EQ(RewriteText("ret"), "ret\n");  // x30 invariant
}

TEST(Rewriter, X30LoadsGetGuards) {
  EXPECT_EQ(RewriteText("ldr x30, [sp], #16\nret"),
            "ldr x30, [sp], #16\nadd x30, x21, w30, uxtw\nret\n");
  EXPECT_EQ(RewriteText("mov x30, x3"), "add x30, x21, w3, uxtw\n");
}

TEST(Rewriter, RedundantGuardElimination) {
  // Figure 2: four stores off one base share one hoisted guard.
  const std::string out = RewriteText(
      "str x0, [x1, #8]\nstr x0, [x1, #16]\nstr x0, [x1, #24]\n"
      "str x0, [x1, #32]\n");
  EXPECT_EQ(out,
            "add x23, x21, w1, uxtw\n"
            "str x0, [x23, #8]\n"
            "str x0, [x23, #16]\n"
            "str x0, [x23, #24]\n"
            "str x0, [x23, #32]\n");
}

TEST(Rewriter, RgeUsesTwoHoistRegistersForTwoBases) {
  const std::string out = RewriteText(
      "str x0, [x1, #8]\nstr x0, [x2, #8]\nstr x0, [x1, #16]\n"
      "str x0, [x2, #16]\n");
  EXPECT_NE(out.find("add x23, x21, w1, uxtw"), std::string::npos);
  EXPECT_NE(out.find("add x24, x21, w2, uxtw"), std::string::npos);
  EXPECT_NE(out.find("[x23, #16]"), std::string::npos);
  EXPECT_NE(out.find("[x24, #16]"), std::string::npos);
}

TEST(Rewriter, RgeStopsAtBaseRedefinition) {
  const std::string out = RewriteText(
      "str x0, [x1, #8]\nstr x0, [x1, #16]\n"
      "add x1, x1, #64\n"
      "str x0, [x1, #8]\nstr x0, [x1, #16]\n");
  // After x1 changes, the stale hoisted base must not be reused: expect
  // two separate guards.
  size_t first = out.find("add x23, x21, w1, uxtw");
  ASSERT_NE(first, std::string::npos);
  size_t second = out.find("add x23, x21, w1, uxtw", first + 1);
  EXPECT_NE(second, std::string::npos);
}

TEST(Rewriter, RgeStopsAtBranchesAndLabels) {
  const std::string out = RewriteText(
      "str x0, [x1, #8]\nb skip\nskip:\nstr x0, [x1, #16]\n");
  // The two stores are in different blocks; neither should be hoisted
  // (a single access is not worth a hoist), so both use w22 adds.
  EXPECT_EQ(out.find("x23"), std::string::npos);
}

TEST(Rewriter, RgeDisabledAtO1) {
  const std::string out = RewriteText(
      "str x0, [x1, #8]\nstr x0, [x1, #16]\n", OptLevel::kO1);
  EXPECT_EQ(out.find("x23"), std::string::npos);
  EXPECT_NE(out.find("add w22, w1, #8"), std::string::npos);
}

TEST(Rewriter, NoLoadsModeLeavesLoadsAlone) {
  const std::string out =
      RewriteText("ldr x0, [x1, #8]\nstr x0, [x2, #8]\n", OptLevel::kO2,
                  /*loads=*/false);
  EXPECT_NE(out.find("ldr x0, [x1, #8]"), std::string::npos);
  // The store is still guarded.
  EXPECT_EQ(out.find("str x0, [x2, #8]"), std::string::npos);
}

TEST(Rewriter, NoLoadsModeStillGuardsX30Loads) {
  const std::string out = RewriteText("ldr x30, [sp], #16\nret",
                                      OptLevel::kO2, /*loads=*/false);
  EXPECT_NE(out.find("add x30, x21, w30, uxtw"), std::string::npos);
}

TEST(Rewriter, RtcallExpansion) {
  EXPECT_EQ(RewriteText("rtcall #3"),
            "str x30, [sp, #-16]!\n"
            "ldr x30, [x21, #24]\n"
            "blr x30\n"
            "ldr x30, [sp], #16\n"
            "add x30, x21, w30, uxtw\n");
  RewriteOptions opts;
  opts.save_restore_x30 = false;
  auto out = Rewrite(MustParse("rtcall #3"), opts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->stmts.size(), 2u);
}

TEST(Rewriter, RtcallOutOfRangeRejected) {
  // The call table's last entry (kCallTableBytes / 8 - 1) rewrites,
  // assembles and verifies: the rewriter and the verifier read one
  // constant. The next number is rejected.
  auto out = Rewrite(MustParse("rtcall #511"), RewriteOptions{});
  ASSERT_TRUE(out.ok()) << out.error();
  auto img = asmtext::Assemble(*out, asmtext::LayoutSpec{});
  ASSERT_TRUE(img.ok()) << img.error();
  const auto v = verifier::Verify(img->text);
  EXPECT_TRUE(v.ok) << v.reason;
  EXPECT_FALSE(Rewrite(MustParse("rtcall #512"), RewriteOptions{}).ok());
  EXPECT_FALSE(Rewrite(MustParse("rtcall #-1"), RewriteOptions{}).ok());
}

TEST(Rewriter, RejectsReservedRegisterUse) {
  for (const char* line :
       {"add x21, x21, #1", "mov x18, x0", "ldr x0, [x22]",
        "add x0, x1, x23", "str x24, [x1]"}) {
    EXPECT_FALSE(Rewrite(MustParse(line), RewriteOptions{}).ok()) << line;
  }
}

TEST(Rewriter, RejectsSystemInstructions) {
  EXPECT_FALSE(Rewrite(MustParse("svc #0"), RewriteOptions{}).ok());
}

TEST(Rewriter, TbzRangeFix) {
  // Build a function where a tbz spans > 32KiB after rewriting.
  std::string src = "tbz x0, #3, far\n";
  for (int k = 0; k < 9000; ++k) {
    src += "str x0, [x1, #" + std::to_string((k % 4) * 8) + "]\n";
  }
  src += "far:\nret\n";
  RewriteStats stats;
  RewriteOptions opts;
  opts.level = OptLevel::kO1;  // every store expands to 2 insts
  auto out = Rewrite(MustParse(src), opts, &stats);
  ASSERT_TRUE(out.ok()) << out.error();
  EXPECT_GE(stats.tbz_rewritten, 1u);
  // The result must assemble (i.e. all branch offsets in range).
  asmtext::LayoutSpec spec;
  auto img = asmtext::Assemble(*out, spec);
  EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error());
}

// --- The central property: rewritten code verifies. ---

// A deterministic pseudo-random program generator exercising every
// rewritable pattern.
std::string RandomProgram(uint64_t seed, int len) {
  uint64_t state = seed;
  auto rnd = [&](int n) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((state >> 33) % n);
  };
  // Registers the generator may use (avoiding reserved ones).
  const char* regs[] = {"x0", "x1", "x2", "x3", "x4", "x5", "x6",
                        "x7", "x8", "x9", "x10", "x11", "x19", "x20"};
  auto reg = [&]() { return regs[rnd(14)]; };
  auto wreg = [&]() {
    std::string r = regs[rnd(14)];
    r[0] = 'w';
    return r;
  };
  std::string src;
  int label = 0;
  for (int k = 0; k < len; ++k) {
    switch (rnd(14)) {
      case 0: src += std::string("add ") + reg() + ", " + reg() + ", #" +
                     std::to_string(rnd(4096)) + "\n"; break;
      case 1: src += std::string("ldr ") + reg() + ", [" + reg() + ", #" +
                     std::to_string(rnd(512) * 8) + "]\n"; break;
      case 2: src += std::string("str ") + reg() + ", [" + reg() + "]\n";
              break;
      case 3: src += std::string("ldr ") + reg() + ", [" + reg() + ", " +
                     reg() + ", lsl #3]\n"; break;
      case 4: src += std::string("str ") + wreg() + ", [" + reg() + ", " +
                     wreg() + ", sxtw #2]\n"; break;
      case 5: src += std::string("ldp ") + "x2, x3, [" + reg() + ", #" +
                     std::to_string(rnd(32) * 8) + "]\n"; break;
      case 6: src += "sub sp, sp, #" + std::to_string(rnd(64) * 16) + "\n" +
                     "str x0, [sp, #8]\n"; break;
      case 7: src += "stp x29, x30, [sp, #-32]!\n"; break;
      case 8: src += "ldp x29, x30, [sp], #32\n"; break;
      case 9: src += std::string("ldr ") + reg() + ", [" + reg() + "], #8\n";
              break;
      case 10: src += std::string("str ") + reg() + ", [" + reg() +
                      ", #-16]!\n"; break;
      case 11: {
        std::string l = "l" + std::to_string(label++);
        src += std::string("cbz ") + reg() + ", " + l + "\n" +
               "add x0, x0, #1\n" + l + ":\n";
        break;
      }
      case 12: src += std::string("br ") + reg() + "\n"; break;
      case 13: src += "rtcall #" + std::to_string(rnd(8)) + "\n"; break;
    }
  }
  src += "ret\n";
  return src;
}

struct PropCase {
  uint64_t seed;
  OptLevel level;
  bool loads;
};

class RewriteVerifyProperty : public ::testing::TestWithParam<PropCase> {};

TEST_P(RewriteVerifyProperty, RewrittenProgramsPassVerification) {
  const PropCase& p = GetParam();
  const std::string src = RandomProgram(p.seed, 120);
  RewriteOptions opts;
  opts.level = p.level;
  opts.sandbox_loads = p.loads;
  auto out = Rewrite(MustParse(src), opts);
  ASSERT_TRUE(out.ok()) << out.error();
  asmtext::LayoutSpec spec;
  auto img = asmtext::Assemble(*out, spec);
  ASSERT_TRUE(img.ok()) << img.error();
  verifier::VerifyOptions vopts;
  vopts.check_loads = p.loads;
  auto res = verifier::Verify({img->text.data(), img->text.size()}, vopts);
  EXPECT_TRUE(res.ok) << "offset " << res.fail_offset << ": " << res.reason;
}

std::vector<PropCase> AllPropCases() {
  std::vector<PropCase> cases;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (OptLevel level : {OptLevel::kO0, OptLevel::kO1, OptLevel::kO2}) {
      cases.push_back({seed, level, true});
    }
    cases.push_back({seed, OptLevel::kO2, false});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteVerifyProperty,
                         ::testing::ValuesIn(AllPropCases()));

// --- Golden corpus: the rewriter's exact output on a fixed corpus. ---
//
// The fuzz seed corpus, fixed GenAsmProgram seeds, the 15 workload
// generators at a small scale, and hand cases for the tbz/tbnz range fix
// (a branch that goes far only in the fixpoint's second iteration, an
// undefined target, directives in .text, and files just under and just
// over the size at which any branch can go far). Each input is rewritten
// at O0, O1, O2 and O2 without load guards; the golden records the stats
// and the printed output (a repeated run of lines once, after `[xN]`) or
// the exact error. Regenerate with LFI_UPDATE_GOLDEN=1.

std::string Repeat(const std::string& line, int n) {
  std::string out;
  for (int k = 0; k < n; ++k) out += line;
  return out;
}

std::vector<std::pair<std::string, std::string>> GoldenInputs() {
  std::vector<std::pair<std::string, std::string>> in;
  const auto corpus = fuzz::SeedCorpusAsm();
  for (size_t k = 0; k < corpus.size(); ++k) {
    in.emplace_back("seed-corpus " + std::to_string(k), corpus[k]);
  }
  for (uint64_t k = 0; k < 24; ++k) {
    fuzz::Rng rng(fuzz::DeriveSeed(0x3e3, k));
    in.emplace_back("gen " + std::to_string(k), fuzz::GenAsmProgram(rng));
  }
  for (const auto& w : workloads::AllWorkloads()) {
    in.emplace_back("workload " + w.name, workloads::Generate(w.name, 2000));
  }
  const std::string nop = "nop\n";
  // Range-fix distances are estimated at 4 bytes per instruction and 64
  // per directive, against a 30000-byte limit. A tbz at 0 reaching a
  // label after 7499 nops spans exactly 30000 bytes (kept); after 7500
  // it spans 30004 (rewritten).
  in.emplace_back("tbz forward at the limit",
                  "tbz x0, #3, far\n" + Repeat(nop, 7499) + "far:\nret\n");
  in.emplace_back("tbz forward just over the limit",
                  "tbz x0, #3, far\n" + Repeat(nop, 7500) + "far:\nret\n");
  in.emplace_back("tbnz backward under the limit",
                  "back:\n" + Repeat(nop, 7499) + "tbnz x1, #9, back\n");
  in.emplace_back("tbnz backward at the limit, file just over",
                  "back:\n" + Repeat(nop, 7500) + "tbnz x1, #9, back\n");
  // The first tbz is 30000 bytes from its target; rewriting the second
  // (far) one into a pair grows the code between them by 4 bytes, so the
  // first goes far only in the second fixpoint iteration.
  in.emplace_back("tbz far after the fixpoint's first iteration",
                  ".text\n_start:\ntbz x0, #3, far_a\n" + Repeat(nop, 10) +
                      "tbz x1, #5, far_b\n" + Repeat(nop, 7488) + "far_a:\n" +
                      Repeat(nop, 100) + "far_b:\nret\n");
  in.emplace_back("tbz to an undefined label",
                  "tbz x0, #1, nowhere\n" + Repeat(nop, 8000) + "ret\n");
  in.emplace_back("tbnz across directives in .text",
                  ".text\n_start:\ntbnz x2, #7, over\n" +
                      Repeat(".balign 4\n", 470) + "over:\ntbz x2, #6, near\n" +
                      Repeat(".word 0\n", 400) + "near:\nret\n");
  in.emplace_back("tbz over guarded stores",
                  "tbz x0, #1, far\n" + Repeat("str x1, [x2, #8]\n", 5000) +
                      "far:\nret\n");
  in.emplace_back("reserved register", "add x21, x0, x1\n");
  in.emplace_back("system instruction", "nop\nsvc #0\n");
  in.emplace_back("rtcall out of range", "rtcall #600\n");
  in.emplace_back("hostcall out of range", "hostcall #70000\n");
  in.emplace_back("instruction outside .text", ".data\nnop\n");
  return in;
}

std::string RewriteDump(const AsmFile& file, const RewriteOptions& opts) {
  RewriteStats st;
  auto out = Rewrite(file, opts, &st);
  if (!out.ok()) return "  err: " + out.error() + "\n";
  std::string dump = "  stats in=" + std::to_string(st.input_insts) +
                     " out=" + std::to_string(st.output_insts) +
                     " guards=" + std::to_string(st.guards_inserted) +
                     " sp_elided=" + std::to_string(st.guards_elided_sp) +
                     " hoisted=" + std::to_string(st.guards_hoisted) +
                     " tbz=" + std::to_string(st.tbz_rewritten) + "\n";
  std::vector<std::string> lines;
  std::istringstream text(asmtext::Print(*out));
  for (std::string line; std::getline(text, line);) lines.push_back(line);
  // Runs of a repeated block of up to 4 lines print once, as `[xN]`.
  auto same = [&](size_t a, size_t b, size_t n) {
    for (size_t k = 0; k < n; ++k) {
      if (lines[a + k] != lines[b + k]) return false;
    }
    return true;
  };
  for (size_t i = 0; i < lines.size();) {
    size_t period = 1, reps = 1;
    for (size_t p = 1; p <= 4; ++p) {
      size_t r = 1;
      while (i + (r + 1) * p <= lines.size() && same(i, i + r * p, p)) ++r;
      if (r > 1 && p * r > period * reps) {
        period = p;
        reps = r;
      }
    }
    if (reps > 1) dump += "  [x" + std::to_string(reps) + "]\n";
    for (size_t k = 0; k < period; ++k) dump += "  | " + lines[i + k] + "\n";
    i += period * reps;
  }
  return dump;
}

std::string RewriterGoldenSnapshot() {
  struct Config {
    const char* name;
    OptLevel level;
    bool loads;
  };
  const Config configs[] = {{"O0", OptLevel::kO0, true},
                            {"O1", OptLevel::kO1, true},
                            {"O2", OptLevel::kO2, true},
                            {"O2 no-loads", OptLevel::kO2, false}};
  std::string out =
      "# rewriter golden: `> input` then, per configuration, its stats and "
      "printed output, or `err:`\n";
  for (const auto& [name, src] : GoldenInputs()) {
    out += "> " + name + "\n";
    auto file = asmtext::Parse(src);
    if (!file.ok()) {
      out += "  parse err: " + file.error() + "\n";
      continue;
    }
    for (const Config& c : configs) {
      RewriteOptions opts;
      opts.level = c.level;
      opts.sandbox_loads = c.loads;
      out += "@ " + std::string(c.name) + "\n" + RewriteDump(*file, opts);
    }
  }
  return out;
}

TEST(Rewriter, GoldenCorpus) {
  test::CheckGolden(RewriterGoldenSnapshot(), LFI_REWRITER_GOLDEN);
}

}  // namespace
}  // namespace lfi::rewriter
