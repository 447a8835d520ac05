// Bounded smoke runs of the fuzzing modes, plus meta-tests that
// prove the soundness oracle itself works: hand-built escape programs
// (bypassing the verifier) must be convicted by the SlotInvariantChecker,
// and the seed-corpus escape probes must stay verifier-rejected. The
// probes double as regression tests: if the verifier ever starts
// accepting one, both layers of this file fail.

#include <gtest/gtest.h>

#include <algorithm>

#include "arch/encode.h"
#include "fuzz/exec.h"
#include "fuzz/fuzz.h"
#include "fuzz/gen.h"
#include "fuzz_util.h"
#include "runtime/layout.h"
#include "verifier/verifier.h"

namespace lfi {
namespace {

using arch::Inst;
using arch::Mn;
using arch::Reg;
using arch::Width;

uint32_t Enc(const Inst& i) {
  auto r = arch::Encode(i);
  EXPECT_TRUE(r.ok()) << r.error();
  return r.ok() ? *r : fuzz::kNopWord;
}

Inst Movz(uint8_t rd, uint16_t imm, uint8_t hw) {
  Inst i;
  i.mn = Mn::kMovz;
  i.width = Width::kX;
  i.rd = Reg::X(rd);
  i.imm = imm;
  i.shift_amount = static_cast<uint8_t>(hw * 16);
  return i;
}

Inst Str(uint8_t rt, uint8_t base, int64_t imm = 0) {
  Inst i;
  i.mn = Mn::kStr;
  i.width = Width::kX;
  i.msize = 8;
  i.rt = Reg::X(rt);
  i.mem.base = Reg::X(base);
  i.mem.mode = arch::AddrMode::kImm;
  i.mem.imm = imm;
  return i;
}

std::span<const uint8_t> AsBytes(const std::vector<uint32_t>& words) {
  return {reinterpret_cast<const uint8_t*>(words.data()), words.size() * 4};
}

size_t DistinctRejectKinds(const fuzz::FuzzReport& r) {
  size_t n = 0;
  for (uint64_t c : r.reject_kinds) n += c != 0;
  return n;
}

// --- Bounded smoke runs (the ctest face of lfi-fuzz). ---

TEST(FuzzSmoke, SoundnessRunsClean) {
  fuzz::FuzzOptions opts;
  opts.seed = 0x5eed;
  opts.iters = 500;
  const auto r = fuzz::RunSoundness(opts);
  for (const auto& c : r.crashes) {
    ADD_FAILURE() << "escape found:\n" << fuzz::FormatArtifact(c);
  }
  EXPECT_GT(r.accepted, 0u);
  EXPECT_GT(r.rejected, 0u);
  EXPECT_EQ(r.executed, r.accepted);
  // The mutation engine must be reaching several verifier rules, not just
  // tripping over undecodable words.
  EXPECT_GE(DistinctRejectKinds(r), 4u);
}

TEST(FuzzSmoke, DifferentialStepwiseMatchesWholeRun) {
  fuzz::FuzzOptions opts;
  opts.seed = 0xd1ff;
  opts.iters = 200;
  const auto r = fuzz::RunDifferential(opts);
  for (const auto& c : r.crashes) {
    ADD_FAILURE() << "divergence found:\n" << fuzz::FormatArtifact(c);
  }
  EXPECT_GT(r.executed, 0u);
}

TEST(FuzzSmoke, ChainedDifferentialAgreesWithReference) {
  fuzz::FuzzOptions opts;
  opts.seed = 0xc4a1;
  opts.iters = 200;
  const auto r = fuzz::RunChainedDifferential(opts);
  for (const auto& c : r.crashes) {
    ADD_FAILURE() << "chained divergence found:\n" << fuzz::FormatArtifact(c);
  }
  EXPECT_GT(r.executed, 0u);
}

TEST(FuzzSmoke, CompletenessRewriterOutputAlwaysVerifies) {
  fuzz::FuzzOptions opts;
  opts.seed = 0xc0de;
  opts.iters = 80;
  const auto r = fuzz::RunCompleteness(opts);
  for (const auto& c : r.crashes) {
    ADD_FAILURE() << "pipeline failure:\n" << fuzz::FormatArtifact(c);
  }
  EXPECT_EQ(r.accepted, r.iters);
}

TEST(FuzzSmoke, ParseRoundTripsMutatedText) {
  fuzz::FuzzOptions opts;
  opts.seed = 0x9a55;
  opts.iters = 400;
  const auto r = fuzz::RunParseFuzz(opts);
  for (const auto& c : r.crashes) {
    ADD_FAILURE() << "round-trip failure:\n" << fuzz::FormatArtifact(c);
  }
  EXPECT_GT(r.accepted, 0u);
  EXPECT_GT(r.rejected, 0u);
}

TEST(FuzzSmoke, SnapshotFileMutationsRunClean) {
  fuzz::FuzzOptions opts;
  opts.seed = 0x5a95;
  opts.iters = 400;
  const auto r = fuzz::RunSnapshotFormatFuzz(opts);
  for (const auto& c : r.crashes) {
    ADD_FAILURE() << "snapshot-file failure:\n" << fuzz::FormatArtifact(c);
  }
  EXPECT_EQ(r.iters, 400u);
  EXPECT_GT(r.accepted, 0u);
  EXPECT_GT(r.rejected, 0u);
}

TEST(FuzzSmoke, ParseRoundTripRegressions) {
  // Texts whose printed form used to parse differently, or not at all:
  // INT64_MIN add/sub immediates flipped between add and sub on every
  // round trip, a string holding `//` printed as a comment, and cset al
  // made a condition (nv) that the printer indexed past its name table.
  const struct {
    const char* src;
    bool accepted;
  } cases[] = {
      {"add x28, x11, 9223372036854775808", true},
      {"cmp x16, #0x8000000000000000", true},
      {"sub x0, x1, #-9223372036854775808", true},
      {".data\n.asciz \"a/\\/b/\\/\"", true},
      {"cset x0, al", false},
  };
  for (const auto& c : cases) {
    bool accepted = false;
    EXPECT_EQ(fuzz::CheckParseRoundTrip(c.src, &accepted), "") << c.src;
    EXPECT_EQ(accepted, c.accepted) << c.src;
  }
}

// --- Oracle meta-tests: feed UNVERIFIED escapes straight to the harness;
// the checker must convict every one. If these pass, a fuzzing run with
// zero findings means the verifier is tight, not that the oracle is blind.

TEST(SoundnessOracle, ConvictsOutOfWindowStore) {
  // x25 := base - 64KiB, inside the low tripwire page (mapped RW so the
  // store *retires*; only the checker can object).
  const std::vector<uint32_t> words = {Enc(Movz(25, 0xFFFF, 1)),
                                       Enc(Str(0, 25))};
  // A hooked kChained machine runs the reference loop, and the stepwise
  // run is the differential mode's oracle: every route must convict.
  for (auto dispatch : {emu::Dispatch::kBlock, emu::Dispatch::kChained}) {
    fuzz::ExecOptions eo;
    eo.dispatch = dispatch;
    for (const auto& res : {fuzz::ExecuteWords(words, eo),
                            fuzz::ExecuteWordsStepwise(words, eo)}) {
      EXPECT_NE(res.violation.find("escapes the slot+guard window"),
                std::string::npos)
          << "dispatch=" << int(dispatch) << ": " << res.violation;
    }
  }
}

TEST(SoundnessOracle, ConvictsUnmappedOutOfWindowAccess) {
  // Address far outside the window and not mapped at all: the access
  // faults, but the *attempt* must still be convicted (real hardware may
  // have a neighbor there).
  const std::vector<uint32_t> words = {Enc(Movz(9, 0x00F0, 2)),
                                       Enc(Str(0, 9))};
  const auto res = fuzz::ExecuteWords(words, {});
  EXPECT_NE(res.violation.find("escapes"), std::string::npos)
      << res.violation;
}

TEST(SoundnessOracle, ConvictsUnguardedIndirectBranch) {
  Inst br;
  br.mn = Mn::kBr;
  br.rn = Reg::X(9);
  const std::vector<uint32_t> words = {Enc(Movz(9, 0x0002, 1)),  // 0x20000
                                       Enc(br)};
  const auto res = fuzz::ExecuteWords(words, {});
  EXPECT_NE(res.violation.find("indirect branch escaped"), std::string::npos)
      << res.violation;
}

TEST(SoundnessOracle, UnusedCallTableEntryTrapsWithoutViolation) {
  // Entry 30 is past the last runtime call, so the loader's table holds
  // kCallTableTrap there: the verified call sequence lands on an unmapped
  // runtime-owned page and faults on the fetch.
  Inst ldr = Str(30, 21, 240);
  ldr.mn = Mn::kLdr;
  Inst blr;
  blr.mn = Mn::kBlr;
  blr.rn = arch::kRegLink;
  const std::vector<uint32_t> words = {Enc(ldr), Enc(blr)};
  ASSERT_TRUE(verifier::Verify(AsBytes(words), {}).ok);
  const auto res = fuzz::ExecuteWords(words, {});
  EXPECT_TRUE(res.violation.empty()) << res.violation;
  ASSERT_EQ(res.stop, emu::StopReason::kFault);
  EXPECT_EQ(res.fault.kind, emu::CpuFault::Kind::kFetch);
  EXPECT_EQ(res.fault.pc, runtime::kCallTableTrap);
}

TEST(SoundnessOracle, ConvictsBranchNextToTheCallTableTrap) {
  // Only the trap address itself is runtime-owned.
  Inst blr;
  blr.mn = Mn::kBlr;
  blr.rn = Reg::X(9);
  const std::vector<uint32_t> words = {
      Enc(Movz(9, uint16_t(runtime::kCallTableTrap + 16), 0)), Enc(blr)};
  const auto res = fuzz::ExecuteWords(words, {});
  EXPECT_NE(res.violation.find("indirect branch escaped to 0x4010"),
            std::string::npos)
      << res.violation;
}

TEST(SoundnessOracle, ConvictsBaseRegisterClobber) {
  Inst add;
  add.mn = Mn::kAddImm;
  add.width = Width::kX;
  add.rd = arch::kRegBase;
  add.rn = arch::kRegBase;
  add.imm = 8;
  const std::vector<uint32_t> words = {Enc(add)};
  const auto res = fuzz::ExecuteWords(words, {});
  EXPECT_NE(res.violation.find("x21"), std::string::npos) << res.violation;
}

TEST(SoundnessOracle, ConvictsWideScratchValue) {
  const std::vector<uint32_t> words = {Enc(Movz(22, 1, 3))};
  const auto res = fuzz::ExecuteWords(words, {});
  EXPECT_NE(res.violation.find("x22"), std::string::npos) << res.violation;
}

TEST(SoundnessOracle, ConvictsAddressRegisterEscape) {
  // x23 := 1, far below the slot.
  const std::vector<uint32_t> words = {Enc(Movz(23, 0x0001, 0))};
  const auto res = fuzz::ExecuteWords(words, {});
  EXPECT_NE(res.violation.find("x23"), std::string::npos) << res.violation;
}

TEST(SoundnessOracle, AcceptsLegalGuardedProgram) {
  // w0 := 0x200000 (the harness's data region), so the guarded store
  // lands on mapped RW memory and the program runs to its brk.
  Inst guard;
  guard.mn = Mn::kAddExt;
  guard.width = Width::kX;
  guard.rd = Reg::X(18);
  guard.rn = arch::kRegBase;
  guard.rm = Reg::X(0);
  guard.ext = arch::Extend::kUxtw;
  Inst brk;
  brk.mn = Mn::kBrk;
  const std::vector<uint32_t> words = {Enc(Movz(0, 0x0020, 1)), Enc(guard),
                                       Enc(Str(1, 18, 16)), Enc(brk)};
  const auto res = fuzz::ExecuteWords(words, {});
  EXPECT_TRUE(res.violation.empty()) << res.violation;
  EXPECT_EQ(res.stop, emu::StopReason::kBrk);
  EXPECT_GE(res.retired, 3u);
}

// --- Differential meta-tests: DescribeDiff must see every part of a
// result docs/DISPATCH.md promises is identical across backends. Each
// pair below differs in exactly one of them.

TEST(DifferentialOracle, SeesTheExclusiveMonitor) {
  const fuzz::ExecResult a = fuzz::ExecuteWords({{fuzz::kNopWord}}, {});
  fuzz::ExecResult b = a;
  EXPECT_EQ(fuzz::DescribeDiff(a, b, "a", "b"), "");
  b.final_state.excl_valid = !a.final_state.excl_valid;
  EXPECT_NE(fuzz::DescribeDiff(a, b, "a", "b"), "");
}

TEST(DifferentialOracle, SeesTheFaultPc) {
  // Word 0 is undecodable: both runs stop on a decode fault.
  const fuzz::ExecResult a = fuzz::ExecuteWords({{0u}}, {});
  ASSERT_EQ(a.stop, emu::StopReason::kFault);
  fuzz::ExecResult b = a;
  b.fault.pc += 4;
  EXPECT_NE(fuzz::DescribeDiff(a, b, "a", "b").find("fault pc"),
            std::string::npos);
}

TEST(DifferentialOracle, SeesOneMemoryByte) {
  // Store 1 or 2 to the data region, then zero x0 again: the two runs
  // end in the same registers, stop and cycles, one stored byte apart.
  auto run = [](uint16_t v) {
    const std::vector<uint32_t> words = {Enc(Movz(0, v, 0)), Enc(Str(0, 18)),
                                         Enc(Movz(0, 0, 0))};
    return fuzz::ExecuteWords(words, {});
  };
  EXPECT_EQ(fuzz::DescribeDiff(run(1), run(1), "a", "b"), "");
  EXPECT_EQ(fuzz::DescribeDiff(run(1), run(2), "a", "b"),
            "data/stack memory differs");
}

// --- Seed corpus: legal entries execute clean, escape probes stay
// rejected (regression tests for the verifier rules they target).

TEST(SeedCorpus, AcceptedEntriesExecuteWithoutViolations) {
  size_t accepted = 0, rejected = 0;
  for (const auto& words : fuzz::SeedCorpusWords()) {
    const auto v = verifier::Verify(AsBytes(words), {});
    if (!v.ok) {
      ++rejected;
      continue;
    }
    ++accepted;
    const auto res = fuzz::ExecuteWords(words, {});
    EXPECT_TRUE(res.violation.empty())
        << "corpus entry escaped: " << res.violation;
  }
  // The corpus must keep exercising both sides of the verifier.
  EXPECT_GE(accepted, 6u);
  EXPECT_GE(rejected, 5u);
}

TEST(SeedCorpus, EscapeProbesStayRejected) {
  struct Probe {
    std::vector<uint32_t> words;
    verifier::FailKind kind;
  };
  Inst br;
  br.mn = Mn::kBr;
  br.rn = Reg::X(9);
  Inst wbase;
  wbase.mn = Mn::kAddImm;
  wbase.width = Width::kX;
  wbase.rd = arch::kRegBase;
  wbase.rn = arch::kRegBase;
  wbase.imm = 1;
  Inst wscr;
  wscr.mn = Mn::kAddImm;
  wscr.width = Width::kX;
  wscr.rd = arch::kRegScratch;
  wscr.rn = Reg::X(0);
  const Probe probes[] = {
      {{Enc(Movz(25, 0xFFFF, 1)), Enc(Str(0, 25))},
       verifier::FailKind::kBadAddressingMode},
      {{Enc(br)}, verifier::FailKind::kUnguardedIndirectBranch},
      {{Enc(wbase)}, verifier::FailKind::kBaseRegWrite},
      {{Enc(wscr)}, verifier::FailKind::kScratchRegWrite},
      {{0xd4000001u}, verifier::FailKind::kSystemInstruction},
      {{0xffffffffu}, verifier::FailKind::kUndecodable},
  };
  for (const auto& p : probes) {
    const auto v = verifier::Verify(AsBytes(p.words), {});
    ASSERT_FALSE(v.ok);
    EXPECT_EQ(v.kind, p.kind) << v.reason;
  }
}

// --- Minimizer. ---

TEST(Minimizer, ShrinksToTheOffendingWords) {
  std::vector<uint32_t> words(6, fuzz::kNopWord);
  words.push_back(Enc(Movz(25, 0xFFFF, 1)));
  words.push_back(Enc(Str(0, 25)));
  words.insert(words.end(), 4, fuzz::kNopWord);
  auto fails = [](const std::vector<uint32_t>& w) {
    return !fuzz::ExecuteWords(w, {}).violation.empty();
  };
  ASSERT_TRUE(fails(words));
  const auto min = fuzz::MinimizeWords(words, fails);
  // Prefix bisection cuts the trailing nops; the nop-out pass cannot
  // remove either live instruction.
  EXPECT_EQ(min.size(), 8u);
  EXPECT_EQ(std::count_if(min.begin(), min.end(),
                          [](uint32_t w) { return w != fuzz::kNopWord; }),
            2);
  ASSERT_TRUE(fails(min));
}

// --- Artifact formatting: the words line must replay. ---

TEST(Artifact, FormatContainsReplayableWords) {
  fuzz::CrashArtifact a;
  a.mode = "soundness";
  a.iter = 7;
  a.seed = 0x1234;
  a.detail = "test";
  a.words = {Enc(Movz(25, 0xFFFF, 1)), fuzz::kNopWord};
  a.full_words = a.words;
  const std::string text = fuzz::FormatArtifact(a);
  EXPECT_NE(text.find("mode: soundness"), std::string::npos);
  EXPECT_NE(text.find("words:"), std::string::npos);
  EXPECT_NE(text.find("d503201f"), std::string::npos);  // the nop, in hex
  EXPECT_NE(text.find("disasm:"), std::string::npos);
  EXPECT_NE(text.find("movz"), std::string::npos);
}

TEST(Artifact, ParseReadsBackWhatFormatWrote) {
  fuzz::CrashArtifact a;
  a.mode = "completeness";
  a.iter = 12;
  a.seed = 0xfeedface1234;
  a.detail = "parse failed: line 1: x";
  a.words = {Enc(Movz(25, 0xFFFF, 1)), fuzz::kNopWord};
  a.full_words = {fuzz::kNopWord, fuzz::kNopWord, fuzz::kNopWord};
  a.asm_source = "_start:\n\n  ret\n";
  const fuzz::CrashArtifact b = fuzz::ParseArtifact(fuzz::FormatArtifact(a));
  EXPECT_EQ(b.mode, a.mode);
  EXPECT_EQ(b.iter, a.iter);
  EXPECT_EQ(b.seed, a.seed);
  EXPECT_EQ(b.words, a.words);
  EXPECT_EQ(b.asm_source, a.asm_source);
}

// --- The driver and replay. ---

TEST(Drive, CountsVerdictsAndStopsAtMaxCrashes) {
  fuzz::FuzzOptions opts;
  opts.seed = 9;
  opts.iters = 100;
  opts.max_crashes = 2;
  std::vector<uint64_t> seeds;
  const auto r = fuzz::Drive("test", opts, [&](uint64_t it, uint64_t iseed) {
    seeds.push_back(iseed);
    fuzz::Outcome o;
    o.verdict = it % 2 == 0 ? fuzz::Outcome::Verdict::kExecuted
                            : fuzz::Outcome::Verdict::kRejected;
    if (it % 2 == 1) o.reject_kind = verifier::FailKind::kUndecodable;
    if (it % 5 == 4) o.crashes.emplace_back().detail = "found";
    return o;
  });
  // Iterations 4 and 9 crash; the second ends the run.
  EXPECT_EQ(r.mode, "test");
  EXPECT_EQ(r.iters, 10u);
  EXPECT_EQ(r.accepted, 5u);
  EXPECT_EQ(r.executed, 5u);
  EXPECT_EQ(r.rejected, 5u);
  EXPECT_EQ(r.reject_kinds[size_t(verifier::FailKind::kUndecodable)], 5u);
  ASSERT_EQ(r.crashes.size(), 2u);
  EXPECT_EQ(r.crashes[1].mode, "test");
  EXPECT_EQ(r.crashes[1].iter, 9u);
  EXPECT_EQ(r.crashes[1].seed, fuzz::DeriveSeed(9, 9));
  EXPECT_EQ(seeds[9], fuzz::DeriveSeed(9, 9));
}

TEST(Replay, RunsTheCheckOfTheArtifactsMode) {
  const fuzz::FuzzOptions opts;
  std::string out;
  // An escape the verifier rejects: replay re-verifies the words.
  fuzz::CrashArtifact sound;
  sound.mode = "soundness";
  sound.seed = 0x77;
  sound.words = {Enc(Movz(25, 0xFFFF, 1)), Enc(Str(0, 25))};
  EXPECT_EQ(fuzz::Replay(sound, opts, &out), 0);
  EXPECT_EQ(out,
            "soundness seed=0x77: now rejected (bad-addressing-mode) -- fixed");
  // Completeness runs the pipeline on the source, which here fails.
  fuzz::CrashArtifact comp;
  comp.mode = "completeness";
  comp.seed = 5;
  comp.asm_source = "not an instruction\n";
  EXPECT_EQ(fuzz::Replay(comp, opts, &out), 1);
  EXPECT_EQ(out.rfind("completeness seed=0x5: STILL FAILS: parse failed", 0),
            0u)
      << out;
  // Snapshot-file rebuilds its mutant from the seed alone.
  fuzz::CrashArtifact file;
  file.mode = "snapshot-file";
  file.seed = 0x1234;
  EXPECT_EQ(fuzz::Replay(file, opts, &out), 0);
  EXPECT_NE(out.find("-- fixed"), std::string::npos) << out;
  // Embed iterations share one harness.
  fuzz::CrashArtifact embed;
  embed.mode = "embed";
  EXPECT_EQ(fuzz::Replay(embed, opts, &out), 2);
  EXPECT_EQ(out, "embed seed=0x0: not replayable in isolation");
  EXPECT_EQ(fuzz::Replay(fuzz::CrashArtifact{}, opts, &out), 2);
  EXPECT_EQ(out, "no mode: line");
}

}  // namespace
}  // namespace lfi
