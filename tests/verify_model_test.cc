// Model-based exhaustive verifier validation (docs/VERIFIER.md): the
// symbolic per-class effect model must agree with the real verifier on
// every swept encoding, the emulator must agree with the model's effect
// predictions on a stratified sample of accepted encodings, and — the
// meta-test — a deliberately seeded model bug must be caught by the
// sweep, proving the harness can actually detect disagreement.

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "verify_model/crossval.h"
#include "verify_model/model.h"
#include "verify_model/sweep.h"

// Sanitizer builds run the interpreter-heavy sweep ~5x slower; thin the
// enumeration with a prime stride (coprime to every field radix, so all
// field regions stay covered).
#if defined(__SANITIZE_ADDRESS__)
#define LFI_VM_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LFI_VM_SANITIZED 1
#endif
#endif

namespace lfi::verify_model {
namespace {

using verifier::FailKind;

uint64_t SweepStride() {
#ifdef LFI_VM_SANITIZED
  return 7;
#else
  return 1;
#endif
}

std::vector<uint32_t> AssembleWords(const std::string& src) {
  auto f = asmtext::Parse(src);
  EXPECT_TRUE(f.ok()) << (f.ok() ? "" : f.error());
  asmtext::LayoutSpec spec;
  auto img = asmtext::Assemble(*f, spec);
  EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error());
  std::vector<uint32_t> words;
  if (img.ok()) {
    words.resize(img->text.size() / 4);
    std::memcpy(words.data(), img->text.data(), words.size() * 4);
  }
  return words;
}

TEST(VerifyModel, ExhaustiveSweepMatchesVerifierOnEveryClass) {
  SweepOptions opts;
  opts.stride = SweepStride();
  const auto results = SweepAll(opts);
  ASSERT_EQ(results.size(), arch::AllEncClasses().size());
  uint64_t accepted = 0, checked = 0;
  for (const auto& r : results) {
    EXPECT_GT(r.checked, 0u) << r.class_name;
    EXPECT_EQ(r.mismatches, 0u)
        << r.class_name << ": "
        << (r.recorded.empty() ? "(none recorded)" : r.recorded[0].detail);
    accepted += r.accepted;
    checked += r.checked;
  }
  // The allowlist is not vacuous: millions of encodings checked, a
  // substantial accepted population, and samples collected everywhere.
  EXPECT_GT(checked, 1000000u);
  EXPECT_GT(accepted, 100000u);

  // The stratified accepted sample of every class must run on the
  // emulator with exactly the effect the model predicts.
  const CrossvalResult cv = CrossValidate(results);
  EXPECT_GT(cv.executed, 800u);  // 1007 at stride 1, 878 at stride 7
  EXPECT_GT(cv.branches, 0u);
  for (const auto& f : cv.failures) {
    ADD_FAILURE() << f.class_name << " word 0x" << std::hex << f.word
                  << std::dec << ": " << f.detail;
  }
}

TEST(VerifyModel, SweepCatchesSeededAddressRegModelBug) {
  // Seed a model bug: pretend every write to an address register is
  // legal (as if the model forgot the guard-only rule for x18/x23/x24).
  // The sweep must flag the disagreement with the real verifier.
  SweepOptions opts;
  opts.stride = 97;
  opts.model_override = [](const MFacts&, Verdict* v) {
    if (!v->ok && v->kind == FailKind::kAddressRegWrite) {
      v->ok = true;
      v->kind = FailKind::kNone;
    }
  };
  const auto* cls = arch::FindEncClass("addsub-shift");
  ASSERT_NE(cls, nullptr);
  const SweepResult r = SweepClass(*cls, opts);
  EXPECT_GT(r.mismatches, 0u)
      << "seeded model bug was not detected by the sweep";
}

TEST(VerifyModel, SweepCatchesSeededGuardRangeModelBug) {
  // Second seeded bug, in a different predicate family: the model
  // accepts out-of-range immediate offsets.
  SweepOptions opts;
  opts.stride = 13;
  opts.model_override = [](const MFacts&, Verdict* v) {
    if (!v->ok && v->kind == FailKind::kGuardRangeOverflow) {
      v->ok = true;
      v->kind = FailKind::kNone;
    }
  };
  const auto* cls = arch::FindEncClass("ls-uimm");
  ASSERT_NE(cls, nullptr);
  const SweepResult r = SweepClass(*cls, opts);
  EXPECT_GT(r.mismatches, 0u)
      << "seeded model bug was not detected by the sweep";
}

TEST(VerifyModel, PredictVerdictMatchesVerifyOnCuratedSequences) {
  const verifier::VerifyOptions vopts;
  const std::vector<std::string> programs = {
      // Legal guard patterns.
      "add x18, x21, w1, uxtw\nldr x0, [x18]\nret\n",
      "add x30, x21, w5, uxtw\nret\n",
      "mov w22, w1\nadd sp, x21, x22\n",
      "ldr x30, [x21, #24]\nblr x30\n",
      "sub sp, sp, #32\nstr x0, [sp, #8]\n",
      // Context violations.
      "ldr x30, [x21, #24]\nnop\n",
      "sub sp, sp, #32\nret\n",
      "add sp, sp, #16\nadd sp, sp, #16\nstr x0, [sp]\n",
      // Plain rejections.
      "ldr x0, [x1]\n",
      "add x21, x0, #1\n",
      "mov x22, x0\n",
      "br x1\n",
      "svc #0\n",
  };
  for (const std::string& src : programs) {
    const std::vector<uint32_t> words = AssembleWords(src);
    ASSERT_FALSE(words.empty()) << src;
    std::vector<uint8_t> bytes(words.size() * 4);
    std::memcpy(bytes.data(), words.data(), bytes.size());
    const verifier::VerifyResult real = verifier::Verify(bytes, vopts);
    const Verdict model =
        PredictVerdict(std::span<const uint32_t>(words), vopts);
    EXPECT_EQ(model.ok, real.ok) << src;
    if (!real.ok && !model.ok) {
      EXPECT_EQ(model.kind, real.kind) << src;
      EXPECT_EQ(model.fail_index * 4, real.fail_offset) << src;
    }
  }
}

// The sequence oracle for Verify's windowed pass: seeded random texts
// from a pool of obligation raisers, dischargers, breakers, words that
// fail their own rules, nop filler and a rare undecodable word. The
// model's PredictVerdict decodes everything and scans forward from each
// sp adjust; Verify carries the open obligations from window to window.
// Three texts in four are 1-64 words long; the rest are 1000-1100 words
// of nops with sparse pool words and a dense run of them across the first
// window seam.
TEST(VerifyModel, PredictVerdictMatchesVerifyOnRandomSequences) {
  struct PoolWord {
    uint32_t word;
    uint32_t weight;
  };
  const std::vector<uint32_t> w = AssembleWords(
      "l:\n"
      // Raisers: a small sp adjust, x30 loads from the table and memory.
      "sub sp, sp, #32\n"
      "ldr x30, [x21, #24]\n"
      "ldr x30, [sp]\n"
      "ldp x29, x30, [sp], #16\n"
      // Dischargers: an sp-based store, the sp guard, blr x30, the x30
      // guard.
      "str x0, [sp, #8]\n"
      "add sp, x21, x22\n"
      "blr x30\n"
      "add x30, x21, w5, uxtw\n"
      // Breakers: branches and a second sp adjust.
      "b l\n"
      "cbz x0, l\n"
      "ret\n"
      "add sp, sp, #16\n"
      // Words that fail their own rules.
      "svc #0\n"
      "ldr x0, [x1]\n"
      "mov x22, x0\n"
      "nop\n");
  ASSERT_EQ(w.size(), 16u);
  const std::vector<PoolWord> pool = {
      {w[0], 24},  {w[1], 12}, {w[2], 8},  {w[3], 8},  {w[4], 24},
      {w[5], 12},  {w[6], 24}, {w[7], 24}, {w[8], 8},  {w[9], 8},
      {w[10], 8},  {w[11], 8}, {w[12], 4}, {w[13], 4}, {w[14], 4},
      {w[15], 160}, {0u, 1},  // the all-zero word is undecodable
  };
  uint32_t total_weight = 0;
  for (const PoolWord& p : pool) total_weight += p.weight;

  // Verify's verdict on a word sequence, in the model's terms.
  auto verify = [](std::span<const uint32_t> ws,
                   const verifier::VerifyOptions& o) {
    std::vector<uint8_t> bytes(ws.size() * 4);
    std::memcpy(bytes.data(), ws.data(), bytes.size());
    const verifier::VerifyResult r = verifier::Verify(bytes, o);
    return Verdict{r.ok, r.kind, static_cast<size_t>(r.fail_offset / 4)};
  };
  auto same = [](const Verdict& a, const Verdict& b) {
    return a.ok == b.ok && a.kind == b.kind && a.fail_index == b.fail_index;
  };

  uint64_t state = 0x5eed5eedULL;
  auto next = [&state](uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  auto draw = [&] {
    uint64_t r = next(total_weight);
    for (const PoolWord& p : pool) {
      if (r < p.weight) return p.word;
      r -= p.weight;
    }
    return pool.back().word;
  };

  constexpr int kTexts = 100000;
  constexpr size_t kSeam = verifier::kWindowWords;
  std::array<uint64_t, static_cast<size_t>(FailKind::kCount)> kinds{};
  uint64_t mismatches = 0, sampled = 0, open_at_seam = 0;
  std::vector<uint32_t> words;
  for (int t = 0; t < kTexts; ++t) {
    const bool is_long = t % 4 == 1;
    const size_t len = is_long ? 1000 + next(101) : 1 + next(64);
    words.assign(len, w[15]);
    for (size_t k = 0; k < len; ++k) {
      const bool near_seam = k + 2 >= kSeam && k < kSeam + 8;
      if (!is_long || near_seam || next(256) == 0) words[k] = draw();
    }
    verifier::VerifyOptions vopts;
    vopts.check_loads = t / 4 % 4 != 3;
    const Verdict real = verify(words, vopts);
    const Verdict model =
        PredictVerdict(std::span<const uint32_t>(words), vopts);
    if (!same(model, real) && ++mismatches <= 5) {
      ADD_FAILURE() << "text " << t << " (" << len << " words): model "
                    << (model.ok ? "ok" : FailKindName(model.kind)) << "@"
                    << model.fail_index << ", Verify "
                    << (real.ok ? "ok" : FailKindName(real.kind)) << "@"
                    << real.fail_index;
    }
    ++kinds[static_cast<size_t>(real.kind)];
    // An obligation is open at the seam when discharging words appended
    // to the first window change its verdict: blr x30 meets a call-table
    // load, the x30 guard any other x30 load, and an sp store an sp adjust.
    // Sampled: one long text in five.
    if (is_long && t % 5 == 0) {
      ++sampled;
      std::vector<uint32_t> head(words.begin(), words.begin() + kSeam);
      const Verdict alone = verify(head, vopts);
      for (uint32_t x30_discharge : {w[6], w[7]}) {
        head.resize(kSeam);
        head.insert(head.end(), {x30_discharge, w[4]});
        if (!same(verify(head, vopts), alone)) {
          ++open_at_seam;
          break;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The draw is not vacuous: every outcome the pool can produce occurs,
  // and many long texts carry an obligation across the seam.
  for (FailKind k : {FailKind::kNone, FailKind::kUndecodable,
                     FailKind::kSystemInstruction,
                     FailKind::kBadAddressingMode,
                     FailKind::kScratchRegWrite,
                     FailKind::kLinkRegProtocol, FailKind::kSpProtocol}) {
    EXPECT_GT(kinds[static_cast<size_t>(k)], 1000u) << FailKindName(k);
  }
  EXPECT_GT(open_at_seam, sampled / 10);
}

TEST(VerifyModel, ExtractFactsSeesGuardShapes) {
  const std::vector<uint32_t> words = AssembleWords(
      "add x18, x21, w1, uxtw\n"
      "add sp, x21, x22\n"
      "add sp, sp, #48\n"
      "ldr x30, [x21, #16]\n");
  ASSERT_EQ(words.size(), 4u);

  const MFacts guard = ExtractFacts(words[0]);
  EXPECT_TRUE(guard.decodable);
  EXPECT_EQ(guard.guard_for, 18);
  EXPECT_EQ(guard.guard_rm, 1);

  const MFacts spg = ExtractFacts(words[1]);
  EXPECT_TRUE(spg.sp_guard);

  const MFacts adj = ExtractFacts(words[2]);
  EXPECT_TRUE(adj.sp_small_adjust);
  EXPECT_EQ(adj.adjust, 48);

  const MFacts tl = ExtractFacts(words[3]);
  EXPECT_TRUE(tl.plain_int_ldr);
  EXPECT_EQ(tl.rt, 30);
  EXPECT_EQ(tl.base, 21);
  const auto suffix = DischargeSuffix(tl);
  ASSERT_EQ(suffix.size(), 1u);
  EXPECT_EQ(suffix[0], 0xD63F03C0u);  // blr x30
}

TEST(VerifyModel, DischargeSuffixesAreStandaloneLegal) {
  // The sweep's rejection-anchoring argument requires every suffix word
  // to be accepted by itself.
  for (uint32_t w : {0xD63F03C0u,                          // blr x30
                     0x8B200000u | (1u << 16) | (2u << 13) |
                         (21u << 5) | 30u,                 // x30 guard
                     0xF90003FFu}) {                       // str xzr, [sp]
    const uint8_t* p = reinterpret_cast<const uint8_t*>(&w);
    const auto r = verifier::Verify({p, 4}, {});
    EXPECT_TRUE(r.ok) << std::hex << w << ": " << r.reason;
  }
}

}  // namespace
}  // namespace lfi::verify_model
