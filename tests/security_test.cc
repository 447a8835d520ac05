// Security-focused tests: Section 7.1 hardening features and
// escape-attempt property tests with randomized hostile programs.

#include <gtest/gtest.h>

#include "elf/build.h"
#include "emu/timing.h"
#include "runtime/runtime.h"

namespace lfi {
namespace {

using runtime::ExitKind;
using runtime::ProcState;
using runtime::Runtime;
using runtime::RuntimeConfig;

RuntimeConfig Config() {
  RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  return cfg;
}

// --- Section 7.1: LL/SC side-channel mitigation ---

TEST(Security, LlScDisallowedByVerifierOption) {
  const std::string src =
      "add x18, x21, w0, uxtw\nldxr x1, [x18]\nstxr w2, x1, [x18]\nret\n";
  auto elf_bytes = elf::Build(src, std::nullopt);
  ASSERT_TRUE(elf_bytes.ok());
  // Allowed by default...
  {
    Runtime rt(Config());
    EXPECT_TRUE(rt.Load(elf_bytes->bytes).ok());
  }
  // ...rejected when the deployment disables LL/SC (S2C mitigation).
  {
    RuntimeConfig cfg = Config();
    cfg.verify.allow_llsc = false;
    Runtime rt(cfg);
    auto pid = rt.Load(elf_bytes->bytes);
    EXPECT_FALSE(pid.ok());
  }
  // Acquire/release (not LL/SC) stays allowed: only the exploitable
  // instructions are removed.
  {
    RuntimeConfig cfg = Config();
    cfg.verify.allow_llsc = false;
    Runtime rt(cfg);
    auto ok_elf = elf::Build(
        "add x18, x21, w0, uxtw\nldar x1, [x18]\nret\n", std::nullopt);
    ASSERT_TRUE(ok_elf.ok());
    EXPECT_TRUE(rt.Load(ok_elf->bytes).ok());
  }
}

// --- Section 7.1: software-context branch-predictor isolation ---

TEST(Security, PredictorContextsAreIsolated) {
  emu::BranchPredictor bp;
  // Context 1 trains PC 0x1000 strongly taken.
  bp.SetContext(1);
  for (int k = 0; k < 8; ++k) bp.PredictConditional(0x1000, true);
  EXPECT_TRUE(bp.PredictConditional(0x1000, true));
  // Context 2 must not observe that training: its first not-taken branch
  // at the same PC sees a cold (weakly-taken) entry, not a poisoned
  // strongly-taken one; after it trains not-taken, returning to context 1
  // must also not leak context 2's state into context 1's view.
  bp.SetContext(2);
  for (int k = 0; k < 8; ++k) bp.PredictConditional(0x1000, false);
  EXPECT_TRUE(bp.PredictConditional(0x1000, false));
  bp.SetContext(1);
  // Context 1's entry was re-tagged by context 2, so it's cold again -
  // but crucially it is NOT trained toward context 2's direction in a way
  // an attacker chose: the reset state is the architectural default.
  bp.PredictConditional(0x1000, true);
  for (int k = 0; k < 4; ++k) bp.PredictConditional(0x1000, true);
  EXPECT_TRUE(bp.PredictConditional(0x1000, true));
}

TEST(Security, IndirectTargetsDoNotLeakAcrossContexts) {
  emu::BranchPredictor bp;
  bp.SetContext(1);
  bp.PredictIndirect(0x2000, 0xAAAA);
  EXPECT_TRUE(bp.PredictIndirect(0x2000, 0xAAAA));
  // A different context never gets context 1's target as a prediction -
  // this is exactly the cross-sandbox poisoning vector.
  bp.SetContext(2);
  EXPECT_FALSE(bp.PredictIndirect(0x2000, 0xAAAA));
}

TEST(Security, SpectreIsolationCostsCyclesOnSwitches) {
  const std::string looper = R"(
    movz x9, #500
  loop:
    rtcall #11
    subs x9, x9, #1
    b.ne loop
    mov x0, #0
    rtcall #0
  )";
  auto run = [&](bool isolate) {
    RuntimeConfig cfg = Config();
    cfg.spectre_ctx_isolation = isolate;
    Runtime rt(cfg);
    auto e = elf::Build(looper);
    auto p1 = rt.Load(e->bytes);
    auto p2 = rt.Load(e->bytes);
    EXPECT_TRUE(p1.ok() && p2.ok());
    rt.RunUntilIdle();
    return rt.Cycles();
  };
  // Isolation costs SCXTNUM writes on every cross-sandbox switch (plus
  // predictor cold misses), so it must be measurably more expensive.
  EXPECT_GT(run(true), run(false));
}

// --- Escape-attempt property tests ---

// Generates a hostile-but-verifier-clean program: it uses correct guard
// forms but with attacker-controlled garbage values, then probes memory
// and jumps. No matter the values, every effect must stay inside its own
// sandbox (or fault).
std::string HostileProgram(uint64_t seed) {
  uint64_t state = seed;
  auto rnd = [&]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 32;
  };
  std::string src;
  src += "movz x1, #" + std::to_string(rnd() & 0xffff) + ", lsl #48\n";
  src += "movk x1, #" + std::to_string(rnd() & 0xffff) + ", lsl #32\n";
  src += "movk x1, #" + std::to_string(rnd() & 0xffff) + ", lsl #16\n";
  src += "movk x1, #" + std::to_string(rnd() & 0xffff) + "\n";
  for (int k = 0; k < 6; ++k) {
    switch (rnd() % 4) {
      case 0:
        src += "add x18, x21, w1, uxtw\nstr x1, [x18]\n";
        break;
      case 1:
        src += "str x1, [x21, w1, uxtw]\n";
        break;
      case 2:
        src += "add x18, x21, w1, uxtw\nldr x2, [x18, #" +
               std::to_string((rnd() % 4096) * 8) + "]\n";
        break;
      case 3:
        src += "add x1, x1, #" + std::to_string(rnd() % 4096) + "\n";
        break;
    }
  }
  src += "add x18, x21, w1, uxtw\nbr x18\n";
  return src;
}

class EscapeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EscapeProperty, HostileSandboxNeverTouchesVictim) {
  // Victim writes sentinels across its data and yields; attacker runs a
  // randomized hostile program. Afterwards the victim's memory must be
  // intact and the runtime alive.
  const std::string victim = R"(
    adrp x9, canary
    add x9, x9, :lo12:canary
    movz x1, #0xC0DE
    str x1, [x9]
    str x1, [x9, #4088]
    mov x19, #60
  spin:
    rtcall #11
    subs x19, x19, #1
    b.ne spin
    ldr x2, [x9]
    ldr x3, [x9, #4088]
    eor x0, x2, x3      // 0 if both intact and equal
    cmp x2, x1
    b.eq okk
    mov x0, #1
  okk:
    rtcall #0
  .bss
  canary:
    .zero 8192
  )";
  Runtime rt(Config());
  auto velf = elf::Build(victim);
  ASSERT_TRUE(velf.ok()) << velf.error();
  auto vpid = rt.Load(velf->bytes);
  ASSERT_TRUE(vpid.ok());

  auto aelf = elf::Build(HostileProgram(GetParam()), std::nullopt);
  ASSERT_TRUE(aelf.ok()) << aelf.error();
  auto apid = rt.Load(aelf->bytes);
  // The hostile program uses only legal guard forms, so it must load.
  ASSERT_TRUE(apid.ok()) << apid.error();

  rt.RunUntilIdle(50 * 1000 * 1000);
  const auto* v = rt.proc(*vpid);
  EXPECT_EQ(v->exit_kind, ExitKind::kExited);
  EXPECT_EQ(v->exit_status, 0) << "victim memory was modified!";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EscapeProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

TEST(Security, RuntimeCallTableIsReadOnlyToSandbox) {
  // Overwriting the call table would redirect runtime calls; the table
  // page is mapped read-only, so a store to offset 0 must fault.
  const std::string attack = R"(
    mov x1, #0
    str x1, [x21, w1, uxtw]   // store to sandbox base = call table
    mov x0, #0
    ldr x30, [x21]
    blr x30
  )";
  Runtime rt(Config());
  auto elf_bytes = elf::Build(attack, std::nullopt);
  ASSERT_TRUE(elf_bytes.ok());
  auto pid = rt.Load(elf_bytes->bytes);
  ASSERT_TRUE(pid.ok()) << pid.error();
  rt.RunUntilIdle();
  EXPECT_EQ(rt.proc(*pid)->exit_kind, ExitKind::kKilled);
}

TEST(Security, GuardRegionBoundaryArithmetic) {
  // Section 4.2's safety argument, executed: sp at the very top of the
  // sandbox, then the maximum chain of unguarded drift (pre-index step
  // <= 1KiB, immediate offset <= 32KiB) must land inside the 48KiB guard
  // region - trapping, not escaping into the neighbor's table page.
  const std::string probe = R"(
    // Move sp to the last mapped stack byte region (top of stack).
    mov w22, wsp
    add sp, x21, x22
    str x0, [sp, #-256]!      // fine: inside the stack
    sub sp, sp, #1008         // elision-eligible small adjust...
    ldr x0, [sp, #32760]      // ...whose access reaches upward
    mov x0, #0
    ldr x30, [x21]
    blr x30
  )";
  // 2^15 + 2^10 = 33792 < 49152: whatever happens, the access stays in
  // sandbox or its guard region. Build unrewritten to keep the exact
  // shape; it must verify.
  Runtime rt(Config());
  auto elf_bytes = elf::Build(probe, std::nullopt);
  ASSERT_TRUE(elf_bytes.ok());
  auto pid = rt.Load(elf_bytes->bytes);
  ASSERT_TRUE(pid.ok()) << pid.error();
  rt.RunUntilIdle();
  // Exited or killed-by-guard-trap are both safe outcomes; what may NOT
  // happen is a successful access outside the slot (the emulator would
  // have let it through only if mapped - and the neighbor's pages are the
  // only thing there, so check the runtime is intact and no neighbor
  // exists to corrupt).
  const auto* p = rt.proc(*pid);
  EXPECT_TRUE(p->exit_kind == ExitKind::kExited ||
              p->exit_kind == ExitKind::kKilled);
}

}  // namespace
}  // namespace lfi
