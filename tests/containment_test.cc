// Cross-sandbox containment: whatever a victim sandbox does (every
// CpuFault kind, under every fault policy) and whatever the chaos engine
// injects, sibling sandboxes must be bit-for-bit undisturbed — same exit
// status, same retired-instruction count — and the runtime itself must
// never abort.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "chaos/chaos.h"
#include "elf/build.h"
#include "runtime/runtime.h"

namespace lfi::runtime {
namespace {

RuntimeConfig TestConfig() {
  RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  return cfg;
}

// The matrix victims are raw fault triggers (decode garbage, bare svc,
// unguarded misaligned branch), which can't pass verification; these runs
// model a verifier bypass, the worst case for containment.
RuntimeConfig NoVerifyConfig() {
  RuntimeConfig cfg = TestConfig();
  cfg.enforce_verification = false;
  return cfg;
}

// A deterministic sibling workload: its retired count depends only on its
// own instruction stream, never on scheduling.
constexpr const char* kSibling = R"(
    movz x19, #300
  loop:
    sub x19, x19, #1
    cbnz x19, loop
    movz x0, #0x51b
    rtcall #0
)";

std::vector<uint8_t> MustBuild(const std::string& src, bool rewrite) {
  auto e = rewrite ? elf::Build(src) : elf::Build(src, std::nullopt);
  EXPECT_TRUE(e.ok()) << (e.ok() ? "" : e.error());
  return e.ok() ? e->bytes : std::vector<uint8_t>{};
}

TEST(Containment, FaultMatrixLeavesSiblingUndisturbed) {
  struct VictimSpec {
    const char* name;
    const char* src;
  };
  static const VictimSpec kVictims[] = {
      {"memory",
       "movz x1, #0x4000\n"
       "add x18, x21, w1, uxtw\n"
       "ldr x0, [x18]\n"},
      {"decode", ".word 0xffffffff\n"},
      {"illegal", "svc #0\n"},
      {"pc-align",
       "mov x1, #3\n"
       "br x1\n"},
  };
  static const FaultAction kActions[] = {
      FaultAction::kKill, FaultAction::kSignal, FaultAction::kRestart};

  const std::vector<uint8_t> sibling_elf = MustBuild(kSibling, true);
  ASSERT_FALSE(sibling_elf.empty());

  // Fault-free reference: the sibling alone.
  uint64_t base_retired = 0;
  int base_status = 0;
  {
    Runtime rt(NoVerifyConfig());
    auto pid = rt.Load({sibling_elf.data(), sibling_elf.size()});
    ASSERT_TRUE(pid.ok());
    rt.RunUntilIdle();
    ASSERT_EQ(rt.proc(*pid)->exit_kind, ExitKind::kExited);
    base_retired = rt.proc(*pid)->insts_retired;
    base_status = rt.proc(*pid)->exit_status;
  }
  ASSERT_GT(base_retired, 0u);

  for (const VictimSpec& v : kVictims) {
    const std::vector<uint8_t> victim_elf = MustBuild(v.src, false);
    ASSERT_FALSE(victim_elf.empty()) << v.name;
    for (FaultAction action : kActions) {
      SCOPED_TRACE(std::string(v.name) + " / " + FaultActionName(action));
      Runtime rt(NoVerifyConfig());
      auto sib = rt.Load({sibling_elf.data(), sibling_elf.size()});
      auto vic = rt.Load({victim_elf.data(), victim_elf.size()});
      ASSERT_TRUE(sib.ok() && vic.ok());
      SupervisorPolicy pol;
      pol.on_fault = action;
      pol.restart_budget = 1;
      pol.restart_backoff_base_cycles = 100;
      rt.set_policy(*vic, pol);
      rt.RunUntilIdle();
      // The victim is contained: dead, with the fault recorded. (Signal
      // policy falls back to kill here — no handler was registered;
      // restart re-faults and exhausts its budget.)
      EXPECT_EQ(rt.proc(*vic)->exit_kind, ExitKind::kKilled);
      EXPECT_FALSE(rt.proc(*vic)->fault_detail.empty());
      if (action == FaultAction::kRestart) {
        EXPECT_EQ(rt.proc(*vic)->restarts, 1u);
      }
      // The sibling never noticed.
      EXPECT_EQ(rt.proc(*sib)->exit_kind, ExitKind::kExited);
      EXPECT_EQ(rt.proc(*sib)->exit_status, base_status);
      EXPECT_EQ(rt.proc(*sib)->insts_retired, base_retired);
    }
  }
}

// Three independent workloads for the chaos runs: one syscall-heavy (the
// designated victim), two pure-compute bystanders.
constexpr const char* kChaosVictim = R"(
    movz x19, #50
  aloop:
    mov x0, #0
    rtcall #5
    sub x19, x19, #1
    cbnz x19, aloop
    movz x20, #8000
  spin:
    sub x20, x20, #1
    cbnz x20, spin
    mov x0, #5
    rtcall #0
)";
constexpr const char* kBystanderB = R"(
    movz x19, #5000
  loop:
    sub x19, x19, #1
    cbnz x19, loop
    mov x0, #6
    rtcall #0
)";
constexpr const char* kBystanderC = R"(
    movz x19, #100
  loop:
    mov x0, #0
    rtcall #5
    sub x19, x19, #1
    cbnz x19, loop
    mov x0, #7
    rtcall #0
)";

struct ProcResult {
  ExitKind kind;
  int status;
  uint64_t retired;
  Disposition disposition;
  bool operator==(const ProcResult& o) const {
    return kind == o.kind && status == o.status && retired == o.retired &&
           disposition == o.disposition;
  }
};

std::vector<ProcResult> RunTrio(chaos::ChaosEngine* eng, int pinned_victim) {
  Runtime rt(TestConfig());
  if (eng != nullptr) rt.set_chaos(eng);
  std::vector<int> pids;
  for (const char* src : {kChaosVictim, kBystanderB, kBystanderC}) {
    auto elf = elf::Build(src);
    EXPECT_TRUE(elf.ok());
    auto pid = rt.Load(elf->bytes);
    EXPECT_TRUE(pid.ok());
    pids.push_back(*pid);
  }
  if (eng != nullptr && pinned_victim >= 0) {
    eng->MarkVictim(pids[static_cast<size_t>(pinned_victim)]);
  }
  rt.RunUntilIdle(50'000'000);
  std::vector<ProcResult> out;
  for (int pid : pids) {
    const Proc* p = rt.proc(pid);
    out.push_back(
        {p->exit_kind, p->exit_status, p->insts_retired, p->disposition});
  }
  return out;
}

TEST(Containment, ChaosReplayIsDeterministic) {
  // Same seed + profile => identical outcome for every sandbox, down to
  // retired-instruction counts. This is the replay contract chaos debug
  // sessions rely on.
  chaos::ChaosEngine a(0x7e57ed, chaos::ProfileByName("storm"));
  chaos::ChaosEngine b(0x7e57ed, chaos::ProfileByName("storm"));
  const auto ra = RunTrio(&a, -1);
  const auto rb = RunTrio(&b, -1);
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_TRUE(ra[i] == rb[i]) << "pid index " << i;
  }
}

TEST(Containment, ChaosSoakSparesUninjectedSandboxes) {
  // Pin the victim set to sandbox 0 and storm it. The un-injected
  // bystanders must retire exactly the chaos-free instruction stream and
  // exit with the same status; the runtime survives the whole soak.
  const auto clean = RunTrio(nullptr, -1);
  ASSERT_EQ(clean.size(), 3u);
  EXPECT_EQ(clean[1].kind, ExitKind::kExited);
  EXPECT_EQ(clean[2].kind, ExitKind::kExited);

  for (uint64_t seed : {1ull, 2ull, 3ull, 0xdeadbeefull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    chaos::ChaosEngine eng(seed, chaos::ProfileByName("storm"));
    const auto stormy = RunTrio(&eng, 0);
    ASSERT_EQ(stormy.size(), 3u);
    // Bystanders: bit-identical behavior (timestamps aside).
    for (size_t i : {size_t{1}, size_t{2}}) {
      EXPECT_EQ(stormy[i].kind, clean[i].kind) << i;
      EXPECT_EQ(stormy[i].status, clean[i].status) << i;
      EXPECT_EQ(stormy[i].retired, clean[i].retired) << i;
    }
    // The victim was contained whatever happened to it.
    EXPECT_TRUE(stormy[0].kind == ExitKind::kExited ||
                stormy[0].kind == ExitKind::kKilled);
  }
}

}  // namespace
}  // namespace lfi::runtime
