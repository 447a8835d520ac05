// Supervisor tests: fault policies (kill / signal / restart), the signal
// delivery + sigreturn ABI (including forged-frame rejection), and the
// per-sandbox resource limits with graceful degradation.

#include <gtest/gtest.h>

#include <string>

#include "elf/build.h"
#include "fuzz/rng.h"
#include "runtime/runtime.h"

namespace lfi::runtime {
namespace {

RuntimeConfig TestConfig() {
  RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  return cfg;
}

struct TestRun {
  Runtime rt;
  int pid = -1;

  explicit TestRun(const std::string& src, bool rewrite = true,
                   RuntimeConfig cfg = TestConfig())
      : rt(cfg) {
    auto elf_bytes = rewrite ? elf::Build(src) : elf::Build(src, std::nullopt);
    EXPECT_TRUE(elf_bytes.ok()) << (elf_bytes.ok() ? "" : elf_bytes.error());
    if (!elf_bytes.ok()) return;
    auto p = rt.Load(elf_bytes->bytes);
    EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error());
    if (p.ok()) pid = *p;
  }

  Proc* P() { return rt.proc(pid); }
};

// ---- Signal policy -------------------------------------------------------

// Hand-guarded (rewrite=false): register a SIGSEGV handler, fault on a
// guard-region load, redirect the resume pc past the faulting instruction
// from inside the handler, sigreturn, and prove the interrupted register
// state (x19) survived the round trip.
TEST(Supervisor, SignalDeliveryAndSigreturnResume) {
  TestRun t(R"(
    adrp x1, handler
    add x1, x1, :lo12:handler
    mov x0, #11             // SIGSEGV
    ldr x30, [x21, #128]    // call-table entry 16 = sigaction
    blr x30
    cbnz x0, bad
    movz x19, #0x1234       // must survive fault -> handler -> sigreturn
    movz x1, #0x4000        // guard-region offset: unmapped
    add x18, x21, w1, uxtw
    ldr x0, [x18]           // faults; handler redirects resume here:
  resume:
    movz x2, #0x1234
    cmp x19, x2
    b.ne bad
    movz x0, #0x900d
    ldr x30, [x21]          // entry 0 = exit
    blr x30
  bad:
    mov x0, #1
    ldr x30, [x21]
    blr x30
  handler:
    // Entered with x0 = signo, x1 = frame address, sp = frame address.
    cmp x0, #11
    b.ne bad
    adrp x2, resume
    add x2, x2, :lo12:resume
    str x2, [sp, #32]       // frame.pc: redirect the resume
    mov x0, x1
    ldr x30, [x21, #136]    // entry 17 = sigreturn
    blr x30
  )",
            /*rewrite=*/false);
  ASSERT_GE(t.pid, 0);
  SupervisorPolicy pol;
  pol.on_fault = FaultAction::kSignal;
  t.rt.set_policy(t.pid, pol);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kExited);
  EXPECT_EQ(t.P()->exit_status, 0x900d);
  EXPECT_EQ(t.P()->disposition, Disposition::kSignaled);
  EXPECT_EQ(t.P()->sig.delivered, 1u);
  EXPECT_FALSE(t.P()->sig.in_handler);
}

TEST(Supervisor, DoubleFaultKills) {
  TestRun t(R"(
    adrp x1, handler
    add x1, x1, :lo12:handler
    mov x0, #11
    ldr x30, [x21, #128]    // sigaction(SIGSEGV, handler)
    blr x30
    movz x1, #0x4000
    add x18, x21, w1, uxtw
    ldr x0, [x18]           // first fault: delivered
  handler:
    movz x1, #0x4000
    add x18, x21, w1, uxtw
    ldr x0, [x18]           // second fault inside the handler: kill
  )",
            /*rewrite=*/false);
  ASSERT_GE(t.pid, 0);
  SupervisorPolicy pol;
  pol.on_fault = FaultAction::kSignal;
  t.rt.set_policy(t.pid, pol);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kKilled);
  EXPECT_EQ(t.P()->disposition, Disposition::kKilled);
  EXPECT_EQ(t.P()->term_signal, kSigSegv);
  EXPECT_EQ(t.P()->sig.delivered, 1u);
  EXPECT_NE(t.P()->fault_detail.find("double fault"), std::string::npos)
      << t.P()->fault_detail;
}

TEST(Supervisor, SignalPolicyWithoutHandlerFallsBackToKill) {
  TestRun t(R"(
    movz x1, #0x4000
    add x18, x21, w1, uxtw
    ldr x0, [x18]
  )",
            /*rewrite=*/false);
  ASSERT_GE(t.pid, 0);
  SupervisorPolicy pol;
  pol.on_fault = FaultAction::kSignal;
  t.rt.set_policy(t.pid, pol);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kKilled);
  EXPECT_EQ(t.P()->term_signal, kSigSegv);
  EXPECT_EQ(t.P()->sig.delivered, 0u);
}

TEST(Supervisor, SigreturnWithoutFrameKills) {
  TestRun t(R"(
    mov x0, #0
    rtcall #17              // sigreturn with no delivered signal
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kKilled);
  EXPECT_EQ(t.P()->term_signal, kSigSegv);
  EXPECT_NE(t.P()->fault_detail.find("no matching signal frame"),
            std::string::npos)
      << t.P()->fault_detail;
}

TEST(Supervisor, SigactionValidatesArguments) {
  TestRun t(R"(
    mov x0, #40             // signo out of range
    mov x1, #8
    rtcall #16
    cmn x0, #22             // -EINVAL
    b.ne bad
    mov x0, #11
    mov x1, #6              // unaligned handler address
    rtcall #16
    cmn x0, #22
    b.ne bad
    mov x0, #0
    rtcall #0
  bad:
    mov x0, #1
    rtcall #0
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kExited);
  EXPECT_EQ(t.P()->exit_status, 0);
}

// Near-miss sigreturn fuzzing: the handler corrupts one 8-byte word of
// the live signal frame (offset baked in per trial, chosen by a seeded
// rng), then sigreturns. Corrupting the magic or cookie words must be
// rejected as a forgery; corrupting restored-register words must still be
// contained (re-canonicalization keeps the sandbox inside its slot), and
// the runtime must survive every trial.
TEST(Supervisor, SigreturnFrameFuzzNearMiss) {
  static constexpr uint64_t kValidatedOffsets[] = {kSigOffMagic,
                                                   kSigOffCookie};
  static constexpr uint64_t kRestoredOffsets[] = {
      kSigOffPc, kSigOffSp, kSigOffRegs + 8 * 18, kSigOffRegs + 8 * 24,
      kSigOffRegs + 8 * 30};
  fuzz::Rng rng(fuzz::DeriveSeed(0x5167f7a2, 1));
  for (int trial = 0; trial < 10; ++trial) {
    const bool validated = rng.Chance(50);
    const uint64_t off = validated ? rng.Pick(kValidatedOffsets)
                                   : rng.Pick(kRestoredOffsets);
    const std::string src = R"(
    adrp x1, handler
    add x1, x1, :lo12:handler
    mov x0, #11
    ldr x30, [x21, #128]    // sigaction(SIGSEGV, handler)
    blr x30
    movz x1, #0x4000
    add x18, x21, w1, uxtw
    ldr x0, [x18]           // fault -> handler
  resume:
    movz x0, #0x77
    ldr x30, [x21]
    blr x30
  handler:
    // Bump a persistent entry counter; a corrupted-but-restored frame
    // may re-fault and re-deliver, so bail out on the second entry
    // instead of looping forever.
    adrp x4, cnt
    add x4, x4, :lo12:cnt
    add x18, x21, w4, uxtw
    ldr x5, [x18]
    add x5, x5, #1
    str x5, [x18]
    cmp x5, #2
    b.ge giveup
    adrp x2, resume
    add x2, x2, :lo12:resume
    str x2, [sp, #32]       // redirect the resume
    mov x4, sp
    add w4, w4, #)" + std::to_string(off) + R"(
    add x18, x21, w4, uxtw
    movz x5, #0xbad
    str x5, [x18]           // corrupt one frame word
    mov x0, sp
    ldr x30, [x21, #136]    // sigreturn
    blr x30
  giveup:
    movz x0, #0x66
    ldr x30, [x21]
    blr x30
  .bss
  cnt:
    .zero 8
  )";
    TestRun t(src, /*rewrite=*/false);
    ASSERT_GE(t.pid, 0) << "trial " << trial;
    SupervisorPolicy pol;
    pol.on_fault = FaultAction::kSignal;
    t.rt.set_policy(t.pid, pol);
    t.rt.RunUntilIdle(2000000);
    if (validated) {
      // Magic/cookie corruption is a forgery: killed, never resumed.
      EXPECT_EQ(t.P()->exit_kind, ExitKind::kKilled) << "off " << off;
      EXPECT_NE(t.P()->fault_detail.find("forged sigreturn frame"),
                std::string::npos)
          << t.P()->fault_detail;
    } else {
      // Restored-word corruption must stay contained: either the sandbox
      // recovered (pc redirect survived) or it died inside its slot. The
      // runtime itself survived either way.
      EXPECT_TRUE(t.P()->exit_kind == ExitKind::kExited ||
                  t.P()->exit_kind == ExitKind::kKilled);
    }
  }
}

// ---- Restart policy ------------------------------------------------------

TEST(Supervisor, RestartPolicyReloadsUntilBudgetExhausted) {
  // The program writes one byte then faults; under restart policy with
  // budget 2 it runs three times total (so stdout shows "AAA"), then the
  // policy degrades to kill.
  TestRun t(R"(
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x0, #1
    mov x2, #1
    ldr x30, [x21, #8]      // entry 1 = write
    blr x30
    movz x1, #0x4000
    add x18, x21, w1, uxtw
    ldr x0, [x18]
  .data
  msg:
    .asciz "A"
  )",
            /*rewrite=*/false);
  ASSERT_GE(t.pid, 0);
  SupervisorPolicy pol;
  pol.on_fault = FaultAction::kRestart;
  pol.restart_budget = 2;
  pol.restart_backoff_base_cycles = 100;
  t.rt.set_policy(t.pid, pol);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->out, "AAA");
  EXPECT_EQ(t.P()->restarts, 2u);
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kKilled);
  EXPECT_EQ(t.P()->disposition, Disposition::kKilled);
  EXPECT_NE(t.P()->fault_detail.find("restart budget exhausted"),
            std::string::npos)
      << t.P()->fault_detail;
}

TEST(Supervisor, RestartWithoutCheckpointKills) {
  // Restore is the only restart path: a proc whose checkpoint was cleared
  // is killed on its first fault instead of being reloaded.
  TestRun t(R"(
    movz x1, #0x4000
    add x18, x21, w1, uxtw
    ldr x0, [x18]
  )",
            /*rewrite=*/false);
  ASSERT_GE(t.pid, 0);
  SupervisorPolicy pol;
  pol.on_fault = FaultAction::kRestart;
  pol.restart_budget = 2;
  t.rt.set_policy(t.pid, pol);
  t.rt.set_restart_snapshot(t.pid, nullptr);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->restarts, 0u);
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kKilled);
  EXPECT_EQ(t.P()->disposition, Disposition::kKilled);
}

TEST(Supervisor, RestartBackoffGrowsAndIsCapped) {
  // Each successive restart charges (base << restarts), capped. Watch the
  // global clock across a two-restart run with a large base.
  TestRun t(R"(
    movz x1, #0x4000
    add x18, x21, w1, uxtw
    ldr x0, [x18]
  )",
            /*rewrite=*/false);
  ASSERT_GE(t.pid, 0);
  SupervisorPolicy pol;
  pol.on_fault = FaultAction::kRestart;
  pol.restart_budget = 3;
  pol.restart_backoff_base_cycles = 1000;
  pol.restart_backoff_cap_cycles = 1500;  // second restart hits the cap
  t.rt.set_policy(t.pid, pol);
  const uint64_t before = t.rt.Cycles();
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->restarts, 3u);
  // 1000 + 1500 + 1500 of pure backoff, plus execution noise.
  EXPECT_GE(t.rt.Cycles() - before, 4000u);
}

// A sandbox that spins well past the reset window before each fault:
// long-lived tenant with a rare fault, not a crash loop.
const char* kHealthyThenFaultProg = R"(
    movz x19, #20000
  spin:
    sub x19, x19, #1
    cbnz x19, spin
    movz x1, #0x4000
    add x18, x21, w1, uxtw
    ldr x0, [x18]
)";

TEST(Supervisor, RestartBudgetDecaysAfterHealthyRun) {
  // Regression: backoff/budget never reset, so a tenant faulting once a
  // day burned restart budget like a crash loop. With the reset window
  // below each incarnation's healthy runtime, the crash-window count
  // must stay at one while lifetime restarts (the trace counter) sail
  // past the budget.
  trace::TraceSink sink(/*ring_capacity=*/1024);
  TestRun t(kHealthyThenFaultProg, /*rewrite=*/false);
  ASSERT_GE(t.pid, 0);
  t.rt.set_trace_sink(&sink);
  SupervisorPolicy pol;
  pol.on_fault = FaultAction::kRestart;
  pol.restart_budget = 2;
  pol.restart_backoff_base_cycles = 100;
  pol.restart_reset_after_cycles = 1000;  // << one incarnation's cycles
  t.rt.set_policy(t.pid, pol);
  // Bounded run: the proc restarts forever now, which is the point.
  t.rt.RunUntilIdle(/*max_total_insts=*/600000);
  EXPECT_LE(t.P()->restarts, 1u);
  EXPECT_GT(sink.metrics(t.pid).Get(trace::Counter::kRestarts),
            pol.restart_budget);
  EXPECT_NE(t.P()->exit_kind, ExitKind::kKilled);
}

TEST(Supervisor, RestartBudgetStillExhaustsWithDecayDisabled) {
  // restart_reset_after_cycles = 0 keeps the legacy semantics: healthy
  // incarnations don't matter, the budget only ever shrinks.
  trace::TraceSink sink(/*ring_capacity=*/1024);
  TestRun t(kHealthyThenFaultProg, /*rewrite=*/false);
  ASSERT_GE(t.pid, 0);
  t.rt.set_trace_sink(&sink);
  SupervisorPolicy pol;
  pol.on_fault = FaultAction::kRestart;
  pol.restart_budget = 2;
  pol.restart_backoff_base_cycles = 100;
  pol.restart_reset_after_cycles = 0;
  t.rt.set_policy(t.pid, pol);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->restarts, 2u);
  EXPECT_EQ(sink.metrics(t.pid).Get(trace::Counter::kRestarts), 2u);
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kKilled);
}

TEST(Supervisor, RestartBackoffResetsWithBudget) {
  // After a healthy run, the next fault pays base backoff again instead
  // of continuing up the exponential curve.
  trace::TraceSink sink(/*ring_capacity=*/1024);
  TestRun t(kHealthyThenFaultProg, /*rewrite=*/false);
  ASSERT_GE(t.pid, 0);
  t.rt.set_trace_sink(&sink);
  SupervisorPolicy pol;
  pol.on_fault = FaultAction::kRestart;
  pol.restart_budget = 8;
  pol.restart_backoff_base_cycles = 50000;  // would double per restart
  pol.restart_backoff_cap_cycles = 10000000;
  pol.restart_reset_after_cycles = 1000;
  t.rt.set_policy(t.pid, pol);
  const uint64_t before = t.rt.Cycles();
  t.rt.RunUntilIdle(/*max_total_insts=*/200000);
  const uint64_t n = sink.metrics(t.pid).Get(trace::Counter::kRestarts);
  ASSERT_GE(n, 3u);
  // Every restart charged base (shift 0). Without the reset the first
  // four alone would charge 50k+100k+200k+400k = 750k cycles.
  const uint64_t elapsed = t.rt.Cycles() - before;
  EXPECT_LT(elapsed, 50000ull * n + 300000);
}

TEST(Supervisor, RestartPolicyRestartsForkedChildren) {
  // Regression: forked children have no ELF image of their own, and the
  // restart policy used to degrade to kill for them immediately. They now
  // restart from the snapshot captured at fork: the child re-enters at the
  // fork return (x0 = 0), faults again, and loops until the budget runs
  // out; the parent's wait then observes the kill.
  RuntimeConfig cfg = TestConfig();
  cfg.default_policy.on_fault = FaultAction::kRestart;
  cfg.default_policy.restart_budget = 2;
  cfg.default_policy.restart_backoff_base_cycles = 100;
  TestRun t(R"(
    ldr x30, [x21, #64]     // call-table entry 8 = fork
    blr x30
    cbz x0, child
    mov x0, sp              // parent: wait(&status) on the stack
    ldr x30, [x21, #72]     // entry 9 = wait
    blr x30
    ldr w0, [sp]
    ldr x30, [x21]          // entry 0 = exit(status word)
    blr x30
  child:
    movz x1, #0x4000        // guard-region offset: unmapped, faults
    add x18, x21, w1, uxtw
    ldr x0, [x18]
  )",
            /*rewrite=*/false, cfg);
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();

  const Proc* child = t.rt.proc(t.pid + 1);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->restarts, 2u);
  EXPECT_EQ(child->exit_kind, ExitKind::kKilled);
  EXPECT_NE(child->fault_detail.find("restart budget exhausted"),
            std::string::npos)
      << child->fault_detail;
  ASSERT_EQ(t.P()->exit_kind, ExitKind::kExited);
  EXPECT_EQ(t.P()->exit_status, 0x100 | kSigSegv);
}

// ---- Resource limits -----------------------------------------------------

TEST(Supervisor, CpuQuotaWatchdogKillsRunaway) {
  TestRun t(R"(
  loop:
    b loop
  )");
  ASSERT_GE(t.pid, 0);
  SupervisorPolicy pol;
  pol.limits.max_cpu_cycles = 50000;
  t.rt.set_policy(t.pid, pol);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kKilled);
  EXPECT_EQ(t.P()->term_signal, kSigXcpu);
  EXPECT_NE(t.P()->fault_detail.find("cpu quota exceeded"),
            std::string::npos)
      << t.P()->fault_detail;
  // Overshoot is bounded by one timeslice.
  EXPECT_LT(t.P()->cpu_cycles, 50000u + 4 * 100000u);
}

TEST(Supervisor, HeapLimitReturnsEnomem) {
  TestRun t(R"(
    mov x0, #0
    rtcall #5               // brk(0)
    mov x19, x0
    movz x1, #0x4, lsl #16
    add x0, x19, x1
    rtcall #5               // +256KiB: over the 128KiB cap
    cmn x0, #12             // -ENOMEM
    b.ne bad
    movz x1, #0x1, lsl #16
    add x0, x19, x1
    rtcall #5               // +64KiB: still fits
    cmn x0, #12
    b.eq bad
    mov x0, #0
    rtcall #0
  bad:
    mov x0, #1
    rtcall #0
  )");
  ASSERT_GE(t.pid, 0);
  SupervisorPolicy pol;
  pol.limits.max_heap_bytes = 128 * 1024;
  t.rt.set_policy(t.pid, pol);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kExited);
  EXPECT_EQ(t.P()->exit_status, 0);
}

TEST(Supervisor, MmapLimitTracksLiveBytes) {
  TestRun t(R"(
    movz x1, #0x4000        // one 16KiB page
    rtcall #6
    cmn x0, #12
    b.eq bad
    mov x19, x0
    movz x1, #0x4000
    rtcall #6               // second page: over the cap
    cmn x0, #12
    b.ne bad
    mov x0, x19
    movz x1, #0x4000
    rtcall #7               // munmap releases the accounting
    cbnz x0, bad
    movz x1, #0x4000
    rtcall #6               // fits again
    cmn x0, #12
    b.eq bad
    mov x0, #0
    rtcall #0
  bad:
    mov x0, #1
    rtcall #0
  )");
  ASSERT_GE(t.pid, 0);
  SupervisorPolicy pol;
  pol.limits.max_mmap_bytes = 16384;
  t.rt.set_policy(t.pid, pol);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kExited);
  EXPECT_EQ(t.P()->exit_status, 0);
}

TEST(Supervisor, FdCapReturnsEmfile) {
  TestRun t(R"(
    adrp x0, path
    add x0, x0, :lo12:path
    mov x1, #0
    rtcall #3               // open -> fd 3 (last slot under cap 4)
    cmp x0, #3
    b.ne bad
    adrp x0, path
    add x0, x0, :lo12:path
    mov x1, #0
    rtcall #3               // cap hit
    cmn x0, #24             // -EMFILE
    b.ne bad
    mov x0, #0
    rtcall #0
  bad:
    mov x0, #1
    rtcall #0
  .data
  path:
    .asciz "/etc/motd"
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.vfs().Install("/etc/motd", std::string("hi"));
  SupervisorPolicy pol;
  pol.limits.max_fds = 4;
  t.rt.set_policy(t.pid, pol);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kExited);
  EXPECT_EQ(t.P()->exit_status, 0);
}

TEST(Supervisor, PipeCapReturnsEagainInsteadOfBlocking) {
  TestRun t(R"(
    adrp x0, fds
    add x0, x0, :lo12:fds
    rtcall #10              // pipe
    cbnz x0, bad
    adrp x1, fds
    add x1, x1, :lo12:fds
    ldr w19, [x1, #4]       // write end
    mov x0, x19
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #64
    rtcall #1               // fills the 64-byte capped pipe
    cmp x0, #64
    b.ne bad
    mov x0, x19
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #8
    rtcall #1               // full: EAGAIN, not a blocked writer
    cmn x0, #11
    b.ne bad
    mov x0, #0
    rtcall #0
  bad:
    mov x0, #1
    rtcall #0
  .bss
  fds:
    .zero 8
  buf:
    .zero 64
  )");
  ASSERT_GE(t.pid, 0);
  SupervisorPolicy pol;
  pol.limits.max_pipe_buffer_bytes = 64;
  t.rt.set_policy(t.pid, pol);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kExited);
  EXPECT_EQ(t.P()->exit_status, 0);
}

TEST(Supervisor, LimitsAndPolicyInheritedAcrossFork) {
  // The child inherits the parent's fd cap: its first open must fail the
  // same way the parent's would.
  TestRun t(R"(
    ldr x30, [x21, #64]     // fork
    blr x30
    cbz x0, child
    mov x0, sp
    ldr x30, [x21, #72]     // wait(&status)
    blr x30
    ldr w0, [sp]
    ldr x30, [x21]          // exit(child status)
    blr x30
  child:
    adrp x0, path
    add x0, x0, :lo12:path
    mov x1, #0
    ldr x30, [x21, #24]     // open under an exhausted fd cap
    blr x30
    cmn x0, #24
    b.ne bad
    movz x0, #0x33
    ldr x30, [x21]
    blr x30
  bad:
    mov x0, #1
    ldr x30, [x21]
    blr x30
  .data
  path:
    .asciz "/etc/motd"
  )",
            /*rewrite=*/false);
  ASSERT_GE(t.pid, 0);
  t.rt.vfs().Install("/etc/motd", std::string("hi"));
  SupervisorPolicy pol;
  pol.limits.max_fds = 3;  // only stdio fits
  t.rt.set_policy(t.pid, pol);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, 0x33);
}

}  // namespace
}  // namespace lfi::runtime
