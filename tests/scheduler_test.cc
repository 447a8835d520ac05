// Scheduler tests: round-robin fairness and starvation-freedom under
// preemption budgets, fast-yield ordering across N processes, wakeup
// after a pipe unblocks, and the one rule for who may run: parked
// (warm-pool) and embedded sandboxes are never scheduled, not even by
// another sandbox's yield_to, and yield_to(own pid) is refused. The
// trace subsystem serves as the oracle: the per-pid instruction counters
// prove fairness, and the cycle-stamped event ring proves ordering.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "elf/build.h"
#include "embed/abi.h"
#include "embed/embed.h"
#include "runtime/runtime.h"
#include "trace/trace.h"

namespace lfi::runtime {
namespace {

using trace::Counter;
using trace::Event;
using trace::EventKind;
using trace::TraceSink;

RuntimeConfig TestConfig() {
  RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  return cfg;
}

// Calls yield_to(target) once and exits 0 if it returned ESRCH, else 1.
std::string YieldToExpectingEsrch(int target) {
  return "movz x0, #" + std::to_string(target) + R"(
    rtcall #14          // yield_to(target)
    cmn x0, #3          // -ESRCH
    b.ne bad
    mov x0, #0
    rtcall #0
  bad:
    mov x0, #1
    rtcall #0
  )";
}

// An embeddable module with one export, add3(a, b, c) = a + b + c.
std::string Add3Module() {
  return embed::GuestModuleSource({{"add3", "add3"}}, R"(
add3:
  add x0, x0, x1
  add x0, x0, x2
  ret
)");
}

// Loads a program that exits with 77, keeps its post-load checkpoint and
// kills it, so only the checkpoint remains for a parked spawn.
std::shared_ptr<const snapshot::Snapshot> Exit77Checkpoint(Runtime& rt) {
  auto e = elf::Build("mov x0, #77\nrtcall #0\n");
  EXPECT_TRUE(e.ok()) << e.error();
  if (!e.ok()) return nullptr;
  auto pid = rt.Load(e->bytes);
  EXPECT_TRUE(pid.ok()) << pid.error();
  if (!pid.ok()) return nullptr;
  auto snap = rt.CaptureSnapshot(*pid);
  EXPECT_TRUE(snap.ok()) << snap.error();
  EXPECT_TRUE(rt.Kill(*pid, "only its checkpoint is needed").ok());
  if (!snap.ok()) return nullptr;
  return std::make_shared<const snapshot::Snapshot>(std::move(*snap));
}

// Index of the first ring event matching, or -1.
int FindEvent(const TraceSink& sink, EventKind kind, int pid,
              size_t from = 0) {
  for (size_t k = from; k < sink.ring().size(); ++k) {
    const Event& e = sink.ring().at(k);
    if (e.kind == kind && e.pid == pid) return static_cast<int>(k);
  }
  return -1;
}

TEST(Scheduler, RoundRobinSharesCpuFairly) {
  // Three identical CPU-bound loops, preempted every 500 instructions,
  // under a total budget none of them can finish within: the per-pid
  // retired-instruction counters must differ by at most one timeslice.
  const std::string looper = R"(
    movz x9, #0xffff
  loop:
    subs x9, x9, #1
    b.ne loop
    rtcall #0
  )";
  RuntimeConfig cfg = TestConfig();
  cfg.timeslice_insts = 500;
  Runtime rt(cfg);
  TraceSink sink;
  rt.set_trace_sink(&sink);
  auto e = elf::Build(looper);
  ASSERT_TRUE(e.ok()) << e.error();
  std::vector<int> pids;
  for (int k = 0; k < 3; ++k) {
    auto p = rt.Load(e->bytes);
    ASSERT_TRUE(p.ok()) << p.error();
    pids.push_back(*p);
  }
  rt.RunUntilIdle(/*max_total_insts=*/30000);

  std::vector<uint64_t> retired;
  for (int pid : pids) {
    const uint64_t r = sink.metrics(pid).Get(Counter::kInstRetired);
    EXPECT_GT(r, 0u) << "pid " << pid << " was starved";
    retired.push_back(r);
  }
  const auto [lo, hi] = std::minmax_element(retired.begin(), retired.end());
  EXPECT_LE(*hi - *lo, cfg.timeslice_insts)
      << "unfair split: " << retired[0] << "/" << retired[1] << "/"
      << retired[2];
}

TEST(Scheduler, PreemptionPreventsStarvationByBusyLoop) {
  // A non-yielding infinite loop is loaded FIRST; a short program loaded
  // after it must still complete — only preemption can make that happen.
  const std::string hog = R"(
  loop:
    b loop
  )";
  const std::string quick = R"(
    mov x0, #33
    rtcall #0
  )";
  RuntimeConfig cfg = TestConfig();
  cfg.timeslice_insts = 200;
  Runtime rt(cfg);
  TraceSink sink;
  rt.set_trace_sink(&sink);
  auto eh = elf::Build(hog);
  auto eq = elf::Build(quick);
  ASSERT_TRUE(eh.ok() && eq.ok());
  auto ph = rt.Load(eh->bytes);
  auto pq = rt.Load(eq->bytes);
  ASSERT_TRUE(ph.ok() && pq.ok());
  rt.RunUntilIdle(/*max_total_insts=*/100000);

  EXPECT_EQ(rt.proc(*pq)->exit_kind, ExitKind::kExited);
  EXPECT_EQ(rt.proc(*pq)->exit_status, 33);
  // The hog kept running before and after — it must dominate the retired
  // count, and the quick program must have been switched into at least
  // once (a context switch, not a fast yield: nobody yielded to it).
  EXPECT_GT(sink.metrics(*ph).Get(Counter::kInstRetired),
            sink.metrics(*pq).Get(Counter::kInstRetired));
  EXPECT_GE(sink.metrics(*pq).Get(Counter::kContextSwitches), 1u);
}

TEST(Scheduler, YieldToChainRunsInOrder) {
  // pid1 -> pid2 -> pid3 via the fast direct yield. The event ring must
  // show the two yield-to events in chain order, and each handoff must be
  // accounted as a fast yield (not a full context switch) on the target.
  // All three run the same image; pid3's yield to the nonexistent pid4
  // fails with ESRCH, which must not emit an event.
  const std::string yielder = R"(
    rtcall #12          // getpid
    add x0, x0, #1
    rtcall #14          // yield_to(pid+1)
    mov x0, #0
    rtcall #0
  )";
  Runtime rt(TestConfig());
  TraceSink sink;
  rt.set_trace_sink(&sink);
  auto ey = elf::Build(yielder);
  ASSERT_TRUE(ey.ok()) << ey.error();
  auto p1 = rt.Load(ey->bytes);
  auto p2 = rt.Load(ey->bytes);
  auto p3 = rt.Load(ey->bytes);
  ASSERT_TRUE(p1.ok() && p2.ok() && p3.ok());
  rt.RunUntilIdle();

  for (int pid : {*p1, *p2, *p3}) {
    EXPECT_EQ(rt.proc(pid)->exit_status, 0);
  }
  const int y1 = FindEvent(sink, EventKind::kYieldTo, *p1);
  const int y2 = FindEvent(sink, EventKind::kYieldTo, *p2);
  ASSERT_GE(y1, 0);
  ASSERT_GE(y2, 0);
  EXPECT_LT(y1, y2) << "yield chain ran out of order";
  EXPECT_EQ(sink.ring().at(y1).arg0, static_cast<uint64_t>(*p2));
  EXPECT_EQ(sink.ring().at(y2).arg0, static_cast<uint64_t>(*p3));
  // Each yield target was switched into on the fast path.
  EXPECT_GE(sink.metrics(*p2).Get(Counter::kFastYields), 1u);
  EXPECT_GE(sink.metrics(*p3).Get(Counter::kFastYields), 1u);
  // Timestamps along the chain are nondecreasing simulated cycles.
  EXPECT_LE(sink.ring().at(y1).start, sink.ring().at(y2).start);
  // pid3's failed yield to pid4 left no event behind.
  EXPECT_EQ(FindEvent(sink, EventKind::kYieldTo, *p3), -1);
}

TEST(Scheduler, PipeUnblockWakesReader) {
  // After a fork the child runs its first timeslice before the parent
  // resumes, so the child's read of the still-empty pipe must block; the
  // parent's write must wake it. The event ring must show: child
  // read-blocks, parent writes the pipe, child's read completes — in that
  // order — and the byte must flow through to the parent via wait().
  const std::string prog = R"(
    adrp x0, fds
    add x0, x0, :lo12:fds
    rtcall #10          // pipe
    rtcall #8           // fork
    cbz x0, child
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9, #4]
    adrp x1, byte
    add x1, x1, :lo12:byte
    mov x2, #1
    rtcall #1           // write wakes the blocked child
    adrp x0, status
    add x0, x0, :lo12:status
    rtcall #9           // wait for the child
    adrp x1, status
    add x1, x1, :lo12:status
    ldr w0, [x1]
    rtcall #0           // exit(child's status == the byte)
  child:
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9]
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    rtcall #2           // read: blocks, parent has not written yet
    adrp x1, buf
    add x1, x1, :lo12:buf
    ldrb w0, [x1]
    rtcall #0           // exit(byte read)
  .data
  byte:
    .byte 65
  .bss
  fds:
    .zero 8
  status:
    .zero 8
  buf:
    .zero 8
  )";
  Runtime rt(TestConfig());
  TraceSink sink;
  rt.set_trace_sink(&sink);
  auto e = elf::Build(prog);
  ASSERT_TRUE(e.ok()) << e.error();
  auto pp = rt.Load(e->bytes);
  ASSERT_TRUE(pp.ok());
  EXPECT_EQ(rt.RunUntilIdle(), 0);
  EXPECT_EQ(rt.proc(*pp)->exit_status, 65);

  const int parent = *pp;
  const int child = parent + 1;
  const int blocked = FindEvent(sink, EventKind::kSyscallBlock, child);
  ASSERT_GE(blocked, 0) << "child never blocked on the empty pipe";
  EXPECT_EQ(sink.ring().at(blocked).arg0,
            static_cast<uint64_t>(Rtcall::kRead));
  const int wrote = FindEvent(sink, EventKind::kPipeWrite, parent);
  ASSERT_GE(wrote, 0);
  const int readk = FindEvent(sink, EventKind::kPipeRead, child);
  ASSERT_GE(readk, 0);
  EXPECT_LT(blocked, wrote);
  EXPECT_LT(wrote, readk);
  EXPECT_EQ(sink.metrics(child).Get(Counter::kPipeBytesRead), 1u);
  EXPECT_EQ(sink.metrics(parent).Get(Counter::kPipeBytesWritten), 1u);
}

TEST(Scheduler, BlockedWriterWakesWhenReaderDrains) {
  // Writer fills the pipe to capacity then writes one more byte (blocks);
  // the forked reader — kept busy spinning for several timeslices so it
  // cannot drain early — then drains, unblocking the writer, which exits
  // cleanly. Covers the kBlockedWrite -> TryUnblock path.
  const std::string prog = R"(
    adrp x0, fds
    add x0, x0, :lo12:fds
    rtcall #10          // pipe
    rtcall #8           // fork
    cbz x0, child
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9, #4]
    adrp x1, big
    add x1, x1, :lo12:big
    movz x2, #1, lsl #16  // 65536: fill to capacity
    rtcall #1
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9, #4]
    adrp x1, big
    add x1, x1, :lo12:big
    mov x2, #1
    rtcall #1           // blocks: pipe full
    cmp x0, #1          // completed write returns 1
    b.ne bad
    mov x0, #0
    rtcall #0
  child:
    movz x10, #4, lsl #16  // ~5 timeslices of spinning before draining
  spin:
    subs x10, x10, #1
    b.ne spin
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9]
    adrp x1, big
    add x1, x1, :lo12:big
    movz x2, #1, lsl #16
    rtcall #2           // drain
    mov x0, #0
    rtcall #0
  bad:
    mov x0, #1
    rtcall #0
  .bss
  fds:
    .zero 8
  big:
    .zero 65536
  )";
  Runtime rt(TestConfig());
  TraceSink sink;
  rt.set_trace_sink(&sink);
  auto e = elf::Build(prog);
  ASSERT_TRUE(e.ok()) << e.error();
  auto pp = rt.Load(e->bytes);
  ASSERT_TRUE(pp.ok());
  EXPECT_EQ(rt.RunUntilIdle(), 0);
  EXPECT_EQ(rt.proc(*pp)->exit_status, 0);
  const int blocked = FindEvent(sink, EventKind::kSyscallBlock, *pp);
  ASSERT_GE(blocked, 0) << "writer never blocked on the full pipe";
  EXPECT_EQ(sink.ring().at(blocked).arg0,
            static_cast<uint64_t>(Rtcall::kWrite));
  // 65536 + the 1 retried byte.
  EXPECT_EQ(sink.metrics(*pp).Get(Counter::kPipeBytesWritten), 65537u);
}

TEST(Scheduler, YieldToParkedSandboxGetsEsrch) {
  // A warm-pool sandbox stays parked until Activate: another sandbox's
  // yield_to must neither run it nor report success.
  Runtime rt(TestConfig());
  auto snap = Exit77Checkpoint(rt);
  ASSERT_NE(snap, nullptr);
  auto parked = rt.SpawnFromSnapshot(snap, /*start=*/false);
  ASSERT_TRUE(parked.ok()) << parked.error();
  auto e = elf::Build(YieldToExpectingEsrch(*parked));
  ASSERT_TRUE(e.ok()) << e.error();
  auto caller = rt.Load(e->bytes);
  ASSERT_TRUE(caller.ok()) << caller.error();
  rt.RunUntilIdle();

  EXPECT_EQ(rt.proc(*caller)->exit_kind, ExitKind::kExited);
  EXPECT_EQ(rt.proc(*caller)->exit_status, 0);
  const Proc* t = rt.proc(*parked);
  EXPECT_EQ(t->insts_retired, 0u);
  EXPECT_EQ(t->exit_kind, ExitKind::kRunning);
  EXPECT_TRUE(t->parked);

  ASSERT_TRUE(rt.Activate(*parked).ok());
  rt.RunUntilIdle();
  EXPECT_EQ(t->exit_kind, ExitKind::kExited);
  EXPECT_EQ(t->exit_status, 77);
}

TEST(Scheduler, YieldToEmbeddedSandboxGetsEsrch) {
  // An embedded sandbox is entered only through its typed calls: a
  // scheduled sandbox's yield_to must not run it, and it stays callable.
  Runtime rt(TestConfig());
  auto m = elf::Build(Add3Module());
  ASSERT_TRUE(m.ok()) << m.error();
  auto sb = embed::Sandbox::Create(rt, m->bytes);
  ASSERT_TRUE(sb.ok()) << sb.error();
  const int emb = (*sb)->pid();
  const uint64_t before = rt.proc(emb)->insts_retired;
  auto e = elf::Build(YieldToExpectingEsrch(emb));
  ASSERT_TRUE(e.ok()) << e.error();
  auto caller = rt.Load(e->bytes);
  ASSERT_TRUE(caller.ok()) << caller.error();
  rt.RunUntilIdle();

  EXPECT_EQ(rt.proc(*caller)->exit_kind, ExitKind::kExited);
  EXPECT_EQ(rt.proc(*caller)->exit_status, 0);
  EXPECT_EQ(rt.proc(emb)->insts_retired, before);
  auto r = (*sb)->Call<uint64_t(uint64_t, uint64_t, uint64_t)>("add3", 1, 2,
                                                               3);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value, 6u);
}

TEST(Scheduler, SelfYieldToDoesNotStarvePeers) {
  // yield_to(own pid) is refused, so the caller goes to the back of the
  // queue like after any failed yield_to: a peer that needs four turns
  // (three yields, then exit) finishes while the self-yielder spins.
  const std::string peer = R"(
    rtcall #11          // yield
    rtcall #11
    rtcall #11
    mov x0, #0
    rtcall #0
  )";
  // Every runtime call ends a turn, so the loop makes no other call.
  const std::string self_yielder = R"(
    rtcall #12          // getpid
    mov x19, x0
  loop:
    mov x0, x19
    rtcall #14          // yield_to(own pid)
    b loop
  )";
  Runtime rt(TestConfig());
  auto ep = elf::Build(peer);
  auto es = elf::Build(self_yielder);
  ASSERT_TRUE(ep.ok() && es.ok());
  auto pp = rt.Load(ep->bytes);
  auto ps = rt.Load(es->bytes);
  ASSERT_TRUE(pp.ok() && ps.ok());
  rt.RunUntilIdle(/*max_total_insts=*/200000);

  EXPECT_EQ(rt.proc(*pp)->exit_kind, ExitKind::kExited);
  EXPECT_EQ(rt.proc(*pp)->exit_status, 0);
  EXPECT_EQ(rt.proc(*ps)->exit_kind, ExitKind::kRunning);
}

// One seeded mix: an exited pid, a parked pool sandbox, an embedded
// sandbox, then 3-5 scheduled sandboxes that each run a random sequence
// of yield, getpid and yield_to. yield_to targets are drawn from every
// pid: the caller's own, parked, embedded, exited, the other scheduled
// ones and two that never existed. Each program checks its own results
// (getpid is its pid; yield_to is ESRCH for every target but another
// scheduled sandbox, which may also have exited) and exits 1 on a
// mismatch.
struct YieldMix {
  std::vector<int> scheduled;
  int parked = 0, embedded = 0;
  uint64_t embedded_insts_during_run = 0;
  std::string chrome_trace;
};

void RunYieldMix(uint64_t seed, YieldMix* out) {
  std::mt19937_64 rng(seed);
  Runtime rt(TestConfig());
  TraceSink sink;
  rt.set_trace_sink(&sink);

  auto snap = Exit77Checkpoint(rt);
  ASSERT_NE(snap, nullptr);
  const int exited = 1;
  ASSERT_EQ(rt.proc(exited)->state, ProcState::kDead);
  auto parked = rt.SpawnFromSnapshot(snap, /*start=*/false);
  ASSERT_TRUE(parked.ok()) << parked.error();
  auto m = elf::Build(Add3Module());
  ASSERT_TRUE(m.ok()) << m.error();
  auto sb = embed::Sandbox::Create(rt, m->bytes);
  ASSERT_TRUE(sb.ok()) << sb.error();
  out->parked = *parked;
  out->embedded = (*sb)->pid();

  const int first = out->embedded + 1;
  const int n = 3 + static_cast<int>(rng() % 3);
  std::vector<int> targets = {exited, out->parked, out->embedded, first + n,
                              999};
  for (int k = 0; k < n; ++k) targets.push_back(first + k);
  for (int k = 0; k < n; ++k) {
    const int self = first + k;
    const std::string pid = std::to_string(self);
    std::string src;
    const int ops = 4 + static_cast<int>(rng() % 9);
    for (int i = 0; i < ops; ++i) {
      switch (rng() % 3) {
        case 0:
          src += "rtcall #11\n";  // yield
          break;
        case 1:
          src += "rtcall #12\nmovz x9, #" + pid + "\ncmp x0, x9\nb.ne bad\n";
          break;
        default: {
          const int t = targets[rng() % targets.size()];
          src += "movz x0, #" + std::to_string(t) + "\nrtcall #14\n";
          const bool peer = t != self && t >= first && t < first + n;
          if (peer) {
            const std::string ok = "ok" + std::to_string(i);
            src += "cbz x0, " + ok + "\n";
            src += "cmn x0, #3\nb.ne bad\n" + ok + ":\n";
          } else {
            src += "cmn x0, #3\nb.ne bad\n";
          }
        }
      }
    }
    src += "mov x0, #0\nrtcall #0\nbad:\nmov x0, #1\nrtcall #0\n";
    auto e = elf::Build(src);
    ASSERT_TRUE(e.ok()) << e.error();
    auto pid_or = rt.Load(e->bytes);
    ASSERT_TRUE(pid_or.ok()) << pid_or.error();
    ASSERT_EQ(*pid_or, self);
    out->scheduled.push_back(self);
  }

  const uint64_t before = rt.proc(out->embedded)->insts_retired;
  rt.RunUntilIdle(/*max_total_insts=*/1000000);
  out->embedded_insts_during_run =
      rt.proc(out->embedded)->insts_retired - before;
  for (int pid : out->scheduled) {
    const Proc* p = rt.proc(pid);
    EXPECT_EQ(p->exit_kind, ExitKind::kExited) << "seed " << seed;
    EXPECT_EQ(p->exit_status, 0) << "seed " << seed << " pid " << pid;
  }
  const Proc* pk = rt.proc(out->parked);
  EXPECT_EQ(pk->insts_retired, 0u) << "seed " << seed;
  EXPECT_TRUE(pk->parked && pk->state == ProcState::kReady)
      << "seed " << seed;
  std::ostringstream ss;
  sink.WriteChromeTrace(ss, TestConfig().core.ghz, RtcallName);
  out->chrome_trace = ss.str();
}

TEST(Scheduler, SeededYieldMixNeverRunsParkedOrEmbedded) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    YieldMix a, b;
    ASSERT_NO_FATAL_FAILURE(RunYieldMix(seed, &a));
    ASSERT_NO_FATAL_FAILURE(RunYieldMix(seed, &b));
    EXPECT_EQ(a.embedded_insts_during_run, 0u) << "seed " << seed;
    EXPECT_EQ(a.chrome_trace, b.chrome_trace)
        << "seed " << seed << ": same seed, different trace";
    if (HasFailure()) break;  // one seed's report is enough
  }
}

}  // namespace
}  // namespace lfi::runtime
