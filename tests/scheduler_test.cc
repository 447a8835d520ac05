// Scheduler tests: round-robin fairness and starvation-freedom under
// preemption budgets, fast-yield ordering across N processes, and wakeup
// after a pipe unblocks. The trace subsystem serves as the oracle: the
// per-pid instruction counters prove fairness, and the cycle-stamped
// event ring proves ordering.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "elf/build.h"
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

}  // namespace
}  // namespace lfi::runtime
