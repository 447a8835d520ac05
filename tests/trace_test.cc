// Trace subsystem tests: the per-sandbox instructions-retired counter must
// equal the Machine's own retire count under both dispatch backends, and
// identical runs must produce byte-identical Chrome trace JSON (the trace
// clock is the simulated cycle counter, never host time). Also unit-tests
// the event ring and the stats/trace exporters.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "elf/build.h"
#include "runtime/runtime.h"
#include "trace/trace.h"

namespace lfi::trace {
namespace {

runtime::RuntimeConfig TestConfig() {
  runtime::RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  return cfg;
}

// A program that exercises every counter family: memory traffic, fork,
// pipe transfer in both directions, several runtime calls, and a clean
// exit on both sides.
const char* kBusyProg = R"(
    adrp x0, fds
    add x0, x0, :lo12:fds
    rtcall #10          // pipe
    rtcall #8           // fork
    cbz x0, child
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9, #4]
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x2, #5
    rtcall #1           // write into the pipe
    adrp x0, status
    add x0, x0, :lo12:status
    rtcall #9           // wait for the child
    adrp x1, status
    add x1, x1, :lo12:status
    ldr w0, [x1]
    rtcall #0           // exit(child status)
  child:
    mov x10, #64        // a loop, so block dispatch gets cache hits
  cspin:
    subs x10, x10, #1
    b.ne cspin
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9]
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #5
    rtcall #2           // read from the pipe
    adrp x1, buf
    add x1, x1, :lo12:buf
    ldrb w0, [x1]
    rtcall #0           // exit(first byte)
  .data
  msg:
    .asciz "PING"
  .bss
  fds:
    .zero 8
  status:
    .zero 8
  buf:
    .zero 8
  )";

uint64_t TotalRetired(const TraceSink& sink) {
  uint64_t total = 0;
  for (const auto& [pid, m] : sink.all_metrics()) {
    total += m.Get(Counter::kInstRetired);
  }
  return total;
}

void RunBusyProg(runtime::Runtime& rt, TraceSink& sink) {
  rt.set_trace_sink(&sink);
  auto e = elf::Build(kBusyProg);
  ASSERT_TRUE(e.ok()) << e.error();
  auto pid = rt.Load(e->bytes);
  ASSERT_TRUE(pid.ok()) << pid.error();
  EXPECT_EQ(rt.RunUntilIdle(), 0);
  EXPECT_EQ(rt.proc(*pid)->exit_status, 'P');
}

TEST(Trace, RetiredCounterMatchesMachineUnderBlockDispatch) {
  runtime::RuntimeConfig cfg = TestConfig();
  cfg.dispatch = emu::Dispatch::kBlock;
  runtime::Runtime rt(cfg);
  TraceSink sink;
  RunBusyProg(rt, sink);
  // Every instruction the machine retired belongs to exactly one pid.
  EXPECT_EQ(TotalRetired(sink), rt.machine().timing().Retired());
  EXPECT_GT(TotalRetired(sink), 0u);
}

TEST(Trace, RetiredCounterMatchesMachineUnderChainedDispatch) {
  runtime::Runtime rt(TestConfig());  // kChained is the default
  TraceSink sink;
  RunBusyProg(rt, sink);
  EXPECT_EQ(TotalRetired(sink), rt.machine().timing().Retired());
}

TEST(Trace, ChainedAndBlockDispatchCountIdentically) {
  // The two dispatch backends are semantically identical, and a chained
  // block transition tallies a cache hit exactly where the reference loop
  // would, so every counter -- block-cache traffic included -- must match.
  runtime::RuntimeConfig block_cfg = TestConfig();
  block_cfg.dispatch = emu::Dispatch::kBlock;
  runtime::Runtime rt_block(block_cfg);
  TraceSink s_block;
  RunBusyProg(rt_block, s_block);

  runtime::Runtime rt_chained(TestConfig());
  TraceSink s_chained;
  RunBusyProg(rt_chained, s_chained);

  ASSERT_EQ(s_block.all_metrics().size(), s_chained.all_metrics().size());
  for (const auto& [pid, mb] : s_block.all_metrics()) {
    const Metrics& mc = s_chained.metrics(pid);
    for (size_t ci = 0; ci < mb.c.size(); ++ci) {
      EXPECT_EQ(mb.c[ci], mc.c[ci])
          << "pid " << pid << " counter "
          << CounterName(static_cast<Counter>(ci));
    }
    EXPECT_EQ(mb.syscalls, mc.syscalls) << "pid " << pid;
  }
  // Block dispatch actually used its cache on this workload.
  uint64_t hits = 0;
  for (const auto& [pid, m] : s_block.all_metrics()) {
    hits += m.Get(Counter::kBlockCacheHits);
  }
  EXPECT_GT(hits, 0u);
}

TEST(Trace, CountersSeeRealMemoryTraffic) {
  runtime::Runtime rt(TestConfig());
  TraceSink sink;
  RunBusyProg(rt, sink);
  uint64_t loads = 0, stores = 0, guards = 0, sys = 0;
  for (const auto& [pid, m] : sink.all_metrics()) {
    loads += m.Get(Counter::kLoads);
    stores += m.Get(Counter::kStores);
    guards += m.Get(Counter::kGuardsExecuted);
    sys += m.Get(Counter::kSyscalls);
  }
  EXPECT_GT(loads, 0u);
  EXPECT_GT(guards, 0u);
  // pipe + fork + write + wait + read + 2 exits.
  EXPECT_GE(sys, 7u);
  (void)stores;  // stores come from rtcall spills even if the program has none
}

TEST(Trace, SameSeedRunsProduceByteIdenticalTraceJson) {
  // Two fresh runtimes executing the same image must emit byte-identical
  // trace files: all timestamps come from the simulated clock.
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    runtime::Runtime rt(TestConfig());
    TraceSink sink;
    RunBusyProg(rt, sink);
    std::ostringstream ss;
    sink.WriteChromeTrace(ss, TestConfig().core.ghz, runtime::RtcallName);
    *out = ss.str();
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Trace, SameSeedRunsProduceIdenticalStatsTables) {
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    runtime::Runtime rt(TestConfig());
    TraceSink sink;
    RunBusyProg(rt, sink);
    std::ostringstream ss;
    sink.WriteStats(ss, runtime::RtcallName);
    *out = ss.str();
  }
  EXPECT_EQ(first, second);
  // The table names the headline counters and resolves syscall names.
  EXPECT_NE(first.find("inst-retired"), std::string::npos);
  EXPECT_NE(first.find("pipe-bytes-read"), std::string::npos);
  EXPECT_NE(first.find("fork"), std::string::npos);
}

TEST(Trace, ChromeTraceIsWellFormedAndHostTimeFree) {
  runtime::Runtime rt(TestConfig());
  TraceSink sink;
  RunBusyProg(rt, sink);
  std::ostringstream ss;
  sink.WriteChromeTrace(ss, TestConfig().core.ghz, runtime::RtcallName);
  const std::string json = ss.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"sched-slice\""), std::string::npos);
  EXPECT_NE(json.find("\"proc-exit\""), std::string::npos);
  // Complete events carry durations; instants carry thread scope.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(Trace, EventRingKeepsNewestAndCountsDrops) {
  EventRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (uint64_t k = 0; k < 10; ++k) {
    ring.Push({/*start=*/k, /*end=*/k, /*arg0=*/k, /*arg1=*/0,
               /*pid=*/1, EventKind::kSyscall});
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  // at() is oldest-first over the retained window: 6,7,8,9.
  for (size_t k = 0; k < ring.size(); ++k) {
    EXPECT_EQ(ring.at(k).start, 6u + k);
  }
}

TEST(Trace, MetricsSyscallTallyClampsOutOfRange) {
  Metrics m;
  m.AddSyscall(3);
  m.AddSyscall(3);
  m.AddSyscall(1000);  // out of range: clamped into the last slot
  m.AddSyscall(-5);
  EXPECT_EQ(m.syscalls[3], 2u);
  EXPECT_EQ(m.syscalls[kMaxSyscalls - 1], 2u);
  for (size_t k = 0; k < m.syscalls.size(); ++k) {
    if (k != 3 && k != kMaxSyscalls - 1) {
      EXPECT_EQ(m.syscalls[k], 0u);
    }
  }
}

TEST(Trace, SinkStableAcrossPidInsertionOrder) {
  // all_metrics() iterates in pid order regardless of first-touch order,
  // which is what keeps the exporters deterministic.
  TraceSink sink;
  sink.metrics(7).Add(Counter::kFaults);
  sink.metrics(2).Add(Counter::kFaults);
  sink.metrics(5).Add(Counter::kFaults);
  int prev = -1;
  for (const auto& [pid, m] : sink.all_metrics()) {
    EXPECT_GT(pid, prev);
    prev = pid;
  }
  EXPECT_EQ(prev, 7);
}

}  // namespace
}  // namespace lfi::trace
