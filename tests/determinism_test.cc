// Determinism tests for the snapshot layer (docs/SNAPSHOTS.md): a sandbox
// instantiated from a snapshot image — even one that went through the
// on-disk format — must be indistinguishable at runtime from one freshly
// loaded from the ELF. The proof is byte equality of the Chrome trace
// JSON: every event timestamp comes from the simulated clock, so any
// divergence (an extra event, a cycle of drift, a different fault point)
// shows up as a string mismatch. The same must hold under chaos
// injection with mid-run snapshot restarts: the restore path may not
// perturb the replay contract. The final test extends the contract to
// the serving control plane's resilience stack — retry backoff jitter,
// breaker clocks, tenant-scoped chaos — across dispatch backends.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "elf/build.h"
#include "embed/abi.h"
#include "embed/embed.h"
#include "runtime/runtime.h"
#include "runtime/spawn_pool.h"
#include "serve/serve.h"
#include "snapshot/snapshot.h"
#include "trace/trace.h"

namespace lfi::runtime {
namespace {

RuntimeConfig TestConfig() {
  RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  return cfg;
}

// Exercises fork, pipe transfer, several runtime calls, and both exits —
// a broad event surface for the trace comparison.
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
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9]
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #5
    rtcall #2           // read from the pipe
    mov x0, #7
    rtcall #0
  .data
  fds:
    .word 0
    .word 0
  status:
    .word 0
  msg:
    .asciz "ping"
  buf:
    .zero 8
)";

// Syscall-heavy victim for the chaos runs: plenty of injection points.
const char* kChaosVictim = R"(
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

// Builds `src`, loads it in a scratch runtime, captures the post-load
// image, and round-trips it through the on-disk format so the test covers
// the whole pipeline a warm-spawn service would use.
std::shared_ptr<const snapshot::Snapshot> ImageOf(const std::string& src) {
  auto elf = elf::Build(src);
  EXPECT_TRUE(elf.ok()) << (elf.ok() ? "" : elf.error());
  if (!elf.ok()) return nullptr;
  Runtime rt(TestConfig());
  auto pid = rt.Load(elf->bytes);
  EXPECT_TRUE(pid.ok()) << (pid.ok() ? "" : pid.error());
  if (!pid.ok()) return nullptr;
  auto snap = rt.CaptureSnapshot(*pid);
  EXPECT_TRUE(snap.ok()) << (snap.ok() ? "" : snap.error());
  if (!snap.ok()) return nullptr;
  const std::vector<uint8_t> bytes = snapshot::Serialize(*snap);
  auto back = snapshot::Deserialize({bytes.data(), bytes.size()});
  EXPECT_TRUE(back.ok()) << (back.ok() ? "" : back.error());
  if (!back.ok()) return nullptr;
  return std::make_shared<snapshot::Snapshot>(*std::move(back));
}

struct TraceRun {
  std::string json;
  ExitKind exit_kind = ExitKind::kRunning;
  int exit_status = 0;
  uint32_t restarts = 0;
};

// Runs one sandbox to completion with a trace sink attached and returns
// the rendered Chrome trace. `spawn` instantiates from the snapshot image;
// otherwise the ELF is loaded fresh. A chaos engine and a fault policy are
// attached when given.
TraceRun TracedRun(const std::string& src, bool spawn,
                   chaos::ChaosEngine* chaos = nullptr,
                   const SupervisorPolicy* policy = nullptr,
                   emu::Dispatch dispatch = emu::Dispatch::kChained) {
  TraceRun out;
  RuntimeConfig cfg = TestConfig();
  cfg.dispatch = dispatch;
  Runtime rt(cfg);
  trace::TraceSink sink;
  rt.set_trace_sink(&sink);
  if (chaos != nullptr) rt.set_chaos(chaos);

  int pid = -1;
  if (spawn) {
    auto snap = ImageOf(src);
    if (snap == nullptr) return out;
    auto p = rt.SpawnFromSnapshot(std::move(snap));
    EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error());
    if (!p.ok()) return out;
    pid = *p;
  } else {
    auto elf = elf::Build(src);
    EXPECT_TRUE(elf.ok()) << (elf.ok() ? "" : elf.error());
    if (!elf.ok()) return out;
    auto p = rt.Load(elf->bytes);
    EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error());
    if (!p.ok()) return out;
    pid = *p;
  }
  if (policy != nullptr) rt.set_policy(pid, *policy);
  rt.RunUntilIdle(50'000'000);

  const Proc* p = rt.proc(pid);
  out.exit_kind = p->exit_kind;
  out.exit_status = p->exit_status;
  out.restarts = p->restarts;
  std::ostringstream ss;
  sink.WriteChromeTrace(ss, TestConfig().core.ghz, RtcallName);
  out.json = ss.str();
  return out;
}

TEST(Determinism, SpawnedTraceMatchesFreshLoadByteForByte) {
  // Fresh ELF load vs. snapshot spawn of the same program: instantiation
  // is invisible to the trace (no events, no cycles), both assign
  // pid 1 / slot 1, so the full runs must trace identically — fork, pipe
  // traffic, timeslices and all.
  const TraceRun fresh = TracedRun(kBusyProg, /*spawn=*/false);
  const TraceRun spawned = TracedRun(kBusyProg, /*spawn=*/true);
  ASSERT_EQ(fresh.exit_kind, ExitKind::kExited);
  EXPECT_EQ(fresh.exit_status, 7);
  EXPECT_EQ(spawned.exit_kind, fresh.exit_kind);
  EXPECT_EQ(spawned.exit_status, fresh.exit_status);
  ASSERT_FALSE(fresh.json.empty());
  EXPECT_EQ(spawned.json, fresh.json);
}

TEST(Determinism, DispatchBackendsTraceByteIdentically) {
  // The dispatch backend is a pure execution-speed knob: the chained
  // backend (block chaining + direct threading + memoized translation)
  // must produce the same Chrome trace, byte for byte, as the reference
  // block loop — every simulated timestamp,
  // every counter, every event. kBusyProg covers fork, pipes, waits and
  // both exit paths, so the equality spans context switches and fork
  // copies (which must not share chain state with their parent).
  const TraceRun chained = TracedRun(kBusyProg, /*spawn=*/false, nullptr,
                                     nullptr, emu::Dispatch::kChained);
  const TraceRun block = TracedRun(kBusyProg, /*spawn=*/false, nullptr,
                                   nullptr, emu::Dispatch::kBlock);
  ASSERT_EQ(chained.exit_kind, ExitKind::kExited);
  EXPECT_EQ(chained.exit_status, 7);
  ASSERT_FALSE(chained.json.empty());
  EXPECT_EQ(block.json, chained.json);
}

TEST(Determinism, ChainedChaosRestartMatchesReferenceBackend) {
  // Chaos + restart policy under both backends: mid-run snapshot restores
  // rebuild machine state from pages, so the chained backend re-enters
  // with cold chains — and must still replay the exact same trace the
  // reference backend produces.
  SupervisorPolicy pol;
  pol.on_fault = FaultAction::kRestart;
  pol.restart_budget = 8;
  pol.restart_backoff_base_cycles = 100;
  uint32_t total_restarts = 0;
  for (uint64_t seed : {3ull, 4ull, 0xdeadbeefull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    chaos::ChaosEngine ca(seed, chaos::ProfileByName("storm"));
    chaos::ChaosEngine cb(seed, chaos::ProfileByName("storm"));
    const TraceRun chained = TracedRun(kChaosVictim, /*spawn=*/true, &ca,
                                       &pol, emu::Dispatch::kChained);
    const TraceRun block = TracedRun(kChaosVictim, /*spawn=*/true, &cb, &pol,
                                     emu::Dispatch::kBlock);
    ASSERT_FALSE(chained.json.empty());
    EXPECT_EQ(block.json, chained.json);
    EXPECT_EQ(block.restarts, chained.restarts);
    total_restarts += chained.restarts;
  }
  EXPECT_GT(total_restarts, 0u);
}

TEST(Determinism, SpawnedChaosRunMatchesFreshLoadUnderSameSeed) {
  // The replay contract extends through chaos injection and the restart
  // policy's snapshot restores: same seed + same image => byte-identical
  // traces whether the sandbox was loaded or spawned.
  SupervisorPolicy pol;
  pol.on_fault = FaultAction::kRestart;
  pol.restart_budget = 5;
  pol.restart_backoff_base_cycles = 100;
  for (uint64_t seed : {1ull, 2ull, 0x7e57edull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    chaos::ChaosEngine ca(seed, chaos::ProfileByName("storm"));
    chaos::ChaosEngine cb(seed, chaos::ProfileByName("storm"));
    const TraceRun fresh = TracedRun(kChaosVictim, /*spawn=*/false, &ca, &pol);
    const TraceRun spawned = TracedRun(kChaosVictim, /*spawn=*/true, &cb, &pol);
    ASSERT_FALSE(fresh.json.empty());
    EXPECT_EQ(spawned.json, fresh.json);
    EXPECT_EQ(spawned.restarts, fresh.restarts);
    EXPECT_EQ(spawned.exit_status, fresh.exit_status);
  }
}

TEST(Determinism, ChaosRestartReplayIsByteIdenticalAndRestoresFromSnapshot) {
  // Storm the victim hard enough to force mid-run restarts, twice with the
  // same seed: the traces must match byte for byte and must contain the
  // snapshot-restore events proving the restart path ran the new
  // machinery (not an ELF reload).
  SupervisorPolicy pol;
  pol.on_fault = FaultAction::kRestart;
  pol.restart_budget = 8;
  pol.restart_backoff_base_cycles = 100;
  uint32_t total_restarts = 0;
  for (uint64_t seed : {3ull, 4ull, 5ull, 0xdeadbeefull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    chaos::ChaosEngine ca(seed, chaos::ProfileByName("storm"));
    chaos::ChaosEngine cb(seed, chaos::ProfileByName("storm"));
    const TraceRun first = TracedRun(kChaosVictim, /*spawn=*/true, &ca, &pol);
    const TraceRun second = TracedRun(kChaosVictim, /*spawn=*/true, &cb, &pol);
    ASSERT_FALSE(first.json.empty());
    EXPECT_EQ(first.json, second.json);
    total_restarts += first.restarts;
    if (first.restarts > 0) {
      EXPECT_NE(first.json.find("snapshot-restore"), std::string::npos);
    }
  }
  // Across the seed set the storm must actually have triggered restarts,
  // or this test proves nothing.
  EXPECT_GT(total_restarts, 0u);
}

// Request handler for the serving runs: spins long enough that the storm
// profile below (fault gap well under the spin) hits nearly every
// victim-tenant attempt, then exits cleanly.
const char* kServeHandler = R"(
    movz x19, #2000
  spin:
    sub x19, x19, #1
    cbnz x19, spin
    mov x0, #0
    rtcall #0
)";

struct ServedRun {
  std::string trace_json;
  std::string transcript;
  uint64_t retried = 0;
};

// Runs the full serving control plane — warm pool, tenant-scoped chaos
// on tenant 0, deadline-aware retries, circuit breakers — under the given
// dispatch backend and returns the Chrome trace plus the canonical
// serving transcript.
ServedRun ServedRetryStorm(emu::Dispatch dispatch) {
  ServedRun out;
  RuntimeConfig cfg = TestConfig();
  cfg.dispatch = dispatch;
  Runtime rt(cfg);
  trace::TraceSink sink;
  rt.set_trace_sink(&sink);
  chaos::ChaosProfile profile;
  profile.name = "retry-storm";
  profile.cpu_faults = true;
  profile.min_fault_gap = 300;
  profile.max_fault_gap = 1500;
  chaos::ChaosEngine storm(0xfeed, profile);
  rt.set_chaos(&storm);

  auto elf = elf::Build(kServeHandler);
  EXPECT_TRUE(elf.ok()) << (elf.ok() ? "" : elf.error());
  if (!elf.ok()) return out;
  auto pid = rt.Load(elf->bytes);
  EXPECT_TRUE(pid.ok()) << (pid.ok() ? "" : pid.error());
  if (!pid.ok()) return out;
  auto snap = rt.CaptureSnapshot(*pid);
  EXPECT_TRUE(snap.ok()) << (snap.ok() ? "" : snap.error());
  if (!snap.ok()) return out;
  EXPECT_TRUE(rt.Kill(*pid, "template").ok());
  SpawnPool pool(&rt,
                 std::make_shared<const snapshot::Snapshot>(*std::move(snap)));

  serve::ServeConfig scfg;
  scfg.traffic.seed = 606;
  scfg.traffic.requests = 60;
  scfg.traffic.tenants = 4;
  scfg.traffic.rate_per_mcycle = 200;
  scfg.tiers.resize(1);
  scfg.tiers[0].slo_cycles = 10000000;
  scfg.admission.max_queue_depth = 128;
  scfg.max_concurrency = 4;
  scfg.pool_min = 2;
  scfg.pool_max = 16;
  scfg.retry.budget = 2;
  scfg.retry.backoff_base_cycles = 5000;
  scfg.retry.backoff_cap_cycles = 50000;
  scfg.breaker.failure_threshold = 3;
  scfg.breaker.open_cycles = 200000;
  scfg.chaos = &storm;
  scfg.chaos_tenants = {0};
  serve::Server srv(&rt, scfg, &pool);
  const serve::ServeReport& rep = srv.Run();
  EXPECT_FALSE(rep.aborted);
  out.retried = rep.retried;
  out.transcript = rep.Format();
  std::ostringstream ss;
  sink.WriteChromeTrace(ss, TestConfig().core.ghz, RtcallName);
  out.trace_json = ss.str();
  return out;
}

TEST(Determinism, ServingRetryStormReplaysAcrossRunsAndBackends) {
  // The whole resilience stack — retry backoff jitter, breaker clocks,
  // tenant-scoped chaos victimhood — runs off the simulated clock and the
  // config seeds, so a full serving run under storm chaos must replay
  // byte-identically: same Chrome trace, same serving transcript, across
  // repeat runs AND across dispatch backends (the backend is a pure
  // execution-speed knob even with retries re-entering the queue).
  const ServedRun a = ServedRetryStorm(emu::Dispatch::kChained);
  const ServedRun b = ServedRetryStorm(emu::Dispatch::kChained);
  const ServedRun c = ServedRetryStorm(emu::Dispatch::kBlock);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_GT(a.retried, 0u);  // the retry path actually ran
  EXPECT_EQ(b.trace_json, a.trace_json);
  EXPECT_EQ(b.transcript, a.transcript);
  EXPECT_EQ(c.trace_json, a.trace_json);
  EXPECT_EQ(c.transcript, a.transcript);
}

// A callback-heavy embedded workload over two sandboxes: typed calls,
// buffer marshalling, nested host->guest->host chains, a forged-return
// kill and a restart. Returns the Chrome trace plus the final simulated
// clock.
struct EmbedRun {
  std::string trace_json;
  uint64_t cycles = 0;
  std::vector<uint64_t> results;
};

EmbedRun EmbeddedWorkload(emu::Dispatch dispatch) {
  EmbedRun out;
  RuntimeConfig cfg = TestConfig();
  cfg.dispatch = dispatch;
  Runtime rt(cfg);
  trace::TraceSink sink;
  rt.set_trace_sink(&sink);

  const std::vector<embed::GuestExport> exports = {
      {"add", "eadd"}, {"echo", "eecho"}, {"sum", "esum"}, {"bad", "ebad"}};
  const char* body = R"(
eadd:
  add x0, x0, x1
  ret
eecho:
  hostcall #0
  add x0, x0, #1
  ret
esum:
  mov x9, x0
  mov x0, #0
  cbz x1, esum_done
esum_loop:
  ldrb w10, [x9]
  add x0, x0, x10
  add x9, x9, #1
  sub x1, x1, #1
  cbnz x1, esum_loop
esum_done:
  ret
ebad:
  add x19, x19, #1
  ret
)";
  auto elf = elf::Build(embed::GuestModuleSource(exports, body));
  EXPECT_TRUE(elf.ok()) << (elf.ok() ? "" : elf.error());
  if (!elf.ok()) return out;

  auto a = embed::Sandbox::Create(rt, elf->bytes);
  EXPECT_TRUE(a.ok()) << (a.ok() ? "" : a.error());
  if (!a.ok()) return out;
  auto b = embed::Sandbox::CreateFrom(**a);
  EXPECT_TRUE(b.ok()) << (b.ok() ? "" : b.error());
  if (!b.ok()) return out;

  // Callback 0 on sandbox a makes a nested call into sandbox b — a
  // cross-sandbox host->guest->host->guest chain.
  (*a)->BindCallback(
      0, std::function<uint64_t(uint64_t)>([&b](uint64_t x) {
        auto r = (*b)->Call<uint64_t(uint64_t, uint64_t)>("add", x, 100);
        return r.ok() ? r.value : ~0ull;
      }));
  (*b)->BindCallback(0, std::function<uint64_t(uint64_t)>(
                            [](uint64_t x) { return x * 3; }));

  for (uint64_t i = 0; i < 8; ++i) {
    auto r1 = (*a)->Call<uint64_t(uint64_t)>("echo", i);
    out.results.push_back(r1.ok() ? r1.value : ~0ull);
    auto r2 = (*b)->Call<uint64_t(uint64_t)>("echo", i * 7);
    out.results.push_back(r2.ok() ? r2.value : ~0ull);
    std::vector<uint8_t> buf(32 + i, static_cast<uint8_t>(i + 1));
    auto r3 = (*a)->Call<uint64_t(embed::BufIn, uint64_t)>(
        "sum", embed::BufIn{buf.data(), buf.size()}, buf.size());
    out.results.push_back(r3.ok() ? r3.value : ~0ull);
  }
  // Mid-run forged return + restart on one sandbox; the other continues.
  auto forged = (*a)->Call<uint64_t()>("bad");
  out.results.push_back(static_cast<uint64_t>(forged.err));
  EXPECT_TRUE((*a)->Restart().ok());
  auto after = (*a)->Call<uint64_t(uint64_t, uint64_t)>("add", 40, 2);
  out.results.push_back(after.ok() ? after.value : ~0ull);

  out.cycles = rt.Cycles();
  std::ostringstream ss;
  sink.WriteChromeTrace(ss, TestConfig().core.ghz, RtcallName);
  out.trace_json = ss.str();
  return out;
}

TEST(Determinism, EmbedCallsReplayAcrossBackends) {
  // Embedded transitions are charged on the simulated clock with
  // deterministic cookies, so a multi-sandbox callback-heavy run — typed
  // calls, buffer marshalling, cross-sandbox nested chains, a mid-run
  // forged-return kill and restart — must replay byte-identically across
  // both dispatch backends: same Chrome trace, same cycle count,
  // same results.
  const EmbedRun chained = EmbeddedWorkload(emu::Dispatch::kChained);
  const EmbedRun block = EmbeddedWorkload(emu::Dispatch::kBlock);
  ASSERT_FALSE(chained.trace_json.empty());
  ASSERT_EQ(chained.results.size(), 8u * 3 + 2);
  // Spot-check the workload actually computed: echo(i) = 2i+101 through
  // the cross-sandbox chain, echo_b(x) = 3x+1.
  EXPECT_EQ(chained.results[0], 101u);
  EXPECT_EQ(chained.results[1], 1u);
  EXPECT_GT(chained.cycles, 0u);
  EXPECT_EQ(block.trace_json, chained.trace_json);
  EXPECT_EQ(block.cycles, chained.cycles);
  EXPECT_EQ(block.results, chained.results);
}

}  // namespace
}  // namespace lfi::runtime
