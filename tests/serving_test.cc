// Serving control-plane tests (src/serve/, docs/SERVING.md): SpawnPool
// edge paths (empty-pool cold spawn, slot-exhausted prewarm, parked pids
// killed behind the pool's back), recycle-and-repark, deterministic
// traffic replay, queue-depth and deadline shedding, the warm-vs-cold
// throughput gap, and storm chaos mid-serving leaving bystander tenants'
// SLOs intact — plus the resilience layer: inclusive deadline/SLO
// boundaries, config validation, per-tenant quotas and DRR fairness
// under a flooding tenant, deadline-aware retries, the circuit-breaker
// state machine, the degradation ladder, and tenant-scoped chaos with
// recycling left on.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "elf/build.h"
#include "runtime/layout.h"
#include "runtime/runtime.h"
#include "runtime/spawn_pool.h"
#include "serve/serve.h"
#include "trace/trace.h"

namespace lfi::serve {
namespace {

using runtime::ExitKind;
using runtime::Proc;
using runtime::ProcState;
using runtime::Runtime;
using runtime::RuntimeConfig;
using runtime::SpawnPool;

RuntimeConfig TestConfig() {
  RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  return cfg;
}

// Request handler: spins a little (so chaos has retirements to inject
// into), writes a byte, exits 0.
const char* kServiceProg = R"(
    movz x19, #2000
  spin:
    sub x19, x19, #1
    cbnz x19, spin
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x0, #1
    mov x2, #2
    rtcall #1
    mov x0, #0
    rtcall #0
  .data
  msg:
    .asciz "ok"
)";

struct Pooled {
  Runtime rt;
  int seed_pid = -1;
  std::shared_ptr<const snapshot::Snapshot> snap;
  std::unique_ptr<SpawnPool> pool;

  explicit Pooled(const std::string& src = kServiceProg,
                  RuntimeConfig cfg = TestConfig())
      : rt(cfg) {
    auto elf = elf::Build(src);
    EXPECT_TRUE(elf.ok()) << (elf.ok() ? "" : elf.error());
    if (!elf.ok()) return;
    auto p = rt.Load(elf->bytes);
    EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error());
    if (!p.ok()) return;
    seed_pid = *p;
    auto s = rt.CaptureSnapshot(seed_pid);
    EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error());
    if (!s.ok()) return;
    snap = std::make_shared<const snapshot::Snapshot>(*std::move(s));
    // The template sandbox never serves; the pool owns instantiation.
    EXPECT_TRUE(rt.Kill(seed_pid, "template").ok());
    pool = std::make_unique<SpawnPool>(&rt, snap);
  }
};

// ---- SpawnPool edge paths ------------------------------------------------

TEST(SpawnPool, TakeOnEmptyPoolColdSpawns) {
  Pooled t;
  ASSERT_NE(t.pool, nullptr);
  auto pid = t.pool->Take();
  ASSERT_TRUE(pid.ok()) << pid.error();
  EXPECT_EQ(t.pool->warm_hits(), 0u);
  EXPECT_EQ(t.pool->cold_spawns(), 1u);
  EXPECT_EQ(t.pool->dead_parked(), 0u);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.rt.proc(*pid)->exit_kind, ExitKind::kExited);
  EXPECT_EQ(t.rt.proc(*pid)->out, "ok");
}

TEST(SpawnPool, PrewarmStopsAtSlotExhaustion) {
  Pooled t;
  ASSERT_NE(t.pool, nullptr);
  // Eat every slot but two, then ask for five warm sandboxes: the pool
  // must stop early and report only the two it actually created.
  while (t.rt.slots_in_use() < runtime::kMaxSlots - 2) {
    ASSERT_TRUE(t.rt.ReserveSlot().ok());
  }
  EXPECT_EQ(t.pool->Prewarm(5), 2);
  EXPECT_EQ(t.pool->warm(), 2u);
  // Fully exhausted: prewarm adds nothing, and Take's cold fallback
  // cannot spawn either.
  EXPECT_EQ(t.pool->Prewarm(5), 0);
  auto a = t.pool->Take();
  ASSERT_TRUE(a.ok());
  auto b = t.pool->Take();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(t.pool->warm_hits(), 2u);
  auto c = t.pool->Take();
  EXPECT_FALSE(c.ok());
}

TEST(SpawnPool, TakeAfterParkedKillPurgesAndServesLive) {
  Pooled t;
  ASSERT_NE(t.pool, nullptr);
  ASSERT_EQ(t.pool->Prewarm(2), 2);
  const int doomed = t.pool->warm_pids().front();
  ASSERT_TRUE(t.rt.Kill(doomed, "killed behind the pool's back").ok());
  // warm() still over-reports until the pool notices.
  EXPECT_EQ(t.pool->warm(), 2u);
  auto pid = t.pool->Take();
  ASSERT_TRUE(pid.ok()) << pid.error();
  EXPECT_NE(*pid, doomed);
  EXPECT_EQ(t.pool->warm_hits(), 1u);
  EXPECT_EQ(t.pool->cold_spawns(), 0u);
  EXPECT_EQ(t.pool->dead_parked(), 1u);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.rt.proc(*pid)->exit_kind, ExitKind::kExited);
  EXPECT_EQ(t.rt.proc(*pid)->exit_status, 0);
}

TEST(SpawnPool, PrewarmPurgesDeadParkedAndRefills) {
  Pooled t;
  ASSERT_NE(t.pool, nullptr);
  ASSERT_EQ(t.pool->Prewarm(3), 3);
  ASSERT_TRUE(t.rt.Kill(t.pool->warm_pids()[1], "mid-pool kill").ok());
  // Prewarm purges the corpse first, so topping up to 3 adds exactly one
  // and warm() counts only live parked sandboxes afterwards.
  EXPECT_EQ(t.pool->Prewarm(3), 1);
  EXPECT_EQ(t.pool->warm(), 3u);
  EXPECT_EQ(t.pool->dead_parked(), 1u);
  for (int k = 0; k < 3; ++k) {
    auto pid = t.pool->Take();
    ASSERT_TRUE(pid.ok());
  }
  EXPECT_EQ(t.pool->warm_hits(), 3u);
  EXPECT_EQ(t.pool->cold_spawns(), 0u);
}

TEST(SpawnPool, RecycleReparksSamePidAndServesAgain) {
  Pooled t;
  ASSERT_NE(t.pool, nullptr);
  ASSERT_EQ(t.pool->Prewarm(1), 1);
  auto pid = t.pool->Take();
  ASSERT_TRUE(pid.ok());
  t.rt.set_retain_on_exit(*pid, true);
  t.rt.RunUntilIdle();
  ASSERT_EQ(t.rt.proc(*pid)->state, ProcState::kZombie);
  EXPECT_EQ(t.rt.proc(*pid)->out, "ok");

  ASSERT_TRUE(t.pool->Recycle(*pid));
  EXPECT_EQ(t.pool->warm(), 1u);
  EXPECT_EQ(t.pool->recycles(), 1u);
  EXPECT_TRUE(t.rt.proc(*pid)->out.empty());  // rolled back

  auto again = t.pool->Take();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *pid);  // same pid, same slot
  EXPECT_EQ(t.pool->warm_hits(), 2u);
  t.rt.set_retain_on_exit(*pid, true);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.rt.proc(*pid)->state, ProcState::kZombie);
  EXPECT_EQ(t.rt.proc(*pid)->out, "ok");
}

TEST(SpawnPool, EvictKillsParkedSandboxes) {
  Pooled t;
  ASSERT_NE(t.pool, nullptr);
  ASSERT_EQ(t.pool->Prewarm(4), 4);
  const uint64_t slots_before = t.rt.slots_in_use();
  EXPECT_EQ(t.pool->Evict(2), 2);
  EXPECT_EQ(t.pool->warm(), 2u);
  EXPECT_EQ(t.pool->evictions(), 2u);
  EXPECT_EQ(t.rt.slots_in_use(), slots_before - 2);
}

// ---- Server behavior -----------------------------------------------------

ServeConfig SmallServeConfig(TrafficKind kind, uint64_t seed,
                             uint64_t requests) {
  ServeConfig cfg;
  cfg.traffic.kind = kind;
  cfg.traffic.seed = seed;
  cfg.traffic.requests = requests;
  cfg.traffic.rate_per_mcycle = 200;
  cfg.traffic.tenants = 4;
  cfg.tiers.resize(1);
  cfg.tiers[0].slo_cycles = 10000000;
  cfg.admission.max_queue_depth = 128;
  cfg.max_concurrency = 4;
  cfg.pool_min = 2;
  cfg.pool_max = 16;
  return cfg;
}

TEST(Server, PoissonRunIsDeterministicPerSeed) {
  std::string transcripts[2];
  for (int run = 0; run < 2; ++run) {
    Pooled t;
    ASSERT_NE(t.pool, nullptr);
    Server srv(&t.rt, SmallServeConfig(TrafficKind::kPoisson, 42, 60),
               t.pool.get());
    const ServeReport& rep = srv.Run();
    EXPECT_FALSE(rep.aborted);
    EXPECT_EQ(rep.completed, 60u);
    EXPECT_EQ(rep.failed, 0u);
    transcripts[run] = rep.Format();
  }
  EXPECT_EQ(transcripts[0], transcripts[1]);

  // A different seed is a genuinely different run.
  Pooled t;
  ASSERT_NE(t.pool, nullptr);
  Server srv(&t.rt, SmallServeConfig(TrafficKind::kPoisson, 43, 60),
             t.pool.get());
  EXPECT_NE(srv.Run().Format(), transcripts[0]);
}

TEST(Server, BurstShedsOnQueueDepth) {
  Pooled t;
  ASSERT_NE(t.pool, nullptr);
  ServeConfig cfg = SmallServeConfig(TrafficKind::kBursty, 7, 64);
  cfg.traffic.burst_size = 32;
  cfg.traffic.burst_period_cycles = 500000;
  cfg.admission.max_queue_depth = 4;
  cfg.max_concurrency = 1;
  Server srv(&t.rt, cfg, t.pool.get());
  const ServeReport& rep = srv.Run();
  EXPECT_FALSE(rep.aborted);
  EXPECT_EQ(rep.offered, 64u);
  EXPECT_GT(rep.shed_queue, 0u);
  EXPECT_GT(rep.completed, 0u);
  EXPECT_EQ(rep.offered,
            rep.completed + rep.failed + rep.shed_queue + rep.shed_deadline +
                rep.dispatch_failures);
}

TEST(Server, ShedsQueuedRequestsPastDeadline) {
  RuntimeConfig rcfg = TestConfig();
  rcfg.timeslice_insts = 1000;  // force multi-step in-flight handlers
  Pooled t(kServiceProg, rcfg);
  ASSERT_NE(t.pool, nullptr);
  ServeConfig cfg = SmallServeConfig(TrafficKind::kBursty, 11, 64);
  cfg.traffic.burst_size = 16;
  cfg.traffic.burst_period_cycles = 400000;
  cfg.admission.max_queue_depth = 64;
  cfg.max_concurrency = 1;
  cfg.slice_insts = 1000;
  cfg.tiers[0].slo_cycles = 3000;  // far less than a burst's service time
  Server srv(&t.rt, cfg, t.pool.get());
  const ServeReport& rep = srv.Run();
  EXPECT_FALSE(rep.aborted);
  EXPECT_GT(rep.shed_deadline, 0u);
  EXPECT_EQ(rep.offered,
            rep.completed + rep.failed + rep.shed_queue + rep.shed_deadline +
                rep.dispatch_failures);
}

TEST(Server, ClosedLoopServesEveryRequest) {
  Pooled t;
  ASSERT_NE(t.pool, nullptr);
  ServeConfig cfg = SmallServeConfig(TrafficKind::kClosed, 5, 40);
  cfg.traffic.closed_clients = 4;
  cfg.traffic.think_cycles = 5000;
  Server srv(&t.rt, cfg, t.pool.get());
  const ServeReport& rep = srv.Run();
  EXPECT_FALSE(rep.aborted);
  EXPECT_EQ(rep.offered, 40u);
  // Closed-loop never overruns the server: nothing is shed.
  EXPECT_EQ(rep.completed, 40u);
  EXPECT_EQ(rep.shed_queue, 0u);
  // Per-tenant accounting covers every request (clients map to tenants).
  uint64_t tenant_total = 0;
  for (const auto& [tenant, s] : rep.tenants) tenant_total += s.offered;
  EXPECT_EQ(tenant_total, 40u);
}

TEST(Server, WarmPoolBeatsColdLoadPerRequest) {
  const uint64_t kSeed = 99, kRequests = 80;
  auto config = [&] {
    ServeConfig cfg = SmallServeConfig(TrafficKind::kPoisson, kSeed,
                                       kRequests);
    cfg.traffic.rate_per_mcycle = 2000;  // saturating offered load
    cfg.admission.shed_on_deadline = false;
    return cfg;
  };

  Pooled warm;
  ASSERT_NE(warm.pool, nullptr);
  Server warm_srv(&warm.rt, config(), warm.pool.get());
  const ServeReport warm_rep = warm_srv.Run();
  ASSERT_FALSE(warm_rep.aborted);
  EXPECT_EQ(warm_rep.completed, kRequests);
  EXPECT_GT(warm_rep.warm_hits + warm_rep.cold_spawns, 0u);

  Runtime cold_rt{TestConfig()};
  auto elf = elf::Build(kServiceProg);
  ASSERT_TRUE(elf.ok());
  auto image = elf::Read(elf->bytes);
  ASSERT_TRUE(image.ok());
  Server cold_srv(&cold_rt, config(), &*image);
  const ServeReport cold_rep = cold_srv.Run();
  ASSERT_FALSE(cold_rep.aborted);
  EXPECT_EQ(cold_rep.completed, kRequests);

  // Same offered load, same handler: serving from the warm pool must be
  // decisively faster than paying an ELF load per request.
  EXPECT_GT(warm_rep.ThroughputPerMcycle(),
            2.0 * cold_rep.ThroughputPerMcycle())
      << "warm=" << warm_rep.ThroughputPerMcycle()
      << " cold=" << cold_rep.ThroughputPerMcycle();
}

TEST(Server, StormChaosLeavesBystanderTenantsClean) {
  std::string transcripts[2];
  for (int run = 0; run < 2; ++run) {
    Pooled t;
    ASSERT_NE(t.pool, nullptr);
    trace::TraceSink sink;
    t.rt.set_trace_sink(&sink);
    chaos::ChaosEngine storm(1234, chaos::ProfileByName("storm"));
    t.rt.set_chaos(&storm);
    // Pin the victim set immediately (pid 0 never runs) so no early pid
    // is auto-selected before the first tier-0 dispatch marks one.
    storm.MarkVictim(0);

    ServeConfig cfg = SmallServeConfig(TrafficKind::kPoisson, 77, 80);
    // One request per sandbox: a pid marked as a victim for a tier-0
    // request must never be reused for a bystander tenant.
    cfg.recycle_sandboxes = false;
    cfg.tiers.resize(2);
    // Tier 0 (victim tenants): restart on fault, tiny backoff so the
    // shared clock is not stalled on their behalf.
    cfg.tiers[0].name = "victim";
    cfg.tiers[0].policy.on_fault = runtime::FaultAction::kRestart;
    cfg.tiers[0].policy.restart_budget = 3;
    cfg.tiers[0].policy.restart_backoff_base_cycles = 100;
    cfg.tiers[0].slo_cycles = 10000000;
    cfg.tiers[1].name = "bystander";
    cfg.tiers[1].slo_cycles = 10000000;
    // Tenants 0 and 2 land in tier 0; only their sandboxes are victims.
    cfg.on_dispatch = [&](int pid, const Request& r) {
      if (r.tier == 0) storm.MarkVictim(pid);
    };
    Server srv(&t.rt, cfg, t.pool.get());
    const ServeReport& rep = srv.Run();
    EXPECT_FALSE(rep.aborted);

    // The storm actually hit somebody.
    uint64_t injections = 0;
    for (const auto& [pid, m] : sink.all_metrics()) {
      injections += m.Get(trace::Counter::kChaosInjections);
    }
    EXPECT_GT(injections, 0u);

    // Bystander tenants (odd tenants -> tier 1) never fail and never
    // miss their SLO, storm or not.
    for (const auto& [tenant, s] : rep.tenants) {
      if (tenant % 2 == 1) {
        EXPECT_EQ(s.failed, 0u) << "tenant " << tenant;
        EXPECT_EQ(s.slo_violations, 0u) << "tenant " << tenant;
        EXPECT_GT(s.completed, 0u) << "tenant " << tenant;
      }
    }
    transcripts[run] = rep.Format();
    t.rt.set_trace_sink(nullptr);
  }
  // Storm-while-serving replays byte-identically for the same seeds.
  EXPECT_EQ(transcripts[0], transcripts[1]);
}

// ---- Deadline/SLO boundary rules (shared helpers) --------------------------

TEST(DeadlineBoundary, ExpiryAndViolationAreInclusiveAtTheEdge) {
  // A request is late the moment `now` reaches its deadline...
  EXPECT_TRUE(DeadlineExpired(1000, 1000));
  EXPECT_FALSE(DeadlineExpired(999, 1000));
  EXPECT_TRUE(DeadlineExpired(1001, 1000));
  // ...and a completion at exactly the SLO is a violation. Historically
  // shedding used `now > deadline` while accounting used `latency > slo`,
  // so a request landing exactly on the edge was counted in-SLO.
  EXPECT_TRUE(SloViolated(500, 500));
  EXPECT_FALSE(SloViolated(499, 500));
  EXPECT_TRUE(SloViolated(501, 500));
}

TEST(DeadlineBoundary, CompletionAtExactSloCountsAsViolation) {
  // Learn the handler's deterministic latency, then pin the SLO exactly
  // on it: the boundary must count as a violation; one cycle of headroom
  // must not.
  auto run_with_slo = [](uint64_t slo) {
    Pooled t;
    EXPECT_NE(t.pool, nullptr);
    ServeConfig cfg = SmallServeConfig(TrafficKind::kClosed, 3, 1);
    cfg.traffic.closed_clients = 1;
    cfg.tiers[0].slo_cycles = slo;
    cfg.admission.shed_on_deadline = false;  // judge at completion only
    Server srv(&t.rt, cfg, t.pool.get());
    return srv.Run();
  };
  const ServeReport probe = run_with_slo(10000000);
  ASSERT_EQ(probe.completed, 1u);
  ASSERT_EQ(probe.slo_violations, 0u);
  const uint64_t latency = probe.latencies[0];
  ASSERT_GT(latency, 0u);
  EXPECT_EQ(run_with_slo(latency).slo_violations, 1u);
  EXPECT_EQ(run_with_slo(latency + 1).slo_violations, 0u);
}

// ---- Config validation -----------------------------------------------------

TEST(ValidateConfig, AcceptsDefaultsAndRejectsDegenerateSettings) {
  std::string err;
  ServeConfig ok = SmallServeConfig(TrafficKind::kPoisson, 1, 10);
  EXPECT_TRUE(ValidateServeConfig(ok, &err)) << err;

  ServeConfig cfg = ok;
  cfg.admission.max_queue_depth = 0;
  EXPECT_FALSE(ValidateServeConfig(cfg, &err));
  EXPECT_NE(err.find("max_queue_depth"), std::string::npos) << err;

  cfg = ok;
  cfg.max_concurrency = 0;
  EXPECT_FALSE(ValidateServeConfig(cfg, &err));

  cfg = ok;
  cfg.tiers[0].slo_cycles = 0;  // retries would have no deadline to honor
  cfg.retry.budget = 2;
  EXPECT_FALSE(ValidateServeConfig(cfg, &err));
  EXPECT_NE(err.find("slo_cycles"), std::string::npos) << err;

  cfg = ok;
  cfg.default_quota.max_queued = cfg.admission.max_queue_depth + 1;
  EXPECT_FALSE(ValidateServeConfig(cfg, &err));
  EXPECT_NE(err.find("exceeds"), std::string::npos) << err;

  cfg = ok;
  cfg.quotas[2].weight = 0;
  EXPECT_FALSE(ValidateServeConfig(cfg, &err));

  cfg = ok;
  cfg.traffic.tenant_weights = {1, 2};  // 4 tenants
  EXPECT_FALSE(ValidateServeConfig(cfg, &err));

  cfg = ok;
  cfg.retry.budget = 1;
  cfg.retry.backoff_base_cycles = 100;
  cfg.retry.backoff_cap_cycles = 10;  // base exceeds cap
  EXPECT_FALSE(ValidateServeConfig(cfg, &err));

  cfg = ok;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.open_cycles = 0;
  EXPECT_FALSE(ValidateServeConfig(cfg, &err));

  cfg = ok;
  cfg.degrade.enabled = true;
  cfg.degrade.shed_tier_depth = 50;
  cfg.degrade.no_retry_depth = 50;  // not strictly increasing
  cfg.degrade.fast_fail_depth = 60;
  EXPECT_FALSE(ValidateServeConfig(cfg, &err));
  EXPECT_NE(err.find("increasing"), std::string::npos) << err;
}

// ---- Per-tenant quotas and fair-share dispatch -----------------------------

TEST(Server, TenantQuotaShedsBeyondQueuedCap) {
  Pooled t;
  ASSERT_NE(t.pool, nullptr);
  ServeConfig cfg = SmallServeConfig(TrafficKind::kBursty, 9, 32);
  cfg.traffic.tenants = 1;
  cfg.traffic.burst_size = 16;
  cfg.traffic.burst_period_cycles = 500000;
  cfg.max_concurrency = 1;
  cfg.default_quota.max_queued = 2;
  Server srv(&t.rt, cfg, t.pool.get());
  const ServeReport& rep = srv.Run();
  EXPECT_FALSE(rep.aborted);
  EXPECT_GT(rep.shed_quota, 0u);
  EXPECT_EQ(rep.shed_queue, 0u);  // the tenant cap fires first
  ASSERT_TRUE(rep.tenants.count(0));
  EXPECT_EQ(rep.tenants.at(0).shed_quota, rep.shed_quota);
  EXPECT_EQ(rep.offered, rep.completed + rep.failed + rep.shed_queue +
                             rep.shed_deadline + rep.shed_quota +
                             rep.dispatch_failures);
}

TEST(Server, FloodingTenantCannotPushBystanderPastSlo) {
  // Tenant 0 floods at 10x the share of each bystander while capped by a
  // per-tenant quota; deficit-round-robin dispatch must keep tenants 1-3
  // inside their SLO with nothing shed.
  Pooled t;
  ASSERT_NE(t.pool, nullptr);
  ServeConfig cfg = SmallServeConfig(TrafficKind::kPoisson, 21, 260);
  cfg.traffic.rate_per_mcycle = 1500;  // saturating in aggregate
  cfg.traffic.tenant_weights = {30, 3, 3, 3};  // 10x flood
  cfg.quotas[0].max_queued = 8;  // quota the flood rides against
  cfg.tiers[0].slo_cycles = 2000000;
  Server srv(&t.rt, cfg, t.pool.get());
  const ServeReport& rep = srv.Run();
  EXPECT_FALSE(rep.aborted);
  ASSERT_TRUE(rep.tenants.count(0));
  const TenantStats& flood = rep.tenants.at(0);
  EXPECT_GT(flood.offered, 100u);     // the flood really was 10x
  EXPECT_GT(flood.shed_quota, 0u);    // and the quota really bit
  for (const auto& [tenant, s] : rep.tenants) {
    if (tenant == 0) continue;
    EXPECT_GT(s.completed, 0u) << "tenant " << tenant;
    EXPECT_EQ(s.shed, 0u) << "tenant " << tenant;
    EXPECT_EQ(s.slo_violations, 0u)
        << "tenant " << tenant << " p99="
        << PercentileOf(s.latencies, 99);
  }
}

// ---- Deadline-aware retry --------------------------------------------------

// Handler that always exits nonzero: every attempt fails, so retries
// burn the whole budget before the request is declared failed.
const char* kFailingProg = R"(
    movz x19, #200
  spin:
    sub x19, x19, #1
    cbnz x19, spin
    mov x0, #1
    rtcall #0
)";

TEST(Server, RetryBurnsBudgetThenFails) {
  Pooled t(kFailingProg);
  ASSERT_NE(t.pool, nullptr);
  ServeConfig cfg = SmallServeConfig(TrafficKind::kPoisson, 13, 10);
  cfg.traffic.tenants = 1;
  cfg.traffic.rate_per_mcycle = 50;
  cfg.retry.budget = 2;
  cfg.retry.backoff_base_cycles = 1000;
  cfg.retry.backoff_cap_cycles = 8000;
  Server srv(&t.rt, cfg, t.pool.get());
  const ServeReport& rep = srv.Run();
  EXPECT_FALSE(rep.aborted);
  EXPECT_EQ(rep.completed, 0u);
  EXPECT_EQ(rep.failed, 10u);           // every request eventually fails...
  EXPECT_EQ(rep.retried, 20u);          // ...after its full retry budget
  ASSERT_TRUE(rep.tenants.count(0));
  EXPECT_EQ(rep.tenants.at(0).retried, 20u);
  // Retries are attempts, not offered requests: the outcome identity
  // still balances without them.
  EXPECT_EQ(rep.offered, rep.completed + rep.failed + rep.shed_queue +
                             rep.shed_deadline + rep.dispatch_failures);
}

TEST(Server, RetryGivesUpWhenBackoffWouldMissDeadline) {
  Pooled t(kFailingProg);
  ASSERT_NE(t.pool, nullptr);
  ServeConfig cfg = SmallServeConfig(TrafficKind::kPoisson, 13, 10);
  cfg.traffic.tenants = 1;
  cfg.traffic.rate_per_mcycle = 50;
  cfg.retry.budget = 3;
  // Backoff alone overshoots the whole SLO window: no retry is ever
  // worth scheduling, deadline-aware give-up must see that up front.
  cfg.tiers[0].slo_cycles = 4000;
  cfg.retry.backoff_base_cycles = 1000000;
  cfg.retry.backoff_cap_cycles = 2000000;
  cfg.admission.shed_on_deadline = false;
  Server srv(&t.rt, cfg, t.pool.get());
  const ServeReport& rep = srv.Run();
  EXPECT_FALSE(rep.aborted);
  EXPECT_EQ(rep.retried, 0u);
  EXPECT_EQ(rep.failed, 10u);
}

// ---- Circuit breaker -------------------------------------------------------

TEST(Server, BreakerOpensAtThresholdAndFastFailsArrivals) {
  Pooled t(kFailingProg);
  ASSERT_NE(t.pool, nullptr);
  ServeConfig cfg = SmallServeConfig(TrafficKind::kPoisson, 31, 10);
  cfg.traffic.tenants = 1;
  cfg.traffic.rate_per_mcycle = 50;  // one request in flight at a time
  cfg.max_concurrency = 1;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.open_cycles = 1000000000;  // never cools down in this run
  Server srv(&t.rt, cfg, t.pool.get());
  const ServeReport& rep = srv.Run();
  EXPECT_FALSE(rep.aborted);
  // Exactly `threshold` failures burn sandboxes; every later arrival is
  // fast-failed at admission without touching the pool.
  EXPECT_EQ(rep.failed, 3u);
  EXPECT_EQ(rep.shed_breaker, 7u);
  EXPECT_EQ(rep.breaker_trips, 1u);
  ASSERT_TRUE(rep.tenants.count(0));
  EXPECT_EQ(rep.tenants.at(0).breaker_state, BreakerState::kOpen);
  EXPECT_EQ(rep.tenants.at(0).breaker_trips, 1u);
}

TEST(Server, BreakerHalfOpenProbeRecoversAfterFaultsStop) {
  // Failures are induced from outside (the dispatched sandbox is killed
  // for the first three requests), then stop: the breaker must open at
  // the threshold, fast-fail during the cool-down, admit a half-open
  // probe, and close after two probe successes.
  Pooled t;
  ASSERT_NE(t.pool, nullptr);
  ServeConfig cfg = SmallServeConfig(TrafficKind::kPoisson, 57, 14);
  cfg.traffic.tenants = 1;
  cfg.traffic.rate_per_mcycle = 50;
  cfg.max_concurrency = 1;
  cfg.breaker.failure_threshold = 3;
  cfg.breaker.open_cycles = 40000;
  cfg.breaker.close_successes = 2;
  int kills = 0;
  cfg.on_dispatch = [&](int pid, const Request&) {
    if (kills < 3) {
      ++kills;
      (void)t.rt.Kill(pid, "induced failure");
    }
  };
  Server srv(&t.rt, cfg, t.pool.get());
  const ServeReport& rep = srv.Run();
  EXPECT_FALSE(rep.aborted);
  EXPECT_EQ(rep.failed, 3u);
  EXPECT_EQ(rep.breaker_trips, 1u);
  EXPECT_EQ(rep.breaker_recoveries, 1u);
  EXPECT_GT(rep.shed_breaker, 0u);      // something arrived while open
  EXPECT_GT(rep.completed, 0u);         // probes and later traffic served
  ASSERT_TRUE(rep.tenants.count(0));
  EXPECT_EQ(rep.tenants.at(0).breaker_state, BreakerState::kClosed);
}

// ---- Graceful-degradation ladder -------------------------------------------

TEST(Server, OverloadClimbsDegradationLadderAndShedsLowTier) {
  RuntimeConfig rcfg = TestConfig();
  rcfg.timeslice_insts = 1000;
  Pooled t(kServiceProg, rcfg);
  ASSERT_NE(t.pool, nullptr);
  ServeConfig cfg = SmallServeConfig(TrafficKind::kBursty, 17, 192);
  // Bursts land faster than the backlog drains, so later bursts arrive
  // while the ladder is already elevated (shedding needs arrivals to hit
  // an elevated level, and the EWMA lags a lone burst).
  cfg.traffic.burst_size = 48;
  cfg.traffic.burst_period_cycles = 40000;
  cfg.max_concurrency = 1;
  cfg.slice_insts = 1000;
  cfg.admission.max_queue_depth = 256;
  cfg.admission.shed_on_deadline = false;
  cfg.tiers.resize(2);
  cfg.tiers[0].slo_cycles = 100000000;
  cfg.tiers[1].slo_cycles = 100000000;  // lowest-QoS tier, shed first
  cfg.degrade.enabled = true;
  cfg.degrade.ewma_shift = 1;  // fast-reacting EWMA for a short test
  cfg.degrade.shed_tier_depth = 8;
  cfg.degrade.no_retry_depth = 24;
  cfg.degrade.fast_fail_depth = 48;
  Server srv(&t.rt, cfg, t.pool.get());
  const ServeReport& rep = srv.Run();
  EXPECT_FALSE(rep.aborted);
  EXPECT_GE(rep.max_degrade_level, 2u);
  EXPECT_GT(rep.degrade_transitions, 1u);  // up and back down
  EXPECT_GT(rep.shed_degrade, 0u);
  // The ladder recovered once the backlog drained.
  EXPECT_EQ(srv.degrade_level(), 0u);
  EXPECT_EQ(rep.offered, rep.completed + rep.failed + rep.shed_queue +
                             rep.shed_deadline + rep.shed_quota +
                             rep.shed_degrade + rep.dispatch_failures);
}

// ---- Tenant-scoped chaos with recycling ------------------------------------

TEST(Server, TenantScopedChaosIsSafeWithRecycling) {
  // Victimhood tracks the tenant *binding* (marked at dispatch, unmarked
  // at completion), so sandbox recycling can stay on: a pid that served
  // the storm tenant and was recycled must be injectable no longer when
  // it later serves a healthy tenant.
  std::string transcripts[2];
  for (int run = 0; run < 2; ++run) {
    Pooled t;
    ASSERT_NE(t.pool, nullptr);
    chaos::ChaosProfile profile;
    profile.cpu_faults = true;
    profile.min_fault_gap = 200;
    profile.max_fault_gap = 1000;  // well under the handler's ~2000 insts
    chaos::ChaosEngine storm(4321, profile);
    t.rt.set_chaos(&storm);

    ServeConfig cfg = SmallServeConfig(TrafficKind::kPoisson, 88, 80);
    cfg.tiers.resize(2);
    cfg.tiers[0].policy.on_fault = runtime::FaultAction::kKill;
    cfg.chaos = &storm;
    cfg.chaos_tenants = {0};
    Server srv(&t.rt, cfg, t.pool.get());
    const ServeReport& rep = srv.Run();
    EXPECT_FALSE(rep.aborted);
    ASSERT_TRUE(rep.tenants.count(0));
    EXPECT_GT(rep.tenants.at(0).injected_faults, 0u);
    for (const auto& [tenant, s] : rep.tenants) {
      if (tenant == 0) continue;
      EXPECT_EQ(s.failed, 0u) << "tenant " << tenant;
      EXPECT_EQ(s.faults, 0u) << "tenant " << tenant;
      EXPECT_EQ(s.slo_violations, 0u) << "tenant " << tenant;
      EXPECT_GT(s.completed, 0u) << "tenant " << tenant;
    }
    transcripts[run] = rep.Format();
    t.rt.set_chaos(nullptr);
  }
  EXPECT_EQ(transcripts[0], transcripts[1]);
}

}  // namespace
}  // namespace lfi::serve
