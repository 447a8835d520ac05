// Request-serving benchmarks (docs/SERVING.md).
//
//   warm     open-loop Poisson traffic served from the warm SpawnPool:
//            take a parked sandbox, run the request, recycle via snapshot
//            restore — the near-zero-cost request path the paper's
//            scalability story needs
//   cold     identical traffic, but every request pays a full ELF load
//            (the baseline the pool is measured against)
//   storm    chaos storm injected mid-serving with parked sandboxes
//            killed behind the pool's back: victims (tier 0) restart and
//            fail, bystander tenants (tier 1) must keep a clean SLO
//   resilience  tenant-scoped chaos (ServeConfig::chaos): tenant 0 faults
//            continuously under a tight-gap storm while retries, its
//            circuit breaker, and binding-scoped victimhood keep the
//            other tenants' SLOs spotless
//   closed   closed-loop clients with think time
//   bursty   synchronized arrival batches against admission control
//
// Throughput and p50/p99/p999 latency are simulated-clock quantities, so
// every number here is exact and machine-independent; the same seed
// replays byte-identically (self-gated below, and soaked in CI).
//
// Gates: warm throughput >= 5x cold at equal offered load; byte-identical
// same-seed replay (warm and storm); storm exercises the dead-parked
// purge without any bystander-tenant SLO violation; the warm pool decodes
// its handler once (every block miss of the warm run happens before its
// first request completes, and no decoded block is ever dropped).

#include <memory>
#include <string>

#include "chaos/chaos.h"
#include "harness.h"
#include "runtime/spawn_pool.h"
#include "serve/serve.h"
#include "trace/trace.h"

namespace lfi::bench {
namespace {

using lfi::serve::Request;
using lfi::serve::ServeConfig;
using lfi::serve::ServeReport;
using lfi::serve::Server;
using lfi::serve::TrafficKind;

// The request handler: service-sized image (~1MiB data, 64+ pages — the
// shape where cold loads hurt), a little compute, one write, clean exit.
const char* kHandlerProg = R"(
    movz x19, #1500
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
  payload:
    .zero 1048576
)";

// A warm serving stack: runtime, pool snapshot captured from a template
// load (the template itself never serves), and the pool.
struct Stack {
  lfi::runtime::Runtime rt;
  std::shared_ptr<const lfi::snapshot::Snapshot> snap;
  std::unique_ptr<lfi::runtime::SpawnPool> pool;
  std::string error;

  explicit Stack(const Built& b)
      : rt([] {
          lfi::runtime::RuntimeConfig cfg;
          cfg.core = lfi::arch::AppleM1LikeParams();
          return cfg;
        }()) {
    auto pid = rt.Load({b.elf.data(), b.elf.size()});
    if (!pid.ok()) {
      error = pid.error();
      return;
    }
    auto cap = rt.CaptureSnapshot(*pid);
    if (!cap.ok()) {
      error = cap.error();
      return;
    }
    snap = std::make_shared<const lfi::snapshot::Snapshot>(*std::move(cap));
    if (auto st = rt.Kill(*pid, "template"); !st.ok()) {
      error = st.error();
      return;
    }
    pool = std::make_unique<lfi::runtime::SpawnPool>(&rt, snap);
  }
};

ServeConfig BaseConfig(TrafficKind kind, uint64_t seed, uint64_t requests) {
  ServeConfig cfg;
  cfg.traffic.kind = kind;
  cfg.traffic.seed = seed;
  cfg.traffic.requests = requests;
  cfg.traffic.rate_per_mcycle = 2000;  // saturating offered load
  cfg.traffic.tenants = 4;
  cfg.tiers.resize(1);
  cfg.tiers[0].slo_cycles = 20000000;
  cfg.admission.max_queue_depth = 256;
  cfg.admission.shed_on_deadline = false;
  cfg.max_concurrency = 8;
  cfg.pool_min = 4;
  cfg.pool_max = 32;
  return cfg;
}

void AddLatencies(JsonReport* report, const std::string& prefix,
                  const ServeReport& rep) {
  report->Add(prefix + ".p50.cycles",
              static_cast<double>(rep.LatencyPercentile(50)));
  report->Add(prefix + ".p99.cycles",
              static_cast<double>(rep.LatencyPercentile(99)));
  report->Add(prefix + ".p999.cycles",
              static_cast<double>(rep.LatencyPercentile(99.9)));
  report->Add(prefix + ".makespan.cycles",
              static_cast<double>(rep.makespan()));
  report->Add(prefix + ".throughput_per_mcycle", rep.ThroughputPerMcycle());
  report->Add(prefix + ".completed", static_cast<double>(rep.completed));
}

// Storm-while-serving with parked sandboxes killed behind the pool's
// back every few steps. Driven by Step() so the kills interleave with
// dispatch deterministically.
ServeReport RunStorm(const Built& b, uint64_t traffic_seed,
                     uint64_t chaos_seed, std::string* error) {
  Stack s(b);
  if (s.pool == nullptr) {
    *error = s.error;
    return {};
  }
  lfi::chaos::ChaosEngine storm(chaos_seed,
                                lfi::chaos::ProfileByName("storm"));
  s.rt.set_chaos(&storm);
  storm.MarkVictim(0);  // pin the victim set before anything runs

  ServeConfig cfg = BaseConfig(TrafficKind::kPoisson, traffic_seed, 400);
  cfg.traffic.rate_per_mcycle = 300;
  cfg.tiers.resize(2);
  cfg.tiers[0].name = "victim";
  cfg.tiers[0].policy.on_fault = lfi::runtime::FaultAction::kRestart;
  cfg.tiers[0].policy.restart_budget = 3;
  cfg.tiers[0].policy.restart_backoff_base_cycles = 100;
  cfg.tiers[0].slo_cycles = 20000000;
  cfg.tiers[1].name = "bystander";
  cfg.tiers[1].slo_cycles = 20000000;
  // One request per sandbox: a pid marked as a chaos victim must never
  // be recycled into a bystander tenant.
  cfg.recycle_sandboxes = false;
  cfg.on_dispatch = [&storm](int pid, const Request& r) {
    if (r.tier == 0) storm.MarkVictim(pid);
  };

  Server srv(&s.rt, cfg, s.pool.get());
  uint64_t steps = 0;
  while (srv.Step()) {
    if (++steps >= cfg.max_steps) break;
    // Every 13th step, kill every parked sandbox behind the pool's back:
    // Take() must purge the corpses (dead_parked) and fall back to a
    // request-path cold spawn when the pool is left dry — both bugfix
    // paths, under storm chaos.
    if (steps % 13 == 0) {
      for (int pid : s.pool->warm_pids()) {
        (void)s.rt.Kill(pid, "storm bench kill");
      }
    }
  }
  s.rt.set_chaos(nullptr);
  return srv.report();
}

// Resilience phase: tenant 0 is storm-scoped through ServeConfig::chaos
// (victimhood follows the tenant *binding* — marked at dispatch, unmarked
// at completion — so recycling stays on and healthy tenants may reuse a
// sandbox that previously served the faulting tenant). A tight fault gap
// guarantees every tenant-0 attempt faults; the kill policy turns each
// fault into a failed request, so retries burn down and the tenant's
// circuit opens, after which its arrivals fast-fail without consuming a
// sandbox. Healthy tenants (1-3) must come through spotless.
ServeReport RunResilience(const Built& b, uint64_t traffic_seed,
                          uint64_t chaos_seed, std::string* error,
                          std::string* transcript) {
  Stack s(b);
  if (s.pool == nullptr) {
    *error = s.error;
    return {};
  }
  lfi::chaos::ChaosProfile profile;
  profile.name = "bench-resilience";
  profile.cpu_faults = true;
  // The handler retires ~1500 instructions: a gap well below that makes
  // every victim attempt fault before it can finish.
  profile.min_fault_gap = 200;
  profile.max_fault_gap = 1000;
  lfi::chaos::ChaosEngine storm(chaos_seed, profile);
  s.rt.set_chaos(&storm);

  ServeConfig cfg = BaseConfig(TrafficKind::kPoisson, traffic_seed, 600);
  cfg.traffic.rate_per_mcycle = 400;
  cfg.tiers.resize(2);
  cfg.tiers[0].name = "storm";
  cfg.tiers[0].policy.on_fault = lfi::runtime::FaultAction::kKill;
  cfg.tiers[0].slo_cycles = 20000000;
  cfg.tiers[1].name = "healthy";
  cfg.tiers[1].slo_cycles = 20000000;
  cfg.retry.budget = 2;
  cfg.retry.backoff_base_cycles = 10000;
  cfg.retry.backoff_cap_cycles = 100000;
  cfg.breaker.failure_threshold = 4;
  cfg.breaker.open_cycles = 1000000;
  cfg.breaker.close_successes = 2;
  cfg.chaos = &storm;
  cfg.chaos_tenants = {0};

  Server srv(&s.rt, cfg, s.pool.get());
  const ServeReport& rep = srv.Run();
  if (transcript != nullptr) *transcript = rep.Format();
  s.rt.set_chaos(nullptr);
  return rep;
}

}  // namespace
}  // namespace lfi::bench

int main(int argc, char** argv) {
  using namespace lfi::bench;
  JsonReport report = JsonReport::FromArgs(argc, argv);

  const Built b = BuildLfi(kHandlerProg, Config::kO2);
  if (!b.ok) {
    std::fprintf(stderr, "error: build: %s\n", b.error.c_str());
    return 1;
  }
  auto image = lfi::elf::Read({b.elf.data(), b.elf.size()});
  if (!image.ok()) {
    std::fprintf(stderr, "error: elf read: %s\n", image.error().c_str());
    return 1;
  }

  const uint64_t kSeed = 20240607;
  const uint64_t kRequests = 1500;

  // ---- Warm pool vs cold load, equal offered load ------------------------
  // With a sink, also reports the decode-cache traffic of the whole run
  // and the block misses taken by the time the first request completed.
  struct DecodeTally {
    uint64_t first_misses = 0, misses = 0, invalidations = 0;
  };
  auto run_warm = [&](std::string* transcript,
                      DecodeTally* tally) -> ServeReport {
    Stack s(b);
    if (s.pool == nullptr) {
      std::fprintf(stderr, "error: stack: %s\n", s.error.c_str());
      std::exit(1);
    }
    lfi::trace::TraceSink sink;
    if (tally != nullptr) s.rt.set_trace_sink(&sink);
    auto sum = [&sink](lfi::trace::Counter c) {
      uint64_t n = 0;
      for (const auto& [pid, m] : sink.all_metrics()) n += m.Get(c);
      return n;
    };
    Server srv(&s.rt, BaseConfig(TrafficKind::kPoisson, kSeed, kRequests),
               s.pool.get());
    if (tally != nullptr) {
      while (srv.report().completed == 0 && srv.Step()) {
      }
      tally->first_misses = sum(lfi::trace::Counter::kBlockCacheMisses);
    }
    ServeReport rep = srv.Run();
    if (transcript != nullptr) *transcript = rep.Format();
    if (tally != nullptr) {
      tally->misses = sum(lfi::trace::Counter::kBlockCacheMisses);
      tally->invalidations =
          sum(lfi::trace::Counter::kBlockCacheInvalidations);
    }
    return rep;
  };

  // The traced run is the reported one; the untraced replay below then
  // also proves the sink does not perturb the simulation.
  std::string warm_transcript;
  DecodeTally decode;
  const ServeReport warm = run_warm(&warm_transcript, &decode);
  const bool decode_once =
      decode.first_misses > 0 && decode.misses == decode.first_misses;

  lfi::runtime::RuntimeConfig cold_cfg;
  cold_cfg.core = lfi::arch::AppleM1LikeParams();
  lfi::runtime::Runtime cold_rt(cold_cfg);
  Server cold_srv(&cold_rt,
                  BaseConfig(TrafficKind::kPoisson, kSeed, kRequests),
                  &*image);
  const ServeReport cold = cold_srv.Run();

  const double speedup =
      cold.ThroughputPerMcycle() > 0
          ? warm.ThroughputPerMcycle() / cold.ThroughputPerMcycle()
          : 0.0;

  // ---- Determinism: same seed, fresh stack, byte-identical transcript ----
  std::string replay_transcript;
  (void)run_warm(&replay_transcript, nullptr);
  const bool warm_deterministic = replay_transcript == warm_transcript;

  // ---- Storm chaos while serving -----------------------------------------
  std::string storm_err;
  const ServeReport storm = RunStorm(b, kSeed + 1, 4242, &storm_err);
  if (!storm_err.empty()) {
    std::fprintf(stderr, "error: storm: %s\n", storm_err.c_str());
    return 1;
  }
  const ServeReport storm_replay = RunStorm(b, kSeed + 1, 4242, &storm_err);
  const bool storm_deterministic =
      storm.Format() == storm_replay.Format();
  uint64_t bystander_failed = 0, bystander_slo = 0, bystander_done = 0;
  uint64_t victim_disrupted = 0;
  for (const auto& [tenant, s] : storm.tenants) {
    if (tenant % 2 == 1) {  // tenants 1,3 -> tier 1 (bystander)
      bystander_failed += s.failed;
      bystander_slo += s.slo_violations;
      bystander_done += s.completed;
    } else {
      victim_disrupted += s.failed + s.slo_violations;
    }
  }

  // ---- Resilience: storm-scoped tenant vs healthy tenants ----------------
  std::string resilience_err, resilience_transcript, resilience_replay;
  const ServeReport resilience =
      RunResilience(b, kSeed + 4, 777, &resilience_err,
                    &resilience_transcript);
  if (!resilience_err.empty()) {
    std::fprintf(stderr, "error: resilience: %s\n", resilience_err.c_str());
    return 1;
  }
  (void)RunResilience(b, kSeed + 4, 777, &resilience_err, &resilience_replay);
  const bool resilience_deterministic =
      resilience_replay == resilience_transcript;
  uint64_t healthy_shed = 0, healthy_slo = 0, healthy_failed = 0;
  uint64_t healthy_done = 0;
  for (const auto& [tenant, s] : resilience.tenants) {
    if (tenant == 0) continue;
    healthy_shed += s.shed;
    healthy_slo += s.slo_violations;
    healthy_failed += s.failed;
    healthy_done += s.completed;
  }
  const lfi::serve::TenantStats storm_tenant =
      resilience.tenants.count(0) ? resilience.tenants.at(0)
                                  : lfi::serve::TenantStats{};

  // ---- Closed-loop and bursty shapes -------------------------------------
  ServeConfig closed_cfg = BaseConfig(TrafficKind::kClosed, kSeed + 2, 800);
  closed_cfg.traffic.closed_clients = 8;
  closed_cfg.traffic.think_cycles = 10000;
  Stack closed_stack(b);
  Server closed_srv(&closed_stack.rt, closed_cfg, closed_stack.pool.get());
  const ServeReport closed = closed_srv.Run();

  ServeConfig burst_cfg = BaseConfig(TrafficKind::kBursty, kSeed + 3, 600);
  burst_cfg.traffic.burst_size = 48;
  burst_cfg.traffic.burst_period_cycles = 300000;
  burst_cfg.admission.max_queue_depth = 32;
  burst_cfg.admission.shed_on_deadline = true;
  burst_cfg.tiers[0].slo_cycles = 400000;
  Stack burst_stack(b);
  Server burst_srv(&burst_stack.rt, burst_cfg, burst_stack.pool.get());
  const ServeReport burst = burst_srv.Run();

  // ---- Report ------------------------------------------------------------
  std::printf("Request serving (simulated cycles, %llu Poisson requests)\n",
              (unsigned long long)kRequests);
  std::printf("%-8s %14s %10s %10s %10s %10s\n", "mode", "req/Mcycle",
              "p50", "p99", "p999", "completed");
  std::printf("%-8s %14.2f %10llu %10llu %10llu %10llu\n", "warm",
              warm.ThroughputPerMcycle(),
              (unsigned long long)warm.LatencyPercentile(50),
              (unsigned long long)warm.LatencyPercentile(99),
              (unsigned long long)warm.LatencyPercentile(99.9),
              (unsigned long long)warm.completed);
  std::printf("%-8s %14.2f %10llu %10llu %10llu %10llu\n", "cold",
              cold.ThroughputPerMcycle(),
              (unsigned long long)cold.LatencyPercentile(50),
              (unsigned long long)cold.LatencyPercentile(99),
              (unsigned long long)cold.LatencyPercentile(99.9),
              (unsigned long long)cold.completed);
  std::printf("warm/cold throughput: %.1fx (gate >= 5x)\n", speedup);
  std::printf("warm decode: %llu block misses (%llu by the first completion),"
              " %llu invalidations (gate: decode once, 0 invalidations)\n",
              (unsigned long long)decode.misses,
              (unsigned long long)decode.first_misses,
              (unsigned long long)decode.invalidations);
  std::printf("storm: dead_parked=%llu cold_spawns=%llu victims "
              "disrupted=%llu bystander failed=%llu slo_viol=%llu\n",
              (unsigned long long)storm.dead_parked,
              (unsigned long long)storm.cold_spawns,
              (unsigned long long)victim_disrupted,
              (unsigned long long)bystander_failed,
              (unsigned long long)bystander_slo);
  std::printf("resilience: storm tenant trips=%llu shed_breaker=%llu "
              "retried=%llu injected=%llu; healthy completed=%llu shed=%llu "
              "slo_viol=%llu failed=%llu\n",
              (unsigned long long)storm_tenant.breaker_trips,
              (unsigned long long)storm_tenant.shed_breaker,
              (unsigned long long)storm_tenant.retried,
              (unsigned long long)storm_tenant.injected_faults,
              (unsigned long long)healthy_done,
              (unsigned long long)healthy_shed,
              (unsigned long long)healthy_slo,
              (unsigned long long)healthy_failed);
  std::printf("closed: %llu completed, p99 %llu; bursty: %llu shed_queue, "
              "%llu shed_deadline\n",
              (unsigned long long)closed.completed,
              (unsigned long long)closed.LatencyPercentile(99),
              (unsigned long long)burst.shed_queue,
              (unsigned long long)burst.shed_deadline);

  AddLatencies(&report, "serving.warm", warm);
  AddLatencies(&report, "serving.cold", cold);
  report.Add("serving.warm_vs_cold.speedup", speedup);
  report.Add("serving.warm.recycles", static_cast<double>(warm.recycles));
  report.Add("serving.warm.block_invalidations.exact",
             static_cast<double>(decode.invalidations));
  report.Add("serving.warm.decode_once.exact", decode_once ? 1.0 : 0.0);
  report.Add("serving.storm.dead_parked",
             static_cast<double>(storm.dead_parked));
  report.Add("serving.storm.bystander_failed",
             static_cast<double>(bystander_failed));
  report.Add("serving.storm.bystander_slo_violations",
             static_cast<double>(bystander_slo));
  AddLatencies(&report, "serving.closed", closed);
  report.Add("serving.bursty.shed_queue",
             static_cast<double>(burst.shed_queue));
  report.Add("serving.bursty.shed_deadline",
             static_cast<double>(burst.shed_deadline));
  report.Add("serving.resilience.healthy_completed",
             static_cast<double>(healthy_done));
  report.Add("serving.resilience.healthy_shed",
             static_cast<double>(healthy_shed));
  report.Add("serving.resilience.healthy_slo_violations",
             static_cast<double>(healthy_slo));
  report.Add("serving.resilience.storm_breaker_trips",
             static_cast<double>(storm_tenant.breaker_trips));
  report.Add("serving.resilience.storm_shed_breaker",
             static_cast<double>(storm_tenant.shed_breaker));
  report.Add("serving.resilience.storm_retried",
             static_cast<double>(storm_tenant.retried));
  if (!report.Write()) return 1;

  // ---- Gates -------------------------------------------------------------
  int rc = 0;
  if (speedup < 5.0) {
    std::fprintf(stderr, "FAIL: warm serving only %.1fx cold throughput "
                 "(need >= 5x)\n", speedup);
    rc = 1;
  }
  if (!decode_once || decode.invalidations != 0) {
    std::fprintf(stderr, "FAIL: warm pool re-decoded its handler (%llu block "
                 "misses, %llu by the first completion; %llu "
                 "invalidations)\n",
                 (unsigned long long)decode.misses,
                 (unsigned long long)decode.first_misses,
                 (unsigned long long)decode.invalidations);
    rc = 1;
  }
  if (!warm_deterministic || !storm_deterministic) {
    std::fprintf(stderr, "FAIL: same-seed replay diverged (warm=%d "
                 "storm=%d)\n", warm_deterministic, storm_deterministic);
    rc = 1;
  }
  if (storm.dead_parked == 0 || storm.cold_spawns == 0) {
    std::fprintf(stderr, "FAIL: storm run missed a SpawnPool fallback path "
                 "(dead_parked=%llu cold_spawns=%llu)\n",
                 (unsigned long long)storm.dead_parked,
                 (unsigned long long)storm.cold_spawns);
    rc = 1;
  }
  if (bystander_failed != 0 || bystander_slo != 0 || bystander_done == 0) {
    std::fprintf(stderr, "FAIL: bystander tenants disrupted under storm "
                 "(failed=%llu slo=%llu completed=%llu)\n",
                 (unsigned long long)bystander_failed,
                 (unsigned long long)bystander_slo,
                 (unsigned long long)bystander_done);
    rc = 1;
  }
  if (!resilience_deterministic) {
    std::fprintf(stderr,
                 "FAIL: resilience same-seed replay diverged\n");
    rc = 1;
  }
  if (healthy_shed != 0 || healthy_slo != 0 || healthy_failed != 0 ||
      healthy_done == 0) {
    std::fprintf(stderr,
                 "FAIL: healthy tenants disturbed under storm-scoped chaos "
                 "(shed=%llu slo=%llu failed=%llu completed=%llu)\n",
                 (unsigned long long)healthy_shed,
                 (unsigned long long)healthy_slo,
                 (unsigned long long)healthy_failed,
                 (unsigned long long)healthy_done);
    rc = 1;
  }
  if (storm_tenant.breaker_trips == 0 || storm_tenant.shed_breaker == 0 ||
      storm_tenant.retried == 0 || storm_tenant.injected_faults == 0) {
    std::fprintf(stderr,
                 "FAIL: resilience phase did not exercise the storm tenant "
                 "(trips=%llu shed_breaker=%llu retried=%llu "
                 "injected=%llu)\n",
                 (unsigned long long)storm_tenant.breaker_trips,
                 (unsigned long long)storm_tenant.shed_breaker,
                 (unsigned long long)storm_tenant.retried,
                 (unsigned long long)storm_tenant.injected_faults);
    rc = 1;
  }
  if (warm.completed == 0 || cold.completed == 0 ||
      closed.completed != closed_cfg.traffic.requests) {
    std::fprintf(stderr, "FAIL: serving phases incomplete (warm=%llu "
                 "cold=%llu closed=%llu)\n",
                 (unsigned long long)warm.completed,
                 (unsigned long long)cold.completed,
                 (unsigned long long)closed.completed);
    rc = 1;
  }
  return rc;
}
