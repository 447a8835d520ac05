// FaaS-style request serving over the warm SpawnPool (docs/SERVING.md).
//
// The paper's scalability argument (Section 6.4: thousands of sandboxes
// in one process) is only interesting if something serves traffic through
// them. This layer closes that loop on the simulated clock:
//
//   traffic    seeded synthetic arrival processes — open-loop Poisson,
//              open-loop bursty (synchronized arrival batches, the
//              adversarial case for a warm pool), and closed-loop clients
//              with think time — all deterministic per seed, like chaos
//   admission  per-tenant quotas (max_queued / max_inflight) in front of a
//              bounded shared queue, plus the overload ladder and circuit
//              breakers below; deadline shedding drops queued requests
//              that already missed their tier's SLO
//   dispatch   deficit-round-robin across tenant queues (weighted fair
//              share — one flooding tenant cannot starve the others),
//              takes a warm sandbox from the SpawnPool (or cold-loads an
//              ELF per request), applies the tenant tier's
//              SupervisorPolicy, and runs it
//   retry      a failed attempt (fault, kill, nonzero exit) re-enqueues
//              with capped exponential backoff and seeded jitter, up to a
//              budget and never past the request's deadline
//   breakers   per-tenant consecutive-failure tracking: at the threshold
//              the tenant's circuit opens (arrivals fast-fail without
//              burning a sandbox), half-open probes test recovery
//   overload   an EWMA of queue depth drives a degradation ladder: shed
//              the lowest QoS tier first, then disable retries, then
//              fast-fail everything; each transition is a trace event
//   recycle    finished sandboxes are rolled back to the pool checkpoint
//              (Runtime::Recycle — same pid and slot) and re-parked;
//              kills retire the slot instead
//   sizing     SpawnPool::Reconcile toward pool_min + the queue-depth
//              EWMA each step (predictive warmth, gradual drain)
//
// Clock charging: request-path instantiation (a cold ELF load, or the
// pool's cold-spawn fallback when it runs dry) charges the modeled
// instantiation cost to the shared clock — that latency is exactly what
// a warm pool exists to hide. Prewarm and Recycle are background work
// between requests and charge nothing, matching the snapshot subsystem's
// rule that pre-run instantiation never perturbs traces.
//
// Everything is driven by Step(): admit, shed, dispatch, execute a
// bounded slice, reap, resize. Identical seeds and configs replay
// byte-identically (ServeReport::Format is the canonical transcript) —
// retry jitter and the breaker clocks all run off the simulated-cycle
// clock and the traffic seed.
#ifndef LFI_SERVE_SERVE_H_
#define LFI_SERVE_SERVE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "elf/elf.h"
#include "fuzz/rng.h"
#include "runtime/runtime.h"
#include "runtime/spawn_pool.h"

namespace lfi::chaos {
class ChaosEngine;
}  // namespace lfi::chaos

namespace lfi::serve {

// Arrival process shapes.
enum class TrafficKind : uint8_t {
  kPoisson,  // open-loop: exponential gaps at `rate_per_mcycle`
  kBursty,   // open-loop: `burst_size` simultaneous arrivals every
             // `burst_period_cycles` (synchronized batches)
  kClosed,   // closed-loop: `closed_clients` clients, one outstanding
             // request each, re-issuing `think_cycles` after completion
};

const char* TrafficKindName(TrafficKind k);
// Parses "poisson" / "bursty" / "closed"; false on unknown.
bool TrafficKindByName(const std::string& name, TrafficKind* out);

struct TrafficConfig {
  TrafficKind kind = TrafficKind::kPoisson;
  uint64_t seed = 1;
  uint64_t requests = 1000;       // total requests to generate
  uint32_t tenants = 4;           // tenant ids assigned at random
  // Per-tenant arrival shares for open-loop shapes. Empty = uniform;
  // otherwise must have exactly `tenants` entries (a flooding tenant is a
  // large weight — the fairness tests drive one at 10x its peers).
  std::vector<uint32_t> tenant_weights;
  // Open-loop knobs.
  uint64_t rate_per_mcycle = 50;  // mean arrivals per 1M cycles (Poisson)
  uint64_t burst_period_cycles = 200000;
  uint32_t burst_size = 32;
  // Closed-loop knobs.
  uint32_t closed_clients = 8;
  uint64_t think_cycles = 20000;
};

// One request flowing through the control plane.
struct Request {
  uint64_t id = 0;
  uint32_t tenant = 0;
  uint32_t tier = 0;             // index into ServeConfig::tiers
  uint64_t arrive_cycles = 0;
  uint32_t client = 0;           // closed-loop issuer (0 for open-loop)
  uint32_t attempt = 0;          // 0 = first try; bumped per retry
  uint64_t eligible_cycles = 0;  // retry backoff: not dispatched earlier
};

// Deterministic synthetic traffic. Arrival times are fixed by (kind,
// seed, config) alone for open-loop shapes; closed-loop arrivals react
// to completions (OnComplete schedules the client's next issue).
class TrafficGen {
 public:
  explicit TrafficGen(const TrafficConfig& cfg);

  // Cycle of the soonest pending arrival, or ~0ull when none is
  // currently scheduled (drained, or closed-loop with every client
  // waiting on an in-flight request).
  uint64_t NextArrival() const;
  // True once every request has been generated.
  bool Drained() const { return issued_ >= cfg_.requests; }
  // Pops the next arrival if it is due at `now`.
  bool Pop(uint64_t now, Request* out);
  // Completion/shed feedback (closed-loop re-arms the client; open-loop
  // ignores it).
  void OnComplete(const Request& r, uint64_t now);

 private:
  uint64_t ExpGap(uint64_t mean_cycles);
  void ScheduleNextOpenLoop();
  uint32_t PickTenant();

  TrafficConfig cfg_;
  fuzz::Rng rng_;
  uint64_t issued_ = 0;
  uint64_t weight_total_ = 0;     // sum of tenant_weights (0 = uniform)
  // Open-loop state.
  uint64_t next_arrival_ = 0;
  uint32_t burst_left_ = 0;       // arrivals remaining in the current batch
  // Closed-loop state: per-client next issue time (~0 = in flight).
  std::vector<uint64_t> client_next_;
};

// A QoS tier: the fault/limit policy applied to sandboxes serving the
// tier's tenants, plus the latency SLO requests are judged against.
// Lower tier index = higher priority; the degradation ladder sheds the
// highest-index tier first.
struct QosTier {
  std::string name = "default";
  runtime::SupervisorPolicy policy;
  uint64_t slo_cycles = 500000;  // arrival-to-completion target
};

// Deadline/SLO boundary rules, shared by shedding and accounting so the
// two can never disagree about a request that lands exactly on the edge:
// a request is late the moment `now` reaches its deadline, and a
// completion at exactly the SLO is a violation. (Historically shedding
// used `now > deadline` while accounting used `latency > slo`, so a
// request dispatched exactly at its deadline was counted served-in-SLO.)
inline bool DeadlineExpired(uint64_t now, uint64_t deadline) {
  return now >= deadline;
}
inline bool SloViolated(uint64_t latency, uint64_t slo_cycles) {
  return latency >= slo_cycles;
}

struct AdmissionConfig {
  uint32_t max_queue_depth = 64;  // arrivals beyond this are shed
  bool shed_on_deadline = true;   // drop queued requests already past SLO
};

// Per-tenant admission quota and fair-share weight. A tenant with no
// explicit entry in ServeConfig::quotas uses ServeConfig::default_quota.
struct TenantQuota {
  uint32_t max_queued = 0;    // arrivals beyond this many queued are shed
                              // with the quota outcome (0 = no cap)
  uint32_t max_inflight = 0;  // concurrent dispatches for this tenant
                              // (0 = no cap beyond max_concurrency)
  uint32_t weight = 1;        // deficit-round-robin share per round
};

// Deadline-aware retry. A failed attempt re-enqueues with capped
// exponential backoff (base << attempt, capped) jittered by
// +/- kRetryJitterPercent% from the seeded stream; the request is given
// up instead when the backed-off dispatch could not finish before its
// deadline, the budget is spent, the tenant's breaker is not closed, or
// the ladder has reached the no-retry level.
inline constexpr uint32_t kRetryJitterPercent = 20;
struct RetryConfig {
  uint32_t budget = 0;                   // retries per request (0 = off)
  uint64_t backoff_base_cycles = 20000;  // doubles per attempt
  uint64_t backoff_cap_cycles = 1000000;
};

// Per-tenant circuit breaker: `failure_threshold` consecutive failures
// flip the tenant to open (arrivals fast-fail with the breaker outcome —
// no sandbox burned); after `open_cycles` the next arrival is admitted as
// a half-open probe (tenant capped to one in flight); `close_successes`
// consecutive probe successes close the circuit, any probe failure
// re-opens it.
struct BreakerConfig {
  uint32_t failure_threshold = 0;  // consecutive failures to open (0 = off)
  uint64_t open_cycles = 2000000;  // cool-down before the half-open probe
  uint32_t close_successes = 2;    // probe successes needed to close
};

// Breaker state, surfaced per tenant in the report.
enum class BreakerState : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };
const char* BreakerStateName(BreakerState s);

// Graceful-degradation ladder, driven by a fixed-point EWMA of queue
// depth (updated once per Step; alpha = 2^-ewma_shift). Levels:
//   0  normal
//   1  shed arrivals of the lowest-QoS tier (highest tier index); no-op
//      when only one tier is configured
//   2  additionally disable retries
//   3  fast-fail: shed every arrival
// A level is entered when the EWMA reaches its threshold and left when
// the EWMA falls below kDegradeRecoverPercent% of it (hysteresis, so an
// oscillating backlog does not flap the ladder). Transitions emit
// kServeDegrade trace events and are counted in the report.
inline constexpr uint32_t kDegradeRecoverPercent = 50;
struct DegradeConfig {
  bool enabled = false;
  uint32_t ewma_shift = 4;          // alpha = 1/16 per control-plane step
  uint64_t shed_tier_depth = 48;    // level-1 threshold (EWMA, requests)
  uint64_t no_retry_depth = 96;     // level-2 threshold
  uint64_t fast_fail_depth = 144;   // level-3 threshold
};

struct ServeConfig {
  TrafficConfig traffic;
  AdmissionConfig admission;
  std::vector<QosTier> tiers;     // tenant t maps to tiers[t % size]
  // Per-tenant admission quotas and fair-share weights (tenants without
  // an entry use default_quota).
  std::map<uint32_t, TenantQuota> quotas;
  TenantQuota default_quota;
  RetryConfig retry;
  BreakerConfig breaker;
  DegradeConfig degrade;
  uint32_t max_concurrency = 8;   // in-flight request cap
  uint32_t pool_min = 4;          // warm floor the sizer maintains
  uint32_t pool_max = 64;         // warm ceiling (Evict above this)
  uint64_t slice_insts = 20000;   // execution budget per Step
  uint64_t max_steps = 10000000;  // livelock backstop for Run()
  // Recycle healthy sandboxes back into the pool (default). When false,
  // every sandbox serves exactly one request and is then retired, so a
  // pid never carries state — chaos victimhood, tier history — across
  // tenants (per-request isolation; the storm benches use this).
  bool recycle_sandboxes = true;
  // Tenant-scoped chaos (docs/FAULTS.md): when `chaos` is set and
  // `chaos_tenants` is non-empty, the server pins the engine's victim set
  // and marks each sandbox a victim only while it is bound to a listed
  // tenant's request (unmarked at completion, so recycling cannot leak
  // victimhood to a healthy tenant). The engine must be attached to the
  // runtime separately (Runtime::set_chaos) and outlive the server.
  chaos::ChaosEngine* chaos = nullptr;
  std::vector<uint32_t> chaos_tenants;
  // Called right after a sandbox is bound to a request (bench/test hook:
  // e.g. chaos MarkVictim by tenant). Must be deterministic.
  std::function<void(int pid, const Request&)> on_dispatch;
};

// Validates a serving config, rejecting zero/contradictory settings
// (empty queue, zero concurrency, zero SLO, quota wider than the queue,
// non-increasing ladder thresholds, ...). Returns false and sets *err to
// a one-line message on the first violation. The CLI reports the message
// and exits 2; the Server itself stays permissive so tests can construct
// degenerate configs deliberately.
bool ValidateServeConfig(const ServeConfig& cfg, std::string* err);

// Per-tenant outcome counts (bystander-SLO assertions key off these).
struct TenantStats {
  uint64_t offered = 0;
  uint64_t shed = 0;              // all shed outcomes (queue, deadline,
                                  // quota, breaker, degrade, dispatch)
  uint64_t shed_quota = 0;        // over max_queued
  uint64_t shed_breaker = 0;      // fast-failed while the circuit was open
  uint64_t completed = 0;
  uint64_t failed = 0;            // killed / nonzero exit, budget spent
  uint64_t retried = 0;           // attempts re-enqueued by the retry policy
  uint64_t faults = 0;            // failures that were sandbox kills
  uint64_t injected_faults = 0;   // kills whose fault was chaos-injected
  uint64_t breaker_trips = 0;     // closed/half-open -> open transitions
  uint64_t slo_violations = 0;    // completed but at/after the tier SLO
  BreakerState breaker_state = BreakerState::kClosed;  // at end of run
  std::vector<uint64_t> latencies;  // completed requests, arrival order
};

struct ServeReport {
  uint64_t offered = 0;
  uint64_t shed_queue = 0;        // dropped at arrival (queue full)
  uint64_t shed_deadline = 0;     // dropped at dispatch (SLO already blown)
  uint64_t shed_quota = 0;        // dropped at arrival (tenant over quota)
  uint64_t shed_breaker = 0;      // fast-failed (tenant circuit open)
  uint64_t shed_degrade = 0;      // dropped by the degradation ladder
  uint64_t dispatch_failures = 0; // no sandbox available (slot exhaustion)
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t retried = 0;           // re-enqueued attempts (not new requests)
  uint64_t breaker_trips = 0;     // total open transitions across tenants
  uint64_t breaker_recoveries = 0;  // half-open -> closed transitions
  uint64_t degrade_transitions = 0; // ladder level changes
  uint32_t max_degrade_level = 0;   // highest level reached
  uint64_t slo_violations = 0;
  uint64_t start_cycles = 0;
  uint64_t end_cycles = 0;
  uint64_t steps = 0;
  bool aborted = false;           // Run() hit max_steps
  std::vector<uint64_t> latencies;   // completed requests, arrival order
  std::map<uint32_t, TenantStats> tenants;
  // Pool counters at the end of the run (all zero for cold serving).
  uint64_t warm_hits = 0, cold_spawns = 0, dead_parked = 0;
  uint64_t recycles = 0, evictions = 0;
  // FNV-1a over every per-request outcome (id, tenant, pid, latency,
  // result) plus, at end of run, every tenant's counter block — so replay
  // byte-equality covers the per-tenant breakdown too.
  uint64_t outcome_hash = 14695981039346656037ull;

  uint64_t makespan() const { return end_cycles - start_cycles; }
  // Completed requests per 1M simulated cycles.
  double ThroughputPerMcycle() const;
  // p in [0,100]; nearest-rank percentile of completed latencies.
  uint64_t LatencyPercentile(double p) const;
  // Canonical deterministic transcript (byte-comparable across runs).
  std::string Format() const;
};

// Nearest-rank percentile over an unsorted sample (used for the report's
// global and per-tenant latency lines).
uint64_t PercentileOf(const std::vector<uint64_t>& sample, double p);

// The control plane. Warm mode serves from a SpawnPool; cold mode
// instantiates `cold_image` per request (the baseline the pool is
// benchmarked against). Exactly one of pool/cold_image is used.
class Server {
 public:
  Server(runtime::Runtime* rt, ServeConfig cfg, runtime::SpawnPool* pool);
  Server(runtime::Runtime* rt, ServeConfig cfg,
         const elf::ElfImage* cold_image);

  // One control-plane iteration: admit due arrivals, update the overload
  // ladder, shed, dispatch up to the concurrency cap under the per-tenant
  // quotas and the deficit-round-robin order, execute a bounded slice,
  // reap completions (applying retry/breaker policy), resize the pool.
  // Returns false once the run is complete.
  bool Step();
  // Steps until done (or max_steps). Returns the final report.
  const ServeReport& Run();

  bool Done() const;
  const ServeReport& report() const { return report_; }
  uint64_t queue_depth() const { return queued_total_; }
  uint64_t inflight() const { return inflight_.size(); }
  uint32_t degrade_level() const { return degrade_level_; }
  // Breaker state for a tenant (kClosed when never seen).
  BreakerState breaker_state(uint32_t tenant) const;

 private:
  struct Inflight {
    Request req;
    uint64_t dispatch_cycles = 0;
    bool probe = false;  // half-open breaker probe
  };

  // Per-tenant control state: FIFO queue, DRR deficit, inflight count,
  // and the circuit breaker.
  struct TenantState {
    std::deque<Request> q;
    uint32_t inflight = 0;
    uint64_t deficit = 0;
    BreakerState breaker = BreakerState::kClosed;
    uint32_t consec_failures = 0;
    uint32_t half_open_ok = 0;
    uint64_t open_until = 0;
  };

  // Shed outcome kinds. HashOutcome result codes: queue 2, deadline 3,
  // dispatch 4, quota 5, breaker 6, degrade 7 (retry events hash as 8);
  // kServeShed arg1: queue 0, deadline 1, quota 2, breaker 3, degrade 4.
  enum class ShedKind : uint8_t {
    kQueue, kDeadline, kDispatch, kQuota, kBreaker, kDegrade
  };

  void AdmitArrivals(uint64_t now);
  void UpdateDegradation(uint64_t now);
  void ShedExpired(uint64_t now);
  void Dispatch(uint64_t now);
  bool DispatchOne(const Request& r, TenantState& ts, uint64_t now);
  void Advance();
  void Reap();
  void ResizePool();
  void Shed(const Request& r, ShedKind kind, uint64_t now);
  void FinishRequest(const Inflight& inf, int pid);
  // Backoff for the given (0-based) attempt: base << attempt, capped,
  // jittered from the dedicated retry stream. Always >= 1.
  uint64_t BackoffFor(uint32_t attempt);
  void NoteBreaker(uint32_t tenant, TenantState& ts, BreakerState next,
                   uint64_t now);
  void Finalize();
  void HashOutcome(uint64_t id, uint64_t tenant, uint64_t pid,
                   uint64_t latency, uint64_t result);
  uint32_t TierOf(uint32_t tenant) const {
    return tiers_.empty() ? 0 : tenant % tiers_.size();
  }
  const TenantQuota& QuotaOf(uint32_t tenant) const;
  uint64_t DeadlineOf(const Request& r) const {
    return r.arrive_cycles + tiers_[r.tier].slo_cycles;
  }
  bool IsChaosTenant(uint32_t tenant) const;
  // Effective in-flight cap for the tenant right now (half-open probes
  // squeeze it to one). 0 = unlimited.
  uint32_t InflightCapOf(uint32_t tenant, const TenantState& ts) const;
  // Index of the first request in ts.q dispatchable at `now` (eligible
  // and, when deadline shedding is on, not already expired), or -1.
  int FirstDispatchable(const TenantState& ts, uint64_t now) const;

  runtime::Runtime* rt_;
  ServeConfig cfg_;
  runtime::SpawnPool* pool_ = nullptr;          // warm mode
  const elf::ElfImage* cold_image_ = nullptr;   // cold mode
  std::vector<QosTier> tiers_;
  TrafficGen traffic_;
  fuzz::Rng retry_rng_;
  std::map<uint32_t, TenantState> tenant_qs_;   // ordered: deterministic
  uint64_t queued_total_ = 0;
  uint64_t ewma_x256_ = 0;        // queue-depth EWMA, 8.8 fixed point
  uint32_t degrade_level_ = 0;
  std::map<int, Inflight> inflight_;            // pid -> request
  ServeReport report_;
  bool started_ = false;
  bool finalized_ = false;
};

}  // namespace lfi::serve

#endif  // LFI_SERVE_SERVE_H_
