#include "serve/serve.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "chaos/chaos.h"

namespace lfi::serve {

namespace {

constexpr uint64_t kNever = ~uint64_t{0};
// Clock advance used when nothing is runnable but work is pending, so
// deadlines (and with them deadline shedding) always make progress.
constexpr uint64_t kIdleStepCycles = 1000;
// Domain separator for the retry-jitter stream: independent of the
// traffic arrival stream so adding retries never perturbs arrival times.
constexpr uint64_t kRetrySeedDomain = 0x52455452;  // "RETR"

}  // namespace

const char* TrafficKindName(TrafficKind k) {
  switch (k) {
    case TrafficKind::kPoisson: return "poisson";
    case TrafficKind::kBursty: return "bursty";
    case TrafficKind::kClosed: return "closed";
  }
  return "?";
}

bool TrafficKindByName(const std::string& name, TrafficKind* out) {
  if (name == "poisson") { *out = TrafficKind::kPoisson; return true; }
  if (name == "bursty") { *out = TrafficKind::kBursty; return true; }
  if (name == "closed") { *out = TrafficKind::kClosed; return true; }
  return false;
}

const char* BreakerStateName(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

// ---- TrafficGen ----

TrafficGen::TrafficGen(const TrafficConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
  for (uint32_t w : cfg_.tenant_weights) weight_total_ += w;
  switch (cfg_.kind) {
    case TrafficKind::kPoisson:
      next_arrival_ = ExpGap(1000000 / std::max<uint64_t>(
                                           1, cfg_.rate_per_mcycle));
      break;
    case TrafficKind::kBursty:
      next_arrival_ = cfg_.burst_period_cycles;
      burst_left_ = cfg_.burst_size;
      break;
    case TrafficKind::kClosed:
      client_next_.resize(std::max<uint32_t>(1, cfg_.closed_clients));
      // Staggered starts: all clients issuing at cycle 0 would be a
      // burst, not a steady closed loop.
      for (auto& t : client_next_) t = rng_.Below(cfg_.think_cycles + 1);
      break;
  }
}

uint64_t TrafficGen::ExpGap(uint64_t mean_cycles) {
  // Inverse-CDF exponential sampling. The 53-bit mantissa draw is biased
  // away from zero so log() never sees it.
  const double u =
      static_cast<double>((rng_.Next() >> 11) + 1) / 9007199254740992.0;
  const double gap = -static_cast<double>(mean_cycles) * std::log(u);
  if (gap < 1.0) return 1;
  return static_cast<uint64_t>(gap);
}

uint32_t TrafficGen::PickTenant() {
  const uint32_t tenants = std::max<uint32_t>(1, cfg_.tenants);
  if (weight_total_ == 0 || cfg_.tenant_weights.size() != tenants) {
    return static_cast<uint32_t>(rng_.Below(tenants));
  }
  uint64_t draw = rng_.Below(weight_total_);
  for (uint32_t t = 0; t < tenants; ++t) {
    const uint64_t w = cfg_.tenant_weights[t];
    if (draw < w) return t;
    draw -= w;
  }
  return tenants - 1;  // unreachable: draw < weight_total_
}

void TrafficGen::ScheduleNextOpenLoop() {
  switch (cfg_.kind) {
    case TrafficKind::kPoisson:
      next_arrival_ += ExpGap(1000000 / std::max<uint64_t>(
                                            1, cfg_.rate_per_mcycle));
      break;
    case TrafficKind::kBursty:
      if (burst_left_ == 0) {
        next_arrival_ += cfg_.burst_period_cycles;
        burst_left_ = cfg_.burst_size;
      }
      break;
    case TrafficKind::kClosed:
      break;
  }
}

uint64_t TrafficGen::NextArrival() const {
  if (Drained()) return kNever;
  if (cfg_.kind == TrafficKind::kClosed) {
    uint64_t soonest = kNever;
    for (uint64_t t : client_next_) soonest = std::min(soonest, t);
    return soonest;
  }
  return next_arrival_;
}

bool TrafficGen::Pop(uint64_t now, Request* out) {
  if (Drained()) return false;
  if (cfg_.kind == TrafficKind::kClosed) {
    uint32_t best = 0;
    uint64_t best_t = kNever;
    for (uint32_t c = 0; c < client_next_.size(); ++c) {
      if (client_next_[c] < best_t) { best_t = client_next_[c]; best = c; }
    }
    if (best_t == kNever || best_t > now) return false;
    client_next_[best] = kNever;  // in flight until OnComplete
    out->id = issued_++;
    out->client = best;
    out->tenant = best % std::max<uint32_t>(1, cfg_.tenants);
    out->arrive_cycles = best_t;
    return true;
  }
  if (next_arrival_ > now) return false;
  out->id = issued_++;
  out->client = 0;
  out->tenant = PickTenant();
  out->arrive_cycles = next_arrival_;
  if (cfg_.kind == TrafficKind::kBursty && burst_left_ > 0) --burst_left_;
  ScheduleNextOpenLoop();
  return true;
}

void TrafficGen::OnComplete(const Request& r, uint64_t now) {
  if (cfg_.kind != TrafficKind::kClosed || Drained()) return;
  if (r.client < client_next_.size() && client_next_[r.client] == kNever) {
    client_next_[r.client] = now + cfg_.think_cycles;
  }
}

// ---- ValidateServeConfig ----

static_assert(kRetryJitterPercent < 100, "retry jitter must be < 100%");
static_assert(kDegradeRecoverPercent >= 1 && kDegradeRecoverPercent <= 100,
              "degrade recovery must be in [1,100]%");

bool ValidateServeConfig(const ServeConfig& cfg, std::string* err) {
  auto fail = [err](const std::string& m) {
    if (err != nullptr) *err = m;
    return false;
  };
  const TrafficConfig& t = cfg.traffic;
  if (t.requests == 0) return fail("traffic.requests must be > 0");
  if (t.tenants == 0) return fail("traffic.tenants must be > 0");
  if (t.kind == TrafficKind::kPoisson && t.rate_per_mcycle == 0) {
    return fail("poisson arrivals need traffic.rate_per_mcycle > 0");
  }
  if (t.kind == TrafficKind::kBursty &&
      (t.burst_size == 0 || t.burst_period_cycles == 0)) {
    return fail("bursty arrivals need burst_size and burst_period_cycles > 0");
  }
  if (t.kind == TrafficKind::kClosed && t.closed_clients == 0) {
    return fail("closed-loop arrivals need traffic.closed_clients > 0");
  }
  if (!t.tenant_weights.empty()) {
    if (t.tenant_weights.size() != t.tenants) {
      return fail("traffic.tenant_weights must have one entry per tenant");
    }
    uint64_t total = 0;
    for (uint32_t w : t.tenant_weights) total += w;
    if (total == 0) return fail("traffic.tenant_weights must not be all zero");
  }
  if (cfg.admission.max_queue_depth == 0) {
    return fail("admission.max_queue_depth must be > 0");
  }
  if (cfg.max_concurrency == 0) return fail("max_concurrency must be > 0");
  if (cfg.pool_min > cfg.pool_max) return fail("pool_min must be <= pool_max");
  if (cfg.slice_insts == 0) return fail("slice_insts must be > 0");
  if (cfg.max_steps == 0) return fail("max_steps must be > 0");
  for (const QosTier& tier : cfg.tiers) {
    if (tier.slo_cycles == 0) {
      return fail("tier '" + tier.name +
                  "' slo_cycles must be > 0 (deadlines drive shedding and "
                  "retry give-up)");
    }
  }
  auto check_quota = [&](const TenantQuota& q, const std::string& who,
                         std::string* msg) {
    if (q.weight == 0) { *msg = who + " weight must be > 0"; return false; }
    if (q.max_queued > cfg.admission.max_queue_depth) {
      *msg = who + " max_queued exceeds admission.max_queue_depth";
      return false;
    }
    if (q.max_inflight > cfg.max_concurrency) {
      *msg = who + " max_inflight exceeds max_concurrency";
      return false;
    }
    return true;
  };
  std::string msg;
  if (!check_quota(cfg.default_quota, "default_quota", &msg)) return fail(msg);
  for (const auto& [tenant, q] : cfg.quotas) {
    if (!check_quota(q, "quota for tenant " + std::to_string(tenant), &msg)) {
      return fail(msg);
    }
  }
  if (cfg.retry.budget > 0) {
    if (cfg.retry.backoff_cap_cycles == 0) {
      return fail("retry.backoff_cap_cycles must be > 0");
    }
    if (cfg.retry.backoff_base_cycles > cfg.retry.backoff_cap_cycles) {
      return fail("retry.backoff_base_cycles exceeds backoff_cap_cycles");
    }
  }
  if (cfg.breaker.failure_threshold > 0) {
    if (cfg.breaker.open_cycles == 0) {
      return fail("breaker.open_cycles must be > 0");
    }
    if (cfg.breaker.close_successes == 0) {
      return fail("breaker.close_successes must be > 0");
    }
  }
  if (cfg.degrade.enabled) {
    if (cfg.degrade.ewma_shift == 0 || cfg.degrade.ewma_shift > 16) {
      return fail("degrade.ewma_shift must be in [1,16]");
    }
    if (cfg.degrade.shed_tier_depth == 0 ||
        cfg.degrade.shed_tier_depth >= cfg.degrade.no_retry_depth ||
        cfg.degrade.no_retry_depth >= cfg.degrade.fast_fail_depth) {
      return fail("degrade ladder thresholds must be strictly increasing "
                  "(0 < shed_tier_depth < no_retry_depth < fast_fail_depth)");
    }
  }
  return true;
}

// ---- ServeReport ----

double ServeReport::ThroughputPerMcycle() const {
  const uint64_t span = makespan();
  if (span == 0) return 0.0;
  return static_cast<double>(completed) * 1e6 / static_cast<double>(span);
}

uint64_t PercentileOf(const std::vector<uint64_t>& sample, double p) {
  if (sample.empty()) return 0;
  std::vector<uint64_t> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  size_t idx = rank <= 1.0 ? 0 : static_cast<size_t>(std::ceil(rank)) - 1;
  idx = std::min(idx, sorted.size() - 1);
  return sorted[idx];
}

uint64_t ServeReport::LatencyPercentile(double p) const {
  return PercentileOf(latencies, p);
}

std::string ServeReport::Format() const {
  char line[512];
  std::string out;
  snprintf(line, sizeof(line),
           "serve: offered=%llu completed=%llu failed=%llu shed_queue=%llu "
           "shed_deadline=%llu dispatch_failures=%llu slo_violations=%llu\n",
           (unsigned long long)offered, (unsigned long long)completed,
           (unsigned long long)failed, (unsigned long long)shed_queue,
           (unsigned long long)shed_deadline,
           (unsigned long long)dispatch_failures,
           (unsigned long long)slo_violations);
  out += line;
  snprintf(line, sizeof(line),
           "resilience: shed_quota=%llu shed_breaker=%llu shed_degrade=%llu "
           "retried=%llu breaker_trips=%llu breaker_recoveries=%llu "
           "degrade_transitions=%llu max_degrade_level=%u\n",
           (unsigned long long)shed_quota, (unsigned long long)shed_breaker,
           (unsigned long long)shed_degrade, (unsigned long long)retried,
           (unsigned long long)breaker_trips,
           (unsigned long long)breaker_recoveries,
           (unsigned long long)degrade_transitions, max_degrade_level);
  out += line;
  snprintf(line, sizeof(line),
           "cycles: start=%llu end=%llu makespan=%llu steps=%llu aborted=%d\n",
           (unsigned long long)start_cycles, (unsigned long long)end_cycles,
           (unsigned long long)makespan(), (unsigned long long)steps,
           aborted ? 1 : 0);
  out += line;
  uint64_t mean = 0;
  for (uint64_t l : latencies) mean += l;
  if (!latencies.empty()) mean /= latencies.size();
  snprintf(line, sizeof(line),
           "latency: p50=%llu p99=%llu p999=%llu mean=%llu n=%llu\n",
           (unsigned long long)LatencyPercentile(50),
           (unsigned long long)LatencyPercentile(99),
           (unsigned long long)LatencyPercentile(99.9),
           (unsigned long long)mean, (unsigned long long)latencies.size());
  out += line;
  snprintf(line, sizeof(line),
           "pool: warm_hits=%llu cold_spawns=%llu dead_parked=%llu "
           "recycles=%llu evictions=%llu\n",
           (unsigned long long)warm_hits, (unsigned long long)cold_spawns,
           (unsigned long long)dead_parked, (unsigned long long)recycles,
           (unsigned long long)evictions);
  out += line;
  for (const auto& [tenant, s] : tenants) {
    snprintf(line, sizeof(line),
             "tenant %u: offered=%llu completed=%llu failed=%llu shed=%llu "
             "shed_quota=%llu shed_breaker=%llu retried=%llu "
             "breaker_trips=%llu faults=%llu injected=%llu "
             "slo_violations=%llu breaker=%s p50=%llu p99=%llu\n",
             tenant, (unsigned long long)s.offered,
             (unsigned long long)s.completed, (unsigned long long)s.failed,
             (unsigned long long)s.shed, (unsigned long long)s.shed_quota,
             (unsigned long long)s.shed_breaker,
             (unsigned long long)s.retried,
             (unsigned long long)s.breaker_trips,
             (unsigned long long)s.faults,
             (unsigned long long)s.injected_faults,
             (unsigned long long)s.slo_violations,
             BreakerStateName(s.breaker_state),
             (unsigned long long)PercentileOf(s.latencies, 50),
             (unsigned long long)PercentileOf(s.latencies, 99));
    out += line;
  }
  snprintf(line, sizeof(line), "outcome_hash=%016llx\n",
           (unsigned long long)outcome_hash);
  out += line;
  return out;
}

// ---- Server ----

Server::Server(runtime::Runtime* rt, ServeConfig cfg,
               runtime::SpawnPool* pool)
    : rt_(rt), cfg_(std::move(cfg)), pool_(pool), tiers_(cfg_.tiers),
      traffic_(cfg_.traffic),
      retry_rng_(fuzz::DeriveSeed(cfg_.traffic.seed, kRetrySeedDomain)) {
  if (tiers_.empty()) tiers_.push_back(QosTier{});
  if (cfg_.chaos != nullptr && !cfg_.chaos_tenants.empty()) {
    cfg_.chaos->PinVictims();
  }
}

Server::Server(runtime::Runtime* rt, ServeConfig cfg,
               const elf::ElfImage* cold_image)
    : rt_(rt), cfg_(std::move(cfg)), cold_image_(cold_image),
      tiers_(cfg_.tiers), traffic_(cfg_.traffic),
      retry_rng_(fuzz::DeriveSeed(cfg_.traffic.seed, kRetrySeedDomain)) {
  if (tiers_.empty()) tiers_.push_back(QosTier{});
  if (cfg_.chaos != nullptr && !cfg_.chaos_tenants.empty()) {
    cfg_.chaos->PinVictims();
  }
}

bool Server::Done() const {
  return traffic_.Drained() && queued_total_ == 0 && inflight_.empty();
}

const TenantQuota& Server::QuotaOf(uint32_t tenant) const {
  auto it = cfg_.quotas.find(tenant);
  return it != cfg_.quotas.end() ? it->second : cfg_.default_quota;
}

bool Server::IsChaosTenant(uint32_t tenant) const {
  for (uint32_t t : cfg_.chaos_tenants) {
    if (t == tenant) return true;
  }
  return false;
}

BreakerState Server::breaker_state(uint32_t tenant) const {
  auto it = tenant_qs_.find(tenant);
  return it != tenant_qs_.end() ? it->second.breaker : BreakerState::kClosed;
}

uint32_t Server::InflightCapOf(uint32_t tenant, const TenantState& ts) const {
  uint32_t cap = QuotaOf(tenant).max_inflight;
  if (ts.breaker == BreakerState::kHalfOpen) {
    // Half-open: one probe at a time, regardless of quota.
    cap = cap == 0 ? 1 : std::min<uint32_t>(cap, 1);
  }
  return cap;
}

int Server::FirstDispatchable(const TenantState& ts, uint64_t now) const {
  for (size_t i = 0; i < ts.q.size(); ++i) {
    if (ts.q[i].eligible_cycles <= now) return static_cast<int>(i);
  }
  return -1;
}

void Server::HashOutcome(uint64_t id, uint64_t tenant, uint64_t pid,
                         uint64_t latency, uint64_t result) {
  const uint64_t vals[] = {id, tenant, pid, latency, result};
  for (uint64_t v : vals) {
    for (int b = 0; b < 8; ++b) {
      report_.outcome_hash ^= (v >> (b * 8)) & 0xff;
      report_.outcome_hash *= 1099511628211ull;
    }
  }
}

void Server::NoteBreaker(uint32_t tenant, TenantState& ts, BreakerState next,
                         uint64_t now) {
  if (ts.breaker == next) return;
  const BreakerState prev = ts.breaker;
  ts.breaker = next;
  switch (next) {
    case BreakerState::kOpen:
      ts.open_until = now + cfg_.breaker.open_cycles;
      ts.half_open_ok = 0;
      ++report_.breaker_trips;
      ++report_.tenants[tenant].breaker_trips;
      break;
    case BreakerState::kHalfOpen:
      ts.half_open_ok = 0;
      break;
    case BreakerState::kClosed:
      ts.consec_failures = 0;
      ts.half_open_ok = 0;
      if (prev == BreakerState::kHalfOpen) ++report_.breaker_recoveries;
      break;
  }
  if (auto* sink = rt_->trace_sink()) {
    sink->EmitInstant(trace::EventKind::kServeBreaker, 0, now, tenant,
                      static_cast<uint64_t>(next));
  }
}

void Server::Shed(const Request& r, ShedKind kind, uint64_t now) {
  TenantStats& ts = report_.tenants[r.tenant];
  ++ts.shed;
  uint64_t result = 0;
  uint64_t trace_arg = 0;
  bool emit = true;
  switch (kind) {
    case ShedKind::kQueue:
      ++report_.shed_queue; result = 2; trace_arg = 0; break;
    case ShedKind::kDeadline:
      ++report_.shed_deadline; result = 3; trace_arg = 1; break;
    case ShedKind::kDispatch:
      // Slot exhaustion, not an admission decision: counted separately
      // and (as before the resilience layer) not trace-evented.
      ++report_.dispatch_failures; result = 4; emit = false; break;
    case ShedKind::kQuota:
      ++report_.shed_quota; ++ts.shed_quota; result = 5; trace_arg = 2; break;
    case ShedKind::kBreaker:
      ++report_.shed_breaker; ++ts.shed_breaker; result = 6; trace_arg = 3;
      break;
    case ShedKind::kDegrade:
      ++report_.shed_degrade; result = 7; trace_arg = 4; break;
  }
  HashOutcome(r.id, r.tenant, 0, 0, result);
  if (emit) {
    if (auto* sink = rt_->trace_sink()) {
      sink->EmitInstant(trace::EventKind::kServeShed, 0, now, r.id, trace_arg);
    }
  }
  traffic_.OnComplete(r, now);
}

void Server::AdmitArrivals(uint64_t now) {
  Request r;
  while (traffic_.Pop(now, &r)) {
    r.tier = TierOf(r.tenant);
    r.eligible_cycles = r.arrive_cycles;
    ++report_.offered;
    ++report_.tenants[r.tenant].offered;
    TenantState& ts = tenant_qs_[r.tenant];
    // A cooled-down open breaker flips to half-open on the next arrival:
    // that arrival is admitted and becomes the probe.
    if (ts.breaker == BreakerState::kOpen && now >= ts.open_until) {
      NoteBreaker(r.tenant, ts, BreakerState::kHalfOpen, now);
    }
    if (degrade_level_ >= 3) {
      Shed(r, ShedKind::kDegrade, now);
      continue;
    }
    if (ts.breaker == BreakerState::kOpen) {
      Shed(r, ShedKind::kBreaker, now);
      continue;
    }
    if (degrade_level_ >= 1 && tiers_.size() > 1 &&
        r.tier == static_cast<uint32_t>(tiers_.size()) - 1) {
      Shed(r, ShedKind::kDegrade, now);
      continue;
    }
    const TenantQuota& quota = QuotaOf(r.tenant);
    if (quota.max_queued > 0 && ts.q.size() >= quota.max_queued) {
      Shed(r, ShedKind::kQuota, now);
      continue;
    }
    if (queued_total_ >= cfg_.admission.max_queue_depth) {
      Shed(r, ShedKind::kQueue, now);
      continue;
    }
    ts.q.push_back(r);
    ++queued_total_;
  }
}

void Server::UpdateDegradation(uint64_t now) {
  // Fixed-point (8.8) EWMA of queue depth: integer arithmetic only, so
  // the signal — and everything keyed off it — replays byte-identically.
  const int64_t depth_x256 = static_cast<int64_t>(queued_total_) << 8;
  const int64_t delta = depth_x256 - static_cast<int64_t>(ewma_x256_);
  ewma_x256_ = static_cast<uint64_t>(
      static_cast<int64_t>(ewma_x256_) +
      delta / (int64_t{1} << cfg_.degrade.ewma_shift));
  if (!cfg_.degrade.enabled) return;
  auto threshold_x256 = [&](uint32_t level) -> uint64_t {
    switch (level) {
      case 1: return cfg_.degrade.shed_tier_depth << 8;
      case 2: return cfg_.degrade.no_retry_depth << 8;
      default: return cfg_.degrade.fast_fail_depth << 8;
    }
  };
  uint32_t level = degrade_level_;
  while (level < 3 && ewma_x256_ >= threshold_x256(level + 1)) ++level;
  // Step back down only once the EWMA has fallen well below the level's
  // entry threshold (hysteresis, so an oscillating backlog cannot flap).
  while (level > 0 && ewma_x256_ < threshold_x256(level) *
                                       kDegradeRecoverPercent / 100) {
    --level;
  }
  if (level != degrade_level_) {
    degrade_level_ = level;
    ++report_.degrade_transitions;
    report_.max_degrade_level = std::max(report_.max_degrade_level, level);
    if (auto* sink = rt_->trace_sink()) {
      sink->EmitInstant(trace::EventKind::kServeDegrade, 0, now, level,
                        ewma_x256_ >> 8);
    }
  }
}

void Server::ShedExpired(uint64_t now) {
  if (!cfg_.admission.shed_on_deadline) return;
  for (auto& [tenant, ts] : tenant_qs_) {
    std::deque<Request> keep;
    for (const Request& r : ts.q) {
      if (DeadlineExpired(now, DeadlineOf(r))) {
        Shed(r, ShedKind::kDeadline, now);
        --queued_total_;
      } else {
        keep.push_back(r);
      }
    }
    ts.q.swap(keep);
  }
}

bool Server::DispatchOne(const Request& r, TenantState& ts, uint64_t now) {
  int pid = 0;
  bool warm = false;
  if (pool_ != nullptr) {
    const uint64_t cold_before = pool_->cold_spawns();
    auto res = pool_->Take();
    if (!res) {
      Shed(r, ShedKind::kDispatch, now);
      return false;
    }
    pid = *res;
    warm = pool_->cold_spawns() == cold_before;
    // The pool ran dry: this instantiation happened on the request
    // path, so its modeled cost is real latency.
    if (!warm) {
      rt_->machine().timing().ChargeFlat(rt_->last_instantiation().cycles);
    }
  } else {
    auto res = rt_->LoadImage(*cold_image_);
    if (!res) {
      Shed(r, ShedKind::kDispatch, now);
      return false;
    }
    pid = *res;
    // Cold serving pays the full ELF-load cost per request.
    rt_->machine().timing().ChargeFlat(rt_->last_instantiation().cycles);
  }
  rt_->set_policy(pid, tiers_[r.tier].policy);
  // Warm sandboxes are retained at exit so they can be recycled; cold
  // or retire-after-one-request sandboxes tear down (their slot frees
  // as soon as they exit).
  rt_->set_retain_on_exit(pid, pool_ != nullptr && cfg_.recycle_sandboxes);
  // Chaos victimhood tracks the tenant binding, not the pid: marked here,
  // unmarked at completion, so a recycled sandbox serving a healthy
  // tenant next is no longer a target.
  if (cfg_.chaos != nullptr && IsChaosTenant(r.tenant)) {
    cfg_.chaos->MarkVictim(pid);
  }
  if (cfg_.on_dispatch) cfg_.on_dispatch(pid, r);
  if (auto* sink = rt_->trace_sink()) {
    sink->EmitInstant(trace::EventKind::kServeDispatch, pid, now, r.id,
                      warm ? 1 : 0);
  }
  inflight_[pid] = Inflight{r, now, ts.breaker == BreakerState::kHalfOpen};
  ++ts.inflight;
  return true;
}

void Server::Dispatch(uint64_t now) {
  // Deficit round robin across tenant queues: each pass grants every
  // tenant with dispatchable work `weight` credits; a credit dispatches
  // one request. A flooding tenant exhausts its credits and waits for the
  // next pass while lighter tenants drain — weighted fair share without
  // starving anyone.
  bool progress = true;
  while (progress && inflight_.size() < cfg_.max_concurrency &&
         queued_total_ > 0) {
    progress = false;
    for (auto& [tenant, ts] : tenant_qs_) {
      if (inflight_.size() >= cfg_.max_concurrency) break;
      const uint32_t weight = QuotaOf(tenant).weight;
      const uint32_t cap = InflightCapOf(tenant, ts);
      if (FirstDispatchable(ts, now) < 0 ||
          (cap != 0 && ts.inflight >= cap)) {
        // Nothing dispatchable this pass: credits do not accumulate
        // while a tenant has no runnable work.
        ts.deficit = 0;
        continue;
      }
      ts.deficit += weight;
      while (ts.deficit > 0 && inflight_.size() < cfg_.max_concurrency) {
        const uint32_t cap_now = InflightCapOf(tenant, ts);
        if (cap_now != 0 && ts.inflight >= cap_now) break;
        const int idx = FirstDispatchable(ts, now);
        if (idx < 0) break;
        Request r = ts.q[idx];
        ts.q.erase(ts.q.begin() + idx);
        --queued_total_;
        --ts.deficit;
        progress = true;  // a request was consumed, even on dispatch failure
        DispatchOne(r, ts, now);
      }
      if (ts.deficit > weight) ts.deficit = weight;
    }
  }
}

void Server::Advance() {
  const uint64_t before = rt_->Cycles();
  if (!inflight_.empty()) {
    rt_->RunUntilIdle(cfg_.slice_insts);
    if (rt_->Cycles() == before) {
      // In-flight work exists but nothing ran (e.g. every in-flight
      // sandbox is blocked forever). Let time pass so deadline shedding
      // and the Run() backstop can resolve it.
      rt_->machine().timing().ChargeFlat(kIdleStepCycles);
    }
    return;
  }
  // Idle: fast-forward to the next wake-up — the next arrival or the
  // earliest retry-backoff expiry — instead of spinning.
  uint64_t wake = traffic_.NextArrival();
  for (const auto& [tenant, ts] : tenant_qs_) {
    for (const Request& r : ts.q) wake = std::min(wake, r.eligible_cycles);
  }
  if (wake != kNever && wake > before) {
    rt_->machine().timing().ChargeFlat(wake - before);
  } else if (queued_total_ > 0) {
    rt_->machine().timing().ChargeFlat(kIdleStepCycles);
  }
}

uint64_t Server::BackoffFor(uint32_t attempt) {
  const RetryConfig& rc = cfg_.retry;
  uint64_t backoff = rc.backoff_base_cycles;
  for (uint32_t i = 0; i < attempt && backoff < rc.backoff_cap_cycles; ++i) {
    backoff <<= 1;
  }
  backoff = std::min(backoff, rc.backoff_cap_cycles);
  // +/- kRetryJitterPercent, drawn from the dedicated retry stream.
  const uint64_t factor = 100 - kRetryJitterPercent +
                          retry_rng_.Below(2 * kRetryJitterPercent + 1);
  backoff = backoff * factor / 100;
  return std::max<uint64_t>(backoff, 1);
}

void Server::FinishRequest(const Inflight& inf, int pid) {
  const uint64_t now = rt_->Cycles();
  const runtime::Proc* p = rt_->proc(pid);
  const Request& r = inf.req;
  const bool ok = p != nullptr &&
                  p->exit_kind == runtime::ExitKind::kExited &&
                  p->exit_status == 0;
  const bool killed = p != nullptr &&
                      p->exit_kind == runtime::ExitKind::kKilled;
  const uint64_t latency = now - r.arrive_cycles;
  TenantStats& stats = report_.tenants[r.tenant];
  TenantState& ts = tenant_qs_[r.tenant];
  if (ts.inflight > 0) --ts.inflight;
  // The tenant binding ends here: a recycled sandbox must not carry
  // victimhood into its next request.
  if (cfg_.chaos != nullptr && IsChaosTenant(r.tenant)) {
    cfg_.chaos->UnmarkVictim(pid);
  }
  bool final_outcome = true;
  if (ok) {
    if (ts.breaker == BreakerState::kHalfOpen &&
        ++ts.half_open_ok >= cfg_.breaker.close_successes) {
      NoteBreaker(r.tenant, ts, BreakerState::kClosed, now);
    }
    ts.consec_failures = 0;
    ++report_.completed;
    ++stats.completed;
    report_.latencies.push_back(latency);
    stats.latencies.push_back(latency);
    if (SloViolated(latency, tiers_[r.tier].slo_cycles)) {
      ++report_.slo_violations;
      ++stats.slo_violations;
    }
    HashOutcome(r.id, r.tenant, static_cast<uint64_t>(pid), latency, 0);
  } else {
    if (killed) {
      ++stats.faults;
      if (p->fault_injected) ++stats.injected_faults;
    }
    if (cfg_.breaker.failure_threshold > 0) {
      if (ts.breaker == BreakerState::kHalfOpen) {
        // Probe failed: straight back to open for another cool-down.
        NoteBreaker(r.tenant, ts, BreakerState::kOpen, now);
      } else if (ts.breaker == BreakerState::kClosed &&
                 ++ts.consec_failures >= cfg_.breaker.failure_threshold) {
        NoteBreaker(r.tenant, ts, BreakerState::kOpen, now);
      }
    } else {
      ++ts.consec_failures;
    }
    // Deadline-aware retry: re-enqueue with capped, jittered exponential
    // backoff — unless the budget is spent, the ladder says no, the
    // breaker is not closed, or the backed-off attempt could not finish
    // in time anyway.
    const bool may_retry = cfg_.retry.budget > 0 &&
                           r.attempt < cfg_.retry.budget &&
                           degrade_level_ < 2 &&
                           ts.breaker == BreakerState::kClosed;
    if (may_retry) {
      const uint64_t backoff = BackoffFor(r.attempt);
      if (!DeadlineExpired(now + backoff, DeadlineOf(r))) {
        Request nr = r;
        ++nr.attempt;
        nr.eligible_cycles = now + backoff;
        ts.q.push_back(nr);
        ++queued_total_;
        ++report_.retried;
        ++stats.retried;
        HashOutcome(r.id, r.tenant, static_cast<uint64_t>(pid), nr.attempt, 8);
        if (auto* sink = rt_->trace_sink()) {
          sink->EmitInstant(trace::EventKind::kServeRetry, 0, now, r.id,
                            backoff);
        }
        // Not a final outcome: no failure accounting, and the closed
        // loop keeps the client waiting on this request.
        final_outcome = false;
      }
    }
    if (final_outcome) {
      ++report_.failed;
      ++stats.failed;
      HashOutcome(r.id, r.tenant, static_cast<uint64_t>(pid), latency, 1);
    }
  }
  if (final_outcome) {
    if (auto* sink = rt_->trace_sink()) {
      sink->EmitInstant(trace::EventKind::kServeComplete, pid, now, r.id,
                        latency);
    }
    traffic_.OnComplete(r, now);
  }
  // Healthy exits recycle (same pid and slot, dirtied pages only); kills,
  // restore failures, and retire-after-one-request mode tear the sandbox
  // down — the sizer prewarms a replacement. Cold-mode sandboxes already
  // tore themselves down at exit (no retain, no parent).
  const bool recycled = pool_ != nullptr && cfg_.recycle_sandboxes && ok &&
                        pool_->Recycle(pid);
  if (!recycled && p != nullptr &&
      p->state == runtime::ProcState::kZombie) {
    (void)rt_->Kill(pid, "serve: retire");
  }
}

void Server::Reap() {
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    const runtime::Proc* p = rt_->proc(it->first);
    const bool finished =
        p == nullptr || p->state == runtime::ProcState::kZombie ||
        p->state == runtime::ProcState::kDead;
    if (finished) {
      FinishRequest(it->second, it->first);
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::ResizePool() {
  if (pool_ == nullptr) return;
  // Size toward the queue-depth EWMA (same signal as the degradation
  // ladder): predictive warmth that does not chase every transient spike
  // the way raw backlog-following did. Reconcile tops up fully below
  // target and drains one eviction per step above it.
  const uint64_t ewma_depth = (ewma_x256_ + 128) >> 8;
  const uint64_t target = std::min<uint64_t>(
      cfg_.pool_max,
      std::max<uint64_t>(cfg_.pool_min, cfg_.pool_min + ewma_depth));
  pool_->Reconcile(static_cast<int>(target));
}

void Server::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  // Fold the per-tenant breakdown into the outcome hash: replay
  // byte-equality then covers every counter the report prints.
  for (auto& [tenant, stats] : report_.tenants) {
    auto it = tenant_qs_.find(tenant);
    if (it != tenant_qs_.end()) stats.breaker_state = it->second.breaker;
    HashOutcome(tenant, stats.offered, stats.completed, stats.failed,
                stats.shed);
    HashOutcome(stats.retried, stats.shed_quota, stats.shed_breaker,
                stats.slo_violations,
                static_cast<uint64_t>(stats.breaker_state));
    HashOutcome(PercentileOf(stats.latencies, 50),
                PercentileOf(stats.latencies, 99), stats.faults,
                stats.injected_faults, stats.breaker_trips);
  }
}

bool Server::Step() {
  if (!started_) {
    started_ = true;
    report_.start_cycles = rt_->Cycles();
  }
  const uint64_t now = rt_->Cycles();
  AdmitArrivals(now);
  UpdateDegradation(now);
  ShedExpired(now);
  Dispatch(now);
  Advance();
  Reap();
  ResizePool();
  ++report_.steps;
  if (Done()) {
    report_.end_cycles = rt_->Cycles();
    if (pool_ != nullptr) {
      report_.warm_hits = pool_->warm_hits();
      report_.cold_spawns = pool_->cold_spawns();
      report_.dead_parked = pool_->dead_parked();
      report_.recycles = pool_->recycles();
      report_.evictions = pool_->evictions();
    }
    Finalize();
    return false;
  }
  return true;
}

const ServeReport& Server::Run() {
  while (Step()) {
    if (report_.steps >= cfg_.max_steps) {
      report_.aborted = true;
      report_.end_cycles = rt_->Cycles();
      if (pool_ != nullptr) {
        report_.warm_hits = pool_->warm_hits();
        report_.cold_spawns = pool_->cold_spawns();
        report_.dead_parked = pool_->dead_parked();
        report_.recycles = pool_->recycles();
        report_.evictions = pool_->evictions();
      }
      Finalize();
      break;
    }
  }
  return report_;
}

}  // namespace lfi::serve
