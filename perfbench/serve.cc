// serve: open-loop Poisson arrivals on the simulated clock, from 4
// tenants, into a warm SpawnPool that recycles sandboxes, at three fixed
// offered rates: below, near and above the knee. The handler has a large
// code footprint (32 KB of text; each request decodes about 1000 blocks
// again), does CoreMark-like compute, dirties a few data pages, writes a
// reply and exits 0 only if its checksum matches the reference status
// taken from a native run at set-up. Latency runs from each request's due
// time.
#include <chrono>

#include "common.h"
#include "elf/elf.h"
#include "fuzz/rng.h"
#include "runtime/spawn_pool.h"
#include "serve/serve.h"

namespace perfbench {
namespace {

using lfi::trace::Counter;

// Handler shape: compute-loop iterations and straight-line blocks.
constexpr int kLoopIters = 800;
constexpr int kBlocks = 1000;

// Offered rates (requests per 1M simulated cycles) below, near and above
// the knee of this handler, the requests generated at each, and the tier
// SLO the p99 is judged against.
constexpr uint64_t kRates[3] = {60, 90, 160};
constexpr uint64_t kRequests[3] = {300, 1000, 300};
constexpr int kNearKnee = 1;
constexpr uint64_t kSloCycles = 250000;

// The handler's source. With `expected` < 0 it exits with its checksum
// (the reference build); otherwise it exits 0 iff the checksum matches.
std::string HandlerSource(int expected) {
  std::string s =
      ".text\n.globl _start\n_start:\n"
      "adrp x19, state\nadd x19, x19, :lo12:state\n"
      "adrp x25, state2\nadd x25, x25, :lo12:state2\n"
      "movz x20, #4660\nmovz x9, #" + std::to_string(kLoopIters) + "\n"
      ".Lloop:\n"
      "and x10, x9, #255\n"
      "ldr x11, [x19, x10, lsl #3]\n"
      "eor x20, x20, x11\n"
      "eor x20, x20, x20, lsl #13\n"
      "eor x20, x20, x20, lsr #7\n"
      "add x20, x20, x9\n"
      "sub x9, x9, #1\n"
      "cbnz x9, .Lloop\n";
  for (int k = 0; k < kBlocks; ++k) {
    const std::string n = std::to_string(k);
    const char* base = k % 3 == 2 ? "x25" : "x19";
    const int off = (k * 264 % 4096) * 8;
    s += ".Lb" + n + ":\n";
    s += "ldr x11, [" + std::string(base) + ", #" + std::to_string(off) +
         "]\n";
    s += "add x20, x20, x11\n";
    s += "eor x20, x20, x20, lsr #" + std::to_string(k % 29 + 3) + "\n";
    s += "tbz x20, #" + std::to_string(k % 61) + ", .Ls" + n + "\n";
    s += "add x20, x20, #" + std::to_string(k % 4096) + "\n";
    s += ".Ls" + n + ":\n";
    s += "str x20, [" + std::string(base) + ", #" +
         std::to_string((off + 4096) % 32768) + "]\n";
  }
  s += "and x0, x20, #127\n";
  if (expected >= 0) {
    s += "cmp x0, #" + std::to_string(expected) + "\n" +
         "b.ne .Lbad\n"
         "adrp x1, reply\nadd x1, x1, :lo12:reply\n"
         "mov x0, #1\nmov x2, #3\nrtcall #1\n"
         "mov x0, #0\nrtcall #0\n"
         ".Lbad:\nmov x0, #1\n";
  }
  s += "rtcall #0\n.data\nreply:\n.asciz \"ok\\n\"\nstate:\n";
  lfi::fuzz::Rng rng(0x5e7e);
  for (int i = 0; i < 256; ++i) {
    s += ".quad " + std::to_string(rng.Next() >> 1) + "\n";
  }
  s += ".zero " + std::to_string(32768 - 256 * 8) +
       "\nstate2:\n.zero 32768\n";
  return s;
}

// Runtime, pool image captured from a template load, and the pool.
struct Stack {
  std::unique_ptr<lfi::runtime::Runtime> rt;
  std::unique_ptr<lfi::runtime::SpawnPool> pool;
};

class Serve : public Workload {
 public:
  bool Setup(uint64_t seed, Tracer* t, std::string* err) override {
    seed_ = seed;
    const Built ref = BuildModule(HandlerSource(-1), false, t, 0);
    if (!ref.ok) {
      *err = "reference handler: " + ref.error;
      return false;
    }
    auto img = lfi::elf::Read({ref.elf.data(), ref.elf.size()});
    auto rt = NewRuntime(false, t, 0);
    auto pid = img ? TracedLoad(rt.get(), *img, t, 0)
                   : lfi::Result<int>(lfi::Error{img.error()});
    if (!pid) {
      *err = "reference load: " + pid.error();
      return false;
    }
    {
      Scope s(t, "runtime", "run", 0);
      rt->RunUntilIdle(uint64_t{1} << 32);
    }
    const auto* p = rt->proc(*pid);
    if (p->exit_kind != lfi::runtime::ExitKind::kExited) {
      *err = "reference run did not exit: " + p->fault_detail;
      return false;
    }
    reference_status_ = p->exit_status;
    handler_ = BuildModule(HandlerSource(reference_status_), true, t, 1);
    if (!handler_.ok) {
      *err = "handler: " + handler_.error;
      return false;
    }
    auto o2 = lfi::elf::Read({handler_.elf.data(), handler_.elf.size()});
    if (!o2) {
      *err = "handler elf: " + o2.error();
      return false;
    }
    image_ = *std::move(o2);
    return true;
  }

  RoundResult Round(Tracer* t) override {
    RoundResult r;
    lfi::trace::TraceSink sink;
    double serve_s = 0;
    uint64_t completed = 0, retired = 0, max_rate = 0, hash_mix = 0;
    uint64_t warm_hits = 0, cold_spawns = 0, recycles = 0, shed = 0;
    for (int i = 0; i < 3; ++i) {
      const auto u0 = std::chrono::steady_clock::now();
      Stack st = MakeStack(t, i, &r);
      r.unit_s.push_back(SecondsSince(u0));
      if (st.pool == nullptr) continue;
      if (t != nullptr) st.rt->set_trace_sink(&sink);
      const lfi::serve::ServeConfig cfg = Config(i);
      lfi::serve::Server srv(st.rt.get(), cfg, st.pool.get());
      const uint64_t retired0 = st.rt->machine().timing().Retired();
      // Server::Run's loop, with each control-plane step timed as one unit
      // of work (the simulation makes step k the same in every round).
      for (uint64_t step = 0;; ++step) {
        Scope s(t, "serve", "step", step);
        const auto t0 = std::chrono::steady_clock::now();
        const bool more = srv.Step();
        r.unit_s.push_back(SecondsSince(t0));
        serve_s += r.unit_s.back();
        if (!more || step + 1 >= cfg.max_steps) break;
      }
      if (t != nullptr) st.rt->set_trace_sink(nullptr);
      const lfi::serve::ServeReport& rep = srv.report();
      retired += st.rt->machine().timing().Retired() - retired0;
      const uint64_t rep_shed = rep.shed_queue + rep.shed_deadline +
                                rep.shed_quota + rep.shed_breaker +
                                rep.shed_degrade + rep.dispatch_failures;
      // Every request is offered once; it must complete, which with no
      // retries means its handler exited 0 (checksum matched).
      r.Check(rep.offered, rep.offered - rep.completed,
              "rate " + std::to_string(kRates[i]) + ": " +
                  std::to_string(rep.offered - rep.completed) + " of " +
                  std::to_string(rep.offered) + " requests not completed");
      r.Check(rep.offered == kRequests[i],
              "rate " + std::to_string(kRates[i]) + " run incomplete");
      completed += rep.completed;
      warm_hits += rep.warm_hits;
      cold_spawns += rep.cold_spawns;
      recycles += rep.recycles;
      shed += rep_shed;
      hash_mix = hash_mix * 1099511628211ull ^ rep.outcome_hash;
      const Percentile p99 = NearestRank(rep.latencies, 99);
      const std::string at = "rate" + std::to_string(kRates[i]) + ".";
      r.exact[at + "p99_cycles"] = static_cast<double>(p99.value);
      r.exact[at + "req_per_mcycle"] = rep.ThroughputPerMcycle();
      if (rep_shed == 0 && rep.failed == 0 &&
          !lfi::serve::SloViolated(p99.value, kSloCycles)) {
        max_rate = std::max(max_rate, kRates[i]);
      }
      if (i == kNearKnee) {
        const Percentile p50 = NearestRank(rep.latencies, 50);
        r.exact["sim_p50_cycles"] = static_cast<double>(p50.value);
        r.exact["sim_p99_cycles"] = static_cast<double>(p99.value);
        r.exact["sim_p99_samples"] = static_cast<double>(p99.samples);
        r.exact["sim_p99_beyond"] = static_cast<double>(p99.beyond);
        r.Check(p99.Reportable(), "near-knee p99 has fewer than 10 "
                                  "samples beyond it");
      }
    }
    r.exact["sim_max_rate_per_mcycle"] = static_cast<double>(max_rate);
    r.exact["outcome_hash_hi"] = static_cast<double>(hash_mix >> 32);
    r.exact["outcome_hash_lo"] = static_cast<double>(hash_mix & 0xffffffff);
    r.exact["insts_per_request"] =
        completed == 0 ? 0.0 : double(retired) / double(completed);
    r.host["host_req_per_s"] = static_cast<double>(completed) / serve_s;
    if (t != nullptr) {
      const double reqs = static_cast<double>(completed);
      const auto total = [&](Counter c) {
        return static_cast<double>(SinkTotal(sink, c));
      };
      r.counters["emu.block_cache_hits"] = total(Counter::kBlockCacheHits);
      r.counters["emu.block_cache_misses"] =
          total(Counter::kBlockCacheMisses);
      r.counters["emu.guards_executed"] = total(Counter::kGuardsExecuted);
      r.counters["emu.retired"] = static_cast<double>(retired);
      r.counters["emu.invalidations_per_request"] =
          total(Counter::kBlockCacheInvalidations) / reqs;
      r.counters["emu.misses_per_request"] =
          total(Counter::kBlockCacheMisses) / reqs;
      const double restores = total(Counter::kSnapshotRestores);
      r.counters["snapshot.dirty_pages_per_restore"] =
          restores == 0 ? 0 : total(Counter::kSnapshotDirtyPages) / restores;
      r.counters["serve.warm_hits"] = static_cast<double>(warm_hits);
      r.counters["serve.cold_spawns"] = static_cast<double>(cold_spawns);
      r.counters["serve.recycles"] = static_cast<double>(recycles);
      r.counters["serve.shed"] = static_cast<double>(shed);
      r.counters["serve.requests"] = reqs;
    }
    return r;
  }

  std::map<std::string, double> SetupCounters() const override {
    return {{"rewriter.guards_inserted",
             double(handler_.rewrite.guards_inserted)},
            {"rewriter.guards_hoisted",
             double(handler_.rewrite.guards_hoisted)},
            {"handler_text_bytes", double(handler_.text_bytes)}};
  }

 private:
  lfi::serve::ServeConfig Config(int i) const {
    lfi::serve::ServeConfig cfg;
    cfg.traffic.kind = lfi::serve::TrafficKind::kPoisson;
    cfg.traffic.seed = lfi::fuzz::DeriveSeed(seed_, i);
    cfg.traffic.requests = kRequests[i];
    cfg.traffic.tenants = 4;
    cfg.traffic.rate_per_mcycle = kRates[i];
    cfg.tiers.resize(1);
    cfg.tiers[0].slo_cycles = kSloCycles;
    // Nothing is shed: above the knee the backlog queues and drains, and
    // shows up as latency instead.
    cfg.admission.max_queue_depth = 1 << 20;
    cfg.admission.shed_on_deadline = false;
    cfg.max_concurrency = 8;
    cfg.pool_min = 4;
    cfg.pool_max = 32;
    return cfg;
  }

  // Template load of the O2 handler, captured as the pool image.
  Stack MakeStack(Tracer* t, uint64_t id, RoundResult* r) const {
    Stack st;
    st.rt = NewRuntime(true, t, id);
    auto pid = TracedLoad(st.rt.get(), image_, t, id);
    if (!pid) {
      r->Check(false, "handler load: " + pid.error());
      return st;
    }
    auto cap = [&] {
      Scope s(t, "runtime", "capture", id);
      return st.rt->CaptureSnapshot(*pid);
    }();
    if (!cap) {
      r->Check(false, "capture: " + cap.error());
      return st;
    }
    Scope s(t, "runtime", "spawn", id);
    (void)st.rt->Kill(*pid, "template");
    st.pool = std::make_unique<lfi::runtime::SpawnPool>(
        st.rt.get(),
        std::make_shared<const lfi::snapshot::Snapshot>(*std::move(cap)));
    st.pool->Prewarm(4);
    return st;
  }

  uint64_t seed_ = 0;
  int reference_status_ = 0;
  Built handler_;
  lfi::elf::ElfImage image_;
};

}  // namespace

std::unique_ptr<Workload> MakeServe() { return std::make_unique<Serve>(); }

}  // namespace perfbench
