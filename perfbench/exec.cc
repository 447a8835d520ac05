// exec: the 14 SPEC-like generators plus coremark, each built native and
// LFI O2, run to exit one after another in a fresh Runtime on the
// apple-m1 model (a closed loop with one client). Inputs are fixed by name
// and scale; the seed does not change them. Almost all host time is the
// emulator and its timing model.
#include <chrono>

#include "common.h"
#include "elf/elf.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using lfi::trace::Counter;

// Dynamic size of each generated program's main phase. At this scale one
// round (30 runs) retires about 40M simulated instructions, half of them in
// the generators' fixed set-up code.
constexpr uint64_t kScale = 150000;
constexpr uint64_t kMaxInsts = uint64_t{2000} * 1000 * 1000;

struct Prog {
  std::string name;
  lfi::elf::ElfImage native, o2;
};

class Exec : public Workload {
 public:
  bool Setup(uint64_t /*seed*/, Tracer* t, std::string* err) override {
    progs_.clear();
    guards_inserted_ = guards_hoisted_ = 0;
    uint64_t id = 0;
    for (const auto& w : lfi::workloads::AllWorkloads()) {
      const std::string src = lfi::workloads::Generate(w.name, kScale);
      Prog p;
      p.name = w.name;
      for (bool guards : {false, true}) {
        Built b = BuildModule(src, guards, t, id);
        if (!b.ok) {
          *err = w.name + ": " + b.error;
          return false;
        }
        auto img = lfi::elf::Read({b.elf.data(), b.elf.size()});
        if (!img) {
          *err = w.name + ": elf read: " + img.error();
          return false;
        }
        (guards ? p.o2 : p.native) = *std::move(img);
        if (guards) {
          guards_inserted_ += b.rewrite.guards_inserted;
          guards_hoisted_ += b.rewrite.guards_hoisted;
        }
      }
      progs_.push_back(std::move(p));
      ++id;
    }
    return true;
  }

  RoundResult Round(Tracer* t) override {
    RoundResult r;
    lfi::trace::TraceSink sink;
    uint64_t insts = 0, o2_cycles = 0, guards = 0;
    double run_s = 0;
    std::vector<std::pair<uint64_t, uint64_t>> native_o2;
    for (size_t i = 0; i < progs_.size(); ++i) {
      const Prog& p = progs_[i];
      auto u0 = std::chrono::steady_clock::now();
      Outcome native = RunOne(p.native, false, t, i, &sink, &run_s);
      r.unit_s.push_back(SecondsSince(u0));
      u0 = std::chrono::steady_clock::now();
      Outcome o2 = RunOne(p.o2, true, t, i, &sink, &run_s);
      r.unit_s.push_back(SecondsSince(u0));
      r.Check(native.exited, p.name + " native did not exit: " + native.why);
      r.Check(o2.exited && o2.status == native.status,
              p.name + " O2 status " + std::to_string(o2.status) +
                  " != native " + std::to_string(native.status) + " " +
                  o2.why);
      insts += native.insts + o2.insts;
      o2_cycles += o2.cycles;
      guards += o2.guards;
      native_o2.push_back({native.cycles, o2.cycles});
    }
    r.exact["sim_cycles"] = static_cast<double>(o2_cycles);
    r.exact["sim_o2_overhead_pct"] = GeomeanOverheadPct(native_o2);
    r.exact["sim_insts"] = static_cast<double>(insts);
    r.host["host_minsts_per_s"] = static_cast<double>(insts) / run_s / 1e6;
    if (t != nullptr) {
      r.counters["emu.block_cache_hits"] =
          static_cast<double>(SinkTotal(sink, Counter::kBlockCacheHits));
      r.counters["emu.block_cache_misses"] =
          static_cast<double>(SinkTotal(sink, Counter::kBlockCacheMisses));
      r.counters["emu.guards_executed"] = static_cast<double>(guards);
      r.counters["emu.retired"] = static_cast<double>(insts);
    }
    return r;
  }

  std::map<std::string, double> SetupCounters() const override {
    return {{"rewriter.guards_inserted", double(guards_inserted_)},
            {"rewriter.guards_hoisted", double(guards_hoisted_)}};
  }

 private:
  struct Outcome {
    bool exited = false;
    int status = 0;
    uint64_t cycles = 0, insts = 0, guards = 0;
    std::string why;
  };

  // Fresh Runtime, load (O2 builds are verified), run to exit.
  static Outcome RunOne(const lfi::elf::ElfImage& img, bool verify,
                        Tracer* t, uint64_t id,
                        lfi::trace::TraceSink* sink, double* run_s) {
    Outcome o;
    auto rt = NewRuntime(verify, t, id);
    if (t != nullptr) rt->set_trace_sink(sink);
    auto pid = TracedLoad(rt.get(), img, t, id);
    if (!pid) {
      o.why = pid.error();
      return o;
    }
    const uint64_t guards0 = SinkTotal(*sink, Counter::kGuardsExecuted);
    const auto t0 = std::chrono::steady_clock::now();
    {
      Scope s(t, "runtime", "run", id);
      rt->RunUntilIdle(kMaxInsts);
    }
    *run_s += SecondsSince(t0);
    o.guards = SinkTotal(*sink, Counter::kGuardsExecuted) - guards0;
    const auto* p = rt->proc(*pid);
    o.exited = p->exit_kind == lfi::runtime::ExitKind::kExited;
    o.status = p->exit_status;
    o.why = p->fault_detail;
    o.cycles = rt->Cycles();
    o.insts = rt->machine().timing().Retired();
    if (t != nullptr) rt->set_trace_sink(nullptr);
    return o;
  }

  std::vector<Prog> progs_;
  uint64_t guards_inserted_ = 0, guards_hoisted_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeExec() { return std::make_unique<Exec>(); }

}  // namespace perfbench
