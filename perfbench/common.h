// Shared pieces of the three workloads: the workload interface, the
// per-round result main.cc aggregates, and the traced build and load
// helpers that bracket calls into each module.
#ifndef LFI_PERFBENCH_COMMON_H_
#define LFI_PERFBENCH_COMMON_H_

#include <chrono>
#include <functional>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "asmtext/ast.h"
#include "rewriter/rewriter.h"
#include "runtime/runtime.h"
#include "stats.h"
#include "tracer.h"

namespace perfbench {

inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// What one round of a workload produced. `exact` values are simulated or
// count-based and must repeat bit-for-bit across rounds, seeds aside, and
// with tracing on or off. `host` values are host-timed rates. `counters`
// are per-layer counts read from the modules (only filled in traced
// rounds, where a TraceSink is attached).
struct RoundResult {
  FailTally tally;
  std::vector<std::string> errors;  // oracle mismatches, for the log
  std::map<std::string, double> exact;
  std::map<std::string, double> host;
  std::map<std::string, double> counters;
  // Host seconds of each unit of work in the round (a program run, a
  // module, a serving step), in the same order every round.
  std::vector<double> unit_s;

  void Check(bool ok, const std::string& what) { Check(1, ok ? 0 : 1, what); }
  // `failed` of `attempted` operations did not match their known answer.
  void Check(uint64_t attempted, uint64_t failed, const std::string& what) {
    tally.Merge({attempted, failed});
    if (failed != 0 && errors.size() < 8) errors.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the inputs from source and derives their known answers. The
  // benchmark times this as setup_s, so it must start from scratch each
  // call.
  virtual bool Setup(uint64_t seed, Tracer* t, std::string* err) = 0;
  // One round of the timed phase. With a tracer, spans are recorded and a
  // TraceSink is attached so `counters` can be filled.
  virtual RoundResult Round(Tracer* t) = 0;
  // Exact per-layer counts known from setup (e.g. guards the rewriter
  // inserted into inputs built once).
  virtual std::map<std::string, double> SetupCounters() const { return {}; }
};

std::unique_ptr<Workload> MakeExec();
std::unique_ptr<Workload> MakeIngest();
std::unique_ptr<Workload> MakeServe();

// A module built from assembly text.
struct Built {
  bool ok = false;
  std::string error;
  std::vector<uint8_t> elf;
  uint64_t src_bytes = 0;
  uint64_t text_bytes = 0;
  lfi::rewriter::RewriteStats rewrite;
};

// Optional post-rewrite edit (used to inject known verifier violations).
using AsmEdit = std::function<void(lfi::asmtext::AsmFile*)>;

// parse -> rewrite -> [edit] -> assemble -> ELF write, each call bracketed.
// `guards` false builds the native (unguarded) baseline.
Built BuildModule(const std::string& src, bool guards, Tracer* t,
                  uint64_t id, const AsmEdit& edit = nullptr);

// Runtime configured like the paper's primary machine (apple-m1 model).
lfi::runtime::RuntimeConfig M1Config(bool verify);

// Creates a Runtime under a "runtime.create" span.
std::unique_ptr<lfi::runtime::Runtime> NewRuntime(bool verify, Tracer* t,
                                                  uint64_t id);

// Runtime::LoadImage under a "runtime.load" span, with the verifier's own
// decode and check times (read from Runtime::verify_stats()) recorded as
// derived child spans, so load self time excludes verification.
lfi::Result<int> TracedLoad(lfi::runtime::Runtime* rt,
                            const lfi::elf::ElfImage& image, Tracer* t,
                            uint64_t id);

// Sum of one counter over every sandbox the sink has seen.
uint64_t SinkTotal(const lfi::trace::TraceSink& sink,
                   lfi::trace::Counter c);

}  // namespace perfbench

#endif  // LFI_PERFBENCH_COMMON_H_
