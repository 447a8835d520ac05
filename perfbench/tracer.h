// In-memory span recorder for the traced run.
//
// The benchmark brackets each call it makes into a module's public
// functions with a Scope: one span per call, holding the layer and
// function name, start and end (steady_clock ns since the tracer was
// made), the enclosing span, and the program, module or step id.
// Spans stay in memory and are written out once, at the end, as Chrome
// trace_event JSON. A null Tracer* turns every Scope into a no-op, which
// is how the untraced runs that produce the end-to-end metrics stay free
// of tracing cost.
#ifndef LFI_PERFBENCH_TRACER_H_
#define LFI_PERFBENCH_TRACER_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

// High-water mark of the process's resident set, in KiB.
inline uint64_t PeakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss);
}

struct Span {
  const char* layer = "";  // module, e.g. "asmtext"
  const char* fn = "";     // public function bracketed, e.g. "parse"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;         // index of the enclosing span, -1 at top level
  uint64_t id = 0;         // program / module / request id
  uint64_t hwm_growth_kb = 0;  // peak-RSS growth while the span was open
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t Now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  int Begin(const char* layer, const char* fn, uint64_t id) {
    Span s;
    s.layer = layer;
    s.fn = fn;
    s.id = id;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.hwm_growth_kb = PeakRssKb();  // holds the start mark until End
    s.start_ns = Now();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void End(int idx) {
    Span& s = spans_[idx];
    s.end_ns = Now();
    s.hwm_growth_kb = PeakRssKb() - s.hwm_growth_kb;
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }

  // Records a span that was not bracketed but derived from a module's own
  // counters (e.g. verifier pass times read from Runtime::verify_stats()),
  // as a child of `parent` starting at `start_ns`.
  int AddDerived(const char* layer, const char* fn, int parent,
                 uint64_t start_ns, uint64_t dur_ns, uint64_t id,
                 uint64_t hwm_growth_kb = 0) {
    Span s;
    s.layer = layer;
    s.fn = fn;
    s.parent = parent;
    s.start_ns = start_ns;
    s.end_ns = start_ns + dur_ns;
    s.id = id;
    s.hwm_growth_kb = hwm_growth_kb;
    spans_.push_back(s);
    return static_cast<int>(spans_.size() - 1);
  }

  // Work counts recorded at the same boundaries as the spans (bytes
  // parsed, bytes verified), so per-layer rates are measured where the
  // work happens.
  void Count(const std::string& name, double v) { counts_[name] += v; }
  const std::map<std::string, double>& counts() const { return counts_; }

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  // Self time per "layer.fn" over spans [from, size()): each span's
  // duration minus the part of it its children cover.
  std::map<std::string, uint64_t> SelfNs(size_t from) const {
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
        spans_.size());
    for (size_t i = from; i < spans_.size(); ++i) {
      const int p = spans_[i].parent;
      if (p >= 0) kids[p].push_back({spans_[i].start_ns, spans_[i].end_ns});
    }
    std::map<std::string, uint64_t> out;
    for (size_t i = from; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const uint64_t dur = s.end_ns - s.start_ns;
      out[std::string(s.layer) + "." + s.fn] +=
          dur - CoveredLength(kids[i], s.start_ns, s.end_ns);
    }
    return out;
  }

  // Peak-RSS growth per layer over spans [from, size()), attributed to the
  // innermost open span (a parent's growth excludes its children's).
  std::map<std::string, uint64_t> SelfHwmKb(size_t from) const {
    std::vector<uint64_t> kid_growth(spans_.size(), 0);
    for (size_t i = from; i < spans_.size(); ++i) {
      const int p = spans_[i].parent;
      if (p >= 0) kid_growth[p] += spans_[i].hwm_growth_kb;
    }
    std::map<std::string, uint64_t> out;
    for (size_t i = from; i < spans_.size(); ++i) {
      const uint64_t g = spans_[i].hwm_growth_kb;
      out[spans_[i].layer] += g > kid_growth[i] ? g - kid_growth[i] : 0;
    }
    return out;
  }

  // Chrome trace_event JSON ("X" complete events, microseconds).
  void WriteChromeTrace(std::ostream& os) const {
    os << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.layer << "."
         << s.fn << "\",\"cat\":\"" << s.layer
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << static_cast<double>(s.start_ns) / 1e3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
         << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
         << ",\"id\":" << s.id << "}}";
    }
    os << "\n]}\n";
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> counts_;
};

// RAII bracket around one call. No-op when the tracer is null.
class Scope {
 public:
  Scope(Tracer* t, const char* layer, const char* fn, uint64_t id = 0)
      : t_(t), idx_(t == nullptr ? -1 : t->Begin(layer, fn, id)) {}
  ~Scope() {
    if (t_ != nullptr) t_->End(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int index() const { return idx_; }

 private:
  Tracer* t_;
  int idx_;
};

}  // namespace perfbench

#endif  // LFI_PERFBENCH_TRACER_H_
