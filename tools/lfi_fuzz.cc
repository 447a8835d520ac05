// lfi-fuzz: sandbox-escape soundness fuzzer (docs/FUZZING.md).
//
// Closes the verifier-emulator loop: generated and mutated instruction
// streams go through the static verifier, and everything the verifier
// accepts executes under the slot-invariant checker, which convicts any
// access, branch target, or reserved-register value that leaves the
// sandbox. The other modes (fuzz/fuzz.h) check rewriter output, the block
// and chained backends, snapshot restore and snapshot files, the
// embedding layer, and the assembly parser. kModes below lists them.
//
// Usage:
//   lfi-fuzz [--mode=MODE|all] [--iters=N] [--seed=N|string]
//            [--max-insts=N] [--artifact-dir=DIR] [--replay FILE...]
//
// A string seed (e.g. --seed=ci) is FNV-1a hashed. --replay re-runs each
// crash artifact through the check of the mode that wrote it, under the
// seed it records. Exit status: 0 clean, 1 if any mode found a crash (or
// a replayed artifact still fails), 2 on usage errors or an artifact that
// cannot be replayed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "embed/embed_fuzz.h"
#include "flags.h"
#include "fuzz/fuzz.h"

namespace {

using lfi::fuzz::FuzzOptions;
using lfi::fuzz::FuzzReport;

// The modes, in the order --mode=all runs them. `divisor` scales --iters
// for modes whose iterations cost more, so --iters stays one wall-clock
// knob: 0 runs --iters as given, N runs --iters / N + 1.
struct Mode {
  const char* name;
  uint64_t divisor;
  FuzzReport (*run)(const FuzzOptions&);
};
constexpr Mode kModes[] = {
    {"soundness", 0, lfi::fuzz::RunSoundness},
    // Assembly programs cost ~100x a word stream per iteration.
    {"completeness", 50, lfi::fuzz::RunCompleteness},
    {"differential", 2, lfi::fuzz::RunDifferential},
    {"chained", 2, lfi::fuzz::RunChainedDifferential},
    {"snapshot", 2, lfi::fuzz::RunSnapshotOracle},
    {"snapshot", 2, lfi::fuzz::RunSnapshotFormatFuzz},
    // Each iteration is a full typed call, often with callbacks.
    {"embed", 10, lfi::embed::RunEmbedFuzz},
    {"parse", 0, lfi::fuzz::RunParseFuzz},
};

int Usage() {
  std::string names;
  for (const Mode& m : kModes) {
    if (&m == kModes || std::strcmp(m.name, (&m)[-1].name) != 0) {
      names += m.name + std::string("|");
    }
  }
  std::fprintf(stderr,
               "usage: lfi-fuzz [--mode=%sall] [--iters=N] "
               "[--seed=N|string]\n"
               "                [--max-insts=N] [--artifact-dir=DIR] "
               "[--replay FILE...]\n",
               names.c_str());
  return 2;
}

uint64_t ParseSeed(const char* s) {
  char* end = nullptr;
  const unsigned long long v = strtoull(s, &end, 0);
  if (end != s && *end == '\0') return v;
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char* p = s; *p != '\0'; ++p) {
    h = (h ^ static_cast<uint8_t>(*p)) * 1099511628211ULL;
  }
  return h;
}

void PrintReport(const FuzzReport& r) {
  std::printf("%-13s %llu iters: %llu rejected, %llu accepted, "
              "%llu executed, %zu crashes\n",
              r.mode.c_str(), static_cast<unsigned long long>(r.iters),
              static_cast<unsigned long long>(r.rejected),
              static_cast<unsigned long long>(r.accepted),
              static_cast<unsigned long long>(r.executed), r.crashes.size());
  const std::string hist = lfi::fuzz::RejectHistogram(r);
  if (!hist.empty()) std::printf("  reject kinds: %s\n", hist.c_str());
  for (const auto& c : r.crashes) {
    std::printf("  CRASH iter=%llu seed=0x%llx: %s\n",
                static_cast<unsigned long long>(c.iter),
                static_cast<unsigned long long>(c.seed), c.detail.c_str());
    if (!c.path.empty()) std::printf("    artifact: %s\n", c.path.c_str());
  }
}

int Replay(const char* path, const FuzzOptions& opts) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "lfi-fuzz: cannot open %s\n", path);
    return 2;
  }
  std::ostringstream text;
  text << f.rdbuf();
  std::string line;
  const int rc = lfi::fuzz::Replay(lfi::fuzz::ParseArtifact(text.str()),
                                   opts, &line);
  std::fprintf(rc == 2 ? stderr : stdout, "%s: %s\n", path, line.c_str());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "all";
  FuzzOptions opts;
  opts.seed = 1;
  opts.iters = 10000;
  std::vector<const char*> replays;
  for (int k = 1; k < argc; ++k) {
    const char* a = argv[k];
    if (std::strncmp(a, "--mode=", 7) == 0) {
      mode = a + 7;
    } else if (std::strncmp(a, "--iters=", 8) == 0) {
      if (!lfi::tools::ParseU64(a + 8, &opts.iters)) return Usage();
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      opts.seed = ParseSeed(a + 7);
    } else if (std::strncmp(a, "--max-insts=", 12) == 0) {
      if (!lfi::tools::ParseU64(a + 12, &opts.max_exec_insts)) return Usage();
    } else if (std::strncmp(a, "--artifact-dir=", 15) == 0) {
      opts.artifact_dir = a + 15;
    } else if (std::strcmp(a, "--replay") == 0) {
      while (k + 1 < argc) replays.push_back(argv[++k]);
    } else {
      return Usage();
    }
  }
  if (!replays.empty()) {
    int rc = 0;
    for (const char* p : replays) {
      const int r = Replay(p, opts);
      if (r > rc) rc = r;
    }
    return rc;
  }

  bool known = mode == "all";
  bool crashed = false;
  for (const Mode& m : kModes) {
    if (mode != "all" && mode != m.name) continue;
    known = true;
    FuzzOptions o = opts;
    if (m.divisor != 0) o.iters = opts.iters / m.divisor + 1;
    const FuzzReport r = m.run(o);
    PrintReport(r);
    crashed = crashed || !r.ok();
  }
  if (!known) {
    std::fprintf(stderr, "lfi-fuzz: unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  return crashed ? 1 : 0;
}
