// lfi-fuzz: sandbox-escape soundness fuzzer (docs/FUZZING.md).
//
// Closes the verifier-emulator loop: generated and mutated instruction
// streams go through the static verifier, and everything the verifier
// accepts executes under the slot-invariant checker, which convicts any
// access, branch target, or reserved-register value that leaves the
// sandbox. Also runs completeness fuzzing (rewriter output must verify),
// differential fuzzing (the block interpreter run whole and run one
// instruction at a time must agree), a chained differential (the
// optimized chained backend vs. the reference block loop, hook-free so
// the optimized loop actually runs), plus a snapshot oracle (run N,
// checkpoint, run M, restore, re-run M; the two M-phases must match in
// registers, retired count, and access trace) with a snapshot-file
// mutation fuzz (mutated files must never crash Deserialize, and every
// accepted file must re-serialize to a fixpoint), and a parser mutation fuzz
// (mutated assembly text must never crash the parser, and every accepted
// file must round-trip through the printer).
//
// Usage:
//   lfi-fuzz [--mode=soundness|completeness|differential|chained|
//             snapshot|embed|parse|all]
//            [--iters=N] [--seed=N|string] [--max-insts=N]
//            [--artifact-dir=DIR] [--replay FILE...]
//
// A string seed (e.g. --seed=ci) is FNV-1a hashed. Exit status: 0 clean,
// 1 if any mode found a crash, 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "embed/embed_fuzz.h"
#include "flags.h"
#include "fuzz/fuzz.h"
#include "fuzz/gen.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lfi-fuzz [--mode=soundness|completeness|"
               "differential|chained|snapshot|embed|parse|all] "
               "[--iters=N] "
               "[--seed=N|string]\n"
               "                [--max-insts=N] [--artifact-dir=DIR] "
               "[--replay FILE...]\n");
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

void PrintReport(const lfi::fuzz::FuzzReport& r) {
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

// Replays a crash artifact: re-verifies and re-executes its `words:` line,
// or re-checks the round trip of a parse artifact's `source:` block.
int Replay(const char* path, const lfi::fuzz::FuzzOptions& opts) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "lfi_fuzz: cannot open %s\n", path);
    return 2;
  }
  std::vector<uint32_t> words;
  std::string source;
  std::string mode;
  std::string line;
  bool in_source = false;
  while (std::getline(f, line)) {
    if (line.rfind("mode: ", 0) == 0) {
      mode = line.substr(6);
    } else if (line.rfind("words:", 0) == 0) {
      const char* p = line.c_str() + 6;
      char* end = nullptr;
      for (;;) {
        const unsigned long long w = strtoull(p, &end, 16);
        if (end == p) break;
        words.push_back(static_cast<uint32_t>(w));
        p = end;
      }
      in_source = false;
    } else if (line.rfind("source:", 0) == 0) {
      in_source = true;
    } else if (in_source && line.rfind("  ", 0) == 0) {
      source += line.substr(2) + "\n";
    } else {
      in_source = false;
    }
  }
  int rc = 0;
  if (!words.empty()) {
    const auto v = lfi::verifier::Verify(
        {reinterpret_cast<const uint8_t*>(words.data()), words.size() * 4},
        opts.verify);
    if (!v.ok) {
      std::printf("%s: verifier now REJECTS (%s: %s) -- fixed\n", path,
                  lfi::verifier::FailKindName(v.kind), v.reason.c_str());
      return 0;
    }
    lfi::fuzz::ExecOptions eo;
    eo.seed = opts.seed;
    eo.max_insts = opts.max_exec_insts;
    eo.guard_bytes = opts.verify.guard_bytes;
    eo.table_bytes = opts.verify.table_bytes;
    const auto res = lfi::fuzz::ExecuteWords(words, eo);
    if (res.violation.empty()) {
      std::printf("%s: accepted and executes clean\n", path);
    } else {
      std::printf("%s: STILL ESCAPES: %s\n", path, res.violation.c_str());
      rc = 1;
    }
  }
  if (!source.empty() && mode == "parse") {
    bool accepted = false;
    const std::string err = lfi::fuzz::CheckParseRoundTrip(source, &accepted);
    if (err.empty()) {
      std::printf("%s: %s -- fixed\n", path,
                  accepted ? "round-trips" : "now rejected");
    } else {
      std::printf("%s: STILL FAILS: %s\n", path, err.c_str());
      rc = 1;
    }
  } else if (!source.empty()) {
    // Completeness artifacts replay through a 1-iteration corpus run by
    // reusing the recorded seed for the pipeline options.
    std::printf("%s: replaying source through the pipeline is not seeded "
                "here; run the smoke tests instead\n",
                path);
  }
  if (words.empty() && source.empty()) {
    std::fprintf(stderr, "lfi_fuzz: %s has no words:/source: section\n", path);
    return 2;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "all";
  lfi::fuzz::FuzzOptions opts;
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

  bool crashed = false;
  if (mode == "soundness" || mode == "all") {
    const auto r = lfi::fuzz::RunSoundness(opts);
    PrintReport(r);
    crashed = crashed || !r.ok();
  }
  if (mode == "completeness" || mode == "all") {
    // Assembly programs are ~100x more expensive per iteration than word
    // streams; scale the count so --iters stays one wall-clock knob.
    lfi::fuzz::FuzzOptions co = opts;
    co.iters = opts.iters / 50 + 1;
    const auto r = lfi::fuzz::RunCompleteness(co);
    PrintReport(r);
    crashed = crashed || !r.ok();
  }
  if (mode == "differential" || mode == "all") {
    lfi::fuzz::FuzzOptions d = opts;
    d.iters = opts.iters / 2 + 1;
    const auto r = lfi::fuzz::RunDifferential(d);
    PrintReport(r);
    crashed = crashed || !r.ok();
  }
  if (mode == "chained" || mode == "all") {
    lfi::fuzz::FuzzOptions c = opts;
    c.iters = opts.iters / 2 + 1;
    const auto r = lfi::fuzz::RunChainedDifferential(c);
    PrintReport(r);
    crashed = crashed || !r.ok();
  }
  if (mode == "snapshot" || mode == "all") {
    lfi::fuzz::FuzzOptions s = opts;
    s.iters = opts.iters / 2 + 1;
    for (const auto& r : {lfi::fuzz::RunSnapshotOracle(s),
                          lfi::fuzz::RunSnapshotFormatFuzz(s)}) {
      PrintReport(r);
      crashed = crashed || !r.ok();
    }
  }
  if (mode == "embed" || mode == "all") {
    // Each iteration is a full typed call (often with callbacks); scale
    // like the other pipeline-heavy modes.
    lfi::fuzz::FuzzOptions e = opts;
    e.iters = opts.iters / 10 + 1;
    const auto r = lfi::embed::RunEmbedFuzz(e);
    PrintReport(r);
    crashed = crashed || !r.ok();
  }
  if (mode == "parse" || mode == "all") {
    const auto r = lfi::fuzz::RunParseFuzz(opts);
    PrintReport(r);
    crashed = crashed || !r.ok();
  }
  if (mode != "soundness" && mode != "completeness" && mode != "differential" &&
      mode != "chained" && mode != "snapshot" && mode != "embed" &&
      mode != "parse" && mode != "all") {
    std::fprintf(stderr, "lfi_fuzz: unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  return crashed ? 1 : 0;
}
