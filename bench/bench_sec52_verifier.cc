// Section 5.2: verifier throughput.
//
// The paper's verifier checks ~34 MB/s of machine code on a Macbook Air
// and verifies every SPEC binary in under 0.3 s; the WABT Wasm validator
// manages ~3 MB/s on the same machine. This benchmark measures our
// verifier's real (host) throughput over the rewritten workload binaries.
// Uses google-benchmark since this is a host-time measurement; a custom
// main() strips `--json <path>` before benchmark::Initialize sees it and
// records the deterministic verification facts (bytes, instructions
// checked, decode/check split) plus the measured throughput, the peak-RSS
// growth of verifying the large text, and the parser's, rewriter's and
// assembler's throughput on the same sources next to the verifier's.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include "harness.h"
#include "verifier/verifier.h"

namespace lfi::bench {
namespace {

// The assembly sources of all 15 workloads.
const std::vector<std::string>& Sources() {
  static const std::vector<std::string>* sources = [] {
    auto* s = new std::vector<std::string>();
    for (const auto& w : workloads::AllWorkloads()) {
      s->push_back(workloads::Generate(w.name, 400000));
    }
    return s;
  }();
  return *sources;
}

// One large text segment built from all rewritten workloads.
const std::vector<uint8_t>& CombinedText() {
  static const std::vector<uint8_t>* text = [] {
    auto* t = new std::vector<uint8_t>();
    for (const std::string& src : Sources()) {
      const Built b = BuildLfi(src, Config::kO2);
      if (b.ok) {
        // Extract the text segment back out of the ELF.
        auto img = elf::Read({b.elf.data(), b.elf.size()});
        if (img.ok()) {
          for (const auto& seg : img->segments) {
            if (seg.exec) t->insert(t->end(), seg.data.begin(),
                                    seg.data.end());
          }
        }
      }
    }
    return t;
  }();
  return *text;
}

void BM_VerifyThroughput(benchmark::State& state) {
  const auto& text = CombinedText();
  for (auto _ : state) {
    auto r = verifier::Verify({text.data(), text.size()});
    if (!r.ok) state.SkipWithError(("verify failed: " + r.reason).c_str());
    benchmark::DoNotOptimize(r.insts_checked);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
  state.counters["MB"] = static_cast<double>(text.size()) / 1e6;
}
BENCHMARK(BM_VerifyThroughput);

void BM_VerifySingleWorkload(benchmark::State& state) {
  const std::string src = workloads::Generate("502.gcc", 400000);
  const Built b = BuildLfi(src, Config::kO2);
  std::vector<uint8_t> text;
  auto img = elf::Read({b.elf.data(), b.elf.size()});
  if (img.ok()) {
    for (const auto& seg : img->segments) {
      if (seg.exec) text = seg.data;
    }
  }
  for (auto _ : state) {
    auto r = verifier::Verify({text.data(), text.size()});
    benchmark::DoNotOptimize(r.ok);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_VerifySingleWorkload);

// A large text: the combined workload text repeated to ~4 MB.
// Concatenation preserves acceptance — every sp or x30 obligation the
// verifier carries is met later in the same copy that raised it.
const std::vector<uint8_t>& LargeText() {
  static const std::vector<uint8_t>* corpus = [] {
    const auto& unit = CombinedText();
    auto* t = new std::vector<uint8_t>();
    const size_t target = size_t{4} << 20;  // ~4 MB
    while (t->size() < target) t->insert(t->end(), unit.begin(), unit.end());
    return t;
  }();
  return *corpus;
}

// One large file whose eight tbz test-branches each jump over 8000
// stores, so the rewriter's tbz/tbnz range fix rewrites all of them.
std::string FarBranchSource() {
  std::string s = ".text\n.globl _start\n_start:\n";
  for (int b = 0; b < 8; ++b) {
    const std::string far = ".Lfar" + std::to_string(b);
    s += "tbz x0, #" + std::to_string(b) + ", " + far + "\n";
    for (int k = 0; k < 8000; ++k) {
      s += "str x1, [x2, #" + std::to_string(8 * (k % 16)) + "]\n";
    }
    s += far + ":\n";
  }
  return s + "ret\n";
}

// The process's peak resident set so far, in MB.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

// Timed verification passes outside google-benchmark, for the JSON
// report: the byte/instruction counts are deterministic (and act as a
// structural regression gate); the MB/s figures are informational.
// Returns false if either text failed verification or a source failed to
// parse.
bool ReportJson(JsonReport* json) {
  // The combined text is a few KB, so one cold pass takes a fraction of a
  // millisecond. Like the parse section below, each timed pass verifies
  // it repeatedly, to ~4 MB, and the best of three passes counts.
  const auto& text = CombinedText();
  if (text.empty()) {
    std::fprintf(stderr, "sec52: no workload text was built\n");
    return false;
  }
  const size_t verify_reps = ((size_t{4} << 20) + text.size() - 1) /
                             text.size();
  verifier::VerifyStats stats;
  verifier::VerifyResult r;
  const double secs = BestOf3Seconds([&] {
    for (size_t k = 0; k < verify_reps; ++k) {
      r = verifier::Verify({text.data(), text.size()}, {}, &stats);
    }
  });
  if (!r.ok) {
    std::fprintf(stderr, "sec52: combined text failed verification: %s\n",
                 r.reason.c_str());
    return false;
  }
  const double mb_per_s = verify_reps * text.size() / secs / 1e6;
  json->Add("sec52.verify.text.bytes", static_cast<double>(text.size()));
  json->Add("sec52.verify.insts_checked",
            static_cast<double>(r.insts_checked));
  json->Add("sec52.verify.mb_per_s", mb_per_s);
  json->Add("sec52.verify.decode_fraction",
            stats.decode_seconds + stats.check_seconds > 0
                ? stats.decode_seconds /
                      (stats.decode_seconds + stats.check_seconds)
                : 0.0);

  // The first large-text Verify runs before the parse section below raises
  // the high-water mark, so the peak-RSS growth across it is what the
  // verifier itself holds (the decoded window, not the whole text).
  const auto& large = LargeText();
  const double rss_before_mb = PeakRssMb();
  verifier::VerifyResult lr = verifier::Verify({large.data(), large.size()});
  const double large_rss_growth_mb = PeakRssMb() - rss_before_mb;
  const double large_secs = BestOf3Seconds(
      [&] { lr = verifier::Verify({large.data(), large.size()}); });
  if (!lr.ok) {
    std::fprintf(stderr, "sec52: large text failed verification: %s\n",
                 lr.reason.c_str());
    return false;
  }
  const double large_mb_per_s = large.size() / large_secs / 1e6;
  json->Add("sec52.verify.large.bytes", static_cast<double>(large.size()));
  json->Add("sec52.verify.large.mb_per_s", large_mb_per_s);
  json->Add("sec52.verify.large.rss_growth_mb", large_rss_growth_mb);
  std::printf("sec52: %.1f MB/s on %zu bytes x %zu, %.1f MB/s on %zu bytes "
              "(peak RSS +%.1f MB)\n",
              mb_per_s, text.size(), verify_reps, large_mb_per_s,
              large.size(), large_rss_growth_mb);

  // Parsing, rewriting (O2) and assembling the same sources: the first
  // stages of the same pipeline. They total only ~15 KB, so each timed
  // pass handles them repeatedly, like the large verifier text, to ~4 MB.
  // Rewrite and assemble also take one large file with far test-branches.
  // Every rate is source bytes per second; parse is also compared with
  // the large-text verifier rate from this process, so that ratio does
  // not depend on the host's speed.
  size_t unit = 0;
  for (const std::string& src : Sources()) unit += src.size();
  const size_t reps = ((size_t{4} << 20) + unit - 1) / unit;
  const size_t parse_bytes = reps * unit;
  bool parsed = true;
  const double parse_secs = BestOf3Seconds([&] {
    for (size_t r = 0; r < reps; ++r) {
      for (const std::string& src : Sources()) {
        auto f = asmtext::Parse(src);
        parsed = parsed && f.ok();
        benchmark::DoNotOptimize(f);
      }
    }
  });
  const std::string far_src = FarBranchSource();
  std::vector<asmtext::AsmFile> files;
  for (const std::string& src : Sources()) {
    auto f = asmtext::Parse(src);
    parsed = parsed && f.ok();
    if (f.ok()) files.push_back(*std::move(f));
  }
  auto far_file = asmtext::Parse(far_src);
  if (!parsed || !far_file.ok()) {
    std::fprintf(stderr, "sec52: a source failed to parse\n");
    return false;
  }
  const double parse_mb_per_s = parse_bytes / parse_secs / 1e6;
  // The statement array one pass over the parse input builds: a
  // structural figure for the AST's footprint, strings and vectors aside.
  size_t stmts = 0;
  for (const asmtext::AsmFile& f : files) stmts += f.stmts.size();
  const size_t ast_bytes = reps * stmts * sizeof(asmtext::AsmStmt);
  json->Add("sec52.parse.bytes", static_cast<double>(parse_bytes));
  json->Add("sec52.parse.ast.bytes", static_cast<double>(ast_bytes));
  json->Add("sec52.parse.mb_per_s", parse_mb_per_s);
  json->Add("sec52.parse.vs_verify", parse_mb_per_s / large_mb_per_s);
  std::printf("sec52: parse %.1f MB/s on %zu bytes (%.2fx the verifier), "
              "%zu statements of %zu bytes\n",
              parse_mb_per_s, parse_bytes, parse_mb_per_s / large_mb_per_s,
              reps * stmts, sizeof(asmtext::AsmStmt));

  const rewriter::RewriteOptions o2;
  rewriter::RewriteStats far_stats;
  auto far_out = rewriter::Rewrite(*far_file, o2, &far_stats);
  std::vector<asmtext::AsmFile> rewritten;
  bool ok = far_out.ok() && far_stats.tbz_rewritten == 8;
  for (const auto& f : files) {
    auto r = rewriter::Rewrite(f, o2);
    ok = ok && r.ok();
    if (r.ok()) rewritten.push_back(*std::move(r));
  }
  if (!ok) {
    std::fprintf(stderr, "sec52: rewrite failed or missed a far branch\n");
    return false;
  }
  const double build_bytes = static_cast<double>(parse_bytes + far_src.size());
  const double rewrite_secs = BestOf3Seconds([&] {
    for (size_t r = 0; r < reps; ++r) {
      for (const auto& f : files) {
        benchmark::DoNotOptimize(rewriter::Rewrite(f, o2));
      }
    }
    benchmark::DoNotOptimize(rewriter::Rewrite(*far_file, o2));
  });
  const asmtext::LayoutSpec spec;
  bool assembled = true;
  const double assemble_secs = BestOf3Seconds([&] {
    for (size_t r = 0; r < reps; ++r) {
      for (const auto& f : rewritten) {
        assembled = asmtext::Assemble(f, spec).ok() && assembled;
      }
    }
    assembled = asmtext::Assemble(*far_out, spec).ok() && assembled;
  });
  if (!assembled) {
    std::fprintf(stderr, "sec52: rewritten text failed to assemble\n");
    return false;
  }
  json->Add("sec52.rewrite.mb_per_s", build_bytes / rewrite_secs / 1e6);
  json->Add("sec52.assemble.mb_per_s", build_bytes / assemble_secs / 1e6);
  std::printf("sec52: rewrite %.1f MB/s, assemble %.1f MB/s on %.0f bytes\n",
              build_bytes / rewrite_secs / 1e6,
              build_bytes / assemble_secs / 1e6, build_bytes);
  return true;
}

}  // namespace
}  // namespace lfi::bench

int main(int argc, char** argv) {
  auto json = lfi::bench::JsonReport::FromArgs(argc, argv);
  // Strip --json from argv: google-benchmark rejects flags it does not
  // recognize.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      ++i;  // skip the path operand too
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) continue;
    argv[out++] = argv[i];
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const bool verified = lfi::bench::ReportJson(&json);
  if (!json.Write()) return 1;
  return verified ? 0 : 1;
}
