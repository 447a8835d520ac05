#include "fuzz/fuzz.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "arch/decode.h"
#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "asmtext/printer.h"
#include "fuzz/gen.h"
#include "rewriter/rewriter.h"
#include "runtime/layout.h"

namespace lfi::fuzz {
namespace {

std::span<const uint8_t> AsBytes(const std::vector<uint32_t>& words) {
  return {reinterpret_cast<const uint8_t*>(words.data()), words.size() * 4};
}

std::string HexWord(uint32_t w) {
  char buf[16];
  snprintf(buf, sizeof buf, "%08x", w);
  return buf;
}

std::string Disasm(uint32_t w) {
  auto d = arch::Decode(w);
  if (!d.ok()) return "<undecodable>";
  std::string s = asmtext::PrintStmt(asmtext::AsmStmt::OfInst(*d));
  if (arch::IsDirectBranch(*d)) {
    // The printer renders a label for branches; decoded instructions have
    // none, so spell out the raw pc-relative offset.
    s += "  ; pc" + std::string(d->imm < 0 ? "-" : "+") +
         std::to_string(d->imm < 0 ? -d->imm : d->imm);
  }
  return s;
}

void AppendWords(const std::vector<uint32_t>& words, const char* tag,
                 std::string* out) {
  *out += std::string(tag) + ":";
  for (uint32_t w : words) *out += " " + HexWord(w);
  *out += "\n";
}

std::string VerdictText(const verifier::VerifyResult& v) {
  if (v.ok) {
    return "accepted (" + std::to_string(v.insts_checked) + " insts)";
  }
  return std::string("rejected: ") + verifier::FailKindName(v.kind) +
         " at +0x" + HexWord(uint32_t(v.fail_offset)) + ": " + v.reason;
}

void RecordCrash(const FuzzOptions& opts, FuzzReport* report,
                 CrashArtifact a) {
  if (!opts.artifact_dir.empty()) {
    a.path = WriteArtifact(a, opts.artifact_dir);
  }
  report->crashes.push_back(std::move(a));
}

// Soundness/differential stream generation shared policy: a mix of raw
// random words, template streams, and near-miss mutants.
std::vector<uint32_t> GenStream(Rng& rng) {
  const uint64_t pct = rng.Below(100);
  if (pct < 20) return GenRandomWords(rng, 4 + rng.Below(60));
  std::vector<uint32_t> words = GenTemplateStream(rng, 2 + rng.Below(24));
  if (pct >= 65) MutateStream(rng, &words);
  return words;
}

// Differential comparison: first discrepancy between two runs, or "".
// `an`/`bn` label the two runs in the message ("block"/"stepwise",
// "chained"/"block").
std::string DescribeDiff(const ExecResult& a, const ExecResult& b,
                         const std::string& an, const std::string& bn) {
  auto hx = [](uint64_t v) {
    char buf[32];
    snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  if (a.stop != b.stop) {
    return "stop reason differs: " + an + "=" + std::to_string(int(a.stop)) +
           " " + bn + "=" + std::to_string(int(b.stop));
  }
  if (a.retired != b.retired) {
    return "retired differs: " + an + "=" + std::to_string(a.retired) + " " +
           bn + "=" + std::to_string(b.retired);
  }
  if (a.cycles != b.cycles) {
    return "cycles differ: " + an + "=" + std::to_string(a.cycles) + " " + bn +
           "=" + std::to_string(b.cycles);
  }
  const emu::CpuState& s = a.final_state;
  const emu::CpuState& t = b.final_state;
  for (int r = 0; r < 31; ++r) {
    if (s.x[r] != t.x[r]) {
      return "x" + std::to_string(r) + " differs: " + an + "=" + hx(s.x[r]) +
             " " + bn + "=" + hx(t.x[r]);
    }
  }
  if (s.sp != t.sp) {
    return "sp differs: " + an + "=" + hx(s.sp) + " " + bn + "=" + hx(t.sp);
  }
  if (s.pc != t.pc) {
    return "pc differs: " + an + "=" + hx(s.pc) + " " + bn + "=" + hx(t.pc);
  }
  if (s.n != t.n || s.z != t.z || s.c != t.c || s.v != t.v) {
    return "flags differ";
  }
  for (size_t v = 0; v < s.vr.size(); ++v) {
    if (!(s.vr[v] == t.vr[v])) return "v" + std::to_string(v) + " differs";
  }
  return "";
}

// Runs one completeness pipeline; returns a failure description or "".
std::string RunPipeline(const std::string& src, Rng& rng,
                        const FuzzOptions& opts, std::string* verdict) {
  auto f = asmtext::Parse(src);
  if (!f.ok()) return "parse failed: " + f.error();
  rewriter::RewriteOptions ro;
  constexpr rewriter::OptLevel levels[] = {rewriter::OptLevel::kO0,
                                           rewriter::OptLevel::kO1,
                                           rewriter::OptLevel::kO2};
  ro.level = levels[rng.Below(3)];
  ro.sandbox_loads = rng.Chance(80);
  ro.save_restore_x30 = rng.Chance(80);
  ro.sp_elision = rng.Chance(80);
  auto rw = rewriter::Rewrite(*f, ro);
  if (!rw.ok()) return "rewrite failed: " + rw.error();
  asmtext::LayoutSpec spec;
  spec.text_offset = runtime::kProgramStart;
  auto img = asmtext::Assemble(*rw, spec);
  if (!img.ok()) return "assemble of rewritten text failed: " + img.error();
  verifier::VerifyOptions vo = opts.verify;
  vo.check_loads = ro.sandbox_loads;
  auto v = verifier::Verify(img->text, vo);
  *verdict = VerdictText(v);
  if (!v.ok) {
    const uint64_t off = v.fail_offset;
    std::string word;
    if (off + 4 <= img->text.size()) {
      uint32_t w = 0;
      memcpy(&w, img->text.data() + off, 4);
      word = " (word " + HexWord(w) + ": " + Disasm(w) + ")";
    }
    return "rewriter emitted unverifiable text: " +
           std::string(verifier::FailKindName(v.kind)) + ": " + v.reason +
           word;
  }
  return "";
}

// First difference between two statements, line numbers aside, or "".
std::string StmtDiff(const asmtext::AsmStmt& a, const asmtext::AsmStmt& b) {
  if (a.kind != b.kind) return "kind";
  if (a.label != b.label) return "label";
  if (a.dir.kind != b.dir.kind || a.dir.section != b.dir.section ||
      a.dir.values != b.dir.values || a.dir.syms != b.dir.syms ||
      a.dir.text != b.dir.text) {
    return "directive";
  }
  if (!(a.inst == b.inst)) return "inst";
  if (a.reloc != b.reloc) return "reloc";
  if (a.target != b.target) return "target";
  return "";
}

// Drops source lines one at a time while the check still fails.
std::string MinimizeAsm(
    const std::string& src,
    const std::function<bool(const std::string&)>& still_fails) {
  std::vector<std::string> lines;
  {
    size_t pos = 0;
    while (pos < src.size()) {
      size_t nl = src.find('\n', pos);
      if (nl == std::string::npos) nl = src.size();
      lines.push_back(src.substr(pos, nl - pos));
      pos = nl + 1;
    }
  }
  auto join = [](const std::vector<std::string>& ls) {
    std::string out;
    for (const auto& l : ls) {
      out += l;
      out += '\n';
    }
    return out;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t k = 0; k < lines.size(); ++k) {
      std::vector<std::string> cand = lines;
      cand.erase(cand.begin() + k);
      if (still_fails(join(cand))) {
        lines = std::move(cand);
        changed = true;
        break;
      }
    }
  }
  return join(lines);
}

}  // namespace

std::string FormatArtifact(const CrashArtifact& a) {
  std::string out;
  out += "mode: " + a.mode + "\n";
  out += "iter: " + std::to_string(a.iter) + "\n";
  char seedbuf[32];
  snprintf(seedbuf, sizeof seedbuf, "0x%llx",
           static_cast<unsigned long long>(a.seed));
  out += "seed: " + std::string(seedbuf) + "\n";
  out += "detail: " + a.detail + "\n";
  if (!a.verdict.empty()) out += "verdict: " + a.verdict + "\n";
  if (!a.words.empty()) {
    AppendWords(a.words, "words", &out);
    out += "disasm:\n";
    for (size_t k = 0; k < a.words.size(); ++k) {
      char off[16];
      snprintf(off, sizeof off, "+0x%02zx", k * 4);
      out += "  " + std::string(off) + "  " + HexWord(a.words[k]) + "  " +
             Disasm(a.words[k]) + "\n";
    }
  }
  if (!a.full_words.empty() && a.full_words != a.words) {
    AppendWords(a.full_words, "full-words", &out);
  }
  if (!a.asm_source.empty()) {
    out += "source: |\n";
    size_t pos = 0;
    while (pos < a.asm_source.size()) {
      size_t nl = a.asm_source.find('\n', pos);
      if (nl == std::string::npos) nl = a.asm_source.size();
      out += "  " + a.asm_source.substr(pos, nl - pos) + "\n";
      pos = nl + 1;
    }
  }
  return out;
}

std::string WriteArtifact(const CrashArtifact& a, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path =
      dir + "/" + a.mode + "-" + std::to_string(a.iter) + ".txt";
  std::ofstream f(path);
  if (!f) return "";
  f << FormatArtifact(a);
  return f ? path : "";
}

std::vector<uint32_t> MinimizeWords(
    const std::vector<uint32_t>& words,
    const std::function<bool(const std::vector<uint32_t>&)>& still_fails) {
  if (words.empty()) return words;
  auto prefix = [&words](size_t n) {
    return std::vector<uint32_t>(words.begin(), words.begin() + n);
  };
  // Shortest failing prefix (bisection; failure is usually monotone in
  // prefix length, and when it is not we just end up less minimal).
  size_t lo = 1, hi = words.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (still_fails(prefix(mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  std::vector<uint32_t> cur = prefix(lo);
  if (!still_fails(cur)) cur = words;  // non-monotone; keep the original
  // Nop-out pass: substitution keeps every branch offset stable.
  for (size_t k = 0; k < cur.size(); ++k) {
    if (cur[k] == kNopWord) continue;
    std::vector<uint32_t> cand = cur;
    cand[k] = kNopWord;
    if (still_fails(cand)) cur = std::move(cand);
  }
  return cur;
}

std::string RejectHistogram(const FuzzReport& r) {
  std::string out;
  for (size_t k = 0; k < r.reject_kinds.size(); ++k) {
    if (r.reject_kinds[k] == 0) continue;
    if (!out.empty()) out += " ";
    out += std::string(verifier::FailKindName(verifier::FailKind(k))) + "=" +
           std::to_string(r.reject_kinds[k]);
  }
  return out;
}

FuzzReport RunSoundness(const FuzzOptions& opts) {
  FuzzReport report;
  report.mode = "soundness";
  const auto corpus = SeedCorpusWords();
  for (uint64_t it = 0; it < opts.iters; ++it) {
    const uint64_t iseed = DeriveSeed(opts.seed, it);
    Rng rng(iseed);
    std::vector<uint32_t> words =
        it < corpus.size() ? corpus[it] : GenStream(rng);
    ++report.iters;
    const auto v = verifier::Verify(AsBytes(words), opts.verify);
    if (!v.ok) {
      ++report.rejected;
      ++report.reject_kinds[size_t(v.kind)];
      continue;
    }
    ++report.accepted;
    ExecOptions eo;
    eo.seed = iseed;
    eo.max_insts = opts.max_exec_insts;
    eo.guard_bytes = opts.verify.guard_bytes;
    eo.table_bytes = opts.verify.table_bytes;
    const ExecResult res = ExecuteWords(words, eo);
    ++report.executed;
    if (res.violation.empty()) continue;

    auto fails = [&](const std::vector<uint32_t>& w) {
      if (!verifier::Verify(AsBytes(w), opts.verify).ok) return false;
      return !ExecuteWords(w, eo).violation.empty();
    };
    CrashArtifact a;
    a.mode = "soundness";
    a.iter = it;
    a.seed = iseed;
    a.detail = "SANDBOX ESCAPE: " + res.violation;
    a.verdict = VerdictText(v);
    a.full_words = words;
    a.words = MinimizeWords(words, fails);
    RecordCrash(opts, &report, std::move(a));
    if (report.crashes.size() >= opts.max_crashes) break;
  }
  return report;
}

FuzzReport RunDifferential(const FuzzOptions& opts) {
  FuzzReport report;
  report.mode = "differential";
  const auto corpus = SeedCorpusWords();
  for (uint64_t it = 0; it < opts.iters; ++it) {
    const uint64_t iseed = DeriveSeed(opts.seed, it);
    Rng rng(iseed);
    std::vector<uint32_t> words =
        it < corpus.size() ? corpus[it] : GenStream(rng);
    ++report.iters;
    const auto v = verifier::Verify(AsBytes(words), opts.verify);
    if (!v.ok) {
      ++report.rejected;
      ++report.reject_kinds[size_t(v.kind)];
      continue;
    }
    ++report.accepted;
    ExecOptions eo;
    eo.seed = iseed;
    eo.max_insts = opts.max_exec_insts;
    eo.guard_bytes = opts.verify.guard_bytes;
    eo.table_bytes = opts.verify.table_bytes;
    eo.dispatch = emu::Dispatch::kBlock;
    const ExecResult rb = ExecuteWords(words, eo);
    const ExecResult rs = ExecuteWordsStepwise(words, eo);
    ++report.executed;
    const std::string diff = DescribeDiff(rb, rs, "block", "stepwise");
    const std::string viol =
        !rb.violation.empty() ? rb.violation : rs.violation;
    if (diff.empty() && viol.empty()) continue;

    CrashArtifact a;
    a.mode = "differential";
    a.iter = it;
    a.seed = iseed;
    a.detail = !diff.empty() ? "block/stepwise divergence: " + diff
                             : "SANDBOX ESCAPE (during differential): " + viol;
    a.verdict = VerdictText(v);
    a.full_words = words;
    if (!diff.empty()) {
      auto fails = [&](const std::vector<uint32_t>& w) {
        if (!verifier::Verify(AsBytes(w), opts.verify).ok) return false;
        return !DescribeDiff(ExecuteWords(w, eo), ExecuteWordsStepwise(w, eo),
                             "block", "stepwise")
                    .empty();
      };
      a.words = MinimizeWords(words, fails);
    } else {
      a.words = words;
    }
    RecordCrash(opts, &report, std::move(a));
    if (report.crashes.size() >= opts.max_crashes) break;
  }
  return report;
}

FuzzReport RunChainedDifferential(const FuzzOptions& opts) {
  FuzzReport report;
  report.mode = "chained";
  const auto corpus = SeedCorpusWords();
  for (uint64_t it = 0; it < opts.iters; ++it) {
    const uint64_t iseed = DeriveSeed(opts.seed, it);
    Rng rng(iseed);
    std::vector<uint32_t> words =
        it < corpus.size() ? corpus[it] : GenStream(rng);
    ++report.iters;
    const auto v = verifier::Verify(AsBytes(words), opts.verify);
    if (!v.ok) {
      ++report.rejected;
      ++report.reject_kinds[size_t(v.kind)];
      continue;
    }
    ++report.accepted;
    // Both runs are hook-free: with an ExecHook attached the chained
    // backend delegates to the reference loop and the comparison proves
    // nothing. The soundness oracle still covers these streams in the
    // soundness/differential modes.
    ExecOptions eo;
    eo.seed = iseed;
    eo.max_insts = opts.max_exec_insts;
    eo.guard_bytes = opts.verify.guard_bytes;
    eo.table_bytes = opts.verify.table_bytes;
    eo.attach_checker = false;
    eo.dispatch = emu::Dispatch::kChained;
    const ExecResult rc = ExecuteWords(words, eo);
    eo.dispatch = emu::Dispatch::kBlock;
    const ExecResult rb = ExecuteWords(words, eo);
    ++report.executed;
    const std::string diff = DescribeDiff(rc, rb, "chained", "block");
    if (diff.empty()) continue;

    CrashArtifact a;
    a.mode = "chained";
    a.iter = it;
    a.seed = iseed;
    a.detail = "chained/block divergence: " + diff;
    a.verdict = VerdictText(v);
    a.full_words = words;
    auto fails = [&](const std::vector<uint32_t>& w) {
      if (!verifier::Verify(AsBytes(w), opts.verify).ok) return false;
      ExecOptions e2 = eo;
      e2.dispatch = emu::Dispatch::kChained;
      const ExecResult c2 = ExecuteWords(w, e2);
      e2.dispatch = emu::Dispatch::kBlock;
      const ExecResult b2 = ExecuteWords(w, e2);
      return !DescribeDiff(c2, b2, "chained", "block").empty();
    };
    a.words = MinimizeWords(words, fails);
    RecordCrash(opts, &report, std::move(a));
    if (report.crashes.size() >= opts.max_crashes) break;
  }
  return report;
}

namespace {

// Hashes the externally visible execution trace: pc stream, attempted
// accesses, fault flags. Cycle counts are deliberately excluded — timing
// state (caches, predictor warmth) is history-dependent and not part of
// what a snapshot promises to reproduce.
class TraceHashRecorder : public emu::ExecHook {
 public:
  bool OnInst(const arch::Inst&, uint64_t pc, const emu::CpuState&,
              std::span<const emu::AccessRecord> accesses,
              bool faulted) override {
    Mix(pc);
    for (const auto& a : accesses) {
      Mix(a.addr);
      Mix(a.size);
      Mix(uint64_t(a.kind));
    }
    Mix(faulted ? 1 : 0);
    ++insts_;
    return true;
  }
  uint64_t hash() const { return h_; }
  uint64_t insts() const { return insts_; }

 private:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  uint64_t h_ = 14695981039346656037ull;
  uint64_t insts_ = 0;
};

}  // namespace

FuzzReport RunSnapshotOracle(const FuzzOptions& opts) {
  FuzzReport report;
  report.mode = "snapshot";
  const auto corpus = SeedCorpusWords();
  for (uint64_t it = 0; it < opts.iters; ++it) {
    const uint64_t iseed = DeriveSeed(opts.seed, it);
    Rng rng(iseed);
    std::vector<uint32_t> words =
        it < corpus.size() ? corpus[it] : GenStream(rng);
    ++report.iters;
    const auto v = verifier::Verify(AsBytes(words), opts.verify);
    if (!v.ok) {
      ++report.rejected;
      ++report.reject_kinds[size_t(v.kind)];
      continue;
    }
    ++report.accepted;

    ExecOptions eo;
    eo.seed = iseed;
    eo.max_insts = opts.max_exec_insts;
    eo.guard_bytes = opts.verify.guard_bytes;
    eo.table_bytes = opts.verify.table_bytes;

    ExecEnv env(words, eo);
    emu::Machine& m = env.machine();

    // Phase 1: run the first half of the budget, then freeze mid-flight
    // (whatever state the program reached — a mid-loop checkpoint is the
    // interesting case; a program that already stopped just makes the
    // comparison trivially exact).
    const uint64_t n = opts.max_exec_insts / 2;
    (void)m.Run(n);
    const ExecEnv::Checkpoint ck = env.Capture();

    // Phase 2 (reference): run the second half, hashing the trace.
    const uint64_t budget = opts.max_exec_insts - n;
    TraceHashRecorder ref;
    m.set_exec_hook(&ref);
    const emu::StopReason stop_ref = m.Run(budget);
    m.set_exec_hook(nullptr);
    const emu::CpuState end_ref = m.state();

    // Roll back and check the restore converged exactly: registers equal
    // the checkpoint's and every page payload is pointer-identical again.
    (void)env.Restore(ck);
    std::string divergence;
    if (!(m.state() == ck.cpu)) {
      divergence = "registers differ immediately after restore";
    }
    const ExecEnv::Checkpoint ck2 = env.Capture();
    if (divergence.empty() && ck2.pages.size() != ck.pages.size()) {
      divergence = "mapped page set changed across snapshot/restore";
    }
    if (divergence.empty()) {
      for (size_t k = 0; k < ck.pages.size(); ++k) {
        if (ck2.pages[k].data.get() != ck.pages[k].data.get() ||
            ck2.pages[k].perms != ck.pages[k].perms) {
          char buf[64];
          snprintf(buf, sizeof buf,
                   "page 0x%llx not restored to the captured payload",
                   static_cast<unsigned long long>(ck.pages[k].addr));
          divergence = buf;
          break;
        }
      }
    }

    // Phase 3 (replay): re-run the same budget from the restored state.
    TraceHashRecorder rep;
    m.set_exec_hook(&rep);
    const emu::StopReason stop_rep = m.Run(budget);
    m.set_exec_hook(nullptr);
    const emu::CpuState end_rep = m.state();
    ++report.executed;

    if (divergence.empty()) {
      auto u64 = [](uint64_t x) { return std::to_string(x); };
      if (stop_rep != stop_ref) {
        divergence = "stop reason differs: reference " +
                     u64(uint64_t(stop_ref)) + " vs replay " +
                     u64(uint64_t(stop_rep));
      } else if (ref.insts() != rep.insts()) {
        divergence = "retired count differs: reference " + u64(ref.insts()) +
                     " vs replay " + u64(rep.insts());
      } else if (ref.hash() != rep.hash()) {
        divergence = "pc/access trace hash differs across restore";
      } else if (!(end_ref == end_rep)) {
        divergence = "final registers differ across restore";
      }
    }
    if (divergence.empty()) continue;

    CrashArtifact a;
    a.mode = "snapshot";
    a.iter = it;
    a.seed = iseed;
    a.detail = "snapshot/restore divergence: " + divergence;
    a.verdict = VerdictText(v);
    a.words = words;
    a.full_words = words;
    RecordCrash(opts, &report, std::move(a));
    if (report.crashes.size() >= opts.max_crashes) break;
  }
  return report;
}

FuzzReport RunCompleteness(const FuzzOptions& opts) {
  FuzzReport report;
  report.mode = "completeness";
  const auto corpus = SeedCorpusAsm();
  for (uint64_t it = 0; it < opts.iters; ++it) {
    const uint64_t iseed = DeriveSeed(opts.seed, it);
    Rng rng(iseed);
    const std::string src =
        it < corpus.size() ? corpus[it] : GenAsmProgram(rng);
    ++report.iters;
    std::string verdict;
    Rng pipe_rng(iseed);  // pipeline options derive from the same seed
    const std::string err = RunPipeline(src, pipe_rng, opts, &verdict);
    if (err.empty()) {
      ++report.accepted;
      continue;
    }
    auto fails = [&](const std::string& s) {
      if (s.empty()) return false;
      Rng r2(iseed);
      std::string v2;
      return !RunPipeline(s, r2, opts, &v2).empty();
    };
    CrashArtifact a;
    a.mode = "completeness";
    a.iter = it;
    a.seed = iseed;
    a.detail = err;
    a.verdict = verdict;
    a.asm_source = MinimizeAsm(src, fails);
    RecordCrash(opts, &report, std::move(a));
    if (report.crashes.size() >= opts.max_crashes) break;
  }
  return report;
}

std::string CheckParseRoundTrip(const std::string& src, bool* accepted) {
  const auto first = asmtext::Parse(src);
  *accepted = first.ok();
  if (!first.ok()) return "";
  const std::string printed = asmtext::Print(*first);
  const auto second = asmtext::Parse(printed);
  if (!second.ok()) return "printed text does not parse: " + second.error();
  const auto& a = first->stmts;
  const auto& b = second->stmts;
  for (size_t k = 0; k < std::min(a.size(), b.size()); ++k) {
    const std::string diff = StmtDiff(a[k], b[k]);
    if (!diff.empty()) {
      return "statement " + std::to_string(k) + " (line " +
             std::to_string(a[k].line) + ", printed `" +
             asmtext::PrintStmt(a[k]) + "`) differs in " + diff;
    }
  }
  if (a.size() != b.size()) {
    return "statement count " + std::to_string(a.size()) + " -> " +
           std::to_string(b.size());
  }
  return "";
}

FuzzReport RunParseFuzz(const FuzzOptions& opts) {
  FuzzReport report;
  report.mode = "parse";
  const auto corpus = SeedCorpusAsm();
  for (uint64_t it = 0; it < opts.iters; ++it) {
    const uint64_t iseed = DeriveSeed(opts.seed, it);
    Rng rng(iseed);
    std::string src = it < corpus.size() ? corpus[it] : GenAsmProgram(rng);
    MutateAsmText(rng, &src);
    ++report.iters;
    bool accepted = false;
    const std::string err = CheckParseRoundTrip(src, &accepted);
    if (!accepted) {
      ++report.rejected;
      continue;
    }
    ++report.accepted;
    ++report.executed;  // round trips checked
    if (err.empty()) continue;
    CrashArtifact a;
    a.mode = "parse";
    a.iter = it;
    a.seed = iseed;
    a.detail = err;
    a.asm_source = MinimizeAsm(src, [](const std::string& s) {
      bool ok = false;
      return !CheckParseRoundTrip(s, &ok).empty();
    });
    RecordCrash(opts, &report, std::move(a));
    if (report.crashes.size() >= opts.max_crashes) break;
  }
  return report;
}

}  // namespace lfi::fuzz
