#include "fuzz/fuzz.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "arch/decode.h"
#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "asmtext/printer.h"
#include "fuzz/gen.h"
#include "rewriter/rewriter.h"
#include "runtime/layout.h"
#include "runtime/runtime.h"

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

std::string Hex64(uint64_t v) {
  char buf[32];
  snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
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

// Soundness/differential stream generation shared policy: a mix of raw
// random words, template streams, and near-miss mutants.
std::vector<uint32_t> GenStream(Rng& rng) {
  const uint64_t pct = rng.Below(100);
  if (pct < 20) return GenRandomWords(rng, 4 + rng.Below(60));
  std::vector<uint32_t> words = GenTemplateStream(rng, 2 + rng.Below(24));
  if (pct >= 65) MutateStream(rng, &words);
  return words;
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
  auto img = asmtext::Assemble(*rw, asmtext::LayoutSpec{});
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
  if (a.sym != b.sym) return "sym";
  if (a.dir.kind != b.dir.kind || a.dir.section != b.dir.section ||
      a.dir.values != b.dir.values || a.dir.syms != b.dir.syms) {
    return "directive";
  }
  if (!(a.inst == b.inst)) return "inst";
  if (a.reloc != b.reloc) return "reloc";
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
  out += "seed: " + Hex64(a.seed) + "\n";
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

CrashArtifact ParseArtifact(const std::string& text) {
  CrashArtifact a;
  std::istringstream in(text);
  std::string line;
  bool in_source = false;
  while (std::getline(in, line)) {
    if (in_source && line.rfind("  ", 0) == 0) {
      a.asm_source += line.substr(2) + "\n";
      continue;
    }
    in_source = line == "source: |";
    const size_t colon = std::min(line.find(": "), line.size());
    const std::string key = line.substr(0, colon);
    const char* value = line.c_str() + std::min(colon + 2, line.size());
    if (key == "mode") a.mode = value;
    if (key == "iter") a.iter = strtoull(value, nullptr, 10);
    if (key == "seed") a.seed = strtoull(value, nullptr, 16);
    if (key == "words") {
      char* end = nullptr;
      for (const char* p = value;; p = end) {
        const unsigned long long w = strtoull(p, &end, 16);
        if (end == p) break;
        a.words.push_back(static_cast<uint32_t>(w));
      }
    }
  }
  return a;
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

void RecordCrash(const FuzzOptions& opts, FuzzReport* report,
                 CrashArtifact a) {
  if (!opts.artifact_dir.empty()) {
    a.path = WriteArtifact(a, opts.artifact_dir);
  }
  report->crashes.push_back(std::move(a));
}

FuzzReport Drive(const std::string& mode, const FuzzOptions& opts,
                 const Step& step) {
  FuzzReport report;
  report.mode = mode;
  for (uint64_t it = 0; it < opts.iters; ++it) {
    const uint64_t iseed = DeriveSeed(opts.seed, it);
    Outcome o = step(it, iseed);
    using V = Outcome::Verdict;
    ++report.iters;
    report.rejected += o.verdict == V::kRejected;
    report.accepted += o.verdict == V::kAccepted || o.verdict == V::kExecuted;
    report.executed += o.verdict == V::kExecuted;
    if (o.reject_kind) ++report.reject_kinds[size_t(*o.reject_kind)];
    for (CrashArtifact& a : o.crashes) {
      a.mode = mode;
      a.iter = it;
      a.seed = iseed;
      RecordCrash(opts, &report, std::move(a));
    }
    if (o.stop ||
        (!o.crashes.empty() && report.crashes.size() >= opts.max_crashes)) {
      break;
    }
  }
  return report;
}

std::string DescribeDiff(const ExecResult& a, const ExecResult& b,
                         const std::string& an, const std::string& bn) {
  auto differ = [&](const std::string& what, const std::string& x,
                    const std::string& y) {
    return what + ": " + an + "=" + x + " " + bn + "=" + y;
  };
  using std::to_string;
  if (a.stop != b.stop) {
    return differ("stop reason differs", to_string(int(a.stop)),
                  to_string(int(b.stop)));
  }
  if (a.retired != b.retired) {
    return differ("retired differs", to_string(a.retired),
                  to_string(b.retired));
  }
  if (a.cycles != b.cycles) {
    return differ("cycles differ", to_string(a.cycles), to_string(b.cycles));
  }
  const emu::CpuState& s = a.final_state;
  const emu::CpuState& t = b.final_state;
  for (int r = 0; r < 31; ++r) {
    if (s.x[r] != t.x[r]) {
      return differ("x" + to_string(r) + " differs", Hex64(s.x[r]),
                    Hex64(t.x[r]));
    }
  }
  if (s.sp != t.sp) return differ("sp differs", Hex64(s.sp), Hex64(t.sp));
  if (s.pc != t.pc) return differ("pc differs", Hex64(s.pc), Hex64(t.pc));
  if (s.n != t.n || s.z != t.z || s.c != t.c || s.v != t.v) {
    return "flags differ";
  }
  for (size_t v = 0; v < s.vr.size(); ++v) {
    if (!(s.vr[v] == t.vr[v])) return "v" + to_string(v) + " differs";
  }
  if (s.excl_valid != t.excl_valid || s.excl_addr != t.excl_addr) {
    return "exclusive monitor differs";
  }
  if (a.stop == emu::StopReason::kFault) {
    const emu::CpuFault& f = a.fault;
    const emu::CpuFault& g = b.fault;
    if (f.kind != g.kind) {
      return differ("fault kind differs", to_string(int(f.kind)),
                    to_string(int(g.kind)));
    }
    if (f.pc != g.pc) {
      return differ("fault pc differs", Hex64(f.pc), Hex64(g.pc));
    }
    if (f.mem.addr != g.mem.addr) {
      return differ("fault address differs", Hex64(f.mem.addr),
                    Hex64(g.mem.addr));
    }
    if (f.detail != g.detail) return "fault detail differs";
  }
  if (a.memory != b.memory) return "data/stack memory differs";
  return "";
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


// The word modes' oracles: each runs one accepted stream and returns ""
// or what went wrong.
using Oracle = std::string (*)(std::span<const uint32_t>, const ExecOptions&);

std::string SoundnessOracle(std::span<const uint32_t> words,
                            const ExecOptions& eo) {
  const std::string v = ExecuteWords(words, eo).violation;
  return v.empty() ? "" : "SANDBOX ESCAPE: " + v;
}

std::string DifferentialOracle(std::span<const uint32_t> words,
                               const ExecOptions& eo) {
  const ExecResult rb = ExecuteWords(words, eo);
  const ExecResult rs = ExecuteWordsStepwise(words, eo);
  const std::string diff = DescribeDiff(rb, rs, "block", "stepwise");
  if (!diff.empty()) return "block/stepwise divergence: " + diff;
  const std::string& v = !rb.violation.empty() ? rb.violation : rs.violation;
  return v.empty() ? "" : "SANDBOX ESCAPE (during differential): " + v;
}

// Both runs are hook-free: with an ExecHook attached the chained backend
// delegates to the reference loop and the comparison proves nothing. The
// soundness and differential modes run the checker over these streams.
std::string ChainedOracle(std::span<const uint32_t> words,
                          const ExecOptions& eo) {
  ExecOptions e = eo;
  e.attach_checker = false;
  e.dispatch = emu::Dispatch::kChained;
  const ExecResult rc = ExecuteWords(words, e);
  e.dispatch = emu::Dispatch::kBlock;
  const std::string diff =
      DescribeDiff(rc, ExecuteWords(words, e), "chained", "block");
  return diff.empty() ? "" : "chained/block divergence: " + diff;
}

// True when the runtime can capture `s` faithfully. Capture keeps the low
// 32 bits of pc, sp, x18, x23, x24 and x30 and restore ORs the slot base
// back in, so each must already be in the slot: a run stopped at a
// runtime entry, for one, is not capturable.
bool Capturable(const emu::CpuState& s, uint64_t base) {
  for (uint64_t v : {s.pc, s.sp, s.x[18], s.x[23], s.x[24], s.x[30]}) {
    if (v - base >= runtime::kSlotSize) return false;
  }
  return true;
}

// `s` as a snapshot records it: an invalid exclusive monitor's address is
// architecturally dead, and capture drops it.
emu::CpuState Architectural(emu::CpuState s) {
  if (!s.excl_valid) s.excl_addr = 0;
  return s;
}

// Capture and restore are the runtime's own (Runtime::CaptureSnapshot and
// RestoreFromSnapshot, the path serving's Recycle takes), applied to the
// harness's proc.
std::string SnapshotOracle(std::span<const uint32_t> words,
                           const ExecOptions& eo) {
  // Phase 1: run to half of the stream's own retired count (a hook-free
  // dry run counts it), then on to the first boundary the runtime can
  // capture, and freeze there. A stream that stops first compares
  // nothing.
  ExecOptions dry = eo;
  dry.attach_checker = false;
  uint64_t at = ExecuteWords(words, dry).retired / 2;
  ExecEnv env(words, eo);
  if (!env.error().empty()) {
    return "the loader refused the stream: " + env.error();
  }
  emu::Machine& m = env.machine();
  runtime::Runtime& rt = env.runtime();
  runtime::Proc& proc = *rt.proc(env.pid());
  if (m.Run(at) != emu::StopReason::kInstLimit) return "";
  while (!Capturable(m.state(), env.base())) {
    if (at == eo.max_insts || m.Run(1) != emu::StopReason::kInstLimit) {
      return "";
    }
    ++at;
  }
  const emu::CpuState frozen = Architectural(m.state());
  proc.cpu = m.state();
  const auto ck = rt.CaptureSnapshot(env.pid());
  if (!ck.ok()) return "capture failed: " + ck.error();

  // Phase 2 (reference): run the rest of the budget, hashing the trace.
  const uint64_t budget = eo.max_insts - at;
  TraceHashRecorder ref;
  m.set_exec_hook(&ref);
  const emu::StopReason stop_ref = m.Run(budget);
  m.set_exec_hook(nullptr);
  const emu::CpuState end_ref = Architectural(m.state());

  // Roll back and check the restore converged exactly: registers equal
  // the captured ones and every page payload is pointer-identical again.
  if (auto st = rt.RestoreFromSnapshot(env.pid(), *ck); !st.ok()) {
    return "restore failed: " + st.error();
  }
  m.state() = proc.cpu;
  std::string divergence;
  if (!(m.state() == frozen)) {
    divergence = "registers differ immediately after restore";
  }
  const auto ck2 = rt.CaptureSnapshot(env.pid());
  if (divergence.empty() &&
      (!ck2.ok() || ck2->mappings != ck->mappings ||
       ck2->pages.size() != ck->pages.size())) {
    divergence = "mapped page set changed across snapshot/restore";
  }
  for (size_t k = 0; divergence.empty() && k < ck->pages.size(); ++k) {
    const snapshot::PageRec& want = ck->pages[k];
    const snapshot::PageRec& got = ck2->pages[k];
    if (got.offset != want.offset || got.data != want.data ||
        got.perms != want.perms) {
      divergence = "page " + Hex64(want.offset) +
                   " not restored to the captured payload";
    }
  }

  // Phase 3 (replay): re-run the same budget from the restored state.
  TraceHashRecorder rep;
  m.set_exec_hook(&rep);
  const emu::StopReason stop_rep = m.Run(budget);
  m.set_exec_hook(nullptr);
  const emu::CpuState end_rep = Architectural(m.state());

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
  return divergence.empty() ? "" : "snapshot/restore divergence: " + divergence;
}

const struct {
  const char* mode;
  Oracle oracle;
} kWordModes[] = {
    {"soundness", SoundnessOracle},
    {"differential", DifferentialOracle},
    {"chained", ChainedOracle},
    {"snapshot", SnapshotOracle},
};

Oracle WordOracle(const std::string& mode) {
  for (const auto& m : kWordModes) {
    if (mode == m.mode) return m.oracle;
  }
  return nullptr;
}

// The word modes' check: Verify, then the oracle on the accepted stream.
// A finding carries the stream minimized under the same two conditions.
Outcome CheckWords(const std::vector<uint32_t>& words, uint64_t iseed,
                   const FuzzOptions& opts, Oracle oracle) {
  Outcome o;
  const auto v = verifier::Verify(AsBytes(words), opts.verify);
  if (!v.ok) {
    o.verdict = Outcome::Verdict::kRejected;
    o.reject_kind = v.kind;
    return o;
  }
  o.verdict = Outcome::Verdict::kExecuted;
  ExecOptions eo;
  eo.seed = iseed;
  eo.max_insts = opts.max_exec_insts;
  std::string detail = oracle(words, eo);
  if (detail.empty()) return o;
  CrashArtifact a;
  a.detail = std::move(detail);
  a.verdict = VerdictText(v);
  a.full_words = words;
  a.words = MinimizeWords(words, [&](const std::vector<uint32_t>& w) {
    return verifier::Verify(AsBytes(w), opts.verify).ok &&
           !oracle(w, eo).empty();
  });
  o.crashes.push_back(std::move(a));
  return o;
}

FuzzReport RunWords(const std::string& mode, const FuzzOptions& opts) {
  const Oracle oracle = WordOracle(mode);
  const auto corpus = SeedCorpusWords();
  return Drive(mode, opts, [&](uint64_t it, uint64_t iseed) {
    Rng rng(iseed);
    return CheckWords(it < corpus.size() ? corpus[it] : GenStream(rng), iseed,
                      opts, oracle);
  });
}

// The completeness check: the pipeline's options come from Rng(iseed).
Outcome CheckPipeline(const std::string& src, uint64_t iseed,
                      const FuzzOptions& opts) {
  auto run = [&](const std::string& s, std::string* verdict) {
    Rng rng(iseed);
    return RunPipeline(s, rng, opts, verdict);
  };
  Outcome o;
  CrashArtifact a;
  a.detail = run(src, &a.verdict);
  if (a.detail.empty()) {
    o.verdict = Outcome::Verdict::kAccepted;
    return o;
  }
  a.asm_source = MinimizeAsm(src, [&](const std::string& s) {
    std::string verdict;
    return !s.empty() && !run(s, &verdict).empty();
  });
  o.crashes.push_back(std::move(a));
  return o;
}

Outcome CheckParse(const std::string& src) {
  Outcome o;
  bool accepted = false;
  CrashArtifact a;
  a.detail = CheckParseRoundTrip(src, &accepted);
  o.verdict = accepted ? Outcome::Verdict::kExecuted  // round trip checked
                       : Outcome::Verdict::kRejected;
  if (a.detail.empty()) return o;
  a.asm_source = MinimizeAsm(src, [](const std::string& s) {
    bool ok = false;
    return !CheckParseRoundTrip(s, &ok).empty();
  });
  o.crashes.push_back(std::move(a));
  return o;
}

}  // namespace

FuzzReport RunSoundness(const FuzzOptions& opts) {
  return RunWords("soundness", opts);
}

FuzzReport RunDifferential(const FuzzOptions& opts) {
  return RunWords("differential", opts);
}

FuzzReport RunChainedDifferential(const FuzzOptions& opts) {
  return RunWords("chained", opts);
}

FuzzReport RunSnapshotOracle(const FuzzOptions& opts) {
  return RunWords("snapshot", opts);
}

FuzzReport RunCompleteness(const FuzzOptions& opts) {
  const auto corpus = SeedCorpusAsm();
  return Drive("completeness", opts, [&](uint64_t it, uint64_t iseed) {
    Rng rng(iseed);
    return CheckPipeline(it < corpus.size() ? corpus[it] : GenAsmProgram(rng),
                         iseed, opts);
  });
}

FuzzReport RunParseFuzz(const FuzzOptions& opts) {
  const auto corpus = SeedCorpusAsm();
  return Drive("parse", opts, [&](uint64_t it, uint64_t iseed) {
    Rng rng(iseed);
    std::string src = it < corpus.size() ? corpus[it] : GenAsmProgram(rng);
    MutateAsmText(rng, &src);
    return CheckParse(src);
  });
}

int Replay(const CrashArtifact& a, const FuzzOptions& opts, std::string* out) {
  if (a.mode.empty()) {
    *out = "no mode: line";
    return 2;
  }
  *out = a.mode + " seed=" + Hex64(a.seed) + ": ";
  Outcome o;
  if (const Oracle oracle = WordOracle(a.mode)) {
    if (a.words.empty()) {
      *out += "no words: line";
      return 2;
    }
    o = CheckWords(a.words, a.seed, opts, oracle);
  } else if (a.mode == "completeness" || a.mode == "parse") {
    if (a.asm_source.empty()) {
      *out += "no source: block";
      return 2;
    }
    o = a.mode == "parse" ? CheckParse(a.asm_source)
                          : CheckPipeline(a.asm_source, a.seed, opts);
  } else if (a.mode == "snapshot-file") {
    o = SnapshotFileStep()(a.iter, a.seed);
  } else {
    *out += "not replayable in isolation";
    return 2;
  }
  if (!o.crashes.empty()) {
    *out += "STILL FAILS: " + o.crashes[0].detail;
    return 1;
  }
  if (o.verdict != Outcome::Verdict::kRejected) {
    *out += "passes -- fixed";
  } else if (o.reject_kind) {
    *out += std::string("now rejected (") +
            verifier::FailKindName(*o.reject_kind) + ") -- fixed";
  } else {
    *out += "now rejected -- fixed";
  }
  return 0;
}

}  // namespace lfi::fuzz
