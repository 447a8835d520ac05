// ingest: a seeded stream of modules is built and then admitted as
// untrusted bytes; nothing executes. Most modules are small programs in
// the fuzz::GenAsmProgram grammar, two are composed modules of at least
// 1 MB of O2 text, and about one small module in eight is broken on
// purpose after rewriting, so its verifier verdict (FailKind and offset)
// is known from how it was built. Each module goes parse -> rewrite O2 ->
// assemble -> ELF write, then elf::Read -> Runtime::LoadImage (verify and
// map); accepted modules are captured, serialized, deserialized and
// spawned parked from the decoded snapshot.
#include <algorithm>
#include <chrono>

#include "asmtext/parser.h"
#include "common.h"
#include "elf/elf.h"
#include "fuzz/gen.h"
#include "fuzz/rng.h"
#include "snapshot/snapshot.h"

namespace perfbench {
namespace {

using lfi::verifier::FailKind;

constexpr int kSmallModules = 240;
constexpr size_t kBigModules = 2;
// Sub-programs per composed module: enough for >= 1 MB of O2 text.
constexpr int kBigParts = 7000;
constexpr uint64_t kBigMinText = 1000000;

// A violation injected after rewriting, so the rewriter never sees it.
// `line` is one assembly statement; an empty line means a raw undecodable
// word.
struct Violation {
  FailKind kind;
  const char* line;
};
constexpr Violation kViolations[] = {
    {FailKind::kSystemInstruction, "svc #0"},
    {FailKind::kBaseRegWrite, "add x21, x21, #1"},
    {FailKind::kBadAddressingMode, "str x0, [x25]"},
    {FailKind::kUnguardedIndirectBranch, "br x9"},
    {FailKind::kScratchRegWrite, "add x22, x0, #0"},
    {FailKind::kAddressRegWrite, "mov x18, x0"},
    {FailKind::kUndecodable, ""},
};

struct Module {
  std::string src;
  bool big = false;
  // Broken modules: which violation, and whether it goes first in .text
  // (fail offset 0) or last (fail offset = text size - 4).
  int violation = -1;
  bool at_end = false;
  uint64_t native_text = 0;  // reference build, for code growth
};

void ReplaceAll(std::string* s, const std::string& from,
                const std::string& to) {
  for (size_t pos = s->find(from); pos != std::string::npos;
       pos = s->find(from, pos + to.size())) {
    s->replace(pos, from.size(), to);
  }
}

// Concatenates `parts` generated programs into one module, renaming each
// program's labels and data symbol apart.
std::string ComposeBig(lfi::fuzz::Rng& rng, int parts) {
  const std::string header = ".text\n.globl _start\n_start:\n";
  std::string text = header, data = ".data\n";
  for (int k = 0; k < parts; ++k) {
    std::string p = lfi::fuzz::GenAsmProgram(rng);
    const size_t d = p.find(".data\n");
    std::string body = p.substr(header.size(), d - header.size());
    std::string dat = p.substr(d + 6);
    const std::string tag = std::to_string(k);
    ReplaceAll(&body, ".Lfz", ".Lm" + tag + "_");
    ReplaceAll(&body, "fzdat", "fzd" + tag);
    ReplaceAll(&dat, "fzdat", "fzd" + tag);
    text += body;
    data += dat;
  }
  return text + data;
}

// Inserts the violation as the first or last statement of .text.
void Inject(const Module& m, lfi::asmtext::AsmFile* file) {
  const Violation& v = kViolations[m.violation];
  lfi::asmtext::AsmStmt stmt;
  if (v.line[0] == '\0') {
    stmt.kind = lfi::asmtext::AsmStmt::Kind::kDirective;
    stmt.dir.kind = lfi::asmtext::Directive::Kind::kWord;
    stmt.dir.values = {0xffffffff};
    stmt.dir.syms = {""};
  } else {
    stmt = *lfi::asmtext::ParseInst(v.line);
  }
  auto& st = file->stmts;
  bool in_text = true;
  size_t first = st.size(), last_end = st.size();
  for (size_t i = 0; i < st.size(); ++i) {
    const auto& s = st[i];
    if (s.kind == lfi::asmtext::AsmStmt::Kind::kDirective &&
        s.dir.kind == lfi::asmtext::Directive::Kind::kSection) {
      in_text = s.dir.section == lfi::asmtext::Section::kText;
      continue;
    }
    if (in_text && s.kind == lfi::asmtext::AsmStmt::Kind::kInst) {
      if (first == st.size()) first = i;
      last_end = i + 1;
    }
  }
  st.insert(st.begin() + static_cast<long>(m.at_end ? last_end : first),
            stmt);
}

class Ingest : public Workload {
 public:
  bool Setup(uint64_t seed, Tracer* t, std::string* err) override {
    modules_.clear();
    lfi::fuzz::Rng rng(lfi::fuzz::DeriveSeed(seed, 0x1d6e57));
    const int total = kSmallModules + kBigModules;
    std::vector<uint64_t> big_at;
    while (big_at.size() < kBigModules) {
      const uint64_t at = rng.Below(total);
      if (std::find(big_at.begin(), big_at.end(), at) == big_at.end()) {
        big_at.push_back(at);
      }
    }
    for (int i = 0; i < total; ++i) {
      Module m;
      if (std::find(big_at.begin(), big_at.end(), i) != big_at.end()) {
        m.big = true;
        m.src = ComposeBig(rng, kBigParts);
      } else {
        m.src = lfi::fuzz::GenAsmProgram(rng);
        if (rng.Below(8) == 0) {
          m.violation = static_cast<int>(rng.Below(std::size(kViolations)));
          m.at_end = rng.Chance(50);
        }
      }
      modules_.push_back(std::move(m));
    }
    for (size_t i = 0; i < modules_.size(); ++i) {
      Module& m = modules_[i];
      if (m.violation >= 0) continue;
      const Built b = BuildModule(m.src, false, t, i);
      if (!b.ok) {
        *err = "module " + std::to_string(i) + " native: " + b.error;
        return false;
      }
      m.native_text = b.text_bytes;
    }
    return true;
  }

  RoundResult Round(Tracer* t) override {
    RoundResult r;
    auto rt = NewRuntime(true, t, 0);
    double build_s = 0, admit_s = 0;
    uint64_t src_bytes = 0, admitted_bytes = 0, rejects = 0;
    uint64_t o2_text = 0, native_text = 0, inserted = 0, hoisted = 0;
    for (size_t i = 0; i < modules_.size(); ++i) {
      const Module& m = modules_[i];
      const std::string tag = "module " + std::to_string(i);
      auto t0 = std::chrono::steady_clock::now();
      AsmEdit inject;
      if (m.violation >= 0) {
        inject = [&m](lfi::asmtext::AsmFile* f) { Inject(m, f); };
      }
      const Built b = BuildModule(m.src, true, t, i, inject);
      build_s += SecondsSince(t0);
      src_bytes += m.src.size();
      if (!b.ok) {
        r.Check(false, tag + " build: " + b.error);
        continue;
      }
      inserted += b.rewrite.guards_inserted;
      hoisted += b.rewrite.guards_hoisted;
      if (m.violation < 0) {
        o2_text += b.text_bytes;
        native_text += m.native_text;
      }
      const auto t1 = std::chrono::steady_clock::now();
      admitted_bytes += b.elf.size() + Admit(rt.get(), m, b, t, i, &r, tag);
      admit_s += SecondsSince(t1);
      r.unit_s.push_back(SecondsSince(t0));
      if (m.violation >= 0) ++rejects;
      if (m.big) {
        r.Check(b.text_bytes >= kBigMinText,
                tag + " composed text only " + std::to_string(b.text_bytes));
      }
    }
    r.exact["code_growth_pct"] =
        100.0 * (static_cast<double>(o2_text) /
                     static_cast<double>(native_text) -
                 1.0);
    r.exact["modules"] = static_cast<double>(modules_.size());
    r.exact["rejects"] = static_cast<double>(rejects);
    r.exact["src_bytes"] = static_cast<double>(src_bytes);
    r.host["build_mb_per_s"] = static_cast<double>(src_bytes) / build_s / 1e6;
    r.host["load_mb_per_s"] =
        static_cast<double>(admitted_bytes) / admit_s / 1e6;
    if (t != nullptr) {
      const auto& vs = rt->verify_stats();
      r.counters["verifier.rejects"] = static_cast<double>(
          vs.calls - vs.fail_counts[static_cast<size_t>(FailKind::kNone)]);
      r.counters["rewriter.guards_inserted"] = static_cast<double>(inserted);
      r.counters["rewriter.guards_hoisted"] = static_cast<double>(hoisted);
    }
    return r;
  }

 private:
  // Admits one built module as untrusted bytes and checks the verdict
  // against the constructed answer. Returns the snapshot bytes admitted.
  static uint64_t Admit(lfi::runtime::Runtime* rt, const Module& m,
                        const Built& b, Tracer* t, uint64_t id,
                        RoundResult* r, const std::string& tag) {
    lfi::Result<lfi::elf::ElfImage> img = [&] {
      Scope s(t, "elf", "read", id);
      return lfi::elf::Read({b.elf.data(), b.elf.size()});
    }();
    if (!img) {
      r->Check(false, tag + " elf read: " + img.error());
      return 0;
    }
    auto pid = TracedLoad(rt, *img, t, id);
    if (m.violation >= 0) {
      const Violation& v = kViolations[m.violation];
      const auto& got = rt->last_verify_result();
      const uint64_t want_off = m.at_end ? b.text_bytes - 4 : 0;
      r->Check(!pid && got.kind == v.kind && got.fail_offset == want_off,
               tag + " expected " + lfi::verifier::FailKindName(v.kind) +
                   "@" + std::to_string(want_off) + ", got " +
                   (pid ? "accept"
                        : std::string(lfi::verifier::FailKindName(got.kind)) +
                              "@" + std::to_string(got.fail_offset)));
      return 0;
    }
    if (!pid) {
      r->Check(false, tag + " rejected: " + pid.error());
      return 0;
    }
    auto cap = [&] {
      Scope s(t, "runtime", "capture", id);
      return rt->CaptureSnapshot(*pid);
    }();
    std::vector<uint8_t> bytes;
    if (cap) {
      Scope s(t, "snapshot", "serialize", id);
      bytes = lfi::snapshot::Serialize(*cap);
    }
    auto back = [&]() -> lfi::Result<lfi::snapshot::Snapshot> {
      Scope s(t, "snapshot", "deserialize", id);
      return lfi::snapshot::Deserialize({bytes.data(), bytes.size()});
    }();
    bool ok = cap && back && back->page_count() == cap->page_count();
    if (ok) {
      auto spawned = [&] {
        Scope s(t, "runtime", "spawn", id);
        return rt->SpawnFromSnapshot(
            std::make_shared<const lfi::snapshot::Snapshot>(*std::move(back)),
            false);
      }();
      ok = spawned.ok();
      Scope s(t, "runtime", "kill", id);
      if (spawned) ok = rt->Kill(*spawned, "ingest done").ok() && ok;
    }
    {
      Scope s(t, "runtime", "kill", id);
      ok = rt->Kill(*pid, "ingest done").ok() && ok;
    }
    r->Check(ok, tag + " snapshot round trip or spawn failed");
    return bytes.size();
  }

  std::vector<Module> modules_;
};

}  // namespace

std::unique_ptr<Workload> MakeIngest() { return std::make_unique<Ingest>(); }

}  // namespace perfbench
