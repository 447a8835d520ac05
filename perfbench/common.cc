#include "common.h"

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "elf/elf.h"
#include "runtime/layout.h"

namespace perfbench {

using lfi::Result;

Built BuildModule(const std::string& src, bool guards, Tracer* t,
                  uint64_t id, const AsmEdit& edit) {
  Built b;
  b.src_bytes = src.size();
  if (t != nullptr) t->Count("asmtext.parse_bytes", double(src.size()));
  Result<lfi::asmtext::AsmFile> file = [&] {
    Scope s(t, "asmtext", "parse", id);
    return lfi::asmtext::Parse(src);
  }();
  if (!file) {
    b.error = "parse: " + file.error();
    return b;
  }
  lfi::rewriter::RewriteOptions opts;
  opts.level = lfi::rewriter::OptLevel::kO2;
  opts.insert_guards = guards;
  Result<lfi::asmtext::AsmFile> rewritten = [&] {
    Scope s(t, "rewriter", "rewrite", id);
    return lfi::rewriter::Rewrite(*file, opts, &b.rewrite);
  }();
  if (!rewritten) {
    b.error = "rewrite: " + rewritten.error();
    return b;
  }
  if (edit) edit(&*rewritten);
  lfi::asmtext::LayoutSpec spec;
  spec.text_offset = lfi::runtime::kProgramStart;
  Result<lfi::asmtext::Image> img = [&] {
    Scope s(t, "asmtext", "assemble", id);
    return lfi::asmtext::Assemble(*rewritten, spec);
  }();
  if (!img) {
    b.error = "assemble: " + img.error();
    return b;
  }
  b.text_bytes = img->text.size();
  {
    Scope s(t, "elf", "write", id);
    b.elf = lfi::elf::Write(lfi::elf::FromAssembled(*img));
  }
  b.ok = true;
  return b;
}

lfi::runtime::RuntimeConfig M1Config(bool verify) {
  lfi::runtime::RuntimeConfig cfg;
  cfg.core = lfi::arch::AppleM1LikeParams();
  cfg.enforce_verification = verify;
  return cfg;
}

std::unique_ptr<lfi::runtime::Runtime> NewRuntime(bool verify, Tracer* t,
                                                  uint64_t id) {
  Scope s(t, "runtime", "create", id);
  return std::make_unique<lfi::runtime::Runtime>(M1Config(verify));
}

Result<int> TracedLoad(lfi::runtime::Runtime* rt,
                       const lfi::elf::ElfImage& image, Tracer* t,
                       uint64_t id) {
  if (t == nullptr) return rt->LoadImage(image);
  const lfi::verifier::VerifyStats before = rt->verify_stats();
  int load = -1;
  Result<int> pid = [&] {
    Scope s(t, "runtime", "load", id);
    load = s.index();
    return rt->LoadImage(image);
  }();
  const Span ls = t->spans()[load];
  const lfi::verifier::VerifyStats& after = rt->verify_stats();
  const auto ns = [](double s) { return static_cast<uint64_t>(s * 1e9); };
  const uint64_t dec = ns(after.decode_seconds - before.decode_seconds);
  const uint64_t chk = ns(after.check_seconds - before.check_seconds);
  // The load's peak-RSS growth is the verifier's: its decoded instruction
  // array is the only allocation that scales with text size.
  const uint64_t growth = ls.hwm_growth_kb;
  const uint64_t start = ls.start_ns;
  if (after.calls > before.calls) {
    for (const auto& seg : image.segments) {
      if (seg.exec) t->Count("verifier.bytes", double(seg.data.size()));
    }
  }
  t->AddDerived("verifier", "decode", load, start, dec, id, growth);
  t->AddDerived("verifier", "check", load, start + dec, chk, id);
  return pid;
}

uint64_t SinkTotal(const lfi::trace::TraceSink& sink, lfi::trace::Counter c) {
  uint64_t total = 0;
  for (const auto& [pid, m] : sink.all_metrics()) total += m.Get(c);
  return total;
}

}  // namespace perfbench
