// lfi-verify-exhaustive: model-based exhaustive validation of the
// verifier's per-class accept/reject decisions (docs/VERIFIER.md).
//
// Enumerates every swept encoding of every allowlisted instruction class
// (arch/fields.cc), compares the symbolic model's predicted verdict with
// the real verifier, then cross-validates a stratified sample of the
// accepted encodings against the emulator. Exit 0 only if every class
// sweeps clean and the emulator agrees with every effect prediction.
//
// Usage: lfi-verify-exhaustive [--list] [--class=NAME] [--stride=N]
//                              [--emu-samples=N] [--no-loads] [--no-llsc]

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/fields.h"
#include "flags.h"
#include "verify_model/crossval.h"
#include "verify_model/sweep.h"

namespace vm = lfi::verify_model;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lfi-verify-exhaustive [--list] [--class=NAME] "
               "[--stride=N]\n"
               "                             [--emu-samples=N] "
               "[--no-loads] [--no-llsc]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  vm::SweepOptions opts;
  uint64_t emu_samples = 48;
  const char* only_class = nullptr;
  bool list = false;

  for (int k = 1; k < argc; ++k) {
    const char* a = argv[k];
    if (std::strcmp(a, "--list") == 0) {
      list = true;
    } else if (std::strncmp(a, "--class=", 8) == 0) {
      only_class = a + 8;
    } else if (std::strncmp(a, "--stride=", 9) == 0) {
      if (!lfi::tools::ParseU64(a + 9, &opts.stride) || opts.stride == 0) {
        return Usage();
      }
    } else if (std::strncmp(a, "--emu-samples=", 14) == 0) {
      if (!lfi::tools::ParseU64(a + 14, &emu_samples)) return Usage();
    } else if (std::strcmp(a, "--no-loads") == 0) {
      opts.verify.check_loads = false;
    } else if (std::strcmp(a, "--no-llsc") == 0) {
      opts.verify.allow_llsc = false;
    } else {
      return Usage();
    }
  }

  if (list) {
    uint64_t total = 0;
    for (const auto& cls : lfi::arch::AllEncClasses()) {
      std::printf("%-16s %12" PRIu64 " encodings\n", cls.name,
                  cls.EncodingCount());
      total += cls.EncodingCount();
    }
    std::printf("%-16s %12" PRIu64 " encodings\n", "TOTAL", total);
    return 0;
  }

  std::vector<vm::SweepResult> results;
  uint64_t mismatches = 0, checked = 0, accepted = 0;
  for (const auto& cls : lfi::arch::AllEncClasses()) {
    if (only_class != nullptr && std::strcmp(cls.name, only_class) != 0) {
      continue;
    }
    vm::SweepResult r = vm::SweepClass(cls, opts);
    std::printf("%-16s %12" PRIu64 " checked  %10" PRIu64 " accepted  %6" PRIu64
                " mismatches  %7.2fs\n",
                r.class_name.c_str(), r.checked, r.accepted, r.mismatches,
                r.seconds);
    std::fflush(stdout);
    mismatches += r.mismatches;
    checked += r.checked;
    accepted += r.accepted;
    results.push_back(std::move(r));
  }
  if (only_class != nullptr && results.empty()) {
    std::fprintf(stderr, "lfi-verify-exhaustive: unknown class %s\n",
                 only_class);
    return 2;
  }

  vm::CrossvalOptions copts;
  copts.max_samples_per_class = emu_samples;
  vm::CrossvalResult cv;
  if (emu_samples > 0) {
    cv = vm::CrossValidate(results, copts);
    std::printf("emu crossval: %" PRIu64 " executed (%" PRIu64 " branches, %"
                PRIu64 " faults), %zu disagreements\n",
                cv.executed, cv.branches, cv.faulted, cv.failures.size());
  }

  const bool bad = mismatches > 0 || !cv.ok();
  for (const auto& r : results) {
    for (const auto& m : r.recorded) {
      std::fprintf(stderr, "MISMATCH %s word=0x%08X%s %s\n",
                   r.class_name.c_str(), m.word,
                   m.with_suffix ? " (with suffix)" : "", m.detail.c_str());
    }
  }
  for (const auto& f : cv.failures) {
    std::fprintf(stderr, "EMU-DISAGREE %s word=0x%08X %s\n",
                 f.class_name.c_str(), f.word, f.detail.c_str());
  }

  std::printf("%s: %" PRIu64 " encodings checked, %" PRIu64 " accepted, %"
              PRIu64 " mismatches\n",
              bad ? "FAIL" : "OK", checked, accepted, mismatches);
  return bad ? 1 : 0;
}
