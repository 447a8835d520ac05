// lfi-verify: standalone static verifier (Section 5.2).
//
// Reads an LFI ELF executable, runs the single-linear-pass verifier over
// every executable segment, and reports accept/reject plus throughput.
//
// Usage: lfi-verify [--no-loads] prog.elf
//
// Exit status: 0 accepted, 1 rejected, 2 usage or input error. An
// unknown option or a second operand is a usage error, never a path.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "elf/elf.h"
#include "verifier/verifier.h"

namespace {

int Usage() {
  std::fprintf(stderr, "usage: lfi-verify [--no-loads] prog.elf\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  lfi::verifier::VerifyOptions opts;
  const char* path = nullptr;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--no-loads") == 0) {
      opts.check_loads = false;
    } else if (argv[k][0] == '-') {
      std::fprintf(stderr, "lfi-verify: unknown option %s\n", argv[k]);
      return Usage();
    } else if (path != nullptr) {
      std::fprintf(stderr, "lfi-verify: unexpected operand %s\n", argv[k]);
      return Usage();
    } else {
      path = argv[k];
    }
  }
  if (path == nullptr) return Usage();
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "lfi-verify: cannot open %s\n", path);
    return 2;
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
  auto img = lfi::elf::Read({bytes.data(), bytes.size()});
  if (!img) {
    std::fprintf(stderr, "lfi-verify: %s\n", img.error().c_str());
    return 2;
  }
  uint64_t total_bytes = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& seg : img->segments) {
    if (!seg.exec) continue;
    total_bytes += seg.data.size();
    auto r = lfi::verifier::Verify({seg.data.data(), seg.data.size()}, opts);
    if (!r.ok) {
      std::printf("REJECT (%s) at text offset 0x%llx: %s\n",
                  lfi::verifier::FailKindName(r.kind),
                  static_cast<unsigned long long>(r.fail_offset),
                  r.reason.c_str());
      return 1;
    }
  }
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - start).count();
  std::printf("OK: %llu bytes of text verified in %.3f ms (%.1f MB/s)\n",
              static_cast<unsigned long long>(total_bytes), elapsed * 1e3,
              elapsed > 0 ? total_bytes / elapsed / 1e6 : 0.0);
  return 0;
}
