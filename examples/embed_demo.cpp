// Embedding demo: call sandboxed code like a library through the typed
// `lfi::embed::Sandbox` API (docs/EMBEDDING.md).
//
//   host --Call<R(Args...)>--> guest export          (typed marshalling)
//   guest --hostcall #0--> registered host callback  (re-entrant boundary)
//   4 KiB of data per call via a marshalled BufIn vs. a shared mapping
//   a hostile guest forging its return cookie: killed, then revived
//
// The guest below is untrusted assembly: it goes through the full
// rewriter -> assembler -> ELF -> load-time verifier pipeline before a
// single instruction runs.

#include <cstdio>
#include <numeric>
#include <vector>

#include "elf/build.h"
#include "embed/abi.h"
#include "embed/embed.h"
#include "runtime/runtime.h"

namespace {

// Four exports: plain arithmetic, a buffer reducer, a callback round
// trip, and one that tries to forge the host's return cookie (x19).
std::string GuestModule() {
  const std::vector<lfi::embed::GuestExport> exports = {
      {"add", "g_add"},
      {"sum", "g_sum"},
      {"apply", "g_apply"},
      {"forge", "g_forge"},
  };
  const char* body = R"(
g_add:
  add x0, x0, x1
  ret
g_sum:
  mov x9, x0
  mov x0, #0
  cbz x1, g_sum_done
g_sum_loop:
  ldrb w10, [x9]
  add x0, x0, x10
  add x9, x9, #1
  sub x1, x1, #1
  cbnz x1, g_sum_loop
g_sum_done:
  ret
g_apply:
  hostcall #0
  add x0, x0, #1
  ret
g_forge:
  add x19, x19, #7
  ret
)";
  return lfi::embed::GuestModuleSource(exports, body);
}

}  // namespace

int main() {
  using lfi::embed::BufIn;
  using lfi::embed::Err;

  auto built = lfi::elf::Build(GuestModule());
  if (!built) {
    std::printf("failed to build guest module: %s\n", built.error().c_str());
    return 1;
  }

  lfi::runtime::RuntimeConfig cfg;
  cfg.core = lfi::arch::AppleM1LikeParams();
  lfi::runtime::Runtime rt(cfg);
  auto made = lfi::embed::Sandbox::Create(rt, built->bytes);
  if (!made.ok()) {
    std::printf("create failed: %s\n", made.error().c_str());
    return 1;
  }
  lfi::embed::Sandbox& sb = **made;

  // 1. A typed call is one line; marshalling and the transition are
  //    handled by the Call<> signature.
  auto sum = sb.Call<uint64_t(uint64_t, uint64_t)>("add", 2, 40);
  std::printf("add(2, 40)            = %llu\n",
              static_cast<unsigned long long>(sum.value));

  // 2. Host buffers marshal in by value (copied to the guest stack)...
  std::vector<uint8_t> data(4096);
  std::iota(data.begin(), data.end(), 0);
  const unsigned long long want = std::accumulate(
      data.begin(), data.end(), 0ull,
      [](unsigned long long a, uint8_t b) { return a + b; });
  auto via_copy = sb.Call<uint64_t(BufIn, uint64_t)>(
      "sum", BufIn{data.data(), data.size()}, data.size());
  std::printf("sum(BufIn 4KiB)       = %llu (want %llu)\n",
              static_cast<unsigned long long>(via_copy.value), want);

  // 3. ...or live in a shared mapping the guest addresses directly.
  auto shm = sb.MapShared(data.size());
  if (!shm.ok() || !shm->Write(0, {data.data(), data.size()}).ok()) {
    std::printf("shared mapping failed\n");
    return 1;
  }
  auto via_shm = sb.Call<uint64_t(lfi::embed::GuestPtr, uint64_t)>(
      "sum", shm->ptr(), data.size());
  std::printf("sum(shared 4KiB)      = %llu\n",
              static_cast<unsigned long long>(via_shm.value));

  // 4. Guest -> host callbacks: the guest's `hostcall #0` lands in this
  //    lambda, then execution resumes at the rtcall boundary.
  sb.BindCallback(0, std::function<uint64_t(uint64_t)>(
                         [](uint64_t x) { return x * 10; }));
  auto applied = sb.Call<uint64_t(uint64_t)>("apply", 7);
  std::printf("apply(7)              = %llu (7*10 + 1)\n",
              static_cast<unsigned long long>(applied.value));

  // 5. A hostile guest: `forge` increments the call cookie in x19 before
  //    returning, trying to fake a different call frame. The runtime
  //    rejects the return and kills the sandbox...
  auto forged = sb.Call<uint64_t()>("forge");
  std::printf("forge()               -> %s\n", lfi::embed::ErrName(forged.err));
  auto dead = sb.Call<uint64_t(uint64_t, uint64_t)>("add", 1, 1);
  std::printf("add() after forge     -> %s\n", lfi::embed::ErrName(dead.err));

  // 6. ...and Restart() revives it from the baseline snapshot.
  if (!sb.Restart().ok()) {
    std::printf("restart failed\n");
    return 1;
  }
  auto again = sb.Call<uint64_t(uint64_t, uint64_t)>("add", 20, 22);
  std::printf("add(20, 22) revived   = %llu\n",
              static_cast<unsigned long long>(again.value));

  const bool ok = sum.ok() && sum.value == 42 && via_copy.ok() &&
                  via_copy.value == want && via_shm.ok() &&
                  via_shm.value == want && applied.ok() &&
                  applied.value == 71 && forged.err == Err::kForgedReturn &&
                  dead.err == Err::kSandboxDead && again.ok() &&
                  again.value == 42;
  std::printf("%s\n", ok ? "all embedding paths ok" : "MISMATCH");
  return ok ? 0 : 1;
}
