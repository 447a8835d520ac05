// Embedded-transition microbench (docs/EMBEDDING.md): the cost of
// crossing the host<->sandbox boundary through the typed embedding API.
//
//   call      — one typed Call<> round trip into a no-op export
//   callback  — incremental cost of one guest->host->guest hostcall
//   rawcall   — one function-pointer call *inside* the sandbox whose
//               target varies call-to-call (the "it's just a function
//               call" floor: boundary calls dispatch to arbitrary
//               exports, so the honest in-sandbox equivalent is an
//               indirect call the BTB cannot lock onto, not a single
//               hot direct callee)
//   directcall — one steady-state bl/ret pair (predicted; reported for
//               scale but not gated — no boundary mechanism can match a
//               perfectly-predicted empty call)
//   marshal4k / shm4k — summing 4 KiB passed per-call as a marshalled
//               BufIn vs. through a pre-mapped shared region
//
// Two self-gates make this binary fail loudly instead of drifting:
// the typed-call round trip must stay within 5x of a raw in-sandbox
// function call, and the shared-memory path must beat per-call
// marshalling. A third check runs the whole workload under both
// dispatch backends and requires identical simulated cycles.

#include <cstring>

#include "embed/abi.h"
#include "embed/embed.h"
#include "harness.h"

namespace lfi::bench {
namespace {

constexpr int kCalls = 2000;        // typed call / callback loops
constexpr int kRawCalls = 10000;    // in-guest calls (delta-measured)
constexpr int kBufCalls = 200;      // 4 KiB buffer loops
constexpr uint64_t kBufBytes = 4096;

std::string TransitionModule() {
  const std::vector<embed::GuestExport> exports = {
      {"noop", "noop"},
      {"echo", "echo_cb"},
      {"sum", "sum_buf"},
      {"callloop", "callloop"},
      {"ptrloop", "ptrloop"},
  };
  const char* body = R"(
noop:
  ret
echo_cb:
  hostcall #0
  ret
sum_buf:
  mov x9, x0
  mov x0, #0
  cbz x1, sum_done
sum_loop:
  ldrb w10, [x9]
  add x0, x0, x10
  add x9, x9, #1
  sub x1, x1, #1
  cbnz x1, sum_loop
sum_done:
  ret
callloop:
  mov x20, x30
  mov x9, x0
cl_loop:
  bl cl_leaf
  sub x9, x9, #1
  cbnz x9, cl_loop
  mov x30, x20
  ret
cl_leaf:
  ret
ptrloop:
  mov x20, x30
  mov x9, x0
  adr x11, pl_leaf1
  adr x12, pl_leaf2
pl_loop:
  blr x11
  mov x13, x11
  mov x11, x12
  mov x12, x13
  sub x9, x9, #1
  cbnz x9, pl_loop
  mov x30, x20
  ret
pl_leaf1:
  ret
pl_leaf2:
  ret
)";
  return embed::GuestModuleSource(exports, body);
}

struct Measured {
  bool ok = false;
  std::string error;
  double call_cycles = 0;      // per typed no-op round trip
  double callback_cycles = 0;  // incremental hostcall round trip
  double rawcall_cycles = 0;   // per in-guest varying-target pointer call
  double directcall_cycles = 0;  // per steady-state bl/ret pair
  double marshal_cycles = 0;   // per 4 KiB BufIn call
  double shm_cycles = 0;       // per 4 KiB shared-region call
  uint64_t total_cycles = 0;   // final simulated clock (identity check)
};

Measured RunWorkload(emu::Dispatch dispatch) {
  Measured m;
  auto built = BuildLfi(TransitionModule(), Config::kO2);
  if (!built.ok) {
    m.error = built.error;
    return m;
  }
  runtime::RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  cfg.dispatch = dispatch;
  runtime::Runtime rt(cfg);
  auto sb = embed::Sandbox::Create(rt, {built.elf.data(), built.elf.size()});
  if (!sb.ok()) {
    m.error = sb.error();
    return m;
  }
  embed::Sandbox& s = **sb;
  s.BindCallback(0, std::function<uint64_t(uint64_t)>(
                        [](uint64_t x) { return x; }));
  auto fail = [&m](const std::string& what, const std::string& detail) {
    m.error = what + ": " + detail;
    return m;
  };

  // Typed no-op round trips.
  uint64_t t0 = rt.Cycles();
  for (int i = 0; i < kCalls; ++i) {
    auto r = s.Call<uint64_t()>("noop");
    if (!r.ok()) return fail("noop", r.detail);
  }
  m.call_cycles = static_cast<double>(rt.Cycles() - t0) / kCalls;

  // Callback round trips (echo = one call + one hostcall).
  t0 = rt.Cycles();
  for (int i = 0; i < kCalls; ++i) {
    auto r = s.Call<uint64_t(uint64_t)>("echo", i);
    if (!r.ok()) return fail("echo", r.detail);
    if (r.value != static_cast<uint64_t>(i)) return fail("echo", "bad value");
  }
  m.callback_cycles =
      static_cast<double>(rt.Cycles() - t0) / kCalls - m.call_cycles;

  // Raw in-guest calls, delta-measured so the embedded-entry cost and the
  // loop prologue cancel out. `ptrloop` (the gated floor) calls through a
  // pointer that alternates between two leaves, like a dispatch table;
  // `callloop` is the steady-state predicted bl/ret for scale.
  auto raw_pair = [&](const char* fn, double* out) -> bool {
    auto warm = s.Call<uint64_t(uint64_t)>(fn, 64);
    if (!warm.ok()) {
      fail(fn, warm.detail);
      return false;
    }
    uint64_t c0 = rt.Cycles();
    auto a = s.Call<uint64_t(uint64_t)>(fn, 64);
    if (!a.ok()) {
      fail(fn, a.detail);
      return false;
    }
    const uint64_t c_short = rt.Cycles() - c0;
    c0 = rt.Cycles();
    auto b = s.Call<uint64_t(uint64_t)>(fn, 64 + kRawCalls);
    if (!b.ok()) {
      fail(fn, b.detail);
      return false;
    }
    const uint64_t c_long = rt.Cycles() - c0;
    *out = static_cast<double>(c_long - c_short) / kRawCalls;
    return true;
  };
  if (!raw_pair("ptrloop", &m.rawcall_cycles)) return m;
  if (!raw_pair("callloop", &m.directcall_cycles)) return m;

  // 4 KiB per call: marshalled copy vs. pre-mapped shared region.
  std::vector<uint8_t> buf(kBufBytes, 7);
  const uint64_t want = 7 * kBufBytes;
  t0 = rt.Cycles();
  for (int i = 0; i < kBufCalls; ++i) {
    auto r = s.Call<uint64_t(embed::BufIn, uint64_t)>(
        "sum", embed::BufIn{buf.data(), buf.size()}, kBufBytes);
    if (!r.ok() || r.value != want) return fail("sum/bufin", r.detail);
  }
  m.marshal_cycles = static_cast<double>(rt.Cycles() - t0) / kBufCalls;

  auto shm = s.MapShared(kBufBytes);
  if (!shm.ok()) return fail("shm", shm.error());
  if (!shm->Write(0, {buf.data(), buf.size()}).ok()) {
    return fail("shm", "write failed");
  }
  t0 = rt.Cycles();
  for (int i = 0; i < kBufCalls; ++i) {
    auto r = s.Call<uint64_t(embed::GuestPtr, uint64_t)>("sum", shm->ptr(),
                                                         kBufBytes);
    if (!r.ok() || r.value != want) return fail("sum/shm", r.detail);
  }
  m.shm_cycles = static_cast<double>(rt.Cycles() - t0) / kBufCalls;

  m.total_cycles = rt.Cycles();
  m.ok = true;
  return m;
}

}  // namespace
}  // namespace lfi::bench

int main(int argc, char** argv) {
  using namespace lfi::bench;
  auto json = JsonReport::FromArgs(argc, argv);
  std::printf("=== Embedded transitions (typed host<->sandbox calls) ===\n");

  const Measured m = RunWorkload(lfi::emu::Dispatch::kBlock);
  if (!m.ok) {
    std::fprintf(stderr, "bench_transitions: %s\n", m.error.c_str());
    return 1;
  }
  const double ghz = lfi::arch::AppleM1LikeParams().ghz;
  std::printf("%-28s %10.1f cycles %8.1f ns\n", "typed call round trip",
              m.call_cycles, m.call_cycles / ghz);
  std::printf("%-28s %10.1f cycles %8.1f ns\n", "callback round trip (incr)",
              m.callback_cycles, m.callback_cycles / ghz);
  std::printf("%-28s %10.1f cycles %8.1f ns\n", "raw in-sandbox ptr call",
              m.rawcall_cycles, m.rawcall_cycles / ghz);
  std::printf("%-28s %10.1f cycles %8.1f ns\n", "predicted direct call",
              m.directcall_cycles, m.directcall_cycles / ghz);
  std::printf("%-28s %10.1f cycles %8.1f ns\n", "sum 4KiB via BufIn marshal",
              m.marshal_cycles, m.marshal_cycles / ghz);
  std::printf("%-28s %10.1f cycles %8.1f ns\n", "sum 4KiB via shared region",
              m.shm_cycles, m.shm_cycles / ghz);
  const double ratio = m.call_cycles / m.rawcall_cycles;
  std::printf("typed call = %.2fx a raw in-sandbox function call\n", ratio);

  json.Add("transitions.call.cycles", m.call_cycles);
  json.Add("transitions.callback.cycles", m.callback_cycles);
  json.Add("transitions.rawcall.cycles", m.rawcall_cycles);
  json.Add("transitions.directcall.cycles", m.directcall_cycles);
  json.Add("transitions.marshal4k.cycles", m.marshal_cycles);
  json.Add("transitions.shm4k.cycles", m.shm_cycles);
  json.Add("transitions.call_vs_raw_ratio", ratio);

  int rc = 0;
  // Gate 1: the typed boundary must stay within 5x of an in-sandbox call.
  if (!(ratio <= 5.0)) {
    std::fprintf(stderr,
                 "GATE FAILED: typed call is %.2fx a raw call (limit 5x)\n",
                 ratio);
    rc = 1;
  }
  // Gate 2: shared memory must beat per-call marshalling for bulk data.
  if (!(m.shm_cycles < m.marshal_cycles)) {
    std::fprintf(stderr,
                 "GATE FAILED: shm path (%.1f cy) not cheaper than "
                 "marshalling (%.1f cy)\n",
                 m.shm_cycles, m.marshal_cycles);
    rc = 1;
  }
  // Gate 3: the whole workload must cost identical simulated cycles under
  // both dispatch backends.
  const Measured chained = RunWorkload(lfi::emu::Dispatch::kChained);
  const bool identical =
      chained.ok && chained.total_cycles == m.total_cycles;
  std::printf("backend identity: block=%llu chained=%llu -> %s\n",
              static_cast<unsigned long long>(m.total_cycles),
              static_cast<unsigned long long>(chained.total_cycles),
              identical ? "ok" : "MISMATCH");
  json.Add("transitions.backend_identity.exact", identical ? 1.0 : 0.0);
  if (!identical) {
    std::fprintf(stderr, "GATE FAILED: dispatch backends disagree\n");
    rc = 1;
  }
  if (!json.Write()) rc = 1;
  return rc;
}
