#include "embed/embed_fuzz.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "elf/build.h"
#include "embed/embed.h"
#include "fuzz/exec.h"
#include "fuzz/rng.h"
#include "runtime/runtime.h"

namespace lfi::embed {

namespace {

using fuzz::CrashArtifact;
using fuzz::FuzzOptions;
using fuzz::FuzzReport;
using fuzz::Outcome;
using fuzz::Rng;

// The fuzz module: benign exports exercising every marshalling class plus
// hostile ones exercising every fail-closed path.
std::string FuzzModuleSource() {
  const std::vector<GuestExport> exports = {
      {"add3", "add3"},       {"sum_buf", "sum_buf"}, {"sum10", "sum10"},
      {"fmix", "fmix"},       {"echo", "echo_cb"},    {"recurse", "recurse"},
      {"fill", "fill_buf"},   {"clobber", "clobber"}, {"wildptr", "wild_ptr"},
      {"badread", "bad_read"}, {"exit", "do_exit"},   {"badcb", "bad_cb"},
  };
  const char* body = R"(
add3:
  add x0, x0, x1
  add x0, x0, x2
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
sum10:
  add x0, x0, x1
  add x0, x0, x2
  add x0, x0, x3
  add x0, x0, x4
  add x0, x0, x5
  add x0, x0, x6
  add x0, x0, x7
  ldr x9, [sp]
  add x0, x0, x9
  ldr x9, [sp, #8]
  add x0, x0, x9
  ret
fmix:
  fadd d0, d0, d1
  ret
echo_cb:
  hostcall #0
  add x0, x0, #1
  ret
recurse:
  hostcall #1
  ret
fill_buf:
  cbz x1, fill_done
fill_loop:
  strb w2, [x0]
  add x0, x0, #1
  sub x1, x1, #1
  cbnz x1, fill_loop
fill_done:
  mov x0, #0
  ret
clobber:
  add x19, x19, #1
  ret
wild_ptr:
  movz x0, #0xdead, lsl #48
  ret
bad_read:
  movz x9, #0x5000
  ldr x9, [x9]
  ret
do_exit:
  mov x0, #7
  rtcall #0
bad_cb:
  hostcall #5
  ret
)";
  return GuestModuleSource(exports, body);
}

struct Harness {
  std::string source;
  std::unique_ptr<runtime::Runtime> rt;
  std::unique_ptr<fuzz::SlotInvariantChecker> checker;
  std::unique_ptr<Sandbox> sb;

  ~Harness() {
    if (rt != nullptr) rt->machine().set_exec_hook(nullptr);
  }

  Status Up() {
    source = FuzzModuleSource();
    auto built = elf::Build(source);
    if (!built.ok()) return Status::Fail("build: " + built.error());
    runtime::RuntimeConfig cfg;
    cfg.core = arch::AppleM1LikeParams();
    rt = std::make_unique<runtime::Runtime>(cfg);
    auto made = Sandbox::Create(*rt, built->bytes);
    if (!made.ok()) return Status::Fail(made.error());
    sb = std::move(*made);
    checker = std::make_unique<fuzz::SlotInvariantChecker>(sb->base());
    rt->machine().set_exec_hook(checker.get());
    // Callback 0: double the argument (echo round-trip).
    sb->BindCallback(0, std::function<uint64_t(uint64_t)>(
                            [](uint64_t x) { return x * 2; }));
    // Callback 1: nested re-entry — recurse(n) returns n + recurse(n-1).
    Sandbox* s = sb.get();
    sb->BindCallback(
        1, std::function<int64_t(int64_t)>([s](int64_t n) -> int64_t {
          if (n <= 0) return 0;
          auto r = s->Call<int64_t(int64_t)>("recurse", n - 1);
          if (!r.ok()) return INT64_MIN;
          return r.value + n;
        }));
    return Status::Ok();
  }
};

}  // namespace

FuzzReport RunEmbedFuzz(const FuzzOptions& opts) {
  Harness h;
  if (auto st = h.Up(); !st.ok()) {
    FuzzReport report;
    report.mode = "embed";
    CrashArtifact a;
    a.mode = "embed";
    a.seed = opts.seed;
    a.detail = "harness setup failed: " + st.error();
    a.asm_source = h.source;
    fuzz::RecordCrash(opts, &report, std::move(a));
    return report;
  }

  // Every iteration calls into the one sandbox `h` holds.
  return fuzz::Drive("embed", opts, [&h](uint64_t, uint64_t iseed) {
    Outcome o;
    o.verdict = Outcome::Verdict::kExecuted;
    auto crash = [&](std::string what) {
      CrashArtifact a;
      a.detail = std::move(what);
      a.asm_source = h.source;
      o.crashes.push_back(std::move(a));
    };
    // A hostile op killed the guest as intended; bring it back and prove
    // the revival worked (restartability is part of the contract).
    auto revive = [&] {
      if (auto st = h.sb->Restart(); !st.ok()) {
        crash("restart after fail-closed kill failed: " + st.error());
        return false;
      }
      if (!h.sb->alive()) {
        crash("sandbox not alive after restart");
        return false;
      }
      return true;
    };
    bool bad = false;
    // A result that broke its contract: what was expected, then its Err.
    auto fail = [&](const std::string& what, const auto& r) {
      crash(what + ErrName(r.err) + " " + r.detail);
      bad = true;
    };
    Rng rng(iseed);
    switch (rng.Below(10)) {
      case 0: {  // scalar marshalling, wrapping add
        const uint64_t a = rng.Next(), b = rng.Next(), c = rng.Next();
        auto r = h.sb->Call<uint64_t(uint64_t, uint64_t, uint64_t)>(
            "add3", a, b, c);
        if (!r.ok() || r.value != a + b + c) fail("add3 mismatch: ", r);
        break;
      }
      case 1: {  // BufIn marshalling
        std::vector<uint8_t> buf(rng.Below(300));
        uint64_t want = 0;
        for (auto& x : buf) {
          x = static_cast<uint8_t>(rng.Next());
          want += x;
        }
        auto r = h.sb->Call<uint64_t(BufIn, uint64_t)>(
            "sum_buf", BufIn{buf.data(), buf.size()}, buf.size());
        if (!r.ok() || r.value != want) fail("sum_buf mismatch: ", r);
        break;
      }
      case 2: {  // stack-spill marshalling (10 integer args)
        uint64_t v[10], want = 0;
        for (auto& x : v) {
          x = rng.Next();
          want += x;
        }
        auto r = h.sb->Call<uint64_t(uint64_t, uint64_t, uint64_t, uint64_t,
                                     uint64_t, uint64_t, uint64_t, uint64_t,
                                     uint64_t, uint64_t)>(
            "sum10", v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8],
            v[9]);
        if (!r.ok() || r.value != want) fail("sum10 mismatch: ", r);
        break;
      }
      case 3: {  // float-register marshalling (exact small-int doubles)
        const double a = static_cast<double>(static_cast<int64_t>(
            rng.Below(2000)) - 1000);
        const double b = static_cast<double>(static_cast<int64_t>(
            rng.Below(2000)) - 1000);
        auto r = h.sb->Call<double(double, double)>("fmix", a, b);
        if (!r.ok() || r.value != a + b) fail("fmix mismatch: ", r);
        break;
      }
      case 4: {  // callback round-trip
        const uint64_t x = rng.Next() >> 1;
        auto r = h.sb->Call<uint64_t(uint64_t)>("echo", x);
        if (!r.ok() || r.value != 2 * x + 1) fail("echo mismatch: ", r);
        break;
      }
      case 5: {  // nested host->guest->host chain
        const int64_t n = static_cast<int64_t>(rng.Below(6));
        auto r = h.sb->Call<int64_t(int64_t)>("recurse", n);
        if (!r.ok() || r.value != n * (n + 1) / 2) {
          fail("recurse mismatch: ", r);
        }
        break;
      }
      case 6: {  // BufOut copy-back
        std::vector<uint8_t> buf(1 + rng.Below(200), 0xAA);
        const uint8_t v = static_cast<uint8_t>(rng.Next());
        auto r = h.sb->Call<uint64_t(BufOut, uint64_t, uint64_t)>(
            "fill", BufOut{buf.data(), buf.size()}, buf.size(), v);
        bool filled = r.ok() && r.value == 0;
        for (uint8_t x : buf) filled = filled && x == v;
        if (!filled) fail("fill copy-back mismatch: ", r);
        break;
      }
      case 7: {  // guest-corrupted return state (cookie clobber)
        auto r = h.sb->Call<uint64_t()>("clobber");
        if (r.err != Err::kForgedReturn) {
          fail("clobber expected forged-return, got ", r);
        } else if (!revive()) {
          bad = true;
        }
        break;
      }
      case 8: {  // hostile returned pointer / unbound callback
        if (rng.Below(2) == 0) {
          auto r = h.sb->Call<GuestPtr()>("wildptr");
          if (r.err != Err::kBadGuestPointer) {
            fail("wildptr expected bad-guest-pointer, got ", r);
          } else if (!revive()) {
            bad = true;
          }
        } else {
          auto r = h.sb->Call<uint64_t()>("badcb");
          if (r.err != Err::kBadCallbackIndex) {
            fail("badcb expected bad-callback-index, got ", r);
          } else if (!revive()) {
            bad = true;
          }
        }
        break;
      }
      case 9: {  // guard-region fault / exit mid-call
        if (rng.Below(2) == 0) {
          auto r = h.sb->Call<uint64_t()>("badread");
          if (r.err != Err::kGuestFault) {
            fail("badread expected guest-fault, got ", r);
          } else if (!revive()) {
            bad = true;
          }
        } else {
          auto r = h.sb->Call<uint64_t()>("exit");
          if (r.err != Err::kGuestExited) {
            fail("exit expected guest-exited, got ", r);
          } else if (!revive()) {
            bad = true;
          }
        }
        break;
      }
    }
    if (!h.checker->violation().empty()) {
      // The checker latches; later iterations would re-report it.
      crash("slot invariant violated: " + h.checker->violation());
      o.stop = true;
    } else if (bad && !h.sb->alive()) {
      // A mismatch left the guest dead; revive so later iterations are
      // still meaningful (their ops assume a live sandbox).
      o.stop = !revive();
    }
    return o;
  });
}

}  // namespace lfi::embed
