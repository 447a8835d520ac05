// Re-entrancy and fault interaction for the embedding API: nested
// host->guest->host->guest chains unwind exactly (one saved context per
// depth), the depth bound fails closed, a guest fault — organic or
// chaos-injected — mid-Call kills the guest cleanly and the sandbox
// restarts from its baseline, and a forged callback-return frame (a
// cookie the runtime never planted) is rejected.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "elf/build.h"
#include "embed/abi.h"
#include "embed/embed.h"
#include "runtime/runtime.h"

namespace lfi::embed {
namespace {

runtime::RuntimeConfig TestConfig() {
  runtime::RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  return cfg;
}

std::string ReentryModule() {
  const std::vector<GuestExport> exports = {
      {"identity", "identity"}, {"recurse", "recurse"}, {"echo", "echo_cb"},
      {"clobber", "clobber"},   {"fault", "fault"},     {"exit", "do_exit"},
      {"burn", "burn"},         {"reready", "reready"}, {"block", "block"},
      {"sys", "sys"},
  };
  const char* body = R"(
identity:
  ret
recurse:
  hostcall #1
  ret
echo_cb:
  hostcall #0
  add x0, x0, #1
  ret
clobber:
  add x19, x19, #1
  ret
fault:
  movz x9, #0x5000
  ldr x9, [x9]
  ret
do_exit:
  mov x0, #9
  rtcall #0
burn:
  movz x9, #60000
burn_loop:
  sub x9, x9, #1
  cbnz x9, burn_loop
  mov x0, #1
  ret
reready:
  rtcall #20
  ret
block:
  adrp x0, fds
  add x0, x0, :lo12:fds
  rtcall #10
  adrp x9, fds
  add x9, x9, :lo12:fds
  ldr w0, [x9]
  adrp x1, rbuf
  add x1, x1, :lo12:rbuf
  mov x2, #4
  rtcall #2
  ret
sys:
  mov x0, #0
  rtcall #5
  mov x0, #42
  ret
.data
fds:
  .word 0
  .word 0
rbuf:
  .zero 8
)";
  return GuestModuleSource(exports, body);
}

class EmbedReentryTest : public ::testing::Test {
 protected:
  void Make(Sandbox::Options opts = Sandbox::Options{}) {
    auto elf = elf::Build(ReentryModule());
    ASSERT_TRUE(elf.ok()) << elf.error();
    rt_ = std::make_unique<runtime::Runtime>(TestConfig());
    auto sb = Sandbox::Create(*rt_, elf->bytes, opts);
    ASSERT_TRUE(sb.ok()) << sb.error();
    sb_ = std::move(*sb);
  }

  // Callback 1: recurse(n) = n + recurse(n-1) through a fresh guest call
  // per level. Records the depth the embedding layer reports at each
  // level and any nested-call error.
  void BindRecursion() {
    sb_->BindCallback(
        1, std::function<int64_t(int64_t)>([this](int64_t n) -> int64_t {
          depths_.push_back(sb_->depth());
          if (n <= 0) return 0;
          auto r = sb_->Call<int64_t(int64_t)>("recurse", n - 1);
          if (!r.ok()) {
            nested_err_ = r.err;
            return -1000;
          }
          return r.value + n;
        }));
  }

  std::unique_ptr<runtime::Runtime> rt_;
  std::unique_ptr<Sandbox> sb_;
  std::vector<int> depths_;
  Err nested_err_ = Err::kNone;
};

TEST_F(EmbedReentryTest, NestedChainsUnwindExactly) {
  Make();
  BindRecursion();
  auto r = sb_->Call<int64_t(int64_t)>("recurse", 5);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value, 5 + 4 + 3 + 2 + 1);
  // One callback per level; depth as seen inside the callback climbs
  // 1, 2, ..., 6 (outermost call is depth 1).
  ASSERT_EQ(depths_.size(), 6u);
  for (size_t i = 0; i < depths_.size(); ++i) {
    EXPECT_EQ(depths_[i], static_cast<int>(i) + 1);
  }
  EXPECT_EQ(sb_->depth(), 0);
  EXPECT_TRUE(sb_->alive());
  // The chain left the sandbox reusable.
  auto again = sb_->Call<int64_t(int64_t)>("recurse", 2);
  ASSERT_TRUE(again.ok()) << again.detail;
  EXPECT_EQ(again.value, 3);
}

TEST_F(EmbedReentryTest, DepthBoundFailsClosed) {
  Sandbox::Options opts;
  opts.max_depth = 3;
  Make(opts);
  BindRecursion();
  auto r = sb_->Call<int64_t(int64_t)>("recurse", 10);
  // The chain bottoms out at depth 3: the nested Call at that depth
  // reports kReentry, the callback substitutes its sentinel, and the
  // outer levels unwind normally.
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(nested_err_, Err::kReentry);
  EXPECT_LT(r.value, 0);
  EXPECT_EQ(sb_->depth(), 0);
  EXPECT_TRUE(sb_->alive());
}

TEST_F(EmbedReentryTest, ForgedReturnCookieIsRejected) {
  Make();
  // clobber increments the callee-saved cookie register before returning
  // through the stub: the runtime must refuse the forged frame and kill.
  auto r = sb_->Call<uint64_t()>("clobber");
  EXPECT_EQ(r.err, Err::kForgedReturn);
  EXPECT_FALSE(sb_->alive());
  ASSERT_TRUE(sb_->Restart().ok());
  auto again = sb_->Call<uint64_t(uint64_t)>("identity", 8);
  ASSERT_TRUE(again.ok()) << again.detail;
  EXPECT_EQ(again.value, 8u);
}

TEST_F(EmbedReentryTest, GuestFaultMidCallUnwindsAndRestarts) {
  Make();
  auto r = sb_->Call<uint64_t()>("fault");
  EXPECT_EQ(r.err, Err::kGuestFault);
  EXPECT_FALSE(r.detail.empty());
  EXPECT_FALSE(sb_->alive());
  EXPECT_EQ(sb_->depth(), 0);
  ASSERT_TRUE(sb_->Restart().ok());
  auto again = sb_->Call<uint64_t(uint64_t)>("identity", 5);
  ASSERT_TRUE(again.ok()) << again.detail;
  EXPECT_EQ(again.value, 5u);
}

TEST_F(EmbedReentryTest, GuestFaultInsideNestedChainUnwindsEveryLevel) {
  Make();
  Err inner = Err::kNone;
  sb_->BindCallback(1, std::function<int64_t(int64_t)>(
                           [&](int64_t) -> int64_t {
                             auto f = sb_->Call<uint64_t()>("fault");
                             inner = f.err;
                             return -1;
                           }));
  auto r = sb_->Call<int64_t(int64_t)>("recurse", 1);
  // The fault killed the guest while two calls were active: the inner
  // Call reports the fault, and the outer call — whose guest context died
  // with the sandbox — fails too instead of pretending to return.
  EXPECT_EQ(inner, Err::kGuestFault);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(sb_->depth(), 0);
  ASSERT_TRUE(sb_->Restart().ok());
  auto again = sb_->Call<uint64_t(uint64_t)>("identity", 2);
  EXPECT_TRUE(again.ok()) << again.detail;
}

TEST_F(EmbedReentryTest, ChaosInjectedKillMidCallIsAFaultAndRestartable) {
  Make();
  chaos::ChaosEngine eng(0xc4a05, chaos::ProfileByName("memfault"));
  eng.MarkVictim(sb_->pid());
  rt_->set_chaos(&eng);
  // burn retires ~120k instructions; the memfault profile injects within
  // 20k, so the call cannot complete organically.
  auto r = sb_->Call<uint64_t()>("burn");
  EXPECT_EQ(r.err, Err::kGuestFault);
  EXPECT_NE(r.detail.find("[chaos]"), std::string::npos) << r.detail;
  EXPECT_FALSE(sb_->alive());
  rt_->set_chaos(nullptr);
  ASSERT_TRUE(sb_->Restart().ok());
  auto again = sb_->Call<uint64_t()>("burn");
  ASSERT_TRUE(again.ok()) << again.detail;
  EXPECT_EQ(again.value, 1u);
}

TEST_F(EmbedReentryTest, GuestExitMidCallSurfacesAsGuestExited) {
  Make();
  auto r = sb_->Call<uint64_t()>("exit");
  EXPECT_EQ(r.err, Err::kGuestExited);
  EXPECT_NE(r.detail.find("9"), std::string::npos) << r.detail;
  EXPECT_FALSE(sb_->alive());
  ASSERT_TRUE(sb_->Restart().ok());
  EXPECT_TRUE(sb_->alive());
}

TEST_F(EmbedReentryTest, GuestBlockingMidCallFailsClosed) {
  Make();
  // block reads from an empty pipe it just created: nothing can ever wake
  // it inside an embedded call, so the runtime kills it.
  auto r = sb_->Call<uint64_t()>("block");
  EXPECT_EQ(r.err, Err::kGuestBlocked);
  EXPECT_FALSE(sb_->alive());
  ASSERT_TRUE(sb_->Restart().ok());
}

TEST_F(EmbedReentryTest, EmbedReadyMidCallIsAProtocolViolation) {
  Make();
  // A second embed-ready announce during a call is a forged protocol
  // transition (e.g. a guest trying to re-run table parsing).
  auto r = sb_->Call<uint64_t()>("reready");
  EXPECT_EQ(r.err, Err::kProtocol);
  EXPECT_FALSE(sb_->alive());
  ASSERT_TRUE(sb_->Restart().ok());
}

TEST_F(EmbedReentryTest, OrdinaryRuntimeCallsStillWorkMidCall) {
  Make();
  auto r = sb_->Call<uint64_t()>("sys");
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value, 42u);
  EXPECT_TRUE(sb_->alive());
}

TEST_F(EmbedReentryTest, RestartInsideACallbackIsRefused) {
  Make();
  Status st = Status::Ok();
  sb_->BindCallback(0, std::function<uint64_t(uint64_t)>([&](uint64_t x) {
                      st = sb_->Restart();
                      return x;
                    }));
  auto r = sb_->Call<uint64_t(uint64_t)>("echo", 1);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace lfi::embed
