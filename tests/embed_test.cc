// Call-ABI matrix for the typed embedding API (docs/EMBEDDING.md): every
// marshalling class — integer widths and signs, float/double register
// args, guest pointers, in/out buffers, >8-argument stack spills — in
// both directions, plus the adversarial cases: a guest returning a
// host-range pointer, a hostcall to an unbound slot, a marshalled buffer
// that would straddle the slot boundary. Each hostile case must fail
// closed with its own distinct Err value.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

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

// One module covering the whole matrix. Function bodies deliberately use
// plain unguarded assembly — the rewriter instruments them like any other
// guest code.
std::string MatrixModule() {
  const std::vector<GuestExport> exports = {
      {"identity", "identity"}, {"add3", "add3"},     {"sum10", "sum10"},
      {"fadd_s", "fadd_s"},     {"fadd_d", "fadd_d"}, {"fbits", "fbits"},
      {"mix", "mix"},           {"sum_buf", "sum_buf"},
      {"fill", "fill_buf"},     {"bufaddr", "bufaddr"},
      {"deref", "deref"},       {"store64", "store64"},
      {"wildptr", "wild_ptr"},  {"echo", "echo_cb"},  {"badcb", "bad_cb"},
      {"spin", "spin"},
  };
  const char* body = R"(
identity:
  ret
add3:
  add x0, x0, x1
  add x0, x0, x2
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
fadd_s:
  fadd s0, s0, s1
  ret
fadd_d:
  fadd d0, d0, d1
  ret
fbits:
  fmov x0, d0
  ret
mix:
  fmov x9, d1
  add x0, x0, x9
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
bufaddr:
  ret
deref:
  ldr x0, [x0]
  ret
store64:
  str x1, [x0]
  mov x0, #0
  ret
wild_ptr:
  movz x0, #0xdead, lsl #48
  ret
echo_cb:
  hostcall #0
  add x0, x0, #1
  ret
bad_cb:
  hostcall #7
  ret
spin:
  b spin
)";
  return GuestModuleSource(exports, body);
}

class EmbedTest : public ::testing::Test {
 protected:
  void Make(Sandbox::Options opts = Sandbox::Options{}) {
    auto elf = elf::Build(MatrixModule());
    ASSERT_TRUE(elf.ok()) << elf.error();
    rt_ = std::make_unique<runtime::Runtime>(TestConfig());
    auto sb = Sandbox::Create(*rt_, elf->bytes, opts);
    ASSERT_TRUE(sb.ok()) << sb.error();
    sb_ = std::move(*sb);
  }

  std::unique_ptr<runtime::Runtime> rt_;
  std::unique_ptr<Sandbox> sb_;
};

TEST_F(EmbedTest, ExportsParsedInTableOrder) {
  Make();
  const auto names = sb_->Exports();
  ASSERT_EQ(names.size(), 16u);
  EXPECT_EQ(names[0], "identity");
  EXPECT_EQ(names[7], "sum_buf");
  EXPECT_TRUE(sb_->Fn("deref").ok());
  EXPECT_FALSE(sb_->Fn("nope").ok());
}

// ---- Integer widths and signs ----

TEST_F(EmbedTest, UnsignedIntegersWrapAt64Bits) {
  Make();
  const uint64_t a = 0xffffffffffffff00ull;
  auto r = sb_->Call<uint64_t(uint64_t, uint64_t, uint64_t)>("add3", a, 0xff,
                                                             1);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value, a + 0xff + 1);
}

TEST_F(EmbedTest, SignedNarrowArgsAreSignExtended) {
  Make();
  // int32_t -5 must arrive in the guest register as the 64-bit -5, so a
  // 64-bit add with +7 lands on exactly 2.
  auto r = sb_->Call<int64_t(int32_t, int64_t, int64_t)>("add3",
                                                         int32_t{-5}, 7, 0);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value, 2);
  // int8_t -1 -> 64-bit -1.
  auto r8 = sb_->Call<int64_t(int8_t, int64_t, int64_t)>("add3", int8_t{-1},
                                                         0, 0);
  ASSERT_TRUE(r8.ok()) << r8.detail;
  EXPECT_EQ(r8.value, -1);
}

TEST_F(EmbedTest, UnsignedNarrowArgsAreZeroExtended) {
  Make();
  auto r = sb_->Call<uint64_t(uint8_t, uint64_t, uint64_t)>(
      "add3", uint8_t{0xff}, 0, 0);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value, 0xffu);
  auto r16 = sb_->Call<uint64_t(uint16_t, uint64_t, uint64_t)>(
      "add3", uint16_t{0xbeef}, 0x10000, 0);
  ASSERT_TRUE(r16.ok()) << r16.detail;
  EXPECT_EQ(r16.value, 0x1beefu);
}

TEST_F(EmbedTest, NarrowReturnTypesTruncate) {
  Make();
  auto r = sb_->Call<uint8_t(uint64_t)>("identity", 0x1234ffull);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value, 0xffu);
  auto s = sb_->Call<int32_t(uint64_t)>("identity", 0xffffffffull);
  ASSERT_TRUE(s.ok()) << s.detail;
  EXPECT_EQ(s.value, -1);
}

TEST_F(EmbedTest, VoidReturnDiscardsX0) {
  Make();
  auto r = sb_->Call<void(uint64_t)>("identity", 99);
  EXPECT_TRUE(r.ok()) << r.detail;
}

// ---- Floating point ----

TEST_F(EmbedTest, FloatArgsUseVectorRegisters) {
  Make();
  auto r = sb_->Call<float(float, float)>("fadd_s", 1.5f, 2.25f);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value, 3.75f);
}

TEST_F(EmbedTest, DoubleArgsUseVectorRegisters) {
  Make();
  auto r = sb_->Call<double(double, double)>("fadd_d", 1.25, -0.5);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value, 0.75);
}

TEST_F(EmbedTest, DoubleMarshalledBitExactly) {
  Make();
  const double d = 3.141592653589793;
  auto r = sb_->Call<uint64_t(double)>("fbits", d);
  ASSERT_TRUE(r.ok()) << r.detail;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  EXPECT_EQ(r.value, bits);
}

TEST_F(EmbedTest, IntAndFloatArgsWalkSeparateCounters) {
  Make();
  // mix(x0, d0, d1) = x0 + rawbits(d1): the two doubles must land in
  // vr0/vr1 while the integer stays in x0 (independent NGRN/NSRN).
  const double d = 2.0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  auto r = sb_->Call<uint64_t(uint64_t, double, double)>("mix", 5, 1.0, d);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value, 5 + bits);
}

// ---- Stack spills ----

TEST_F(EmbedTest, ArgsPastTheEighthSpillToGuestStack) {
  Make();
  auto r = sb_->Call<uint64_t(uint64_t, uint64_t, uint64_t, uint64_t,
                              uint64_t, uint64_t, uint64_t, uint64_t,
                              uint64_t, uint64_t)>("sum10", 1, 2, 3, 4, 5, 6,
                                                   7, 8, 900, 10000);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value, 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 900 + 10000u);
}

TEST_F(EmbedTest, SpillBeyondMaxStackArgsFailsClosed) {
  Sandbox::Options opts;
  opts.max_stack_args = 1;  // sum10 needs two spill slots
  Make(opts);
  auto r = sb_->Call<uint64_t(uint64_t, uint64_t, uint64_t, uint64_t,
                              uint64_t, uint64_t, uint64_t, uint64_t,
                              uint64_t, uint64_t)>("sum10", 1, 2, 3, 4, 5, 6,
                                                   7, 8, 9, 10);
  EXPECT_EQ(r.err, Err::kTooManyArgs);
  // The guest never ran; the sandbox stays alive.
  EXPECT_TRUE(sb_->alive());
}

// ---- Buffers ----

TEST_F(EmbedTest, BufInCopiesHostBytesIntoGuestScratch) {
  Make();
  std::vector<uint8_t> buf = {1, 2, 3, 250, 4};
  auto r = sb_->Call<uint64_t(BufIn, uint64_t)>(
      "sum_buf", BufIn{buf.data(), buf.size()}, buf.size());
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value, 1 + 2 + 3 + 250 + 4u);
}

TEST_F(EmbedTest, BufOutCopiesGuestWritesBackToHost) {
  Make();
  std::vector<uint8_t> buf(64, 0x11);
  auto r = sb_->Call<uint64_t(BufOut, uint64_t, uint64_t)>(
      "fill", BufOut{buf.data(), buf.size()}, buf.size(), 0x5a);
  ASSERT_TRUE(r.ok()) << r.detail;
  for (uint8_t b : buf) EXPECT_EQ(b, 0x5a);
}

TEST_F(EmbedTest, OversizedBufferFailsClosed) {
  Sandbox::Options opts;
  opts.max_buffer_bytes = 4096;
  Make(opts);
  std::vector<uint8_t> buf(8192);
  auto r = sb_->Call<uint64_t(BufIn, uint64_t)>(
      "sum_buf", BufIn{buf.data(), buf.size()}, buf.size());
  EXPECT_EQ(r.err, Err::kBufferTooLarge);
  EXPECT_TRUE(sb_->alive());
}

TEST_F(EmbedTest, BufferStraddlingTheSlotBoundaryFailsClosed) {
  // A buffer long enough that the scratch carve-out would leave the
  // program region entirely. The length check runs before any host bytes
  // are read, so a small real allocation with a huge declared length is
  // safe to pass.
  Sandbox::Options opts;
  opts.max_buffer_bytes = 1ull << 33;
  Make(opts);
  std::vector<uint8_t> tiny(16);
  auto r = sb_->Call<uint64_t(BufIn, uint64_t)>(
      "sum_buf", BufIn{tiny.data(), (1ull << 32) + 4096}, 16);
  EXPECT_EQ(r.err, Err::kBufferOutOfRange);
  EXPECT_TRUE(sb_->alive());
}

TEST_F(EmbedTest, MarshalledBufferPointerIsInSlot) {
  Make();
  std::vector<uint8_t> buf(32, 0);
  auto r = sb_->Call<GuestPtr(BufIn)>("bufaddr", BufIn{buf.data(), buf.size()});
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value.addr >> 32, sb_->base() >> 32);
  EXPECT_GE(r.value.addr & 0xffffffffu, runtime::kProgramStart);
}

// ---- Guest pointers and shared memory ----

TEST_F(EmbedTest, SharedMemoryRoundTripsThroughGuestLoadsAndStores) {
  Make();
  auto shm = sb_->MapShared(runtime::kPage);
  ASSERT_TRUE(shm.ok()) << shm.error();
  const uint64_t magic = 0x1122334455667788ull;
  std::vector<uint8_t> bytes(8);
  std::memcpy(bytes.data(), &magic, 8);
  ASSERT_TRUE(shm->Write(0, {bytes.data(), bytes.size()}).ok());

  // Guest load through the host-written region.
  auto r = sb_->Call<uint64_t(GuestPtr)>("deref", shm->ptr());
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value, magic);

  // Guest store, host read-back.
  auto w = sb_->Call<uint64_t(GuestPtr, uint64_t)>("store64", shm->ptr(),
                                                   0xdeadbeefull);
  ASSERT_TRUE(w.ok()) << w.detail;
  std::vector<uint8_t> back(8);
  ASSERT_TRUE(shm->Read(0, {back.data(), back.size()}).ok());
  uint64_t got;
  std::memcpy(&got, back.data(), 8);
  EXPECT_EQ(got, 0xdeadbeefull);
}

TEST_F(EmbedTest, HostRangeGuestPtrArgumentIsRejectedWithoutRunning) {
  Make();
  auto r = sb_->Call<uint64_t(GuestPtr)>("deref",
                                         GuestPtr{0xdead000000001000ull});
  EXPECT_EQ(r.err, Err::kBadGuestPointer);
  // The bad pointer came from the host; the guest never ran and is not
  // punished for it.
  EXPECT_TRUE(sb_->alive());
  auto ok = sb_->Call<uint64_t(uint64_t)>("identity", 3);
  EXPECT_TRUE(ok.ok()) << ok.detail;
}

TEST_F(EmbedTest, GuestReturnedHostRangePointerKillsTheGuest) {
  Make();
  auto r = sb_->Call<GuestPtr()>("wildptr");
  EXPECT_EQ(r.err, Err::kBadGuestPointer);
  // The guest tried to hand the host a wild pointer: fail closed.
  EXPECT_FALSE(sb_->alive());
  auto dead = sb_->Call<uint64_t(uint64_t)>("identity", 1);
  EXPECT_EQ(dead.err, Err::kSandboxDead);
  ASSERT_TRUE(sb_->Restart().ok());
  auto again = sb_->Call<uint64_t(uint64_t)>("identity", 1);
  EXPECT_TRUE(again.ok()) << again.detail;
}

// ---- Callbacks ----

TEST_F(EmbedTest, CallbackRoundTripMarshalsBothDirections) {
  Make();
  uint64_t seen = 0;
  sb_->BindCallback(0, std::function<uint64_t(uint64_t)>([&](uint64_t x) {
                      seen = x;
                      return x * 2;
                    }));
  auto r = sb_->Call<uint64_t(uint64_t)>("echo", 21);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(seen, 21u);
  EXPECT_EQ(r.value, 21 * 2 + 1u);  // guest adds 1 after the hostcall
}

TEST_F(EmbedTest, UnboundCallbackIndexFailsClosed) {
  Make();
  auto r = sb_->Call<uint64_t()>("badcb");
  EXPECT_EQ(r.err, Err::kBadCallbackIndex);
  EXPECT_FALSE(sb_->alive());
  ASSERT_TRUE(sb_->Restart().ok());
  EXPECT_TRUE(sb_->alive());
}

// ---- Remaining distinct failure modes ----

TEST_F(EmbedTest, UnknownExportNameFailsWithoutRunning) {
  Make();
  auto r = sb_->Call<uint64_t()>("no_such_export");
  EXPECT_EQ(r.err, Err::kNoSuchFunction);
  EXPECT_TRUE(sb_->alive());
}

TEST_F(EmbedTest, RunawayCallExhaustsFuel) {
  Sandbox::Options opts;
  opts.call_fuel = 20'000;
  Make(opts);
  auto r = sb_->Call<void()>("spin");
  EXPECT_EQ(r.err, Err::kFuelExhausted);
  EXPECT_FALSE(sb_->alive());
  ASSERT_TRUE(sb_->Restart().ok());
  auto again = sb_->Call<uint64_t(uint64_t)>("identity", 4);
  EXPECT_TRUE(again.ok()) << again.detail;
  EXPECT_EQ(again.value, 4u);
}

TEST_F(EmbedTest, EveryErrHasADistinctName) {
  std::vector<std::string> names;
  for (int e = 0; e <= static_cast<int>(Err::kProtocol); ++e) {
    names.push_back(ErrName(static_cast<Err>(e)));
  }
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]) << "duplicate Err name " << names[i];
    }
  }
}

TEST_F(EmbedTest, CreateFromSharesBaselineButNotState) {
  Make();
  auto other = Sandbox::CreateFrom(*sb_);
  ASSERT_TRUE(other.ok()) << other.error();
  EXPECT_NE((*other)->pid(), sb_->pid());
  // Both answer calls independently.
  auto a = sb_->Call<uint64_t(uint64_t)>("identity", 10);
  auto b = (*other)->Call<uint64_t(uint64_t)>("identity", 20);
  ASSERT_TRUE(a.ok()) << a.detail;
  ASSERT_TRUE(b.ok()) << b.detail;
  EXPECT_EQ(a.value, 10u);
  EXPECT_EQ(b.value, 20u);
  // Killing the clone leaves the original alive.
  auto w = (*other)->Call<GuestPtr()>("wildptr");
  EXPECT_EQ(w.err, Err::kBadGuestPointer);
  EXPECT_FALSE((*other)->alive());
  EXPECT_TRUE(sb_->alive());
}

TEST_F(EmbedTest, BadExportTableFailsCreateClosed) {
  // A module that announces a table with a corrupt magic word.
  const std::vector<GuestExport> none = {};
  std::string src = R"(
  adr x0, bogus
  rtcall #20
__lfi_ret_stub:
  mov x9, x19
  rtcall #19
  b __lfi_ret_stub
.rodata
.balign 16
bogus:
  .quad 0x1111111111111111
  .quad __lfi_ret_stub
  .quad 0
)";
  auto elf = elf::Build(src);
  ASSERT_TRUE(elf.ok()) << elf.error();
  runtime::Runtime rt(TestConfig());
  auto sb = Sandbox::Create(rt, elf->bytes);
  EXPECT_FALSE(sb.ok());
}

TEST_F(EmbedTest, OrdinaryProgramNeverReachesEmbedReady) {
  // A plain exit(0) program is not an embeddable module: Create must fail
  // (kExited path), not hang or succeed.
  const char* src = R"(
  mov x0, #0
  rtcall #0
)";
  auto elf = elf::Build(src);
  ASSERT_TRUE(elf.ok()) << elf.error();
  runtime::Runtime rt(TestConfig());
  auto sb = Sandbox::Create(rt, elf->bytes);
  EXPECT_FALSE(sb.ok());
}

}  // namespace
}  // namespace lfi::embed
