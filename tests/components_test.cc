// Component-level unit tests: cost model, cache/TLB models, VFS, layout
// arithmetic, and runtime error paths.

#include <gtest/gtest.h>

#include "arch/cost_model.h"
#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "elf/build.h"
#include "elf/elf.h"
#include "emu/timing.h"
#include "rewriter/rewriter.h"
#include "runtime/layout.h"
#include "runtime/runtime.h"
#include "runtime/vfs.h"

namespace lfi {
namespace {

using arch::Inst;
using arch::Mn;
using arch::Reg;
using arch::Width;

// --- Cost model ---

TEST(CostModel, GuardIsTwoCyclesHalfThroughput) {
  // The paper's observation that motivates all of Section 4.
  Inst guard;
  guard.mn = Mn::kAddExt;
  guard.ext = arch::Extend::kUxtw;
  const auto c = arch::CostOf(guard, arch::AppleM1LikeParams());
  EXPECT_EQ(c.latency, 2);
  EXPECT_EQ(c.slots, 2);
}

TEST(CostModel, PlainAddIsOneCycle) {
  Inst add;
  add.mn = Mn::kAddImm;
  const auto c = arch::CostOf(add, arch::AppleM1LikeParams());
  EXPECT_EQ(c.latency, 1);
  EXPECT_EQ(c.slots, 1);
}

TEST(CostModel, UxtxZeroShiftIsPlainAdd) {
  // `add sp, x21, x22` encodes as extended-uxtx-#0; must stay one cycle
  // (the whole point of staging through w22, Section 4.2).
  Inst i;
  i.mn = Mn::kAddExt;
  i.ext = arch::Extend::kUxtx;
  i.shift_amount = 0;
  EXPECT_EQ(arch::CostOf(i, arch::AppleM1LikeParams()).latency, 1);
}

TEST(CostModel, LoadsCostLoadLatencyOnBothCores) {
  Inst ldr;
  ldr.mn = Mn::kLdr;
  for (const auto& p :
       {arch::AppleM1LikeParams(), arch::GcpT2aLikeParams()}) {
    const auto c = arch::CostOf(ldr, p);
    EXPECT_EQ(c.latency, p.load_latency);
    EXPECT_TRUE(c.is_mem);
  }
}

TEST(CostModel, CoreParameterSanity) {
  const auto m1 = arch::AppleM1LikeParams();
  const auto t2a = arch::GcpT2aLikeParams();
  EXPECT_GT(m1.issue_width, t2a.issue_width);  // M1 is the wider core
  EXPECT_GT(m1.ghz, t2a.ghz);
  EXPECT_GT(m1.l1d_kib, t2a.l1d_kib);
}

// --- Cache model ---

TEST(CacheModel, HitsAfterInsert) {
  emu::CacheModel cache(64 * 1024, 8);
  EXPECT_FALSE(cache.Access(0x1000));
  EXPECT_TRUE(cache.Access(0x1000));
  EXPECT_TRUE(cache.Access(0x1020));  // same 64B line
  EXPECT_FALSE(cache.Access(0x1040));  // next line
}

TEST(CacheModel, LruEvictionWithinSet) {
  // 2-way, 2 sets: lines mapping to set 0 are multiples of 128.
  emu::CacheModel cache(256, 2);
  EXPECT_FALSE(cache.Access(0));
  EXPECT_FALSE(cache.Access(128));
  EXPECT_TRUE(cache.Access(0));
  EXPECT_FALSE(cache.Access(256));  // evicts 128 (LRU)
  EXPECT_TRUE(cache.Access(0));
  EXPECT_FALSE(cache.Access(128));
}

TEST(TlbModel, TracksPagesAndFlushes) {
  emu::TlbModel tlb(4);
  EXPECT_FALSE(tlb.Access(0x4000));
  EXPECT_TRUE(tlb.Access(0x4000));
  EXPECT_TRUE(tlb.Access(0x7fff));  // same 16KiB page
  tlb.Flush();
  EXPECT_FALSE(tlb.Access(0x4000));
}

// --- VFS ---

TEST(Vfs, CreateTruncAppendSemantics) {
  runtime::Vfs vfs;
  int err = 0;
  // ENOENT without O_CREAT.
  EXPECT_EQ(vfs.Open("/nope", runtime::kOpenRead, &err), nullptr);
  EXPECT_EQ(err, -2);
  // Create, write through the node, reopen with trunc.
  auto node = vfs.Open("/f", runtime::kOpenWrite | runtime::kOpenCreate,
                       &err);
  ASSERT_NE(node, nullptr);
  node->data = {1, 2, 3};
  auto again = vfs.Open("/f", runtime::kOpenRead, &err);
  EXPECT_EQ(again->data.size(), 3u);
  auto trunced =
      vfs.Open("/f", runtime::kOpenWrite | runtime::kOpenTrunc, &err);
  EXPECT_TRUE(trunced->data.empty());
}

TEST(Vfs, PolicyBlocksConfiguredPaths) {
  runtime::Vfs vfs;
  vfs.Install("/secret/key", std::string("k"));
  vfs.set_policy([](const std::string& path, int) {
    return path.rfind("/secret", 0) != 0;
  });
  int err = 0;
  EXPECT_EQ(vfs.Open("/secret/key", runtime::kOpenRead, &err), nullptr);
  EXPECT_EQ(err, -13);
  vfs.Install("/ok", std::string("fine"));
  EXPECT_NE(vfs.Open("/ok", runtime::kOpenRead, &err), nullptr);
}

// --- Layout arithmetic ---

TEST(Layout, SlotGeometryMatchesFigure1) {
  using namespace runtime;
  EXPECT_EQ(kSlotSize, uint64_t{4} * 1024 * 1024 * 1024);
  EXPECT_EQ(kGuardSize, uint64_t{48} * 1024);
  // Guard regions absorb the largest reachable immediate drift:
  // 2^15 (scaled imm) + 2^10 (pre/post-index) < 48KiB (footnote 1).
  EXPECT_GT(kGuardSize, uint64_t{1} << 15);
  EXPECT_GT(kGuardSize, (uint64_t{1} << 15) + (uint64_t{1} << 10));
  // Program area starts after the table page + guard.
  EXPECT_EQ(kProgramStart, kPage + kGuardSize);
  // The call table holds every runtime call and fits in its page.
  EXPECT_LE(static_cast<uint64_t>(Rtcall::kCount) * 8, kCallTableBytes);
  EXPECT_LE(kCallTableBytes, kPage);
  // Code must end 128MiB before the slot end (direct-branch reach).
  EXPECT_EQ(kSlotSize - kCodeEnd, uint64_t{128} << 20);
  // 65535 4GiB slots + the runtime's slot 0 fill the 48-bit space.
  EXPECT_EQ(SlotBase(kMaxSlots) + kSlotSize, uint64_t{1} << 48);
  // The paper's headline: ~64Ki sandboxes in the usermode address space.
  EXPECT_GE(kMaxSlots, uint64_t{64} * 1024 - 1);
}

// --- Runtime error paths ---

runtime::RuntimeConfig Cfg() {
  runtime::RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  return cfg;
}

int RunAndStatus(const std::string& src) {
  runtime::Runtime rt(Cfg());
  auto e = elf::Build(src);
  EXPECT_TRUE(e.ok()) << e.error();
  auto pid = rt.Load(e->bytes);
  EXPECT_TRUE(pid.ok());
  rt.RunUntilIdle();
  return rt.proc(*pid)->exit_status;
}

TEST(Layout, DefaultAssemblerLayoutLoads) {
  // The assembler's default layout is the loader's: an ELF built with
  // LayoutSpec{} loads and runs, its data reached through adrp.
  auto file = asmtext::Parse(R"(
_start:
  adrp x9, val
  add x9, x9, :lo12:val
  ldr x0, [x9]
  rtcall #0
.data
val:
  .quad 0
)");
  ASSERT_TRUE(file.ok()) << file.error();
  auto rewritten = rewriter::Rewrite(*file, {});
  ASSERT_TRUE(rewritten.ok()) << rewritten.error();
  auto img = asmtext::Assemble(*rewritten, asmtext::LayoutSpec{});
  ASSERT_TRUE(img.ok()) << img.error();
  EXPECT_EQ(img->text_addr, runtime::kProgramStart);
  const std::vector<uint8_t> bytes = elf::Write(elf::FromAssembled(*img));
  runtime::Runtime rt(Cfg());
  auto pid = rt.Load(bytes);
  ASSERT_TRUE(pid.ok()) << pid.error();
  rt.RunUntilIdle();
  EXPECT_EQ(rt.proc(*pid)->exit_kind, runtime::ExitKind::kExited);
  EXPECT_EQ(rt.proc(*pid)->exit_status, 0);
}

TEST(RuntimeErrors, BadFdReturnsEbadf) {
  EXPECT_EQ(RunAndStatus(R"(
    mov x0, #55
    mov x1, #0
    mov x2, #0
    rtcall #1          // write to nonexistent fd
    rtcall #0          // exit(result)
  )"), -9);
}

TEST(RuntimeErrors, CloseTwiceFails) {
  EXPECT_EQ(RunAndStatus(R"(
    adrp x0, path
    add x0, x0, :lo12:path
    movz x1, #0x41     // create|write
    rtcall #3
    mov x9, x0
    mov x0, x9
    rtcall #4          // close: ok
    mov x0, x9
    rtcall #4          // close again: EBADF
    rtcall #0
  .data
  path:
    .asciz "/t"
  )"), -9);
}

TEST(RuntimeErrors, MunmapOfUnmappedRangeFails) {
  EXPECT_EQ(RunAndStatus(R"(
    movz x0, #0x1000, lsl #16
    movz x1, #0x4000
    rtcall #7          // munmap of something never mapped
    rtcall #0
  )"), -22);
}

TEST(RuntimeErrors, YieldToMissingPidFails) {
  EXPECT_EQ(RunAndStatus(R"(
    mov x0, #77
    rtcall #14
    rtcall #0
  )"), -3);
}

TEST(RuntimeErrors, ReadFromWriteOnlyFileFails) {
  EXPECT_EQ(RunAndStatus(R"(
    adrp x0, path
    add x0, x0, :lo12:path
    movz x1, #0x41
    rtcall #3
    // write to fd with read-only open flags is checked in SysWrite; here
    // exercise lseek on a bad fd instead.
    mov x0, #40
    mov x1, #0
    mov x2, #0
    rtcall #15
    rtcall #0
  .data
  path:
    .asciz "/t2"
  )"), -9);
}

TEST(RuntimeErrors, WaitWithNoChildrenReturnsEchild) {
  EXPECT_EQ(RunAndStatus(R"(
    mov x0, #0
    rtcall #9
    rtcall #0
  )"), -10);
}

TEST(Runtime, MmapExhaustionReturnsEnomem) {
  // A single mmap larger than the slot's free area must fail cleanly.
  EXPECT_EQ(RunAndStatus(R"(
    mov x0, #0
    movz x1, #0xffff, lsl #16   // ~4GiB
    movk x1, #0xffff
    rtcall #6
    cmp x0, #0
    b.lt failed
    mov x0, #0
    rtcall #0
  failed:
    rtcall #0
  )"), -12);
}

}  // namespace
}  // namespace lfi
