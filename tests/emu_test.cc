// Emulator tests: address space, instruction semantics, timing model.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "emu/machine.h"
#include "trace/trace.h"

namespace lfi::emu {
namespace {

using arch::Reg;

constexpr uint64_t kCode = 0x100000;  // where test code is mapped
constexpr uint64_t kData = 0x200000;  // general-purpose RW area

// Builds a machine with a code page at kCode (RX) and a data page at
// kData (RW), assembles `src` there, and returns after running it until
// a brk, fault, or the step limit.
struct TestVm {
  AddressSpace space;
  Machine machine;

  explicit TestVm(const std::string& src)
      : machine(&space, arch::AppleM1LikeParams()) {
    auto file = asmtext::Parse(src);
    EXPECT_TRUE(file.ok()) << (file.ok() ? "" : file.error());
    asmtext::LayoutSpec spec;
    spec.text_offset = kCode;
    auto img = asmtext::Assemble(*file, spec);
    EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error());
    EXPECT_TRUE(space.Map(kCode, 0x40000, kPermRead | kPermExec).ok());
    EXPECT_TRUE(space.Map(kData, 0x40000, kPermRead | kPermWrite).ok());
    EXPECT_TRUE(space
                    .HostWrite(img->text_addr,
                               {img->text.data(), img->text.size()})
                    .ok());
    if (!img->data.empty()) {
      EXPECT_TRUE(
          space.HostWrite(img->data_addr, {img->data.data(), img->data.size()})
              .ok());
    }
    machine.state().pc = img->entry;
    machine.state().sp = kData + 0x20000;
  }

  StopReason Run(uint64_t steps = 100000) { return machine.Run(steps); }
  uint64_t X(int n) { return machine.state().x[n]; }
};

// Assembles `src` with the TestVm layout (text at kCode) without mapping
// anything; used to produce replacement code bytes for remap tests.
asmtext::Image AssembleAt(const std::string& src) {
  auto file = asmtext::Parse(src);
  EXPECT_TRUE(file.ok()) << (file.ok() ? "" : file.error());
  asmtext::LayoutSpec spec;
  spec.text_offset = kCode;
  auto img = asmtext::Assemble(*file, spec);
  EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error());
  return *img;
}

// Re-installs the payloads of [addr, addr+len) with `perms`: how the
// runtime changes a mapped page's perms.
Status Reprotect(AddressSpace& as, uint64_t addr, uint64_t len,
                 uint8_t perms) {
  for (uint64_t a = addr; a < addr + len; a += kPageSize) {
    if (auto st = as.InstallPage(a, as.ExportPage(a, nullptr), perms);
        !st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

// Installs the page at `src` in `from` at `dst` in `to`, sharing its
// payload copy-on-write and keeping its perms: how fork and spawn share a
// page between slots.
Status SharePage(AddressSpace& from, uint64_t src, AddressSpace& to,
                 uint64_t dst) {
  uint8_t perms = 0;
  auto data = from.ExportPage(src, &perms);
  return to.InstallPage(dst, std::move(data), perms);
}

TEST(AddressSpace, MapReadWrite) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x4000, 0x8000, kPermRead | kPermWrite).ok());
  ASSERT_TRUE(as.Write(0x4100, 0xdeadbeefcafe, 8).ok());
  auto v = as.Read(0x4100, 8);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0xdeadbeefcafeu);
  // Partial-width read.
  auto b = as.Read(0x4100, 2);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 0xcafeu);
}

TEST(AddressSpace, FaultsOnUnmappedAndPerms) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x4000, 0x4000, kPermRead).ok());
  EXPECT_FALSE(as.Read(0x100000, 8).ok());
  EXPECT_EQ(as.last_fault().kind, MemFault::Kind::kUnmapped);
  EXPECT_FALSE(as.Write(0x4000, 1, 8).ok());
  EXPECT_EQ(as.last_fault().kind, MemFault::Kind::kPermission);
  EXPECT_EQ(as.last_fault().access, Access::kWrite);
  EXPECT_FALSE(as.Fetch(0x4000).ok());  // no exec permission
}

TEST(AddressSpace, AccessStraddlingUnmappedBoundaryFaults) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x4000, 0x4000, kPermRead | kPermWrite).ok());
  // Last 4 bytes of the mapping + 4 bytes beyond.
  EXPECT_FALSE(as.Read(0x7ffc, 8).ok());
  EXPECT_FALSE(as.Write(0x7ffc, 0, 8).ok());
  // And fully inside is fine.
  EXPECT_TRUE(as.Read(0x7ff8, 8).ok());
}

TEST(AddressSpace, CopyOnWriteSharing) {
  AddressSpace a;
  ASSERT_TRUE(a.Map(0x4000, 0x4000, kPermRead | kPermWrite).ok());
  ASSERT_TRUE(a.Write(0x4000, 42, 8).ok());
  AddressSpace b;
  ASSERT_TRUE(SharePage(a, 0x4000, b, 0x4000).ok());
  EXPECT_EQ(*b.Read(0x4000, 8), 42u);
  // Writing in the child must not affect the parent.
  ASSERT_TRUE(b.Write(0x4000, 99, 8).ok());
  EXPECT_EQ(*a.Read(0x4000, 8), 42u);
  EXPECT_EQ(*b.Read(0x4000, 8), 99u);
}

TEST(AddressSpace, CheckEmptyAndWrappingRanges) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x4000, kPageSize, kPermRead).ok());
  // Zero-length ranges are vacuously valid anywhere, even unmapped.
  EXPECT_TRUE(as.Check(0x4000, 0, kPermRead));
  EXPECT_TRUE(as.Check(0x900000, 0, kPermRead));
  // A range wrapping past 2^64 never validates (and must not loop).
  EXPECT_FALSE(as.Check(~uint64_t{0} - 8, 16, kPermRead));
  EXPECT_FALSE(as.Check(~uint64_t{0}, 1, kPermRead));
}

TEST(AddressSpace, MapAndUnmapRejectWrappingRanges) {
  AddressSpace as;
  const uint64_t top = ~kPageMask;  // last page-aligned address
  EXPECT_FALSE(as.Map(top, 2 * kPageSize, kPermRead).ok());
  EXPECT_FALSE(as.Unmap(top, 2 * kPageSize).ok());
}

TEST(AddressSpace, MapRejectsOverlap) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(kPageSize, 2 * kPageSize, kPermRead | kPermWrite).ok());
  ASSERT_TRUE(as.Write(kPageSize, 77, 8).ok());
  // A partially overlapping map is rejected and maps nothing at all.
  EXPECT_FALSE(as.Map(2 * kPageSize, 2 * kPageSize, kPermRead).ok());
  EXPECT_EQ(*as.Read(kPageSize, 8), 77u);
  EXPECT_FALSE(as.Check(3 * kPageSize, 8, kPermRead));
  // A remap (Unmap, then Map) zero-fills.
  ASSERT_TRUE(as.Unmap(kPageSize, kPageSize).ok());
  ASSERT_TRUE(as.Map(kPageSize, kPageSize, kPermRead | kPermWrite).ok());
  EXPECT_EQ(*as.Read(kPageSize, 8), 0u);
}

TEST(AddressSpace, MutationGenerationTracksExecRelevantChanges) {
  AddressSpace as;
  uint64_t g = as.mutation_generation();
  // Nothing an instruction fetch can observe changes while only
  // non-executable pages are mapped, written, zeroed, installed,
  // re-protected, shared or unmapped: none of it may bump the generation.
  ASSERT_TRUE(as.Map(0x4000, kPageSize, kPermRead | kPermWrite).ok());
  ASSERT_TRUE(as.Write(0x4000, 1, 8).ok());
  uint8_t byte = 0;
  ASSERT_TRUE(as.HostWrite(0x4000, {&byte, 1}).ok());
  auto data = std::make_shared<AddressSpace::PageData>();
  data->fill(0);
  ASSERT_TRUE(as.InstallPage(0x8000, data, kPermRead).ok());
  ASSERT_TRUE(as.InstallPage(0x8000, data, kPermRead | kPermWrite).ok());
  ASSERT_TRUE(Reprotect(as, 0x8000, kPageSize, kPermRead).ok());
  ASSERT_TRUE(SharePage(as, 0x4000, as, 0x10000).ok());
  ASSERT_TRUE(as.Unmap(0x10000, kPageSize).ok());
  ASSERT_TRUE(as.Map(0x10000, kPageSize, kPermRead).ok());
  ASSERT_TRUE(as.Unmap(0x8000, kPageSize).ok());
  ASSERT_TRUE(as.Write(0x4000, 3, 8).ok());
  as.HostZero(0x4000, 8);
  ASSERT_TRUE(as.Write(0x4000, 4, 8).ok());
  as.HostZero(0x4000, kPageSize);
  EXPECT_EQ(as.mutation_generation(), g);
  // Making the page executable bumps; so does every write to it after.
  ASSERT_TRUE(
      Reprotect(as, 0x4000, kPageSize, kPermRead | kPermWrite | kPermExec)
          .ok());
  EXPECT_GT(as.mutation_generation(), g);
  g = as.mutation_generation();
  ASSERT_TRUE(as.Write(0x4000, 2, 8).ok());
  EXPECT_GT(as.mutation_generation(), g);
  g = as.mutation_generation();
  ASSERT_TRUE(as.HostWrite(0x4000, {&byte, 1}).ok());
  EXPECT_GT(as.mutation_generation(), g);
  // Zeroing part of an exec page bumps, and so does zeroing all of it.
  g = as.mutation_generation();
  as.HostZero(0x4000, 8);
  EXPECT_GT(as.mutation_generation(), g);
  g = as.mutation_generation();
  as.HostZero(0x4000, kPageSize);
  EXPECT_GT(as.mutation_generation(), g);
  // Mapping, installing, sharing, re-protecting and unmapping exec pages
  // bump, and so does replacing an exec page with a non-exec one.
  g = as.mutation_generation();
  auto bumps = [&](bool ok) {
    EXPECT_TRUE(ok);
    EXPECT_GT(as.mutation_generation(), g);
    g = as.mutation_generation();
  };
  bumps(as.Map(0x20000, kPageSize, kPermRead | kPermExec).ok());
  bumps(as.InstallPage(0x24000, data, kPermRead | kPermExec).ok());
  bumps(as.InstallPage(0x24000, data, kPermRead).ok());
  bumps(SharePage(as, 0x20000, as, 0x30000).ok());
  bumps(Reprotect(as, 0x30000, kPageSize, kPermRead).ok());
  bumps(as.Unmap(0x20000, kPageSize).ok());
  ASSERT_TRUE(as.Map(0x20000, kPageSize, kPermRead).ok());
  bumps(Reprotect(as, 0x20000, kPageSize, kPermRead | kPermExec).ok());
  bumps(as.Unmap(0x20000, kPageSize).ok());
}

// ---- The shared zero page -------------------------------------------------

bool AllZero(const AddressSpace::PageData& d) {
  return std::all_of(d.begin(), d.end(), [](uint8_t b) { return b == 0; });
}

const AddressSpace::PageData* Payload(const AddressSpace& as, uint64_t addr) {
  return as.PagePayload(addr, nullptr);
}

const AddressSpace::PageData* Zero() {
  return AddressSpace::ZeroPage().get();
}

TEST(AddressSpace, MapSharesTheZeroPage) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x40000, 8 * kPageSize, kPermRead | kPermWrite).ok());
  for (uint64_t a = 0x40000; a < 0x40000 + 8 * kPageSize; a += kPageSize) {
    EXPECT_EQ(Payload(as, a), Zero());
  }
  ASSERT_TRUE(as.Write(0x40000, 1, 8).ok());
  ASSERT_TRUE(as.Unmap(0x40000, kPageSize).ok());
  ASSERT_TRUE(as.Map(0x40000, kPageSize, kPermRead).ok());
  EXPECT_EQ(Payload(as, 0x40000), Zero());
  EXPECT_TRUE(AllZero(*Zero()));
}

// Every write path copies the zero page first and leaves it all zero.
TEST(AddressSpace, EveryWritePathCopiesTheZeroPage) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x40000, 4 * kPageSize, kPermRead | kPermWrite).ok());
  ASSERT_TRUE(as.Write(0x40008, 0x1234, 8).ok());
  const uint8_t bytes[3] = {1, 2, 3};
  ASSERT_TRUE(as.HostWrite(0x40000 + kPageSize - 1, bytes).ok());  // straddle
  EXPECT_NE(Payload(as, 0x40000), Zero());
  EXPECT_NE(Payload(as, 0x40000 + kPageSize), Zero());
  EXPECT_EQ(Payload(as, 0x40000 + 2 * kPageSize), Zero());
  EXPECT_EQ(*as.Read(0x40008, 8), 0x1234u);
  EXPECT_EQ(*as.Read(0x40000 + kPageSize, 2), 0x0302u);

  // A zero page shared into another space or another address copies on
  // the first write in either place.
  AddressSpace child;
  const uint64_t last = 0x40000 + 3 * kPageSize;
  ASSERT_TRUE(SharePage(as, last, child, last).ok());
  EXPECT_EQ(Payload(child, last), Zero());
  ASSERT_TRUE(child.Write(last, 7, 8).ok());
  EXPECT_NE(Payload(child, last), Zero());
  EXPECT_EQ(Payload(as, last), Zero());
  ASSERT_TRUE(SharePage(as, last, as, 0x100000).ok());
  EXPECT_EQ(Payload(as, 0x100000), Zero());
  ASSERT_TRUE(as.Write(0x100000, 9, 1).ok());
  EXPECT_NE(Payload(as, 0x100000), Zero());
  EXPECT_EQ(Payload(as, last), Zero());
  EXPECT_EQ(*as.Read(last, 8), 0u);
  EXPECT_TRUE(AllZero(*Zero()));
}

// A load caches the zero page's read pointer in the chained backend's
// data TLB; the store after it must still copy, never write through it.
TEST(Machine, ChainedStoreAfterLoadCopiesTheZeroPage) {
  TestVm vm(R"(
    movz x10, #0x20, lsl #16   // kData
    ldr x1, [x10, #16]
    movz x2, #77
    str x2, [x10, #16]
    ldr x3, [x10, #16]
    ldr x4, [x10, #24]
    brk #0
  )");
  ASSERT_EQ(Payload(vm.space, kData), Zero());
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(1), 0u);
  EXPECT_EQ(vm.X(3), 77u);
  EXPECT_EQ(vm.X(4), 0u);
  EXPECT_NE(Payload(vm.space, kData), Zero());
  EXPECT_EQ(Payload(vm.space, kData + kPageSize), Zero());
  EXPECT_TRUE(AllZero(*Zero()));
}

// A store the chained backend's data TLB cannot serve goes through
// AddressSpace::Write, which may copy a page whose read pointer an
// earlier load cached. A load after the store must read the store, on
// both backends. Here the store straddles two zero pages.
TEST(Machine, LoadAfterStraddlingStoreSeesTheStore) {
  for (Dispatch d : {Dispatch::kChained, Dispatch::kBlock}) {
    SCOPED_TRACE("dispatch " + std::to_string(int(d)));
    TestVm vm(R"(
      movz x10, #0x20, lsl #16
      movk x10, #0x3000          // kData + 0x3000
      add x11, x10, #0xffc       // 4 bytes before the next page
      ldr x1, [x10, #0xff8]
      ldr w5, [x10, #0x1000]
      movz x2, #77
      movk x2, #5, lsl #32
      str x2, [x11]
      ldr x3, [x10, #0xff8]
      ldr w4, [x10, #0x1000]
      brk #0
    )");
    vm.machine.set_dispatch(d);
    EXPECT_EQ(vm.Run(), StopReason::kBrk);
    EXPECT_EQ(vm.X(1), 0u);
    EXPECT_EQ(vm.X(5), 0u);
    EXPECT_EQ(vm.X(3), uint64_t{77} << 32);
    EXPECT_EQ(vm.X(4), 5u);
  }
}

// The same for a store to a writable exec page: the data TLB never
// caches its write pointer, and the write copies the zero page.
TEST(Machine, LoadAfterStoreToWritableExecPageSeesTheStore) {
  for (Dispatch d : {Dispatch::kChained, Dispatch::kBlock}) {
    SCOPED_TRACE("dispatch " + std::to_string(int(d)));
    TestVm vm(R"(
      movz x10, #0x20, lsl #16   // kData
      ldr x1, [x10, #16]
      movz x2, #77
      str x2, [x10, #16]
      ldr x3, [x10, #16]
      brk #0
    )");
    ASSERT_TRUE(Reprotect(vm.space, kData, kPageSize,
                          kPermRead | kPermWrite | kPermExec)
                    .ok());
    ASSERT_EQ(Payload(vm.space, kData), Zero());
    vm.machine.set_dispatch(d);
    EXPECT_EQ(vm.Run(), StopReason::kBrk);
    EXPECT_EQ(vm.X(1), 0u);
    EXPECT_EQ(vm.X(3), 77u);
  }
}

TEST(AddressSpace, HostZeroReinstallsTheZeroPageAndKeepsHoles) {
  AddressSpace as;
  constexpr uint64_t kBase = 0x40000;
  ASSERT_TRUE(as.Map(kBase, 4 * kPageSize, kPermRead | kPermWrite).ok());
  std::vector<uint8_t> ones(4 * kPageSize, 0xff);
  ASSERT_TRUE(as.HostWrite(kBase, ones).ok());
  ASSERT_TRUE(Reprotect(as, kBase + 3 * kPageSize, kPageSize, kPermRead).ok());
  ASSERT_TRUE(as.Unmap(kBase + kPageSize, kPageSize).ok());
  // From the middle of page 0 to the middle of page 3 (page 1 a hole).
  as.HostZero(kBase + 100, 3 * kPageSize);
  EXPECT_EQ(*as.Read(kBase + 99, 1), 0xffu);
  EXPECT_EQ(*as.Read(kBase + 100, 8), 0u);
  EXPECT_NE(Payload(as, kBase), Zero());
  EXPECT_EQ(Payload(as, kBase + kPageSize), nullptr);
  EXPECT_EQ(Payload(as, kBase + 2 * kPageSize), Zero());
  uint8_t perms = 0;
  EXPECT_NE(as.PagePayload(kBase + 3 * kPageSize, &perms), Zero());
  EXPECT_EQ(perms, kPermRead);
  uint8_t tail[2] = {};
  ASSERT_TRUE(as.HostRead(kBase + 3 * kPageSize + 99, tail).ok());
  EXPECT_EQ(tail[0], 0u);
  EXPECT_EQ(tail[1], 0xffu);
  // A whole read-only page keeps its perms on the zero page.
  as.HostZero(kBase + 3 * kPageSize, kPageSize);
  EXPECT_EQ(as.PagePayload(kBase + 3 * kPageSize, &perms), Zero());
  EXPECT_EQ(perms, kPermRead);
  EXPECT_TRUE(AllZero(*Zero()));
}

// HostRead/HostWrite move a 1 MiB buffer across 65 page boundaries; when
// the range ends on an unmapped page, the bytes before it still move.
TEST(AddressSpace, HostCopiesSpanPagesAndStopAtTheFirstHole) {
  constexpr uint64_t kMiB = 1 << 20;
  std::vector<uint8_t> src(kMiB);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>(i * 7 + i / 251);
  }
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x100000, kMiB + kPageSize, kPermRead).ok());
  ASSERT_TRUE(as.HostWrite(0x100000 + 123, src).ok());
  std::vector<uint8_t> back(kMiB);
  ASSERT_TRUE(as.HostRead(0x100000 + 123, back).ok());
  EXPECT_EQ(back, src);
  EXPECT_EQ(*as.Read(0x100000 + kPageSize - 1, 2),
            src[kPageSize - 124] | (uint64_t{src[kPageSize - 123]} << 8));

  // [0x400000, 0x400000 + 1 MiB) is mapped; the copy runs 4 KiB past it.
  ASSERT_TRUE(as.Map(0x400000, kMiB, kPermRead | kPermWrite).ok());
  const uint64_t start = 0x400000 + 0x1000;
  EXPECT_FALSE(as.HostWrite(start, src).ok());
  std::vector<uint8_t> partial(kMiB, 0xee);
  EXPECT_FALSE(as.HostRead(start, partial).ok());
  const size_t mapped = kMiB - 0x1000;
  EXPECT_TRUE(std::equal(src.begin(), src.begin() + mapped, partial.begin()));
  EXPECT_TRUE(std::all_of(partial.begin() + mapped, partial.end(),
                          [](uint8_t b) { return b == 0xee; }));
  EXPECT_EQ(*as.Read(0x400000 + kMiB - 1, 1), src[mapped - 1]);
}

TEST(Machine, ArithmeticLoop) {
  // Sum 1..10 into x0.
  TestVm vm(R"(
    mov x0, #0
    mov x1, #10
  loop:
    add x0, x0, x1
    subs x1, x1, #1
    b.ne loop
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 55u);
}

TEST(Machine, GuardForcesTopBits) {
  // The core LFI property: add x18, x21, wN, uxtw replaces the top 32 bits
  // of an arbitrary value with the sandbox base.
  TestVm vm(R"(
    movz x21, #0xdead, lsl #32
    movz x1, #0x4141, lsl #48
    movk x1, #0x1234
    add x18, x21, w1, uxtw
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(18), 0xdead00001234u);
}

TEST(Machine, GuardedAddressingModeSemantics) {
  // ldr rt, [x21, wN, uxtw] ignores the index's top 32 bits.
  TestVm vm(R"(
    movz x21, #0x20, lsl #16   // x21 = kData
    movz x2, #0x77
    str x2, [x21, #64]
    movz x3, #0xffff, lsl #48  // garbage top bits
    movk x3, #64               // low 32 = 64
    ldr x0, [x21, w3, uxtw]
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 0x77u);
}

TEST(Machine, FlagsAndConditionalSelect) {
  TestVm vm(R"(
    mov x1, #5
    mov x2, #9
    cmp x1, x2
    csel x0, x1, x2, lt    // min -> 5
    cset w3, lt
    csinc x4, xzr, xzr, eq // not equal -> 0 + 1
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 5u);
  EXPECT_EQ(vm.X(3), 1u);
  EXPECT_EQ(vm.X(4), 1u);
}

TEST(Machine, BitfieldAliases) {
  TestVm vm(R"(
    movz x1, #0xff00
    lsl x2, x1, #8
    lsr x3, x1, #8
    movn x4, #0            // x4 = all ones
    asr x5, x4, #63
    sxtw x6, w4
    uxth w7, w1
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(2), 0xff0000u);
  EXPECT_EQ(vm.X(3), 0xffu);
  EXPECT_EQ(vm.X(5), ~uint64_t{0});
  EXPECT_EQ(vm.X(6), ~uint64_t{0});
  EXPECT_EQ(vm.X(7), 0xff00u);
}

TEST(Machine, MulDivRemainderIdiom) {
  TestVm vm(R"(
    mov x1, #37
    mov x2, #5
    udiv x3, x1, x2
    msub x4, x3, x2, x1    // remainder = 37 - 7*5
    sdiv x5, xzr, xzr      // divide by zero -> 0
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(3), 7u);
  EXPECT_EQ(vm.X(4), 2u);
  EXPECT_EQ(vm.X(5), 0u);
}

TEST(Machine, LoadStoreVariantsAndSignExtension) {
  TestVm vm(R"(
    movz x10, #0x20, lsl #16   // kData
    movn w1, #0                // 0xffffffff
    str w1, [x10]
    ldrsb x2, [x10]
    ldrh w3, [x10]
    ldrsw x4, [x10]
    strb w1, [x10, #100]
    ldrb w5, [x10, #100]
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(2), ~uint64_t{0});
  EXPECT_EQ(vm.X(3), 0xffffu);
  EXPECT_EQ(vm.X(4), ~uint64_t{0});
  EXPECT_EQ(vm.X(5), 0xffu);
}

TEST(Machine, PairAndPrePostIndex) {
  TestVm vm(R"(
    movz x10, #0x21, lsl #16
    mov x1, #111
    mov x2, #222
    stp x1, x2, [x10, #-16]!
    ldp x3, x4, [x10], #16
    str x1, [x10, #8]!
    ldr x5, [x10], #-8
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(3), 111u);
  EXPECT_EQ(vm.X(4), 222u);
  EXPECT_EQ(vm.X(5), 111u);
  EXPECT_EQ(vm.X(10), 0x210000u);
}

TEST(Machine, PairLoadIntoZrDiscardsTheValue) {
  // ldp's second destination is xzr: the value is dropped, and the timing
  // scoreboard must skip it too. It used to write one slot before the
  // scoreboard array, corrupting the host heap (the sanitizer preset
  // reports that as a heap-buffer-overflow).
  TestVm vm(R"(
    movz x10, #0x21, lsl #16
    mov x1, #111
    mov x2, #222
    stp x1, x2, [x10]
    ldp x3, xzr, [x10]
    ldp xzr, x4, [x10]
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(3), 111u);
  EXPECT_EQ(vm.X(4), 222u);
}

TEST(Machine, ExclusivePairSucceedsAndFails) {
  TestVm vm(R"(
    movz x10, #0x20, lsl #16
    mov x1, #5
    str x1, [x10]
    ldxr x2, [x10]
    add x2, x2, #1
    stxr w3, x2, [x10]      // should succeed: w3 = 0
    stxr w4, x2, [x10]      // monitor cleared: w4 = 1
    ldr x5, [x10]
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(3), 0u);
  EXPECT_EQ(vm.X(4), 1u);
  EXPECT_EQ(vm.X(5), 6u);
}

TEST(Machine, FloatingPoint) {
  TestVm vm(R"(
    mov x1, #3
    mov x2, #4
    scvtf d0, x1
    scvtf d1, x2
    fmul d2, d0, d1
    fadd d2, d2, d1        // 16
    fsqrt d3, d2           // 4
    fcvtzs x0, d3
    fcmp d3, d1
    cset w4, eq
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 4u);
  EXPECT_EQ(vm.X(4), 1u);
}

TEST(Machine, VectorAdd) {
  TestVm vm(R"(
    movz x10, #0x20, lsl #16
    mov x1, #1
    mov x2, #2
    str x1, [x10]
    str x2, [x10, #8]
    str x2, [x10, #16]
    str x1, [x10, #24]
    ldr q0, [x10]
    ldr q1, [x10, #16]
    add v2.2d, v0.2d, v1.2d
    str q2, [x10, #32]
    ldr x3, [x10, #32]
    ldr x4, [x10, #40]
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(3), 3u);
  EXPECT_EQ(vm.X(4), 3u);
}

TEST(Machine, JumpTableViaBr) {
  TestVm vm(R"(
    adr x1, case1
    br x1
    mov x0, #1
    brk #0
  case1:
    mov x0, #42
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 42u);
}

TEST(Machine, CallAndReturn) {
  TestVm vm(R"(
    bl func
    mov x1, #7
    brk #0
  func:
    mov x0, #9
    ret
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 9u);
  EXPECT_EQ(vm.X(1), 7u);
}

TEST(Machine, StoreToUnmappedFaults) {
  TestVm vm(R"(
    movz x1, #0x7f, lsl #32
    str x1, [x1]
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kFault);
  EXPECT_EQ(vm.machine.fault().kind, CpuFault::Kind::kMemory);
  EXPECT_EQ(vm.machine.fault().mem.kind, MemFault::Kind::kUnmapped);
}

TEST(Machine, StoreToReadOnlyCodeFaults) {
  TestVm vm(R"(
    movz x1, #0x10, lsl #16   // kCode
    str x1, [x1]
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kFault);
  EXPECT_EQ(vm.machine.fault().mem.kind, MemFault::Kind::kPermission);
}

TEST(Machine, ExecuteDataFaults) {
  TestVm vm(R"(
    movz x1, #0x20, lsl #16   // kData: mapped RW, not X
    br x1
  )");
  EXPECT_EQ(vm.Run(), StopReason::kFault);
  EXPECT_EQ(vm.machine.fault().kind, CpuFault::Kind::kFetch);
}

TEST(Machine, MisalignedBranchFaults) {
  TestVm vm(R"(
    movz x1, #0x10, lsl #16
    add x1, x1, #2
    br x1
  )");
  EXPECT_EQ(vm.Run(), StopReason::kFault);
  EXPECT_EQ(vm.machine.fault().kind, CpuFault::Kind::kPcAlign);
}

TEST(Machine, SvcIsIllegal) {
  TestVm vm("svc #0\n");
  EXPECT_EQ(vm.Run(), StopReason::kFault);
  EXPECT_EQ(vm.machine.fault().kind, CpuFault::Kind::kIllegal);
}

TEST(Machine, RuntimeRegionStopsExecution) {
  TestVm vm(R"(
    movz x1, #0x7000, lsl #16
    br x1
  )");
  vm.machine.SetRuntimeRegion(0x70000000, 0x10000);
  EXPECT_EQ(vm.Run(), StopReason::kRuntimeEntry);
  EXPECT_EQ(vm.machine.state().pc, 0x70000000u);
}

// Regression: after the code region is remapped with different bytes, the
// machine must execute the new code, not a stale decoded copy. (The
// original per-page decode cache kept serving the old instructions here.)
TEST(Machine, RemapInvalidatesDecodedCode) {
  TestVm vm("  mov x0, #1\n  brk #0\n");
  const uint64_t entry = vm.machine.state().pc;
  ASSERT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 1u);
  // Remap the code region (fresh zero pages) and install different code.
  ASSERT_TRUE(vm.space.Unmap(kCode, 0x40000).ok());
  ASSERT_TRUE(vm.space.Map(kCode, 0x40000, kPermRead | kPermExec).ok());
  const asmtext::Image img = AssembleAt("  mov x0, #2\n  brk #0\n");
  ASSERT_TRUE(
      vm.space.HostWrite(img.text_addr, {img.text.data(), img.text.size()})
          .ok());
  vm.machine.state().pc = entry;
  ASSERT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 2u);  // a stale cache would still deliver #1
}

// Same property for in-place code patching through HostWrite (no remap).
TEST(Machine, HostWriteToExecPageInvalidatesDecodedCode) {
  TestVm vm("  mov x0, #1\n  brk #0\n");
  const uint64_t entry = vm.machine.state().pc;
  ASSERT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 1u);
  const asmtext::Image img = AssembleAt("  mov x0, #3\n  brk #0\n");
  ASSERT_TRUE(
      vm.space.HostWrite(img.text_addr, {img.text.data(), img.text.size()})
          .ok());
  vm.machine.state().pc = entry;
  ASSERT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 3u);
}

// Removing exec permission must also invalidate: re-running previously
// decoded code faults at fetch instead of executing from the cache.
TEST(Machine, ProtectDropsExecAndRerunFetchFaults) {
  TestVm vm("  mov x0, #1\n  brk #0\n");
  const uint64_t entry = vm.machine.state().pc;
  ASSERT_EQ(vm.Run(), StopReason::kBrk);
  ASSERT_TRUE(Reprotect(vm.space, kCode, 0x40000, kPermRead).ok());
  vm.machine.state().pc = entry;
  ASSERT_EQ(vm.Run(), StopReason::kFault);
  EXPECT_EQ(vm.machine.fault().kind, CpuFault::Kind::kFetch);
}

// --- Block-chaining invalidation (Dispatch::kChained, docs/DISPATCH.md) ---

// A guest store into the executing page bumps the mutation generation
// mid-flight: the chained backend must sever its block->block links at the
// very next edge, redecode, and execute the patched code — and do all of
// that on the same simulated schedule as the reference backend. The store
// lands on an instruction *after* the loop, so a stale chain would deliver
// the pre-patch "mov x0, #1".
TEST(Machine, ChainedSelfModifyingStoreSeversChainsMidLoop) {
  const char* src =
      "  movz x9, #5\n"
      "  movz x1, #0x0040\n"
      "  movk x1, #0xd280, lsl #16\n"  // 0xd2800040 = "mov x0, #2"
      "loop:\n"
      "  subs x9, x9, #1\n"
      "  str w1, [x3]\n"  // patches the exec page every iteration
      "  b.ne loop\n"
      "  mov x0, #1\n"  // patch site: becomes "mov x0, #2"
      "  brk #0\n";
  uint64_t want_retired = 0, want_cycles = 0;
  for (Dispatch d : {Dispatch::kChained, Dispatch::kBlock}) {
    SCOPED_TRACE("dispatch " + std::to_string(int(d)));
    TestVm vm(src);
    ASSERT_TRUE(Reprotect(vm.space, kCode, 0x40000,
                          kPermRead | kPermWrite | kPermExec)
                    .ok());
    vm.machine.set_dispatch(d);
    vm.machine.state().x[3] = vm.machine.state().pc + 24;  // the patch site
    ASSERT_EQ(vm.Run(), StopReason::kBrk);
    EXPECT_EQ(vm.X(0), 2u);  // a live chain would still deliver #1
    if (d == Dispatch::kChained) {
      want_retired = vm.machine.timing().Retired();
      want_cycles = vm.machine.timing().Cycles();
      EXPECT_GT(want_retired, 0u);
    } else {
      EXPECT_EQ(vm.machine.timing().Retired(), want_retired);
      EXPECT_EQ(vm.machine.timing().Cycles(), want_cycles);
    }
  }
}

// Host-side mutations between runs — HostWrite code patching, a perms
// round-trip, and a full remap — must each leave the chained backend
// executing fresh code on the reference backend's exact simulated
// schedule. Every phase reuses the same machine, so chains built in one
// phase are live bait for the next.
TEST(Machine, ChainedHostMutationsMatchReferenceAcrossRuns) {
  const char* kLoop1 =
      "  movz x9, #100\n"
      "l1:\n"
      "  subs x9, x9, #1\n"
      "  b.ne l1\n"
      "  mov x0, #1\n"
      "  brk #0\n";
  const char* kLoop2 =
      "  movz x9, #60\n"
      "l2:\n"
      "  subs x9, x9, #1\n"
      "  b.ne l2\n"
      "  mov x0, #2\n"
      "  brk #0\n";
  const char* kLoop3 =
      "  movz x9, #30\n"
      "l3:\n"
      "  subs x9, x9, #1\n"
      "  b.ne l3\n"
      "  mov x0, #3\n"
      "  brk #0\n";
  auto run_seq = [&](Dispatch d) {
    std::vector<uint64_t> log;
    TestVm vm(kLoop1);
    vm.machine.set_dispatch(d);
    const uint64_t entry = vm.machine.state().pc;
    auto record = [&](StopReason stop) {
      EXPECT_EQ(stop, StopReason::kBrk);
      log.push_back(vm.X(0));
      log.push_back(vm.machine.timing().Retired());
      log.push_back(vm.machine.timing().Cycles());
    };
    record(vm.Run());  // phase 1: builds chains for the loop

    // Phase 2: HostWrite patches the loop in place.
    const asmtext::Image img2 = AssembleAt(kLoop2);
    EXPECT_TRUE(
        vm.space.HostWrite(img2.text_addr, {img2.text.data(), img2.text.size()})
            .ok());
    vm.machine.state().pc = entry;
    record(vm.Run());

    // Phase 3: a perms round-trip (perms unchanged in the end) still
    // bumps the generation; the rerun must redecode, not trust chains.
    EXPECT_TRUE(Reprotect(vm.space, kCode, 0x40000, kPermRead).ok());
    EXPECT_TRUE(
        Reprotect(vm.space, kCode, 0x40000, kPermRead | kPermExec).ok());
    vm.machine.state().pc = entry;
    record(vm.Run());

    // Phase 4: full remap with different code.
    EXPECT_TRUE(vm.space.Unmap(kCode, 0x40000).ok());
    EXPECT_TRUE(vm.space.Map(kCode, 0x40000, kPermRead | kPermExec).ok());
    const asmtext::Image img3 = AssembleAt(kLoop3);
    EXPECT_TRUE(
        vm.space.HostWrite(img3.text_addr, {img3.text.data(), img3.text.size()})
            .ok());
    vm.machine.state().pc = entry;
    record(vm.Run());
    return log;
  };
  const std::vector<uint64_t> chained = run_seq(Dispatch::kChained);
  const std::vector<uint64_t> block = run_seq(Dispatch::kBlock);
  ASSERT_EQ(chained.size(), 12u);
  EXPECT_EQ(chained[0], 1u);
  EXPECT_EQ(chained[3], 2u);
  EXPECT_EQ(chained[6], 2u);  // phase 3 reruns the phase-2 code
  EXPECT_EQ(chained[9], 3u);
  EXPECT_EQ(block, chained);
}

void ExpectSameCounters(const trace::ExecCounters& a,
                        const trace::ExecCounters& b) {
  EXPECT_EQ(a.retired, b.retired);
  EXPECT_EQ(a.guards, b.guards);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.block_hits, b.block_hits);
  EXPECT_EQ(a.block_misses, b.block_misses);
  EXPECT_EQ(a.block_invalidations, b.block_invalidations);
}

// Zeroing an exec page from the host (HostZero, which a brk shrink uses)
// must invalidate decoded code like any other write: the rerun decodes
// the zero word and faults instead of running the stale chained loop, on
// the same schedule and counters in both backends.
TEST(Machine, HostZeroOfExecPageInvalidatesDecodedCode) {
  trace::ExecCounters want;
  uint64_t want_cycles = 0;
  for (Dispatch d : {Dispatch::kChained, Dispatch::kBlock}) {
    SCOPED_TRACE("dispatch " + std::to_string(int(d)));
    TestVm vm(
        "  movz x9, #20\n"
        "loop:\n"
        "  subs x9, x9, #1\n"
        "  b.ne loop\n"
        "  mov x0, #1\n"
        "  brk #0\n");
    trace::ExecCounters c;
    vm.machine.set_dispatch(d);
    vm.machine.set_counters(&c);
    const uint64_t entry = vm.machine.state().pc;
    ASSERT_EQ(vm.Run(), StopReason::kBrk);
    EXPECT_EQ(vm.X(0), 1u);
    const uint64_t gen = vm.space.mutation_generation();
    vm.space.HostZero(kCode, kPageSize);
    EXPECT_GT(vm.space.mutation_generation(), gen);
    vm.machine.state().x[0] = 0;
    vm.machine.state().pc = entry;
    ASSERT_EQ(vm.Run(), StopReason::kFault);
    EXPECT_EQ(vm.machine.fault().kind, CpuFault::Kind::kDecode);
    EXPECT_EQ(vm.machine.fault().pc, entry);
    EXPECT_EQ(vm.X(0), 0u);  // the stale block would have set it to 1
    if (d == Dispatch::kChained) {
      want = c;
      want_cycles = vm.machine.timing().Cycles();
      continue;
    }
    EXPECT_EQ(vm.machine.timing().Cycles(), want_cycles);
    ExpectSameCounters(c, want);
  }
}

// More distinct blocks than the block cache holds (kMaxCachedBlocks, 32768
// in machine.cc): nine pages of `b .+4`, each its own one-instruction
// block, traversed twice. The cap is reached mid-traversal -- under
// kChained in the FetchBlock that resolves a chain link, whose
// predecessor must survive until the flight returns to the dispatch head
// that clears the cache -- and both backends must still agree on every
// result and every counter.
TEST(Machine, BlockCacheCapClearsIdenticallyAcrossBackends) {
  constexpr uint64_t kJumps = 9 * kPageSize / 4;
  std::string src = "  movz x9, #2\nouter:\n";
  for (uint64_t k = 0; k < kJumps; ++k) {
    const std::string label = "j" + std::to_string(k);
    src += "  b " + label + "\n" + label + ":\n";
  }
  src += "  add x0, x0, #1\n  subs x9, x9, #1\n  b.ne outer\n  brk #0\n";
  trace::ExecCounters want;
  uint64_t want_cycles = 0;
  for (Dispatch d : {Dispatch::kChained, Dispatch::kBlock}) {
    SCOPED_TRACE("dispatch " + std::to_string(int(d)));
    TestVm vm(src);
    trace::ExecCounters c;
    vm.machine.set_dispatch(d);
    vm.machine.set_counters(&c);
    ASSERT_EQ(vm.Run(4 * kJumps), StopReason::kBrk);
    EXPECT_EQ(vm.X(0), 2u);
    // Only a cleared cache decodes a block twice.
    EXPECT_GT(c.block_misses, kJumps + 8);
    if (d == Dispatch::kChained) {
      want = c;
      want_cycles = vm.machine.timing().Cycles();
      continue;
    }
    EXPECT_EQ(vm.machine.timing().Cycles(), want_cycles);
    ExpectSameCounters(c, want);
  }
}

// --- Decoded code shared across sandboxes (docs/DISPATCH.md) ---

using PagePtr = std::shared_ptr<AddressSpace::PageData>;

// Assembles `src` (text at kCode) into `n` zero-padded page payloads.
std::vector<PagePtr> CodePages(const std::string& src, size_t n) {
  const asmtext::Image img = AssembleAt(src);
  EXPECT_EQ(img.entry, img.text_addr);
  EXPECT_LE(img.text.size(), n * kPageSize);
  std::vector<PagePtr> pages;
  for (size_t p = 0; p < n; ++p) {
    auto d = std::make_shared<AddressSpace::PageData>();
    d->fill(0);
    for (size_t k = 0; k < kPageSize && p * kPageSize + k < img.text.size();
         ++k) {
      (*d)[k] = img.text[p * kPageSize + k];
    }
    pages.push_back(std::move(d));
  }
  return pages;
}

// Several sandboxes in one address space, one per 4 GiB slot, time-sharing
// one Machine. Each has its own counters; Run starts at the slot base.
struct SlotVm {
  static constexpr uint64_t kSlot = uint64_t{1} << 32;
  AddressSpace space;
  Machine machine;
  std::vector<trace::ExecCounters> counters;

  SlotVm(Dispatch d, size_t slots)
      : machine(&space, arch::AppleM1LikeParams()), counters(slots) {
    machine.set_dispatch(d);
  }
  void Install(size_t slot, size_t page, PagePtr data, uint8_t perms) {
    EXPECT_TRUE(
        space.InstallPage((slot + 1) * kSlot + page * kPageSize, data, perms)
            .ok());
  }
  // Runs `slot` from its base with x2 = arg to a brk; returns x0.
  uint64_t Run(size_t slot, uint64_t arg = 0) {
    machine.state() = CpuState{};
    machine.state().pc = (slot + 1) * kSlot;
    machine.state().x[2] = arg;
    machine.set_counters(&counters[slot]);
    EXPECT_EQ(machine.Run(1000000), StopReason::kBrk);
    machine.set_counters(nullptr);
    return machine.state().x[0];
  }
};

// Runs `body` on a fresh SlotVm per dispatch mode and checks that every
// sandbox's counters and the simulated cycles agree across the modes.
template <typename Body>
void ForBothBackends(size_t slots, Body body) {
  std::vector<trace::ExecCounters> want;
  uint64_t want_cycles = 0;
  for (Dispatch d : {Dispatch::kChained, Dispatch::kBlock}) {
    SCOPED_TRACE("dispatch " + std::to_string(int(d)));
    SlotVm vm(d, slots);
    body(vm);
    if (d == Dispatch::kChained) {
      want = vm.counters;
      want_cycles = vm.machine.timing().Cycles();
      continue;
    }
    EXPECT_EQ(vm.machine.timing().Cycles(), want_cycles);
    for (size_t k = 0; k < slots; ++k) {
      SCOPED_TRACE("slot " + std::to_string(k));
      ExpectSameCounters(vm.counters[k], want[k]);
    }
  }
}

// Sandbox A patches an RWX code page it shares copy-on-write with sandbox
// B and runs the patched code; B keeps running the original, from the
// decoded copy it shares with nobody now. With x2 != 0 the program
// overwrites `site` ("mov x0, #1") with "mov x0, #2" before reaching it.
TEST(Machine, SelfModifyingStoreNeverReachesSharingSandbox) {
  const char* src =
      "  movz x1, #0x0040\n"
      "  movk x1, #0xd280, lsl #16\n"  // 0xd2800040 = "mov x0, #2"
      "  adr x3, site\n"
      "  cbz x2, site\n"
      "  str w1, [x3]\n"
      "  b site\n"
      "site:\n"
      "  mov x0, #1\n"
      "  brk #0\n";
  const PagePtr code = CodePages(src, 1)[0];
  constexpr uint8_t kRwx = kPermRead | kPermWrite | kPermExec;
  ForBothBackends(2, [&](SlotVm& vm) {
    vm.Install(0, 0, code, kRwx);  // A
    vm.Install(1, 0, code, kRwx);  // B
    EXPECT_EQ(vm.Run(1), 1u);      // B decodes the shared page
    const uint64_t b_misses = vm.counters[1].block_misses;
    EXPECT_EQ(vm.Run(0, 1), 2u);   // A patches and runs its copy
    EXPECT_EQ(vm.Run(1), 1u);      // B: original code, nothing decoded
    EXPECT_EQ(vm.counters[1].block_misses, b_misses);
    EXPECT_EQ(vm.Run(0), 2u);      // A: the patch persists in A only
    EXPECT_EQ((*code)[24], 0x20);  // the shared payload never changed
  });
}

// Two sandboxes map the same first exec page over different second
// pages. The first page ends in straight-line code that falls through
// the page boundary, so the cross-page edge must resolve per sandbox,
// never through a link stored in the shared first page.
TEST(Machine, CrossPageFallthroughRunsEachSandboxesOwnPage) {
  std::string head =
      "  movz x9, #3\n"
      "loop:\n"
      "  subs x9, x9, #1\n"
      "  b.ne loop\n";
  for (uint64_t k = 3; k < kPageSize / 4; ++k) head += "  nop\n";
  const std::vector<PagePtr> one =
      CodePages(head + "  add x0, x0, #1\n  brk #0\n", 2);
  const std::vector<PagePtr> two =
      CodePages(head + "  add x0, x0, #2\n  brk #0\n", 2);
  ASSERT_EQ(*one[0], *two[0]);
  ForBothBackends(2, [&](SlotVm& vm) {
    for (size_t slot : {0, 1}) {
      vm.Install(slot, 0, one[0], kPermRead | kPermExec);
      vm.Install(slot, 1, (slot == 0 ? one : two)[1],
                 kPermRead | kPermExec);
    }
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(vm.Run(0), 1u);
      EXPECT_EQ(vm.Run(1), 2u);
    }
    // B decoded only its own second page; the first page was A's copy.
    EXPECT_EQ(vm.counters[1].block_misses, 1u);
  });
}

// --- Timing model properties ---

// Runs `body` inside a counted loop and returns total cycles.
uint64_t CyclesFor(const std::string& body, int iters = 1000) {
  TestVm vm("  movz x10, #0x20, lsl #16\n  mov x9, #" +
            std::to_string(iters) +
            "\nloop:\n" + body +
            "  subs x9, x9, #1\n  b.ne loop\n  brk #0\n");
  EXPECT_EQ(vm.Run(10000000), StopReason::kBrk);
  return vm.machine.timing().Cycles();
}

TEST(Timing, GuardLatencyOrdering) {
  // A dependent chain through the 2-cycle extended-add guard must cost
  // more than the same chain through plain adds (Section 4's motivation).
  const uint64_t plain = CyclesFor(R"(
    add x1, x1, x2
    add x1, x1, x2
    add x1, x1, x2
  )");
  const uint64_t guarded = CyclesFor(R"(
    add x1, x1, w2, uxtw
    add x1, x1, w2, uxtw
    add x1, x1, w2, uxtw
  )");
  EXPECT_GT(guarded, plain + plain / 2);
}

TEST(Timing, EmbeddedGuardIsFree) {
  // ldr via [base, wN, uxtw] costs the same as ldr via [xN] - the
  // zero-instruction guard of Section 4.1. Both loops perform the same
  // dependent-load chain; the second simply uses the guarded addressing
  // mode with a zero index register (x11 stays 0).
  const uint64_t plain = CyclesFor("  ldr x1, [x10]\n  ldr x1, [x10]\n");
  const uint64_t embedded =
      CyclesFor("  ldr x1, [x10, w11, uxtw]\n  ldr x1, [x10, w11, uxtw]\n");
  EXPECT_EQ(embedded, plain);
}

TEST(Timing, MispredictionCostsCycles) {
  // A data-dependent unpredictable branch pattern should cost more than a
  // perfectly predictable one.
  const uint64_t predictable = CyclesFor(R"(
    add x1, x1, #1
    tbz x9, #20, skip1
    add x2, x2, #1
  skip1:
  )");
  const uint64_t alternating = CyclesFor(R"(
    add x1, x1, #1
    tbz x9, #0, skip2
    add x2, x2, #1
  skip2:
  )");
  // Alternating taken/not-taken defeats a 2-bit counter about half the
  // time; require a clear gap.
  EXPECT_GT(alternating, predictable + 1000);
}

// A loop striding by 64 bytes over a large region (cold) vs hammering one
// line (hot). The data area is only 256KiB so wrap with a register mask.
uint64_t StrideCycles(bool nested) {
  TestVm vm(R"(
    movz x10, #0x20, lsl #16
    movz x9, #20000
    mov x11, #0
    movz x12, #0xffc0         // mask: 256KiB, 64-byte aligned
    movk x12, #0x3, lsl #16
  loop:
    add x11, x11, #4032       // a prime-ish stride of cache lines
    and x11, x11, x12
    add x13, x10, x11
    ldr x1, [x13]
    subs x9, x9, #1
    b.ne loop
    brk #0
  )");
  vm.machine.timing().set_nested_pagetables(nested);
  EXPECT_EQ(vm.Run(10000000), StopReason::kBrk);
  return vm.machine.timing().Cycles();
}

TEST(Timing, CacheMissesCost) {
  const uint64_t hot = CyclesFor("  ldr x1, [x10]\n", 20000);
  const uint64_t cold = StrideCycles(false);
  // The cold loop has more instructions so compare very loosely: striding
  // beyond L1 must be at least 2x a hot line.
  EXPECT_GT(cold, hot * 2);
}

TEST(Timing, NestedPagetablesIncreaseWalkCost) {
  // Same strided loop with nested page tables must not be cheaper, and a
  // TLB-thrashing pattern should actually get slower.
  EXPECT_GE(StrideCycles(true), StrideCycles(false));
}

}  // namespace
}  // namespace lfi::emu
