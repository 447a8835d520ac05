// Differential tests: the emulator's arithmetic/flags semantics checked
// against host-computed references over randomized inputs, and
// never-crash fuzzing of the untrusted-input front ends (parser, ELF
// reader).

#include <gtest/gtest.h>

#include "asmtext/parser.h"
#include "elf/build.h"
#include "elf/elf.h"
#include "emu/machine.h"
#include "asmtext/assemble.h"
#include "fuzz_util.h"

namespace lfi {
namespace {

using test::Rng;

// Runs one `subs`/`adds` with the given operands and returns (result,
// NZCV) from the emulator.
struct FlagResult {
  uint64_t result;
  bool n, z, c, v;
};

FlagResult RunFlags(bool sub, bool wide, uint64_t a, uint64_t b) {
  emu::AddressSpace space;
  emu::Machine machine(&space, arch::AppleM1LikeParams());
  // subs x0, x1, x2 ; brk
  std::string src = std::string(sub ? "subs " : "adds ") +
                    (wide ? "x0, x1, x2" : "w0, w1, w2") + "\nbrk #0\n";
  auto f = asmtext::Parse(src);
  EXPECT_TRUE(f.ok());
  asmtext::LayoutSpec spec;
  spec.text_offset = 0x100000;
  auto img = asmtext::Assemble(*f, spec);
  EXPECT_TRUE(img.ok());
  EXPECT_TRUE(
      space.Map(0x100000, 0x4000, emu::kPermRead | emu::kPermExec).ok());
  EXPECT_TRUE(space
                  .HostWrite(img->text_addr,
                             {img->text.data(), img->text.size()})
                  .ok());
  machine.state().pc = img->entry;
  machine.state().x[1] = a;
  machine.state().x[2] = b;
  EXPECT_EQ(machine.Run(10), emu::StopReason::kBrk);
  const auto& s = machine.state();
  return {s.x[0], s.n, s.z, s.c, s.v};
}

TEST(Differential, AddsFlags64AgainstHost) {
  Rng rng(0xabcdef);
  for (int k = 0; k < 300; ++k) {
    const uint64_t a = rng.Next();
    const uint64_t b = rng.Next();
    const FlagResult r = RunFlags(false, true, a, b);
    const uint64_t expect = a + b;
    EXPECT_EQ(r.result, expect);
    EXPECT_EQ(r.n, (expect >> 63) != 0);
    EXPECT_EQ(r.z, expect == 0);
    EXPECT_EQ(r.c, expect < a);  // unsigned carry-out
    int64_t signed_sum;
    EXPECT_EQ(r.v, __builtin_add_overflow(static_cast<int64_t>(a),
                                          static_cast<int64_t>(b),
                                          &signed_sum));
  }
}

TEST(Differential, SubsFlags64AgainstHost) {
  Rng rng(0x123987);
  for (int k = 0; k < 300; ++k) {
    const uint64_t a = rng.Next();
    const uint64_t b = rng.Next();
    const FlagResult r = RunFlags(true, true, a, b);
    const uint64_t expect = a - b;
    EXPECT_EQ(r.result, expect);
    EXPECT_EQ(r.n, (expect >> 63) != 0);
    EXPECT_EQ(r.z, expect == 0);
    EXPECT_EQ(r.c, a >= b);  // no-borrow
    int64_t signed_diff;
    EXPECT_EQ(r.v, __builtin_sub_overflow(static_cast<int64_t>(a),
                                          static_cast<int64_t>(b),
                                          &signed_diff));
  }
}

TEST(Differential, SubsFlags32AgainstHost) {
  Rng rng(0x555);
  for (int k = 0; k < 300; ++k) {
    const uint32_t a = static_cast<uint32_t>(rng.Next());
    const uint32_t b = static_cast<uint32_t>(rng.Next());
    const FlagResult r = RunFlags(true, false, a, b);
    const uint32_t expect = a - b;
    EXPECT_EQ(r.result, expect);  // zero-extended into x0
    EXPECT_EQ(r.n, (expect >> 31) != 0);
    EXPECT_EQ(r.z, expect == 0);
    EXPECT_EQ(r.c, a >= b);
    int32_t signed_diff;
    EXPECT_EQ(r.v, __builtin_sub_overflow(static_cast<int32_t>(a),
                                          static_cast<int32_t>(b),
                                          &signed_diff));
  }
}

TEST(Differential, EdgeOperandsExact) {
  struct Edge {
    uint64_t a, b;
  };
  const Edge edges[] = {
      {0, 0},
      {~uint64_t{0}, 1},
      {uint64_t{1} << 63, uint64_t{1} << 63},
      {(uint64_t{1} << 63) - 1, 1},
      {uint64_t{1} << 63, 1},
      {~uint64_t{0}, ~uint64_t{0}},
  };
  for (const auto& e : edges) {
    for (bool sub : {false, true}) {
      const FlagResult r = RunFlags(sub, true, e.a, e.b);
      const uint64_t expect = sub ? e.a - e.b : e.a + e.b;
      EXPECT_EQ(r.result, expect) << e.a << (sub ? " - " : " + ") << e.b;
    }
  }
}

TEST(Fuzz, ParserNeverCrashesOnGarbage) {
  Rng rng(0x7777);
  const char charset[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 ,.#[]!:-+\"\\\nxwspqdv";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string src;
    const int len = 1 + static_cast<int>(rng.Next() % 120);
    for (int k = 0; k < len; ++k) {
      src.push_back(charset[rng.Next() % (sizeof(charset) - 1)]);
    }
    auto r = asmtext::Parse(src);  // must not crash; result irrelevant
    (void)r;
  }
}

TEST(Fuzz, ParserNeverCrashesOnMutatedValidSource) {
  const std::string base = R"(
.globl _start
.text
_start:
  mov x0, #1
  adrp x1, msg
  add x1, x1, :lo12:msg
  ldr x2, [x1, #8]
  stp x29, x30, [sp, #-16]!
  b done
done:
  ret
.data
msg:
  .asciz "hi"
)";
  Rng rng(0x9999);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string src = base;
    const int flips = 1 + static_cast<int>(rng.Next() % 6);
    for (int k = 0; k < flips; ++k) {
      src[rng.Next() % src.size()] =
          static_cast<char>(' ' + rng.Next() % 95);
    }
    auto r = asmtext::Parse(src);
    if (r.ok()) {
      // If it still parses, it must also assemble-or-fail cleanly.
      asmtext::LayoutSpec spec;
      auto img = asmtext::Assemble(*r, spec);
      (void)img;
    }
  }
}

TEST(Fuzz, ElfReaderNeverCrashesOnMutatedBinaries) {
  auto built = elf::Build(".text\n_start:\nnop\nret\n.data\nv:\n.quad 1\n",
                          std::nullopt);
  ASSERT_TRUE(built.ok()) << built.error();
  const std::vector<uint8_t>& good = built->bytes;
  Rng rng(0x2468);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<uint8_t> bytes = good;
    const int flips = 1 + static_cast<int>(rng.Next() % 8);
    for (int k = 0; k < flips; ++k) {
      bytes[rng.Next() % bytes.size()] = static_cast<uint8_t>(rng.Next());
    }
    // Also sometimes truncate.
    if (rng.Next() % 4 == 0) {
      bytes.resize(rng.Next() % (bytes.size() + 1));
    }
    auto r = elf::Read({bytes.data(), bytes.size()});
    (void)r;  // must not crash or over-read
  }
}

}  // namespace
}  // namespace lfi
