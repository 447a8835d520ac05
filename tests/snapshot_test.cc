// Snapshot subsystem tests (src/snapshot/, docs/SNAPSHOTS.md): the
// versioned on-disk format round-trips every field and rejects damaged or
// foreign files with distinct errors; capture is copy-on-write (the image
// stays frozen while the live sandbox keeps running); restore touches only
// diverged pages and is bit-exact against a fresh ELF load; fd state
// (open files, pipes with buffered bytes) survives capture/spawn; the
// warm spawn pool hands out parked sandboxes before cold-spawning; and
// the one install path every instantiation shares keeps each page,
// mapping and cursor inside its own slot, or rejects the image with no
// side effect.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "elf/build.h"
#include "elf/elf.h"
#include "runtime/runtime.h"
#include "runtime/spawn_pool.h"
#include "snapshot/snapshot.h"
#include "trace/trace.h"

namespace lfi::snapshot {
namespace {

using runtime::ExitKind;
using runtime::FileDesc;
using runtime::Pipe;
using runtime::Proc;
using runtime::ProcState;
using runtime::Runtime;
using runtime::RuntimeConfig;

constexpr uint64_t kPage = emu::kPageSize;

RuntimeConfig TestConfig() {
  RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  return cfg;
}

// ---- Format helpers ------------------------------------------------------

uint64_t Fnv1a(std::span<const uint8_t> bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Recomputes the FNV-1a trailer after a test mutates the payload, so the
// mutation reaches the parser instead of tripping the checksum gate.
void Reseal(std::vector<uint8_t>* bytes) {
  ASSERT_GE(bytes->size(), 8u);
  const uint64_t sum = Fnv1a({bytes->data(), bytes->size() - 8});
  std::memcpy(bytes->data() + bytes->size() - 8, &sum, 8);
}

// A snapshot with every field populated, for round-trip comparisons.
Snapshot FullyPopulatedSnapshot() {
  Snapshot s;
  for (int i = 0; i < 31; ++i) s.cpu.x[i] = 0x1111111111111111ull * i + 7;
  s.cpu.sp = 0xfffff000;
  s.cpu.pc = 0x140000;
  s.cpu.n = true;
  s.cpu.z = false;
  s.cpu.c = true;
  s.cpu.v = true;
  for (size_t v = 0; v < std::size(s.cpu.vr); ++v) {
    s.cpu.vr[v].lo = v * 3 + 1;
    s.cpu.vr[v].hi = ~uint64_t{v};
  }
  s.cpu.excl_valid = true;
  s.cpu.excl_addr = 0x200040;
  s.brk_start = 0x300000;
  s.brk = 0x304000;
  s.brk_mapped = 0x308000;
  s.mmap_cursor = 0xf0000000;
  s.mmap_bytes = 2 * kPage;
  s.sig_handlers[11] = 0x145678;
  s.sig_in_handler = true;
  s.sig_cookie = 0xc00c1e;
  s.sig_frame_addr = 0xffff0000;
  s.sig_delivered = 3;
  s.mappings[0] = {kPage, emu::kPermRead};
  s.mappings[0x140000] = {kPage, emu::kPermRead | emu::kPermExec};

  PageRec zero;
  zero.offset = 0;
  zero.perms = emu::kPermRead;
  zero.data = std::make_shared<emu::AddressSpace::PageData>();
  zero.data->fill(0);
  s.pages.push_back(zero);

  PageRec pattern;
  pattern.offset = 0x140000;
  pattern.perms = emu::kPermRead | emu::kPermExec;
  pattern.data = std::make_shared<emu::AddressSpace::PageData>();
  for (size_t i = 0; i < pattern.data->size(); ++i) {
    (*pattern.data)[i] = static_cast<uint8_t>(i * 37 + 5);
  }
  s.pages.push_back(pattern);

  FdRec f;
  f.kind = FdRec::Kind::kFile;
  f.flags = 2;
  f.offset = 42;
  f.path = "/etc/data.txt";
  s.fds.push_back(f);
  FdRec pr;
  pr.kind = FdRec::Kind::kPipeRead;
  pr.pipe_id = 1;
  pr.pipe_buf = {9, 8, 7, 6};
  s.fds.push_back(pr);
  FdRec pw;
  pw.kind = FdRec::Kind::kPipeWrite;
  pw.pipe_id = 1;
  s.fds.push_back(pw);
  return s;
}

// ---- On-disk format ------------------------------------------------------

TEST(SnapshotFormat, SerializeRoundTripPreservesAllFields) {
  const Snapshot s = FullyPopulatedSnapshot();
  const std::vector<uint8_t> bytes = Serialize(s);
  auto back = Deserialize({bytes.data(), bytes.size()});
  ASSERT_TRUE(back.ok()) << back.error();

  EXPECT_TRUE(back->cpu == s.cpu);
  EXPECT_EQ(back->brk_start, s.brk_start);
  EXPECT_EQ(back->brk, s.brk);
  EXPECT_EQ(back->brk_mapped, s.brk_mapped);
  EXPECT_EQ(back->mmap_cursor, s.mmap_cursor);
  EXPECT_EQ(back->mmap_bytes, s.mmap_bytes);
  EXPECT_EQ(back->sig_handlers, s.sig_handlers);
  EXPECT_EQ(back->sig_in_handler, s.sig_in_handler);
  EXPECT_EQ(back->sig_cookie, s.sig_cookie);
  EXPECT_EQ(back->sig_frame_addr, s.sig_frame_addr);
  EXPECT_EQ(back->sig_delivered, s.sig_delivered);
  EXPECT_EQ(back->mappings, s.mappings);

  ASSERT_EQ(back->pages.size(), s.pages.size());
  for (size_t i = 0; i < s.pages.size(); ++i) {
    EXPECT_EQ(back->pages[i].offset, s.pages[i].offset);
    EXPECT_EQ(back->pages[i].perms, s.pages[i].perms);
    ASSERT_NE(back->pages[i].data, nullptr);
    EXPECT_EQ(*back->pages[i].data, *s.pages[i].data);
  }

  ASSERT_EQ(back->fds.size(), s.fds.size());
  for (size_t i = 0; i < s.fds.size(); ++i) {
    EXPECT_EQ(back->fds[i].kind, s.fds[i].kind);
    EXPECT_EQ(back->fds[i].flags, s.fds[i].flags);
    EXPECT_EQ(back->fds[i].offset, s.fds[i].offset);
    EXPECT_EQ(back->fds[i].path, s.fds[i].path);
    EXPECT_EQ(back->fds[i].pipe_id, s.fds[i].pipe_id);
    EXPECT_EQ(back->fds[i].pipe_buf, s.fds[i].pipe_buf);
  }
}

TEST(SnapshotFormat, AllZeroPagesAreElided) {
  Snapshot zero = FullyPopulatedSnapshot();
  Snapshot dense = FullyPopulatedSnapshot();
  (*dense.pages[0].data)[123] = 0xab;  // the zero page, made non-zero
  const size_t elided = Serialize(zero).size();
  const size_t full = Serialize(dense).size();
  EXPECT_EQ(full - elided, kPage);
}

TEST(SnapshotFormat, RejectsBadMagic) {
  std::vector<uint8_t> bytes = Serialize(FullyPopulatedSnapshot());
  bytes[0] ^= 0xff;
  const auto r = Deserialize({bytes.data(), bytes.size()});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("bad magic"), std::string::npos) << r.error();
}

TEST(SnapshotFormat, RejectsCorruption) {
  std::vector<uint8_t> bytes = Serialize(FullyPopulatedSnapshot());
  bytes[bytes.size() / 2] ^= 0x01;  // one flipped bit mid-payload
  const auto r = Deserialize({bytes.data(), bytes.size()});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("checksum mismatch"), std::string::npos)
      << r.error();
}

TEST(SnapshotFormat, RejectsTruncation) {
  // A file chopped below the fixed header is reported as truncated.
  std::vector<uint8_t> stub(10, 0);
  const auto r = Deserialize({stub.data(), stub.size()});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("truncated"), std::string::npos) << r.error();

  // A payload that ends mid-record (resealed, so the checksum passes and
  // the parser itself hits the end) is also truncation, not corruption.
  std::vector<uint8_t> bytes = Serialize(FullyPopulatedSnapshot());
  bytes.erase(bytes.end() - 9);  // drop the last payload byte
  Reseal(&bytes);
  const auto r2 = Deserialize({bytes.data(), bytes.size()});
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.error().find("truncated"), std::string::npos) << r2.error();
}

TEST(SnapshotFormat, RejectsPageCountBeyondFile) {
  // An empty snapshot ends with three u32 counts (mappings, pages, fds)
  // before the checksum. A count claiming more records than the bytes
  // left could hold is truncation, rejected before anything is sized
  // from it (a page count of 0xffffffff used to reserve ~128 GiB).
  const std::vector<uint8_t> empty = Serialize(Snapshot{});
  ASSERT_EQ(empty.size(), 1146u);
  for (const size_t back : {16u, 12u, 20u}) {  // pages, fds, mappings
    std::vector<uint8_t> bytes = empty;
    const uint32_t hostile = 0xffffffff;
    std::memcpy(bytes.data() + bytes.size() - back, &hostile, 4);
    Reseal(&bytes);
    const auto r = Deserialize({bytes.data(), bytes.size()});
    ASSERT_FALSE(r.ok()) << back;
    EXPECT_NE(r.error().find("truncated"), std::string::npos) << r.error();
  }
}

TEST(SnapshotFormat, RejectsUnsupportedVersion) {
  std::vector<uint8_t> bytes = Serialize(FullyPopulatedSnapshot());
  const uint32_t future = kFormatVersion + 9;
  std::memcpy(bytes.data() + 8, &future, 4);  // version follows the magic
  Reseal(&bytes);
  const auto r = Deserialize({bytes.data(), bytes.size()});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("unsupported version 10"), std::string::npos)
      << r.error();
}

TEST(SnapshotFormat, RejectsForeignPageSize) {
  std::vector<uint8_t> bytes = Serialize(FullyPopulatedSnapshot());
  const uint64_t alien = 4096;
  std::memcpy(bytes.data() + 12, &alien, 8);  // page_sz follows the version
  Reseal(&bytes);
  const auto r = Deserialize({bytes.data(), bytes.size()});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("page size 4096"), std::string::npos) << r.error();
}

TEST(SnapshotFormat, RejectsTrailingBytes) {
  std::vector<uint8_t> bytes = Serialize(FullyPopulatedSnapshot());
  bytes.insert(bytes.end() - 8, 0x00);  // junk between fd table and trailer
  Reseal(&bytes);
  const auto r = Deserialize({bytes.data(), bytes.size()});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("trailing bytes"), std::string::npos) << r.error();
}

TEST(SnapshotFormat, WriteFileReadFileRoundTrip) {
  const Snapshot s = FullyPopulatedSnapshot();
  const std::string path = testing::TempDir() + "/lfi_snapshot_test.snap";
  const auto w = WriteFile(s, path);
  ASSERT_TRUE(w.ok()) << w.error();
  const auto back = ReadFile(path);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_TRUE(back->cpu == s.cpu);
  EXPECT_EQ(back->pages.size(), s.pages.size());
  EXPECT_EQ(back->fds.size(), s.fds.size());

  const auto missing = ReadFile(testing::TempDir() + "/no_such.snap");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().find("cannot open"), std::string::npos);
}

// ---- Capture / restore ---------------------------------------------------

// Exits with 42 after writing "hi" so spawn-equivalence is observable.
const char* kHelloProg = R"(
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x0, #1
    mov x2, #2
    rtcall #1
    mov x0, #42
    rtcall #0
  .data
  msg:
    .asciz "hi"
)";

struct Loaded {
  Runtime rt;
  int pid = -1;
  explicit Loaded(const std::string& src, RuntimeConfig cfg = TestConfig())
      : rt(cfg) {
    auto elf = elf::Build(src);
    EXPECT_TRUE(elf.ok()) << (elf.ok() ? "" : elf.error());
    if (!elf.ok()) return;
    auto p = rt.Load(elf->bytes);
    EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error());
    if (p.ok()) pid = *p;
  }
  Proc* P() { return rt.proc(pid); }
};

std::shared_ptr<const Snapshot> Capture(Runtime& rt, int pid) {
  auto snap = rt.CaptureSnapshot(pid);
  EXPECT_TRUE(snap.ok()) << (snap.ok() ? "" : snap.error());
  if (!snap.ok()) return nullptr;
  return std::make_shared<Snapshot>(*std::move(snap));
}

TEST(Snapshot, CaptureFailsForExitedOrUnknownProc) {
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  EXPECT_FALSE(t.rt.CaptureSnapshot(99).ok());
  t.rt.RunUntilIdle();
  ASSERT_EQ(t.P()->exit_kind, ExitKind::kExited);
  EXPECT_FALSE(t.rt.CaptureSnapshot(t.pid).ok());
}

TEST(Snapshot, RestoreMatchesFreshLoadBitExactly) {
  // Capture the post-load state, trash the live sandbox (registers,
  // memory, heap cursors), roll back, and compare every register and
  // every mapped byte against a second runtime that just loaded the same
  // ELF. Both runtimes assign pid 1 -> slot 1, so the canonical (rebased)
  // states must be identical, not merely equivalent.
  Loaded a(kHelloProg);
  ASSERT_GE(a.pid, 0);
  auto snap = Capture(a.rt, a.pid);
  ASSERT_NE(snap, nullptr);

  Proc* live = a.P();
  for (int r = 0; r < 31; ++r) live->cpu.x[r] ^= 0xdead0000 + r;
  live->cpu.sp -= 64;
  live->cpu.pc += 8;
  live->cpu.n = !live->cpu.n;
  live->brk += kPage;
  live->mmap_bytes += kPage;
  std::vector<uint8_t> junk(kPage, 0xcc);
  for (const auto& [off, range] : live->mappings) {
    ASSERT_TRUE(
        a.rt.space().HostWrite(live->base + off, {junk.data(), kPage}).ok());
    (void)range;
  }
  const auto st = a.rt.RestoreFromSnapshot(a.pid, *snap);
  ASSERT_TRUE(st.ok()) << st.error();
  EXPECT_EQ(a.rt.last_instantiation().method,
            runtime::InstantiationStats::Method::kSnapshotRestore);

  Loaded b(kHelloProg);
  ASSERT_EQ(b.pid, a.pid);
  ASSERT_EQ(b.P()->base, a.P()->base);

  EXPECT_TRUE(a.P()->cpu == b.P()->cpu);
  EXPECT_EQ(a.P()->brk_start, b.P()->brk_start);
  EXPECT_EQ(a.P()->brk, b.P()->brk);
  EXPECT_EQ(a.P()->brk_mapped, b.P()->brk_mapped);
  EXPECT_EQ(a.P()->mmap_cursor, b.P()->mmap_cursor);
  EXPECT_EQ(a.P()->mmap_bytes, b.P()->mmap_bytes);
  ASSERT_EQ(a.P()->mappings, b.P()->mappings);
  for (const auto& [off, range] : b.P()->mappings) {
    for (uint64_t o = 0; o < range.first; o += kPage) {
      std::vector<uint8_t> pa(kPage), pb(kPage);
      ASSERT_TRUE(
          a.rt.space().HostRead(a.P()->base + off + o, {pa.data(), kPage}).ok());
      ASSERT_TRUE(
          b.rt.space().HostRead(b.P()->base + off + o, {pb.data(), kPage}).ok());
      EXPECT_EQ(pa, pb) << "page at slot offset 0x" << std::hex << (off + o);
    }
  }
}

TEST(Snapshot, CaptureIsCopyOnWriteWhileLiveSandboxRuns) {
  // Writing into the live sandbox after capture must not reach the frozen
  // image; restoring brings the original bytes back.
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  auto snap = Capture(t.rt, t.pid);
  ASSERT_NE(snap, nullptr);

  // The stack page (the highest mapping) is RW and starts zeroed.
  const auto& [stack_off, stack_range] = *t.P()->mappings.rbegin();
  const uint64_t addr = t.P()->base + stack_off;
  uint8_t before = 0;
  ASSERT_TRUE(t.rt.space().HostRead(addr, {&before, 1}).ok());
  const uint8_t poison = static_cast<uint8_t>(before ^ 0x5a);
  ASSERT_TRUE(t.rt.space().HostWrite(addr, {&poison, 1}).ok());

  // The frozen page still holds the pre-write byte.
  const PageRec* frozen = nullptr;
  for (const auto& p : snap->pages) {
    if (p.offset == stack_off) frozen = &p;
  }
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ((*frozen->data)[0], before);

  const auto st = t.rt.RestoreFromSnapshot(t.pid, *snap);
  ASSERT_TRUE(st.ok()) << st.error();
  uint8_t after = 0;
  ASSERT_TRUE(t.rt.space().HostRead(addr, {&after, 1}).ok());
  EXPECT_EQ(after, before);
  (void)stack_range;
}

TEST(Snapshot, RestoreCountsOnlyDivergedAndStrayPages) {
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  auto snap = Capture(t.rt, t.pid);
  ASSERT_NE(snap, nullptr);

  // Nothing diverged yet: a restore installs zero pages.
  ASSERT_TRUE(t.rt.RestoreFromSnapshot(t.pid, *snap).ok());
  EXPECT_EQ(t.rt.last_instantiation().dirty_pages, 0u);
  EXPECT_EQ(t.rt.last_instantiation().unmapped_pages, 0u);

  // Dirty exactly one page.
  const uint64_t stack_off = t.P()->mappings.rbegin()->first;
  const uint8_t poke = 0x77;
  ASSERT_TRUE(t.rt.space().HostWrite(t.P()->base + stack_off, {&poke, 1}).ok());
  ASSERT_TRUE(t.rt.RestoreFromSnapshot(t.pid, *snap).ok());
  EXPECT_EQ(t.rt.last_instantiation().dirty_pages, 1u);
  EXPECT_EQ(t.rt.last_instantiation().pages, snap->page_count());

  // Map a stray page the image does not know about; restore removes it.
  const uint64_t stray_off = uint64_t{0x10000000};
  ASSERT_TRUE(t.rt.space()
                  .Map(t.P()->base + stray_off, kPage,
                       emu::kPermRead | emu::kPermWrite)
                  .ok());
  t.P()->mappings[stray_off] = {kPage, emu::kPermRead | emu::kPermWrite};
  ASSERT_TRUE(t.rt.RestoreFromSnapshot(t.pid, *snap).ok());
  EXPECT_EQ(t.rt.last_instantiation().unmapped_pages, 1u);
  EXPECT_EQ(t.P()->mappings.count(stray_off), 0u);
  uint8_t scratch = 0;
  EXPECT_FALSE(
      t.rt.space().HostRead(t.P()->base + stray_off, {&scratch, 1}).ok());
}

// ---- Spawn ---------------------------------------------------------------

TEST(Snapshot, SpawnedSandboxRunsIdenticallyToOriginal) {
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  auto snap = Capture(t.rt, t.pid);
  ASSERT_NE(snap, nullptr);
  t.rt.RunUntilIdle();
  ASSERT_EQ(t.P()->exit_kind, ExitKind::kExited);

  auto spawned = t.rt.SpawnFromSnapshot(snap);
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  EXPECT_EQ(t.rt.last_instantiation().method,
            runtime::InstantiationStats::Method::kSnapshotSpawn);
  t.rt.RunUntilIdle();
  const Proc* p2 = t.rt.proc(*spawned);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p2->exit_kind, ExitKind::kExited);
  EXPECT_EQ(p2->exit_status, t.P()->exit_status);
  EXPECT_EQ(p2->out, t.P()->out);
  EXPECT_NE(p2->pid, t.pid);  // a genuinely new sandbox, not a rollback
}

TEST(Snapshot, SnapshotSurvivesDiskRoundTripAndSpawnsInFreshRuntime) {
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  auto snap = Capture(t.rt, t.pid);
  ASSERT_NE(snap, nullptr);
  const std::string path = testing::TempDir() + "/lfi_spawn_test.snap";
  ASSERT_TRUE(WriteFile(*snap, path).ok());

  Runtime rt2(TestConfig());
  auto back = ReadFile(path);
  ASSERT_TRUE(back.ok()) << back.error();
  auto pid = rt2.SpawnFromSnapshot(std::make_shared<Snapshot>(*std::move(back)));
  ASSERT_TRUE(pid.ok()) << pid.error();
  rt2.RunUntilIdle();
  EXPECT_EQ(rt2.proc(*pid)->exit_kind, ExitKind::kExited);
  EXPECT_EQ(rt2.proc(*pid)->exit_status, 42);
  EXPECT_EQ(rt2.proc(*pid)->out, "hi");
}

TEST(Snapshot, FdStateSurvivesCaptureAndSpawn) {
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  Proc* p = t.P();

  // An open file mid-read and a pipe with bytes in flight.
  t.rt.vfs().Install("/data.txt", std::string("hello world"));
  int err = 0;
  auto node = t.rt.vfs().Open("/data.txt", runtime::kOpenRead, &err);
  ASSERT_NE(node, nullptr);
  FileDesc file;
  file.kind = FileDesc::Kind::kFile;
  file.node = node;
  file.offset = 4;
  file.flags = runtime::kOpenRead;
  file.path = "/data.txt";
  p->fds.push_back(file);

  auto pipe = std::make_shared<Pipe>();
  pipe->buf = {1, 2, 3};
  pipe->readers = 1;
  pipe->writers = 1;
  FileDesc rd;
  rd.kind = FileDesc::Kind::kPipeRead;
  rd.pipe = pipe;
  FileDesc wr;
  wr.kind = FileDesc::Kind::kPipeWrite;
  wr.pipe = pipe;
  p->fds.push_back(rd);
  p->fds.push_back(wr);
  const size_t file_fd = p->fds.size() - 3;

  auto snap = Capture(t.rt, t.pid);
  ASSERT_NE(snap, nullptr);
  auto spawned = t.rt.SpawnFromSnapshot(snap, /*start=*/false);
  ASSERT_TRUE(spawned.ok()) << spawned.error();
  const Proc* p2 = t.rt.proc(*spawned);
  ASSERT_NE(p2, nullptr);
  ASSERT_GE(p2->fds.size(), file_fd + 3);

  const FileDesc& f2 = p2->fds[file_fd];
  EXPECT_EQ(f2.kind, FileDesc::Kind::kFile);
  ASSERT_NE(f2.node, nullptr);
  EXPECT_EQ(std::string(f2.node->data.begin(), f2.node->data.end()),
            "hello world");
  EXPECT_EQ(f2.offset, 4u);
  EXPECT_EQ(f2.path, "/data.txt");

  const FileDesc& r2 = p2->fds[file_fd + 1];
  const FileDesc& w2 = p2->fds[file_fd + 2];
  EXPECT_EQ(r2.kind, FileDesc::Kind::kPipeRead);
  EXPECT_EQ(w2.kind, FileDesc::Kind::kPipeWrite);
  ASSERT_NE(r2.pipe, nullptr);
  EXPECT_EQ(r2.pipe, w2.pipe);        // endpoints re-joined...
  EXPECT_NE(r2.pipe, pipe);           // ...as a private pipe, not the live one
  EXPECT_EQ(r2.pipe->buf, (std::deque<uint8_t>{1, 2, 3}));
  EXPECT_EQ(r2.pipe->readers, 1);
  EXPECT_EQ(r2.pipe->writers, 1);
}

TEST(Snapshot, ParkedSpawnRunsOnlyAfterActivate) {
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  auto snap = Capture(t.rt, t.pid);
  ASSERT_NE(snap, nullptr);

  auto parked = t.rt.SpawnFromSnapshot(snap, /*start=*/false);
  ASSERT_TRUE(parked.ok()) << parked.error();
  t.rt.RunUntilIdle();
  const Proc* p2 = t.rt.proc(*parked);
  ASSERT_NE(p2, nullptr);
  EXPECT_TRUE(p2->parked);
  EXPECT_EQ(p2->exit_kind, ExitKind::kRunning);  // never scheduled

  EXPECT_FALSE(t.rt.Activate(t.pid).ok());  // only parked procs activate
  ASSERT_TRUE(t.rt.Activate(*parked).ok());
  EXPECT_FALSE(p2->parked);
  EXPECT_FALSE(t.rt.Activate(*parked).ok());  // double-activate rejected
  t.rt.RunUntilIdle();
  EXPECT_EQ(p2->exit_kind, ExitKind::kExited);
  EXPECT_EQ(p2->exit_status, 42);
}

TEST(Snapshot, SpawnPoolServesWarmThenColdSpawns) {
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  auto snap = Capture(t.rt, t.pid);
  ASSERT_NE(snap, nullptr);

  runtime::SpawnPool pool(&t.rt, snap);
  EXPECT_EQ(pool.Prewarm(2), 2);
  EXPECT_EQ(pool.warm(), 2u);
  EXPECT_EQ(pool.Prewarm(2), 0);  // already at target

  std::vector<int> pids;
  for (int k = 0; k < 3; ++k) {
    auto pid = pool.Take();
    ASSERT_TRUE(pid.ok()) << pid.error();
    pids.push_back(*pid);
  }
  EXPECT_EQ(pool.warm(), 0u);
  EXPECT_EQ(pool.warm_hits(), 2u);
  EXPECT_EQ(pool.cold_spawns(), 1u);

  t.rt.RunUntilIdle();
  for (int pid : pids) {
    EXPECT_EQ(t.rt.proc(pid)->exit_kind, ExitKind::kExited);
    EXPECT_EQ(t.rt.proc(pid)->exit_status, 42);
    EXPECT_EQ(t.rt.proc(pid)->out, "hi");
  }
}

// ---- Decoded code shared across sandboxes (docs/DISPATCH.md) --------------

// Runs `body` once per dispatch mode with a trace sink attached and checks
// that every per-sandbox counter agrees across the two modes.
template <typename Body>
void ForBothBackends(Body body) {
  std::map<int, trace::Metrics> want;
  for (emu::Dispatch d : {emu::Dispatch::kChained, emu::Dispatch::kBlock}) {
    SCOPED_TRACE("dispatch " + std::to_string(int(d)));
    RuntimeConfig cfg = TestConfig();
    cfg.dispatch = d;
    Runtime rt(cfg);
    trace::TraceSink sink;
    rt.set_trace_sink(&sink);
    body(rt, sink);
    if (d == emu::Dispatch::kChained) {
      want = sink.all_metrics();
      continue;
    }
    ASSERT_EQ(sink.all_metrics().size(), want.size());
    for (const auto& [pid, m] : sink.all_metrics()) {
      EXPECT_EQ(m.c, want[pid].c) << "pid " << pid;
    }
  }
}

// Two sandboxes spawned from one image share one decoded copy of its
// code: the second decodes nothing.
TEST(Snapshot, SecondSpawnFromOneImageDecodesNothing) {
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  auto snap = Capture(t.rt, t.pid);
  ASSERT_NE(snap, nullptr);
  ForBothBackends([&](Runtime& rt, trace::TraceSink& sink) {
    auto first = rt.SpawnFromSnapshot(snap);
    ASSERT_TRUE(first.ok()) << first.error();
    auto second = rt.SpawnFromSnapshot(snap, /*start=*/false);
    ASSERT_TRUE(second.ok()) << second.error();
    EXPECT_NE(rt.proc(*first)->base, rt.proc(*second)->base);
    rt.RunUntilIdle();
    ASSERT_TRUE(rt.Activate(*second).ok());
    rt.RunUntilIdle();
    for (int pid : {*first, *second}) {
      EXPECT_EQ(rt.proc(pid)->exit_status, 42);
      EXPECT_EQ(rt.proc(pid)->out, "hi");
    }
    using trace::Counter;
    EXPECT_GT(sink.metrics(*first).Get(Counter::kBlockCacheMisses), 0u);
    EXPECT_EQ(sink.metrics(*second).Get(Counter::kBlockCacheMisses), 0u);
    EXPECT_GT(sink.metrics(*second).Get(Counter::kBlockCacheHits), 0u);
    EXPECT_EQ(sink.metrics(*second).Get(Counter::kBlockCacheInvalidations),
              0u);
  });
}

// A killed sandbox's slot reused by a different image runs the new
// image's code, never the old image's decoded blocks. Both programs put
// their first instructions at the same slot offsets.
TEST(Snapshot, SlotReusedByAnotherImageRunsItsOwnCode) {
  const char* kSpin = R"(
    mov x0, #1
  spin:
    b spin
  )";
  const char* kExit7 = R"(
    mov x0, #7
    rtcall #0
  )";
  Loaded spin(kSpin);
  Loaded exit7(kExit7);
  ASSERT_GE(spin.pid, 0);
  ASSERT_GE(exit7.pid, 0);
  auto spin_snap = Capture(spin.rt, spin.pid);
  auto exit7_snap = Capture(exit7.rt, exit7.pid);
  ASSERT_NE(spin_snap, nullptr);
  ASSERT_NE(exit7_snap, nullptr);
  ForBothBackends([&](Runtime& rt, trace::TraceSink&) {
    auto a = rt.SpawnFromSnapshot(spin_snap);
    ASSERT_TRUE(a.ok()) << a.error();
    rt.RunUntilIdle(10000);
    EXPECT_EQ(rt.proc(*a)->exit_kind, ExitKind::kRunning);
    const uint64_t slot = rt.proc(*a)->slot;
    ASSERT_TRUE(rt.Kill(*a, "test").ok());
    auto b = rt.SpawnFromSnapshot(exit7_snap);
    ASSERT_TRUE(b.ok()) << b.error();
    ASSERT_EQ(rt.proc(*b)->slot, slot);
    rt.RunUntilIdle(10000);
    EXPECT_EQ(rt.proc(*b)->exit_kind, ExitKind::kExited);
    EXPECT_EQ(rt.proc(*b)->exit_status, 7);
  });
}

// An image loaded from ELF and the same image read back from disk hold
// the same pages: every page without nonzero bytes is the one zero page.
TEST(Snapshot, LoadAndDeserializeShareTheZeroPage) {
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  const Snapshot& built = *t.P()->snapshot;
  const std::vector<uint8_t> bytes = Serialize(built);
  auto back = Deserialize({bytes.data(), bytes.size()});
  ASSERT_TRUE(back.ok()) << back.error();
  ASSERT_EQ(back->pages.size(), built.pages.size());
  const auto& zero = emu::AddressSpace::ZeroPage();
  size_t zeros = 0;
  for (size_t k = 0; k < built.pages.size(); ++k) {
    const bool is_zero = built.pages[k].data == zero;
    EXPECT_EQ(back->pages[k].data == zero, is_zero) << "page " << k;
    if (is_zero) {
      ++zeros;
    } else {
      EXPECT_EQ(*back->pages[k].data, *built.pages[k].data) << "page " << k;
    }
  }
  EXPECT_GE(zeros, runtime::kStackSize / kPage);
}

// 256 sandboxes parked from one image share one stack payload, and a slot
// freed by a sandbox that dirtied its stack and heap comes back holding
// exactly the image's pages.
TEST(Snapshot, ParkedFleetSharesTheZeroPageAndReusedSlotsAreClean) {
  Loaded t(R"(
    mov x0, #0
    rtcall #5
    movz x1, #0x4, lsl #16
    add x0, x0, x1
    rtcall #5           // grow the heap by 16 pages
    sub x0, x0, #8
    movz x1, #0x5ca1
    str x1, [x0]        // dirty the top heap page
    sub sp, sp, #16
    str x1, [sp]        // dirty the top stack page
  spin:
    b spin
  )");
  ASSERT_GE(t.pid, 0);
  auto snap = Capture(t.rt, t.pid);
  ASSERT_NE(snap, nullptr);
  ASSERT_TRUE(t.rt.Kill(t.pid, "test").ok());
  std::vector<int> pids;
  for (int k = 0; k < 256; ++k) {
    auto pid = t.rt.SpawnFromSnapshot(snap, /*start=*/false);
    ASSERT_TRUE(pid.ok()) << pid.error();
    pids.push_back(*pid);
  }
  const auto& space = t.rt.space();
  const auto* zero = emu::AddressSpace::ZeroPage().get();
  size_t stack_pages = 0;
  for (int pid : pids) {
    const uint64_t base = t.rt.proc(pid)->base;
    for (uint64_t off = runtime::kProgramEnd - runtime::kStackSize;
         off < runtime::kProgramEnd; off += kPage) {
      EXPECT_EQ(space.PagePayload(base + off, nullptr), zero);
      ++stack_pages;
    }
  }
  EXPECT_EQ(stack_pages, 256 * runtime::kStackSize / kPage);

  const size_t parked_pages = space.MappedPages();
  const int victim = pids.front();
  const uint64_t slot = t.rt.proc(victim)->slot;
  ASSERT_TRUE(t.rt.Activate(victim).ok());
  t.rt.RunUntilIdle(1000);
  const Proc* v = t.rt.proc(victim);
  ASSERT_EQ(v->exit_kind, ExitKind::kRunning);
  EXPECT_NE(space.PagePayload(v->base + runtime::kProgramEnd - kPage, nullptr),
            zero);
  EXPECT_GT(space.MappedPages(), parked_pages);
  ASSERT_TRUE(t.rt.Kill(victim, "test").ok());

  auto again = t.rt.SpawnFromSnapshot(snap, /*start=*/false);
  ASSERT_TRUE(again.ok()) << again.error();
  const Proc* q = t.rt.proc(*again);
  ASSERT_EQ(q->slot, slot);
  EXPECT_EQ(space.MappedPages(), parked_pages);
  for (const PageRec& rec : snap->pages) {
    uint8_t perms = 0;
    EXPECT_EQ(space.PagePayload(q->base + rec.offset, &perms), rec.data.get())
        << "offset " << rec.offset;
    EXPECT_EQ(perms, rec.perms);
  }
  EXPECT_EQ(space.PagePayload(q->base + snap->brk_start, nullptr), nullptr);
  EXPECT_TRUE(std::all_of(zero->begin(), zero->end(),
                          [](uint8_t b) { return b == 0; }));
}

// ---- The install boundary (docs/SNAPSHOTS.md "One install path") --------
//
// Load, spawn, restore, recycle, fork and restart all put pages into a
// slot through one bounds-checked install. These tests pin the holes the
// scattered per-path page loops used to leave open.

using runtime::kCodeEnd;
using runtime::kGuardSize;
using runtime::kProgramEnd;
using runtime::kProgramStart;
using runtime::kSlotSize;
using runtime::kStackSize;
using runtime::SlotBase;

elf::ElfImage HelloImage() {
  auto bytes = elf::Build(kHelloProg);
  EXPECT_TRUE(bytes.ok());
  auto img = elf::Read(bytes->bytes);
  EXPECT_TRUE(img.ok());
  return *std::move(img);
}

// Byte position of the serialized record of the page at `offset`
// ({u64 offset, u8 perms, u8 kind}), or npos.
size_t FindPageRecord(const std::vector<uint8_t>& bytes, uint64_t offset,
                      uint8_t perms, uint8_t kind) {
  uint8_t pat[10];
  std::memcpy(pat, &offset, 8);
  pat[8] = perms;
  pat[9] = kind;
  auto it = std::search(bytes.begin(), bytes.end(), pat, pat + 10);
  return it == bytes.end() ? std::string::npos
                           : static_cast<size_t>(it - bytes.begin());
}

// Every page of p's mappings as (address, payload, perms); a page the
// mappings declare but the address space lacks shows a null payload.
using SlotView = std::vector<std::tuple<uint64_t, const void*, uint8_t>>;
SlotView ViewSlot(Runtime& rt, const Proc* p) {
  SlotView v;
  for (const auto& [off, range] : p->mappings) {
    for (uint64_t po = off; po < off + range.first; po += kPage) {
      uint8_t perms = 0;
      const void* data = rt.space().PagePayload(p->base + po, &perms);
      v.emplace_back(po, data, perms);
    }
  }
  return v;
}

size_t MappedIn(const SlotView& v) {
  return static_cast<size_t>(std::count_if(
      v.begin(), v.end(), [](const auto& t) { return std::get<1>(t); }));
}

// A successful instantiation stayed in its own slot: its mappings lie in
// the slot, the address space gained exactly the pages those mappings
// hold (so nothing landed anywhere else), and pc/sp point into the slot.
void ExpectConfined(Runtime& rt, int pid, size_t others_mapped) {
  const Proc* p = rt.proc(pid);
  ASSERT_NE(p, nullptr);
  for (const auto& [off, range] : p->mappings) {
    ASSERT_LE(off, kSlotSize);
    ASSERT_LE(range.first, kSlotSize - off);
  }
  EXPECT_EQ(rt.space().MappedPages(),
            others_mapped + MappedIn(ViewSlot(rt, p)));
  EXPECT_EQ(p->cpu.pc >> 32, p->base >> 32);
  EXPECT_EQ(p->cpu.sp >> 32, p->base >> 32);
  for (uint64_t h : p->sig.handlers) {
    if (h != 0) {
      EXPECT_EQ(h >> 32, p->base >> 32);
    }
  }
}

TEST(SlotInstall, LoadCheckpointIsTheInstalledImage) {
  // The snapshot Load builds is byte- and payload-identical to a capture
  // taken right after the load, so restore's pointer diff sees every page
  // clean.
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  auto cap = Capture(t.rt, t.pid);
  ASSERT_NE(cap, nullptr);
  const Snapshot& built = *t.P()->snapshot;
  EXPECT_EQ(Serialize(built), Serialize(*cap));
  ASSERT_EQ(built.pages.size(), cap->pages.size());
  for (size_t k = 0; k < built.pages.size(); ++k) {
    EXPECT_EQ(built.pages[k].data, cap->pages[k].data) << "page " << k;
  }
  ASSERT_TRUE(t.rt.RestoreFromSnapshot(t.pid, built).ok());
  EXPECT_EQ(t.rt.last_instantiation().dirty_pages, 0u);
}

TEST(SlotInstall, LoadRejectsSegmentWrappingIntoPreviousSlot) {
  // vaddr + memsz wraps 2^64. Loaded into slot 2, the segment would land
  // three attacker-filled RW pages in slot 1's trailing guard region.
  Loaded first(kHelloProg);
  ASSERT_GE(first.pid, 0);
  elf::ElfImage img = HelloImage();
  elf::Segment evil;
  evil.vaddr = 0 - kGuardSize;
  evil.data.assign(kGuardSize, 0x41);
  evil.memsz = kGuardSize;
  evil.write = true;
  img.segments.push_back(evil);
  const size_t mapped = first.rt.space().MappedPages();
  auto pid = first.rt.LoadImage(img);
  ASSERT_FALSE(pid.ok());
  EXPECT_NE(pid.error().find("outside the loadable sandbox area"),
            std::string::npos)
      << pid.error();
  EXPECT_EQ(first.rt.slots_in_use(), 1u);
  EXPECT_EQ(first.rt.space().MappedPages(), mapped);
  EXPECT_EQ(first.rt.space().PagePayload(SlotBase(2) - kGuardSize, nullptr),
            nullptr);
}

TEST(SlotInstall, LoadRejectsEntryPointOutsideTheSlot) {
  // pc = base + entry would start execution in the next slot.
  Runtime rt(TestConfig());
  elf::ElfImage img = HelloImage();
  img.entry = kSlotSize + kProgramStart;
  auto pid = rt.LoadImage(img);
  ASSERT_FALSE(pid.ok());
  EXPECT_EQ(rt.slots_in_use(), 0u);
  EXPECT_EQ(rt.space().MappedPages(), 0u);
}

TEST(SlotInstall, RejectedElfAllocatesNothing) {
  // The text segment comes first; a later segment past the loadable area
  // must not leave the slot allocated or the text page mapped.
  Runtime rt(TestConfig());
  elf::ElfImage img = HelloImage();
  elf::Segment far;
  far.vaddr = kProgramEnd;
  far.memsz = kPage;
  far.write = true;
  img.segments.push_back(far);
  auto pid = rt.LoadImage(img);
  ASSERT_FALSE(pid.ok());
  EXPECT_NE(pid.error().find("outside the loadable sandbox area"),
            std::string::npos)
      << pid.error();
  EXPECT_EQ(rt.slots_in_use(), 0u);
  EXPECT_EQ(rt.space().MappedPages(), 0u);
}

TEST(SlotInstall, SpawnWithBadSecondPageAllocatesNothing) {
  // The call-table page is first and valid; the second record (the text
  // page) is resealed at an unaligned offset.
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  auto snap = Capture(t.rt, t.pid);
  ASSERT_NE(snap, nullptr);
  std::vector<uint8_t> bytes = Serialize(*snap);
  const size_t at = FindPageRecord(bytes, kProgramStart,
                                   emu::kPermRead | emu::kPermExec, 1);
  ASSERT_NE(at, std::string::npos);
  const uint64_t unaligned = kProgramStart + 8;
  std::memcpy(bytes.data() + at, &unaligned, 8);
  Reseal(&bytes);
  auto bad = Deserialize({bytes.data(), bytes.size()});
  ASSERT_TRUE(bad.ok()) << bad.error();
  ASSERT_EQ(bad->pages[1].offset, unaligned);

  const uint64_t slots = t.rt.slots_in_use();
  const size_t mapped = t.rt.space().MappedPages();
  auto spawned =
      t.rt.SpawnFromSnapshot(std::make_shared<Snapshot>(*std::move(bad)));
  EXPECT_FALSE(spawned.ok());
  EXPECT_EQ(t.rt.slots_in_use(), slots);
  EXPECT_EQ(t.rt.space().MappedPages(), mapped);
}

TEST(SlotInstall, SpawnRejectsPageOffsetWrappingIntoPreviousSlot) {
  // One page record whose offset wraps modulo 2^64 back into the previous
  // slot, resealed so it parses. Spawned into slot 2 it would replace
  // slot 1's code page with attacker bytes, mapped RWX.
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  auto snap = Capture(t.rt, t.pid);
  ASSERT_NE(snap, nullptr);
  std::vector<uint8_t> bytes = Serialize(*snap);
  const size_t at = FindPageRecord(bytes, kProgramStart,
                                   emu::kPermRead | emu::kPermExec, 1);
  ASSERT_NE(at, std::string::npos);
  const uint64_t wrapped = kProgramStart - kSlotSize;
  std::memcpy(bytes.data() + at, &wrapped, 8);
  bytes[at + 8] = emu::kPermRead | emu::kPermWrite | emu::kPermExec;
  std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(at + 10), kPage,
              0x41);
  Reseal(&bytes);
  auto evil = Deserialize({bytes.data(), bytes.size()});
  ASSERT_TRUE(evil.ok()) << evil.error();

  uint8_t perms = 0;
  const auto* code =
      t.rt.space().PagePayload(t.P()->base + kProgramStart, &perms);
  const size_t mapped = t.rt.space().MappedPages();
  auto spawned =
      t.rt.SpawnFromSnapshot(std::make_shared<Snapshot>(*std::move(evil)));
  ASSERT_FALSE(spawned.ok());
  EXPECT_NE(spawned.error().find("outside the sandbox area"),
            std::string::npos)
      << spawned.error();
  EXPECT_EQ(t.rt.slots_in_use(), 1u);
  EXPECT_EQ(t.rt.space().MappedPages(), mapped);
  uint8_t now = 0;
  EXPECT_EQ(t.rt.space().PagePayload(t.P()->base + kProgramStart, &now),
            code);
  EXPECT_EQ(now, perms);
}

TEST(SlotInstall, FailedForkFreesTheChildSlot) {
  // The parent holds a page in its leading guard region, so its capture
  // fails the install check in the child's slot: fork returns ENOMEM and
  // leaves no child, no slot and no page behind.
  Loaded t(R"(
    rtcall #8
    rtcall #0
  )");
  ASSERT_GE(t.pid, 0);
  ASSERT_TRUE(t.rt.space()
                  .Map(t.P()->base + kPage, kPage,
                       emu::kPermRead | emu::kPermWrite)
                  .ok());
  t.P()->mappings[kPage] = {kPage, emu::kPermRead | emu::kPermWrite};
  const size_t mapped = t.rt.space().MappedPages();
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, -12);  // ENOMEM
  EXPECT_EQ(t.rt.proc(t.pid + 1), nullptr);
  EXPECT_EQ(t.rt.slots_in_use(), 0u);
  EXPECT_EQ(t.rt.space().MappedPages(), 0u);
  EXPECT_GT(mapped, 0u);
}

TEST(SlotInstall, EachRuleRejectsWithoutSideEffects) {
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  auto good = Capture(t.rt, t.pid);
  ASSERT_NE(good, nullptr);
  constexpr uint8_t R = emu::kPermRead, W = emu::kPermWrite,
                    X = emu::kPermExec;
  // Index of the text page and of the first RW (data) page.
  size_t text = 0, data = 0;
  for (size_t k = 0; k < good->pages.size(); ++k) {
    if (good->pages[k].perms == (R | X)) text = k;
    if (data == 0 && good->pages[k].perms == (R | W)) data = k;
  }
  ASSERT_NE(text, 0u);
  ASSERT_NE(data, 0u);
  const uint64_t text_off = good->pages[text].offset;

  // Moves page k (and a one-page mapping for it) to `off`, keeping the
  // page list sorted so the bounds rule, not the order rule, decides.
  auto move_page = [](Snapshot& s, size_t k, uint64_t off) {
    const uint8_t perms = s.pages[k].perms;
    s.mappings.erase(s.pages[k].offset);
    s.pages[k].offset = off;
    s.mappings[off] = {kPage, perms};
    std::sort(s.pages.begin(), s.pages.end(),
              [](const PageRec& a, const PageRec& b) {
                return a.offset < b.offset;
              });
  };
  const std::vector<std::pair<const char*, std::function<void(Snapshot&)>>>
      rules = {
          {"call-table bytes", [](Snapshot& s) {
             auto copy = *s.pages[0].data;
             copy[8] ^= 1;
             s.pages[0].data =
                 std::make_shared<emu::AddressSpace::PageData>(copy);
           }},
          {"call-table writable", [](Snapshot& s) {
             s.pages[0].perms = R | W;
             s.mappings[0].second = R | W;
           }},
          {"exec page writable", [&](Snapshot& s) {
             s.pages[text].perms = R | W | X;
             s.mappings[text_off].second = R | W | X;
           }},
          {"exec page past kCodeEnd",
           [&](Snapshot& s) { move_page(s, text, kCodeEnd); }},
          {"page in leading guard",
           [&](Snapshot& s) { move_page(s, data, kPage); }},
          {"page in trailing guard",
           [&](Snapshot& s) { move_page(s, data, kProgramEnd); }},
          {"page past the slot",
           [&](Snapshot& s) { move_page(s, data, kSlotSize + kProgramStart); }},
          {"unaligned page",
           [&](Snapshot& s) { s.pages[data].offset += 8; }},
          {"duplicate page", [&](Snapshot& s) {
             s.pages[data].offset = s.pages[data - 1].offset;
           }},
          {"null payload", [&](Snapshot& s) { s.pages[data].data = nullptr; }},
          {"page outside mappings",
           [&](Snapshot& s) { s.mappings.erase(text_off); }},
          {"perms beyond mapping",
           [&](Snapshot& s) { s.mappings[text_off].second = R; }},
          {"mapping wraps", [&](Snapshot& s) {
             s.mappings[text_off].first = 0 - text_off + kPage;
           }},
          {"mapping overlaps", [&](Snapshot& s) {
             s.mappings[text_off].first = s.mappings.rbegin()->first;
           }},
          {"mmap cursor past the slot",
           [](Snapshot& s) { s.mmap_cursor = kSlotSize; }},
          {"brk below the program area", [](Snapshot& s) {
             s.brk_start = 0;
             s.brk = 0;
           }},
      };
  for (const auto& [name, mutate] : rules) {
    SCOPED_TRACE(name);
    Snapshot bad = *good;
    mutate(bad);
    const SlotView before = ViewSlot(t.rt, t.P());
    const uint64_t slots = t.rt.slots_in_use();
    const size_t mapped = t.rt.space().MappedPages();
    EXPECT_FALSE(t.rt.SpawnFromSnapshot(std::make_shared<Snapshot>(bad)).ok());
    EXPECT_FALSE(t.rt.RestoreFromSnapshot(t.pid, bad).ok());
    EXPECT_EQ(t.rt.slots_in_use(), slots);
    EXPECT_EQ(t.rt.space().MappedPages(), mapped);
    EXPECT_EQ(ViewSlot(t.rt, t.P()), before);
  }
  // The unmodified image still installs both ways.
  EXPECT_TRUE(t.rt.SpawnFromSnapshot(good).ok());
  EXPECT_TRUE(t.rt.RestoreFromSnapshot(t.pid, *good).ok());
}

TEST(SlotInstall, SignalStateIsRebasedInsideTheSlot) {
  // A handler or frame address with high bits set rebases base | low32,
  // like the reserved registers, never into another slot.
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  auto snap = Capture(t.rt, t.pid);
  ASSERT_NE(snap, nullptr);
  Snapshot odd = *snap;
  odd.sig_handlers[11] = kSlotSize + kProgramStart;
  odd.sig_frame_addr = 3 * kSlotSize + kProgramEnd - kPage;
  auto pid = t.rt.SpawnFromSnapshot(std::make_shared<Snapshot>(odd));
  ASSERT_TRUE(pid.ok()) << pid.error();
  const Proc* p = t.rt.proc(*pid);
  EXPECT_EQ(p->sig.handlers[11], p->base + kProgramStart);
  EXPECT_EQ(p->sig.frame_addr, p->base + kProgramEnd - kPage);
}

TEST(SlotInstall, DeadProcReleasesItsCheckpoint) {
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  std::weak_ptr<emu::AddressSpace::PageData> data_page;
  for (const auto& rec : t.P()->snapshot->pages) {
    if (rec.perms == (emu::kPermRead | emu::kPermWrite)) {
      data_page = rec.data;
      break;
    }
  }
  ASSERT_FALSE(data_page.expired());
  ASSERT_TRUE(t.rt.Kill(t.pid, "test").ok());
  EXPECT_EQ(t.P()->state, ProcState::kDead);
  EXPECT_EQ(t.P()->snapshot, nullptr);
  EXPECT_TRUE(data_page.expired());
}

TEST(SlotInstall, KilledParkedProcCannotBeRecycledIntoItsOldSlot) {
  // A parked sandbox killed while waiting gives its slot back; recycling
  // it afterwards must not restore into the slot's next tenant.
  Loaded t(kHelloProg);
  ASSERT_GE(t.pid, 0);
  auto snap = Capture(t.rt, t.pid);
  ASSERT_NE(snap, nullptr);
  auto parked = t.rt.SpawnFromSnapshot(snap, /*start=*/false);
  ASSERT_TRUE(parked.ok()) << parked.error();
  ASSERT_TRUE(t.rt.Kill(*parked, "test").ok());
  auto tenant = t.rt.SpawnFromSnapshot(snap, /*start=*/false);
  ASSERT_TRUE(tenant.ok()) << tenant.error();
  ASSERT_EQ(t.rt.proc(*tenant)->slot, t.rt.proc(*parked)->slot);
  const SlotView view = ViewSlot(t.rt, t.rt.proc(*tenant));
  EXPECT_FALSE(t.rt.Recycle(*parked).ok());
  EXPECT_EQ(t.rt.proc(*parked)->state, ProcState::kDead);
  EXPECT_TRUE(t.rt.proc(*parked)->mappings.empty());
  EXPECT_EQ(ViewSlot(t.rt, t.rt.proc(*tenant)), view);
}

// ---- Property: every install either fails cleanly or stays in its slot --

// Values around every layout boundary, plus wrapping and random ones.
uint64_t Interesting(std::mt19937_64& rng) {
  static const uint64_t kVals[] = {
      0, 8, kPage, kPage + 8, kProgramStart - kPage, kProgramStart,
      kProgramStart + 8, kProgramStart + 4 * kPage, kCodeEnd - kPage,
      kCodeEnd, kProgramEnd - kStackSize - kPage, kProgramEnd - kStackSize,
      kProgramEnd - kPage, kProgramEnd, kSlotSize - kPage, kSlotSize,
      kSlotSize + kProgramStart, 0 - kGuardSize, kProgramStart - kSlotSize,
      0 - kPage, ~uint64_t{0}, uint64_t{1} << 63};
  switch (rng() % 4) {
    case 0: return rng();
    case 1: return (rng() & 0xffffffffu) & ~(kPage - 1);
    default: return kVals[rng() % std::size(kVals)];
  }
}

// Segment and page sizes: small, or large enough to wrap or overrun. No
// accepted image gets more than a few pages, which keeps the test small.
uint64_t InterestingSize(std::mt19937_64& rng, uint64_t at) {
  const uint64_t kVals[] = {0,         1,          kPage - 1,   kPage,
                            3 * kPage, 0 - at,     0 - at + kPage,
                            kSlotSize, ~uint64_t{0}, uint64_t{1} << 63};
  return kVals[rng() % std::size(kVals)];
}

// Sandboxes in slots 1 and 3 around a free slot 2, which every trial
// instantiates into and frees again.
struct Neighbours {
  Runtime rt;
  int a = -1, c = -1;
  SlotView view_a, view_c;
  explicit Neighbours(RuntimeConfig cfg) : rt(cfg) {
    auto bytes = elf::Build(kHelloProg);
    EXPECT_TRUE(bytes.ok());
    a = *rt.Load(bytes->bytes);
    const int b = *rt.Load(bytes->bytes);
    c = *rt.Load(bytes->bytes);
    EXPECT_TRUE(rt.Kill(b, "make room").ok());
    view_a = ViewSlot(rt, rt.proc(a));
    view_c = ViewSlot(rt, rt.proc(c));
  }
  void ExpectUntouched() {
    EXPECT_EQ(ViewSlot(rt, rt.proc(a)), view_a);
    EXPECT_EQ(ViewSlot(rt, rt.proc(c)), view_c);
  }
};

TEST(SlotInstall, PropertyMutatedElfLoadsStayInTheirSlot) {
  RuntimeConfig cfg = TestConfig();
  cfg.enforce_verification = false;  // the layout rules are under test
  Neighbours n(cfg);
  const elf::ElfImage base = HelloImage();
  std::mt19937_64 rng(0x5107);
  int accepted = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    elf::ElfImage img = base;
    for (int m = 1 + static_cast<int>(rng() % 3); m > 0; --m) {
      elf::Segment& seg = img.segments[rng() % img.segments.size()];
      switch (rng() % 4) {
        case 0: seg.vaddr = Interesting(rng); break;
        case 1: seg.memsz = InterestingSize(rng, seg.vaddr); break;
        case 2:
          seg.read = rng() & 1;
          seg.write = rng() & 1;
          seg.exec = rng() & 1;
          break;
        case 3: img.entry = Interesting(rng); break;
      }
    }
    const uint64_t slots = n.rt.slots_in_use();
    const size_t mapped = n.rt.space().MappedPages();
    auto pid = n.rt.LoadImage(img);
    if (!pid.ok()) {
      EXPECT_EQ(n.rt.slots_in_use(), slots);
      EXPECT_EQ(n.rt.space().MappedPages(), mapped);
    } else {
      ++accepted;
      EXPECT_EQ(n.rt.proc(*pid)->slot, 2u);
      ExpectConfined(n.rt, *pid, mapped);
      ASSERT_TRUE(n.rt.Kill(*pid, "trial done").ok());
      EXPECT_EQ(n.rt.space().MappedPages(), mapped);
    }
    n.ExpectUntouched();
    if (HasFailure()) return;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 1000);
}

TEST(SlotInstall, PropertyMutatedSnapshotsStayInTheirSlot) {
  Neighbours n(TestConfig());
  auto base = Capture(n.rt, n.a);
  ASSERT_NE(base, nullptr);
  std::mt19937_64 rng(0x5108);
  int accepted = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Snapshot s = *base;
    for (int m = 1 + static_cast<int>(rng() % 3); m > 0; --m) {
      PageRec& rec = s.pages[rng() % s.pages.size()];
      auto map_it = std::next(s.mappings.begin(),
                              static_cast<std::ptrdiff_t>(
                                  rng() % s.mappings.size()));
      switch (rng() % 7) {
        case 0: rec.offset = Interesting(rng); break;
        case 1: rec.perms = static_cast<uint8_t>(rng() % 8); break;
        case 2:
          map_it->second.first = InterestingSize(rng, map_it->first);
          break;
        case 3: map_it->second.second = static_cast<uint8_t>(rng() % 8); break;
        case 4: {
          const auto range = map_it->second;
          s.mappings.erase(map_it);
          s.mappings[Interesting(rng)] = range;
          break;
        }
        case 5:
          s.mappings[Interesting(rng)] = {InterestingSize(rng, 0),
                                          static_cast<uint8_t>(rng() % 8)};
          break;
        case 6: s.mmap_cursor = Interesting(rng); break;
      }
      if (rng() & 1) {
        std::sort(s.pages.begin(), s.pages.end(),
                  [](const PageRec& a, const PageRec& b) {
                    return a.offset < b.offset;
                  });
      }
    }
    // Through the file format, as a snapshot from disk would arrive.
    auto sealed = Deserialize(Serialize(s));
    ASSERT_TRUE(sealed.ok()) << sealed.error();
    auto snap = std::make_shared<Snapshot>(*std::move(sealed));

    // Even trials spawn into the free slot; odd ones restore a sandbox
    // freshly spawned there.
    int victim = -1;
    if (trial % 2 == 1) {
      auto v = n.rt.SpawnFromSnapshot(base, /*start=*/false);
      ASSERT_TRUE(v.ok()) << v.error();
      victim = *v;
    }
    const SlotView victim_view =
        victim < 0 ? SlotView{} : ViewSlot(n.rt, n.rt.proc(victim));
    const uint64_t slots = n.rt.slots_in_use();
    const size_t mapped = n.rt.space().MappedPages();
    const size_t others = mapped - MappedIn(victim_view);
    int pid = victim;
    bool ok = false;
    if (victim < 0) {
      auto r = n.rt.SpawnFromSnapshot(snap);
      ok = r.ok();
      if (ok) pid = *r;
    } else {
      ok = n.rt.RestoreFromSnapshot(victim, *snap).ok();
    }
    if (!ok) {
      EXPECT_EQ(n.rt.slots_in_use(), slots);
      EXPECT_EQ(n.rt.space().MappedPages(), mapped);
      if (victim >= 0) {
        EXPECT_EQ(ViewSlot(n.rt, n.rt.proc(victim)), victim_view);
      }
    } else {
      ++accepted;
      EXPECT_EQ(n.rt.proc(pid)->slot, 2u);
      ExpectConfined(n.rt, pid, others);
    }
    n.ExpectUntouched();
    if (pid >= 0) {
      ASSERT_TRUE(n.rt.Kill(pid, "trial done").ok());
      EXPECT_EQ(n.rt.space().MappedPages(), others);
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 1000);
}

}  // namespace
}  // namespace lfi::snapshot
