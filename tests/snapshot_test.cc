// Snapshot subsystem tests (src/snapshot/, docs/SNAPSHOTS.md): the
// versioned on-disk format round-trips every field and rejects damaged or
// foreign files with distinct errors; capture is copy-on-write (the image
// stays frozen while the live sandbox keeps running); restore touches only
// diverged pages and is bit-exact against a fresh ELF load; fd state
// (open files, pipes with buffered bytes) survives capture/spawn; and the
// warm spawn pool hands out parked sandboxes before cold-spawning.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pipeline_util.h"
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
    auto elf = test::BuildElf(src);
    EXPECT_TRUE(elf.ok()) << (elf.ok() ? "" : elf.error());
    if (!elf.ok()) return;
    auto p = rt.Load({elf->data(), elf->size()});
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

}  // namespace
}  // namespace lfi::snapshot
