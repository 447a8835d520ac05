#include "runtime/runtime.h"

#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "chaos/chaos.h"

namespace lfi::runtime {

namespace {

using emu::kPermExec;
using emu::kPermRead;
using emu::kPermWrite;

constexpr uint64_t kMaxIoBytes = 1 << 20;

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }
uint64_t AlignDown(uint64_t v, uint64_t a) { return v / a * a; }

// errno-style results.
constexpr uint64_t kEnoent = static_cast<uint64_t>(-2);
constexpr uint64_t kEsrch = static_cast<uint64_t>(-3);
constexpr uint64_t kEbadf = static_cast<uint64_t>(-9);
constexpr uint64_t kEchild = static_cast<uint64_t>(-10);
constexpr uint64_t kEagain = static_cast<uint64_t>(-11);
constexpr uint64_t kEnomem = static_cast<uint64_t>(-12);
constexpr uint64_t kEfault = static_cast<uint64_t>(-14);
constexpr uint64_t kEinval = static_cast<uint64_t>(-22);
constexpr uint64_t kEmfile = static_cast<uint64_t>(-24);

// Runtime calls the chaos engine may replace with an error return. Exit,
// wait, and the signal calls are excluded: injecting there changes
// process lifetime rather than exercising error paths.
bool ChaosInjectableCall(int call) {
  switch (static_cast<Rtcall>(call)) {
    case Rtcall::kWrite: case Rtcall::kRead: case Rtcall::kOpen:
    case Rtcall::kClose: case Rtcall::kBrk: case Rtcall::kMmap:
    case Rtcall::kMunmap: case Rtcall::kFork: case Rtcall::kPipe:
    case Rtcall::kLseek:
      return true;
    default:
      return false;
  }
}

// Snapshot fd records mirror FileDesc kinds numerically; capture and
// restore cast between them.
static_assert(static_cast<int>(snapshot::FdRec::Kind::kFree) ==
              static_cast<int>(FileDesc::Kind::kFree));
static_assert(static_cast<int>(snapshot::FdRec::Kind::kFile) ==
              static_cast<int>(FileDesc::Kind::kFile));
static_assert(static_cast<int>(snapshot::FdRec::Kind::kPipeWrite) ==
              static_cast<int>(FileDesc::Kind::kPipeWrite));

using PageData = emu::AddressSpace::PageData;

// The runtime-call table every slot holds read-only at offset 0: entry n
// points at runtime entry n; unused entries point at kCallTableTrap.
const PageData& CallTablePage() {
  static const PageData table = [] {
    PageData page{};
    for (uint64_t n = 0; n < kPage / 8; ++n) {
      uint64_t entry = kCallTableTrap;
      if (n < static_cast<uint64_t>(Rtcall::kCount)) {
        entry = kRuntimeEntryBase + n * kRuntimeEntryGranule;
      }
      std::memcpy(page.data() + n * 8, &entry, 8);
    }
    return page;
  }();
  return table;
}

// Lays an ELF image out as the slot-relative snapshot a fresh load
// installs: the call-table page, the stack, one mapping per segment, the
// initial register file and the standard descriptors. Pure and
// slot-independent, so every loader rule is checked before a slot is
// allocated. A page that receives nonzero file bytes gets a fresh
// payload (never shared with another image); every other page, the stack
// and bss included, is the shared zero page, exactly as Deserialize
// rebuilds the same image.
Result<snapshot::Snapshot> SnapshotFromElf(const elf::ElfImage& image) {
  constexpr uint64_t kLoadEnd = kProgramEnd - kStackSize;
  if (image.entry >= kSlotSize) {
    return Error{"entry point outside the sandbox slot"};
  }
  snapshot::Snapshot snap;
  std::map<uint64_t, snapshot::PageRec> pages;
  snap.mappings[0] = {kPage, kPermRead};
  pages[0] = {0, kPermRead, std::make_shared<PageData>(CallTablePage())};
  snap.mappings[kLoadEnd] = {kStackSize, kPermRead | kPermWrite};
  for (uint64_t po = kLoadEnd; po < kProgramEnd; po += kPage) {
    pages[po] = {po, kPermRead | kPermWrite, emu::AddressSpace::ZeroPage()};
  }

  uint64_t max_data_end = kProgramStart;
  for (const auto& seg : image.segments) {
    const uint64_t size = std::max<uint64_t>(seg.memsz, seg.data.size());
    // kProgramStart <= vaddr && vaddr + size <= kLoadEnd, without
    // letting vaddr + size wrap.
    if (seg.vaddr < kProgramStart || seg.vaddr > kLoadEnd ||
        size > kLoadEnd - seg.vaddr) {
      return Error{"segment outside the loadable sandbox area"};
    }
    const uint64_t end = seg.vaddr + size;
    if (seg.exec && end > kCodeEnd) {
      return Error{"executable segment within 128MiB of the slot end"};
    }
    if (seg.exec && seg.write) {
      return Error{"W^X violation: segment is writable and executable"};
    }
    const uint64_t page_start = AlignDown(seg.vaddr, kPage);
    const uint64_t page_end = AlignUp(end, kPage);
    for (const auto& [off, range] : snap.mappings) {
      if (off == page_start ||
          (page_start < off + range.first && off < page_end)) {
        return Error{"segments share a page"};
      }
    }
    uint8_t perms = 0;
    if (seg.read) perms |= kPermRead;
    if (seg.write) perms |= kPermWrite;
    if (seg.exec) perms |= kPermExec;
    for (uint64_t po = page_start; po < page_end; po += kPage) {
      pages[po] = {po, perms, emu::AddressSpace::ZeroPage()};
    }
    for (uint64_t i = 0, n = 0; i < seg.data.size(); i += n) {
      const uint64_t at = (seg.vaddr + i) % kPage;
      n = std::min(kPage - at, seg.data.size() - i);
      const uint8_t* src = seg.data.data() + i;
      if (std::all_of(src, src + n, [](uint8_t b) { return b == 0; })) {
        continue;
      }
      // The zero page is read-only: give the page its own payload first.
      auto& data = pages[seg.vaddr + i - at].data;
      if (data == emu::AddressSpace::ZeroPage()) {
        data = std::make_shared<PageData>();
      }
      std::memcpy(data->data() + at, src, n);
    }
    snap.mappings[page_start] = {page_end - page_start, perms};
    max_data_end = std::max(max_data_end, page_end);
  }

  snap.pages.reserve(pages.size());
  for (auto& [off, rec] : pages) snap.pages.push_back(std::move(rec));

  snap.brk_start = max_data_end;
  snap.brk = max_data_end;
  snap.brk_mapped = max_data_end;
  snap.mmap_cursor = kMmapTop;
  // Initial registers, slot-relative: the reserved base registers are 0
  // here and become the slot base at install.
  snap.cpu.pc = image.entry;
  snap.cpu.x[30] = image.entry;
  snap.cpu.sp = kProgramEnd - 64;
  snap.fds.resize(16);
  snap.fds[0].kind = snapshot::FdRec::Kind::kStdin;
  snap.fds[1].kind = snapshot::FdRec::Kind::kStdout;
  snap.fds[2].kind = snapshot::FdRec::Kind::kStderr;
  return snap;
}

// The one bounds check on what may enter a slot, applied to every
// snapshot before InstallSnapshot touches the address space. Offsets are
// slot-relative and checked without wrapping, so nothing a snapshot says
// can place a page, a mapping or a cursor outside its own slot.
Status CheckSnapshot(const snapshot::Snapshot& snap) {
  constexpr uint8_t kPermAll = kPermRead | kPermWrite | kPermExec;
  uint64_t prev_end = 0;
  for (const auto& [off, range] : snap.mappings) {
    const auto [len, perms] = range;
    if (off % kPage != 0 || len % kPage != 0 || (perms & ~kPermAll) != 0) {
      return Status::Fail("snapshot: malformed mapping");
    }
    if (len > kProgramEnd || off > kProgramEnd - len ||
        (off == 0 ? len > kPage : off < kProgramStart)) {
      return Status::Fail("snapshot: mapping outside the sandbox area");
    }
    if (off < prev_end) return Status::Fail("snapshot: mappings overlap");
    prev_end = off + len;
  }

  auto m = snap.mappings.begin();
  for (size_t k = 0; k < snap.pages.size(); ++k) {
    const snapshot::PageRec& rec = snap.pages[k];
    if (rec.data == nullptr) {
      return Status::Fail("snapshot: page has no payload");
    }
    if (rec.offset % kPage != 0 || rec.offset > kProgramEnd - kPage ||
        (rec.offset != 0 && rec.offset < kProgramStart)) {
      return Status::Fail("snapshot: page outside the sandbox area");
    }
    if (k > 0 && rec.offset <= snap.pages[k - 1].offset) {
      return Status::Fail("snapshot: pages not in ascending order");
    }
    if ((rec.perms & kPermExec) != 0 &&
        ((rec.perms & kPermWrite) != 0 || rec.offset + kPage > kCodeEnd)) {
      return Status::Fail("snapshot: executable page is writable or within "
                          "128MiB of the slot end");
    }
    while (m != snap.mappings.end() &&
           m->first + m->second.first <= rec.offset) {
      ++m;
    }
    if (m == snap.mappings.end() || m->first > rec.offset ||
        (rec.perms & ~m->second.second) != 0) {
      return Status::Fail("snapshot: page outside its declared mapping");
    }
    if (rec.offset == 0 &&
        (rec.perms != kPermRead || *rec.data != CallTablePage())) {
      return Status::Fail("snapshot: call-table page altered");
    }
  }

  if (snap.brk_start < kProgramStart || snap.brk < snap.brk_start ||
      snap.brk > kProgramEnd || snap.brk_mapped > kProgramEnd ||
      snap.mmap_cursor > kProgramEnd || snap.mmap_cursor % kPage != 0) {
    return Status::Fail("snapshot: heap or mmap cursor outside the slot");
  }
  return Status::Ok();
}

// Pins the two glibc heap policies that otherwise made host time depend on
// where unrelated objects happened to be placed:
// - Sandboxes allocate and free page payloads in bursts of up to hundreds
//   of megabytes: a guest that writes a large zero-mapped region (bss,
//   heap, mmap) copies each page it touches, and its exit frees them all.
//   Loads do not allocate in bursts, since every zero page a load maps is
//   the shared zero page, but copy-on-write does. By default
//   glibc returns free memory at the top of its heap to the kernel once
//   128 KiB collects there, so whether the next burst had to fault its
//   memory back in depended on heap layout. Up to 256 MiB of freed heap
//   now stays mapped; peak memory is unchanged.
// - A request of 128 KiB or more that no free heap chunk fits gets a
//   fresh mmap, faulted in page by page and unmapped again on free. So
//   whether the toolchain's buffers of a few megabytes were reused or
//   faulted in on every call depended on how far the heap had happened to
//   grow. At 4 MiB they stay in the heap; larger arrays (the verifier's
//   decode of a megabyte module) still get a mapping of their own and
//   give it back when freed.
void PinMallocPolicy() {
#if defined(M_TRIM_THRESHOLD) && defined(M_MMAP_THRESHOLD)
  static const bool done = mallopt(M_TRIM_THRESHOLD, 256 << 20) != 0 &&
                           mallopt(M_MMAP_THRESHOLD, 4 << 20) != 0;
  (void)done;
#endif
}

}  // namespace

Runtime::Runtime(RuntimeConfig cfg)
    : cfg_(std::move(cfg)), machine_(&space_, cfg_.core) {
  PinMallocPolicy();
  machine_.set_dispatch(cfg_.dispatch);
  machine_.SetRuntimeRegion(
      kRuntimeEntryBase,
      kRuntimeEntryGranule * static_cast<uint64_t>(Rtcall::kCount));
}

Proc* Runtime::proc(int pid) {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : it->second.get();
}

const Proc* Runtime::proc(int pid) const {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : it->second.get();
}

size_t Runtime::live_procs() const {
  size_t n = 0;
  for (const auto& [pid, p] : procs_) {
    if (p->state != ProcState::kZombie && p->state != ProcState::kDead) ++n;
  }
  return n;
}

Result<uint64_t> Runtime::AllocSlot() {
  if (!free_slots_.empty()) {
    const uint64_t s = free_slots_.back();
    free_slots_.pop_back();
    ++used_slots_;
    return s;
  }
  if (next_slot_ > kMaxSlots) return Error{"out of sandbox slots"};
  ++used_slots_;
  return next_slot_++;
}

Result<uint64_t> Runtime::ReserveSlot() { return AllocSlot(); }

void Runtime::set_chaos(chaos::ChaosEngine* chaos) {
  chaos_ = chaos;
  machine_.set_exec_hook(
      chaos != nullptr && chaos->WantsExecHook() ? chaos : nullptr);
}

void Runtime::FreeSlot(Proc* p) {
  for (const auto& [off, range] : p->mappings) {
    (void)space_.Unmap(p->base + off, range.first);
  }
  p->mappings.clear();
  // No decode-cache flush needed: unmapping the slot's exec pages bumped
  // the mutation generation, so the machine re-resolves every PC at its
  // next dispatch. Decoded blocks are keyed by page payload, not address,
  // so a different image spawned into this slot decodes its own pages,
  // and the same image spawned again reuses the decoded copy (see
  // emu/machine.h).
  free_slots_.push_back(p->slot);
  --used_slots_;
}

void Runtime::Retire(Proc* p) {
  FreeSlot(p);
  p->state = ProcState::kDead;
  // A dead proc is never restored again; holding its checkpoint would
  // keep every page payload it ever had alive for the Runtime's lifetime.
  p->snapshot.reset();
}

Result<int> Runtime::Load(std::span<const uint8_t> elf_bytes) {
  auto image = elf::Read(elf_bytes);
  if (!image) return Error{image.error()};
  return LoadImage(*image);
}

Result<int> Runtime::LoadImage(const elf::ElfImage& image) {
  // Verify every executable segment before anything is mapped.
  if (cfg_.enforce_verification) {
    for (const auto& seg : image.segments) {
      if (!seg.exec) continue;
      auto res = verifier::Verify({seg.data.data(), seg.data.size()},
                                  cfg_.verify, &verify_stats_);
      if (!res.ok) {
        std::string err = "verification failed (" +
                          std::string(verifier::FailKindName(res.kind)) +
                          ") at text offset " +
                          std::to_string(res.fail_offset) + ": " + res.reason;
        last_verify_ = std::move(res);
        return Error{std::move(err)};
      }
    }
  }

  auto built = SnapshotFromElf(image);
  if (!built) return Error{built.error()};
  // The built image is also the post-load checkpoint: what the restart
  // policy rolls back to and what spawn pools clone.
  auto snap =
      std::make_shared<const snapshot::Snapshot>(std::move(built).value());
  auto p = Instantiate(snap, RestoreFds(snap->fds), cfg_.default_policy,
                       /*start=*/true);
  if (!p) return Error{p.error()};

  const uint64_t pages = snap->pages.size();
  last_instantiation_ = {InstantiationStats::Method::kElfLoad,
                         kElfLoadBaseCycles + kElfLoadPageCycles * pages,
                         pages, 0, 0};
  return (*p)->pid;
}

Result<Proc*> Runtime::Instantiate(
    std::shared_ptr<const snapshot::Snapshot> snap, std::vector<FileDesc> fds,
    const SupervisorPolicy& policy, bool start) {
  auto slot = AllocSlot();
  if (!slot) return Error{slot.error()};
  auto p = std::make_unique<Proc>();
  p->slot = *slot;
  p->base = SlotBase(*slot);
  if (auto st = InstallSnapshot(p.get(), *snap); !st.ok()) {
    FreeSlot(p.get());
    return Error{st.error()};
  }
  p->pid = AllocPid();
  p->policy = policy;
  p->fds = std::move(fds);
  p->snapshot = std::move(snap);
  p->parked = !start;
  Proc* raw = p.get();
  procs_[raw->pid] = std::move(p);
  Enqueue(raw);
  return raw;
}

Status Runtime::InstallSnapshot(Proc* p, const snapshot::Snapshot& snap,
                                InstantiationStats* diff) {
  if (auto st = CheckSnapshot(snap); !st.ok()) return st;

  // Unmap pages the snapshot does not contain (post-capture brk growth,
  // mmaps); install only pages whose payload or perms diverged. A clean
  // page is pointer-identical to its captured payload — nothing to do.
  // Re-installing diverged data pages leaves the mutation generation
  // alone (only exec pages bump it), and decoded blocks are keyed by
  // payload, so the decode cache survives a restore intact. A fresh slot
  // has no mappings, so every page is installed.
  uint64_t unmapped = 0, installed = 0;
  if (!p->mappings.empty()) {
    std::unordered_set<uint64_t> keep;
    keep.reserve(snap.pages.size());
    for (const auto& rec : snap.pages) keep.insert(rec.offset);
    for (const auto& [off, range] : p->mappings) {
      for (uint64_t po = off; po < off + range.first; po += kPage) {
        if (keep.count(po) == 0) {
          (void)space_.Unmap(p->base + po, kPage);
          ++unmapped;
        }
      }
    }
  }
  for (const auto& rec : snap.pages) {
    uint8_t cur_perms = 0;
    const auto* cur = space_.PagePayload(p->base + rec.offset, &cur_perms);
    if (cur == rec.data.get() && cur_perms == rec.perms) continue;
    if (auto st = space_.InstallPage(p->base + rec.offset, rec.data,
                                     rec.perms);
        !st.ok()) {
      // Unreachable after CheckSnapshot; fail closed with an empty slot
      // rather than a half-installed one.
      for (const auto& r : snap.pages) {
        (void)space_.Unmap(p->base + r.offset, kPage);
      }
      for (const auto& [off, range] : p->mappings) {
        (void)space_.Unmap(p->base + off, range.first);
      }
      p->mappings.clear();
      return st;
    }
    ++installed;
  }

  p->mappings = snap.mappings;
  p->brk_start = snap.brk_start;
  p->brk = snap.brk;
  p->brk_mapped = snap.brk_mapped;
  p->mmap_cursor = snap.mmap_cursor;
  p->mmap_bytes = snap.mmap_bytes;
  // Reserved pointer registers, handlers and the frame address are rebased
  // base | low32, the guard arithmetic, so none can leave the slot.
  p->cpu = RebaseCpu(snap.cpu, p->base);
  for (size_t s = 0; s < snap.sig_handlers.size(); ++s) {
    const uint64_t h = snap.sig_handlers[s];
    p->sig.handlers[s] = h == 0 ? 0 : Canon(p, h);
  }
  p->sig.in_handler = snap.sig_in_handler;
  p->sig.cookie = snap.sig_cookie;
  p->sig.frame_addr =
      snap.sig_frame_addr == 0 ? 0 : Canon(p, snap.sig_frame_addr);
  p->sig.delivered = snap.sig_delivered;
  if (diff != nullptr) {
    diff->dirty_pages = installed;
    diff->unmapped_pages = unmapped;
  }
  return Status::Ok();
}

// ---- Snapshots (docs/SNAPSHOTS.md) ----

emu::CpuState Runtime::RelativizeCpu(const emu::CpuState& cpu) {
  emu::CpuState rel = cpu;
  rel.x[21] = 0;
  for (int reg : {18, 23, 24, 30}) rel.x[reg] = cpu.x[reg] & 0xffffffffu;
  rel.sp = cpu.sp & 0xffffffffu;
  rel.pc = cpu.pc & 0xffffffffu;
  // An invalid monitor's address is architecturally dead (stxr checks
  // excl_valid first); normalize it so restored state is bit-identical to
  // a fresh load's.
  rel.excl_addr = cpu.excl_valid ? cpu.excl_addr & 0xffffffffu : 0;
  return rel;
}

emu::CpuState Runtime::RebaseCpu(const emu::CpuState& rel, uint64_t base) {
  emu::CpuState cpu = rel;
  emu::CanonicalizeSandboxRegs(cpu, base);
  cpu.excl_addr = rel.excl_valid ? base | (rel.excl_addr & 0xffffffffu) : 0;
  return cpu;
}

Status Runtime::CaptureInto(const Proc* p, snapshot::Snapshot* out) const {
  out->cpu = RelativizeCpu(p->cpu);
  out->brk_start = p->brk_start;
  out->brk = p->brk;
  out->brk_mapped = p->brk_mapped;
  out->mmap_cursor = p->mmap_cursor;
  out->mmap_bytes = p->mmap_bytes;
  for (size_t s = 0; s < out->sig_handlers.size(); ++s) {
    const uint64_t h = p->sig.handlers[s];
    out->sig_handlers[s] = h == 0 ? 0 : h & 0xffffffffu;
  }
  out->sig_in_handler = p->sig.in_handler;
  out->sig_cookie = p->sig.cookie;
  out->sig_frame_addr = p->sig.frame_addr & 0xffffffffu;
  out->sig_delivered = p->sig.delivered;
  out->mappings = p->mappings;

  out->pages.clear();
  for (const auto& [off, range] : p->mappings) {
    for (uint64_t po = off; po < off + range.first; po += kPage) {
      uint8_t perms = 0;
      auto data = space_.ExportPage(p->base + po, &perms);
      if (data == nullptr) {
        return Status::Fail("capture: mapping has an unmapped page");
      }
      out->pages.push_back({po, perms, std::move(data)});
    }
  }

  out->fds.clear();
  std::map<const Pipe*, uint64_t> pipe_ids;
  for (const auto& d : p->fds) {
    snapshot::FdRec rec;
    rec.kind = static_cast<snapshot::FdRec::Kind>(d.kind);
    rec.flags = d.flags;
    rec.offset = d.offset;
    if (d.kind == FileDesc::Kind::kFile) rec.path = d.path;
    if (d.pipe != nullptr) {
      auto [it, fresh] =
          pipe_ids.try_emplace(d.pipe.get(), pipe_ids.size() + 1);
      rec.pipe_id = it->second;
      // The buffered bytes ride on the first endpoint seen for each pipe;
      // RestoreFds seeds the rebuilt pipe from that record.
      if (fresh) rec.pipe_buf.assign(d.pipe->buf.begin(), d.pipe->buf.end());
    }
    out->fds.push_back(std::move(rec));
  }
  return Status::Ok();
}

Result<snapshot::Snapshot> Runtime::CaptureSnapshot(int pid) const {
  const Proc* p = proc(pid);
  if (p == nullptr) return Error{"capture: no such pid"};
  if (p->state == ProcState::kZombie || p->state == ProcState::kDead) {
    return Error{"capture: process has exited"};
  }
  snapshot::Snapshot snap;
  if (auto st = CaptureInto(p, &snap); !st.ok()) return Error{st.error()};
  return snap;
}

std::vector<FileDesc> Runtime::RestoreFds(
    const std::vector<snapshot::FdRec>& recs) {
  std::vector<FileDesc> fds(std::max<size_t>(recs.size(), 16));
  std::map<uint64_t, std::shared_ptr<Pipe>> pipes;
  for (size_t k = 0; k < recs.size(); ++k) {
    const snapshot::FdRec& rec = recs[k];
    FileDesc& d = fds[k];
    switch (rec.kind) {
      case snapshot::FdRec::Kind::kFree:
        break;
      case snapshot::FdRec::Kind::kStdin:
      case snapshot::FdRec::Kind::kStdout:
      case snapshot::FdRec::Kind::kStderr:
        d.kind = static_cast<FileDesc::Kind>(rec.kind);
        break;
      case snapshot::FdRec::Kind::kFile: {
        // Reopen by VFS path, stripping create/trunc so rehydration never
        // clobbers the file. A missing file degrades to a closed fd (the
        // sandbox sees EBADF, same as if the fd had been closed).
        int err = 0;
        auto node = vfs_.Open(
            rec.path, rec.flags & ~(kOpenCreate | kOpenTrunc), &err);
        if (node == nullptr) break;
        d.kind = FileDesc::Kind::kFile;
        d.node = std::move(node);
        d.offset = rec.offset;
        d.flags = rec.flags;
        d.path = rec.path;
        break;
      }
      case snapshot::FdRec::Kind::kPipeRead:
      case snapshot::FdRec::Kind::kPipeWrite: {
        // Pipes rehydrate privately: endpoints within this snapshot are
        // reconnected (with the bytes buffered at capture), endpoints that
        // lived in another sandbox are not — a restored half-pipe sees
        // EOF/EPIPE, exactly as if the peer had exited.
        auto& pipe = pipes[rec.pipe_id];
        if (pipe == nullptr) {
          pipe = std::make_shared<Pipe>();
          pipe->buf.assign(rec.pipe_buf.begin(), rec.pipe_buf.end());
        }
        d.kind = static_cast<FileDesc::Kind>(rec.kind);
        d.pipe = pipe;
        d.flags = rec.flags;
        d.offset = rec.offset;
        if (rec.kind == snapshot::FdRec::Kind::kPipeRead) {
          ++pipe->readers;
        } else {
          ++pipe->writers;
        }
        break;
      }
    }
  }
  return fds;
}

Result<int> Runtime::SpawnFromSnapshot(
    std::shared_ptr<const snapshot::Snapshot> snap, bool start) {
  if (snap == nullptr) return Error{"spawn: null snapshot"};
  auto fds = RestoreFds(snap->fds);
  auto p = Instantiate(std::move(snap), std::move(fds), cfg_.default_policy,
                       start);
  if (!p) return Error{p.error()};

  const uint64_t pages = (*p)->snapshot->pages.size();
  last_instantiation_ = {InstantiationStats::Method::kSnapshotSpawn,
                         kSnapshotSpawnBaseCycles +
                             kSnapshotSpawnPageCycles * pages,
                         pages, 0, 0};
  const int pid = (*p)->pid;
  // Counter only, no ring event: spawn must not perturb the trace stream
  // (a spawned sandbox replays byte-identically against a loaded one).
  if (sink_ != nullptr) {
    sink_->metrics(pid).Add(trace::Counter::kSnapshotSpawns);
  }
  return pid;
}

Status Runtime::Activate(int pid) {
  Proc* p = proc(pid);
  if (p == nullptr) return Status::Fail("activate: no such pid");
  if (!p->parked) return Status::Fail("activate: proc is not parked");
  // A parked proc can be killed while waiting (Kill, chaos): it keeps
  // parked == true but leaves kReady, and must not be handed out as if it
  // were a live warm sandbox.
  if (p->state != ProcState::kReady) {
    return Status::Fail("activate: parked proc was killed");
  }
  p->parked = false;
  Enqueue(p);
  return Status::Ok();
}

Status Runtime::Kill(int pid, const std::string& why) {
  Proc* p = proc(pid);
  if (p == nullptr) return Status::Fail("kill: no such pid");
  if (p->state == ProcState::kDead) return Status::Fail("kill: already dead");
  if (p->state == ProcState::kZombie) {
    // Already exited. A parentless zombie only exists because
    // retain_on_exit kept its slot; release it now. One with a live
    // parent stays reapable through wait().
    if (proc(p->ppid) != nullptr) {
      return Status::Fail("kill: zombie awaiting reap");
    }
    Retire(p);
    return Status::Ok();
  }
  p->retain_on_exit = false;  // forced kills always tear down the slot
  KillProc(p, why);
  return Status::Ok();
}

Status Runtime::Recycle(int pid) {
  Proc* p = proc(pid);
  if (p == nullptr) return Status::Fail("recycle: no such pid");
  if (p->snapshot == nullptr) return Status::Fail("recycle: no snapshot");
  // Only quiescent procs can be recycled: parked (never ran) or
  // exited-but-retained zombies. A proc still in the run queue cannot be
  // reset out from under the scheduler.
  const bool quiescent =
      p->parked || (p->state == ProcState::kZombie && p->retain_on_exit);
  if (!quiescent) return Status::Fail("recycle: proc is not quiescent");
  // Zombie slots survive DoExit only via retain_on_exit, so the mappings
  // RestoreFromSnapshot diffs against are still live.
  if (auto st = RestoreFromSnapshot(pid, *p->snapshot); !st.ok()) return st;
  p->state = ProcState::kReady;
  p->parked = true;
  p->exit_kind = ExitKind::kRunning;
  p->exit_status = 0;
  p->fault_detail.clear();
  p->term_signal = 0;
  p->disposition = Disposition::kNone;
  p->fault_injected = false;
  p->restarts = 0;
  p->cpu_cycles = 0;
  p->insts_retired = 0;
  p->children.clear();
  p->out.clear();
  if (sink_ != nullptr) {
    sink_->metrics(pid).Add(trace::Counter::kRecycles);
  }
  return Status::Ok();
}

Status Runtime::RestoreFromSnapshot(int pid, const snapshot::Snapshot& snap) {
  Proc* p = proc(pid);
  if (p == nullptr) return Status::Fail("restore: no such pid");
  if (p->state == ProcState::kDead) {
    return Status::Fail("restore: process slot was freed");
  }

  InstantiationStats stats;
  stats.method = InstantiationStats::Method::kSnapshotRestore;
  stats.pages = snap.pages.size();

  if (auto st = InstallSnapshot(p, snap, &stats); !st.ok()) return st;
  // Close the old descriptors before rebuilding the table: pipe endpoint
  // counts must drop so peers in other sandboxes observe EOF/EPIPE.
  for (uint64_t fd = 0; fd < p->fds.size(); ++fd) {
    if (p->fds[fd].kind != FileDesc::Kind::kFree) SysClose(p, fd);
  }
  p->fds = RestoreFds(snap.fds);

  stats.cycles =
      kSnapshotRestoreBaseCycles +
      kSnapshotRestorePageCycles * (stats.dirty_pages + stats.unmapped_pages);
  last_instantiation_ = stats;
  if (sink_ != nullptr) {
    trace::Metrics& m = sink_->metrics(p->pid);
    m.Add(trace::Counter::kSnapshotRestores);
    m.Add(trace::Counter::kSnapshotDirtyPages, stats.dirty_pages);
    sink_->EmitInstant(trace::EventKind::kSnapshotRestore, p->pid, Cycles(),
                       stats.dirty_pages, stats.pages);
  }
  return Status::Ok();
}

// ---- Scheduler ----

bool Runtime::TryUnblock(Proc* p) {
  switch (p->state) {
    case ProcState::kBlockedRead: {
      FileDesc& fd = p->fds[p->block_fd];
      if (fd.kind == FileDesc::Kind::kPipeRead &&
          (fd.pipe->buf.empty() && fd.pipe->writers > 0)) {
        return false;
      }
      p->cpu.x[0] = SysRead(p, p->block_fd, p->block_buf, p->block_len);
      p->state = ProcState::kReady;
      return true;
    }
    case ProcState::kBlockedWrite: {
      FileDesc& fd = p->fds[p->block_fd];
      if (fd.kind == FileDesc::Kind::kPipeWrite &&
          fd.pipe->buf.size() >= Pipe::kCapacity && fd.pipe->readers > 0) {
        return false;
      }
      p->cpu.x[0] = SysWrite(p, p->block_fd, p->block_buf, p->block_len);
      p->state = ProcState::kReady;
      return true;
    }
    case ProcState::kBlockedWait: {
      for (int child_pid : p->children) {
        Proc* c = proc(child_pid);
        if (c != nullptr && c->state == ProcState::kZombie) {
          if (p->block_buf != 0) {
            uint8_t bytes[4];
            // Wait-status word: exited children report their low status
            // byte; killed children report 0x100 | signal (so a parent
            // can distinguish "exit(4)" from "died of SIGILL").
            const uint32_t status =
                c->exit_kind == ExitKind::kKilled
                    ? 0x100u | static_cast<uint32_t>(c->term_signal)
                    : static_cast<uint32_t>(c->exit_status) & 0xffu;
            std::memcpy(bytes, &status, 4);
            (void)space_.HostWrite(Canon(p, p->block_buf), bytes);
          }
          p->cpu.x[0] = static_cast<uint64_t>(child_pid);
          Retire(c);
          p->state = ProcState::kReady;
          return true;
        }
      }
      // No children at all -> fail the wait.
      bool any = false;
      for (int child_pid : p->children) {
        if (proc(child_pid) != nullptr &&
            proc(child_pid)->state != ProcState::kDead) {
          any = true;
        }
      }
      if (!any) {
        p->cpu.x[0] = kEchild;
        p->state = ProcState::kReady;
        return true;
      }
      return false;
    }
    default:
      return false;
  }
}

Proc* Runtime::PickNext() {
  // Poll blocked processes (the runtime is single-threaded and
  // deterministic, so completion conditions are re-checked here).
  for (auto& [pid, p] : procs_) {
    if (p->state == ProcState::kBlockedRead ||
        p->state == ProcState::kBlockedWrite ||
        p->state == ProcState::kBlockedWait) {
      if (TryUnblock(p.get())) Enqueue(p.get());
    }
  }
  while (!ready_.empty()) {
    const int pid = ready_.front();
    ready_.pop_front();
    Proc* p = proc(pid);
    if (p != nullptr && Runnable(p)) return p;
  }
  return nullptr;
}

void Runtime::SwitchTo(Proc* p, bool fast) {
  if (current_pid_ != p->pid && current_pid_ != 0) {
    machine_.timing().ChargeFlat(fast ? kFastYieldCycles
                                      : kContextSwitchCycles);
    if (sink_ != nullptr) {
      sink_->metrics(p->pid).Add(fast ? trace::Counter::kFastYields
                                      : trace::Counter::kContextSwitches);
      sink_->EmitInstant(trace::EventKind::kSchedSwitch, p->pid, Cycles(),
                         static_cast<uint64_t>(current_pid_), fast ? 1 : 0);
    }
  }
  if (cfg_.spectre_ctx_isolation &&
      machine_.timing().predictor().context() !=
          static_cast<uint32_t>(p->pid)) {
    // SCXTNUM_EL0 write on the domain crossing (Section 7.1).
    machine_.timing().predictor().SetContext(
        static_cast<uint32_t>(p->pid));
    machine_.timing().ChargeFlat(kScxtnumWriteCycles);
  }
  machine_.state() = p->cpu;
  current_pid_ = p->pid;
}

int Runtime::RunUntilIdle(uint64_t max_total_insts) {
  const uint64_t start = machine_.timing().Retired();
  bool fast_switch = false;
  while (machine_.timing().Retired() - start < max_total_insts) {
    // Chaos scheduler perturbation: occasionally rotate the ready queue
    // so a different runnable proc wins this pick.
    if (chaos_ != nullptr && ready_.size() > 1 && chaos_->PerturbSchedule()) {
      ready_.push_back(ready_.front());
      ready_.pop_front();
    }
    Proc* p = PickNext();
    if (p == nullptr) break;
    SwitchTo(p, fast_switch);
    fast_switch = false;
    switch (RunSlice(p, cfg_.timeslice_insts)) {
      case emu::StopReason::kRuntimeEntry: {
        const uint64_t entry = p->cpu.pc;
        HandleRuntimeEntry(p);
        // A fast yield moved another process to the queue front; make the
        // next switch cheap.
        const int call = static_cast<int>(
            (entry - kRuntimeEntryBase) / kRuntimeEntryGranule);
        if (call == static_cast<int>(Rtcall::kYieldTo) &&
            p->state == ProcState::kReady) {
          fast_switch = true;
        }
        break;
      }
      case emu::StopReason::kInstLimit:
        // Preemption alarm fired: rotate.
        Enqueue(p);
        break;
      case emu::StopReason::kFault:
      case emu::StopReason::kBrk:
        supervisor_.HandleFault(p, machine_.fault(), /*injected=*/false);
        break;
      case emu::StopReason::kHookStop: {
        emu::CpuFault injected;
        if (TakeInjectedFault(p, &injected)) {
          supervisor_.HandleFault(p, injected, /*injected=*/true);
        } else {
          // Some other hook (e.g. a debugger) stopped the machine; just
          // end this timeslice.
          Enqueue(p);
        }
        break;
      }
    }
    // Cpu-quota watchdog: checked once per timeslice, so overshoot is
    // bounded by one quantum.
    if (p->state != ProcState::kZombie && p->state != ProcState::kDead) {
      supervisor_.EnforceCpuQuota(p);
    }
  }
  return static_cast<int>(live_procs());
}

emu::StopReason Runtime::RunSlice(Proc* p, uint64_t budget) {
  if (chaos_ != nullptr) {
    chaos_->BeginSlice(p->pid);
    budget = chaos_->PerturbTimeslice(budget);
  }
  trace::ExecCounters ctr_before;
  if (sink_ != nullptr) ctr_before = exec_counters_;
  const uint64_t cyc0 = Cycles();
  const uint64_t ret0 = machine_.timing().Retired();
  const auto stop = machine_.Run(budget);
  p->cpu = machine_.state();
  // Per-proc execution accounting (always on; basis for the cpu-quota
  // watchdog and the containment tests). Runtime-call service time is
  // charged to the shared clock, not the sandbox.
  p->cpu_cycles += Cycles() - cyc0;
  p->insts_retired += machine_.timing().Retired() - ret0;
  if (sink_ != nullptr) AttributeSlice(p, ctr_before, cyc0, stop);
  return stop;
}

bool Runtime::TakeInjectedFault(Proc* p, emu::CpuFault* fault) {
  if (chaos_ == nullptr || !chaos_->TakePendingFault(fault)) return false;
  if (sink_ != nullptr) {
    sink_->metrics(p->pid).Add(trace::Counter::kChaosInjections);
    sink_->EmitInstant(trace::EventKind::kChaosInject, p->pid, Cycles(),
                       static_cast<uint64_t>(fault->kind), 0);
  }
  return true;
}

void Runtime::AttributeSlice(Proc* p, const trace::ExecCounters& before,
                             uint64_t slice_start_cycles,
                             emu::StopReason stop) {
  using trace::Counter;
  trace::Metrics& m = sink_->metrics(p->pid);
  const trace::ExecCounters& a = exec_counters_;
  m.Add(Counter::kInstRetired, a.retired - before.retired);
  m.Add(Counter::kGuardsExecuted, a.guards - before.guards);
  m.Add(Counter::kLoads, a.loads - before.loads);
  m.Add(Counter::kStores, a.stores - before.stores);
  m.Add(Counter::kBlockCacheHits, a.block_hits - before.block_hits);
  m.Add(Counter::kBlockCacheMisses, a.block_misses - before.block_misses);
  const uint64_t inval = a.block_invalidations - before.block_invalidations;
  if (inval > 0) {
    m.Add(Counter::kBlockCacheInvalidations, inval);
    // arg0 is the sandbox's cumulative invalidation count, not a raw
    // address-space counter: those depend on how the sandbox was
    // instantiated (ELF load vs. snapshot spawn), and equivalent runs
    // must produce byte-identical traces (docs/SNAPSHOTS.md determinism
    // contract).
    sink_->EmitInstant(trace::EventKind::kBlockInvalidate, p->pid, Cycles(),
                       m.Get(Counter::kBlockCacheInvalidations));
  }
  sink_->Emit(trace::EventKind::kSchedSlice, p->pid, slice_start_cycles,
              Cycles(), static_cast<uint64_t>(stop));
}

// ---- Embedding primitives (src/embed/, docs/EMBEDDING.md) ----

Status Runtime::BeginEmbed(int pid) {
  Proc* p = proc(pid);
  if (p == nullptr) return Status::Fail("embed: no such pid");
  if (p->state != ProcState::kReady) {
    return Status::Fail("embed: proc is not runnable");
  }
  // Parked, it never re-enters the run queue (Enqueue refuses it), so
  // the scheduler never sees an embedded sandbox.
  Dequeue(pid);
  p->parked = true;
  // Faults and exits must keep the slot mapped so the embed layer can
  // Recycle() back to its baseline snapshot instead of losing the slot.
  p->retain_on_exit = true;
  return Status::Ok();
}

void Runtime::KillEmbedded(int pid, const std::string& why) {
  Proc* p = proc(pid);
  if (p == nullptr || p->state == ProcState::kZombie ||
      p->state == ProcState::kDead) {
    return;
  }
  // Unlike Kill(), retain_on_exit survives: embedded sandboxes always
  // keep their slot so the host can restart them from the snapshot.
  KillProc(p, why, kSigSys);
}

Result<uint64_t> Runtime::GuestAlloc(int pid, uint64_t len) {
  Proc* p = proc(pid);
  if (p == nullptr) return Error{"guest-alloc: no such pid"};
  if (p->state == ProcState::kZombie || p->state == ProcState::kDead) {
    return Error{"guest-alloc: sandbox has exited"};
  }
  const uint64_t r = SysMmap(p, len);
  if (static_cast<int64_t>(r) < 0) {
    return Error{"guest-alloc: mmap failed (" +
                 std::to_string(static_cast<int64_t>(r)) + ")"};
  }
  return r;
}

Runtime::EmbedStop Runtime::RunEmbedded(int pid, const emu::CpuState& enter,
                                        uint64_t expected_cookie,
                                        uint64_t fuel, EmbedEnter how) {
  EmbedStop out;
  Proc* p = proc(pid);
  if (p == nullptr || p->state != ProcState::kReady) {
    out.kind = EmbedStop::Kind::kProtocol;
    out.detail = "embedded call on a dead or missing sandbox";
    return out;
  }
  p->cpu = enter;
  // Host-built and callback-resumed frames get the same reserved-register
  // treatment as sigreturn frames: nothing the embed layer (or a hostile
  // callback return value) writes can place a reserved register, sp, or
  // pc outside the slot.
  emu::CanonicalizeSandboxRegs(p->cpu, p->base);
  p->cpu.excl_valid = false;
  p->cpu.excl_addr = 0;
  switch (how) {
    case EmbedEnter::kInit:
      break;  // uncharged, like instantiation (equivalent runs must
              // trace identically whether init happened before or after
              // an unrelated sandbox's work)
    case EmbedEnter::kCall:
      machine_.timing().ChargeFlat(kEmbedCallCycles);
      break;
    case EmbedEnter::kResume:
      machine_.timing().ChargeFlat(kEmbedHostcallRetCycles);
      break;
  }
  const bool init = how == EmbedEnter::kInit;
  const uint64_t start_retired = machine_.timing().Retired();
  machine_.state() = p->cpu;
  current_pid_ = p->pid;
  // Tallies the embed-transition rtcall like a syscall (counter + per-
  // number split) but emits no kSyscall ring event: the embed layer's
  // kEmbedCall/kEmbedCallback events are the trace record of these
  // transitions.
  auto tally = [&](Rtcall call) {
    if (sink_ != nullptr) {
      trace::Metrics& m = sink_->metrics(p->pid);
      m.Add(trace::Counter::kSyscalls);
      m.AddSyscall(static_cast<int>(call));
    }
  };
  // Every failure kills p fail-closed (retain_on_exit keeps the slot for
  // Recycle) and reports the kill's detail.
  auto fail = [&](EmbedStop::Kind kind, const std::string& why, int signo) {
    KillProc(p, why, signo);
    out.kind = kind;
    out.detail = p->fault_detail;
    return out;
  };
  while (true) {
    const uint64_t used = machine_.timing().Retired() - start_retired;
    if (used >= fuel) {
      return fail(EmbedStop::Kind::kFuel,
                  "embedded call exhausted its fuel (" + std::to_string(fuel) +
                      " insts)",
                  kSigXcpu);
    }
    switch (RunSlice(p, std::min(cfg_.timeslice_insts, fuel - used))) {
      case emu::StopReason::kInstLimit:
        // No preemption here: the embedded call owns the machine until it
        // completes or burns its fuel.
        continue;
      case emu::StopReason::kRuntimeEntry: {
        const int call = static_cast<int>(
            (p->cpu.pc - kRuntimeEntryBase) / kRuntimeEntryGranule);
        if (call == static_cast<int>(Rtcall::kHostcall)) {
          tally(Rtcall::kHostcall);
          machine_.timing().ChargeFlat(kEmbedHostcallCycles);
          if (init) {
            return fail(EmbedStop::Kind::kProtocol,
                        "hostcall before embed-ready", kSigSys);
          }
          out.kind = EmbedStop::Kind::kHostcall;
          out.hostcall_index = static_cast<int>(p->cpu.x[9]);
          // Resume point: the instruction after the expanded blr (the
          // rewriter's x30 restore), exactly like a normal rtcall return.
          p->cpu.pc = Canon(p, p->cpu.x[30]);
          out.saved = p->cpu;
          return out;
        }
        if (call == static_cast<int>(Rtcall::kCallRet)) {
          tally(Rtcall::kCallRet);
          machine_.timing().ChargeFlat(kEmbedRetCycles);
          if (init) {
            return fail(EmbedStop::Kind::kProtocol,
                        "embedded-call return before embed-ready", kSigSys);
          }
          if (p->cpu.x[9] != expected_cookie) {
            // A real return arrives through the ret stub, which moves the
            // x19 cookie the host planted at entry into x9. Anything else
            // is a forged or replayed return frame.
            return fail(EmbedStop::Kind::kForged,
                        "forged embedded-call return (bad cookie)", kSigSys);
          }
          out.kind = EmbedStop::Kind::kReturned;
          out.x0 = p->cpu.x[0];
          out.v0 = p->cpu.vr[0].lo;
          return out;
        }
        if (call == static_cast<int>(Rtcall::kEmbedReady)) {
          tally(Rtcall::kEmbedReady);
          if (!init) {
            return fail(EmbedStop::Kind::kProtocol,
                        "embed-ready during an embedded call", kSigSys);
          }
          out.kind = EmbedStop::Kind::kReady;
          out.x0 = p->cpu.x[0];
          // Leave the proc resumable past the rtcall, mirroring the
          // normal return path (the embed layer snapshots this state).
          p->cpu.pc = Canon(p, p->cpu.x[30]);
          return out;
        }
        // Ordinary runtime call (write to a pipe, brk, clock, ...): the
        // normal dispatcher services it, and its Enqueue of the parked
        // proc is a no-op.
        HandleRuntimeEntry(p);
        if (p->state == ProcState::kReady) {
          machine_.state() = p->cpu;
          continue;
        }
        if (p->state == ProcState::kZombie || p->state == ProcState::kDead) {
          if (p->exit_kind == ExitKind::kExited) {
            out.kind = EmbedStop::Kind::kExited;
            out.detail =
                "guest exited with status " + std::to_string(p->exit_status);
          } else {
            out.kind = EmbedStop::Kind::kFault;
            out.detail = p->fault_detail;
          }
          return out;
        }
        // Blocked on I/O: no scheduler runs during an embedded call, so
        // nothing can ever complete it. Fail closed.
        return fail(EmbedStop::Kind::kBlocked,
                    "guest blocked during an embedded call", kSigSys);
      }
      case emu::StopReason::kFault:
      case emu::StopReason::kBrk: {
        // No signal delivery and no restart policy mid-call: the host is
        // suspended inside Call(), so the only sound resolution is to
        // unwind to it. The slot survives (retain_on_exit) for Recycle.
        const emu::CpuFault& f = machine_.fault();
        return fail(EmbedStop::Kind::kFault,
                    f.detail + " pc=" + std::to_string(f.pc) +
                        " (during embedded call)",
                    FaultSignal(f.kind));
      }
      case emu::StopReason::kHookStop: {
        emu::CpuFault injected;
        if (TakeInjectedFault(p, &injected)) {
          p->fault_injected = true;
          return fail(EmbedStop::Kind::kFault,
                      injected.detail + " pc=" + std::to_string(injected.pc) +
                          " [chaos] (during embedded call)",
                      FaultSignal(injected.kind));
        }
        // Some other hook (invariant checker, debugger) stopped the
        // machine; treat it as a fatal condition for this call.
        return fail(EmbedStop::Kind::kFault,
                    "exec hook stopped the embedded call", kSigKill);
      }
    }
  }
}

// ---- Runtime calls ----

void Runtime::HandleRuntimeEntry(Proc* p) {
  const uint64_t off = p->cpu.pc - kRuntimeEntryBase;
  const int call = static_cast<int>(off / kRuntimeEntryGranule);
  const uint64_t sys_enter = sink_ != nullptr ? Cycles() : 0;
  if (sink_ != nullptr) {
    trace::Metrics& m = sink_->metrics(p->pid);
    m.Add(trace::Counter::kSyscalls);
    m.AddSyscall(call);
  }
  // The fast direct yield skips the general runtime-call prologue: the
  // program loaded its entry point statically from the call table, so the
  // runtime needs no dispatch work (Section 4.4's "fast direct yield").
  machine_.timing().ChargeFlat(call == static_cast<int>(Rtcall::kYieldTo)
                                   ? kRtcallBaseCycles / 4
                                   : kRtcallBaseCycles);
  const uint64_t ret = p->cpu.x[30];
  // Return address must be a sandbox address (blr wrote pc+4); paranoia
  // check since the runtime is trusted but the value flows from the
  // sandbox.
  p->cpu.pc = Canon(p, ret);

  uint64_t r = 0;
  bool chaos_injected = false;
  if (chaos_ != nullptr && ChaosInjectableCall(call)) {
    uint64_t err = 0;
    if (chaos_->InjectSyscallError(p->pid, call, &err)) {
      // The call is not executed; the sandbox sees a transient errno.
      r = err;
      chaos_injected = true;
      if (sink_ != nullptr) {
        sink_->metrics(p->pid).Add(trace::Counter::kChaosInjections);
        sink_->EmitInstant(trace::EventKind::kChaosInject, p->pid, Cycles(),
                           static_cast<uint64_t>(call), err);
      }
    }
  }
  if (chaos_injected) {
    // Fall through to the common return path below.
  } else switch (static_cast<Rtcall>(call)) {
    case Rtcall::kExit:
      if (sink_ != nullptr) {
        sink_->Emit(trace::EventKind::kSyscall, p->pid, sys_enter, Cycles(),
                    static_cast<uint64_t>(call), 0);
      }
      DoExit(p, ExitKind::kExited, static_cast<int>(p->cpu.x[0]));
      return;
    case Rtcall::kWrite:
      r = SysWrite(p, p->cpu.x[0], p->cpu.x[1], p->cpu.x[2]);
      break;
    case Rtcall::kRead: {
      uint64_t len = p->cpu.x[2];
      if (chaos_ != nullptr) len = chaos_->ClampIoLen(p->pid, len);
      r = SysRead(p, p->cpu.x[0], p->cpu.x[1], len);
      break;
    }
    case Rtcall::kOpen:
      r = SysOpen(p, p->cpu.x[0], p->cpu.x[1]);
      break;
    case Rtcall::kClose:
      r = SysClose(p, p->cpu.x[0]);
      break;
    case Rtcall::kBrk:
      r = SysBrk(p, p->cpu.x[0]);
      break;
    case Rtcall::kMmap:
      r = SysMmap(p, p->cpu.x[1]);
      break;
    case Rtcall::kMunmap:
      r = SysMunmap(p, p->cpu.x[0], p->cpu.x[1]);
      break;
    case Rtcall::kFork:
      r = SysFork(p);
      if (sink_ != nullptr && static_cast<int64_t>(r) > 0) {
        sink_->metrics(p->pid).Add(trace::Counter::kForks);
        sink_->EmitInstant(trace::EventKind::kFork, p->pid, Cycles(), r);
      }
      break;
    case Rtcall::kWait:
      // wait(status_ptr): block until a child exits.
      p->block_buf = p->cpu.x[0];
      p->state = ProcState::kBlockedWait;
      if (TryUnblock(p)) Enqueue(p);
      if (sink_ != nullptr) {
        if (p->state == ProcState::kReady) {
          sink_->Emit(trace::EventKind::kSyscall, p->pid, sys_enter, Cycles(),
                      static_cast<uint64_t>(call), p->cpu.x[0]);
        } else {
          sink_->EmitInstant(trace::EventKind::kSyscallBlock, p->pid, Cycles(),
                             static_cast<uint64_t>(call));
        }
      }
      return;
    case Rtcall::kPipe:
      r = SysPipe(p, p->cpu.x[0]);
      break;
    case Rtcall::kYield:
      r = 0;
      break;
    case Rtcall::kGetpid:
      r = static_cast<uint64_t>(p->pid);
      break;
    case Rtcall::kClock:
      r = static_cast<uint64_t>(machine_.timing().Nanoseconds());
      break;
    case Rtcall::kYieldTo: {
      const int target = static_cast<int>(p->cpu.x[0]);
      // Only another runnable sandbox is a target: the caller itself,
      // parked (warm-pool or embedded), blocked and exited pids get ESRCH
      // and the caller goes to the back of the queue.
      const Proc* t = proc(target);
      if (t == nullptr || t == p || !Runnable(t)) {
        r = kEsrch;
        break;
      }
      // Move the target to the front so it runs next; the switch itself
      // only saves/restores callee-saved registers (~50 cycles total).
      Dequeue(target);
      ready_.push_front(target);
      if (sink_ != nullptr) {
        sink_->EmitInstant(trace::EventKind::kYieldTo, p->pid, Cycles(),
                           static_cast<uint64_t>(target));
      }
      r = 0;
      break;
    }
    case Rtcall::kLseek:
      r = SysLseek(p, p->cpu.x[0], p->cpu.x[1], p->cpu.x[2]);
      break;
    case Rtcall::kSigaction:
      r = supervisor_.SysSigaction(p, p->cpu.x[0], p->cpu.x[1]);
      break;
    case Rtcall::kSigreturn:
      // Restores the interrupted context in full (including x0 and pc);
      // the common return path below would clobber that, so return here.
      supervisor_.SysSigreturn(p, p->cpu.x[0]);
      if (p->state == ProcState::kReady &&
          p->exit_kind == ExitKind::kRunning) {
        Enqueue(p);
        if (sink_ != nullptr) {
          sink_->Emit(trace::EventKind::kSyscall, p->pid, sys_enter, Cycles(),
                      static_cast<uint64_t>(call), 0);
        }
      }
      return;
    case Rtcall::kHostcall:
      // The embed transition rtcalls only mean something while the host
      // is driving an embedded call (RunEmbedded intercepts them before
      // this dispatcher runs); a *scheduled* sandbox issuing one is
      // confused or hostile. Each dies with its own distinct message.
      KillProc(p, "hostcall outside an embedded call", kSigSys);
      return;
    case Rtcall::kCallRet:
      KillProc(p, "embedded-call return outside an embedded call", kSigSys);
      return;
    case Rtcall::kEmbedReady:
      KillProc(p, "embed-ready without an embedding host", kSigSys);
      return;
    default:
      KillProc(p, "bad runtime call " + std::to_string(call), kSigSys);
      return;
  }
  if (p->state == ProcState::kReady) {
    p->cpu.x[0] = r;
    Enqueue(p);
    if (sink_ != nullptr) {
      sink_->Emit(trace::EventKind::kSyscall, p->pid, sys_enter, Cycles(),
                  static_cast<uint64_t>(call), r);
    }
  } else if (p->state == ProcState::kBlockedRead ||
             p->state == ProcState::kBlockedWrite) {
    // Blocked: x0 will be set on completion.
    if (sink_ != nullptr) {
      sink_->EmitInstant(trace::EventKind::kSyscallBlock, p->pid, Cycles(),
                         static_cast<uint64_t>(call));
    }
  }
}

void Runtime::DoExit(Proc* p, ExitKind kind, int status) {
  p->exit_kind = kind;
  p->exit_status = status;
  if (sink_ != nullptr) {
    sink_->EmitInstant(trace::EventKind::kProcExit, p->pid, Cycles(),
                       static_cast<uint64_t>(static_cast<uint32_t>(status)));
  }
  // Close descriptors (updates pipe endpoint counts).
  for (uint64_t fd = 0; fd < p->fds.size(); ++fd) {
    if (p->fds[fd].kind != FileDesc::Kind::kFree) SysClose(p, fd);
  }
  // Orphan our children onto nobody; auto-reap zombies among them.
  for (int child_pid : p->children) {
    Proc* c = proc(child_pid);
    if (c != nullptr && c->state == ProcState::kZombie) Retire(c);
    if (c != nullptr && c->state != ProcState::kDead) c->ppid = 0;
  }
  Proc* parent = proc(p->ppid);
  if (parent == nullptr && !p->retain_on_exit) {
    Retire(p);
  } else {
    // Zombie: reapable by the parent, or (retain_on_exit) held with its
    // slot mapped so the serving layer can Recycle() it.
    p->state = ProcState::kZombie;
  }
  if (current_pid_ == p->pid) current_pid_ = 0;
}

void Runtime::KillProc(Proc* p, const std::string& why, int signo) {
  p->fault_detail = why;
  p->term_signal = signo;
  p->disposition = Disposition::kKilled;
  if (sink_ != nullptr) {
    sink_->metrics(p->pid).Add(trace::Counter::kFaults);
    sink_->EmitInstant(trace::EventKind::kFault, p->pid, Cycles());
  }
  DoExit(p, ExitKind::kKilled, -1);
}

void Runtime::NoteLimit(Proc* p, LimitKind kind, uint64_t observed) {
  if (sink_ != nullptr) {
    sink_->metrics(p->pid).Add(trace::Counter::kLimitRejections);
    sink_->EmitInstant(trace::EventKind::kLimitHit, p->pid, Cycles(),
                       static_cast<uint64_t>(kind), observed);
  }
}

bool Runtime::FdCapReached(Proc* p, uint64_t fd) const {
  const uint64_t cap = p->policy.limits.max_fds;
  return cap != 0 && fd >= cap;
}

// ---- Individual calls ----

uint64_t Runtime::SysWrite(Proc* p, uint64_t fd, uint64_t buf,
                           uint64_t len) {
  if (fd >= p->fds.size()) return kEbadf;
  FileDesc& d = p->fds[fd];
  len = std::min<uint64_t>(len, kMaxIoBytes);
  std::vector<uint8_t> tmp(len);
  if (len > 0 && !space_.HostRead(Canon(p, buf), tmp).ok()) return kEfault;
  machine_.timing().ChargeFlat(len / 64);
  switch (d.kind) {
    case FileDesc::Kind::kStdout:
    case FileDesc::Kind::kStderr:
      p->out.append(tmp.begin(), tmp.end());
      return len;
    case FileDesc::Kind::kFile: {
      if (d.flags == kOpenRead) return kEbadf;
      auto& data = d.node->data;
      if (d.flags & kOpenAppend) d.offset = data.size();
      if (d.offset + len > data.size()) data.resize(d.offset + len);
      std::copy(tmp.begin(), tmp.end(),
                data.begin() + static_cast<ptrdiff_t>(d.offset));
      d.offset += len;
      return len;
    }
    case FileDesc::Kind::kPipeWrite: {
      if (d.pipe->readers == 0) return kEinval;  // EPIPE-ish
      uint64_t capacity = Pipe::kCapacity;
      const uint64_t pipe_cap = p->policy.limits.max_pipe_buffer_bytes;
      if (pipe_cap != 0) capacity = std::min<uint64_t>(capacity, pipe_cap);
      const uint64_t space_left =
          capacity > d.pipe->buf.size() ? capacity - d.pipe->buf.size() : 0;
      if (space_left == 0) {
        if (pipe_cap != 0) {
          // A capped pipe degrades to non-blocking: EAGAIN instead of
          // parking the writer until a reader drains it.
          NoteLimit(p, LimitKind::kPipeBuf, d.pipe->buf.size());
          return kEagain;
        }
        p->state = ProcState::kBlockedWrite;
        p->block_fd = static_cast<int>(fd);
        p->block_buf = buf;
        p->block_len = len;
        return 0;  // completed later
      }
      const uint64_t n = std::min(space_left, len);
      d.pipe->buf.insert(d.pipe->buf.end(), tmp.begin(),
                         tmp.begin() + static_cast<ptrdiff_t>(n));
      if (sink_ != nullptr) {
        sink_->metrics(p->pid).Add(trace::Counter::kPipeBytesWritten, n);
        sink_->EmitInstant(trace::EventKind::kPipeWrite, p->pid, Cycles(),
                           fd, n);
      }
      return n;
    }
    default:
      return kEbadf;
  }
}

uint64_t Runtime::SysRead(Proc* p, uint64_t fd, uint64_t buf, uint64_t len) {
  if (fd >= p->fds.size()) return kEbadf;
  FileDesc& d = p->fds[fd];
  len = std::min<uint64_t>(len, kMaxIoBytes);
  switch (d.kind) {
    case FileDesc::Kind::kStdin:
      return 0;  // always EOF
    case FileDesc::Kind::kFile: {
      const auto& data = d.node->data;
      if (d.offset >= data.size()) return 0;
      const uint64_t n = std::min<uint64_t>(len, data.size() - d.offset);
      if (!space_
               .HostWrite(Canon(p, buf),
                          {data.data() + d.offset, n})
               .ok()) {
        return kEfault;
      }
      d.offset += n;
      machine_.timing().ChargeFlat(n / 64);
      return n;
    }
    case FileDesc::Kind::kPipeRead: {
      if (d.pipe->buf.empty()) {
        if (d.pipe->writers == 0) return 0;  // EOF
        p->state = ProcState::kBlockedRead;
        p->block_fd = static_cast<int>(fd);
        p->block_buf = buf;
        p->block_len = len;
        return 0;  // completed later
      }
      const uint64_t n = std::min<uint64_t>(len, d.pipe->buf.size());
      std::vector<uint8_t> tmp(d.pipe->buf.begin(),
                               d.pipe->buf.begin() + static_cast<ptrdiff_t>(n));
      if (!space_.HostWrite(Canon(p, buf), tmp).ok()) return kEfault;
      d.pipe->buf.erase(d.pipe->buf.begin(),
                        d.pipe->buf.begin() + static_cast<ptrdiff_t>(n));
      machine_.timing().ChargeFlat(n / 64);
      if (sink_ != nullptr) {
        sink_->metrics(p->pid).Add(trace::Counter::kPipeBytesRead, n);
        sink_->EmitInstant(trace::EventKind::kPipeRead, p->pid, Cycles(),
                           fd, n);
      }
      return n;
    }
    default:
      return kEbadf;
  }
}

uint64_t Runtime::SysOpen(Proc* p, uint64_t path, uint64_t flags) {
  // Read the NUL-terminated path (bounded).
  std::string s;
  uint64_t addr = Canon(p, path);
  for (int k = 0; k < 4096; ++k) {
    uint8_t c;
    if (!space_.HostRead(addr + k, {&c, 1}).ok()) return kEfault;
    if (c == 0) break;
    s.push_back(static_cast<char>(c));
  }
  int err = 0;
  auto node = vfs_.Open(s, static_cast<int>(flags), &err);
  if (node == nullptr) return static_cast<uint64_t>(err);
  for (uint64_t fd = 3; fd < p->fds.size(); ++fd) {
    if (p->fds[fd].kind == FileDesc::Kind::kFree) {
      if (FdCapReached(p, fd)) break;  // only slots above the cap are free
      p->fds[fd].kind = FileDesc::Kind::kFile;
      p->fds[fd].node = std::move(node);
      p->fds[fd].offset = 0;
      p->fds[fd].flags = static_cast<int>(flags);
      p->fds[fd].path = s;
      return fd;
    }
  }
  if (FdCapReached(p, p->fds.size())) {
    NoteLimit(p, LimitKind::kFds, p->fds.size());
    return kEmfile;
  }
  p->fds.push_back({FileDesc::Kind::kFile, std::move(node), nullptr, 0,
                    static_cast<int>(flags), s});
  return p->fds.size() - 1;
}

uint64_t Runtime::SysClose(Proc* p, uint64_t fd) {
  if (fd >= p->fds.size() || p->fds[fd].kind == FileDesc::Kind::kFree) {
    return kEbadf;
  }
  FileDesc& d = p->fds[fd];
  if (d.kind == FileDesc::Kind::kPipeRead) --d.pipe->readers;
  if (d.kind == FileDesc::Kind::kPipeWrite) --d.pipe->writers;
  d = FileDesc{};
  return 0;
}

uint64_t Runtime::SysBrk(Proc* p, uint64_t addr) {
  if (addr == 0) return p->base + p->brk;
  const uint64_t want = addr & 0xffffffffu;
  if (want < p->brk_start || want > p->mmap_cursor) {
    return p->base + p->brk;
  }
  const uint64_t heap_cap = p->policy.limits.max_heap_bytes;
  if (heap_cap != 0 && want > p->brk_start + heap_cap) {
    NoteLimit(p, LimitKind::kHeap, want - p->brk_start);
    return kEnomem;
  }
  if (want < p->brk) {
    // Shrink: the pages stay mapped (high-water mark below), but the
    // freed range must read back as zeros if the heap later regrows over
    // it — otherwise stale bytes leak across a shrink/regrow cycle. Whole
    // freed pages go back to the shared zero page.
    space_.HostZero(p->base + want, p->brk - want);
  }
  // Grow only past the high-water mark: after a shrink the old pages stay
  // mapped, and Map refuses to clobber live pages.
  const uint64_t old_end = std::max(AlignUp(p->brk, kPage), p->brk_mapped);
  const uint64_t new_end = AlignUp(want, kPage);
  if (new_end > old_end) {
    if (!space_.Map(p->base + old_end, new_end - old_end,
                    kPermRead | kPermWrite)
             .ok()) {
      return p->base + p->brk;
    }
    p->mappings[old_end] = {new_end - old_end, kPermRead | kPermWrite};
    p->brk_mapped = new_end;
  }
  p->brk = want;
  return p->base + p->brk;
}

uint64_t Runtime::SysMmap(Proc* p, uint64_t len) {
  if (len == 0) return kEinval;
  len = AlignUp(len, kPage);
  const uint64_t mmap_cap = p->policy.limits.max_mmap_bytes;
  if (mmap_cap != 0 && p->mmap_bytes + len > mmap_cap) {
    NoteLimit(p, LimitKind::kMmap, p->mmap_bytes + len);
    return kEnomem;
  }
  // An image whose data ends above the mmap cursor has no room at all;
  // the subtraction must not wrap into a cursor outside the slot.
  const uint64_t heap_end = AlignUp(p->brk, kPage);
  if (heap_end > p->mmap_cursor || len > p->mmap_cursor - heap_end) {
    return kEnomem;
  }
  p->mmap_cursor -= len;
  if (!space_.Map(p->base + p->mmap_cursor, len, kPermRead | kPermWrite)
           .ok()) {
    return kEnomem;
  }
  p->mappings[p->mmap_cursor] = {len, kPermRead | kPermWrite};
  p->mmap_bytes += len;
  machine_.timing().ChargeFlat(120 + len / kPage * 20);
  return p->base + p->mmap_cursor;
}

uint64_t Runtime::SysMunmap(Proc* p, uint64_t addr, uint64_t len) {
  const uint64_t off = addr & 0xffffffffu;
  len = AlignUp(len, kPage);
  // Only mmap's own arena: heap, image and stack mappings are not mmap
  // bytes and must not refund the max_mmap_bytes accounting.
  if (off < p->mmap_cursor || off >= kMmapTop || len > kMmapTop - off) {
    return kEinval;
  }
  auto it = p->mappings.find(off);
  if (it == p->mappings.end() || it->second.first != len) return kEinval;
  (void)space_.Unmap(p->base + off, len);
  p->mappings.erase(it);
  p->mmap_bytes -= std::min(p->mmap_bytes, len);
  machine_.timing().ChargeFlat(100);
  return 0;
}

uint64_t Runtime::SysFork(Proc* p) {
  // Fork is capture + spawn fused: freeze the parent (with the child's
  // return value patched in) and instantiate the image in the child's
  // slot. Installing the captured shared payloads is the copy-on-write
  // duplication of Section 5.3's memfd trick, and rebasing every
  // pointer-holding reserved register by replacing its top 32 bits is
  // exactly what the guards do on each access, which is why fork in a
  // single address space works. The stashed snapshot makes forked
  // children restartable.
  auto snap = std::make_shared<snapshot::Snapshot>();
  if (!CaptureInto(p, snap.get()).ok()) return kEnomem;
  snap->cpu.x[0] = 0;  // fork returns 0 in the child

  // Descriptors duplicate LIVE from the parent, not from the fd records:
  // the child must share the parent's pipe objects (a rehydrated pipe is
  // a private copy and would sever parent<->child pipelines). Fault
  // policy and limits are inherited.
  auto child = Instantiate(std::move(snap), p->fds, p->policy,
                           /*start=*/true);
  if (!child) return kEnomem;
  for (const auto& d : (*child)->fds) {
    if (d.kind == FileDesc::Kind::kPipeRead) ++d.pipe->readers;
    if (d.kind == FileDesc::Kind::kPipeWrite) ++d.pipe->writers;
  }
  (*child)->ppid = p->pid;
  p->children.push_back((*child)->pid);
  machine_.timing().ChargeFlat(400 + 30 * p->mappings.size());
  return static_cast<uint64_t>((*child)->pid);
}

uint64_t Runtime::SysPipe(Proc* p, uint64_t fdsptr) {
  int rfd = -1, wfd = -1;
  for (uint64_t fd = 3; fd < p->fds.size() && (rfd < 0 || wfd < 0); ++fd) {
    if (p->fds[fd].kind == FileDesc::Kind::kFree && !FdCapReached(p, fd)) {
      if (rfd < 0) {
        rfd = static_cast<int>(fd);
      } else {
        wfd = static_cast<int>(fd);
      }
    }
  }
  // Both endpoints must fit under the fd cap before anything is allocated.
  uint64_t next = p->fds.size();
  const uint64_t rslot = rfd >= 0 ? static_cast<uint64_t>(rfd) : next++;
  const uint64_t wslot = wfd >= 0 ? static_cast<uint64_t>(wfd) : next++;
  if (FdCapReached(p, rslot) || FdCapReached(p, wslot)) {
    NoteLimit(p, LimitKind::kFds, std::max(rslot, wslot));
    return kEmfile;
  }
  while (p->fds.size() <= std::max(rslot, wslot)) p->fds.emplace_back();
  auto pipe = std::make_shared<Pipe>();
  pipe->readers = 1;
  pipe->writers = 1;
  p->fds[rslot] = {FileDesc::Kind::kPipeRead, nullptr, pipe, 0, 0, {}};
  p->fds[wslot] = {FileDesc::Kind::kPipeWrite, nullptr, pipe, 0, 0, {}};
  uint8_t bytes[8];
  const uint32_t r32 = static_cast<uint32_t>(rslot);
  const uint32_t w32 = static_cast<uint32_t>(wslot);
  std::memcpy(bytes, &r32, 4);
  std::memcpy(bytes + 4, &w32, 4);
  if (!space_.HostWrite(Canon(p, fdsptr), bytes).ok()) return kEfault;
  return 0;
}

uint64_t Runtime::SysLseek(Proc* p, uint64_t fd, uint64_t off,
                           uint64_t whence) {
  if (fd >= p->fds.size() || p->fds[fd].kind != FileDesc::Kind::kFile) {
    return kEbadf;
  }
  FileDesc& d = p->fds[fd];
  const int64_t soff = static_cast<int64_t>(off);
  int64_t base;
  switch (whence) {
    case 0: base = 0; break;
    case 1: base = static_cast<int64_t>(d.offset); break;
    case 2: base = static_cast<int64_t>(d.node->data.size()); break;
    default: return kEinval;
  }
  if (base + soff < 0) return kEinval;
  d.offset = static_cast<uint64_t>(base + soff);
  return d.offset;
}

}  // namespace lfi::runtime
