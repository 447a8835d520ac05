#include "runtime/runtime.h"

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

}  // namespace

Runtime::Runtime(RuntimeConfig cfg)
    : cfg_(std::move(cfg)), machine_(&space_, cfg_.core) {
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

Status Runtime::MapSlotCommon(Proc* p) {
  // Call table page at the very base, written then locked read-only.
  if (auto st = space_.Map(p->base, kPage, kPermRead | kPermWrite); !st.ok()) {
    return st;
  }
  for (uint64_t n = 0; n < kPage / 8; ++n) {
    uint64_t entry = 0x4000;  // unused entries point at an unmapped page
    if (n < static_cast<uint64_t>(Rtcall::kCount)) {
      entry = kRuntimeEntryBase + n * kRuntimeEntryGranule;
    }
    uint8_t bytes[8];
    std::memcpy(bytes, &entry, 8);
    if (auto st = space_.HostWrite(p->base + n * 8, bytes); !st.ok()) {
      return st;
    }
  }
  if (auto st = space_.Protect(p->base, kPage, kPermRead); !st.ok()) {
    return st;
  }
  p->mappings[0] = {kPage, kPermRead};

  // Stack at the top of the usable area.
  const uint64_t stack_base = kProgramEnd - kStackSize;
  if (auto st = space_.Map(p->base + stack_base, kStackSize,
                           kPermRead | kPermWrite);
      !st.ok()) {
    return st;
  }
  p->mappings[stack_base] = {kStackSize, kPermRead | kPermWrite};
  return Status::Ok();
}

void Runtime::InitFds(Proc* p) {
  p->fds.resize(16);
  p->fds[0].kind = FileDesc::Kind::kStdin;
  p->fds[1].kind = FileDesc::Kind::kStdout;
  p->fds[2].kind = FileDesc::Kind::kStderr;
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

  auto slot = AllocSlot();
  if (!slot) return Error{slot.error()};

  auto p = std::make_unique<Proc>();
  p->pid = AllocPid();
  p->slot = *slot;
  p->base = SlotBase(*slot);
  p->policy = cfg_.default_policy;

  if (auto st = MapSlotCommon(p.get()); !st.ok()) return Error{st.error()};
  if (auto st = MapImage(p.get(), image); !st.ok()) return Error{st.error()};
  // Keep a copy of the (verified) image so the legacy reload-restart path
  // stays benchmarkable without re-reading or re-verifying.
  p->image = std::make_shared<const elf::ElfImage>(image);
  InitFds(p.get());

  uint64_t pages = 0;
  for (const auto& [off, range] : p->mappings) pages += range.first / kPage;
  last_instantiation_ = {InstantiationStats::Method::kElfLoad,
                         cfg_.elf_load_base_cycles +
                             cfg_.elf_load_page_cycles * pages,
                         pages, 0, 0};

  // Post-load checkpoint: what the restart policy rolls back to, and what
  // spawn pools clone. Capture is O(pages) shared_ptr copies, no memory.
  auto snap = std::make_shared<snapshot::Snapshot>();
  if (CaptureInto(p.get(), snap.get()).ok()) p->snapshot = std::move(snap);

  const int pid = p->pid;
  procs_[pid] = std::move(p);
  Enqueue(pid);
  return pid;
}

Status Runtime::MapImage(Proc* p, const elf::ElfImage& image) {
  uint64_t max_data_end = kProgramStart;
  for (const auto& seg : image.segments) {
    const uint64_t start = seg.vaddr;
    const uint64_t end = seg.vaddr + std::max<uint64_t>(seg.memsz,
                                                        seg.data.size());
    if (start < kProgramStart || end > kProgramEnd - kStackSize) {
      return Status::Fail("segment outside the loadable sandbox area");
    }
    if (seg.exec && end > kCodeEnd) {
      return Status::Fail("executable segment within 128MiB of the slot end");
    }
    if (seg.exec && seg.write) {
      return Status::Fail("W^X violation: segment is writable and executable");
    }
    const uint64_t page_start = AlignDown(start, kPage);
    const uint64_t page_end = AlignUp(end, kPage);
    for (const auto& [off, range] : p->mappings) {
      if (page_start < off + range.first && off < page_end) {
        return Status::Fail("segments share a page");
      }
    }
    uint8_t perms = 0;
    if (seg.read) perms |= kPermRead;
    if (seg.write) perms |= kPermWrite;
    if (seg.exec) perms |= kPermExec;
    // Map writable first to install contents, then drop to final perms.
    if (auto st = space_.Map(p->base + page_start, page_end - page_start,
                             kPermRead | kPermWrite);
        !st.ok()) {
      return st;
    }
    if (!seg.data.empty()) {
      if (auto st = space_.HostWrite(p->base + start,
                                     {seg.data.data(), seg.data.size()});
          !st.ok()) {
        return st;
      }
    }
    if (auto st = space_.Protect(p->base + page_start,
                                 page_end - page_start, perms);
        !st.ok()) {
      return st;
    }
    p->mappings[page_start] = {page_end - page_start, perms};
    max_data_end = std::max(max_data_end, page_end);
  }

  p->brk_start = max_data_end;
  p->brk = max_data_end;
  p->brk_mapped = max_data_end;
  p->mmap_cursor = kProgramEnd - kStackSize - (uint64_t{64} << 20);

  // Initial CPU state: all reserved registers satisfy their invariants.
  p->cpu = emu::CpuState{};
  p->cpu.pc = p->base + image.entry;
  p->cpu.sp = p->base + kProgramEnd - 64;
  p->cpu.x[21] = p->base;
  p->cpu.x[18] = p->base;
  p->cpu.x[23] = p->base;
  p->cpu.x[24] = p->base;
  p->cpu.x[30] = p->base + image.entry;
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
  auto slot = AllocSlot();
  if (!slot) return Error{slot.error()};

  auto p = std::make_unique<Proc>();
  p->pid = AllocPid();
  p->slot = *slot;
  p->base = SlotBase(*slot);
  p->policy = cfg_.default_policy;
  p->parked = !start;

  for (const auto& rec : snap->pages) {
    if (auto st = space_.InstallPage(p->base + rec.offset, rec.data,
                                     rec.perms);
        !st.ok()) {
      return Error{st.error()};
    }
  }
  p->mappings = snap->mappings;
  p->brk_start = snap->brk_start;
  p->brk = snap->brk;
  p->brk_mapped = snap->brk_mapped;
  p->mmap_cursor = snap->mmap_cursor;
  p->mmap_bytes = snap->mmap_bytes;
  p->cpu = RebaseCpu(snap->cpu, p->base);
  for (size_t s = 0; s < snap->sig_handlers.size(); ++s) {
    const uint64_t h = snap->sig_handlers[s];
    p->sig.handlers[s] = h == 0 ? 0 : p->base | h;
  }
  p->sig.in_handler = snap->sig_in_handler;
  p->sig.cookie = snap->sig_cookie;
  p->sig.frame_addr =
      snap->sig_frame_addr == 0 ? 0 : p->base | snap->sig_frame_addr;
  p->sig.delivered = snap->sig_delivered;
  p->fds = RestoreFds(snap->fds);
  p->snapshot = std::move(snap);

  const uint64_t pages = p->snapshot->pages.size();
  last_instantiation_ = {InstantiationStats::Method::kSnapshotSpawn,
                         cfg_.snapshot_spawn_base_cycles +
                             cfg_.snapshot_spawn_page_cycles * pages,
                         pages, 0, 0};
  const int pid = p->pid;
  procs_[pid] = std::move(p);
  // Counter only, no ring event: spawn must not perturb the trace stream
  // (a spawned sandbox replays byte-identically against a loaded one).
  if (sink_ != nullptr) {
    sink_->metrics(pid).Add(trace::Counter::kSnapshotSpawns);
  }
  if (start) Enqueue(pid);
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
  Enqueue(pid);
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
    FreeSlot(p);
    p->state = ProcState::kDead;
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
  // RestoreFromSnapshot diffs against are still live. Temporarily leave
  // kDead out of the picture: restore refuses dead procs already.
  p->state = ProcState::kReady;
  if (auto st = RestoreFromSnapshot(pid, *p->snapshot); !st.ok()) {
    p->state = ProcState::kZombie;
    return st;
  }
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

  // Descriptors first: pipe endpoint counts must drop so peers in other
  // sandboxes observe EOF/EPIPE before the rebuilt table appears.
  for (uint64_t fd = 0; fd < p->fds.size(); ++fd) {
    if (p->fds[fd].kind != FileDesc::Kind::kFree) SysClose(p, fd);
  }

  // Unmap pages the snapshot does not contain (post-capture brk growth,
  // mmaps); install only pages whose payload or perms diverged. A clean
  // page is pointer-identical to its captured payload — nothing to do.
  // Re-installing diverged data pages leaves the mutation generation
  // alone (only exec pages bump it), and decoded blocks are keyed by
  // payload, so the decode cache survives the restore intact.
  std::unordered_set<uint64_t> keep;
  keep.reserve(snap.pages.size());
  for (const auto& rec : snap.pages) keep.insert(rec.offset);
  for (const auto& [off, range] : p->mappings) {
    for (uint64_t po = off; po < off + range.first; po += kPage) {
      if (keep.count(po) == 0) {
        (void)space_.Unmap(p->base + po, kPage);
        ++stats.unmapped_pages;
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
      return st;
    }
    ++stats.dirty_pages;
  }

  p->mappings = snap.mappings;
  p->brk_start = snap.brk_start;
  p->brk = snap.brk;
  p->brk_mapped = snap.brk_mapped;
  p->mmap_cursor = snap.mmap_cursor;
  p->mmap_bytes = snap.mmap_bytes;
  p->cpu = RebaseCpu(snap.cpu, p->base);
  for (size_t s = 0; s < snap.sig_handlers.size(); ++s) {
    const uint64_t h = snap.sig_handlers[s];
    p->sig.handlers[s] = h == 0 ? 0 : p->base | h;
  }
  p->sig.in_handler = snap.sig_in_handler;
  p->sig.cookie = snap.sig_cookie;
  p->sig.frame_addr =
      snap.sig_frame_addr == 0 ? 0 : p->base | snap.sig_frame_addr;
  p->sig.delivered = snap.sig_delivered;
  p->fds = RestoreFds(snap.fds);

  stats.cycles = cfg_.snapshot_restore_base_cycles +
                 cfg_.snapshot_restore_page_cycles *
                     (stats.dirty_pages + stats.unmapped_pages);
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
          ReapChild(p, c);
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
      if (TryUnblock(p.get())) Enqueue(pid);
    }
  }
  while (!ready_.empty()) {
    const int pid = ready_.front();
    ready_.pop_front();
    Proc* p = proc(pid);
    if (p != nullptr && p->state == ProcState::kReady) return p;
  }
  return nullptr;
}

void Runtime::SwitchTo(Proc* p, bool fast) {
  if (current_pid_ != p->pid && current_pid_ != 0) {
    machine_.timing().ChargeFlat(fast ? cfg_.fast_yield_cycles
                                      : cfg_.context_switch_cycles);
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
    machine_.timing().ChargeFlat(cfg_.scxtnum_write_cycles);
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
    trace::ExecCounters ctr_before;
    uint64_t slice_start = 0;
    if (sink_ != nullptr) {
      ctr_before = exec_counters_;
      slice_start = Cycles();
    }
    uint64_t slice_insts = cfg_.timeslice_insts;
    if (chaos_ != nullptr) {
      chaos_->BeginSlice(p->pid);
      slice_insts = chaos_->PerturbTimeslice(slice_insts);
    }
    const uint64_t cyc0 = Cycles();
    const uint64_t ret0 = machine_.timing().Retired();
    const auto stop = machine_.Run(slice_insts);
    p->cpu = machine_.state();
    // Per-proc execution accounting (always on; basis for the cpu-quota
    // watchdog and the containment tests). Runtime-call service time is
    // charged to the shared clock, not the sandbox.
    p->cpu_cycles += Cycles() - cyc0;
    p->insts_retired += machine_.timing().Retired() - ret0;
    if (sink_ != nullptr) AttributeSlice(p, ctr_before, slice_start, stop);
    switch (stop) {
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
        Enqueue(p->pid);
        break;
      case emu::StopReason::kFault:
        supervisor_.HandleFault(p, machine_.fault(), /*injected=*/false);
        break;
      case emu::StopReason::kBrk:
        supervisor_.HandleFault(p, machine_.fault(), /*injected=*/false);
        break;
      case emu::StopReason::kHookStop: {
        emu::CpuFault injected;
        if (chaos_ != nullptr && chaos_->TakePendingFault(&injected)) {
          if (sink_ != nullptr) {
            sink_->metrics(p->pid).Add(trace::Counter::kChaosInjections);
            sink_->EmitInstant(trace::EventKind::kChaosInject, p->pid,
                               Cycles(),
                               static_cast<uint64_t>(injected.kind), 0);
          }
          supervisor_.HandleFault(p, injected, /*injected=*/true);
        } else {
          // Some other hook (e.g. a debugger) stopped the machine; just
          // end this timeslice.
          Enqueue(p->pid);
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

void Runtime::DequeuePid(int pid) {
  for (auto it = ready_.begin(); it != ready_.end();) {
    if (*it == pid) {
      it = ready_.erase(it);
    } else {
      ++it;
    }
  }
}

Status Runtime::BeginEmbed(int pid) {
  Proc* p = proc(pid);
  if (p == nullptr) return Status::Fail("embed: no such pid");
  if (p->state != ProcState::kReady) {
    return Status::Fail("embed: proc is not runnable");
  }
  DequeuePid(pid);
  // Parked procs are never enqueued by Activate-less paths, and every
  // Enqueue a runtime call performs inside DriveEmbedded is immediately
  // undone there — the scheduler never sees an embedded sandbox.
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
      machine_.timing().ChargeFlat(cfg_.embed_call_cycles);
      break;
    case EmbedEnter::kResume:
      machine_.timing().ChargeFlat(cfg_.embed_hostcall_ret_cycles);
      break;
  }
  return DriveEmbedded(p, expected_cookie, fuel,
                       how == EmbedEnter::kInit);
}

Runtime::EmbedStop Runtime::DriveEmbedded(Proc* p, uint64_t expected_cookie,
                                          uint64_t fuel, bool init) {
  EmbedStop out;
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
  while (true) {
    const uint64_t used = machine_.timing().Retired() - start_retired;
    if (used >= fuel) {
      KillProc(p, "embedded call exhausted its fuel (" +
                   std::to_string(fuel) + " insts)", kSigXcpu);
      out.kind = EmbedStop::Kind::kFuel;
      out.detail = p->fault_detail;
      return out;
    }
    uint64_t slice = std::min(cfg_.timeslice_insts, fuel - used);
    if (chaos_ != nullptr) {
      chaos_->BeginSlice(p->pid);
      slice = chaos_->PerturbTimeslice(slice);
    }
    trace::ExecCounters ctr_before;
    uint64_t slice_start = 0;
    if (sink_ != nullptr) {
      ctr_before = exec_counters_;
      slice_start = Cycles();
    }
    const uint64_t cyc0 = Cycles();
    const uint64_t ret0 = machine_.timing().Retired();
    const auto stop = machine_.Run(slice);
    p->cpu = machine_.state();
    p->cpu_cycles += Cycles() - cyc0;
    p->insts_retired += machine_.timing().Retired() - ret0;
    if (sink_ != nullptr) AttributeSlice(p, ctr_before, slice_start, stop);
    switch (stop) {
      case emu::StopReason::kInstLimit:
        // No preemption here: the embedded call owns the machine until it
        // completes or burns its fuel.
        continue;
      case emu::StopReason::kRuntimeEntry: {
        const int call = static_cast<int>(
            (p->cpu.pc - kRuntimeEntryBase) / kRuntimeEntryGranule);
        if (call == static_cast<int>(Rtcall::kHostcall)) {
          tally(Rtcall::kHostcall);
          machine_.timing().ChargeFlat(cfg_.embed_hostcall_cycles);
          if (init) {
            KillProc(p, "hostcall before embed-ready", kSigSys);
            out.kind = EmbedStop::Kind::kProtocol;
            out.detail = p->fault_detail;
            return out;
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
          machine_.timing().ChargeFlat(cfg_.embed_ret_cycles);
          if (init) {
            KillProc(p, "embedded-call return before embed-ready", kSigSys);
            out.kind = EmbedStop::Kind::kProtocol;
            out.detail = p->fault_detail;
            return out;
          }
          if (p->cpu.x[9] != expected_cookie) {
            // A real return arrives through the ret stub, which moves the
            // x19 cookie the host planted at entry into x9. Anything else
            // is a forged or replayed return frame.
            KillProc(p, "forged embedded-call return (bad cookie)", kSigSys);
            out.kind = EmbedStop::Kind::kForged;
            out.detail = p->fault_detail;
            return out;
          }
          out.kind = EmbedStop::Kind::kReturned;
          out.x0 = p->cpu.x[0];
          out.v0 = p->cpu.vr[0].lo;
          return out;
        }
        if (call == static_cast<int>(Rtcall::kEmbedReady)) {
          tally(Rtcall::kEmbedReady);
          if (!init) {
            KillProc(p, "embed-ready during an embedded call", kSigSys);
            out.kind = EmbedStop::Kind::kProtocol;
            out.detail = p->fault_detail;
            return out;
          }
          out.kind = EmbedStop::Kind::kReady;
          out.x0 = p->cpu.x[0];
          // Leave the proc resumable past the rtcall, mirroring the
          // normal return path (the embed layer snapshots this state).
          p->cpu.pc = Canon(p, p->cpu.x[30]);
          return out;
        }
        // Ordinary runtime call (write to a pipe, brk, clock, ...): let
        // the normal dispatcher service it, then undo its Enqueue — the
        // scheduler must never see an embedded sandbox.
        HandleRuntimeEntry(p);
        DequeuePid(p->pid);
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
        KillProc(p, "guest blocked during an embedded call", kSigSys);
        out.kind = EmbedStop::Kind::kBlocked;
        out.detail = p->fault_detail;
        return out;
      }
      case emu::StopReason::kFault:
      case emu::StopReason::kBrk: {
        // No signal delivery and no restart policy mid-call: the host is
        // suspended inside Call(), so the only sound resolution is to
        // unwind to it. The slot survives (retain_on_exit) for Recycle.
        const emu::CpuFault& f = machine_.fault();
        KillProc(p, f.detail + " pc=" + std::to_string(f.pc) +
                     " (during embedded call)", FaultSignal(f.kind));
        out.kind = EmbedStop::Kind::kFault;
        out.detail = p->fault_detail;
        return out;
      }
      case emu::StopReason::kHookStop: {
        emu::CpuFault injected;
        if (chaos_ != nullptr && chaos_->TakePendingFault(&injected)) {
          if (sink_ != nullptr) {
            sink_->metrics(p->pid).Add(trace::Counter::kChaosInjections);
            sink_->EmitInstant(trace::EventKind::kChaosInject, p->pid,
                               Cycles(),
                               static_cast<uint64_t>(injected.kind), 0);
          }
          p->fault_injected = true;
          KillProc(p, injected.detail + " pc=" +
                       std::to_string(injected.pc) +
                       " [chaos] (during embedded call)",
                   FaultSignal(injected.kind));
          p->fault_injected = true;
          out.kind = EmbedStop::Kind::kFault;
          out.detail = p->fault_detail;
          return out;
        }
        // Some other hook (invariant checker, debugger) stopped the
        // machine; treat it as a fatal condition for this call.
        KillProc(p, "exec hook stopped the embedded call", kSigKill);
        out.kind = EmbedStop::Kind::kFault;
        out.detail = p->fault_detail;
        return out;
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
                                   ? cfg_.rtcall_base_cycles / 4
                                   : cfg_.rtcall_base_cycles);
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
      DoExit(p, static_cast<int>(p->cpu.x[0]));
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
      if (TryUnblock(p)) Enqueue(p->pid);
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
      Proc* t = proc(target);
      if (t == nullptr || (t->state != ProcState::kReady)) {
        r = kEsrch;
        break;
      }
      // Move the target to the front so it runs next; the switch itself
      // only saves/restores callee-saved registers (~50 cycles total).
      for (auto it = ready_.begin(); it != ready_.end(); ++it) {
        if (*it == target) {
          ready_.erase(it);
          break;
        }
      }
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
        Enqueue(p->pid);
        if (sink_ != nullptr) {
          sink_->Emit(trace::EventKind::kSyscall, p->pid, sys_enter, Cycles(),
                      static_cast<uint64_t>(call), 0);
        }
      }
      return;
    case Rtcall::kHostcall:
      // The embed transition rtcalls only mean something while the host
      // is driving an embedded call (DriveEmbedded intercepts them before
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
    Enqueue(p->pid);
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

void Runtime::ReapChild(Proc* parent, Proc* child) {
  FreeSlot(child);
  child->state = ProcState::kDead;
  (void)parent;
}

void Runtime::DoExit(Proc* p, int status) {
  p->exit_kind = ExitKind::kExited;
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
    if (c != nullptr && c->state == ProcState::kZombie) ReapChild(p, c);
    if (c != nullptr && c->state != ProcState::kDead) c->ppid = 0;
  }
  Proc* parent = proc(p->ppid);
  if (parent == nullptr && !p->retain_on_exit) {
    FreeSlot(p);
    p->state = ProcState::kDead;
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
  p->exit_kind = ExitKind::kKilled;
  p->exit_status = -1;
  DoExit(p, -1);
  p->exit_kind = ExitKind::kKilled;
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
    // it — otherwise stale bytes leak across a shrink/regrow cycle.
    static constexpr uint64_t kChunk = 4096;
    uint8_t zeros[kChunk] = {};
    for (uint64_t off = want; off < p->brk; off += kChunk) {
      const uint64_t n = std::min<uint64_t>(kChunk, p->brk - off);
      (void)space_.HostWrite(p->base + off, {zeros, n});
    }
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
  if (len > p->mmap_cursor - AlignUp(p->brk, kPage)) return kEnomem;
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
  // slot. Installing the captured shared payloads is the same
  // copy-on-write duplication the ShareRange path performed (the memfd
  // trick from Section 5.3), and stashing the snapshot makes forked
  // children restartable — the legacy image path never could (children
  // have no ELF image).
  auto snap = std::make_shared<snapshot::Snapshot>();
  if (!CaptureInto(p, snap.get()).ok()) return kEnomem;
  snap->cpu.x[0] = 0;  // fork returns 0 in the child

  auto slot = AllocSlot();
  if (!slot) return kEnomem;
  auto child = std::make_unique<Proc>();
  child->pid = AllocPid();
  child->ppid = p->pid;
  child->slot = *slot;
  child->base = SlotBase(*slot);
  child->state = ProcState::kReady;
  child->policy = p->policy;  // fault policy and limits are inherited
  child->brk_start = snap->brk_start;
  child->brk = snap->brk;
  child->brk_mapped = snap->brk_mapped;
  child->mmap_cursor = snap->mmap_cursor;
  child->mmap_bytes = snap->mmap_bytes;
  child->mappings = snap->mappings;

  // Descriptors duplicate LIVE from the parent, not from the fd records:
  // the child must share the parent's pipe objects (a rehydrated pipe is
  // a private copy and would sever parent<->child pipelines).
  child->fds = p->fds;
  for (auto& d : child->fds) {
    if (d.kind == FileDesc::Kind::kPipeRead) ++d.pipe->readers;
    if (d.kind == FileDesc::Kind::kPipeWrite) ++d.pipe->writers;
  }

  for (const auto& rec : snap->pages) {
    if (!space_.InstallPage(child->base + rec.offset, rec.data, rec.perms)
             .ok()) {
      return kEnomem;
    }
  }

  // Register state: identical, except every pointer-holding reserved
  // register is rebased by replacing its top 32 bits - exactly what the
  // guards do on each access, which is why fork in a single address space
  // works (Section 5.3).
  child->cpu = RebaseCpu(snap->cpu, child->base);

  // Handlers (and any live frame) are inherited rebased, consistent with
  // the stashed checkpoint a restart rolls the child back to.
  for (size_t s = 0; s < snap->sig_handlers.size(); ++s) {
    const uint64_t h = snap->sig_handlers[s];
    child->sig.handlers[s] = h == 0 ? 0 : child->base | h;
  }
  child->sig.in_handler = snap->sig_in_handler;
  child->sig.cookie = snap->sig_cookie;
  child->sig.frame_addr =
      snap->sig_frame_addr == 0 ? 0 : child->base | snap->sig_frame_addr;
  child->sig.delivered = snap->sig_delivered;
  child->snapshot = std::move(snap);

  machine_.timing().ChargeFlat(400 + 30 * p->mappings.size());

  const int child_pid = child->pid;
  p->children.push_back(child_pid);
  procs_[child_pid] = std::move(child);
  Enqueue(child_pid);
  return static_cast<uint64_t>(child_pid);
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
