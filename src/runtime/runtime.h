// The LFI runtime (Section 5.3).
//
// A single "process" that manages sandboxes: it loads verified ELF
// executables into 4GiB slots of one shared address space, exposes a small
// Unix-like system-call surface through the per-sandbox runtime-call table
// (open/read/write/brk/mmap/fork/wait/pipe/yield/...), schedules sandboxes
// preemptively (modelling the paper's setitimer alarm), and implements the
// fast direct yield used for microkernel-style IPC. Process-management
// calls are handled entirely internally - no mode switch, no page-table
// switch - which is where LFI's context-switch advantage (Table 5) comes
// from.
#ifndef LFI_RUNTIME_RUNTIME_H_
#define LFI_RUNTIME_RUNTIME_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "elf/elf.h"
#include "emu/machine.h"
#include "runtime/layout.h"
#include "runtime/supervisor.h"
#include "runtime/vfs.h"
#include "snapshot/snapshot.h"
#include "trace/trace.h"
#include "verifier/verifier.h"

namespace lfi::chaos {
class ChaosEngine;
}  // namespace lfi::chaos

namespace lfi::runtime {

// A pipe endpoint's shared buffer.
struct Pipe {
  std::deque<uint8_t> buf;
  int readers = 0, writers = 0;
  static constexpr size_t kCapacity = 65536;
};

// One file descriptor slot.
struct FileDesc {
  enum class Kind : uint8_t {
    kFree, kStdin, kStdout, kStderr, kFile, kPipeRead, kPipeWrite
  };
  Kind kind = Kind::kFree;
  std::shared_ptr<VfsNode> node;
  std::shared_ptr<Pipe> pipe;
  uint64_t offset = 0;
  int flags = 0;
  std::string path;  // VFS path for kFile, so snapshots can reopen it
};

enum class ProcState : uint8_t {
  kReady, kBlockedRead, kBlockedWrite, kBlockedWait, kZombie, kDead
};

// Why a process stopped running for good.
enum class ExitKind : uint8_t { kRunning, kExited, kKilled };

// One sandboxed process.
struct Proc {
  int pid = 0;
  int ppid = 0;
  uint64_t slot = 0;   // slot index; base = SlotBase(slot)
  uint64_t base = 0;
  emu::CpuState cpu;
  ProcState state = ProcState::kReady;
  bool parked = false;  // warm-pool spawn or recycled sandbox awaiting
                        // Activate(), or embedded (BeginEmbed): never in
                        // the run queue, so nothing schedules it
  bool retain_on_exit = false;  // keep the slot mapped after exit (zombie
                                // even without a parent) so the sandbox can
                                // be Recycle()d instead of torn down
  ExitKind exit_kind = ExitKind::kRunning;
  int exit_status = 0;
  std::string fault_detail;  // populated when killed by a fault
  int term_signal = 0;       // signal number recorded at kill
  Disposition disposition = Disposition::kNone;  // last fault resolution
  bool fault_injected = false;  // last fault came from the chaos engine
                                // (serving tells injected storms apart
                                // from organic handler faults)

  // Fault policy, limits, and signal-delivery state (supervisor.h).
  SupervisorPolicy policy;
  SignalState sig;
  uint32_t restarts = 0;          // restarts in the current crash window
                                  // (decays after a healthy run; see
                                  // SupervisorPolicy::restart_reset_after_cycles)
  uint64_t cpu_cycles = 0;        // cycles spent executing in the sandbox
  uint64_t insts_retired = 0;     // instructions retired by the sandbox
  uint64_t mmap_bytes = 0;        // live bytes from SysMmap (limit basis)
  // Post-instantiation checkpoint: the snapshot Load built and installed,
  // the one SpawnFromSnapshot installed, or the one captured at fork. The
  // restart policy and Recycle restore from this, touching only dirtied
  // pages. Released when the proc dies.
  std::shared_ptr<const snapshot::Snapshot> snapshot;

  uint64_t brk_start = 0, brk = 0;   // heap bounds
  uint64_t brk_mapped = 0;  // high-water mark of pages mapped for the heap
                            // (brk can shrink without unmapping; regrowth
                            // below this mark must not re-Map live pages)
  uint64_t mmap_cursor = 0;          // grows down toward the heap
  std::vector<FileDesc> fds;
  std::vector<int> children;
  std::string out;  // captured stdout+stderr

  // Block bookkeeping (pointers are sandbox-canonical addresses).
  int block_fd = -1;
  uint64_t block_buf = 0, block_len = 0;

  // Mapped ranges within the slot: offset -> (len, perms).
  std::map<uint64_t, std::pair<uint64_t, uint8_t>> mappings;
};

// Host-side cycle charges, calibrated to the paper's microbenchmarks
// (Table 5: syscall ~22ns, pipe ~46ns, yield ~17ns on the M1).
inline constexpr uint64_t kRtcallBaseCycles = 58;     // runtime entry + exit
inline constexpr uint64_t kContextSwitchCycles = 48;  // save/restore + pick
inline constexpr uint64_t kFastYieldCycles = 36;  // callee-saved regs (§5.3)
// SCXTNUM_EL0 write on a domain crossing under
// RuntimeConfig::spectre_ctx_isolation (Section 7.1).
inline constexpr uint64_t kScxtnumWriteCycles = 12;
// Recovery paths (supervisor.h).
inline constexpr uint64_t kSignalDeliverCycles = 180;  // frame push + redirect
inline constexpr uint64_t kSigreturnCycles = 140;  // frame validate + restore
// Instantiation cost model (docs/SNAPSHOTS.md). An ELF load pays
// parse/verify/zero/copy work per page; a snapshot spawn pays only
// refcount + page-table work per page (COW, nothing copied); a snapshot
// restore pays per page actually touched (dirtied or stray). Load and
// spawn costs are recorded in last_instantiation() but NOT charged to
// the shared simulated clock (instantiation happens before the run, and
// equivalent runs must trace identically); in-run restarts charge
// theirs via the supervisor.
inline constexpr uint64_t kElfLoadBaseCycles = 6000;
inline constexpr uint64_t kElfLoadPageCycles = 140;
inline constexpr uint64_t kSnapshotSpawnBaseCycles = 400;
inline constexpr uint64_t kSnapshotSpawnPageCycles = 12;
inline constexpr uint64_t kSnapshotRestoreBaseCycles = 120;
inline constexpr uint64_t kSnapshotRestorePageCycles = 25;
// Embedded-call transition costs (src/embed/, docs/EMBEDDING.md). A
// typed host->guest call is cheaper than a general runtime call: no
// dispatch table walk, no fd work, no scheduler — the host writes the
// argument registers directly and enters, and the return restores only
// callee-saved state, like the fast direct yield ("Isolation Without
// Taxation"'s springboard argument). One full call round-trip
// (entry + return) therefore costs about one kFastYieldCycles.
inline constexpr uint64_t kEmbedCallCycles = 22;         // host -> guest entry
inline constexpr uint64_t kEmbedRetCycles = 14;          // guest return to host
inline constexpr uint64_t kEmbedHostcallCycles = 22;     // guest -> host entry
inline constexpr uint64_t kEmbedHostcallRetCycles = 14;  // resume into guest
// Marshalled-buffer copy bandwidth (BufIn/BufOut scratch and Shm host
// views): modeled as a streaming memcpy. Charged per copy direction so
// per-call marshalling visibly costs more than an amortized shared
// mapping (bench_transitions measures the gap).
inline constexpr uint64_t kEmbedCopyBytesPerCycle = 16;

struct RuntimeConfig {
  arch::CoreParams core;
  verifier::VerifyOptions verify;
  bool enforce_verification = true;
  // Interpreter backend for the shared machine (docs/DISPATCH.md). Both
  // backends produce identical simulated results; kChained is simply the
  // faster. kBlock remains selectable as the reference for differential
  // testing.
  emu::Dispatch dispatch = emu::Dispatch::kChained;
  uint64_t timeslice_insts = 100000;  // preemption quantum (alarm period)
  // Section 7.1 Spectre hardening: assign each sandbox its own software
  // context number (modelling FEAT_CSV2_2 / SCXTNUM_EL0), so sandboxes
  // cannot train each other's branch predictions (cross-sandbox
  // poisoning). Writing the context register on every domain crossing
  // costs kScxtnumWriteCycles.
  bool spectre_ctx_isolation = false;
  // Fault policy applied to every loaded sandbox (overridable per pid via
  // Runtime::set_policy).
  SupervisorPolicy default_policy;
};

// What the most recent instantiation (Load / SpawnFromSnapshot /
// RestoreFromSnapshot) did and what it cost under the model above.
struct InstantiationStats {
  enum class Method : uint8_t {
    kNone, kElfLoad, kSnapshotSpawn, kSnapshotRestore
  };
  Method method = Method::kNone;
  uint64_t cycles = 0;          // modeled cost
  uint64_t pages = 0;           // pages in the image
  uint64_t dirty_pages = 0;     // restore: pages re-installed
  uint64_t unmapped_pages = 0;  // restore: stray pages removed
};

// The runtime. One instance per emulated machine.
class Runtime {
 public:
  explicit Runtime(RuntimeConfig cfg);

  // Loads an ELF executable into a fresh sandbox slot. Verifies every
  // executable segment first (unless disabled for experiments), lays the
  // image out as a snapshot (segment bounds, W^X, the 128MiB code rule),
  // and installs that like any other snapshot; it also becomes the
  // proc's restart checkpoint. A rejected image allocates nothing.
  // Returns the new pid.
  Result<int> Load(std::span<const uint8_t> elf_bytes);

  // Convenience: load an already-parsed image.
  Result<int> LoadImage(const elf::ElfImage& image);

  // ---- Snapshots (src/snapshot/, docs/SNAPSHOTS.md) ----

  // Freezes pid's current state into a slot-relative image. Capture copies
  // no memory: page payloads are shared copy-on-write with the live
  // sandbox. Fails for exited procs.
  Result<snapshot::Snapshot> CaptureSnapshot(int pid) const;

  // Instantiates a fresh sandbox from a snapshot: allocates a pid and
  // slot, installs every page COW (all spawns share payloads until one
  // writes), rebases the register file, and rehydrates the fd table. A
  // snapshot that fails the slot bounds check leaves the slot count and
  // the address space unchanged.
  // Costs no simulated cycles (see the instantiation cost model above);
  // the modeled cost lands in last_instantiation(). With start == false
  // the proc is created parked — the spawn pool's warm state — and runs
  // once Activate() is called.
  Result<int> SpawnFromSnapshot(std::shared_ptr<const snapshot::Snapshot> snap,
                                bool start = true);

  // Enqueues a parked proc created by SpawnFromSnapshot(..., false).
  // Fails if the proc was killed while parked (the spawn pool purges such
  // entries rather than handing out a dead sandbox).
  Status Activate(int pid);

  // Marks (or unmarks) pid so that on exit its slot stays mapped and the
  // proc becomes a zombie even without a waiting parent, making it
  // eligible for Recycle(). The serving dispatcher sets this on every
  // sandbox it hands a request to.
  void set_retain_on_exit(int pid, bool retain) {
    if (Proc* p = proc(pid)) p->retain_on_exit = retain;
  }

  // Rolls an exited-but-retained (or still-live) proc back to its stashed
  // checkpoint and re-parks it: same pid and slot, only diverged pages
  // touched, exit/fault/accounting state cleared, captured output reset.
  // The proc behaves exactly like a fresh SpawnFromSnapshot(..., false)
  // afterwards (Activate() to run it again). Fails for dead/unknown pids
  // or procs without a snapshot.
  Status Recycle(int pid);

  // Forcibly terminates pid from outside the sandbox (parked, zombie, or
  // live). Frees the slot of parentless procs; zombies with a parent stay
  // reapable. No-op error for unknown or already-dead pids.
  Status Kill(int pid, const std::string& why);

  // Rolls pid back to `snap` in place (same pid, slot, ppid, children,
  // captured output) through the same checked install every instantiation
  // uses: installs only pages whose payload or perms diverged, unmaps
  // stray pages, restores registers/cursors/signal state, then rebuilds
  // the fd table. A snapshot that fails the slot bounds check is rejected
  // before anything changes. The decode cache stays valid: only exec
  // pages bump the generation, and decoded blocks are keyed by payload.
  // Does not charge the clock or reset restart accounting — that is the
  // caller's policy (see Supervisor::Restart).
  Status RestoreFromSnapshot(int pid, const snapshot::Snapshot& snap);

  // What the last Load/SpawnFromSnapshot/RestoreFromSnapshot cost under
  // the deterministic instantiation model.
  const InstantiationStats& last_instantiation() const {
    return last_instantiation_;
  }

  // Replaces (or clears) the checkpoint the restart policy restores from.
  // A proc without one is not restartable: the restart policy kills it.
  void set_restart_snapshot(int pid,
                            std::shared_ptr<const snapshot::Snapshot> snap) {
    if (Proc* p = proc(pid)) p->snapshot = std::move(snap);
  }

  // Runs the scheduler until every process has exited/blocked forever or
  // the instruction budget is exhausted. Returns the number of live
  // (non-zombie, non-dead) processes remaining.
  int RunUntilIdle(uint64_t max_total_insts = ~uint64_t{0});

  // ---- Embedding primitives (src/embed/, docs/EMBEDDING.md) ----
  //
  // The typed lfi::embed::Sandbox API sits on top of these untyped
  // hooks: the runtime owns driving the machine and the fail-closed
  // transition protocol (cookies, stray-rtcall kills, slot-preserving
  // teardown); all marshalling and callback typing lives in src/embed/.

  // Why RunEmbedded handed control back to the host.
  struct EmbedStop {
    enum class Kind : uint8_t {
      kReturned,  // rtcall #19 with the expected cookie; x0/v0 = return
      kHostcall,  // rtcall #18; hostcall_index set, guest suspended in
                  // `saved` (resume with RunEmbedded(kResume))
      kReady,     // rtcall #20 during init; x0 = export-table pointer
      kFault,     // cpu fault / chaos injection / bad rtcall: proc killed
      kExited,    // guest called exit mid-call (zombie, slot retained)
      kBlocked,   // guest blocked on I/O mid-call: killed (fail closed —
                  // nothing can ever unblock it; no scheduler runs here)
      kFuel,      // instruction budget exhausted: killed (fail closed)
      kForged,    // rtcall #19 with a wrong cookie: killed
      kProtocol,  // embed rtcall out of place (ready mid-call, hostcall
                  // during init, call on a dead sandbox): killed
    };
    Kind kind = Kind::kProtocol;
    uint64_t x0 = 0;           // integer return / export-table pointer
    uint64_t v0 = 0;           // vr[0] low lane at return (float returns)
    int hostcall_index = -1;   // kHostcall: x9 at the trap
    emu::CpuState saved;       // kHostcall: full guest state, resumable
    std::string detail;        // failure kinds: human-readable cause
  };

  // How the host is entering the guest (selects the transition charge).
  enum class EmbedEnter : uint8_t {
    kInit,    // initial run to the embed-ready rtcall (uncharged, like
              // instantiation)
    kCall,    // fresh host->guest call (kEmbedCallCycles)
    kResume,  // resuming after a hostcall (kEmbedHostcallRetCycles)
  };

  // Detaches pid from the scheduler for embedded use: dequeues and parks
  // it, so only RunEmbedded drives it from here on, and sets
  // retain_on_exit so faults and exits keep the slot mapped for
  // Recycle().
  Status BeginEmbed(int pid);

  // Installs `enter` (reserved registers re-canonicalized first — the
  // same treatment sigreturn frames get) and drives pid until it returns,
  // traps into a hostcall, faults, or burns `fuel` instructions. All
  // failure kinds kill the proc fail-closed but keep the slot, so the
  // embed layer can Recycle() back to its baseline snapshot.
  EmbedStop RunEmbedded(int pid, const emu::CpuState& enter,
                        uint64_t expected_cookie, uint64_t fuel,
                        EmbedEnter how);

  // Fail-closed kill from the embed layer (bad callback index, marshal
  // failure after entry): kills pid but — unlike Kill() — preserves
  // retain_on_exit, so the slot survives for Recycle().
  void KillEmbedded(int pid, const std::string& why);

  // Carves a fresh read-write guest region out of pid's mmap arena (the
  // shared-memory mapping primitive). Returns the canonical base address.
  Result<uint64_t> GuestAlloc(int pid, uint64_t len);

  // Charges the simulated clock for one host<->guest bulk copy of `bytes`
  // (marshalled buffer scratch, Shm view traffic) at the modeled memcpy
  // bandwidth.
  void ChargeEmbedCopy(uint64_t bytes) {
    if (bytes == 0) return;
    machine_.timing().ChargeFlat((bytes + kEmbedCopyBytesPerCycle - 1) /
                                 kEmbedCopyBytesPerCycle);
  }

  Proc* proc(int pid);
  const Proc* proc(int pid) const;
  Vfs& vfs() { return vfs_; }
  emu::Machine& machine() { return machine_; }
  emu::AddressSpace& space() { return space_; }
  uint64_t Cycles() { return machine_.timing().Cycles(); }

  size_t live_procs() const;
  uint64_t slots_in_use() const { return used_slots_; }
  // Allocates a slot without loading (for scalability accounting tests).
  Result<uint64_t> ReserveSlot();

  // Attaches (or detaches, with nullptr) a trace sink: per-pid counters
  // and cycle-stamped events for every timeslice, switch, runtime call,
  // pipe transfer, fork, fault, and exit from here on. Also attaches the
  // machine-level execution counters, whose deltas are attributed to the
  // running pid around each timeslice. The sink must outlive the Runtime
  // or be detached first.
  void set_trace_sink(trace::TraceSink* sink) {
    sink_ = sink;
    machine_.set_counters(sink == nullptr ? nullptr : &exec_counters_);
  }
  trace::TraceSink* trace_sink() const { return sink_; }

  // Replaces pid's fault policy and resource limits (takes effect at the
  // next fault / limit check). No-op for unknown pids.
  void set_policy(int pid, const SupervisorPolicy& policy) {
    if (Proc* p = proc(pid)) p->policy = policy;
  }

  // Attaches (or detaches, with nullptr) the chaos fault-injection
  // engine: cpu faults via the machine's ExecHook, syscall errors and
  // short reads in the dispatcher, scheduler perturbations in
  // RunUntilIdle. The engine must outlive the Runtime or be detached.
  void set_chaos(chaos::ChaosEngine* chaos);

  // Verifier statistics accumulated across every Load (always on; the
  // cost is two clock reads per loaded segment).
  const verifier::VerifyStats& verify_stats() const { return verify_stats_; }

  // Result of the most recent verification rejection (ok == true if no
  // Load has ever been rejected), so callers can report the FailKind.
  const verifier::VerifyResult& last_verify_result() const {
    return last_verify_;
  }

 private:
  int AllocPid() { return next_pid_++; }
  Result<uint64_t> AllocSlot();
  void FreeSlot(Proc* p);

  // Frees p's slot, marks it dead and drops its checkpoint.
  void Retire(Proc* p);

  // The only way pages enter a slot. Bounds-checks every mapping, page
  // record and cursor of `snap` against the slot layout (nothing happens
  // if the check fails), unmaps pages of p's current mappings that `snap`
  // lacks, installs the pages whose payload or perms differ from what is
  // mapped (all of them in a fresh slot), and sets mappings, cursors,
  // rebased registers and signal state. The fd table is the caller's.
  // With `diff`, records the installed and unmapped page counts.
  Status InstallSnapshot(Proc* p, const snapshot::Snapshot& snap,
                         InstantiationStats* diff = nullptr);
  // The one admission step: allocates a slot and pid, installs `snap`,
  // sets policy, fds and checkpoint, adds the proc to procs_ and enqueues
  // it (parks it if !start). On failure the slot is freed, untouched.
  Result<Proc*> Instantiate(std::shared_ptr<const snapshot::Snapshot> snap,
                            std::vector<FileDesc> fds,
                            const SupervisorPolicy& policy, bool start);

  // Snapshot plumbing. CaptureInto freezes p into *out (slot-relative).
  // RebaseCpu/RelativizeCpu convert the reserved pointer registers
  // between slot-relative and canonical forms (base | low32 — the guard
  // arithmetic). RestoreFds rebuilds a live fd table from fd records
  // (files reopen by VFS path, pipes rehydrate privately with their
  // buffered bytes).
  Status CaptureInto(const Proc* p, snapshot::Snapshot* out) const;
  static emu::CpuState RebaseCpu(const emu::CpuState& rel, uint64_t base);
  static emu::CpuState RelativizeCpu(const emu::CpuState& cpu);
  std::vector<FileDesc> RestoreFds(const std::vector<snapshot::FdRec>& recs);

  // Scheduler. Runnable is the only answer to "may p run"; Enqueue is the
  // only way into the run queue, and it never queues a parked proc.
  static bool Runnable(const Proc* p) {
    return p->state == ProcState::kReady && !p->parked;
  }
  Proc* PickNext();
  void SwitchTo(Proc* p, bool fast);
  void Enqueue(const Proc* p) {
    if (!p->parked) ready_.push_back(p->pid);
  }
  void Dequeue(int pid) { std::erase(ready_, pid); }
  bool TryUnblock(Proc* p);

  // Runs p, whose state is loaded into the machine, for one timeslice of
  // at most `budget` instructions (chaos may shorten it), then saves its
  // registers and charges the slice to its cycle and instruction
  // accounts. With a sink, also attributes the slice (AttributeSlice).
  emu::StopReason RunSlice(Proc* p, uint64_t budget);
  // After a kHookStop: hands over the chaos engine's pending fault, if
  // any, and records the injection (counter + event) against p.
  bool TakeInjectedFault(Proc* p, emu::CpuFault* fault);

  // Adds the machine-counter deltas of the timeslice that just ran to
  // p's metrics and emits its sched-slice event. Only called with sink_
  // attached.
  void AttributeSlice(Proc* p, const trace::ExecCounters& before,
                      uint64_t slice_start_cycles, emu::StopReason stop);

  // Runtime-call dispatch.
  void HandleRuntimeEntry(Proc* p);
  void DoExit(Proc* p, ExitKind kind, int status);
  void KillProc(Proc* p, const std::string& why, int signo = kSigKill);
  // Records a graceful limit rejection (counter + event).
  void NoteLimit(Proc* p, LimitKind kind, uint64_t observed);
  // True when `fd` may not be allocated under p's fd-table cap.
  bool FdCapReached(Proc* p, uint64_t fd) const;

  // Individual calls; operate on p->cpu registers.
  uint64_t SysWrite(Proc* p, uint64_t fd, uint64_t buf, uint64_t len);
  uint64_t SysRead(Proc* p, uint64_t fd, uint64_t buf, uint64_t len);
  uint64_t SysOpen(Proc* p, uint64_t path, uint64_t flags);
  uint64_t SysClose(Proc* p, uint64_t fd);
  uint64_t SysBrk(Proc* p, uint64_t addr);
  uint64_t SysMmap(Proc* p, uint64_t len);
  uint64_t SysMunmap(Proc* p, uint64_t addr, uint64_t len);
  uint64_t SysFork(Proc* p);
  uint64_t SysPipe(Proc* p, uint64_t fdsptr);
  uint64_t SysLseek(Proc* p, uint64_t fd, uint64_t off, uint64_t whence);

  // Canonicalizes a sandbox pointer: base | low-32-bits (what the guards
  // do in hardware; Section 5.3's fork argument).
  uint64_t Canon(const Proc* p, uint64_t ptr) const {
    return p->base | (ptr & 0xffffffffu);
  }

  friend class Supervisor;

  RuntimeConfig cfg_;
  emu::AddressSpace space_;
  emu::Machine machine_;
  Vfs vfs_;
  Supervisor supervisor_{this};
  chaos::ChaosEngine* chaos_ = nullptr;
  trace::TraceSink* sink_ = nullptr;
  trace::ExecCounters exec_counters_;
  verifier::VerifyStats verify_stats_;
  verifier::VerifyResult last_verify_ = verifier::VerifyResult::Ok(0);
  InstantiationStats last_instantiation_;
  std::map<int, std::unique_ptr<Proc>> procs_;
  std::deque<int> ready_;
  int current_pid_ = 0;  // proc whose state is loaded into machine_
  int next_pid_ = 1;
  uint64_t next_slot_ = 1;
  uint64_t used_slots_ = 0;
  std::vector<uint64_t> free_slots_;
};

}  // namespace lfi::runtime

#endif  // LFI_RUNTIME_RUNTIME_H_
