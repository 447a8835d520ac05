// Per-sandbox tracing & metrics (observability for the runtime story).
//
// The paper's performance claims (Table 5 syscall/pipe/yield costs, the
// Section 5.3 scheduler, Section 4.4 runtime calls) are asserted by
// end-to-end benchmarks; this subsystem lets them be *decomposed*: every
// sandbox gets a Metrics block of monotonic counters, and the runtime
// emits cycle-stamped events into a fixed-capacity ring buffer that can be
// exported as a human table (`lfi-run --stats`) or Chrome trace_event
// JSON (`lfi-run --trace out.json`, viewable in Perfetto or
// chrome://tracing).
//
// Determinism: timestamps come from the emulator's simulated-cycle clock
// (Timing::Cycles()), never from host time, so two runs of the same
// program produce byte-identical trace files. Host-time measurements
// (e.g. verifier pass timing) are confined to the --stats table.
//
// Cost: everything here is pull-based and branch-gated. The Machine's
// hot loop is compiled with the counting path behind a single
// pointer-null test per *block* (not per instruction); with no counters
// attached the dispatch loop is byte-for-byte the pre-trace code path.
#ifndef LFI_TRACE_TRACE_H_
#define LFI_TRACE_TRACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <vector>

namespace lfi::trace {

// Per-sandbox counter identifiers. All counters are monotonic and count
// *retired* work: an instruction that faults (and therefore does not
// retire) shows up in kFaults, not in kLoads/kStores.
enum class Counter : uint8_t {
  kInstRetired = 0,      // instructions retired while this sandbox ran
  kGuardsExecuted,       // LFI guard instructions retired (add xR,x21,wN,uxtw
                         // family + the sp guard)
  kLoads,                // load instructions retired (ldp counts once)
  kStores,               // store instructions retired (stp counts once)
  kSyscalls,             // runtime calls entered (all numbers; see
                         // Metrics::syscalls for the per-number split)
  kContextSwitches,      // full context switches into this sandbox
  kFastYields,           // fast direct-yield switches into this sandbox
  kBlockCacheHits,       // decode-cache block entries served from cache
  kBlockCacheMisses,     // block entries that had to decode
  kBlockCacheInvalidations,  // decoded blocks dropped (cache cap)
  kPipeBytesRead,        // bytes moved out of pipes by this sandbox
  kPipeBytesWritten,     // bytes moved into pipes by this sandbox
  kFaults,               // faults that killed this sandbox
  kForks,                // successful forks performed by this sandbox
  kSignalsDelivered,     // fault signals delivered to a sandbox handler
  kSigreturns,           // successful sigreturn completions
  kRestarts,             // restart-policy image reloads
  kLimitRejections,      // syscalls rejected by a resource limit
  kChaosInjections,      // faults/errors injected by the chaos engine
  kSnapshotRestores,     // restore-from-snapshot operations on this sandbox
  kSnapshotDirtyPages,   // pages a restore actually had to re-install
  kSnapshotSpawns,       // sandboxes instantiated from a snapshot
  kRecycles,             // exited sandboxes rolled back and re-parked
  kEmbedCalls,           // typed host->guest calls driven into this sandbox
  kEmbedCallbacks,       // guest->host callback round-trips
  kCount,
};

// Stable kebab-case name ("inst-retired", ...), for the stats table.
const char* CounterName(Counter c);

// Highest runtime-call number tracked with its own slot; calls >= this
// are tallied in the last slot. (The runtime currently defines 16.)
inline constexpr int kMaxSyscalls = 32;

// One sandbox's counters.
struct Metrics {
  std::array<uint64_t, static_cast<size_t>(Counter::kCount)> c{};
  std::array<uint64_t, kMaxSyscalls> syscalls{};  // by runtime-call number

  void Add(Counter id, uint64_t n = 1) {
    c[static_cast<size_t>(id)] += n;
  }
  uint64_t Get(Counter id) const { return c[static_cast<size_t>(id)]; }
  void AddSyscall(int number) {
    ++syscalls[number >= 0 && number < kMaxSyscalls ? number
                                                    : kMaxSyscalls - 1];
  }
};

// Aggregate counters maintained by the Machine's dispatch loop while
// tracing is attached. The Machine has no notion of sandboxes; the
// runtime snapshots this accumulator around each timeslice and attributes
// the delta to the sandbox that ran (see Runtime::RunUntilIdle).
struct ExecCounters {
  uint64_t retired = 0;
  uint64_t guards = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t block_hits = 0;
  uint64_t block_misses = 0;
  uint64_t block_invalidations = 0;
};

// Event kinds recorded in the ring. Interval events (kSchedSlice,
// kSyscall) have end >= start; the rest are instants (end == start).
enum class EventKind : uint8_t {
  kSchedSlice = 0,  // sandbox occupied the machine; arg0 = stop reason
  kSchedSwitch,     // scheduler picked this pid; arg0 = previous pid,
                    // arg1 = 1 for a fast direct yield
  kSyscall,         // runtime call; arg0 = call number, arg1 = x0 result
  kSyscallBlock,    // runtime call blocked; arg0 = call number
  kYieldTo,         // fast direct yield; arg0 = target pid
  kFork,            // arg0 = child pid
  kPipeRead,        // arg0 = fd, arg1 = bytes
  kPipeWrite,       // arg0 = fd, arg1 = bytes
  kBlockInvalidate, // decoded blocks dropped; arg0 = the sandbox's running
                    // invalidation count (instantiation-path independent)
  kFault,           // sandbox killed; arg0 = 0
  kProcExit,        // arg0 = exit status (as u64)
  kSignalDeliver,   // fault signal delivered; arg0 = signo, arg1 = frame
  kSigreturn,       // handler returned; arg0 = resumed pc
  kProcRestart,     // restart policy reloaded the image; arg0 = restart
                    // count, arg1 = backoff cycles charged
  kLimitHit,        // resource limit rejection; arg0 = LimitKind, arg1 =
                    // observed value
  kChaosInject,     // chaos engine injection; arg0 = fault kind or call
                    // number, arg1 = 0 for cpu faults / errno for syscalls
  kSnapshotRestore, // restore-from-snapshot; arg0 = dirty pages installed,
                    // arg1 = total snapshot pages
  kSnapshotSpawn,   // sandbox instantiated from a snapshot; arg0 = pages
  kServeDispatch,   // serving layer handed a request to this sandbox;
                    // arg0 = request id, arg1 = 1 if the sandbox came
                    // from the warm pool, 0 if cold-instantiated
  kServeComplete,   // request finished; arg0 = request id, arg1 = latency
                    // in cycles
  kServeShed,       // request shed by admission control (pid 0); arg0 =
                    // request id, arg1 = 0 queue-full / 1 deadline /
                    // 2 tenant-quota / 3 breaker-open / 4 degraded
  kServeRetry,      // failed request re-enqueued (pid 0); arg0 = request
                    // id, arg1 = backoff cycles until it is eligible
  kServeBreaker,    // tenant circuit-breaker transition (pid 0); arg0 =
                    // tenant, arg1 = new state (0 closed / 1 open /
                    // 2 half-open)
  kServeDegrade,    // overload-ladder transition (pid 0); arg0 = new
                    // level (0 normal / 1 shed-low-tier / 2 no-retry /
                    // 3 fast-fail), arg1 = queue-depth EWMA
  kEmbedCall,       // one host->guest embedded call (interval); arg0 =
                    // entry offset (low 32 bits), arg1 = embed::Err code
                    // of the outcome (0 = ok)
  kEmbedCallback,   // guest->host callback dispatched; arg0 = callback
                    // index, arg1 = nesting depth at dispatch
  kCount,
};

const char* EventKindName(EventKind k);

// One trace event, cycle-stamped from the simulated clock.
struct Event {
  uint64_t start = 0;  // simulated cycle of the event (or interval start)
  uint64_t end = 0;    // interval end; == start for instant events
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  int32_t pid = 0;
  EventKind kind = EventKind::kSchedSlice;
};

// Fixed-capacity flight recorder: keeps the most recent `capacity` events
// and counts how many were dropped. Iteration yields events oldest-first.
class EventRing {
 public:
  explicit EventRing(size_t capacity) : buf_(capacity) {}

  void Push(const Event& e) {
    if (buf_.empty()) {
      ++dropped_;
      return;
    }
    buf_[head_] = e;
    head_ = (head_ + 1) % buf_.size();
    if (size_ < buf_.size()) {
      ++size_;
    } else {
      ++dropped_;
    }
  }

  size_t size() const { return size_; }
  uint64_t dropped() const { return dropped_; }
  size_t capacity() const { return buf_.size(); }

  // k-th oldest retained event, k in [0, size()).
  const Event& at(size_t k) const {
    return buf_[(head_ + buf_.size() - size_ + k) % buf_.size()];
  }

 private:
  std::vector<Event> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
  uint64_t dropped_ = 0;
};

// Maps a runtime-call number to a display name; nullptr return falls back
// to "rtcall#N". Kept as a function pointer so this library stays below
// the runtime in the dependency order.
using SyscallNameFn = const char* (*)(int);

// The per-run sink: one Metrics block per sandbox plus the event ring.
// Attach to a Runtime with Runtime::set_trace_sink(); the bench harness
// attaches one the same way to decompose its cycle totals.
class TraceSink {
 public:
  explicit TraceSink(size_t ring_capacity = size_t{1} << 16)
      : ring_(ring_capacity) {}

  Metrics& metrics(int pid) { return metrics_[pid]; }
  const std::map<int, Metrics>& all_metrics() const { return metrics_; }
  const EventRing& ring() const { return ring_; }

  void Emit(EventKind kind, int pid, uint64_t start, uint64_t end,
            uint64_t arg0 = 0, uint64_t arg1 = 0) {
    ring_.Push({start, end, arg0, arg1, pid, kind});
  }
  void EmitInstant(EventKind kind, int pid, uint64_t cycles,
                   uint64_t arg0 = 0, uint64_t arg1 = 0) {
    Emit(kind, pid, cycles, cycles, arg0, arg1);
  }

  // Human-readable per-sandbox counter table (the `--stats` view).
  void WriteStats(std::ostream& os, SyscallNameFn syscall_name) const;

  // Chrome trace_event JSON (the `--trace` view): sched slices and
  // syscalls become complete ("X") events, the rest instants ("i").
  // Timestamps are simulated cycles scaled to microseconds at `ghz`;
  // output is byte-deterministic for a deterministic simulation.
  void WriteChromeTrace(std::ostream& os, double ghz,
                        SyscallNameFn syscall_name) const;

 private:
  std::map<int, Metrics> metrics_;  // ordered: deterministic export
  EventRing ring_;
};

}  // namespace lfi::trace

#endif  // LFI_TRACE_TRACE_H_
