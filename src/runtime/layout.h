// Sandbox address-space layout (Figure 1).
//
// Each sandbox occupies a 4GiB-aligned 4GiB slot. Within a slot:
//
//   +0                : one 16KiB read-only page holding the runtime-call
//                       table (Section 4.4; readable by the neighbor, so
//                       it must hold no sandbox-specific secrets)
//   +16KiB .. +64KiB  : 48KiB guard region (unmapped)
//   +64KiB ..         : program text, rodata, data, bss, heap
//   .. kMmapTop       : mmap arena, grows down toward the heap
//   ..  4GiB-48KiB    : stack grows down from the top of this area
//   4GiB-48KiB .. 4GiB: 48KiB guard region (unmapped)
//
// Code must additionally stay out of the last 128MiB of the slot so that
// direct branches (reach: +-128MiB) cannot land in a neighbor's text.
//
// This header is the one definition of the slot geometry. It is
// header-only and includes nothing but <cstdint>, so the lower layers
// (verifier, rewriter, assembler, ELF writer, emulator, fuzz generator)
// include it without linking the runtime.
#ifndef LFI_RUNTIME_LAYOUT_H_
#define LFI_RUNTIME_LAYOUT_H_

#include <cstdint>

namespace lfi::runtime {

inline constexpr uint64_t kSlotSize = uint64_t{1} << 32;  // 4GiB
inline constexpr uint64_t kPage = 16384;
inline constexpr uint64_t kGuardSize = 48 * 1024;
// Bytes of the call table that code may load x30 from (512 entries); the
// verifier accepts `ldr x30, [x21, #n]` + `blr x30` only for n + 8 <= this.
inline constexpr uint64_t kCallTableBytes = 4096;
// Program content begins after the table page and leading guard region.
inline constexpr uint64_t kProgramStart = kPage + kGuardSize;  // 64KiB
// Last usable byte (exclusive): the trailing guard region.
inline constexpr uint64_t kProgramEnd = kSlotSize - kGuardSize;
// Executable code must end below this offset (128MiB direct-branch reach).
inline constexpr uint64_t kCodeEnd = kSlotSize - (uint64_t{128} << 20);
// Default stack size.
inline constexpr uint64_t kStackSize = uint64_t{1} << 20;  // 1MiB
// Where a fresh load starts the mmap cursor, 64MiB below the stack. The
// arena [cursor, kMmapTop) holds exactly what mmap has handed out, and
// munmap accepts nothing else.
inline constexpr uint64_t kMmapTop =
    kProgramEnd - kStackSize - (uint64_t{64} << 20);

// Sandboxes live in slots 1..kMaxSlots within the 48-bit address space;
// slot 0 is reserved for the runtime itself ("one sandbox region may need
// to be dedicated to the runtime").
inline constexpr uint64_t kMaxSlots = (uint64_t{1} << 16) - 1;  // 65535

// Base address of sandbox slot `idx` (1-based).
constexpr uint64_t SlotBase(uint64_t idx) { return idx * kSlotSize; }

// The runtime-entry region: addresses the call table points at. Lives in
// slot 0 (the runtime's own region) and is never mapped - the emulator
// traps the PC landing here and hands control to the runtime, modelling
// the hardware branching into runtime code. Placed *below* kProgramStart
// so that no sandbox-relative code offset, misinterpreted as an absolute
// address by unsandboxed baseline runs, can alias it.
inline constexpr uint64_t kRuntimeEntryBase = 0x8000;
inline constexpr uint64_t kRuntimeEntryGranule = 16;
// Where the call table's unused entries (Rtcall::kCount and up) point: an
// address in slot 0 that is never mapped, so a call through one of them
// faults on the fetch and reaches neither the runtime nor a neighbor.
inline constexpr uint64_t kCallTableTrap = 0x4000;

// Runtime call numbers (indices into the call table).
enum class Rtcall : int {
  kExit = 0,
  kWrite = 1,
  kRead = 2,
  kOpen = 3,
  kClose = 4,
  kBrk = 5,
  kMmap = 6,
  kMunmap = 7,
  kFork = 8,
  kWait = 9,
  kPipe = 10,
  kYield = 11,
  kGetpid = 12,
  kClock = 13,
  kYieldTo = 14,  // fast direct yield: microkernel-style IPC (Section 5.3)
  kLseek = 15,
  kSigaction = 16,  // register a fault-signal handler (supervisor.h)
  kSigreturn = 17,  // return from a delivered fault signal
  // Embedding transitions (src/embed/, docs/EMBEDDING.md). These numbers
  // are only meaningful while the host is driving an embedded call
  // (Runtime::RunEmbedded); a scheduled sandbox issuing one is killed.
  kHostcall = 18,    // guest -> host callback; x9 = callback index
  kCallRet = 19,     // guest function returned to the host; x9 = cookie
  kEmbedReady = 20,  // guest init done; x0 = export-table pointer
  kCount = 21,
};

// Display name for a runtime-call number ("write", "yield-to", ...);
// nullptr for numbers outside the table. Shape matches
// trace::SyscallNameFn so exporters can take it directly.
constexpr const char* RtcallName(int call) {
  switch (static_cast<Rtcall>(call)) {
    case Rtcall::kExit: return "exit";
    case Rtcall::kWrite: return "write";
    case Rtcall::kRead: return "read";
    case Rtcall::kOpen: return "open";
    case Rtcall::kClose: return "close";
    case Rtcall::kBrk: return "brk";
    case Rtcall::kMmap: return "mmap";
    case Rtcall::kMunmap: return "munmap";
    case Rtcall::kFork: return "fork";
    case Rtcall::kWait: return "wait";
    case Rtcall::kPipe: return "pipe";
    case Rtcall::kYield: return "yield";
    case Rtcall::kGetpid: return "getpid";
    case Rtcall::kClock: return "clock";
    case Rtcall::kYieldTo: return "yield-to";
    case Rtcall::kLseek: return "lseek";
    case Rtcall::kSigaction: return "sigaction";
    case Rtcall::kSigreturn: return "sigreturn";
    case Rtcall::kHostcall: return "hostcall";
    case Rtcall::kCallRet: return "call-ret";
    case Rtcall::kEmbedReady: return "embed-ready";
    case Rtcall::kCount: break;
  }
  return nullptr;
}

}  // namespace lfi::runtime

#endif  // LFI_RUNTIME_LAYOUT_H_
