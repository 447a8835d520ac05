// Sparse 48-bit virtual address space with per-page permissions.
//
// This is the hardware-protection substrate the LFI runtime relies on:
// text pages are mapped read+execute, data pages read+write, guard regions
// left unmapped (Section 3). Pages use copy-on-write sharing so that the
// runtime's single-address-space fork (Section 5.3) is cheap, mirroring the
// paper's memfd-based approach.
//
// Mutation generation: every operation that can change what an instruction
// fetch observes bumps a monotonically increasing counter -- mapping,
// unmapping, replacing or re-protecting an executable page (Map, Unmap,
// Protect, InstallPage, ShareRange, CloneInto), a page becoming
// executable, and any guest/host write that lands on an executable page.
// The same operations on non-executable pages over non-executable pages
// leave it alone, so restoring a sandbox's dirty data pages costs the
// decode cache nothing. The Machine keeps its PC-keyed lookup caches
// stamped with the generation and resets them on a change, so stale
// decoded code can never execute after a remap. Writes to non-executable
// pages stay free: the exec-page set below makes that test one branch.
#ifndef LFI_EMU_ADDRESS_SPACE_H_
#define LFI_EMU_ADDRESS_SPACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "support/result.h"

namespace lfi::emu {

// Page size: 16KiB, matching Apple ARM64 machines (the paper sizes its
// guard regions as multiples of 16KiB for this reason).
inline constexpr uint64_t kPageSize = 16384;
inline constexpr uint64_t kPageMask = kPageSize - 1;

// Page permission bits.
enum Perm : uint8_t {
  kPermNone = 0,
  kPermRead = 1,
  kPermWrite = 2,
  kPermExec = 4,
};

// Kinds of access, for permission checks and fault reporting.
enum class Access : uint8_t { kRead, kWrite, kExec };

// A memory fault: the access that failed and why.
struct MemFault {
  enum class Kind : uint8_t { kUnmapped, kPermission } kind;
  Access access = Access::kRead;
  uint64_t addr = 0;
};

// How Map treats pages that are already mapped in the requested range.
enum class MapMode : uint8_t {
  kNoReplace,  // error if any page of the range is already mapped
  kFixed,      // MAP_FIXED-style: silently replace existing pages
};

// One attempted guest data access. Recorded *before* the permission check,
// so a faulting attempt is visible too — essential for soundness fuzzing,
// where the question is which addresses sandboxed code can make the CPU
// emit, not which ones happen to be mapped in this emulator.
struct AccessRecord {
  uint64_t addr = 0;
  uint32_t size = 0;
  Access kind = Access::kRead;
};

// Fixed-size buffer of the data accesses attempted by the current
// instruction. Installed on an AddressSpace by Machine while an ExecHook
// is attached; cleared by the Machine before each instruction. Sized for
// the worst case (a pair access is two records; straddles stay one).
class AccessTrace {
 public:
  void Clear() { n_ = 0; }
  void Record(uint64_t addr, uint32_t size, Access kind) {
    if (n_ < recs_.size()) recs_[n_++] = {addr, size, kind};
  }
  std::span<const AccessRecord> records() const {
    return {recs_.data(), n_};
  }

 private:
  std::array<AccessRecord, 8> recs_{};
  size_t n_ = 0;
};

// Sparse paged memory. Copyable page contents are shared copy-on-write.
class AddressSpace {
 public:
  // One page's backing bytes. Exposed so snapshots can hold page payloads
  // by shared_ptr: while a snapshot owns a reference, the next guest/host
  // write to that page copies first (WritablePage's use_count test), so
  // snapshot contents are immutable without any copying at capture time.
  using PageData = std::array<uint8_t, kPageSize>;

  AddressSpace() = default;

  // Maps [addr, addr+len) with `perms`. Both must be page-aligned. Newly
  // mapped pages are zero-filled. By default overlapping an existing
  // mapping is an error; pass MapMode::kFixed to replace pages (the
  // replacement zero-fills, like mmap(MAP_FIXED) over old memory).
  Status Map(uint64_t addr, uint64_t len, uint8_t perms,
             MapMode mode = MapMode::kNoReplace);

  // Unmaps [addr, addr+len); unmapped holes are ignored.
  Status Unmap(uint64_t addr, uint64_t len);

  // Changes permissions on already-mapped pages. Fails without side
  // effects if any page of the range is unmapped.
  Status Protect(uint64_t addr, uint64_t len, uint8_t perms);

  // True if every page of [addr, addr+len) is mapped with all `perms` bits.
  // An empty range is vacuously true; a range wrapping 2^64 is false.
  bool Check(uint64_t addr, uint64_t len, uint8_t perms) const;

  // Guest accesses: permission-checked, may fault. Little-endian.
  Result<uint64_t> Read(uint64_t addr, unsigned size) const;
  Status Write(uint64_t addr, uint64_t value, unsigned size);
  // Fetches one 4-byte instruction word (requires exec permission).
  Result<uint32_t> Fetch(uint64_t addr) const;

  // The most recent fault from a failed Read/Write/Fetch.
  const MemFault& last_fault() const { return last_fault_; }

  // Host (trusted runtime) accesses: require the page to be mapped but
  // ignore permission bits, like the runtime writing a sandbox's read-only
  // call-table page at setup time.
  Status HostRead(uint64_t addr, std::span<uint8_t> out) const;
  Status HostWrite(uint64_t addr, std::span<const uint8_t> data);

  // Copies all mappings into `child` copy-on-write (both spaces then share
  // page contents until one writes). Used by fork.
  void CloneInto(AddressSpace* child) const;

  // Duplicates the pages in [src, src+len) at dst (copy-on-write), used to
  // place a forked child at a new sandbox base within the same space.
  Status ShareRange(uint64_t src, uint64_t dst, uint64_t len);

  // Snapshot support (src/snapshot/, docs/SNAPSHOTS.md). ExportPage hands
  // out shared ownership of the page's payload plus its perms (nullptr if
  // unmapped): a capture is one shared_ptr copy per page. The Machine's
  // decode cache pins the exec payloads it decoded the same way, which
  // keeps decoded bytes immutable. InstallPage maps `addr`'s page sharing
  // `data` copy-on-write (replacing any existing page); it bumps the
  // mutation generation when the old or the new page is executable.
  // PagePayload is the raw observer used for dirty detection and decode
  // lookup: a page is clean w.r.t. a snapshot iff its payload pointer and
  // perms still match the captured ones.
  std::shared_ptr<PageData> ExportPage(uint64_t addr, uint8_t* perms) const;
  Status InstallPage(uint64_t addr, std::shared_ptr<PageData> data,
                     uint8_t perms);
  const PageData* PagePayload(uint64_t addr, uint8_t* perms) const;

  // Number of mapped pages (for tests and accounting).
  size_t MappedPages() const { return pages_.size(); }

  // Monotonic counter of mutations that could change what an instruction
  // fetch observes (see the file comment). Consumers stamp their
  // address-keyed caches with this value and treat any change as "every
  // address may now map different code".
  uint64_t mutation_generation() const { return generation_; }

  // Monotonic counter of events that can invalidate a cached raw page
  // payload pointer: mapping/permission changes, payload replacement
  // (COW), and sharing-state changes (ExportPage/CloneInto make a cached
  // *writable* pointer unsafe, because the next write must copy first).
  // The Machine's data TLB revalidates against this on every access.
  // (In-place byte writes don't bump it: a cached pointer then still
  // observes the current bytes, which is exactly the slow path's view.)
  uint64_t payload_epoch() const { return payload_epoch_; }

  // Raw payload pointers for `pageno`, for the Machine's data TLB. ro is
  // non-null iff the page is mapped readable; rw is resolved (copying if
  // shared) only when want_write is set and the page is writable and
  // non-executable — exec-page stores must keep taking the slow path so
  // the mutation generation bumps. Pointers are valid until
  // payload_epoch() next changes.
  struct PageProbe {
    const uint8_t* ro = nullptr;
    uint8_t* rw = nullptr;
  };
  PageProbe ProbeDataPage(uint64_t pageno, bool want_write);

  // Attaches (or detaches, with nullptr) an access trace: every guest
  // Read/Write attempt is recorded into it before permission checking.
  // Host accesses and instruction fetches are not traced (fetch coverage
  // comes from the PC stream the Machine's ExecHook already sees).
  void set_access_trace(AccessTrace* trace) { trace_ = trace; }

 private:
  struct Page {
    std::shared_ptr<PageData> data;
    uint8_t perms = kPermNone;
  };

  const Page* FindPage(uint64_t addr) const;
  // Returns a writable pointer to the page's data, copying if shared (a
  // copy replaces the payload pointer, so it bumps payload_epoch_).
  uint8_t* WritablePage(Page* page);
  // Records pageno's executability as given by `perms`; returns true if
  // the page was executable before.
  bool NoteExec(uint64_t pageno, uint8_t perms);
  // True if a data write to a page with `perms` must bump the generation.
  bool WriteTouchesExec(uint8_t perms) const {
    return !exec_pages_.empty() && (perms & kPermExec) != 0;
  }

  mutable MemFault last_fault_;
  // Owned by the attaching Machine; the pointee is mutated from const
  // accessors (tracing is observation, not address-space state).
  AccessTrace* trace_ = nullptr;
  std::unordered_map<uint64_t, Page> pages_;  // keyed by addr / kPageSize
  // Page numbers currently mapped executable. Lets the write fast path
  // skip the generation bump entirely when no exec pages exist, and lets
  // Protect detect exec transitions.
  std::unordered_set<uint64_t> exec_pages_;
  uint64_t generation_ = 0;
  // See payload_epoch(). Mutable because const operations can change
  // sharing state (ExportPage, CloneInto's parent side): they don't alter
  // this space's contents, but they do invalidate cached rw pointers.
  mutable uint64_t payload_epoch_ = 0;
};

}  // namespace lfi::emu

#endif  // LFI_EMU_ADDRESS_SPACE_H_
