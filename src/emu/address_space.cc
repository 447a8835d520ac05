#include "emu/address_space.h"

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

#include <algorithm>
#include <cstring>

namespace lfi::emu {

namespace {
bool PageAligned(uint64_t v) { return (v & kPageMask) == 0; }
// True if [addr, addr+len) wraps past 2^64 (a wrapping range would alias
// low pages and defeat every downstream bounds check).
bool RangeWraps(uint64_t addr, uint64_t len) { return addr + len < addr; }
// Bytes from addr to the end of its page.
uint64_t PageRest(uint64_t addr) { return kPageSize - (addr & kPageMask); }
}  // namespace

const std::shared_ptr<AddressSpace::PageData>& AddressSpace::ZeroPage() {
  // Never destroyed, so the count stays above 1 through static
  // destruction too; the deleter is a no-op because nothing owns the
  // bytes.
  static const auto* const zero = [] {
    PageData* bytes = nullptr;
#if __has_include(<sys/mman.h>)
    void* m = mmap(nullptr, sizeof(PageData), PROT_READ,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m != MAP_FAILED) bytes = static_cast<PageData*>(m);
#endif
    if (bytes == nullptr) {
      static const PageData fallback{};
      bytes = const_cast<PageData*>(&fallback);
    }
    return new std::shared_ptr<PageData>(bytes, [](PageData*) {});
  }();
  return *zero;
}

bool AddressSpace::NoteExec(uint64_t pageno, uint8_t perms) {
  if (perms & kPermExec) return !exec_pages_.insert(pageno).second;
  return exec_pages_.erase(pageno) != 0;
}

Status AddressSpace::Map(uint64_t addr, uint64_t len, uint8_t perms) {
  if (!PageAligned(addr) || !PageAligned(len)) {
    return Status::Fail("map: unaligned range");
  }
  if (len == 0) return Status::Ok();
  if (RangeWraps(addr, len)) return Status::Fail("map: range wraps");
  for (uint64_t p = addr / kPageSize; p < (addr + len) / kPageSize; ++p) {
    if (pages_.count(p) != 0) {
      return Status::Fail("map: range overlaps an existing mapping");
    }
  }
  for (uint64_t p = addr / kPageSize; p < (addr + len) / kPageSize; ++p) {
    NoteExec(p, perms);
    pages_[p] = Page{ZeroPage(), perms};
  }
  if ((perms & kPermExec) != 0) ++generation_;
  ++payload_epoch_;
  return Status::Ok();
}

Status AddressSpace::Unmap(uint64_t addr, uint64_t len) {
  if (!PageAligned(addr) || !PageAligned(len)) {
    return Status::Fail("unmap: unaligned range");
  }
  if (len == 0) return Status::Ok();
  if (RangeWraps(addr, len)) return Status::Fail("unmap: range wraps");
  size_t erased = 0;
  bool exec_touched = false;
  for (uint64_t p = addr / kPageSize; p < (addr + len) / kPageSize; ++p) {
    erased += pages_.erase(p);
    exec_touched = exec_pages_.erase(p) != 0 || exec_touched;
  }
  if (exec_touched) ++generation_;
  if (erased != 0) ++payload_epoch_;
  return Status::Ok();
}

bool AddressSpace::Check(uint64_t addr, uint64_t len, uint8_t perms) const {
  if (len == 0) return true;
  if (RangeWraps(addr, len)) return false;
  for (uint64_t p = addr / kPageSize; p <= (addr + len - 1) / kPageSize;
       ++p) {
    auto it = pages_.find(p);
    if (it == pages_.end() || (it->second.perms & perms) != perms) {
      return false;
    }
  }
  return true;
}

const AddressSpace::Page* AddressSpace::FindPage(uint64_t addr) const {
  auto it = pages_.find(addr / kPageSize);
  return it == pages_.end() ? nullptr : &it->second;
}

uint8_t* AddressSpace::WritablePage(Page* page) {
  if (page->data.use_count() > 1) {
    page->data = std::make_shared<PageData>(*page->data);
    // The payload pointer just changed; cached pointers to the old
    // (shared) payload must not satisfy further accesses.
    ++payload_epoch_;
  }
  return page->data->data();
}

Result<uint64_t> AddressSpace::Read(uint64_t addr, unsigned size) const {
  if (trace_ != nullptr) trace_->Record(addr, size, Access::kRead);
  // Fast path: access within a single page.
  if (((addr ^ (addr + size - 1)) & ~kPageMask) == 0) {
    const Page* page = FindPage(addr);
    if (page == nullptr) {
      last_fault_ = {MemFault::Kind::kUnmapped, Access::kRead, addr};
      return Error{"read fault"};
    }
    if (!(page->perms & kPermRead)) {
      last_fault_ = {MemFault::Kind::kPermission, Access::kRead, addr};
      return Error{"read fault"};
    }
    uint64_t value = 0;
    std::memcpy(&value, page->data->data() + (addr & kPageMask),
                size <= 8 ? size : 8);
    if (size < 8) value &= (uint64_t{1} << (8 * size)) - 1;
    return value;
  }
  // Slow path: the access straddles a page boundary.
  uint64_t value = 0;
  for (unsigned k = 0; k < size && k < 8; ++k) {
    const uint64_t a = addr + k;
    const Page* page = FindPage(a);
    if (page == nullptr) {
      last_fault_ = {MemFault::Kind::kUnmapped, Access::kRead, a};
      return Error{"read fault"};
    }
    if (!(page->perms & kPermRead)) {
      last_fault_ = {MemFault::Kind::kPermission, Access::kRead, a};
      return Error{"read fault"};
    }
    value |= uint64_t{(*page->data)[a & kPageMask]} << (8 * k);
  }
  return value;
}

Status AddressSpace::Write(uint64_t addr, uint64_t value, unsigned size) {
  if (trace_ != nullptr) trace_->Record(addr, size, Access::kWrite);
  // Fast path: access within a single page.
  if (((addr ^ (addr + size - 1)) & ~kPageMask) == 0) {
    auto it = pages_.find(addr / kPageSize);
    if (it == pages_.end()) {
      last_fault_ = {MemFault::Kind::kUnmapped, Access::kWrite, addr};
      return Status::Fail("write fault");
    }
    if (!(it->second.perms & kPermWrite)) {
      last_fault_ = {MemFault::Kind::kPermission, Access::kWrite, addr};
      return Status::Fail("write fault");
    }
    if (WriteTouchesExec(it->second.perms)) ++generation_;
    std::memcpy(WritablePage(&it->second) + (addr & kPageMask), &value,
                size <= 8 ? size : 8);
    return Status::Ok();
  }
  // Check permissions on all touched pages before modifying anything.
  bool exec_touched = false;
  for (unsigned k = 0; k < size; ++k) {
    const uint64_t a = addr + k;
    const Page* page = FindPage(a);
    if (page == nullptr) {
      last_fault_ = {MemFault::Kind::kUnmapped, Access::kWrite, a};
      return Status::Fail("write fault");
    }
    if (!(page->perms & kPermWrite)) {
      last_fault_ = {MemFault::Kind::kPermission, Access::kWrite, a};
      return Status::Fail("write fault");
    }
    exec_touched = exec_touched || WriteTouchesExec(page->perms);
  }
  if (exec_touched) ++generation_;
  for (unsigned k = 0; k < size; ++k) {
    const uint64_t a = addr + k;
    Page* page = &pages_[a / kPageSize];
    WritablePage(page)[a & kPageMask] =
        static_cast<uint8_t>(value >> (8 * k));
  }
  return Status::Ok();
}

Result<uint32_t> AddressSpace::Fetch(uint64_t addr) const {
  const Page* page = FindPage(addr);
  if (page == nullptr) {
    last_fault_ = {MemFault::Kind::kUnmapped, Access::kExec, addr};
    return Error{"fetch fault"};
  }
  if (!(page->perms & kPermExec)) {
    last_fault_ = {MemFault::Kind::kPermission, Access::kExec, addr};
    return Error{"fetch fault"};
  }
  // Instructions are 4-aligned, so they never straddle pages.
  const uint64_t off = addr & kPageMask;
  const uint8_t* d = page->data->data();
  return uint32_t{d[off]} | (uint32_t{d[off + 1]} << 8) |
         (uint32_t{d[off + 2]} << 16) | (uint32_t{d[off + 3]} << 24);
}

Status AddressSpace::HostRead(uint64_t addr, std::span<uint8_t> out) const {
  for (size_t k = 0; k < out.size();) {
    const uint64_t a = addr + k;
    const size_t n = std::min<uint64_t>(out.size() - k, PageRest(a));
    const Page* page = FindPage(a);
    if (page == nullptr) return Status::Fail("host read: unmapped");
    std::memcpy(out.data() + k, page->data->data() + (a & kPageMask), n);
    k += n;
  }
  return Status::Ok();
}

Status AddressSpace::HostWrite(uint64_t addr, std::span<const uint8_t> data) {
  Status st = Status::Ok();
  bool exec_touched = false;
  for (size_t k = 0; k < data.size();) {
    const uint64_t a = addr + k;
    const size_t n = std::min<uint64_t>(data.size() - k, PageRest(a));
    auto it = pages_.find(a / kPageSize);
    if (it == pages_.end()) {
      st = Status::Fail("host write: unmapped");
      break;
    }
    exec_touched = exec_touched || WriteTouchesExec(it->second.perms);
    std::memcpy(WritablePage(&it->second) + (a & kPageMask), data.data() + k,
                n);
    k += n;
  }
  // Pages written before a failure keep their new bytes, so an exec page
  // among them still invalidates decoded code.
  if (exec_touched) ++generation_;
  return st;
}

void AddressSpace::HostZero(uint64_t addr, uint64_t len) {
  if (len == 0 || RangeWraps(addr, len)) return;
  bool exec_touched = false, replaced = false;
  for (uint64_t a = addr, end = addr + len; a < end;) {
    const uint64_t n = std::min(end - a, PageRest(a));
    auto it = pages_.find(a / kPageSize);
    if (it != pages_.end() && it->second.data != ZeroPage()) {
      Page& page = it->second;
      exec_touched = exec_touched || WriteTouchesExec(page.perms);
      if (n == kPageSize) {
        page.data = ZeroPage();
        replaced = true;
      } else {
        std::memset(WritablePage(&page) + (a & kPageMask), 0, n);
      }
    }
    a += n;
  }
  if (exec_touched) ++generation_;
  if (replaced) ++payload_epoch_;
}

std::shared_ptr<AddressSpace::PageData> AddressSpace::ExportPage(
    uint64_t addr, uint8_t* perms) const {
  const Page* page = FindPage(addr);
  if (page == nullptr) return nullptr;
  if (perms != nullptr) *perms = page->perms;
  // The caller now shares the payload: the next write to this page must
  // copy first, so any cached writable pointer to it goes stale here.
  ++payload_epoch_;
  return page->data;
}

Status AddressSpace::InstallPage(uint64_t addr,
                                 std::shared_ptr<PageData> data,
                                 uint8_t perms) {
  if (!PageAligned(addr)) return Status::Fail("install: unaligned page");
  if (data == nullptr) return Status::Fail("install: null payload");
  const uint64_t pageno = addr / kPageSize;
  if (NoteExec(pageno, perms) || (perms & kPermExec) != 0) ++generation_;
  pages_[pageno] = Page{std::move(data), perms};
  ++payload_epoch_;
  return Status::Ok();
}

const AddressSpace::PageData* AddressSpace::PagePayload(
    uint64_t addr, uint8_t* perms) const {
  const Page* page = FindPage(addr);
  if (page == nullptr) return nullptr;
  if (perms != nullptr) *perms = page->perms;
  return page->data.get();
}

AddressSpace::PageProbe AddressSpace::ProbeDataPage(uint64_t pageno,
                                                    bool want_write) {
  auto it = pages_.find(pageno);
  if (it == pages_.end()) return {};
  Page& page = it->second;
  PageProbe pr;
  if (want_write && (page.perms & kPermWrite) != 0 &&
      (page.perms & kPermExec) == 0) {
    // Resolve rw first: a COW here replaces the payload, and ro must
    // point at the fresh copy.
    pr.rw = WritablePage(&page);
  }
  if ((page.perms & kPermRead) != 0) pr.ro = page.data->data();
  return pr;
}

}  // namespace lfi::emu
