#include "emu/address_space.h"

#include <cstring>

namespace lfi::emu {

namespace {
bool PageAligned(uint64_t v) { return (v & kPageMask) == 0; }
// True if [addr, addr+len) wraps past 2^64 (a wrapping range would alias
// low pages and defeat every downstream bounds check).
bool RangeWraps(uint64_t addr, uint64_t len) { return addr + len < addr; }
}  // namespace

bool AddressSpace::NoteExec(uint64_t pageno, uint8_t perms) {
  if (perms & kPermExec) return !exec_pages_.insert(pageno).second;
  return exec_pages_.erase(pageno) != 0;
}

Status AddressSpace::Map(uint64_t addr, uint64_t len, uint8_t perms,
                         MapMode mode) {
  if (!PageAligned(addr) || !PageAligned(len)) {
    return Status::Fail("map: unaligned range");
  }
  if (len == 0) return Status::Ok();
  if (RangeWraps(addr, len)) return Status::Fail("map: range wraps");
  if (mode == MapMode::kNoReplace) {
    for (uint64_t p = addr / kPageSize; p < (addr + len) / kPageSize; ++p) {
      if (pages_.count(p) != 0) {
        return Status::Fail("map: range overlaps an existing mapping");
      }
    }
  }
  bool exec_touched = (perms & kPermExec) != 0;
  for (uint64_t p = addr / kPageSize; p < (addr + len) / kPageSize; ++p) {
    Page page;
    page.data = std::make_shared<PageData>();
    page.data->fill(0);
    page.perms = perms;
    exec_touched = NoteExec(p, perms) || exec_touched;
    pages_[p] = std::move(page);
  }
  if (exec_touched) ++generation_;
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

Status AddressSpace::Protect(uint64_t addr, uint64_t len, uint8_t perms) {
  if (!PageAligned(addr) || !PageAligned(len)) {
    return Status::Fail("protect: unaligned range");
  }
  if (len == 0) return Status::Ok();
  if (RangeWraps(addr, len)) return Status::Fail("protect: range wraps");
  // Validate the whole range first so a failure leaves no partial change.
  for (uint64_t p = addr / kPageSize; p < (addr + len) / kPageSize; ++p) {
    if (pages_.count(p) == 0) return Status::Fail("protect: unmapped page");
  }
  bool exec_touched = (perms & kPermExec) != 0;
  for (uint64_t p = addr / kPageSize; p < (addr + len) / kPageSize; ++p) {
    pages_[p].perms = perms;
    exec_touched = NoteExec(p, perms) || exec_touched;
  }
  if (exec_touched) ++generation_;
  ++payload_epoch_;
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
  for (size_t k = 0; k < out.size(); ++k) {
    const Page* page = FindPage(addr + k);
    if (page == nullptr) return Status::Fail("host read: unmapped");
    out[k] = (*page->data)[(addr + k) & kPageMask];
  }
  return Status::Ok();
}

Status AddressSpace::HostWrite(uint64_t addr, std::span<const uint8_t> data) {
  bool exec_touched = false;
  for (size_t k = 0; k < data.size(); ++k) {
    auto it = pages_.find((addr + k) / kPageSize);
    if (it == pages_.end()) return Status::Fail("host write: unmapped");
    exec_touched = exec_touched || WriteTouchesExec(it->second.perms);
    WritablePage(&it->second)[(addr + k) & kPageMask] = data[k];
  }
  if (exec_touched) ++generation_;
  return Status::Ok();
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

void AddressSpace::CloneInto(AddressSpace* child) const {
  child->pages_ = pages_;  // shared_ptr copy: COW
  child->exec_pages_ = exec_pages_;
  ++child->generation_;
  ++child->payload_epoch_;
  // The parent's payloads are now shared too: its next write must copy,
  // so its cached writable pointers are stale as well.
  ++payload_epoch_;
}

Status AddressSpace::ShareRange(uint64_t src, uint64_t dst, uint64_t len) {
  if (!PageAligned(src) || !PageAligned(dst) || !PageAligned(len)) {
    return Status::Fail("share: unaligned range");
  }
  if (len == 0) return Status::Ok();
  if (RangeWraps(src, len) || RangeWraps(dst, len)) {
    return Status::Fail("share: range wraps");
  }
  bool exec_touched = false;
  for (uint64_t off = 0; off < len; off += kPageSize) {
    auto it = pages_.find((src + off) / kPageSize);
    if (it == pages_.end()) continue;  // holes stay holes
    const uint64_t dpage = (dst + off) / kPageSize;
    // Copy out first: pages_[dpage] may rehash and invalidate `it`.
    Page src_page = it->second;
    exec_touched = NoteExec(dpage, src_page.perms) ||
                   (src_page.perms & kPermExec) != 0 || exec_touched;
    pages_[dpage] = std::move(src_page);
  }
  if (exec_touched) ++generation_;
  ++payload_epoch_;
  return Status::Ok();
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
