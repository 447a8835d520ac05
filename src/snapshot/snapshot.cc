#include "snapshot/snapshot.h"

#include <cstring>
#include <fstream>

namespace lfi::snapshot {

namespace {

constexpr char kMagic[8] = {'L', 'F', 'I', 'S', 'N', 'A', 'P', '\0'};

uint64_t Fnv1a(std::span<const uint8_t> bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Little-endian byte-stream writer.
class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(v); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I32(int32_t v) { Raw(&v, 4); }
  void Bytes(std::span<const uint8_t> b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
  void Sized(std::span<const uint8_t> b) {
    U32(static_cast<uint32_t>(b.size()));
    Bytes(b);
  }
  // Makes room for `n` more bytes.
  void Reserve(size_t n) { out_.reserve(out_.size() + n); }
  std::span<const uint8_t> Written() const { return out_; }
  std::vector<uint8_t> Take() && { return std::move(out_); }

 private:
  void Raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  std::vector<uint8_t> out_;
};

// Bounds-checked reader; every accessor fails soft on truncation.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> b) : b_(b) {}

  bool U8(uint8_t* v) { return Raw(v, 1); }
  bool U32(uint32_t* v) { return Raw(v, 4); }
  bool U64(uint64_t* v) { return Raw(v, 8); }
  bool I32(int32_t* v) { return Raw(v, 4); }
  bool Bytes(void* out, size_t n) { return Raw(out, n); }
  bool Sized(std::vector<uint8_t>* out) {
    uint32_t n = 0;
    if (!U32(&n) || n > Remaining()) return false;
    out->assign(b_.begin() + static_cast<ptrdiff_t>(pos_),
                b_.begin() + static_cast<ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
  }
  size_t Remaining() const { return b_.size() - pos_; }
  size_t pos() const { return pos_; }

 private:
  bool Raw(void* out, size_t n) {
    if (Remaining() < n) return false;
    std::memcpy(out, b_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  std::span<const uint8_t> b_;
  size_t pos_ = 0;
};

void PutCpu(Writer* w, const emu::CpuState& c) {
  for (uint64_t x : c.x) w->U64(x);
  w->U64(c.sp);
  w->U64(c.pc);
  const uint32_t nzcv = (uint32_t{c.n} << 3) | (uint32_t{c.z} << 2) |
                        (uint32_t{c.c} << 1) | uint32_t{c.v};
  w->U32(nzcv);
  for (const auto& v : c.vr) {
    w->U64(v.lo);
    w->U64(v.hi);
  }
  w->U8(c.excl_valid ? 1 : 0);
  w->U64(c.excl_addr);
}

bool GetCpu(Reader* r, emu::CpuState* c) {
  for (auto& x : c->x) {
    if (!r->U64(&x)) return false;
  }
  uint32_t nzcv = 0;
  if (!r->U64(&c->sp) || !r->U64(&c->pc) || !r->U32(&nzcv)) return false;
  c->n = (nzcv >> 3) & 1;
  c->z = (nzcv >> 2) & 1;
  c->c = (nzcv >> 1) & 1;
  c->v = nzcv & 1;
  for (auto& v : c->vr) {
    if (!r->U64(&v.lo) || !r->U64(&v.hi)) return false;
  }
  uint8_t excl = 0;
  if (!r->U8(&excl) || !r->U64(&c->excl_addr)) return false;
  c->excl_valid = excl != 0;
  return true;
}

// The first byte is zero and every byte equals its successor.
bool IsZeroPage(const emu::AddressSpace::PageData& d) {
  return d[0] == 0 && std::memcmp(d.data(), d.data() + 1, d.size() - 1) == 0;
}

// The smallest encodings of a page, mapping and fd record. A count read
// from the input that claims more records than the remaining bytes could
// hold marks a truncated (or hostile) file.
constexpr size_t kPageRecMin = 8 + 1 + 1;
constexpr size_t kMappingRec = 8 + 8 + 1;
constexpr size_t kFdRecMin = 1 + 4 + 8 + 4 + 8 + 4;

}  // namespace

std::vector<uint8_t> Serialize(const Snapshot& snap) {
  Writer w;
  w.Bytes({reinterpret_cast<const uint8_t*>(kMagic), 8});
  w.U32(kFormatVersion);
  w.U64(emu::kPageSize);
  PutCpu(&w, snap.cpu);
  w.U64(snap.brk_start);
  w.U64(snap.brk);
  w.U64(snap.brk_mapped);
  w.U64(snap.mmap_cursor);
  w.U64(snap.mmap_bytes);
  for (uint64_t h : snap.sig_handlers) w.U64(h);
  w.U8(snap.sig_in_handler ? 1 : 0);
  w.U64(snap.sig_cookie);
  w.U64(snap.sig_frame_addr);
  w.U32(snap.sig_delivered);
  w.U32(static_cast<uint32_t>(snap.mappings.size()));
  for (const auto& [off, range] : snap.mappings) {
    w.U64(off);
    w.U64(range.first);
    w.U8(range.second);
  }
  // kind 0 = all-zero page (payload elided; Deserialize installs the
  // shared zero page), 1 = raw payload follows.
  std::vector<uint8_t> zero(snap.pages.size());
  size_t rest = 4 + 4 + 8;  // page count, fd count, checksum
  for (size_t k = 0; k < snap.pages.size(); ++k) {
    const auto& d = snap.pages[k].data;
    zero[k] = d == nullptr || d == emu::AddressSpace::ZeroPage() ||
              IsZeroPage(*d);
    rest += kPageRecMin + (zero[k] ? 0 : d->size());
  }
  for (const auto& f : snap.fds) {
    rest += kFdRecMin + f.path.size() + f.pipe_buf.size();
  }
  w.Reserve(rest);
  w.U32(static_cast<uint32_t>(snap.pages.size()));
  for (size_t k = 0; k < snap.pages.size(); ++k) {
    const PageRec& p = snap.pages[k];
    w.U64(p.offset);
    w.U8(p.perms);
    w.U8(zero[k] ? 0 : 1);
    if (!zero[k]) w.Bytes({p.data->data(), p.data->size()});
  }
  w.U32(static_cast<uint32_t>(snap.fds.size()));
  for (const auto& f : snap.fds) {
    w.U8(static_cast<uint8_t>(f.kind));
    w.I32(f.flags);
    w.U64(f.offset);
    w.Sized({reinterpret_cast<const uint8_t*>(f.path.data()), f.path.size()});
    w.U64(f.pipe_id);
    w.Sized({f.pipe_buf.data(), f.pipe_buf.size()});
  }
  w.U64(Fnv1a(w.Written()));
  return std::move(w).Take();
}

Result<Snapshot> Deserialize(std::span<const uint8_t> bytes) {
  static constexpr const char* kTrunc =
      "snapshot: truncated (file shorter than its contents claim)";
  if (bytes.size() < 8 + 4 + 8 + 8) return Error{kTrunc};
  if (std::memcmp(bytes.data(), kMagic, 8) != 0) {
    return Error{"snapshot: bad magic (not an LFI snapshot file)"};
  }
  // The checksum trailer covers everything before it; verify first so
  // every later parse error means truncation, not corruption.
  uint64_t claimed = 0;
  std::memcpy(&claimed, bytes.data() + bytes.size() - 8, 8);
  if (Fnv1a(bytes.subspan(0, bytes.size() - 8)) != claimed) {
    return Error{"snapshot: checksum mismatch (file corrupted)"};
  }
  Reader r(bytes.subspan(0, bytes.size() - 8));
  uint8_t magic[8];
  (void)r.Bytes(magic, 8);
  uint32_t version = 0;
  if (!r.U32(&version)) return Error{kTrunc};
  if (version != kFormatVersion) {
    return Error{"snapshot: unsupported version " + std::to_string(version) +
                 " (expected " + std::to_string(kFormatVersion) + ")"};
  }
  uint64_t page_size = 0;
  if (!r.U64(&page_size)) return Error{kTrunc};
  if (page_size != emu::kPageSize) {
    return Error{"snapshot: page size " + std::to_string(page_size) +
                 " does not match this build's " +
                 std::to_string(emu::kPageSize)};
  }

  Snapshot snap;
  if (!GetCpu(&r, &snap.cpu)) return Error{kTrunc};
  if (!r.U64(&snap.brk_start) || !r.U64(&snap.brk) ||
      !r.U64(&snap.brk_mapped) || !r.U64(&snap.mmap_cursor) ||
      !r.U64(&snap.mmap_bytes)) {
    return Error{kTrunc};
  }
  for (auto& h : snap.sig_handlers) {
    if (!r.U64(&h)) return Error{kTrunc};
  }
  uint8_t in_handler = 0;
  if (!r.U8(&in_handler) || !r.U64(&snap.sig_cookie) ||
      !r.U64(&snap.sig_frame_addr) || !r.U32(&snap.sig_delivered)) {
    return Error{kTrunc};
  }
  snap.sig_in_handler = in_handler != 0;

  uint32_t n_mappings = 0;
  if (!r.U32(&n_mappings) || n_mappings > r.Remaining() / kMappingRec) {
    return Error{kTrunc};
  }
  for (uint32_t k = 0; k < n_mappings; ++k) {
    uint64_t off = 0, len = 0;
    uint8_t perms = 0;
    if (!r.U64(&off) || !r.U64(&len) || !r.U8(&perms)) return Error{kTrunc};
    snap.mappings[off] = {len, perms};
  }

  uint32_t n_pages = 0;
  if (!r.U32(&n_pages) || n_pages > r.Remaining() / kPageRecMin) {
    return Error{kTrunc};
  }
  snap.pages.reserve(n_pages);
  for (uint32_t k = 0; k < n_pages; ++k) {
    PageRec rec;
    uint8_t kind = 0;
    if (!r.U64(&rec.offset) || !r.U8(&rec.perms) || !r.U8(&kind)) {
      return Error{kTrunc};
    }
    if (kind == 0) {
      rec.data = emu::AddressSpace::ZeroPage();
    } else if (kind == 1) {
      rec.data =
          std::make_shared_for_overwrite<emu::AddressSpace::PageData>();
      if (!r.Bytes(rec.data->data(), rec.data->size())) return Error{kTrunc};
    } else {
      return Error{"snapshot: unknown page record kind " +
                   std::to_string(kind)};
    }
    snap.pages.push_back(std::move(rec));
  }

  uint32_t n_fds = 0;
  if (!r.U32(&n_fds) || n_fds > r.Remaining() / kFdRecMin) {
    return Error{kTrunc};
  }
  for (uint32_t k = 0; k < n_fds; ++k) {
    FdRec f;
    uint8_t kind = 0;
    std::vector<uint8_t> path;
    if (!r.U8(&kind) || !r.I32(&f.flags) || !r.U64(&f.offset) ||
        !r.Sized(&path) || !r.U64(&f.pipe_id) || !r.Sized(&f.pipe_buf)) {
      return Error{kTrunc};
    }
    if (kind > static_cast<uint8_t>(FdRec::Kind::kPipeWrite)) {
      return Error{"snapshot: unknown fd kind " + std::to_string(kind)};
    }
    f.kind = static_cast<FdRec::Kind>(kind);
    f.path.assign(path.begin(), path.end());
    snap.fds.push_back(std::move(f));
  }
  if (r.Remaining() != 0) {
    return Error{"snapshot: trailing bytes after the fd table"};
  }
  return snap;
}

Status WriteFile(const Snapshot& snap, const std::string& path) {
  const std::vector<uint8_t> bytes = Serialize(snap);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::Fail("snapshot: cannot open " + path + " for write");
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) return Status::Fail("snapshot: short write to " + path);
  return Status::Ok();
}

Result<Snapshot> ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Error{"snapshot: cannot open " + path};
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
  return Deserialize({bytes.data(), bytes.size()});
}

}  // namespace lfi::snapshot
