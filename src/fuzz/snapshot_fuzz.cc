// The snapshot half of `lfi-fuzz --mode=snapshot`: mutated snapshot files
// through snapshot::Deserialize (docs/FUZZING.md section 6).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <span>

#include "elf/build.h"
#include "elf/elf.h"
#include "fuzz/fuzz.h"
#include "fuzz/gen.h"
#include "runtime/runtime.h"
#include "snapshot/snapshot.h"

namespace lfi::fuzz {
namespace {

using snapshot::Snapshot;

// The format's checksum (snapshot.h): FNV-1a over everything before the
// 8-byte trailer.
void Reseal(std::vector<uint8_t>* b) {
  if (b->size() < 8) return;
  const size_t n = b->size() - 8;
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t k = 0; k < n; ++k) {
    h ^= (*b)[k];
    h *= 0x100000001b3ull;
  }
  std::memcpy(b->data() + n, &h, 8);
}

uint32_t GetU32(const std::vector<uint8_t>& b, size_t at) {
  uint32_t v = 0;
  std::memcpy(&v, b.data() + at, 4);
  return v;
}

void PutU32(std::vector<uint8_t>* b, size_t at, uint32_t v) {
  std::memcpy(b->data() + at, &v, 4);
}

// Where the fields a mutation aims at sit in one serialized snapshot.
struct Layout {
  std::vector<size_t> counts;   // u32 record counts: mappings, pages, fds
  std::vector<size_t> lengths;  // u32 byte lengths: fd path, pipe buffer
  std::vector<size_t> kinds;    // u8 kind bytes: pages, fds
};

Layout Locate(const std::vector<uint8_t>& b) {
  // Everything before the mapping count has a fixed size: an empty
  // snapshot is that prefix, three zero counts and the checksum.
  static const size_t kPrefix = snapshot::Serialize(Snapshot{}).size() - 20;
  Layout l;
  size_t pos = kPrefix;
  l.counts.push_back(pos);
  pos += 4 + size_t{GetU32(b, pos)} * (8 + 8 + 1);
  l.counts.push_back(pos);
  const uint32_t pages = GetU32(b, pos);
  pos += 4;
  for (uint32_t k = 0; k < pages; ++k) {
    pos += 8 + 1;
    l.kinds.push_back(pos);
    pos += 1 + (b[pos] == 1 ? emu::kPageSize : 0);
  }
  l.counts.push_back(pos);
  const uint32_t fds = GetU32(b, pos);
  pos += 4;
  for (uint32_t k = 0; k < fds; ++k) {
    l.kinds.push_back(pos);
    pos += 1 + 4 + 8;
    l.lengths.push_back(pos);
    pos += 4 + GetU32(b, pos) + 8;
    l.lengths.push_back(pos);
    pos += 4 + GetU32(b, pos);
  }
  return l;
}

// Serialized snapshots of the seed programs, loaded but not run, plus one
// of them carrying every optional field (signal state, a file, a pipe
// with buffered bytes) so the fd records are exercised too.
std::vector<std::vector<uint8_t>> SeedSnapshots() {
  std::vector<std::vector<uint8_t>> out;
  runtime::Runtime rt{runtime::RuntimeConfig{}};
  for (const std::string& src : SeedCorpusAsm()) {
    auto built = elf::Build(src);
    if (!built) continue;
    auto parsed = elf::Read(built->bytes);
    if (!parsed) continue;
    auto pid = rt.LoadImage(*parsed);
    if (!pid) continue;
    auto snap = rt.CaptureSnapshot(*pid);
    (void)rt.Kill(*pid, "captured");
    if (!snap) continue;
    out.push_back(snapshot::Serialize(*snap));
    if (out.size() == 1) {
      Snapshot rich = *std::move(snap);
      rich.sig_handlers[10] = 0x20040;
      rich.sig_in_handler = true;
      rich.sig_cookie = 0x5eed;
      rich.sig_delivered = 3;
      snapshot::FdRec file_fd;
      file_fd.kind = snapshot::FdRec::Kind::kFile;
      file_fd.flags = 2;
      file_fd.offset = 17;
      file_fd.path = "/data/input.txt";
      snapshot::FdRec rd, wr;
      rd.kind = snapshot::FdRec::Kind::kPipeRead;
      wr.kind = snapshot::FdRec::Kind::kPipeWrite;
      rd.pipe_id = wr.pipe_id = 1;
      rd.pipe_buf = {'h', 'e', 'l', 'l', 'o'};
      rich.fds.push_back(file_fd);
      rich.fds.push_back(rd);
      rich.fds.push_back(wr);
      out.push_back(snapshot::Serialize(rich));
    }
  }
  return out;
}

// Applies 1-3 mutations to `b` and reseals it (usually); returns what was
// done, for the crash artifact.
std::string MutateSnapshot(Rng& rng, std::vector<uint8_t>* b) {
  const Layout l = Locate(*b);
  std::string log;
  auto note = [&](const char* what, size_t at, uint64_t v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%s@%zu=0x%llx", log.empty() ? "" : " ",
                  what, at, static_cast<unsigned long long>(v));
    log += buf;
  };
  const uint64_t ops = rng.Range(1, 3);
  for (uint64_t op = 0; op < ops && b->size() > 8; ++op) {
    const size_t body = b->size() - 8;  // the checksum trailer is resealed
    switch (rng.Below(6)) {
      case 0: {  // bit flip anywhere
        const size_t at = rng.Below(body);
        const uint8_t bit = static_cast<uint8_t>(1u << rng.Below(8));
        (*b)[at] ^= bit;
        note("flip", at, bit);
        break;
      }
      case 1: {  // record count
        const size_t at = l.counts[rng.Below(l.counts.size())];
        if (at + 4 > body) break;
        const uint32_t old = GetU32(*b, at);
        const uint32_t vals[] = {0,          1,          old - 1,
                                 old + 1,    old * 2 + 1, 0x7fffffff,
                                 0xffffffff, static_cast<uint32_t>(rng.Next())};
        const uint32_t v = rng.Pick(vals);
        PutU32(b, at, v);
        note("count", at, v);
        break;
      }
      case 2: {  // page or fd kind byte
        if (l.kinds.empty()) break;
        const size_t at = l.kinds[rng.Below(l.kinds.size())];
        if (at >= body) break;
        const uint8_t vals[] = {0, 1, 2, 6, 7, 0xff};
        (*b)[at] = rng.Pick(vals);
        note("kind", at, (*b)[at]);
        break;
      }
      case 3: {  // fd path or pipe buffer length
        if (l.lengths.empty()) break;
        const size_t at = l.lengths[rng.Below(l.lengths.size())];
        if (at + 4 > body) break;
        const uint32_t old = GetU32(*b, at);
        const uint32_t vals[] = {0, old + 1, old + 8, 0xffffffff,
                                 static_cast<uint32_t>(rng.Next())};
        const uint32_t v = rng.Pick(vals);
        PutU32(b, at, v);
        note("length", at, v);
        break;
      }
      case 4: {  // truncation
        const size_t at = rng.Below(b->size());
        b->resize(at);
        note("truncate", at, 0);
        break;
      }
      default: {  // insert or delete a few bytes mid-file
        const size_t at = rng.Below(body);
        const size_t n = rng.Range(1, 16);
        if (rng.Chance(50)) {
          b->insert(b->begin() + static_cast<ptrdiff_t>(at), n,
                    static_cast<uint8_t>(rng.Next()));
          note("insert", at, n);
        } else {
          b->erase(b->begin() + static_cast<ptrdiff_t>(at),
                   b->begin() + static_cast<ptrdiff_t>(std::min(at + n, body)));
          note("erase", at, n);
        }
        break;
      }
    }
  }
  if (rng.Chance(95)) {
    Reseal(b);
  } else {
    log += " (not resealed)";
  }
  return log;
}

// First field where two snapshots differ, or "".
std::string SnapshotDiff(const Snapshot& a, const Snapshot& b) {
  if (!(a.cpu == b.cpu)) return "cpu state";
  if (a.brk_start != b.brk_start || a.brk != b.brk ||
      a.brk_mapped != b.brk_mapped || a.mmap_cursor != b.mmap_cursor ||
      a.mmap_bytes != b.mmap_bytes) {
    return "brk/mmap cursors";
  }
  if (a.sig_handlers != b.sig_handlers ||
      a.sig_in_handler != b.sig_in_handler || a.sig_cookie != b.sig_cookie ||
      a.sig_frame_addr != b.sig_frame_addr ||
      a.sig_delivered != b.sig_delivered) {
    return "signal state";
  }
  if (a.mappings != b.mappings) return "mappings";
  if (a.pages.size() != b.pages.size()) return "page count";
  for (size_t k = 0; k < a.pages.size(); ++k) {
    const auto& p = a.pages[k];
    const auto& q = b.pages[k];
    if (p.offset != q.offset || p.perms != q.perms ||
        (p.data == nullptr) != (q.data == nullptr) ||
        (p.data != nullptr && *p.data != *q.data)) {
      return "page " + std::to_string(k);
    }
  }
  if (a.fds.size() != b.fds.size()) return "fd count";
  for (size_t k = 0; k < a.fds.size(); ++k) {
    const auto& f = a.fds[k];
    const auto& g = b.fds[k];
    if (f.kind != g.kind || f.flags != g.flags || f.offset != g.offset ||
        f.path != g.path || f.pipe_id != g.pipe_id ||
        f.pipe_buf != g.pipe_buf) {
      return "fd " + std::to_string(k);
    }
  }
  return "";
}

}  // namespace

std::string CheckSnapshotBytes(std::span<const uint8_t> bytes,
                               bool* accepted) {
  *accepted = false;
  std::optional<Result<Snapshot>> first;
  try {
    first.emplace(snapshot::Deserialize(bytes));
  } catch (const std::exception& e) {
    return std::string("Deserialize threw ") + e.what();
  }
  if (!first->ok()) return "";
  *accepted = true;
  const Snapshot& snap = **first;
  // Every container is sized by records actually present: a page record
  // takes at least 10 bytes.
  if (snap.pages.capacity() > bytes.size() / 10) {
    return "Deserialize reserved " + std::to_string(snap.pages.capacity()) +
           " page records for " + std::to_string(bytes.size()) + " bytes";
  }
  const std::vector<uint8_t> again = snapshot::Serialize(snap);
  const auto second = snapshot::Deserialize({again.data(), again.size()});
  if (!second.ok()) {
    return "re-serialized snapshot rejected: " + second.error();
  }
  const std::string diff = SnapshotDiff(snap, *second);
  if (!diff.empty()) return "not a fixpoint: " + diff + " differs";
  return "";
}

Step SnapshotFileStep() {
  return [seeds = SeedSnapshots()](uint64_t, uint64_t iseed) {
    Outcome o;
    CrashArtifact a;
    if (seeds.empty()) {
      a.detail = "no seed snapshot could be built";
      o.crashes.push_back(std::move(a));
      o.stop = true;
      return o;
    }
    Rng rng(iseed);
    const size_t base = rng.Below(seeds.size());
    std::vector<uint8_t> bytes = seeds[base];
    const std::string log = MutateSnapshot(rng, &bytes);
    bool accepted = false;
    a.detail = CheckSnapshotBytes({bytes.data(), bytes.size()}, &accepted);
    if (accepted) {
      o.verdict = Outcome::Verdict::kExecuted;  // fixpoint checked
    } else if (a.detail.empty()) {
      o.verdict = Outcome::Verdict::kRejected;
    }
    if (a.detail.empty()) return o;
    a.detail += " (seed snapshot " + std::to_string(base) + ": " + log + ")";
    o.crashes.push_back(std::move(a));
    return o;
  };
}

FuzzReport RunSnapshotFormatFuzz(const FuzzOptions& opts) {
  return Drive("snapshot-file", opts, SnapshotFileStep());
}

}  // namespace lfi::fuzz
