// The fuzzing modes (Section "lfi-fuzz" of docs/FUZZING.md):
//
//   soundness    generated/mutated word streams -> Verify; every ACCEPTED
//                stream executes under the SlotInvariantChecker. A
//                violation is a sandbox escape: the most severe bug class
//                this repo can have.
//   completeness grammar-generated assembly -> parse -> rewrite ->
//                assemble -> Verify; any stage failing on rewriter output
//                is a bug (the rewriter must only emit verifiable text).
//   differential every accepted stream runs twice under Dispatch::kBlock
//                with the invariant checker attached: once to the budget
//                and once one instruction at a time (ExecuteWordsStepwise,
//                where every instruction heads its own block). Final
//                state, stop reason, retired count and cycle count must
//                match exactly: an oracle for block formation.
//   chained      every accepted stream runs under Dispatch::kChained (the
//                optimized backend: block chaining + direct threading +
//                memoized translation) and Dispatch::kBlock, both without
//                the invariant-checker hook — a hooked machine delegates
//                chained execution to the reference loop, which would make
//                this comparison vacuous. Same exactness bar as
//                differential.
//   snapshot     every accepted stream runs N instructions, checkpoints
//                (page payloads + registers, the snapshot layer's COW
//                export), runs M more hashing the pc/access trace, rolls
//                back, and re-runs M. Stop reason, retired count, trace
//                hash, and final registers must match exactly; cycle
//                counts are exempt (timing state is history-dependent and
//                deliberately not part of a snapshot).
//                The mode also mutates serialized snapshot files (byte
//                flips, truncation, record counts, kind bytes and
//                lengths, resealed): Deserialize must never crash or
//                reserve more records than the bytes hold, and every file
//                it accepts must reach a fixpoint: Deserialize(Serialize(
//                Deserialize(x))) equals Deserialize(x) field by field.
//   parse        mutated assembly text -> Parse; the parser must never
//                crash, and every file it accepts must round-trip:
//                Parse(Print(Parse(x))) equals Parse(x) statement by
//                statement (line numbers aside).
//
// All modes are deterministic in (seed, iters): crash artifacts record the
// per-iteration derived seed, so any finding replays in isolation.
#ifndef LFI_FUZZ_FUZZ_H_
#define LFI_FUZZ_FUZZ_H_

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "fuzz/exec.h"
#include "verifier/verifier.h"

namespace lfi::fuzz {

struct FuzzOptions {
  uint64_t seed = 1;
  uint64_t iters = 1000;
  uint64_t max_exec_insts = 2000;
  verifier::VerifyOptions verify;
  // When non-empty, each crash is also dumped as a text artifact here.
  std::string artifact_dir;
  // Stop a run after this many crashes (artifact flood guard).
  uint64_t max_crashes = 25;
};

struct CrashArtifact {
  std::string mode;  // soundness | completeness | differential | chained | ...
  uint64_t iter = 0;
  uint64_t seed = 0;                 // derived seed; replays the iteration
  std::string detail;                // what went wrong
  std::string verdict;               // verifier verdict at crash time
  std::vector<uint32_t> words;       // minimized stream (word modes)
  std::vector<uint32_t> full_words;  // original, pre-minimization
  std::string asm_source;            // completeness and parse modes
  std::string path;                  // artifact file, when written
};

// Renders the artifact as text: header, hex words, disassembly, source.
// The `words:` line is machine-parseable for replay (lfi_fuzz --replay).
std::string FormatArtifact(const CrashArtifact& a);

// Writes the artifact under `dir` (created if needed); returns the path,
// or an empty string if the write failed.
std::string WriteArtifact(const CrashArtifact& a, const std::string& dir);

struct FuzzReport {
  std::string mode;
  uint64_t iters = 0;
  uint64_t accepted = 0;
  uint64_t executed = 0;
  uint64_t rejected = 0;
  // Verifier rejections bucketed by stable FailKind.
  std::array<uint64_t, size_t(verifier::FailKind::kCount)> reject_kinds{};
  std::vector<CrashArtifact> crashes;
  bool ok() const { return crashes.empty(); }
};

FuzzReport RunSoundness(const FuzzOptions& opts);
FuzzReport RunCompleteness(const FuzzOptions& opts);
FuzzReport RunDifferential(const FuzzOptions& opts);
FuzzReport RunChainedDifferential(const FuzzOptions& opts);
FuzzReport RunSnapshotOracle(const FuzzOptions& opts);
FuzzReport RunParseFuzz(const FuzzOptions& opts);
FuzzReport RunSnapshotFormatFuzz(const FuzzOptions& opts);

// The parse mode's oracle for one source text: "" if `src` is rejected or
// round-trips through the printer, else the first difference. Sets
// `*accepted` to whether `src` parsed.
std::string CheckParseRoundTrip(const std::string& src, bool* accepted);

// The snapshot-file oracle for one input: "" if `bytes` is rejected
// cleanly or accepted and a fixpoint, else what went wrong. Sets
// `*accepted` to whether Deserialize accepted it.
std::string CheckSnapshotBytes(std::span<const uint8_t> bytes,
                               bool* accepted);

// Trivial minimizer: shortest failing prefix by bisection, then a nop-out
// pass (words are replaced, not removed, so branch offsets stay put).
// `still_fails` must be true for `words` itself.
std::vector<uint32_t> MinimizeWords(
    const std::vector<uint32_t>& words,
    const std::function<bool(const std::vector<uint32_t>&)>& still_fails);

// One-line histogram of reject kinds ("undecodable=12 sp-protocol=3 ...").
std::string RejectHistogram(const FuzzReport& r);

}  // namespace lfi::fuzz

#endif  // LFI_FUZZ_FUZZ_H_
