// The fuzzing modes (docs/FUZZING.md). Every mode runs through Drive, the
// one per-iteration loop: it derives each iteration's seed, counts the
// verdict, records crashes and stops at max_crashes. A mode supplies only
// how iteration `it` builds its input from Rng(iseed), seed corpus first,
// and the check that judges that input.
//
// The word modes share one check (fuzz.cc): Verify, with rejections
// bucketed by FailKind, then the mode's oracle on the accepted stream,
// which returns "" or what went wrong:
//
//   soundness    the stream executes under the SlotInvariantChecker. A
//                violation is a sandbox escape: the most severe bug class
//                this repo can have.
//   differential the stream runs twice under Dispatch::kBlock with the
//                checker attached: once to the budget and once one
//                instruction at a time (ExecuteWordsStepwise, where every
//                instruction heads its own block). DescribeDiff must find
//                them identical: an oracle for block formation.
//   chained      the stream runs under Dispatch::kChained (block chaining
//                + direct threading + memoized translation) and
//                Dispatch::kBlock, both without the checker hook: a hooked
//                machine delegates chained execution to the reference
//                loop, which would make the comparison vacuous. Same
//                DescribeDiff bar as differential.
//   snapshot     the stream runs N instructions, checkpoints (page
//                payloads + registers, the snapshot layer's COW export),
//                runs M more hashing the pc/access trace, rolls back, and
//                re-runs M. Stop reason, retired count, trace hash, and
//                final registers must match exactly; cycle counts are
//                exempt (timing state is history-dependent and not part
//                of a snapshot).
//
// The other modes check other inputs:
//
//   completeness grammar-generated assembly -> parse -> rewrite ->
//                assemble -> Verify; any stage failing on rewriter output
//                is a bug (the rewriter must only emit verifiable text).
//   snapshot-file mutated serialized snapshots (CheckSnapshotBytes):
//                Deserialize must never crash or reserve more records
//                than the bytes hold, and every file it accepts must
//                reach a fixpoint. --mode=snapshot runs it after the
//                snapshot oracle.
//   parse        mutated assembly text -> Parse; the parser must never
//                crash, and every file it accepts must round-trip
//                (CheckParseRoundTrip).
//   embed        typed calls into one long-lived sandbox
//                (embed/embed_fuzz.h).
//
// All modes are deterministic in (seed, iters): crash artifacts record the
// per-iteration derived seed, and Replay re-runs an artifact through the
// check of the mode that wrote it under that seed.
#ifndef LFI_FUZZ_FUZZ_H_
#define LFI_FUZZ_FUZZ_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
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
// The `words:` line is machine-parseable for replay (lfi-fuzz --replay).
std::string FormatArtifact(const CrashArtifact& a);

// Reads back what Replay needs of FormatArtifact's text: mode, iter, seed,
// words and source.
CrashArtifact ParseArtifact(const std::string& text);

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

// What one iteration's check concluded.
struct Outcome {
  enum class Verdict : uint8_t {
    kNone,      // neither: the check failed before a verdict
    kRejected,  // the input was refused cleanly
    kAccepted,  // accepted, nothing further run
    kExecuted,  // accepted and executed (or its round trip checked)
  };
  Verdict verdict = Verdict::kNone;
  std::optional<verifier::FailKind> reject_kind;  // the histogram bucket
  // Findings; Drive fills in mode, iter and seed.
  std::vector<CrashArtifact> crashes;
  bool stop = false;  // the mode's state is spent: end the run here
};

// One iteration of a mode: builds iteration `it`'s input from Rng(iseed)
// and checks it.
using Step = std::function<Outcome(uint64_t it, uint64_t iseed)>;

// The fuzz loop every mode runs. For it in [0, opts.iters) it calls
// step(it, DeriveSeed(opts.seed, it)), counts the outcome and records its
// crashes. The run ends early once an iteration's crashes bring the total
// to opts.max_crashes, or when a step sets `stop`.
FuzzReport Drive(const std::string& mode, const FuzzOptions& opts,
                 const Step& step);

// Adds `a` to the report, writing it under opts.artifact_dir when set.
void RecordCrash(const FuzzOptions& opts, FuzzReport* report,
                 CrashArtifact a);

FuzzReport RunSoundness(const FuzzOptions& opts);
FuzzReport RunCompleteness(const FuzzOptions& opts);
FuzzReport RunDifferential(const FuzzOptions& opts);
FuzzReport RunChainedDifferential(const FuzzOptions& opts);
FuzzReport RunSnapshotOracle(const FuzzOptions& opts);
FuzzReport RunParseFuzz(const FuzzOptions& opts);
FuzzReport RunSnapshotFormatFuzz(const FuzzOptions& opts);

// Re-runs artifact `a` through the check of the mode that wrote it, under
// its recorded seed: the word modes re-verify `a.words` and run their
// oracle, completeness and parse re-check `a.asm_source`, snapshot-file
// rebuilds its mutant from the seed. Sets `*out` to one line naming the
// mode, the seed and the result. Returns 0 if the check now passes, 1 if
// it still fails, 2 if `a` cannot be replayed in isolation.
int Replay(const CrashArtifact& a, const FuzzOptions& opts, std::string* out);

// The snapshot-file mode's step: mutates one seed snapshot with
// Rng(iseed) and checks it. Replay rebuilds its findings through it.
Step SnapshotFileStep();

// The differential compare: "" if two runs of one stream are identical
// (stop, retired, cycles, registers, exclusive monitor, fault record,
// memory digest), else the first difference. `an`/`bn` name the runs.
std::string DescribeDiff(const ExecResult& a, const ExecResult& b,
                         const std::string& an, const std::string& bn);

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
