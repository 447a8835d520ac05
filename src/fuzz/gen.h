// Input generators for the three fuzzing modes (see docs/FUZZING.md).
//
// Soundness mode feeds the verifier raw instruction words, so its
// generators produce byte streams: pure random words (cheap decoder
// coverage), template streams built from the legal LFI idioms (guards,
// guarded accesses, sp/x30 protocols), and near-miss mutants of those
// streams. The mutants are the interesting population: most get rejected
// (exercising every FailKind), and any mutant the verifier *accepts* must
// still execute without leaving the sandbox.
//
// Completeness mode feeds the full pipeline assembly text, so its
// generator speaks the same grammar a compiler would: only non-reserved
// registers, labels for every branch, data symbols for adrp/:lo12:.
#ifndef LFI_FUZZ_GEN_H_
#define LFI_FUZZ_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/rng.h"

namespace lfi::fuzz {

// The ARM64 NOP word, used by the minimizer and as encode-failure filler.
inline constexpr uint32_t kNopWord = 0xd503201f;

// `count` uniformly random words.
std::vector<uint32_t> GenRandomWords(Rng& rng, size_t count);

// A stream assembled from ~`count` legal LFI instruction templates
// (each template may expand to several words, e.g. guard + access).
std::vector<uint32_t> GenTemplateStream(Rng& rng, size_t count);

// Applies 1-3 near-miss mutations in place: single-bit flips, 5-bit
// register-field rewrites aimed at the reserved registers, immediate
// twiddles, and word swaps/duplications.
void MutateStream(Rng& rng, std::vector<uint32_t>* words);

// Deterministic streams always fuzzed before the random phase: boundary
// cases on both sides of every verifier rule, plus known escape probes.
std::vector<std::vector<uint32_t>> SeedCorpusWords();

// A random assembly program for completeness fuzzing. Uses only syntax
// and registers the rewriter accepts, so a downstream parse/rewrite/
// assemble/verify failure is a pipeline bug, not a generator bug.
std::string GenAsmProgram(Rng& rng);

// Deterministic assembly programs covering each grammar production.
std::vector<std::string> SeedCorpusAsm();

// Applies 1-3 textual mutations to assembly source in place: byte flips,
// truncation, digit runs, case flips, and whitespace inserted or dropped.
void MutateAsmText(Rng& rng, std::string* src);

}  // namespace lfi::fuzz

#endif  // LFI_FUZZ_GEN_H_
