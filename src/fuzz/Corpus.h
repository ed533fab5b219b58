//===- fuzz/Corpus.h - Fuzz-program serialization and corpora ---*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk format of fuzz programs, corpus entries, and minimized
/// reproducers. A fuzz program is an executable case: a function plus the
/// initial register bindings and memory cells it runs against. It is
/// stored as plain textual IR (ir/IRPrinter.h) preceded by comment
/// directives the IR parser ignores, so every corpus file and reproducer
/// is simultaneously a valid `cprc` input:
///
/// \code
/// ; cpr-fuzz-program-v1
/// ; reg r1=256
/// ; mem 10000000=421
/// func @fuzz_001 { ... }
/// \endcode
///
/// Serialization is deterministic: registers in binding order, memory
/// cells sorted by address. See docs/FUZZING.md.
///
//===----------------------------------------------------------------------===//

#ifndef FUZZ_CORPUS_H
#define FUZZ_CORPUS_H

#include "workloads/Kernels.h"

#include <string>
#include <vector>

namespace cpr {

/// Magic first line of a serialized fuzz program.
inline constexpr const char *FuzzProgramMagic = "; cpr-fuzz-program-v1";

/// Renders \p P in the corpus format (deterministically).
std::string serializeFuzzProgram(const KernelProgram &P);

/// Result of parsing a corpus entry.
struct FuzzParseResult {
  KernelProgram Program;
  std::string Error; ///< empty on success

  explicit operator bool() const { return Error.empty(); }
};

/// Parses one register binding, "rN=V" (or fN/pN/bN), as a `; reg`
/// directive and cprc's --reg flag spell it.
bool parseRegBinding(const std::string &Spec, RegBinding &Out);

/// Parses a corpus entry. Accepts plain IR without directives too (the
/// program then starts with empty registers and memory). Does not run the
/// verifier; callers do.
FuzzParseResult parseFuzzProgram(const std::string &Text);

/// Reads and parses the file at \p Path.
FuzzParseResult loadFuzzProgramFile(const std::string &Path);

/// Writes \p P to \p Path; returns false with a message in \p Error
/// (when non-null) on I/O failure.
bool writeFuzzProgramFile(const KernelProgram &P, const std::string &Path,
                          std::string *Error = nullptr);

/// Lists the ".ir" files of directory \p Dir, sorted by name so corpus
/// iteration order is deterministic. Returns an empty list for a missing
/// directory.
std::vector<std::string> listCorpusFiles(const std::string &Dir);

} // namespace cpr

#endif // FUZZ_CORPUS_H
