//===- workloads/Kernels.h - Hand-written IR kernels ------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Unix-utility kernels of the paper's benchmark suite, written
/// directly in the EPIC IR as unrolled superblock loops with seeded input
/// data:
///
///  - strcpy: the paper's Section 6 worked example (Figure 6(b) shape,
///    software-pipelined: store previous char, load next, exit on NUL);
///  - cmp: compare two buffers, exit at first mismatch;
///  - grep: scan for a first-character match then verify a short needle;
///  - wc: classify characters (newline / space / word) with counters.
///
/// Each builder returns the function plus the initial memory image and
/// register bindings needed to execute it in the interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef WORKLOADS_KERNELS_H
#define WORKLOADS_KERNELS_H

#include "interp/Interpreter.h"
#include "ir/Function.h"

#include <memory>
#include <string>

namespace cpr {

/// A runnable IR program: function + inputs.
struct KernelProgram {
  std::unique_ptr<Function> Func;
  std::vector<RegBinding> InitRegs;
  Memory InitMem;
  std::string Description;

  /// A deep copy, with its own clone of the function. Sessions mutate
  /// their program, so each one that shares a source takes a clone.
  KernelProgram clone() const {
    return {Func->clone(), InitRegs, InitMem, Description};
  }
};

/// The paper's strcpy example: a while-loop copy of a NUL-terminated
/// string, unrolled \p Unroll times (4 in Figure 6). \p StringLen
/// characters of nonzero data are placed at the source; \p Seed selects
/// the data.
KernelProgram buildStrcpyKernel(unsigned Unroll = 4, size_t StringLen = 4096,
                                uint64_t Seed = 1);

/// cmp: scan two buffers of length \p Len for the first mismatch, unrolled
/// \p Unroll times. \p MatchPrefix controls where the mismatch occurs.
KernelProgram buildCmpKernel(unsigned Unroll = 8, size_t Len = 4096,
                             size_t MatchPrefix = 4000, uint64_t Seed = 2);

/// grep inner loop: scan a buffer for occurrences of a target byte,
/// counting hits, unrolled \p Unroll times. \p HitRate is the expected
/// fraction of positions that match (rare = biased fall-through branches).
KernelProgram buildGrepKernel(unsigned Unroll = 8, size_t Len = 8192,
                              double HitRate = 0.02, uint64_t Seed = 3);

/// wc inner loop: per character, bump the char counter, test for newline
/// and word separator, unrolled \p Unroll times.
KernelProgram buildWcKernel(unsigned Unroll = 4, size_t Len = 8192,
                            uint64_t Seed = 4);

/// lex-style scanner inner loop: per character, a cascade of character
/// class tests (newline, digit, operator) each ending in a rarely-taken
/// exit to a token-action block; unrolled \p Unroll times.
KernelProgram buildLexKernel(unsigned Unroll = 4, size_t Len = 8192,
                             uint64_t Seed = 5);

/// cccp-style preprocessor scan: per character, tests for directive
/// start, comment start, and newline, with counters; unrolled \p Unroll
/// times.
KernelProgram buildCccpKernel(unsigned Unroll = 4, size_t Len = 8192,
                              uint64_t Seed = 6);

/// yacc-style table-driven parser loop: serial state = table[state + sym]
/// lookups with rare error/accept exits and a stack push per step. Low
/// ILP, biased branches.
KernelProgram buildYaccKernel(unsigned Unroll = 4, size_t Steps = 8192,
                              uint64_t Seed = 7);

} // namespace cpr

#endif // WORKLOADS_KERNELS_H
