//===- tests/lint/LintDigestTest.cpp - Byte-exact lint output parity ------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Pins every byte the checks produce over a broad corpus, so a change to
// how lint builds its facts (shared PQS, shared dependence graphs, one
// check table) cannot change an answer unnoticed:
//
//  - the fixture corpus with its pinned schedules;
//  - the paper suite, before and after runControlCPR;
//  - the benchmark ladder's six generated programs and default-generator
//    seeds 1-60, before and after CPR, and after CPR with the
//    compensation-skip miscompile planted in every CPR block.
//
// Each program is linted on the five paper machines, once standalone and
// once borrowing a FunctionAnalyses that carries dependence graphs; both
// must render the same cpr-lint-v2 entry and the same witness replays.
// Each group's FNV-1a digest over those bytes is recorded below. A second
// case runs every check alone and demands exactly its slice of the full
// run: no check's findings may depend on which check built a shared fact
// first.
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"
#include "lint/Witness.h"

#include "analysis/AnalysisCache.h"
#include "cpr/ControlCPR.h"
#include "fuzz/Generator.h"
#include "interp/Profiler.h"
#include "ir/IRParser.h"
#include "support/FaultInjector.h"
#include "support/JSON.h"
#include "workloads/BenchmarkSuite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace cpr;

namespace {

const char *const CheckNames[] = {
    "frp-consistency",       "use-before-def",
    "speculation-safety",    "compensation-completeness",
    "schedule-legality",     "dead-under-predicate",
    "redundant-compensation", "uninit-read",
    "resource-oversubscription"};

const char *const FixtureNames[] = {
    "bad_frp.ir",           "clean_cpr.ir",
    "dead_under_predicate.ir", "missing_compensation.ir",
    "oversubscribed_fetch.ir", "oversubscribed_slot.ir",
    "redundant_compensation.ir", "uninit_read.ir",
    "unsafe_speculation.ir", "use_before_def.ir",
    "warn_unrecognized_frp.ir"};

/// Digest of each corpus group's standalone lint output, recorded on the
/// tree before the checks were regrouped into one table.
const std::map<std::string, uint64_t> &recordedDigests() {
  static const std::map<std::string, uint64_t> Digests = {
      {"fixtures", 0x35ed0538296e9e7bull},
      {"generated/fault", 0xe6210b74c8ee3370ull},
      {"generated/post", 0x6c07220295f9fe69ull},
      {"generated/pre", 0xdbf075f256a2f9beull},
      {"ladder/fault", 0x66b227ab04b89d01ull},
      {"ladder/post", 0x155ab345a9c39bc4ull},
      {"ladder/pre", 0x155ab345a9c39bc4ull},
      {"suite/post", 0xdfbc67b193533f92ull},
      {"suite/pre", 0xdfbc67b193533f92ull},
  };
  return Digests;
}

/// One lint input: a function, the registers its environment
/// initializes, and the schedules pinned for it.
struct Case {
  std::string Group;
  std::string Name;
  std::unique_ptr<Function> F;
  std::vector<RegBinding> Inputs;
  std::vector<InjectedSchedule> Schedules;
};

void addCase(std::vector<Case> &Out, std::string Group, std::string Name,
             std::unique_ptr<Function> F,
             const std::vector<RegBinding> &Inputs) {
  Case C;
  C.Group = std::move(Group);
  C.Name = std::move(Name);
  C.F = std::move(F);
  C.Inputs = Inputs;
  Out.push_back(std::move(C));
}

/// Adds \p P's function before and after CPR to groups "<Group>/pre" and
/// "<Group>/post"; with \p Faulted, also the treatment made with the
/// compensation-skip fault armed on every hit ("<Group>/fault"), when
/// the fault fires.
void addTreated(std::vector<Case> &Out, const std::string &Group,
                const std::string &Name, const KernelProgram &P,
                bool Faulted) {
  Memory Mem = P.InitMem;
  ProfileData Prof = profileRun(*P.Func, Mem, P.InitRegs);
  addCase(Out, Group + "/pre", Name, P.Func->clone(), P.InitRegs);
  std::unique_ptr<Function> Treated = P.Func->clone();
  runControlCPR(*Treated, Prof, CPROptions());
  addCase(Out, Group + "/post", Name, std::move(Treated), P.InitRegs);
  if (!Faulted)
    return;
  std::unique_ptr<Function> Defective = P.Func->clone();
  fault::ScopedFault Inject("cpr.restructure.compensation", fault::EveryHit);
  runControlCPR(*Defective, Prof, CPROptions());
  if (fault::fired())
    addCase(Out, Group + "/fault", Name, std::move(Defective), P.InitRegs);
}

const std::vector<Case> &corpus() {
  static const std::vector<Case> Cases = [] {
    std::vector<Case> Out;
    for (const char *Name : FixtureNames) {
      std::ifstream In(std::string(CPR_LINT_FIXTURE_DIR) + "/" + Name);
      std::stringstream Buf;
      Buf << In.rdbuf();
      std::unique_ptr<Function> F = parseFunctionOrDie(Buf.str());
      addCase(Out, "fixtures", Name, std::move(F), {});
      Status S = parseInjectedSchedules(Buf.str(), Out.back().Schedules);
      EXPECT_TRUE(S.ok()) << Name;
    }
    for (const BenchmarkSpec &Spec : paperBenchmarkSuite())
      addTreated(Out, "suite", Spec.Name, Spec.Build(), /*Faulted=*/false);
    struct Rung {
      unsigned MaxBlocks, MaxItemsPerRegion;
      std::vector<uint64_t> Seeds;
    };
    for (const Rung &R : {Rung{80, 8, {1000, 1002, 1003}},
                          Rung{120, 12, {1000, 1008, 1001}}}) {
      GeneratorConfig GC;
      GC.MaxBlocks = R.MaxBlocks;
      GC.MaxItemsPerRegion = R.MaxItemsPerRegion;
      GC.SyntheticFrac = 0.0;
      for (uint64_t Seed : R.Seeds)
        addTreated(Out, "ladder",
                   std::to_string(R.MaxBlocks) + "/" + std::to_string(Seed),
                   generateProgram(Seed, GC), /*Faulted=*/true);
    }
    for (uint64_t Seed = 1; Seed <= 60; ++Seed)
      addTreated(Out, "generated", std::to_string(Seed),
                 generateProgram(Seed, GeneratorConfig()), /*Faulted=*/true);
    return Out;
  }();
  return Cases;
}

LintOptions optionsFor(const Case &C) {
  LintOptions Opts;
  Opts.Machines = MachineDesc::paperModels();
  Opts.Schedules = C.Schedules;
  return Opts;
}

/// The bytes a lint run produces: the compact cpr-lint-v2 entry, then
/// each witness's replay outcome.
std::string render(const Case &C, const LintResult &R) {
  std::string Out = writeJSON(lintResultToJSON(C.Name, R), /*Pretty=*/false);
  for (const LintFinding &Fd : R.Findings) {
    if (!Fd.Witness) {
      Out += "\n<no witness>";
      continue;
    }
    WitnessConfirmation WC = confirmWitness(*C.F, *Fd.Witness);
    Out += "\n" + std::to_string(WC.Ran) + std::to_string(WC.Confirmed) +
           " " + WC.Detail;
  }
  return Out;
}

uint64_t fnv1a(uint64_t H, const std::string &S) {
  for (unsigned char Ch : S) {
    H ^= Ch;
    H *= 1099511628211ull;
  }
  return H;
}

TEST(LintDigest, StandaloneAndSharedGraphRunsMatchTheRecordedDigests) {
  const std::vector<MachineDesc> Models = MachineDesc::paperModels();
  std::map<std::string, uint64_t> Digests;
  size_t Findings = 0, Runs = 0;
  for (const Case &C : corpus()) {
    LintDriver Driver(optionsFor(C));
    LintResult Alone = Driver.run(*C.F, nullptr, &C.Inputs);
    FunctionAnalyses FA(*C.F, &Models.front());
    LintResult Shared = Driver.run(*C.F, &FA, &C.Inputs);
    Runs += 2;
    std::string Bytes = render(C, Alone);
    EXPECT_EQ(Bytes, render(C, Shared)) << C.Group << " " << C.Name;
    uint64_t &Digest =
        Digests.try_emplace(C.Group, 14695981039346656037ull).first->second;
    Digest = fnv1a(Digest, Bytes);
    Findings += Alone.Findings.size();
    // Every planted miscompile is caught.
    if (C.Group.ends_with("/fault")) {
      EXPECT_GE(Alone.Findings.size(), 1u) << C.Group << " " << C.Name;
    }
  }
  EXPECT_GT(Findings, 0u);
  std::printf("lint digest: %zu runs, %zu findings\n", Runs, Findings);
  EXPECT_EQ(Digests.size(), recordedDigests().size());
  for (const auto &[Group, Digest] : Digests) {
    auto It = recordedDigests().find(Group);
    char Hex[32];
    std::snprintf(Hex, sizeof(Hex), "0x%016llx",
                  static_cast<unsigned long long>(Digest));
    if (It == recordedDigests().end())
      ADD_FAILURE() << "unrecorded {\"" << Group << "\", " << Hex << "ull}";
    else
      EXPECT_EQ(Digest, It->second) << "{\"" << Group << "\", " << Hex
                                    << "ull}";
  }
}

TEST(LintDigest, EachCheckAloneReportsItsSliceOfTheFullRun) {
  for (const Case &C : corpus()) {
    LintResult Full = LintDriver(optionsFor(C)).run(*C.F, nullptr, &C.Inputs);
    for (const char *Check : CheckNames) {
      LintOptions Opts = optionsFor(C);
      Opts.OnlyChecks = {Check};
      LintResult Alone = LintDriver(Opts).run(*C.F, nullptr, &C.Inputs);
      LintResult Slice;
      Slice.ChecksRun = {Check};
      for (const LintFinding &Fd : Full.Findings)
        if (Fd.Check == Check)
          Slice.Findings.push_back(Fd);
      EXPECT_EQ(writeJSON(lintResultToJSON(C.Name, Alone)),
                writeJSON(lintResultToJSON(C.Name, Slice)))
          << C.Group << " " << C.Name << " " << Check;
    }
  }
}

} // namespace
