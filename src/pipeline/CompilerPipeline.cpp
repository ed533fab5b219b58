//===- pipeline/CompilerPipeline.cpp - End-to-end harness ------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "pipeline/CompilerPipeline.h"

#include "pipeline/PipelineRun.h"
#include "support/ThreadPool.h"

using namespace cpr;

size_t cpr::countStaticBranches(const Function &F) {
  size_t N = 0;
  for (size_t BI = 0, BE = F.numBlocks(); BI != BE; ++BI)
    for (const Operation &Op : F.block(BI).ops())
      if (Op.isBranch())
        ++N;
  return N;
}

double PipelineResult::speedupOn(const std::string &MachineName) const {
  for (const MachineComparison &M : Machines)
    if (M.MachineName == MachineName)
      return M.speedup();
  return 0.0;
}

const SimComparison *
PipelineResult::simOn(const std::string &MachineName,
                      const std::string &PredictorName) const {
  for (const SimComparison &S : Sim)
    if (S.MachineName == MachineName && S.PredictorName == PredictorName)
      return &S;
  return nullptr;
}

std::unique_ptr<Function> cpr::applyControlCPR(const Function &Baseline,
                                               const ProfileData &Profile,
                                               const CPROptions &Opts,
                                               CPRResult *CPROut) {
  std::unique_ptr<Function> Treated = Baseline.clone();
  // FRP conversion happens per region inside the ICBM driver, which
  // restores regions where the transformation does not apply.
  CPRResult R = runControlCPR(*Treated, Profile, Opts);
  if (CPROut)
    *CPROut = R;
  return Treated;
}

PipelineResult cpr::runPipeline(const KernelProgram &Program,
                                const PipelineOptions &Opts) {
  PipelineRun Run(Program.clone(), Opts, Opts.Stats,
                  Program.Func->getName() + "/");
  if (Opts.Threads == 1)
    return Run.finish();
  ThreadPool Pool(Opts.Threads);
  return Run.finish(&Pool);
}
