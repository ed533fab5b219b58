//===- fuzz/FaultCampaign.cpp - Fault-injection campaigns -----------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/FaultCampaign.h"

#include "interp/Profiler.h"
#include "ir/Verifier.h"
#include "pipeline/PipelineRun.h"
#include "support/Error.h"
#include "support/FaultInjector.h"
#include "support/Statistics.h"

#include <ostream>

using namespace cpr;

std::string FaultCampaignResult::summary() const {
  return "injections=" + std::to_string(Injections) +
         " fired=" + std::to_string(Fired) +
         " recovered=" + std::to_string(Recovered) +
         " crash=" + std::to_string(Crashes) +
         " mismatch=" + std::to_string(Mismatches) +
         " verify-fail=" + std::to_string(VerifyFails);
}

namespace {

/// One armed run of one program through a fail-safe session. Returns the
/// contract-violation description, or "" on a pass.
std::string runInjection(const KernelProgram &P, const std::string &Site,
                         uint64_t NthHit, const FaultCampaignOptions &Opts,
                         FaultCampaignResult &Res) {
  PipelineOptions SessionOpts;
  SessionOpts.FailSafe = true;
  // The equivalence re-check is what turns verifier-clean miscompiles
  // (site cpr.restructure.compensation) into rollbacks.
  SessionOpts.RegionEquivalence = true;
  SessionOpts.CheckEquivalence = true;
  SessionOpts.InterpMaxSteps = Opts.InterpMaxSteps;
  SessionOpts.Machines = {MachineDesc::medium()};
  DiagnosticEngine Diags(Opts.Stats, "fault/");
  SessionOpts.Diags = &Diags;

  ++Res.Injections;
  fault::arm(Site, NthHit);
  bool DidFire = false;
  CPRResult CPR;
  bool FellBack = false;
  std::unique_ptr<Function> Treated;
  {
    // The contract says faults never escalate to a fatal error in
    // fail-safe mode; the trap turns a violation into a caught crash
    // instead of taking the campaign down.
    ScopedFatalErrorTrap Trap;
    try {
      PipelineRun Session(P.clone(), SessionOpts);
      Status S = Session.tryPrepare();
      DidFire = fault::fired();
      if (!S.ok()) {
        fault::disarm();
        ++Res.Crashes; // a failed *session* is as bad as a crash here
        return "site " + Site + " nth=" + std::to_string(NthHit) +
               ": session failed: " + S.diagnostic().str();
      }
      CPR = Session.cprResult();
      FellBack = Session.fellBack();
      Treated = Session.finish().Treated;
    } catch (const FatalError &E) {
      DidFire = DidFire || fault::fired();
      fault::disarm();
      ++Res.Crashes;
      return "site " + Site + " nth=" + std::to_string(NthHit) +
             ": fatal error escaped the fail-safe layer: " + E.message();
    }
  }
  fault::disarm();

  if (DidFire)
    ++Res.Fired;
  if (DidFire && (CPR.BlocksRolledBack > 0 || FellBack))
    ++Res.Recovered;

  // The output must be runnable regardless of what was injected.
  std::vector<std::string> Violations = verifyFunction(*Treated);
  if (!Violations.empty()) {
    ++Res.VerifyFails;
    return "site " + Site + " nth=" + std::to_string(NthHit) +
           ": output fails verification: " + Violations.front();
  }
  // ... and observationally equivalent to the untouched input (faults are
  // disarmed now, so this oracle run is trustworthy).
  EquivResult E =
      checkEquivalence(*P.Func, *Treated, P.InitMem, P.InitRegs);
  if (!E.Equivalent) {
    ++Res.Mismatches;
    return "site " + Site + " nth=" + std::to_string(NthHit) +
           ": miscompile survived [" + divergenceName(E.Kind) +
           "]: " + E.Detail;
  }
  return "";
}

} // namespace

FaultCampaignResult cpr::runFaultCampaign(const FaultCampaignOptions &Opts) {
  FaultCampaignResult Res;
  std::vector<std::string> Sites =
      Opts.Sites.empty() ? fault::sites() : Opts.Sites;

  // One shared program set across sites: case programs are a pure
  // function of (seed, case index), so a campaign is reproducible from
  // its seed alone.
  std::vector<KernelProgram> Programs;
  Programs.reserve(Opts.CasesPerSite);
  for (unsigned I = 0; I < Opts.CasesPerSite; ++I)
    Programs.push_back(
        generateProgram(Opts.Seed + 0x9e3779b97f4a7c15ull * (I + 1),
                        Opts.Generator));

  for (const std::string &Site : Sites) {
    for (unsigned CaseIdx = 0; CaseIdx < Programs.size(); ++CaseIdx) {
      for (uint64_t Nth = 1; Nth <= Opts.NthHits; ++Nth) {
        std::string Failure =
            runInjection(Programs[CaseIdx], Site, Nth, Opts, Res);
        if (!Failure.empty()) {
          Res.Failures.push_back("case " + std::to_string(CaseIdx) + ": " +
                                 Failure);
          if (Opts.Log)
            (*Opts.Log) << "fault-campaign: " << Res.Failures.back()
                        << "\n";
        }
      }
    }
  }

  if (Opts.Stats) {
    Opts.Stats->addCount("fault/injections", Res.Injections);
    Opts.Stats->addCount("fault/fired", Res.Fired);
    Opts.Stats->addCount("fault/recovered", Res.Recovered);
    Opts.Stats->addCount("fault/crashes", Res.Crashes);
    Opts.Stats->addCount("fault/mismatches", Res.Mismatches);
    Opts.Stats->addCount("fault/verify_fails", Res.VerifyFails);
  }
  return Res;
}
