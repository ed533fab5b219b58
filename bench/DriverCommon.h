//===- bench/DriverCommon.h - Shared benchmark-driver options ---*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The option handling shared by the bench_* drivers, built on the same
/// declarative OptionTable as cprc: every driver accepts
///
///   --threads=<n>      worker threads for the suite run (0 = all cores)
///   --stats-json=<f>   write per-stage counters and wall times as JSON
///   --help / -h        generated from the table
///
/// Any other option is an error. The drivers print their paper table and
/// exit; compile-time measurement is cprbench's (cprbench/README.md).
///
//===----------------------------------------------------------------------===//

#ifndef BENCH_DRIVERCOMMON_H
#define BENCH_DRIVERCOMMON_H

#include "support/OptionParser.h"
#include "support/Statistics.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace cpr {

/// Options common to every bench driver.
struct DriverConfig {
  unsigned Threads = 1;
  std::string StatsJSON;
  bool Help = false;
};

/// Parses the shared driver options; exits on --help or a parse error.
inline DriverConfig parseDriverOptions(int argc, char **argv,
                                       const char *Tool) {
  DriverConfig C;
  OptionTable T;
  T.addUnsigned("--threads", "<n>",
                "worker threads for the suite run (0 = all cores)",
                C.Threads);
  T.addString("--stats-json", "<file>",
              "write per-stage counters and wall times as JSON",
              C.StatsJSON);
  T.addFlag("--help", "print this help", C.Help);
  T.addFlag("-h", "print this help", C.Help);

  std::string Error;
  if (!T.parse(argc, argv, Error, /*Positional=*/nullptr)) {
    std::fprintf(stderr, "%s: %s\n%s", Tool, Error.c_str(),
                 T.help(std::string("usage: ") + Tool + " [options]")
                     .c_str());
    std::exit(2);
  }
  if (C.Help) {
    std::printf("%s", T.help(std::string("usage: ") + Tool + " [options]")
                          .c_str());
    std::exit(0);
  }
  return C;
}

/// Writes the stats JSON when requested; exits on I/O failure.
inline void maybeWriteStats(const DriverConfig &C,
                            const StatsRegistry &Stats) {
  if (C.StatsJSON.empty())
    return;
  std::string Error;
  if (!writeStatsJSONFile(Stats, C.StatsJSON, &Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    std::exit(1);
  }
}

} // namespace cpr

#endif // BENCH_DRIVERCOMMON_H
