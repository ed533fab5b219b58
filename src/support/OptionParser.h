//===- support/OptionParser.h - Declarative CLI option table ----*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small declarative command-line option table shared by `cprc` and the
/// benchmark drivers: each option is one row (name, argument kind, help
/// text, setter), `--help` output is generated from the table, and
/// parsing handles `--name`, `--name=value`, and `--name value` forms
/// uniformly. Unknown options are errors.
///
/// Thread-safety: an OptionTable is built and used on one thread during
/// startup; it has no global state.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_OPTIONPARSER_H
#define SUPPORT_OPTIONPARSER_H

#include <functional>
#include <string>
#include <vector>

namespace cpr {

/// How an option takes its argument.
enum class OptArg {
  None,     ///< --flag
  Joined,   ///< --name=<value>
  Separate, ///< --name <value>
};

/// One declarative option row.
struct OptionSpec {
  std::string Name; ///< including leading dashes, e.g. "--threads"
  OptArg Kind = OptArg::None;
  std::string Meta; ///< metavariable for help, e.g. "<n>"
  std::string Help;
  /// Receives the argument ("" for OptArg::None); returns false to
  /// report a malformed value.
  std::function<bool(const std::string &)> Set;
};

/// A table of options plus the parse/help drivers over it.
class OptionTable {
public:
  /// Adds a fully specified option row.
  void add(OptionSpec Spec);

  /// Convenience rows for the common shapes.
  void addFlag(const std::string &Name, const std::string &Help,
               bool &Target, bool Value = true);
  void addString(const std::string &Name, const std::string &Meta,
                 const std::string &Help, std::string &Target);
  void addUnsigned(const std::string &Name, const std::string &Meta,
                   const std::string &Help, unsigned &Target);
  void addDouble(const std::string &Name, const std::string &Meta,
                 const std::string &Help, double &Target);

  /// Parses argv[1..argc-1]. Plain arguments append to \p Positional.
  /// Returns false with a message in \p Error on an unknown option or
  /// any malformed input. `--help`/`-h` are handled by the caller (add a
  /// flag row for them).
  bool parse(int argc, char **argv, std::string &Error,
             std::vector<std::string> *Positional) const;

  /// Renders the generated help text: \p UsageLine, then one aligned row
  /// per option in registration order.
  std::string help(const std::string &UsageLine) const;

private:
  std::vector<OptionSpec> Specs;
};

} // namespace cpr

#endif // SUPPORT_OPTIONPARSER_H
