//===- support/OptionParser.cpp - Declarative CLI option table -------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/OptionParser.h"

#include <algorithm>
#include <cstdlib>

using namespace cpr;

void OptionTable::add(OptionSpec Spec) { Specs.push_back(std::move(Spec)); }

void OptionTable::addFlag(const std::string &Name, const std::string &Help,
                          bool &Target, bool Value) {
  add({Name, OptArg::None, "", Help, [&Target, Value](const std::string &) {
         Target = Value;
         return true;
       }});
}

void OptionTable::addString(const std::string &Name, const std::string &Meta,
                            const std::string &Help, std::string &Target) {
  add({Name, OptArg::Joined, Meta, Help, [&Target](const std::string &V) {
         Target = V;
         return true;
       }});
}

void OptionTable::addUnsigned(const std::string &Name,
                              const std::string &Meta,
                              const std::string &Help, unsigned &Target) {
  add({Name, OptArg::Joined, Meta, Help, [&Target](const std::string &V) {
         char *End = nullptr;
         unsigned long N = std::strtoul(V.c_str(), &End, 10);
         if (V.empty() || *End != '\0')
           return false;
         Target = static_cast<unsigned>(N);
         return true;
       }});
}

void OptionTable::addDouble(const std::string &Name, const std::string &Meta,
                            const std::string &Help, double &Target) {
  add({Name, OptArg::Joined, Meta, Help, [&Target](const std::string &V) {
         char *End = nullptr;
         double D = std::strtod(V.c_str(), &End);
         if (V.empty() || *End != '\0')
           return false;
         Target = D;
         return true;
       }});
}

bool OptionTable::parse(int argc, char **argv, std::string &Error,
                        std::vector<std::string> *Positional) const {
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.empty() || Arg[0] != '-') {
      if (Positional)
        Positional->push_back(Arg);
      continue;
    }
    const OptionSpec *Match = nullptr;
    std::string Value;
    bool HaveValue = false;
    for (const OptionSpec &S : Specs) {
      if (S.Kind == OptArg::Joined &&
          Arg.compare(0, S.Name.size() + 1, S.Name + "=") == 0) {
        Match = &S;
        Value = Arg.substr(S.Name.size() + 1);
        HaveValue = true;
        break;
      }
      if (Arg == S.Name) {
        Match = &S;
        break;
      }
    }
    if (!Match) {
      Error = "unknown option '" + Arg + "'";
      return false;
    }
    switch (Match->Kind) {
    case OptArg::None:
      break;
    case OptArg::Joined:
      if (!HaveValue) {
        Error = "option '" + Match->Name + "' requires " + Match->Name +
                "=" + (Match->Meta.empty() ? "<value>" : Match->Meta);
        return false;
      }
      break;
    case OptArg::Separate:
      if (I + 1 >= argc) {
        Error = "option '" + Match->Name + "' requires an argument";
        return false;
      }
      Value = argv[++I];
      break;
    }
    if (!Match->Set(Value)) {
      Error = "bad value '" + Value + "' for option '" + Match->Name + "'";
      return false;
    }
  }
  return true;
}

std::string OptionTable::help(const std::string &UsageLine) const {
  std::string Out = UsageLine;
  if (!Out.empty() && Out.back() != '\n')
    Out += '\n';
  size_t Width = 0;
  auto Lhs = [](const OptionSpec &S) {
    switch (S.Kind) {
    case OptArg::None:
      return S.Name;
    case OptArg::Joined:
      return S.Name + "=" + (S.Meta.empty() ? "<value>" : S.Meta);
    case OptArg::Separate:
      return S.Name + " " + (S.Meta.empty() ? "<value>" : S.Meta);
    }
    return S.Name;
  };
  for (const OptionSpec &S : Specs)
    Width = std::max(Width, Lhs(S).size());
  for (const OptionSpec &S : Specs) {
    std::string L = Lhs(S);
    Out += "  " + L + std::string(Width - L.size() + 2, ' ') + S.Help + "\n";
  }
  return Out;
}
