//===- bench/bench_table1_cmpp.cpp - Paper Table 1 ------------------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
// Regenerates Table 1: the behavior of the PlayDoh two-target compare
// destination actions (un/uc/on/oc/an/ac) as a function of the input
// (guard) predicate and the comparison result, printed from the library's
// executable semantics.
//
//===----------------------------------------------------------------------===//

#include "ir/CmppAction.h"
#include "support/TableFormat.h"

#include <cstdio>

using namespace cpr;

namespace {

void printTable1() {
  TextTable T;
  T.setHeader({"input predicate", "result of compare", "un", "uc", "on",
               "oc", "an", "ac"});
  for (int Guard = 0; Guard <= 1; ++Guard)
    for (int Cmp = 0; Cmp <= 1; ++Cmp) {
      std::vector<std::string> Row{std::to_string(Guard),
                                   std::to_string(Cmp)};
      for (CmppAction A : {CmppAction::UN, CmppAction::UC, CmppAction::ON,
                           CmppAction::OC, CmppAction::AN, CmppAction::AC}) {
        std::optional<bool> R = evalCmppAction(A, Guard != 0, Cmp != 0);
        Row.push_back(R ? std::to_string(*R ? 1 : 0) : "-");
      }
      T.addRow(Row);
    }
  std::printf("Table 1: behavior of compare operations ('-' = destination "
              "left untouched)\n\n%s\n",
              T.render().c_str());
}

} // namespace

int main() {
  printTable1();
  return 0;
}
