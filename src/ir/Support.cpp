//===- ir/Support.cpp - Register, action, and condition helpers -----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/CmppAction.h"
#include "ir/CompareCond.h"
#include "ir/Register.h"
#include "support/Error.h"

#include <cstring>

using namespace cpr;

const char *cpr::regClassPrefix(RegClass RC) {
  switch (RC) {
  case RegClass::GPR:
    return "r";
  case RegClass::FPR:
    return "f";
  case RegClass::PR:
    return "p";
  case RegClass::BTR:
    return "b";
  }
  CPR_UNREACHABLE("bad register class");
}

bool cpr::parseRegId(std::string_view Digits, uint32_t &Id) {
  if (Digits.empty())
    return false;
  uint32_t V = 0;
  for (char C : Digits) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint32_t>(C - '0');
    if (V > MaxRegId)
      return false; // stops before V * 10 can overflow
  }
  Id = V;
  return true;
}

std::string Reg::str() const {
  if (isTruePred())
    return "T";
  return std::string(regClassPrefix(Class)) + std::to_string(Id);
}

const char *cpr::cmppActionName(CmppAction Act) {
  switch (Act) {
  case CmppAction::None:
    return "none";
  case CmppAction::UN:
    return "un";
  case CmppAction::UC:
    return "uc";
  case CmppAction::ON:
    return "on";
  case CmppAction::OC:
    return "oc";
  case CmppAction::AN:
    return "an";
  case CmppAction::AC:
    return "ac";
  }
  CPR_UNREACHABLE("bad cmpp action");
}

std::optional<CmppAction> cpr::parseCmppAction(const char *Name) {
  for (CmppAction A : {CmppAction::UN, CmppAction::UC, CmppAction::ON,
                       CmppAction::OC, CmppAction::AN, CmppAction::AC})
    if (std::strcmp(cmppActionName(A), Name) == 0)
      return A;
  return std::nullopt;
}

std::optional<bool> cpr::evalCmppAction(CmppAction Act, bool Guard, bool Cmp) {
  switch (Act) {
  case CmppAction::None:
    break;
  case CmppAction::UN:
    // Unconditional targets always write, even under a false guard (the
    // "0 / 0" rows of Table 1).
    return Guard && Cmp;
  case CmppAction::UC:
    return Guard && !Cmp;
  case CmppAction::ON:
    if (Guard && Cmp)
      return true;
    return std::nullopt;
  case CmppAction::OC:
    if (Guard && !Cmp)
      return true;
    return std::nullopt;
  case CmppAction::AN:
    if (Guard && !Cmp)
      return false;
    return std::nullopt;
  case CmppAction::AC:
    if (Guard && Cmp)
      return false;
    return std::nullopt;
  }
  CPR_UNREACHABLE("evalCmppAction on a non-cmpp destination");
}

const char *cpr::compareCondName(CompareCond C) {
  switch (C) {
  case CompareCond::None:
    return "none";
  case CompareCond::EQ:
    return "eq";
  case CompareCond::NE:
    return "ne";
  case CompareCond::LT:
    return "lt";
  case CompareCond::LE:
    return "le";
  case CompareCond::GT:
    return "gt";
  case CompareCond::GE:
    return "ge";
  }
  CPR_UNREACHABLE("bad compare condition");
}

std::optional<CompareCond> cpr::parseCompareCond(const char *Name) {
  for (CompareCond C : {CompareCond::EQ, CompareCond::NE, CompareCond::LT,
                        CompareCond::LE, CompareCond::GT, CompareCond::GE})
    if (std::strcmp(compareCondName(C), Name) == 0)
      return C;
  return std::nullopt;
}

bool cpr::evalCompareCond(CompareCond C, int64_t A, int64_t B) {
  switch (C) {
  case CompareCond::None:
    break;
  case CompareCond::EQ:
    return A == B;
  case CompareCond::NE:
    return A != B;
  case CompareCond::LT:
    return A < B;
  case CompareCond::LE:
    return A <= B;
  case CompareCond::GT:
    return A > B;
  case CompareCond::GE:
    return A >= B;
  }
  CPR_UNREACHABLE("evalCompareCond on None");
}

CompareCond cpr::invertCompareCond(CompareCond C) {
  switch (C) {
  case CompareCond::None:
    break;
  case CompareCond::EQ:
    return CompareCond::NE;
  case CompareCond::NE:
    return CompareCond::EQ;
  case CompareCond::LT:
    return CompareCond::GE;
  case CompareCond::LE:
    return CompareCond::GT;
  case CompareCond::GT:
    return CompareCond::LE;
  case CompareCond::GE:
    return CompareCond::LT;
  }
  CPR_UNREACHABLE("invertCompareCond on None");
}
