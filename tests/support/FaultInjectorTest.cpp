//===- tests/support/FaultInjectorTest.cpp - Fault-site registry ----------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace cpr;

namespace {

TEST(FaultInjectorTest, CatalogIsRegisteredUpFront) {
  std::vector<std::string> Sites = fault::sites();
  // The full catalog must be iterable without any arming having happened
  // (campaigns enumerate it).
  for (const char *Name :
       {"alloc", "cpr.restructure.plan", "cpr.restructure.compensation",
        "cpr.offtrace.move", "ir.verify", "interp.oracle",
        "pipeline.transform", "serve.cache.insert", "serve.dispatch.enqueue",
        "serve.frame.decode", "serve.socket.write"}) {
    EXPECT_TRUE(fault::isKnownSite(Name)) << Name;
    EXPECT_NE(std::find(Sites.begin(), Sites.end(), Name), Sites.end())
        << Name;
  }
  EXPECT_TRUE(std::is_sorted(Sites.begin(), Sites.end()));
  EXPECT_FALSE(fault::isKnownSite("no.such.site"));
}

TEST(FaultInjectorTest, DisarmedIsFree) {
  EXPECT_EQ(fault::armedSite(), "");
  EXPECT_FALSE(fault::shouldFail("alloc"));
  EXPECT_FALSE(fault::fired());
  EXPECT_EQ(fault::armedHits(), 0u);
}

TEST(FaultInjectorTest, NthHitSelection) {
  fault::arm("alloc", 3);
  EXPECT_EQ(fault::armedSite(), "alloc");
  EXPECT_FALSE(fault::shouldFail("alloc")); // hit 1
  EXPECT_FALSE(fault::shouldFail("alloc")); // hit 2
  EXPECT_FALSE(fault::fired());
  EXPECT_TRUE(fault::shouldFail("alloc")); // hit 3: fires
  EXPECT_TRUE(fault::fired());
  // Fires exactly once.
  EXPECT_FALSE(fault::shouldFail("alloc"));
  EXPECT_EQ(fault::armedHits(), 4u);
  fault::disarm();
  EXPECT_EQ(fault::armedSite(), "");
  EXPECT_FALSE(fault::fired());
}

TEST(FaultInjectorTest, OtherSitesDoNotCountOrFire) {
  fault::ScopedFault Armed("ir.verify", 1);
  EXPECT_FALSE(fault::shouldFail("alloc"));
  EXPECT_FALSE(fault::shouldFail("interp.oracle"));
  EXPECT_EQ(fault::armedHits(), 0u);
  EXPECT_TRUE(fault::shouldFail("ir.verify"));
}

TEST(FaultInjectorTest, ScopedFaultDisarmsOnExit) {
  {
    fault::ScopedFault Armed("pipeline.transform");
    EXPECT_EQ(fault::armedSite(), "pipeline.transform");
  }
  EXPECT_EQ(fault::armedSite(), "");
  EXPECT_FALSE(fault::shouldFail("pipeline.transform"));
}

TEST(FaultInjectorTest, RearmResetsHitCount) {
  fault::arm("alloc", 2);
  EXPECT_FALSE(fault::shouldFail("alloc"));
  fault::arm("alloc", 2); // re-arm: the earlier hit is forgotten
  EXPECT_FALSE(fault::shouldFail("alloc"));
  EXPECT_TRUE(fault::shouldFail("alloc"));
  fault::disarm();
}

TEST(FaultInjectorTest, PrivateSitesRegisterOnTheFly) {
  const char *Private = "test.private.site";
  EXPECT_TRUE(fault::arm(Private, 1));
  EXPECT_TRUE(fault::isKnownSite(Private));
  EXPECT_TRUE(fault::shouldFail(Private));
  fault::disarm();
}

TEST(FaultInjectorTest, ZeroNthHitArmsNothing) {
  EXPECT_FALSE(fault::arm("alloc", 0));
  EXPECT_EQ(fault::armedSite(), "");
  EXPECT_FALSE(fault::shouldFail("alloc"));
}

TEST(FaultInjectorTest, EveryHitFiresOnEveryHit) {
  {
    fault::ScopedFault Armed("cpr.restructure.compensation",
                             fault::EveryHit);
    for (int I = 0; I < 5; ++I)
      EXPECT_TRUE(fault::shouldFail("cpr.restructure.compensation")) << I;
    EXPECT_FALSE(fault::shouldFail("alloc"));
    EXPECT_EQ(fault::armedHits(), 5u);
    // A scoped armer given NthHit 0 arms nothing and, on exit, leaves the
    // outer arming in place.
    { fault::ScopedFault Off("alloc", 0); }
    EXPECT_EQ(fault::armedSite(), "cpr.restructure.compensation");
  }
  EXPECT_EQ(fault::armedSite(), "");
}

} // namespace
