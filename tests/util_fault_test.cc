// Deterministic fault injection: the spec parser must accept the documented
// grammar and reject malformed entries without arming anything, io points
// must fire on exactly their armed 1-based hit, stop points must request a
// graceful stop, and disarming must silence everything. (The crash kind is
// covered end to end by integration_kill_resume_test, which can afford to
// lose a process.)
#include "reconcile/util/fault.h"

#include <string>

#include <gtest/gtest.h>

#include "reconcile/util/shutdown.h"

namespace reconcile {
namespace {

class FaultTest : public testing::Test {
 protected:
  void SetUp() override {
    DisarmFaults();
    ClearGracefulStop();
  }
  void TearDown() override {
    DisarmFaults();
    ClearGracefulStop();
  }
};

TEST_F(FaultTest, EmptySpecArmsNothing) {
  std::string error;
  EXPECT_TRUE(ArmFaults("", &error));
  EXPECT_EQ(ArmedFaultSpec(), "");
  EXPECT_FALSE(FaultPointHit("checkpoint_write_fail"));
}

TEST_F(FaultTest, ValidSpecsParse) {
  std::string error;
  EXPECT_TRUE(ValidateFaultSpec("crash:after_round=3", &error));
  EXPECT_TRUE(ValidateFaultSpec("stop:after_round=2", &error));
  EXPECT_TRUE(ValidateFaultSpec("io:checkpoint_write_fail", &error));
  EXPECT_TRUE(ValidateFaultSpec("io:checkpoint_truncate=2", &error));
  EXPECT_TRUE(ValidateFaultSpec(
      "io:checkpoint_write_fail;stop:after_round=1,io:checkpoint_truncate=3",
      &error));
  // Threshold points (the `_after` suffix) accept 0: "fail every hit".
  EXPECT_TRUE(ValidateFaultSpec("io:enospc_after=0", &error));
  EXPECT_TRUE(ValidateFaultSpec("io:spill_write_fail=2", &error));
}

TEST_F(FaultTest, ThresholdPointFiresEveryHitPastTheValue) {
  std::string error;
  ASSERT_TRUE(ArmFaults("io:enospc_after=2", &error));
  EXPECT_FALSE(FaultPointExhausted("enospc_after"));  // hit 1
  EXPECT_FALSE(FaultPointExhausted("enospc_after"));  // hit 2
  EXPECT_TRUE(FaultPointExhausted("enospc_after"));   // hit 3: disk "full"
  EXPECT_TRUE(FaultPointExhausted("enospc_after"));   // stays full
}

TEST_F(FaultTest, ThresholdZeroFailsEveryHit) {
  std::string error;
  ASSERT_TRUE(ArmFaults("io:enospc_after=0", &error));
  EXPECT_TRUE(FaultPointExhausted("enospc_after"));
  EXPECT_TRUE(FaultPointExhausted("enospc_after"));
}

TEST_F(FaultTest, MalformedSpecsRejectedWithDiagnostic) {
  const char* bad[] = {
      "after_round=3",         // no kind
      "explode:after_round=1", // unknown kind
      "crash:",                // no point
      "crash:after_round=x",   // non-integer value
      "io:point=0",            // io hit index must be >= 1
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(ValidateFaultSpec(spec, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
    EXPECT_FALSE(ArmFaults(spec, &error)) << spec;
  }
  // Nothing was armed by the failed attempts.
  EXPECT_EQ(ArmedFaultSpec(), "");
}

TEST_F(FaultTest, RemovedWorkerCrashKindIsRejected) {
  std::string error;
  EXPECT_FALSE(ValidateFaultSpec("worker_crash:after_shard=1", &error));
  EXPECT_NE(error.find("unknown kind 'worker_crash'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("want crash, stop or io"), std::string::npos) << error;
}

TEST_F(FaultTest, MalformedArmLeavesPreviousSetIntact) {
  std::string error;
  ASSERT_TRUE(ArmFaults("io:checkpoint_write_fail", &error));
  EXPECT_FALSE(ArmFaults("garbage", &error));
  EXPECT_EQ(ArmedFaultSpec(), "io:checkpoint_write_fail=1");
}

TEST_F(FaultTest, IoPointFiresOnExactlyTheArmedHit) {
  std::string error;
  ASSERT_TRUE(ArmFaults("io:checkpoint_write_fail=3", &error));
  EXPECT_FALSE(FaultPointHit("checkpoint_write_fail"));  // hit 1
  EXPECT_FALSE(FaultPointHit("checkpoint_write_fail"));  // hit 2
  EXPECT_TRUE(FaultPointHit("checkpoint_write_fail"));   // hit 3 fires
  EXPECT_FALSE(FaultPointHit("checkpoint_write_fail"));  // hit 4
  // Other points are untouched by this entry.
  EXPECT_FALSE(FaultPointHit("checkpoint_truncate"));
}

TEST_F(FaultTest, StopPointRequestsGracefulStopAtItsValueOnly) {
  std::string error;
  ASSERT_TRUE(ArmFaults("stop:after_round=2", &error));
  FaultValuePoint("after_round", 1);
  EXPECT_FALSE(GracefulStopRequested());
  FaultValuePoint("after_round", 2);
  EXPECT_TRUE(GracefulStopRequested());
}

TEST_F(FaultTest, ValuePointIgnoresOtherPointNames) {
  std::string error;
  ASSERT_TRUE(ArmFaults("stop:after_round=1", &error));
  FaultValuePoint("some_other_point", 1);
  EXPECT_FALSE(GracefulStopRequested());
}

TEST_F(FaultTest, DisarmSilencesEverything) {
  std::string error;
  ASSERT_TRUE(ArmFaults("io:checkpoint_write_fail;stop:after_round=1",
                        &error));
  DisarmFaults();
  EXPECT_EQ(ArmedFaultSpec(), "");
  EXPECT_FALSE(FaultPointHit("checkpoint_write_fail"));
  FaultValuePoint("after_round", 1);
  EXPECT_FALSE(GracefulStopRequested());
}

TEST_F(FaultTest, RearmResetsHitCounters) {
  std::string error;
  ASSERT_TRUE(ArmFaults("io:checkpoint_write_fail=2", &error));
  EXPECT_FALSE(FaultPointHit("checkpoint_write_fail"));
  ASSERT_TRUE(ArmFaults("io:checkpoint_write_fail=2", &error));
  EXPECT_FALSE(FaultPointHit("checkpoint_write_fail"));  // counter restarted
  EXPECT_TRUE(FaultPointHit("checkpoint_write_fail"));
}

}  // namespace
}  // namespace reconcile
