#include "reconcile/api/registry.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include <gtest/gtest.h>

#include "reconcile/api/spec.h"

namespace reconcile {
namespace {

TEST(RegistryTest, BuiltinAlgorithmsAreRegistered) {
  const std::vector<std::string> keys = Registry::Global().Keys();
  for (const char* expected :
       {"core", "simple", "ns09", "features", "percolation", "bp"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), expected), keys.end())
        << expected;
  }
}

TEST(RegistryTest, EveryRegisteredKeyConstructsFromDefaultSpec) {
  for (const std::string& key : Registry::Global().Keys()) {
    std::string error;
    auto reconciler = Registry::Global().Create(ReconcilerSpec(key), &error);
    ASSERT_NE(reconciler, nullptr) << key << ": " << error;
    EXPECT_EQ(reconciler->name(), key);
    EXPECT_FALSE(reconciler->Describe().empty()) << key;
  }
}

// What `reconcile_cli` prints for each built-in key at its default spec.
TEST(RegistryTest, BuiltinAdaptersDescribeTheirDefaults) {
  struct Expected {
    const char* key;
    const char* describe;
    bool phase_stats;
  };
  const Expected expected[] = {
      {"core", "core(threshold=2, iterations=2, bucketing=on)", true},
      {"simple", "simple(threshold=1, iterations=2)", true},
      {"ns09", "ns09(theta=0.5, max-sweeps=5, reverse-check=on)", false},
      {"features",
       "features(depth=2, degree-band=2, max-candidates=64, "
       "min-similarity=0.98, min-degree=2)",
       false},
      {"bp",
       "bp(iterations=8, damping=0.5, prior=0.5, min-belief=0.8, "
       "max-sweeps=5, max-candidates=8)",
       false},
      {"percolation", "percolation(threshold=2, min-degree=0)", false}};
  ASSERT_EQ(Registry::Global().Keys().size(), std::size(expected));
  for (const Expected& e : expected) {
    auto reconciler = Registry::Global().CreateOrDie(ReconcilerSpec(e.key));
    EXPECT_EQ(reconciler->name(), e.key);
    EXPECT_EQ(reconciler->Describe(), e.describe);
    EXPECT_EQ(reconciler->ExposesPhaseStats(), e.phase_stats) << e.key;
  }
}

TEST(RegistryTest, UnknownKeyFailsWithListing) {
  std::string error;
  auto reconciler =
      Registry::Global().Create(ReconcilerSpec("not-an-algorithm"), &error);
  EXPECT_EQ(reconciler, nullptr);
  EXPECT_NE(error.find("not-an-algorithm"), std::string::npos);
  EXPECT_NE(error.find("core"), std::string::npos);  // lists what exists
}

TEST(RegistryTest, UnknownParameterFailsWithClearError) {
  std::string error;
  auto reconciler = Registry::Global().Create(
      ReconcilerSpec("core").Set("thresold", "3"), &error);
  EXPECT_EQ(reconciler, nullptr);
  EXPECT_NE(error.find("thresold"), std::string::npos);
  EXPECT_NE(error.find("core"), std::string::npos);
}

TEST(RegistryTest, RemovedSchedulingParamsAreUnknown) {
  const std::pair<const char*, const char*> removed[] = {
      {"core", "scheduler"},
      {"core", "placement"},
      {"core", "placement-domains"},
      {"core", "backend"},
      {"core", "incremental"},
      {"core", "parallel-selection"},
      {"core", "workers"},
      {"core", "worker-retry"},
      {"core", "worker-timeout-ms"},
      {"core", "grain"},
      {"core", "max-tiers"},
      {"core", "tier-ratio"},
      {"bp", "scheduler"},
      {"bp", "grain"}};
  for (const auto& [key, param] : removed) {
    std::string error;
    EXPECT_EQ(Registry::Global().Create(ReconcilerSpec(key).Set(param, "1"),
                                        &error),
              nullptr)
        << key << ":" << param;
    EXPECT_NE(error.find(param), std::string::npos) << error;
  }
}

TEST(RegistryTest, MalformedValueFails) {
  std::string error;
  auto reconciler = Registry::Global().Create(
      ReconcilerSpec("core").Set("threshold", "lots"), &error);
  EXPECT_EQ(reconciler, nullptr);
  EXPECT_NE(error.find("threshold"), std::string::npos);
}

TEST(RegistryTest, OutOfRangeValuesAreSpecErrorsNotCrashes) {
  std::string error;
  EXPECT_EQ(Registry::Global().Create(
                ReconcilerSpec("percolation").Set("threshold", "1"), &error),
            nullptr);
  EXPECT_NE(error.find("threshold"), std::string::npos);
  EXPECT_EQ(Registry::Global().Create(
                ReconcilerSpec("features").Set("depth", "9"), &error),
            nullptr);
  EXPECT_NE(error.find("depth"), std::string::npos);
  // The smallest bucket's degree floor is 1 << exponent in a 32-bit id.
  for (const char* exponent : {"-1", "40"}) {
    EXPECT_EQ(Registry::Global().Create(
                  ReconcilerSpec("core").Set("min-bucket-exponent", exponent),
                  &error),
              nullptr)
        << exponent;
    EXPECT_NE(error.find("min-bucket-exponent"), std::string::npos);
  }
  const std::pair<const char*, const char*> negative[] = {
      {"core", "threads"}, {"core", "shards"}, {"simple", "threads"},
      {"bp", "threads"}};
  for (const auto& [key, param] : negative) {
    EXPECT_EQ(Registry::Global().Create(ReconcilerSpec(key).Set(param, "-1"),
                                        &error),
              nullptr)
        << key << ":" << param;
    EXPECT_NE(error.find(std::string("'") + param + "' must be >= 0"),
              std::string::npos)
        << error;
  }
}

TEST(RegistryTest, IntNarrowingIsRangeChecked) {
  std::string error;
  // Would silently wrap to iterations=1 with a bare static_cast<int>.
  EXPECT_EQ(Registry::Global().Create(
                ReconcilerSpec("core").Set("iterations", "4294967297"),
                &error),
            nullptr);
  EXPECT_NE(error.find("iterations"), std::string::npos);
  // Overflows int64 parsing entirely (ERANGE).
  EXPECT_EQ(Registry::Global().Create(
                ReconcilerSpec("core").Set("threads", "99999999999999999999"),
                &error),
            nullptr);
  EXPECT_NE(error.find("threads"), std::string::npos);
}

TEST(RegistryTest, ParamsReachTheWrappedConfig) {
  auto reconciler = Registry::Global().CreateOrDie(
      ReconcilerSpec("core")
          .Set("threshold", "4")
          .Set("iterations", "1")
          .Set("bucketing", "false"));
  EXPECT_EQ(reconciler->Describe(),
            "core(threshold=4, iterations=1, bucketing=off)");
}

TEST(RegistryTest, DescribeAllMentionsEveryKey) {
  const std::string listing = Registry::Global().DescribeAll();
  for (const std::string& key : Registry::Global().Keys()) {
    EXPECT_NE(listing.find(key), std::string::npos) << key;
  }
}

TEST(RegistryTest, DuplicateRegistrationDies) {
  Registry registry;
  registry.Register({.key = "x",
                     .summary = "",
                     .params = "",
                     .factory = [](const ReconcilerSpec&, std::string*) {
                       return std::unique_ptr<Reconciler>();
                     }});
  EXPECT_DEATH(
      registry.Register({.key = "x",
                         .summary = "",
                         .params = "",
                         .factory = [](const ReconcilerSpec&, std::string*) {
                           return std::unique_ptr<Reconciler>();
                         }}),
      "duplicate");
}

TEST(SpecTest, ParsePrintRoundTrips) {
  for (const char* text :
       {"core", "core:threshold=3", "ns09:max-sweeps=3,theta=1.5",
        "features:degree-band=2.5,depth=1,min-similarity=0.9"}) {
    ReconcilerSpec spec;
    std::string error;
    ASSERT_TRUE(ReconcilerSpec::Parse(text, &spec, &error)) << error;
    EXPECT_EQ(spec.ToString(), text);
    ReconcilerSpec again;
    ASSERT_TRUE(ReconcilerSpec::Parse(spec.ToString(), &again, &error));
    EXPECT_EQ(spec, again);
  }
}

TEST(SpecTest, ToStringIsCanonicalOrder) {
  ReconcilerSpec spec;
  std::string error;
  ASSERT_TRUE(
      ReconcilerSpec::Parse("core:threshold=3,iterations=1", &spec, &error));
  // Parameters print sorted by key, whatever the input order.
  EXPECT_EQ(spec.ToString(), "core:iterations=1,threshold=3");
}

TEST(SpecTest, MalformedSpecsAreRejected) {
  ReconcilerSpec spec;
  std::string error;
  EXPECT_FALSE(ReconcilerSpec::Parse("", &spec, &error));
  EXPECT_FALSE(ReconcilerSpec::Parse(":threshold=3", &spec, &error));
  EXPECT_FALSE(ReconcilerSpec::Parse("core:threshold", &spec, &error));
  EXPECT_FALSE(ReconcilerSpec::Parse("core:=3", &spec, &error));
  EXPECT_FALSE(ReconcilerSpec::Parse("core:,", &spec, &error));
}

TEST(SpecTest, MergeParamsOverridesAndAppends) {
  ReconcilerSpec spec("core");
  spec.Set("threshold", "2");
  std::string error;
  ASSERT_TRUE(spec.MergeParams("threshold=5,iterations=1", &error)) << error;
  EXPECT_EQ(spec.params.at("threshold"), "5");
  EXPECT_EQ(spec.params.at("iterations"), "1");
  EXPECT_FALSE(spec.MergeParams("oops", &error));
}

}  // namespace
}  // namespace reconcile
