// Topology discovery: cpulist parsing, a faked sysfs node tree, and the
// single-domain fallback every non-Linux / single-socket host takes.
#include "reconcile/util/topology.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace reconcile {
namespace {

namespace fs = std::filesystem;

TEST(CpuListTest, ParsesSinglesRangesAndMixes) {
  std::vector<int> cpus;
  ASSERT_TRUE(ParseCpuList("0", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{0}));
  ASSERT_TRUE(ParseCpuList("0-3", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_TRUE(ParseCpuList("0-2,5,7-8", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2, 5, 7, 8}));
  ASSERT_TRUE(ParseCpuList(" 4-5 \n", &cpus));  // sysfs lines end in \n
  EXPECT_EQ(cpus, (std::vector<int>{4, 5}));
}

TEST(CpuListTest, EmptyIsMemoryOnlyNode) {
  std::vector<int> cpus{99};
  ASSERT_TRUE(ParseCpuList("", &cpus));
  EXPECT_TRUE(cpus.empty());
  ASSERT_TRUE(ParseCpuList("\n", &cpus));
  EXPECT_TRUE(cpus.empty());
}

TEST(CpuListTest, RejectsMalformedInput) {
  std::vector<int> cpus;
  EXPECT_FALSE(ParseCpuList("a", &cpus));
  EXPECT_FALSE(ParseCpuList("1-", &cpus));
  EXPECT_FALSE(ParseCpuList("-3", &cpus));
  EXPECT_FALSE(ParseCpuList("5-2", &cpus));  // inverted range
  EXPECT_FALSE(ParseCpuList("1,,2", &cpus));
  EXPECT_FALSE(ParseCpuList("1;2", &cpus));
  // Values that would overflow int are malformed, not UB.
  EXPECT_FALSE(ParseCpuList("99999999999", &cpus));
  EXPECT_FALSE(ParseCpuList("0-99999999999", &cpus));
}

// Writes a /sys/devices/system/node-shaped tree under a temp dir.
class FakeSysfsTree {
 public:
  explicit FakeSysfsTree(const std::string& name) {
    root_ = fs::path(testing::TempDir()) / name;
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~FakeSysfsTree() { fs::remove_all(root_); }

  void AddNode(int id, const std::string& cpulist) {
    const fs::path dir = root_ / ("node" + std::to_string(id));
    fs::create_directories(dir);
    std::ofstream file(dir / "cpulist");
    file << cpulist << "\n";
  }

  void AddNoise(const std::string& name) {
    fs::create_directories(root_ / name);
  }

  std::string path() const { return root_.string(); }

 private:
  fs::path root_;
};

TEST(SysfsTopologyTest, ParsesTwoSocketTree) {
  FakeSysfsTree tree("reconcile_topo_two_socket");
  tree.AddNode(0, "0-3");
  tree.AddNode(1, "4-7");
  // The real sysfs dir also holds non-node entries; they must be ignored.
  tree.AddNoise("power");
  tree.AddNoise("online");

  MachineTopology topo;
  ASSERT_TRUE(ParseSysfsNodeTree(tree.path(), &topo));
  ASSERT_EQ(topo.num_domains(), 2);
  EXPECT_EQ(topo.domains[0].id, 0);
  EXPECT_EQ(topo.domains[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.domains[1].id, 1);
  EXPECT_EQ(topo.domains[1].cpus, (std::vector<int>{4, 5, 6, 7}));
}

TEST(SysfsTopologyTest, SparseNodeIdsSortById) {
  FakeSysfsTree tree("reconcile_topo_sparse");
  tree.AddNode(2, "8-11");
  tree.AddNode(0, "0-3");
  MachineTopology topo;
  ASSERT_TRUE(ParseSysfsNodeTree(tree.path(), &topo));
  ASSERT_EQ(topo.num_domains(), 2);
  EXPECT_EQ(topo.domains[0].id, 0);
  EXPECT_EQ(topo.domains[1].id, 2);
}

TEST(SysfsTopologyTest, MemoryOnlyNodeParsesWithNoCpus) {
  FakeSysfsTree tree("reconcile_topo_memonly");
  tree.AddNode(0, "0-7");
  tree.AddNode(1, "");  // CXL-style memory-only node
  MachineTopology topo;
  ASSERT_TRUE(ParseSysfsNodeTree(tree.path(), &topo));
  ASSERT_EQ(topo.num_domains(), 2);
  EXPECT_TRUE(topo.domains[1].cpus.empty());
}

TEST(SysfsTopologyTest, MissingTreeFailsToParse) {
  MachineTopology topo;
  EXPECT_FALSE(ParseSysfsNodeTree(
      (fs::path(testing::TempDir()) / "reconcile_no_such_dir").string(),
      &topo));
}

TEST(SysfsTopologyTest, TreeWithoutNodesFailsToParse) {
  FakeSysfsTree tree("reconcile_topo_empty");
  tree.AddNoise("power");
  MachineTopology topo;
  EXPECT_FALSE(ParseSysfsNodeTree(tree.path(), &topo));
}

TEST(SysfsTopologyTest, MalformedCpuListFailsToParse) {
  FakeSysfsTree tree("reconcile_topo_bad");
  tree.AddNode(0, "0-3");
  tree.AddNode(1, "not-a-list");
  MachineTopology topo;
  EXPECT_FALSE(ParseSysfsNodeTree(tree.path(), &topo));
}

TEST(FallbackTopologyTest, SingleDomainCoversAllCpus) {
  MachineTopology topo = SingleDomainTopology();
  ASSERT_EQ(topo.num_domains(), 1);
  EXPECT_FALSE(topo.domains[0].cpus.empty());
  EXPECT_EQ(topo.domains[0].cpus.front(), 0);
}

TEST(FallbackTopologyTest, DetectTopologyAlwaysYieldsAtLeastOneDomain) {
  // Whatever this host looks like (the CI container is single-core), the
  // cached detection must land on a usable topology.
  const MachineTopology& topo = DetectTopology();
  EXPECT_GE(topo.num_domains(), 1);
}

}  // namespace
}  // namespace reconcile
