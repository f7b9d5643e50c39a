/// Unit tests for the utility layer: flop accounting, RNG, table, CLI.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "fsi/util/check.hpp"
#include "fsi/util/cli.hpp"
#include "fsi/util/flops.hpp"
#include "fsi/util/rng.hpp"
#include "fsi/util/table.hpp"
#include "fsi/util/timer.hpp"

namespace {

using namespace fsi;

TEST(Flops, AccumulatesAcrossThreads) {
  util::flops::reset();
  util::flops::Scope scope;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([] { util::flops::add(100); });
  for (auto& w : workers) w.join();
  util::flops::add(1);
  EXPECT_EQ(scope.elapsed(), 401u);
}

TEST(Flops, CountsSurviveThreadExit) {
  util::flops::reset();
  {
    std::thread t([] { util::flops::add(7); });
    t.join();
  }
  EXPECT_GE(util::flops::total(), 7u);
}

TEST(StageTimer, NamedBucketsKeepInsertionOrder) {
  util::StageTimer timer;
  {
    util::StageTimer::Guard g(timer, "cls");
  }
  {
    util::StageTimer::Guard g(timer, "bsofi");
  }
  {
    util::StageTimer::Guard g(timer, "cls");  // accumulates, no new bucket
  }
  ASSERT_EQ(timer.size(), 2u);
  std::vector<std::string> names;
  for (const auto& [name, s] : timer) {
    names.push_back(name);
    EXPECT_GE(s, 0.0);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"cls", "bsofi"}));
  EXPECT_GE(timer.seconds("cls"), 0.0);
  EXPECT_EQ(timer.seconds("missing"), 0.0);
}

TEST(StageTimer, ResetZeroesValuesButKeepsNames) {
  util::StageTimer timer;
  timer.bucket("wrap") = 1.5;
  timer.bucket("cls") = 0.5;
  timer.reset();
  ASSERT_EQ(timer.size(), 2u);
  EXPECT_EQ(timer.seconds("wrap"), 0.0);
  EXPECT_EQ(timer.seconds("cls"), 0.0);
}

TEST(StageTimer, BucketReferencesSurviveLaterInsertions) {
  util::StageTimer timer;
  double& first = timer.bucket("first");
  // Creating many more buckets must not invalidate the earlier reference.
  for (int i = 0; i < 100; ++i) {
    std::string name = "b";
    name += std::to_string(i);
    timer.bucket(name);
  }
  first += 2.0;
  EXPECT_EQ(timer.seconds("first"), 2.0);
}

TEST(Rng, DeterministicPerSeed) {
  util::Rng a(123), b(123), c(124);
  EXPECT_EQ(a(), b());
  util::Rng a2(123);
  EXPECT_NE(a2(), c());
}

TEST(Rng, StreamsAreIndependent) {
  util::Rng a(1, 0), b(1, 1);
  bool differs = false;
  for (int i = 0; i < 8; ++i)
    if (a() != b()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, SpinIsPlusMinusOne) {
  util::Rng rng(6);
  int plus = 0;
  for (int i = 0; i < 1000; ++i) {
    const int s = rng.spin();
    EXPECT_TRUE(s == 1 || s == -1);
    if (s == 1) ++plus;
  }
  // Unbiased within loose bounds.
  EXPECT_GT(plus, 400);
  EXPECT_LT(plus, 600);
}

TEST(Table, FormatsAlignedColumns) {
  util::Table t({"N", "Gflops"});
  t.add_row({"256", "12.5"});
  t.add_row({"1024", "180.0"});
  const std::string s = t.str();
  EXPECT_NE(s.find("N"), std::string::npos);
  EXPECT_NE(s.find("180.0"), std::string::npos);
  EXPECT_NE(s.find('|'), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), util::CheckError);
}

TEST(Cli, ParsesBothSyntaxes) {
  const char* argv[] = {"prog", "--N", "400", "--c=10", "--verbose", "--x", "1.5"};
  util::Cli cli(7, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("N", 0), 400);
  EXPECT_EQ(cli.get_int("c", 0), 10);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 1.5);
  EXPECT_EQ(cli.get_int("missing", -7), -7);
}

}  // namespace
