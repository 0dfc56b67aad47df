// Branch-and-bound on the two program shapes Phase-1 hands it: the
// single-row knapsack (compute capacity only) and the compute + storage
// two-row program, whose storage row is about a hundred times the scale of
// the compute row.  Hand instances pin the boundary selections (weightless
// items at zero capacity, an item exactly at capacity, oversized and
// negative-value items); seeded families hold the serving engine to
// ExhaustiveSolver and to the dense-LP oracle (tests/oracle); node-limited
// and gap-limited solves must stay feasible and within their gap; and
// malformed programs are refused rather than solved.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "lpvs/common/rng.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/lp.hpp"
#include "dense_bnb.hpp"

namespace lpvs::solver {
namespace {

BinaryProgram knapsack(std::vector<double> values,
                       std::vector<double> weights, double capacity) {
  BinaryProgram p;
  p.objective = std::move(values);
  p.rows = {std::move(weights)};
  p.rhs = {capacity};
  return p;
}

BinaryProgram random_knapsack(common::Rng& rng, std::size_t n) {
  std::vector<double> values(n);
  std::vector<double> weights(n);
  double total = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    values[j] = rng.uniform(0.5, 10.0);
    weights[j] = rng.uniform(0.2, 4.0);
    total += weights[j];
  }
  return knapsack(values, weights, rng.uniform(0.2, 0.8) * total);
}

BinaryProgram two_row(std::vector<double> values,
                      std::vector<double> compute,
                      std::vector<double> storage, double b0, double b1) {
  BinaryProgram p;
  p.objective = std::move(values);
  p.rows = {std::move(compute), std::move(storage)};
  p.rhs = {b0, b1};
  return p;
}

/// Compute costs in [0.2, 1], storage costs in [10, 100]; each capacity is
/// the given fraction of its row's total.
BinaryProgram random_two_row(common::Rng& rng, std::size_t n,
                             double tightness0, double tightness1) {
  std::vector<double> values(n);
  std::vector<double> compute(n);
  std::vector<double> storage(n);
  double c_total = 0.0;
  double s_total = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    values[j] = rng.uniform(1.0, 10.0);
    compute[j] = rng.uniform(0.2, 1.0);
    storage[j] = rng.uniform(10.0, 100.0);
    c_total += compute[j];
    s_total += storage[j];
  }
  return two_row(values, compute, storage, tightness0 * c_total,
                 tightness1 * s_total);
}

BranchAndBoundSolver::Options node_budget(long max_nodes) {
  BranchAndBoundSolver::Options options;
  options.max_nodes = max_nodes;
  return options;
}

/// Optimum of the LP relaxation: an upper bound on every 0/1 selection.
double lp_bound(const BinaryProgram& p) {
  LpProblem relaxation;
  relaxation.objective = p.objective;
  relaxation.rows = p.rows;
  relaxation.rhs = p.rhs;
  relaxation.upper.assign(p.num_vars(), 1.0);
  const LpSolution lp = LpSolver().solve(relaxation);
  EXPECT_TRUE(lp.optimal());
  return lp.objective;
}

/// Revised B&B, dense oracle and exhaustive search reach one optimum.
void expect_three_way_agreement(const BinaryProgram& p, std::uint64_t seed) {
  const IlpSolution exact = ExhaustiveSolver().solve(p);
  const IlpSolution bnb = BranchAndBoundSolver().solve(p);
  const IlpSolution dense =
      oracle::solve_dense(p, BranchAndBoundSolver::Options{});
  ASSERT_TRUE(exact.optimal()) << "seed " << seed;
  ASSERT_TRUE(bnb.optimal()) << "seed " << seed;
  ASSERT_TRUE(dense.optimal()) << "seed " << seed;
  EXPECT_TRUE(p.feasible(bnb.x)) << "seed " << seed;
  EXPECT_NEAR(bnb.objective, exact.objective, 1e-9 * exact.objective + 1e-9)
      << "seed " << seed;
  EXPECT_NEAR(dense.objective, exact.objective,
              1e-9 * exact.objective + 1e-9)
      << "seed " << seed;
}

TEST(BnbKnapsack, HandInstanceSelection) {
  const BinaryProgram p =
      knapsack({6.0, 10.0, 12.0}, {1.0, 2.0, 3.0}, 5.0);
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 22.0);
  EXPECT_EQ(s.x, (std::vector<int>{0, 1, 1}));
}

TEST(BnbKnapsack, ZeroCapacityTakesOnlyWeightless) {
  const BinaryProgram p =
      knapsack({5.0, 3.0, 4.0}, {0.0, 1.0, 0.0}, 0.0);
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.x, (std::vector<int>{1, 0, 1}));
  EXPECT_DOUBLE_EQ(s.objective, 9.0);
}

TEST(BnbKnapsack, SkipsNegativeValues) {
  const BinaryProgram p = knapsack({-5.0, 7.0}, {1.0, 1.0}, 10.0);
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.x, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(s.objective, 7.0);
}

TEST(BnbKnapsack, OversizedItemNeverTaken) {
  const BinaryProgram p = knapsack({100.0, 1.0}, {11.0, 1.0}, 10.0);
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.x, (std::vector<int>{0, 1}));
}

TEST(BnbKnapsack, ItemExactlyAtCapacityFits) {
  const BinaryProgram p = knapsack({9.0, 1.0}, {10.0, 1.0}, 10.0);
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.x, (std::vector<int>{1, 0}));
}

TEST(BnbKnapsack, NodeLimitedSolvesStayFeasible) {
  common::Rng rng(1);
  const BranchAndBoundSolver solver(node_budget(3));
  for (int trial = 0; trial < 30; ++trial) {
    const BinaryProgram p = random_knapsack(rng, 20);
    const IlpSolution s = solver.solve(p);
    ASSERT_TRUE(to_status(s.status).ok()) << "trial " << trial;
    EXPECT_TRUE(p.feasible(s.x)) << "trial " << trial;
    EXPECT_NEAR(p.value(s.x), s.objective, 1e-9) << "trial " << trial;
  }
}

/// Exactness on random single-row instances of 4–14 items.
class BnbKnapsackExactness : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BnbKnapsackExactness, MatchesExhaustiveAndOracle) {
  common::Rng rng(GetParam());
  const std::size_t n = 4 + static_cast<std::size_t>(rng.uniform_int(0, 10));
  expect_three_way_agreement(random_knapsack(rng, n), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbKnapsackExactness,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(BnbMalformed, RhsCountDiffersFromRowCount) {
  BinaryProgram p = knapsack({1.0}, {1.0}, 1.0);
  p.rhs.push_back(1.0);
  EXPECT_EQ(BranchAndBoundSolver().solve(p).status, IlpStatus::kMalformed);
  EXPECT_EQ(BranchAndBoundSolver().try_solve(p).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(BnbMalformed, RowShorterThanObjective) {
  const BinaryProgram p = knapsack({1.0, 2.0}, {1.0}, 1.0);
  EXPECT_EQ(BranchAndBoundSolver().solve(p).status, IlpStatus::kMalformed);
}

TEST(BnbMalformed, EligibilityMaskOfWrongSize) {
  BinaryProgram p = knapsack({1.0, 2.0}, {1.0, 1.0}, 1.0);
  p.eligible = {1};
  EXPECT_EQ(BranchAndBoundSolver().solve(p).status, IlpStatus::kMalformed);
}

TEST(BnbTwoRow, StorageSlackReducesToKnapsack) {
  // Storage effectively unconstrained: the single-row optimum.
  const BinaryProgram p = two_row({6.0, 10.0, 12.0}, {1.0, 2.0, 3.0},
                                  {1.0, 1.0, 1.0}, 5.0, 1000.0);
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 22.0);
  EXPECT_EQ(s.x, (std::vector<int>{0, 1, 1}));
}

TEST(BnbTwoRow, NodeLimitedSolvesStayFeasible) {
  common::Rng rng(1);
  const BranchAndBoundSolver solver(node_budget(3));
  for (int trial = 0; trial < 15; ++trial) {
    const BinaryProgram p = random_two_row(rng, 25, 0.5, 0.3);
    const IlpSolution s = solver.solve(p);
    ASSERT_TRUE(to_status(s.status).ok()) << "trial " << trial;
    EXPECT_TRUE(p.feasible(s.x)) << "trial " << trial;
  }
}

TEST(BnbTwoRow, TightStorageChangesTheSelection) {
  // Storage binds: the two-row optimum must give up value against the
  // compute-only knapsack, and both B&Bs must agree on it.
  common::Rng rng(5);
  const BinaryProgram p = random_two_row(rng, 40, 0.9, 0.15);
  const BinaryProgram compute_only = knapsack(p.objective, p.rows[0], p.rhs[0]);
  const IlpSolution s = BranchAndBoundSolver().solve(p);
  const IlpSolution relaxed = BranchAndBoundSolver().solve(compute_only);
  ASSERT_TRUE(s.optimal());
  ASSERT_TRUE(relaxed.optimal());
  EXPECT_TRUE(p.feasible(s.x));
  EXPECT_FALSE(p.feasible(relaxed.x));
  EXPECT_LT(s.objective, relaxed.objective);
  const IlpSolution dense =
      oracle::solve_dense(p, BranchAndBoundSolver::Options{});
  ASSERT_TRUE(dense.optimal());
  EXPECT_NEAR(dense.objective, s.objective, 1e-9 * s.objective);
}

TEST(BnbTwoRow, LargerNodeBudgetNeverWorsens) {
  common::Rng rng(4);
  const BinaryProgram p = random_two_row(rng, 60, 0.4, 0.3);
  double previous = 0.0;
  for (const long budget : {1L, 2L, 8L, 80L, 500'000L}) {
    const IlpSolution s = BranchAndBoundSolver(node_budget(budget)).solve(p);
    ASSERT_TRUE(to_status(s.status).ok()) << "budget " << budget;
    EXPECT_GE(s.objective, previous - 1e-9) << "budget " << budget;
    previous = s.objective;
  }
  EXPECT_LE(previous, lp_bound(p) + 1e-9);
}

TEST(BnbTwoRow, GapSolveStaysWithinGapOfExhaustive) {
  common::Rng rng(3);
  BranchAndBoundSolver::Options options;
  options.relative_gap = 0.05;
  const BranchAndBoundSolver solver(options);
  for (int trial = 0; trial < 12; ++trial) {
    const BinaryProgram p = random_two_row(rng, 14, 0.45, 0.35);
    const IlpSolution s = solver.solve(p);
    const IlpSolution exact = ExhaustiveSolver().solve(p);
    ASSERT_TRUE(exact.optimal()) << "trial " << trial;
    ASSERT_TRUE(to_status(s.status).ok()) << "trial " << trial;
    EXPECT_TRUE(p.feasible(s.x)) << "trial " << trial;
    EXPECT_LE(s.objective, exact.objective + 1e-9) << "trial " << trial;
    EXPECT_GE(s.objective, exact.objective * (1.0 - 0.05))
        << "trial " << trial;
  }
}

TEST(BnbTwoRow, GapSolveAtScaleStaysWithinGapOfOracle) {
  // 150 items, beyond exhaustive reach: the scheduler-style solve (500
  // nodes, 1e-4 gap) lands within its gap of the dense oracle's optimum,
  // which itself stays under the LP bound.
  common::Rng rng(6);
  const BinaryProgram p = random_two_row(rng, 150, 0.4, 0.35);
  const IlpSolution exact =
      oracle::solve_dense(p, BranchAndBoundSolver::Options{});
  ASSERT_TRUE(exact.optimal());
  EXPECT_LE(exact.objective, lp_bound(p) * (1.0 + 1e-9));

  BranchAndBoundSolver::Options options;
  options.max_nodes = 500;
  options.relative_gap = 1e-4;
  const IlpSolution s = BranchAndBoundSolver(options).solve(p);
  ASSERT_TRUE(to_status(s.status).ok()) << to_string(s.status);
  ASSERT_TRUE(p.feasible(s.x));
  EXPECT_LE(s.objective, exact.objective * (1.0 + 1e-9));
  EXPECT_GE(s.objective, exact.objective * (1.0 - 1e-4));
}

/// Exactness on random mixed-scale two-row instances of 8–14 items.
class BnbTwoRowExactness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BnbTwoRowExactness, MatchesExhaustiveAndOracle) {
  common::Rng rng(GetParam());
  const std::size_t n = 8 + static_cast<std::size_t>(rng.uniform_int(0, 6));
  const double tightness0 = rng.uniform(0.3, 0.7);
  const double tightness1 = rng.uniform(0.2, 0.6);
  expect_three_way_agreement(random_two_row(rng, n, tightness0, tightness1),
                             GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbTwoRowExactness,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace lpvs::solver
