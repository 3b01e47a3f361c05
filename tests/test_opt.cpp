// Tests for the optimization substrates: the reference ILP solver and the
// N-fold augmentation solver.
#include <gtest/gtest.h>

#include "opt/ilp.hpp"
#include "opt/nfold.hpp"
#include "util/rng.hpp"

namespace msrs {
namespace {

// ---------------- ILP ----------------

TEST(Ilp, SimpleFeasibility) {
  // x + y = 3, 0 <= x,y <= 2
  IlpProblem problem;
  problem.num_vars = 2;
  problem.lower = {0, 0};
  problem.upper = {2, 2};
  problem.rows.push_back({{{0, 1}, {1, 1}}, IlpRow::Relation::kEq, 3});
  const IlpResult result = solve_ilp(problem);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.x[0] + result.x[1], 3);
}

TEST(Ilp, InfeasibleDetected) {
  IlpProblem problem;
  problem.num_vars = 2;
  problem.lower = {0, 0};
  problem.upper = {1, 1};
  problem.rows.push_back({{{0, 1}, {1, 1}}, IlpRow::Relation::kEq, 5});
  const IlpResult result = solve_ilp(problem);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(result.proven);
}

TEST(Ilp, OptimizesObjective) {
  // min x + 2y s.t. x + y >= 3 (as -x - y <= -3), 0 <= x,y <= 5.
  IlpProblem problem;
  problem.num_vars = 2;
  problem.lower = {0, 0};
  problem.upper = {5, 5};
  problem.objective = {1, 2};
  problem.rows.push_back({{{0, -1}, {1, -1}}, IlpRow::Relation::kLe, -3});
  const IlpResult result = solve_ilp(problem);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.objective, 3);  // x=3, y=0
  EXPECT_EQ(result.x[0], 3);
}

TEST(Ilp, LeRowsRespected) {
  IlpProblem problem;
  problem.num_vars = 3;
  problem.lower = {0, 0, 0};
  problem.upper = {4, 4, 4};
  problem.objective = {-1, -1, -1};  // maximize sum
  problem.rows.push_back(
      {{{0, 1}, {1, 2}, {2, 3}}, IlpRow::Relation::kLe, 6});
  const IlpResult result = solve_ilp(problem);
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.x[0] + 2 * result.x[1] + 3 * result.x[2], 6);
  EXPECT_EQ(result.objective, -5);  // x0=4, x1=1, x2=0
}

// ---------------- N-fold ----------------

// A tiny scheduling-flavoured N-fold: N blocks, each block has t=2 vars
// (x_i1, x_i2) with local row x_i1 - x_i2 = 0 and a global row summing the
// first var of every block to b. Minimizing sum of costs.
NFold make_toy(int N, std::int64_t target) {
  NFold problem;
  problem.r = 1;
  problem.s = 1;
  problem.t = 2;
  problem.N = N;
  for (int i = 0; i < N; ++i) {
    problem.A.push_back({1, 0});
    problem.B.push_back({1, -1});
  }
  problem.b.assign(static_cast<std::size_t>(1 + N), 0);
  problem.b[0] = target;
  problem.lower.assign(static_cast<std::size_t>(2 * N), 0);
  problem.upper.assign(static_cast<std::size_t>(2 * N), 3);
  problem.c.assign(static_cast<std::size_t>(2 * N), 0);
  for (int i = 0; i < N; ++i)
    problem.c[static_cast<std::size_t>(2 * i)] = (i % 3) + 1;  // varying costs
  return problem;
}

TEST(NFoldSolver, FeasibilityAndOptimality) {
  const NFold problem = make_toy(4, 6);
  const NFoldResult result = solve_nfold(problem);
  ASSERT_TRUE(result.feasible);
  ASSERT_TRUE(result.converged);
  // verify constraints
  std::int64_t global = 0;
  for (int i = 0; i < 4; ++i) {
    global += result.x[static_cast<std::size_t>(2 * i)];
    EXPECT_EQ(result.x[static_cast<std::size_t>(2 * i)],
              result.x[static_cast<std::size_t>(2 * i + 1)]);
  }
  EXPECT_EQ(global, 6);
  // cross-check the optimum against the reference ILP
  IlpProblem flat;
  flat.num_vars = 8;
  flat.lower.assign(8, 0);
  flat.upper.assign(8, 3);
  flat.objective.assign(8, 0);
  IlpRow global_row;
  for (int i = 0; i < 4; ++i) {
    flat.objective[static_cast<std::size_t>(2 * i)] = (i % 3) + 1;
    global_row.terms.emplace_back(2 * i, 1);
    flat.rows.push_back({{{2 * i, 1}, {2 * i + 1, -1}},
                         IlpRow::Relation::kEq, 0});
  }
  global_row.rhs = 6;
  flat.rows.push_back(global_row);
  const IlpResult reference = solve_ilp(flat);
  ASSERT_TRUE(reference.feasible);
  EXPECT_EQ(result.objective, reference.objective);
}

TEST(NFoldSolver, DetectsInfeasibility) {
  NFold problem = make_toy(2, 100);  // upper bounds cap the sum at 6
  const NFoldResult result = solve_nfold(problem);
  EXPECT_FALSE(result.feasible);
}

TEST(NFoldSolver, RandomCrossCheckAgainstIlp) {
  Rng rng(4242);
  for (int round = 0; round < 15; ++round) {
    const int N = static_cast<int>(rng.uniform(2, 4));
    NFold problem = make_toy(N, rng.uniform(0, 3 * N));
    // randomize costs a bit
    for (auto& cost : problem.c) cost = rng.uniform(0, 4);
    const NFoldResult nfold_result = solve_nfold(problem);

    IlpProblem flat;
    flat.num_vars = 2 * N;
    flat.lower.assign(static_cast<std::size_t>(2 * N), 0);
    flat.upper.assign(static_cast<std::size_t>(2 * N), 3);
    flat.objective.assign(problem.c.begin(), problem.c.end());
    IlpRow global_row;
    for (int i = 0; i < N; ++i) {
      global_row.terms.emplace_back(2 * i, 1);
      flat.rows.push_back({{{2 * i, 1}, {2 * i + 1, -1}},
                           IlpRow::Relation::kEq, 0});
    }
    global_row.rhs = problem.b[0];
    flat.rows.push_back(global_row);
    const IlpResult reference = solve_ilp(flat);

    ASSERT_EQ(nfold_result.feasible, reference.feasible) << "round " << round;
    if (reference.feasible) {
      EXPECT_EQ(nfold_result.objective, reference.objective)
          << "round " << round;
    }
  }
}

TEST(NFoldSolver, CheckRejectsBadShapes) {
  NFold problem = make_toy(2, 1);
  EXPECT_TRUE(problem.check().empty());
  problem.b.pop_back();
  EXPECT_FALSE(problem.check().empty());
}

}  // namespace
}  // namespace msrs
