// Dense linear-programming solver: maximize c^T x subject to A x <= b and
// box bounds 0 <= x <= u, via the bounded-variable primal simplex method.
//
// The Phase-1 problem has only a handful of rows (two capacity constraints
// plus the compacted feasibility pre-filter), so a dense simplex with an
// explicitly inverted basis is simple and fast: the basis is m x m with
// m <= ~8 while n can be in the thousands (Fig. 10 scales the VC to 5,000
// devices).  It is the reference LP: the revised engine's tests and the
// benchmark's LP-relaxation bound check against it.  BranchAndBoundSolver
// runs RevisedLpSolver (revised_lp.hpp) at every node.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lpvs/common/status.hpp"

namespace lpvs::solver {

/// max c.x  s.t.  A x <= b,  0 <= x <= upper.
struct LpProblem {
  std::vector<double> objective;            ///< c, size n
  std::vector<std::vector<double>> rows;    ///< A, m rows of size n
  std::vector<double> rhs;                  ///< b, size m
  std::vector<double> upper;                ///< u, size n (>= 0)

  std::size_t num_vars() const { return objective.size(); }
  std::size_t num_rows() const { return rows.size(); }

  /// Structural sanity (matching sizes, every row with rhs >= 0 so the
  /// trivial slack basis is feasible; callers with negative rhs must
  /// pre-scale or use RevisedLpSolver, which runs its own dual phase 1).
  /// Upper bounds may be +infinity.  Asserted by the solver.
  bool well_formed() const;
};

enum class LpStatus {
  kOptimal,
  kUnbounded,
  kIterationLimit,
  kMalformed,
  kInfeasible,  ///< no point satisfies the rows within the bounds.  Only the
                ///< revised engine can report it: the dense solver requires
                ///< rhs >= 0, which makes the slack basis always feasible.
};

std::string to_string(LpStatus status);

/// Canonical-status view of an LP outcome: kOptimal maps to OK,
/// kIterationLimit to kResourceExhausted (raise Options::max_iterations),
/// kUnbounded to kInternal (capacity rows cannot produce it), kMalformed
/// to kInvalidArgument.
common::Status to_status(LpStatus status);

struct LpSolution {
  LpStatus status = LpStatus::kMalformed;
  double objective = 0.0;
  std::vector<double> x;
  int iterations = 0;

  bool optimal() const { return status == LpStatus::kOptimal; }
};

class LpSolver {
 public:
  struct Options {
    int max_iterations = 200000;
    double tolerance = 1e-9;
  };

  LpSolver() : LpSolver(Options{}) {}
  explicit LpSolver(Options options) : options_(options) {}

  LpSolution solve(const LpProblem& problem) const;

 private:
  Options options_;
};

}  // namespace lpvs::solver
