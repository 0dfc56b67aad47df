// Test-only oracle: depth-first branch-and-bound over the dense LpSolver.
//
// Every node rebuilds its LP relaxation from the branch fixings and solves
// it from scratch with the dense bounded-variable simplex; branching is
// most-fractional, x=1 first; the incumbent is the greedy seed (or a
// caller's feasible warm start) improved by LP-guided rounding at every
// node.  It shares no presolve, basis reuse or node ordering with
// solver::BranchAndBoundSolver, which is what makes it an independent
// second opinion: the differential suites require both to reach the
// exhaustive optimum, and each other's, on the same programs.
#pragma once

#include <vector>

#include "lpvs/solver/ilp.hpp"

namespace lpvs::solver::oracle {

/// Solves `problem` under `options` (max_nodes, tolerance, relative_gap and
/// the per-node LP budget; `lp` configures the dense LpSolver).  A non-null
/// `incumbent` that is sized num_vars() and feasible replaces the greedy
/// seed.  Statuses follow BranchAndBoundSolver: kOptimal when the tree was
/// exhausted, kFeasible at the node limit, kInfeasible when even the
/// all-zeros point violates a row.
IlpSolution solve_dense(const BinaryProgram& problem,
                        const BranchAndBoundSolver::Options& options,
                        const std::vector<int>* incumbent = nullptr);

}  // namespace lpvs::solver::oracle
