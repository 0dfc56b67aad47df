#include "lpvs/solver/ilp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "lpvs/solver/presolve.hpp"
#include "lpvs/solver/revised_lp.hpp"

namespace lpvs::solver {
namespace {

/// Per-node variable fixing: -1 free, 0 or 1 fixed.
using Fixing = std::vector<signed char>;

}  // namespace

bool BinaryProgram::feasible(const std::vector<int>& x, double tol) const {
  assert(x.size() == num_vars());
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] != 0 && !is_eligible(j)) return false;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    double lhs = 0.0;
    for (std::size_t j = 0; j < x.size(); ++j) {
      if (x[j]) lhs += rows[i][j];
    }
    if (lhs > rhs[i] + tol) return false;
  }
  return true;
}

double BinaryProgram::value(const std::vector<int>& x) const {
  double total = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j]) total += objective[j];
  }
  return total;
}

std::string to_string(IlpStatus status) {
  switch (status) {
    case IlpStatus::kOptimal:
      return "optimal";
    case IlpStatus::kFeasible:
      return "feasible";
    case IlpStatus::kInfeasible:
      return "infeasible";
    case IlpStatus::kMalformed:
      return "malformed";
  }
  return "unknown";
}

common::Status to_status(IlpStatus status) {
  switch (status) {
    case IlpStatus::kOptimal:
    case IlpStatus::kFeasible:
      return common::Status::Ok();
    case IlpStatus::kInfeasible:
      return common::Status::Infeasible("no 0/1 point satisfies the rows");
    case IlpStatus::kMalformed:
      return common::Status::InvalidArgument("malformed binary program");
  }
  return common::Status::Internal("unknown ilp status");
}

IlpSolution GreedySolver::solve(const BinaryProgram& problem) const {
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.rows.size();
  IlpSolution solution;
  solution.x.assign(n, 0);

  // Density = value / sum of capacity-normalized costs.
  std::vector<double> density(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    if (!problem.is_eligible(j) || problem.objective[j] <= 0.0) {
      density[j] = -1.0;
      continue;
    }
    double normalized_cost = 1e-12;
    for (std::size_t i = 0; i < m; ++i) {
      if (problem.rhs[i] > 0.0) {
        normalized_cost += problem.rows[i][j] / problem.rhs[i];
      } else if (problem.rows[i][j] > 0.0) {
        normalized_cost = std::numeric_limits<double>::infinity();
      }
    }
    density[j] = problem.objective[j] / normalized_cost;
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return density[a] > density[b];
  });

  std::vector<double> used(m, 0.0);
  for (std::size_t j : order) {
    if (density[j] < 0.0) continue;
    bool fits = true;
    for (std::size_t i = 0; i < m; ++i) {
      if (used[i] + problem.rows[i][j] > problem.rhs[i] + 1e-9) {
        fits = false;
        break;
      }
    }
    if (!fits) continue;
    solution.x[j] = 1;
    for (std::size_t i = 0; i < m; ++i) used[i] += problem.rows[i][j];
  }
  solution.objective = problem.value(solution.x);
  // Greedy only ever adds items that fit, so the one way the result can be
  // infeasible is a negative rhs rejecting even the all-zeros point.
  solution.status = problem.feasible(solution.x) ? IlpStatus::kFeasible
                                                 : IlpStatus::kInfeasible;
  return solution;
}

IlpSolution ExhaustiveSolver::solve(const BinaryProgram& problem) const {
  IlpSolution solution;
  const std::size_t n = problem.num_vars();
  if (n > max_vars_) {
    solution.status = IlpStatus::kMalformed;
    return solution;
  }
  solution.x.assign(n, 0);
  // Do NOT pre-seed all-zeros as the incumbent: when some rhs[i] < 0 even
  // the empty selection violates that row and the problem is infeasible.
  solution.objective = 0.0;
  solution.status = IlpStatus::kInfeasible;
  bool found_feasible = false;
  std::vector<int> candidate(n, 0);
  const std::uint64_t limit = std::uint64_t{1} << n;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    for (std::size_t j = 0; j < n; ++j) {
      candidate[j] = (mask >> j) & 1 ? 1 : 0;
    }
    ++solution.nodes_explored;
    if (!problem.feasible(candidate)) continue;
    const double value = problem.value(candidate);
    if (!found_feasible || value > solution.objective) {
      found_feasible = true;
      solution.objective = value;
      solution.x = candidate;
      solution.status = IlpStatus::kOptimal;
    }
  }
  return solution;
}

IlpSolution BranchAndBoundSolver::solve(const BinaryProgram& problem) const {
  return solve_with_memory(problem, nullptr, nullptr);
}

IlpSolution BranchAndBoundSolver::solve(
    const BinaryProgram& problem, const std::vector<int>& incumbent) const {
  return solve_with_memory(problem, &incumbent, nullptr);
}

common::StatusOr<IlpSolution> BranchAndBoundSolver::try_solve(
    const BinaryProgram& problem) const {
  IlpSolution solution = solve_with_memory(problem, nullptr, nullptr);
  if (common::Status status = to_status(solution.status); !status.ok()) {
    return status;
  }
  return solution;
}

common::StatusOr<IlpSolution> BranchAndBoundSolver::try_solve(
    const BinaryProgram& problem, const std::vector<int>& incumbent) const {
  IlpSolution solution = solve_with_memory(problem, &incumbent, nullptr);
  if (common::Status status = to_status(solution.status); !status.ok()) {
    return status;
  }
  return solution;
}

IlpSolution BranchAndBoundSolver::solve_with_memory(
    const BinaryProgram& problem, const std::vector<int>* incumbent,
    BasisHint* basis_memory) const {
  const std::size_t n = problem.num_vars();
  const double tol = options_.tolerance;
  IlpSolution out;

  PresolveResult pre = presolve_binary_program(problem, tol);
  if (pre.malformed) {
    out.status = IlpStatus::kMalformed;
    return out;
  }
  if (pre.infeasible) {
    // Some rhs < -tol: even the all-zeros point violates a row.  Report it
    // immediately — in particular a budget-truncated solve must say
    // kInfeasible here, never hand back a stale incumbent.
    out.status = IlpStatus::kInfeasible;
    out.x.assign(n, 0);
    out.nodes_explored = 0;
    if (basis_memory != nullptr) *basis_memory = BasisHint{};
    return out;
  }

  const BinaryProgram& red = pre.reduced;
  const std::size_t rn = red.num_vars();
  const std::size_t rm = red.rows.size();

  if (rn == 0) {
    // Presolve decided everything.
    out.x = expand_solution(pre, {});
    out.objective = problem.value(out.x);
    out.nodes_explored = 0;
    out.status = problem.feasible(out.x) ? IlpStatus::kOptimal
                                         : IlpStatus::kInfeasible;
    if (basis_memory != nullptr) *basis_memory = BasisHint{};
    return out;
  }

  // Incumbent seeding in reduced space.  A feasible full-space incumbent
  // projects to a reduced-feasible point (fixed-to-one variables have zero
  // coefficients on every active row), and the projection never loses
  // objective: fix-0 strips only non-positive or infeasible entries and
  // fix-1 only adds profitable ones.
  IlpSolution best_r;
  bool seeded = false;
  if (incumbent != nullptr && incumbent->size() == n &&
      problem.feasible(*incumbent)) {
    std::vector<int> projected(rn, 0);
    for (std::size_t r = 0; r < rn; ++r) {
      projected[r] = (*incumbent)[pre.var_map[r]];
    }
    if (red.feasible(projected)) {
      best_r.x = std::move(projected);
      best_r.objective = red.value(best_r.x);
      best_r.status = IlpStatus::kFeasible;
      seeded = true;
    }
  }
  if (!seeded) best_r = GreedySolver().solve(red);

  // The relaxation engine holds the reduced problem once; branch fixings
  // are bound overrides, never a rebuild.
  LpProblem lp;
  lp.objective = red.objective;
  lp.rows = red.rows;
  lp.rhs = red.rhs;
  lp.upper.assign(rn, 1.0);
  RevisedLpSolver::Options lp_options;
  lp_options.max_iterations = options_.lp.max_iterations;
  lp_options.tolerance = options_.lp.tolerance;
  RevisedLpSolver engine(lp_options);
  if (!engine.load(lp)) {
    out.status = IlpStatus::kMalformed;
    return out;
  }

  // Cross-solve root-basis memory: valid only when the caller's previous
  // solve presolved to the same variable/row maps (coefficient values may
  // differ arbitrarily — that delta is what the dual re-solve absorbs).
  const bool reuse_memory = basis_memory != nullptr &&
                            !basis_memory->empty() &&
                            basis_memory->var_map == pre.var_map &&
                            basis_memory->row_map == pre.row_map;

  // LP-guided rounding: floor the relaxation, then greedily pack the
  // remaining fractional/free variables by LP value.  Run at every node so
  // the incumbent tracks the bound closely and pruning stays effective.
  auto try_round = [&](const Fixing& fixing, const std::vector<double>& lp_x) {
    std::vector<int> candidate(rn, 0);
    std::vector<double> used(rm, 0.0);
    auto fits = [&](std::size_t j) {
      for (std::size_t i = 0; i < rm; ++i) {
        if (used[i] + red.rows[i][j] > red.rhs[i] + 1e-9) return false;
      }
      return true;
    };
    auto take = [&](std::size_t j) {
      candidate[j] = 1;
      for (std::size_t i = 0; i < rm; ++i) used[i] += red.rows[i][j];
    };
    std::vector<std::pair<double, std::size_t>> rest;
    for (std::size_t j = 0; j < rn; ++j) {
      if (fixing[j] == 1) {
        take(j);  // fixed by the node, feasible by construction
      } else if (fixing[j] == -1) {
        if (lp_x[j] > 1.0 - 1e-6) {
          if (fits(j)) take(j);
        } else if (lp_x[j] > 1e-9 && red.objective[j] > 0.0) {
          rest.emplace_back(lp_x[j] * red.objective[j], j);
        }
      }
    }
    std::sort(rest.begin(), rest.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [score, j] : rest) {
      if (fits(j)) take(j);
    }
    const double value = red.value(candidate);
    if (value > best_r.objective + tol && red.feasible(candidate)) {
      best_r.objective = value;
      best_r.x = std::move(candidate);
    }
  };

  // Best-first node heap: highest parent bound first, FIFO (sequence
  // number) among ties so exploration order — and with it the node count —
  // is a pure function of the input.
  struct HeapNode {
    double bound;
    std::uint64_t seq;
    Fixing fixing;
    std::shared_ptr<const SimplexBasis> parent_basis;
  };
  auto heap_before = [](const HeapNode& a, const HeapNode& b) {
    if (a.bound != b.bound) return a.bound < b.bound;
    return a.seq > b.seq;  // max-heap: lower seq pops first on bound ties
  };
  std::vector<HeapNode> heap;
  std::uint64_t next_seq = 0;
  heap.push_back(HeapNode{std::numeric_limits<double>::infinity(), next_seq++,
                          Fixing(rn, -1), nullptr});

  long nodes = 0;
  bool exhausted_within_limit = true;
  bool root = true;

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_before);
    HeapNode node = std::move(heap.back());
    heap.pop_back();

    const double prune_margin =
        std::max(tol, options_.relative_gap * std::fabs(best_r.objective));
    if (node.bound <= best_r.objective + prune_margin) {
      continue;  // stale: incumbent moved past it while queued (not counted)
    }
    if (nodes >= options_.max_nodes) {
      exhausted_within_limit = false;
      break;
    }
    ++nodes;

    engine.reset_bounds();
    for (std::size_t j = 0; j < rn; ++j) {
      if (node.fixing[j] != -1) {
        const double v = node.fixing[j] == 1 ? 1.0 : 0.0;
        engine.set_bounds(j, v, v);
      }
    }
    LpSolution relaxed;
    if (node.parent_basis != nullptr) {
      relaxed = engine.resolve(*node.parent_basis);
    } else if (root && reuse_memory) {
      relaxed = engine.resolve(basis_memory->basis);
    } else {
      relaxed = engine.solve();
    }
    if (root) {
      root = false;
      if (basis_memory != nullptr) {
        if (relaxed.optimal()) {
          *basis_memory =
              BasisHint{engine.basis(), pre.var_map, pre.row_map};
        } else {
          *basis_memory = BasisHint{};
        }
      }
    }
    if (!relaxed.optimal()) continue;  // infeasible/limit: prune (counted)
    const double bound = relaxed.objective;
    if (bound <= best_r.objective + prune_margin) continue;

    try_round(node.fixing, relaxed.x);
    if (bound <= best_r.objective + prune_margin) continue;

    // Most fractional variable, lowest index on ties.
    std::ptrdiff_t branch_var = -1;
    double best_fractionality = tol;
    for (std::size_t j = 0; j < rn; ++j) {
      if (node.fixing[j] != -1) continue;
      const double frac = std::fabs(relaxed.x[j] - std::round(relaxed.x[j]));
      if (frac > best_fractionality) {
        best_fractionality = frac;
        branch_var = static_cast<std::ptrdiff_t>(j);
      }
    }
    if (branch_var < 0) continue;  // integral: try_round already recorded it

    // Children inherit this node's optimal basis — one refactorization and
    // typically a couple of dual pivots each instead of a cold solve.
    auto basis = std::make_shared<const SimplexBasis>(engine.basis());
    const auto bv = static_cast<std::size_t>(branch_var);
    HeapNode up{bound, next_seq++, node.fixing, basis};
    up.fixing[bv] = 1;
    HeapNode down{bound, next_seq++, std::move(node.fixing), basis};
    down.fixing[bv] = 0;
    heap.push_back(std::move(up));
    std::push_heap(heap.begin(), heap.end(), heap_before);
    heap.push_back(std::move(down));
    std::push_heap(heap.begin(), heap.end(), heap_before);
  }

  out.x = expand_solution(pre, best_r.x);
  out.objective = problem.value(out.x);
  out.nodes_explored = nodes;
  if (!problem.feasible(out.x)) {
    // Only reachable in the rhs-within-tolerance gray zone where presolve
    // accepts a row that feasible() rejects.
    out.status = IlpStatus::kInfeasible;
  } else {
    out.status =
        exhausted_within_limit ? IlpStatus::kOptimal : IlpStatus::kFeasible;
  }
  return out;
}

}  // namespace lpvs::solver
