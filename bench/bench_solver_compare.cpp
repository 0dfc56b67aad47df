// Solver shoot-out (reproduction extension): the scheduler's
// branch-and-bound (at the scheduler's 200-node, 1e-4-gap budget) against
// the density greedy on Phase-1-shaped two-row instances, with the LP
// relaxation's optimum as the certificate: it upper-bounds every 0/1
// solution, so each solver's distance below it bounds its distance from
// the true optimum.  This is the ablation behind choosing B&B over the
// greedy admission SIII-C rules out.
#include <chrono>
#include <cstdio>

#include "lpvs/common/rng.hpp"
#include "lpvs/common/table.hpp"
#include "lpvs/solver/ilp.hpp"
#include "lpvs/solver/lp.hpp"

namespace {

lpvs::solver::BinaryProgram make_instance(lpvs::common::Rng& rng,
                                          std::size_t n) {
  lpvs::solver::BinaryProgram p;
  p.objective.resize(n);
  p.rows.assign(2, std::vector<double>(n));
  double c_total = 0.0;
  double s_total = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    p.objective[j] = rng.uniform(5.0, 60.0);
    p.rows[0][j] = rng.uniform(0.3, 0.9);
    p.rows[1][j] = rng.uniform(40.0, 160.0);
    c_total += p.rows[0][j];
    s_total += p.rows[1][j];
  }
  p.rhs = {0.4 * c_total, 0.5 * s_total};
  return p;
}

template <class F>
std::pair<double, double> timed(F&& solve) {
  const auto t0 = std::chrono::steady_clock::now();
  const double objective = solve();
  const auto t1 = std::chrono::steady_clock::now();
  return {objective,
          std::chrono::duration<double, std::milli>(t1 - t0).count()};
}

}  // namespace

int main() {
  using namespace lpvs;
  using namespace lpvs::solver;

  std::printf("=== solver comparison on Phase-1-shaped instances ===\n\n");
  common::Table table({"n", "greedy obj", "b&b obj", "lp bound",
                       "greedy gap %", "b&b gap %", "greedy ms", "b&b ms"});
  common::Rng rng(12);
  for (std::size_t n : {50, 100, 200, 400, 800}) {
    const BinaryProgram p = make_instance(rng, n);

    const auto [greedy_obj, greedy_ms] =
        timed([&] { return GreedySolver().solve(p).objective; });

    BranchAndBoundSolver::Options bnb_options;
    bnb_options.max_nodes = 200;
    bnb_options.relative_gap = 1e-4;
    const auto [bnb_obj, bnb_ms] = timed(
        [&] { return BranchAndBoundSolver(bnb_options).solve(p).objective; });

    LpProblem relaxation;
    relaxation.objective = p.objective;
    relaxation.rows = p.rows;
    relaxation.rhs = p.rhs;
    relaxation.upper.assign(n, 1.0);
    const double bound = LpSolver().solve(relaxation).objective;
    auto gap_pct = [&](double objective) {
      return 100.0 * (bound - objective) / bound;
    };

    table.add_row({std::to_string(n), common::Table::num(greedy_obj, 1),
                   common::Table::num(bnb_obj, 1),
                   common::Table::num(bound, 1),
                   common::Table::num(gap_pct(greedy_obj), 3),
                   common::Table::num(gap_pct(bnb_obj), 3),
                   common::Table::num(greedy_ms, 2),
                   common::Table::num(bnb_ms, 1)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("the LP-relaxation bound upper-bounds every solver's objective,\n"
              "so each gap column bounds that solver's distance from the\n"
              "optimum.\n");
  return 0;
}
