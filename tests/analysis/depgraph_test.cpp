// Dependence-graph tests: SCC detection and the recurrences that gate
// distribution.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/depgraph.hpp"
#include "ir/builder.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "transform/stripmine.hpp"

namespace blk::analysis {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

TEST(DepGraph, IndependentStatementsFormSingletons) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), f(1.0)),
             assign(lv("B", {v("I")}), f(2.0))));
  Loop& i = p.body[0]->as_loop();
  DepGraph g(p.body, i);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.sccs().size(), 2u);
  EXPECT_FALSE(g.has_recurrence());
}

TEST(DepGraph, FlowChainIsAcyclicAndOrdered) {
  // B(I) = A(I); C(I) = B(I): two components, B-def first.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.array("C", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("B", {v("I")}), a("A", {v("I")})),
             assign(lv("C", {v("I")}), a("B", {v("I")}))));
  Loop& i = p.body[0]->as_loop();
  DepGraph g(p.body, i);
  ASSERT_EQ(g.sccs().size(), 2u);
  // Topological order: the B definition's component first.
  EXPECT_EQ(g.sccs()[0][0], 0u);
  EXPECT_EQ(g.sccs()[1][0], 1u);
  EXPECT_FALSE(g.has_recurrence());
}

TEST(DepGraph, MutualRecurrenceDetected) {
  // A(I) = B(I-1); B(I) = A(I-1): classic two-statement recurrence.
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = c(0), .ub = v("N")}});
  p.array_bounds("B", {{.lb = c(0), .ub = v("N")}});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("B", {v("I") - 1})),
             assign(lv("B", {v("I")}), a("A", {v("I") - 1}))));
  Loop& i = p.body[0]->as_loop();
  DepGraph g(p.body, i);
  EXPECT_EQ(g.sccs().size(), 1u);
  EXPECT_TRUE(g.has_recurrence());
  EXPECT_FALSE(g.recurrence_edges().empty());
}

TEST(DepGraph, CarriedSelfEdgeIsNotARecurrenceForDistribution) {
  // A(I) = A(I-1): a single statement can always stay in its own loop.
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = c(0), .ub = v("N")}});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I") - 1}))));
  Loop& i = p.body[0]->as_loop();
  DepGraph g(p.body, i);
  EXPECT_FALSE(g.has_recurrence());
}

TEST(DepGraph, StripMinedLuRecurrence) {
  // The strip-mined LU body: statements 20-loop and 10-nest form one SCC
  // (the transformation-preventing recurrence of §5.1).
  Program p = blk::kernels::lu_point_ir();
  p.param("KS");
  Loop& k = p.body[0]->as_loop();
  Loop& kk = blk::transform::strip_mine(p, k, ivar("KS"));
  DepGraph g(p.body, kk);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.sccs().size(), 1u);
  EXPECT_TRUE(g.has_recurrence());
  // The recurrence edges connect the two nodes both ways.
  bool fwd = false, bwd = false;
  for (const auto& e : g.recurrence_edges()) {
    if (e.from == 0 && e.to == 1) fwd = true;
    if (e.from == 1 && e.to == 0) bwd = true;
  }
  EXPECT_TRUE(fwd);
  EXPECT_TRUE(bwd);
}

TEST(DepGraph, InnerLoopNestIsOneNode) {
  Program p = blk::kernels::lu_point_ir();
  Loop& k = p.body[0]->as_loop();
  DepGraph g(p.body, k);
  EXPECT_EQ(g.num_nodes(), 2u);  // the I loop and the J nest
}

TEST(DepGraph, LoopIndependentEdgeOrdersComponents) {
  // Anti dependence within an iteration: A(I)'s read before its write in
  // the *second* statement forbids putting the write first.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("B", {v("I")}), a("A", {v("I")})),
             assign(lv("A", {v("I")}), f(0.0))));
  Loop& i = p.body[0]->as_loop();
  DepGraph g(p.body, i);
  ASSERT_EQ(g.sccs().size(), 2u);
  EXPECT_EQ(g.sccs()[0][0], 0u);  // reader first
  bool found_anti = false;
  for (const auto& e : g.edges())
    if (e.dep.type == DepType::Anti && e.from == 0 && e.to == 1)
      found_anti = true;
  EXPECT_TRUE(found_anti);
}

/// One edge as a comparable string: nodes, carried flag, dependence.
std::string spell(const DepGraph::Edge& e) {
  return std::to_string(e.from) + "->" + std::to_string(e.to) +
         (e.carried ? " carried " : " ") + e.dep.to_string();
}

/// The graph's edges as the constructor built them before it asked only
/// for the dependences inside `loop`: every dependence of the program
/// (`deps`), keeping those whose endpoints both lie in `loop`.
std::vector<std::string> unfiltered_edges(const std::vector<Dependence>& deps,
                                          Loop& loop) {
  std::vector<Stmt*> nodes;
  for (auto& s : loop.body) nodes.push_back(s.get());
  auto owner_node = [&](const Stmt* target) {
    std::size_t i = 0;
    while (i < nodes.size() && !contains(*nodes[i], target)) ++i;
    return i;
  };
  std::vector<std::string> out;
  for (const auto& d : deps) {
    auto ls = std::ranges::find(d.src.loops, &loop);
    if (ls == d.src.loops.end() ||
        std::ranges::find(d.dst.loops, &loop) == d.dst.loops.end())
      continue;
    const auto lvl = static_cast<std::size_t>(ls - d.src.loops.begin());
    bool carried = d.carried_at(lvl);
    bool independent = d.vectors.empty();
    for (const auto& v : d.vectors) {
      bool eq_through = true;
      for (std::size_t i = 0; i <= lvl && i < v.size(); ++i)
        eq_through = eq_through && v[i] == Dir::EQ;
      independent = independent || eq_through;
    }
    if (!carried && !independent) continue;
    std::size_t from = owner_node(d.src.owner);
    std::size_t to = owner_node(d.dst.owner);
    if (from == to && !carried) continue;
    out.push_back(
        spell({.from = from, .to = to, .dep = d, .carried = carried}));
  }
  return out;
}

TEST(DepGraph, EdgesMatchTheUnfilteredConstruction) {
  // Every loop of the kernel factories and of the programs the paper's
  // derivations produce from them, with and without the block facts.
  using Factory = Program (*)();
  const std::pair<Factory, const char*> corpus[] = {
      {kernels::sum_example_ir, ""},
      {kernels::partial_recurrence_ir, ""},
      {kernels::aconv_ir, ""},
      {kernels::conv_ir, "optconv(u=4)"},
      {kernels::matmul_guarded_ir,
       "focus(var=K); ifinspect; focus(var=K, index=1); unrolljam(u=4)"},
      {kernels::lu_point_ir, "autoblockplus(b=KS, u=4)"},
      {kernels::lu_pivot_point_ir,
       "stripmine(b=KS); split; distribute(commutativity); interchange"},
      {kernels::givens_qr_ir, "optgivens; focus(var=K, index=1); "
                              "registerblock(u=4)"},
      {kernels::stencil2d_ir, "skew(f=1); interchange"}};
  Assumptions facts;
  pm::add_fact(facts, "K+KS-1<=N-1");
  pm::add_fact(facts, "N>=1");
  std::size_t loops = 0, edges = 0;
  for (const auto& [make, spec] : corpus) {
    for (bool derived : {false, true}) {
      if (derived && !*spec) continue;
      Program p = make();
      if (derived) (void)pm::run_spec(p, spec, facts);
      std::vector<Loop*> all;
      for_each_stmt(p.body, [&](Stmt& s) {
        if (s.kind() == SKind::Loop) all.push_back(&s.as_loop());
      });
      for (const Assumptions* ctx :
           {static_cast<Assumptions*>(nullptr), &facts}) {
        const std::vector<Dependence> deps = all_dependences(p.body, ctx);
        for (Loop* l : all) {
          const DepGraph g(p.body, *l, ctx);
          std::vector<std::string> got;
          for (const auto& e : g.edges()) got.push_back(spell(e));
          EXPECT_EQ(got, unfiltered_edges(deps, *l))
              << "DO " << l->var << (derived ? " after " : " in ") << spec;
          ++loops;
          edges += got.size();
        }
      }
    }
  }
  EXPECT_GT(loops, 100u);
  EXPECT_GT(edges, 500u);
}

}  // namespace
}  // namespace blk::analysis
