// AnalysisManager: memoization, invalidation on pass end, lifetime of
// handed-out graphs, the uncached baseline mode, and the content-keyed
// pair memo behind all_dependences.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "analysis/manager.hpp"
#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "testutil.hpp"
#include "transform/instrument.hpp"
#include "transform/split.hpp"
#include "transform/stripmine.hpp"

namespace blk::analysis {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

// Back-to-back identical queries build the graph exactly once — the
// dedup that split.cpp's scan/shape sites rely on.
TEST(AnalysisManager, BackToBackDepGraphQueriesBuildOnce) {
  Program p = blk::kernels::lu_point_ir();
  Loop& k = p.body[0]->as_loop();

  AnalysisManager am;
  ScopedAnalysisManager scope(am);
  DepGraphPtr g1 = dep_graph_for(p.body, k);
  DepGraphPtr g2 = dep_graph_for(p.body, k);
  EXPECT_EQ(g1.get(), g2.get());
  EXPECT_EQ(am.stats().dep_misses, 1u);
  EXPECT_EQ(am.stats().dep_hits, 1u);
  EXPECT_GT(am.stats().build_seconds, 0.0);
}

// Distinct assumption contexts are distinct keys.
TEST(AnalysisManager, AssumptionContextIsPartOfTheKey) {
  Program p = blk::kernels::lu_point_ir();
  Loop& k = p.body[0]->as_loop();

  AnalysisManager am;
  ScopedAnalysisManager scope(am);
  Assumptions ctx;
  ctx.assert_le(v("K") + v("KS") - 1, v("N") - 1);
  DepGraphPtr plain = dep_graph_for(p.body, k, nullptr);
  DepGraphPtr hinted = dep_graph_for(p.body, k, &ctx);
  EXPECT_NE(plain.get(), hinted.get());
  EXPECT_EQ(am.stats().dep_misses, 2u);

  // Adding a fact to the same context object changes the key (fact count
  // guards in-place mutation).
  ctx.assert_le(v("KS"), v("N"));
  (void)dep_graph_for(p.body, k, &ctx);
  EXPECT_EQ(am.stats().dep_misses, 3u);
}

// Every pass end (committed or aborted) invalidates: trial-undo restores
// values, not node identities.
TEST(AnalysisManager, PassEndInvalidatesCachedGraphs) {
  Program p = blk::kernels::lu_point_ir();
  Loop& k = p.body[0]->as_loop();

  AnalysisManager am;
  ScopedAnalysisManager scope(am);
  DepGraphPtr before = dep_graph_for(p.body, k);
  {
    transform::PassScope pass("test-pass", p.body);
  }
  EXPECT_GE(am.stats().invalidations, 1u);
  DepGraphPtr after = dep_graph_for(p.body, k);
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(am.stats().dep_misses, 2u);
}

// A graph handed out before an invalidation must stay alive for clients
// still iterating it (split holds its graph across trial splits).
TEST(AnalysisManager, HandedOutGraphSurvivesInvalidation) {
  Program p = blk::kernels::lu_point_ir();
  Loop& k = p.body[0]->as_loop();

  AnalysisManager am;
  ScopedAnalysisManager scope(am);
  DepGraphPtr g = dep_graph_for(p.body, k);
  std::size_t edges_before = g->edges().size();
  am.invalidate();
  EXPECT_EQ(g->edges().size(), edges_before);  // still valid to read
}

// With no manager installed, the entry points compute fresh.
TEST(AnalysisManager, NoManagerFallsBackToFreshBuild) {
  Program p = blk::kernels::lu_point_ir();
  Loop& k = p.body[0]->as_loop();
  ASSERT_EQ(current_analysis_manager(), nullptr);
  DepGraphPtr g1 = dep_graph_for(p.body, k);
  DepGraphPtr g2 = dep_graph_for(p.body, k);
  ASSERT_TRUE(g1 && g2);
  EXPECT_NE(g1.get(), g2.get());
}

// caching=false is the benchmark baseline: counts misses, never hits.
TEST(AnalysisManager, UncachedModeAlwaysMisses) {
  Program p = blk::kernels::lu_point_ir();
  Loop& k = p.body[0]->as_loop();

  AnalysisManager am(/*caching=*/false);
  ScopedAnalysisManager scope(am);
  (void)dep_graph_for(p.body, k);
  (void)dep_graph_for(p.body, k);
  EXPECT_EQ(am.stats().dep_hits, 0u);
  EXPECT_EQ(am.stats().dep_misses, 2u);
  EXPECT_GT(am.stats().build_seconds, 0.0);
}

// End-to-end: Procedure IndexSetSplit's repeated graph builds actually
// coalesce when a manager is installed.
TEST(AnalysisManager, IndexSetSplitHitsTheCache) {
  Program p = blk::kernels::lu_point_ir();
  p.param("KS");
  Loop& strip = transform::strip_mine(p, p.body[0]->as_loop(), ivar("KS"));

  Assumptions hints;
  hints.assert_le(v("K") + v("KS") - 1, v("N") - 1);

  AnalysisManager am;
  ScopedAnalysisManager scope(am);
  auto rep = transform::index_set_split(p.body, strip, hints);
  EXPECT_TRUE(rep.distributable);
  EXPECT_GT(am.stats().dep_hits, 0u)
      << "split's back-to-back graph builds should be deduplicated";
}

// Installing is per thread: a manager on this thread is invisible on
// another.
TEST(AnalysisManager, InstallationIsThreadLocal) {
  AnalysisManager am;
  ScopedAnalysisManager scope(am);
  ASSERT_EQ(current_analysis_manager(), &am);
  AnalysisManager* seen = &am;
  std::thread([&] { seen = current_analysis_manager(); }).join();
  EXPECT_EQ(seen, nullptr);
}

// ---- The pair memo ---------------------------------------------------------

/// Expect `got` (answered under a manager) to equal `want` (computed fresh)
/// edge for edge, in order: endpoints, type, vectors and distances.
void expect_same_edges(const std::vector<Dependence>& got,
                       const std::vector<Dependence>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t e = 0; e < got.size(); ++e) {
    const Dependence& g = got[e];
    const Dependence& w = want[e];
    for (auto [x, y] : {std::pair{&g.src, &w.src}, std::pair{&g.dst, &w.dst}}) {
      EXPECT_EQ(x->textual_pos, y->textual_pos) << what << ", edge " << e;
      EXPECT_EQ(x->is_write, y->is_write) << what << ", edge " << e;
      EXPECT_EQ(x->owner, y->owner) << what << ", edge " << e;
      EXPECT_EQ(x->stmt, y->stmt) << what << ", edge " << e;
      EXPECT_EQ(x->subs, y->subs) << what << ", edge " << e;
      EXPECT_EQ(x->loops, y->loops) << what << ", edge " << e;
    }
    EXPECT_EQ(g.type, w.type) << what << ", edge " << e;
    EXPECT_EQ(g.vectors, w.vectors) << what << ", edge " << e;
    EXPECT_EQ(g.distances, w.distances) << what << ", edge " << e;
  }
}

/// all_dependences(body, ctx) under `am`, with its counter deltas.
struct Answer {
  std::vector<Dependence> deps;
  std::uint64_t hits = 0, misses = 0;
};
Answer under(AnalysisManager& am, StmtList& body, const Assumptions* ctx) {
  const AnalysisManager::Stats before = am.stats();
  ScopedAnalysisManager scope(am);
  Answer out{.deps = all_dependences(body, ctx)};
  out.hits = am.stats().pair_hits - before.pair_hits;
  out.misses = am.stats().pair_misses - before.pair_misses;
  return out;
}

/// Snapshots of the program after every committed pass.
class Snapshots : public transform::PassObserver {
 public:
  explicit Snapshots(Program& p)
      : p_(p), prev_(transform::set_pass_observer(this)) {}
  ~Snapshots() override { transform::set_pass_observer(prev_); }
  Snapshots(const Snapshots&) = delete;
  Snapshots& operator=(const Snapshots&) = delete;
  void before_pass(std::string_view, StmtList&) override {}
  void after_pass(std::string_view, StmtList&, bool committed) override {
    if (committed) programs.push_back(p_.clone());
  }
  std::vector<Program> programs;

 private:
  Program& p_;
  transform::PassObserver* prev_;
};

TEST(PairMemo, WarmedMemoMatchesFreshAnalysis) {
  // The kernel factories, the shipped examples, and every intermediate
  // program of the paper's blocked-LU derivations (§5.1, §5.2, 2+, 1+),
  // each with no facts and with the block facts, through one manager
  // whose memo the earlier programs warmed.
  Assumptions block;
  pm::add_fact(block, "K+KS-1<=N-1");
  pm::add_fact(block, "N>=1");
  std::vector<std::pair<std::string, Program>> corpus;
  using Factory = Program (*)();
  for (auto [name, make] : std::initializer_list<std::pair<const char*, Factory>>{
           {"sum_example", kernels::sum_example_ir},
           {"partial_recurrence", kernels::partial_recurrence_ir},
           {"aconv", kernels::aconv_ir},
           {"conv", kernels::conv_ir},
           {"matmul_guarded", kernels::matmul_guarded_ir},
           {"lu_point", kernels::lu_point_ir},
           {"lu_pivot_point", kernels::lu_pivot_point_ir},
           {"givens_qr", kernels::givens_qr_ir},
           {"stencil2d", kernels::stencil2d_ir}})
    corpus.emplace_back(name, make());
  for (const auto& f : std::filesystem::directory_iterator(BLK_EXAMPLES_DIR)) {
    if (f.path().extension() != ".f") continue;
    const std::string file = f.path().filename().string();
    corpus.emplace_back(file, test::example(file));
  }
  const std::pair<Factory, const char*> derivations[] = {
      {kernels::lu_point_ir, "stripmine(b=KS); split; distribute; interchange"},
      {kernels::lu_pivot_point_ir,
       "stripmine(b=KS); split; distribute(commutativity); interchange"},
      {kernels::lu_point_ir, "autoblockplus(b=KS, u=4)"},
      {kernels::lu_pivot_point_ir, "autoblockplus(b=KS, u=4, commutativity)"}};
  for (const auto& [make, spec] : derivations) {
    Program p = make();
    Snapshots snaps(p);
    (void)pm::run_spec(p, spec, block);
    for (std::size_t k = 0; k < snaps.programs.size(); ++k)
      corpus.emplace_back(std::string(spec) + " #" + std::to_string(k),
                          std::move(snaps.programs[k]));
  }

  AnalysisManager am;
  std::uint64_t hits = 0, misses = 0;
  std::size_t edges = 0;
  for (auto& [name, p] : corpus)
    for (const Assumptions* ctx : {static_cast<Assumptions*>(nullptr), &block}) {
      const Answer got = under(am, p.body, ctx);
      expect_same_edges(got.deps, all_dependences(p.body, ctx),
                        name + (ctx ? " with the block facts" : ""));
      hits += got.hits;
      misses += got.misses;
      edges += got.deps.size();
    }
  EXPECT_GT(corpus.size(), 40u);
  EXPECT_GT(hits, 1000u) << "the intermediate programs share their pairs";
  EXPECT_GT(misses, 1000u);
  EXPECT_GT(edges, 1000u);
}

/// DO L = 1, ub:  A(sub) = A(sub) + 1 — one write-read pair and the
/// write's self pair.
Program one_statement(const IExprPtr& ub, const IExprPtr& sub) {
  Program p;
  for (const char* n : {"N", "I", "J", "K"}) p.param(n);
  p.array("A", {v("N")});
  p.add(loop("L", c(1), ub,
             assign(lv("A", {sub}), a("A", {sub}) + f(1.0))));
  return p;
}

TEST(PairMemo, KeysTreesNotTheirPrint) {
  // Each pair prints alike, but the trees differ: two misses each.
  const std::pair<IExprPtr, IExprPtr> bounds{imin(imin(v("I"), v("J")), v("K")),
                                             imin(v("I"), imin(v("J"), v("K")))};
  const std::pair<IExprPtr, IExprPtr> subs{(v("L") + v("J")) + v("K"),
                                           v("L") + (v("J") + v("K"))};
  ASSERT_EQ(to_string(bounds.first), to_string(bounds.second));
  ASSERT_EQ(to_string(subs.first), to_string(subs.second));
  for (bool bound : {true, false}) {
    Program first = bound ? one_statement(bounds.first, v("L"))
                          : one_statement(v("N"), subs.first);
    Program second = bound ? one_statement(bounds.second, v("L"))
                           : one_statement(v("N"), subs.second);
    AnalysisManager am;
    const Answer x = under(am, first.body, nullptr);
    const Answer y = under(am, second.body, nullptr);
    EXPECT_EQ(x.misses, 2u);
    EXPECT_EQ(y.hits, 0u) << (bound ? "MIN bounds" : "sums");
    EXPECT_EQ(y.misses, 2u) << (bound ? "MIN bounds" : "sums");
    expect_same_edges(y.deps, all_dependences(second.body), "second");
    EXPECT_EQ(under(am, first.body, nullptr).hits, 2u) << "a repeat hits";
  }
}

TEST(PairMemo, KeysEveryLoopHeaderField) {
  // DO K = 1, 1 has one trip, so A(1)'s pairs are loop independent; each
  // variant changes one header field and lets the dependence be carried.
  auto nest = [](const char* var, IExprPtr lb, IExprPtr ub, IExprPtr step) {
    Program p;
    p.param("S");
    p.array("A", {c(4)});
    p.add(loop_step(var, std::move(lb), std::move(ub), std::move(step),
                    assign(lv("A", {c(1)}), a("A", {c(1)}) + f(1.0))));
    return p;
  };
  Program base = nest("K", c(1), c(1), c(1));
  AnalysisManager am;
  const Answer warm = under(am, base.body, nullptr);
  ASSERT_FALSE(warm.deps.empty());
  for (const Dependence& d : warm.deps) EXPECT_FALSE(d.carried_at(0));
  std::pair<const char*, Program> variants[] = {
      {"lb", nest("K", c(0), c(1), c(1))},
      {"ub", nest("K", c(1), c(2), c(1))},
      {"step", nest("K", c(1), c(1), v("S"))},
      {"var", nest("KK", c(1), c(1), c(1))}};
  for (auto& [field, p] : variants) {
    const Answer got = under(am, p.body, nullptr);
    EXPECT_EQ(got.hits, 0u) << field;
    expect_same_edges(got.deps, all_dependences(p.body), field);
  }
}

TEST(PairMemo, KeysTheContextsFactsInOrder) {
  // DO I = 1, N: A(I) = A(I+M) — anti under M >= 1, flow under M <= -1.
  Program p;
  p.param("N");
  p.param("M");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I") + v("M")}))));
  auto facts = [](std::initializer_list<const char*> fs) {
    Assumptions ctx;
    for (const char* f : fs) pm::add_fact(ctx, f);
    return ctx;
  };
  Assumptions raw = facts({"N>=1"});
  raw.assert_ge(imin(v("M"), v("N")), c(1));  // a raw MIN fact: M >= 1
  const std::pair<const char*, Assumptions> contexts[] = {
      {"N>=1, M>=1", facts({"N>=1", "M>=1"})},
      {"N>=1, M<=-1", facts({"N>=1", "M<=-1"})},
      {"M>=1, N>=1", facts({"M>=1", "N>=1"})},
      {"N>=1, MIN(M,N)>=1", raw},
      {"no context", {}}};
  AnalysisManager am;
  for (const auto& [name, ctx] : contexts) {
    const Assumptions* c = std::string_view(name) == "no context" ? nullptr
                                                                  : &ctx;
    const Answer got = under(am, p.body, c);
    EXPECT_EQ(got.hits, 0u) << name;
    EXPECT_EQ(got.misses, 2u) << name;
    expect_same_edges(got.deps, all_dependences(p.body, c), name);
    EXPECT_EQ(under(am, p.body, c).hits, 2u) << name << " repeated";
  }
  // The first two really answer differently.
  EXPECT_EQ(all_dependences(p.body, &contexts[0].second).front().type,
            DepType::Anti);
  EXPECT_EQ(all_dependences(p.body, &contexts[1].second).front().type,
            DepType::Flow);
}

TEST(PairMemo, InvalidateKeepsItAndDisablingCachingDropsIt) {
  Program p = blk::kernels::lu_point_ir();
  AnalysisManager am;
  const Answer cold = under(am, p.body, nullptr);
  ASSERT_GT(cold.misses, 0u);
  EXPECT_EQ(cold.hits, 0u);

  am.invalidate();  // content keys cannot go stale
  const Answer warm = under(am, p.body, nullptr);
  EXPECT_EQ(warm.hits, cold.misses);
  EXPECT_EQ(warm.misses, 0u);
  EXPECT_EQ(am.stats().hits() + am.stats().misses(), 0u)
      << "hits()/misses() count graphs and sections only";

  am.set_caching(false);  // drops the memo and bypasses it
  for (int k = 0; k < 2; ++k) {
    const Answer off = under(am, p.body, nullptr);
    EXPECT_EQ(off.hits, 0u);
    EXPECT_EQ(off.misses, cold.misses);
    expect_same_edges(off.deps, cold.deps, "uncached");
  }
  am.set_caching(true);
  EXPECT_EQ(under(am, p.body, nullptr).hits, 0u) << "the memo was dropped";
  EXPECT_EQ(under(am, p.body, nullptr).hits, cold.misses);
}

TEST(PairMemo, RefusedPairThrowsEveryTime) {
  // A(I1) in a 10-deep nest: the self pair has 3^9 candidate vectors.
  StmtList body;
  body.push_back(assign(lv("A", {v("I1")}), a("A", {v("I1")}) + f(1.0)));
  for (int k = 10; k >= 1; --k) {
    StmtPtr l = make_loop("I" + std::to_string(k), c(1), v("N"),
                          std::move(body));
    body.clear();
    body.push_back(std::move(l));
  }
  AnalysisManager am;
  ScopedAnalysisManager scope(am);
  EXPECT_THROW((void)all_dependences(body), Error);
  EXPECT_THROW((void)all_dependences(body), Error);
  EXPECT_EQ(am.stats().pair_hits, 0u);
}

TEST(PairMemo, ClearsAtTheEntryCap) {
  // Every new context adds its key and two pairs (S's read-write and
  // write-write) to the memo; once the cap is reached the memo is cleared,
  // so the first context misses again.
  StmtList body;
  body.push_back(assign(lvs("S"), s("S") + f(1.0)));
  AnalysisManager am;
  ScopedAnalysisManager scope(am);
  auto query = [&](long k) {
    Assumptions ctx;
    ctx.assert_ge(v("N"), c(k));
    const std::uint64_t hits = am.stats().pair_hits;
    (void)all_dependences(body, &ctx);
    return am.stats().pair_hits - hits;
  };
  EXPECT_EQ(query(0), 0u);
  EXPECT_EQ(query(0), 2u);
  for (long k = 1; k < static_cast<long>(AnalysisManager::kMaxPairEntries);
       ++k)
    (void)query(k);
  EXPECT_EQ(query(0), 0u) << "the memo was cleared at the cap";
  EXPECT_EQ(query(0), 2u);
}

}  // namespace
}  // namespace blk::analysis
