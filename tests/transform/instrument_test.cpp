// Pass instrumentation: per-thread observer stacking and concurrent
// observed pipelines (the data-race regression test for the old
// process-global observer; run under TSan by the sanitizer CI job).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "ir/builder.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "transform/instrument.hpp"
#include "transform/stripmine.hpp"
#include "verify/pipeline.hpp"

namespace blk::transform {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

struct CountingObserver final : PassObserver {
  std::vector<std::string> begun;
  std::vector<std::string> ended;
  void before_pass(std::string_view name, StmtList&) override {
    begun.emplace_back(name);
  }
  void after_pass(std::string_view name, StmtList&, bool) override {
    ended.emplace_back(name);
  }
};

TEST(Instrument, ObserverSeesPassBeginAndEnd) {
  Program p = blk::kernels::lu_point_ir();
  p.param("KS");
  CountingObserver obs;
  PassObserver* prev = set_pass_observer(&obs);
  EXPECT_EQ(prev, nullptr);
  (void)strip_mine(p, p.body[0]->as_loop(), ivar("KS"));
  set_pass_observer(prev);
  ASSERT_EQ(obs.begun.size(), 1u);
  EXPECT_EQ(obs.begun[0], "strip-mine");
  EXPECT_EQ(obs.ended, obs.begun);
}

// Observers stack: both see the pass; restoring the previous observer
// pops back down to it.
TEST(Instrument, ObserversStackAndRestore) {
  Program p = blk::kernels::lu_point_ir();
  p.param("KS");
  CountingObserver outer;
  CountingObserver inner;

  PassObserver* prev0 = set_pass_observer(&outer);
  EXPECT_EQ(prev0, nullptr);
  PassObserver* prev1 = set_pass_observer(&inner);
  EXPECT_EQ(prev1, &outer);
  EXPECT_EQ(pass_observer(), &inner);
  EXPECT_EQ(pass_observer_depth(), 2u);

  (void)strip_mine(p, p.body[0]->as_loop(), ivar("KS"));
  EXPECT_EQ(outer.begun.size(), 1u);
  EXPECT_EQ(inner.begun.size(), 1u);

  // Pop down to the outer observer, as ~VerifiedPipeline does.
  set_pass_observer(prev1);
  EXPECT_EQ(pass_observer(), &outer);
  EXPECT_EQ(pass_observer_depth(), 1u);
  set_pass_observer(prev0);
  EXPECT_EQ(pass_observer(), nullptr);
  EXPECT_EQ(pass_observer_depth(), 0u);
}

TEST(Instrument, RegistrationIsThreadLocal) {
  CountingObserver obs;
  PassObserver* prev = set_pass_observer(&obs);
  PassObserver* seen = &obs;
  std::thread([&] { seen = pass_observer(); }).join();
  EXPECT_EQ(seen, nullptr);
  set_pass_observer(prev);
}

// The satellite's acceptance scenario: two observed pipelines running on
// concurrent threads, each with its own observer — no cross-talk, no data
// race (TSan-clean in the sanitizer job).
TEST(Instrument, ConcurrentObservedPipelinesDoNotInterfere) {
  constexpr int kThreads = 4;
  std::vector<std::string> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &results] {
      Program p = blk::kernels::lu_point_ir();
      p.param("KS");
      verify::VerifiedPipeline vp(p);
      analysis::Assumptions hints;
      hints.assert_le(v("K") + v("KS") - 1, v("N") - 1);
      pm::RunReport r = pm::run_spec(p, "autoblock(b=KS)", hints);
      if (r.passes[0].note.rfind("blocked", 0) != 0) {
        results[t] = "not blocked";
        return;
      }
      if (vp.steps().empty() || !vp.ok()) {
        results[t] = "verification failed: " + vp.to_string();
        return;
      }
      results[t] = "ok";
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(results[t], "ok") << t;
}

// Same, driving full pm pipelines with per-thread observers and counting
// the observed passes — counts must be per-thread exact.
TEST(Instrument, ConcurrentPipelineObserversCountIndependently) {
  constexpr int kThreads = 4;
  std::vector<std::size_t> counts(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &counts] {
      Program p = blk::kernels::lu_point_ir();
      CountingObserver obs;
      PassObserver* prev = set_pass_observer(&obs);
      analysis::Assumptions hints;
      hints.assert_le(v("K") + v("KS") - 1, v("N") - 1);
      (void)pm::run_spec(
          p, "stripmine(b=KS); split; distribute; interchange", hints);
      set_pass_observer(prev);
      counts[t] = obs.begun.size();
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(counts[t], counts[0]);
  EXPECT_GE(counts[0], 4u);  // at least the four pipeline stages
}

}  // namespace
}  // namespace blk::transform
