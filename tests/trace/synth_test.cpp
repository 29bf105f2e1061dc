// Synthesizer tests: the synthesized trace must equal the VM's trace
// record for record on every eligible kernel (blocked LU included);
// ineligible programs must say why and fall back to VM recording.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/assume.hpp"
#include "interp/vm.hpp"
#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "trace/synth.hpp"

namespace blk::trace {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;
using interp::TraceRecord;

std::vector<TraceRecord> vm_trace(const Program& p, const Env& params,
                                  std::uint64_t seed = 42) {
  interp::ExecEngine eng(p, params);
  interp::seed_store(eng.store(), seed);
  interp::TraceBuffer buf;
  eng.run(buf);
  return buf.take_records();
}

/// Block point LU with a runtime-scalar KS (same recipe as model_test).
Program blocked_lu() {
  Program prog = kernels::lu_point_ir();
  prog.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(isub(iadd(ivar("K"), ivar("KS")), iconst(1)),
                  isub(ivar("N"), iconst(1)));
  pm::RunReport r = pm::run_spec(prog, "autoblock(b=KS)", hints);
  EXPECT_EQ(r.passes[0].note, "blocked, 1 splits, 2 interchanges");
  prog.scalar("KS");
  return prog;
}

void expect_synth_equals_vm(const Program& p, const Env& params,
                            const std::string& what) {
  ASSERT_TRUE(synth_eligible(p))
      << what << ": " << synth_ineligible_reason(p).value_or("");
  EncodedTrace t;
  TraceEncoder enc(t);
  const SynthStats st = synthesize(p, params, enc);
  enc.finish();
  const std::vector<TraceRecord> want = vm_trace(p, params);
  EXPECT_EQ(st.records, want.size()) << what;
  EXPECT_EQ(t.records, want.size()) << what;
  const std::vector<TraceRecord> got = decode_all(t);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].addr, want[i].addr) << what << " record " << i;
    ASSERT_EQ(got[i].is_write, want[i].is_write) << what << " record " << i;
  }
}

TEST(TraceSynth, MatchesVmTraceOnEligibleKernels) {
  expect_synth_equals_vm(kernels::sum_example_ir(), {{"N", 11}, {"M", 7}},
                         "sum");
  expect_synth_equals_vm(kernels::partial_recurrence_ir(), {{"N", 15}},
                         "partial_rec");
  expect_synth_equals_vm(kernels::aconv_ir(),
                         {{"N1", 9}, {"N2", 5}, {"N3", 11}}, "aconv");
  expect_synth_equals_vm(kernels::conv_ir(),
                         {{"N1", 9}, {"N2", 5}, {"N3", 11}}, "conv");
  expect_synth_equals_vm(kernels::lu_point_ir(), {{"N", 17}}, "lu_point");
  expect_synth_equals_vm(kernels::stencil2d_ir(), {{"N", 13}}, "stencil2d");
}

TEST(TraceSynth, MatchesVmTraceOnBlockedLu) {
  const Program prog = blocked_lu();
  for (long ks : {3L, 8L, 16L})
    expect_synth_equals_vm(prog, {{"N", 33}, {"KS", ks}},
                           "blocked_lu ks=" + std::to_string(ks));
}

TEST(TraceSynth, MatchesVmOnDegenerateLoops) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", c(5), c(2),  // zero-trip
             assign(lv("A", {v("I")}), a("A", {v("I")}) + f(1.0))));
  p.add(loop_step("J", v("N"), c(1), c(-1),  // descending
                  assign(lv("A", {v("J")}), a("A", {v("J")}) + f(2.0))));
  p.add(assign(lv("A", {c(1)}), f(3.0)));  // bare top-level statement
  expect_synth_equals_vm(p, {{"N", 9}}, "degenerate loops");
}

TEST(TraceSynth, ScalarAccumulatorLoopsUseTheFastPath) {
  // Dot product: traced reads feed an untraced scalar — the innermost
  // loop is still one RUNA per instance.
  Program p;
  p.param("N");
  p.array("X", {v("N")});
  p.array("Y", {v("N")});
  p.scalar("S");
  p.add(loop("I", c(1), v("N"),
             assign(lvs("S"), s("S") + a("X", {v("I")}) * a("Y", {v("I")}))));
  expect_synth_equals_vm(p, {{"N", 40}}, "dot product");
}

TEST(TraceSynth, ReportsIneligibilityReasons) {
  const auto guard = synth_ineligible_reason(kernels::matmul_guarded_ir());
  ASSERT_TRUE(guard.has_value());
  EXPECT_NE(guard->find("IF"), std::string::npos);

  EXPECT_FALSE(synth_eligible(kernels::lu_pivot_point_ir()));
  EXPECT_FALSE(synth_eligible(kernels::givens_qr_ir()));

  // Data-dependent subscript through an integer-valued array element.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("IDX", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {ielem("IDX", v("I"))}), f(1.0))));
  const auto elem = synth_ineligible_reason(p);
  ASSERT_TRUE(elem.has_value());
  EXPECT_NE(elem->find("array element"), std::string::npos);

  // Subscript through a runtime scalar (no enclosing loop binds IMAX).
  Program q;
  q.param("N");
  q.array("A", {v("N")});
  q.scalar("IMAX");
  q.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("IMAX")}), a("A", {v("I")}))));
  const auto scal = synth_ineligible_reason(q);
  ASSERT_TRUE(scal.has_value());
  EXPECT_NE(scal->find("IMAX"), std::string::npos);

  EncodedTrace t;
  TraceEncoder enc(t);
  EXPECT_THROW((void)synthesize(q, {{"N", 4}}, enc), blk::Error);
}

TEST(TraceSynth, SynthesizeOrRecordFallsBackForDataDependentPrograms) {
  const Program guarded = kernels::matmul_guarded_ir();
  const Env params{{"N", 9}};
  bool used_synth = true;
  SynthStats st;
  const EncodedTrace t =
      synthesize_or_record(guarded, params, 42, &used_synth, &st);
  EXPECT_FALSE(used_synth);
  const std::vector<TraceRecord> want = vm_trace(guarded, params);
  EXPECT_EQ(st.records, want.size());
  const std::vector<TraceRecord> got = decode_all(t);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i].addr, want[i].addr) << "record " << i;

  bool synth2 = false;
  const EncodedTrace t2 = synthesize_or_record(kernels::lu_point_ir(),
                                               {{"N", 12}}, 42, &synth2);
  EXPECT_TRUE(synth2);
  EXPECT_EQ(t2.records, vm_trace(kernels::lu_point_ir(), {{"N", 12}}).size());
}

}  // namespace
}  // namespace blk::trace
