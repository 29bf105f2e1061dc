// Differential suite: the bytecode VM must agree with the tree-walking
// interpreter bit-for-bit — stores, the exact access-event sequence, and
// the statement count — on the golden programs (block LU, convolution,
// Givens F9->F10, IF-inspected matmul, BLOCK DO lowering) and on every
// runtime-index edge the tree-walker supports.
#include <gtest/gtest.h>

#include <cstring>

#include "interp/vm.hpp"
#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "lang/blockdo.hpp"
#include "lang/parser.hpp"
#include "native/engine.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "transform/blocking.hpp"
#include "transform/ifinspect.hpp"
#include "transform/split.hpp"
#include "transform/unrolljam.hpp"

namespace blk::interp {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

/// True when every common array matches bit for bit (stricter than
/// max_abs_diff: distinguishes -0.0 from +0.0 and compares NaNs).
[[nodiscard]] bool stores_bit_identical(const Store& a, const Store& b) {
  for (const auto& [name, ta] : a.arrays) {
    auto it = b.arrays.find(name);
    if (it == b.arrays.end() || ta.size() != it->second.size()) return false;
    // A zero-size array's buffer may be null, which memcmp must not see.
    if (ta.size() != 0 &&
        std::memcmp(ta.flat().data(), it->second.flat().data(),
                    ta.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// Run both engines on identically seeded inputs and require identical
/// stores, traces and statement counts.
void expect_engines_agree(const Program& p, const ir::Env& params,
                          std::uint64_t seed) {
  ExecEngine tw(p, params, Engine::TreeWalker);
  ExecEngine vm(p, params, Engine::Vm);
  seed_store(tw.store(), seed);
  seed_store(vm.store(), seed);
  TraceBuffer ttw, tvm;
  tw.run(ttw);
  vm.run(tvm);
  EXPECT_TRUE(stores_bit_identical(tw.store(), vm.store()))
      << "stores diverge (max |diff| = "
      << max_abs_diff(tw.store(), vm.store()) << ")\n"
      << print(p.body);
  EXPECT_EQ(tw.statements_executed(), vm.statements_executed())
      << print(p.body);
  ASSERT_EQ(ttw.size(), tvm.size())
      << "trace lengths diverge\n" << print(p.body);
  for (std::size_t i = 0; i < ttw.size(); ++i) {
    ASSERT_EQ(ttw.records()[i], tvm.records()[i])
        << "trace event " << i << " diverges (tw addr "
        << ttw.records()[i].addr << " w=" << ttw.records()[i].is_write
        << " vs vm addr " << tvm.records()[i].addr << " w="
        << tvm.records()[i].is_write << ")\n" << print(p.body);
  }
}

// ---- Golden programs --------------------------------------------------------

TEST(VmGolden, PointLu) {
  Program p = kernels::lu_point_ir();
  for (long n : {1L, 2L, 13L, 24L}) expect_engines_agree(p, {{"N", n}}, 7);
}

TEST(VmGolden, AutoBlockedLu) {
  Program p = kernels::lu_point_ir();
  p.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(v("K") + v("KS") - 1, v("N") - 1);
  pm::RunReport r = pm::run_spec(p, "autoblock(b=KS)", hints);
  ASSERT_EQ(r.passes[0].note, "blocked, 1 splits, 2 interchanges");
  for (long ks : {3L, 8L})
    expect_engines_agree(p, {{"N", 24}, {"KS", ks}}, 11);
}

TEST(VmGolden, PivotedLu) {
  Program p = kernels::lu_pivot_point_ir();
  expect_engines_agree(p, {{"N", 16}}, 3);
}

TEST(VmGolden, ConvolutionPipeline) {
  Program p = kernels::aconv_ir();
  auto loops = transform::split_trapezoid_all(p.body, p.body[0]->as_loop());
  ASSERT_GE(loops.size(), 1u);
  transform::normalize_loop(p.body, loops[0]->body[0]->as_loop());
  transform::unroll_and_jam(p, *loops[0], 4);
  const long size = 30;
  ir::Env env{{"N1", size - 1}, {"N2", 6 * (size - 1) / 7},
              {"N3", size - 1}};
  // DT is a runtime scalar input; set it on both engines through one
  // program run each (seed_store covers the arrays, DT defaults differ).
  ExecEngine tw(p, env, Engine::TreeWalker);
  ExecEngine vm(p, env, Engine::Vm);
  for (ExecEngine* e : {&tw, &vm}) {
    seed_store(e->store(), 5);
    e->store().scalars["DT"] = 0.25;
  }
  TraceBuffer ttw, tvm;
  tw.run(ttw);
  vm.run(tvm);
  EXPECT_TRUE(stores_bit_identical(tw.store(), vm.store()));
  ASSERT_EQ(ttw.size(), tvm.size());
  EXPECT_TRUE(std::equal(ttw.records().begin(), ttw.records().end(),
                         tvm.records().begin()));
  // Also the plain conv form with MAX/MIN bounds on both engines.
  Program c = kernels::conv_ir();
  expect_engines_agree(c, env, 9);
}

TEST(VmGolden, GivensF9ToF10) {
  Program p = kernels::givens_qr_ir();
  pm::PipelineContext ctx(p);
  (void)pm::run_pipeline(pm::parse_pipeline("optgivens"), ctx);
  EXPECT_GT(ctx.interchanges, 0);
  expect_engines_agree(p, {{"M", 14}, {"N", 10}}, 8);
  expect_engines_agree(kernels::givens_qr_ir(), {{"M", 14}, {"N", 10}}, 8);
}

TEST(VmGolden, IfInspectedMatmul) {
  Program p = kernels::matmul_guarded_ir();
  Program inspected = p.clone();
  Loop& k = inspected.body[0]->as_loop().body[0]->as_loop();
  transform::if_inspect(inspected, inspected.body, k);
  // The guard array wants 0/1 entries so both branches execute; plant an
  // arithmetic 0/1 pattern identically in all four engine instances.
  auto plant = [](Store& s) {
    long i = 0;
    for (double& x : s.arrays.at("B").flat()) x = (i++ % 5) == 0 ? 1.0 : 0.0;
  };
  for (const Program* prog : {&p, &inspected}) {
    ExecEngine tw(*prog, {{"N", 18}}, Engine::TreeWalker);
    ExecEngine vm(*prog, {{"N", 18}}, Engine::Vm);
    for (ExecEngine* e : {&tw, &vm}) {
      seed_store(e->store(), 13);
      plant(e->store());
    }
    TraceBuffer ttw, tvm;
    tw.run(ttw);
    vm.run(tvm);
    EXPECT_TRUE(stores_bit_identical(tw.store(), vm.store()));
    EXPECT_EQ(tw.statements_executed(), vm.statements_executed());
    ASSERT_EQ(ttw.size(), tvm.size());
    EXPECT_TRUE(std::equal(ttw.records().begin(), ttw.records().end(),
                           tvm.records().begin()));
  }
}

TEST(VmGolden, BlockDoLowering) {
  auto cr = lang::compile(R"(
PARAMETER N
REAL*8 A(N,N)
BLOCK DO K = 1, N-1
  IN K DO KK
    DO I = KK+1, N
      A(I,KK) = A(I,KK)/A(KK,KK)
    ENDDO
    DO J = KK+1, LAST(K)
      DO I = KK+1, N
        A(I,J) = A(I,J) - A(I,KK)*A(KK,J)
      ENDDO
    ENDDO
  ENDDO
  DO J = LAST(K)+1, N
    DO I = K+1, N
      IN K DO KK = K, MIN(LAST(K), I-1)
        A(I,J) = A(I,J) - A(I,KK)*A(KK,J)
      ENDDO
    ENDDO
  ENDDO
ENDDO
)");
  lang::bind_block_sizes(cr, lang::choose_block_sizes(cr, {}));
  expect_engines_agree(cr.program, {{"N", 28}}, 21);
}

// ---- Runtime-index edges ----------------------------------------------------

TEST(VmEdge, EmptyAndNegativeTripLoops) {
  Program p;
  p.param("N");
  p.array("A", {c(8)});
  p.add(loop("I", c(3), c(2), assign(lv("A", {v("I")}), f(1.0))));  // 0 trips
  p.add(loop("I", c(5), c(1), assign(lv("A", {v("I")}), f(2.0))));  // negative
  p.add(loop("I", c(1), v("N"), assign(lv("A", {v("I")}), f(3.0))));
  expect_engines_agree(p, {{"N", 0}}, 1);  // N=0: third loop empty too
  expect_engines_agree(p, {{"N", 8}}, 1);
}

TEST(VmEdge, ZeroSizeArrays) {
  // X(2:N) at N = 1 holds nothing: a loop over its range never runs, and
  // a read of it throws on every engine that checks bounds.
  Program p;
  p.param("N");
  p.array_bounds("X", {{.lb = c(2), .ub = v("N")}});
  p.array("A", {c(4)});
  p.add(loop("I", c(2), v("N"),
             assign(lv("X", {v("I")}), a("A", {c(1)}) + f(1.0))));
  p.add(assign(lv("A", {c(2)}), f(5.0)));
  expect_engines_agree(p, {{"N", 1}}, 3);
  expect_engines_agree(p, {{"N", 4}}, 3);
  if (native::available()) {
    ExecEngine nat(p, {{"N", 1}}, Engine::Native);
    nat.run();
    EXPECT_EQ(nat.store().arrays.at("A").flat()[1], 5.0);
  }

  Program r = p.clone();
  r.add(assign(lv("A", {c(3)}), a("X", {c(1)})));
  for (Engine e : {Engine::TreeWalker, Engine::Vm}) {
    ExecEngine in(r, {{"N", 1}}, e);
    EXPECT_THROW(in.run(), Error);
  }
}

TEST(VmEdge, DescendingSteps) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop_step("I", v("N"), c(1), isub(c(0), c(1)),
                  assign(lv("A", {v("I")}),
                         a("B", {v("I")}) + vindex(v("I")))));
  p.add(loop_step("I", v("N"), c(1), isub(c(0), c(3)),
                  assign(lv("B", {v("I")}), a("A", {v("I")}) * f(0.5))));
  expect_engines_agree(p, {{"N", 11}}, 2);
}

TEST(VmEdge, MinMaxAndDivisionBounds) {
  // Triangular + blocked shapes: MIN/MAX bounds and ceil-div trip counts.
  Program p;
  p.param("N");
  p.array("A", {iadd(v("N"), c(4)), iadd(v("N"), c(4))});
  p.add(loop("K", c(1), v("N"),
             loop("I", imax(c(2), v("K")),
                  imin(iadd(v("K"), c(3)), v("N")),
                  assign(lv("A", {v("I"), v("K")}),
                         a("A", {v("K"), v("I")}) + f(1.0)))));
  p.add(loop("K", c(1), iceildiv(ivar("N"), 3),
             assign(lv("A", {v("K"), c(1)}),
                    a("A", {ifloordiv(imul(iconst(2), ivar("K")), 2),
                            c(2)}))));
  for (long n : {1L, 5L, 12L}) expect_engines_agree(p, {{"N", n}}, 5);
}

TEST(VmEdge, RuntimeArrayElemBounds) {
  // KLB(KN)/KUB(KN)-style executor bounds, fed at runtime.
  Program p;
  p.array("KLB", {c(3)});
  p.array("KUB", {c(3)});
  p.array("A", {c(20)});
  p.add(assign(lv("KLB", {c(1)}), f(2.0)));
  p.add(assign(lv("KUB", {c(1)}), f(6.0)));
  p.add(assign(lv("KLB", {c(2)}), f(9.0)));
  p.add(assign(lv("KUB", {c(2)}), f(8.0)));  // empty range
  p.add(loop("KN", c(1), c(2),
             loop("K", ielem("KLB", v("KN")), ielem("KUB", v("KN")),
                  assign(lv("A", {v("K")}), vindex(v("K"))))));
  expect_engines_agree(p, {}, 17);
}

TEST(VmEdge, CounterScalarsAsIndices) {
  // IF-inspection counter pattern: a scalar accumulates a count and is
  // used as subscript and loop bound.
  Program p;
  p.scalar("KC");
  p.array("A", {c(16)});
  p.array("B", {c(16)});
  p.add(assign(lvs("KC"), f(0.0)));
  // Compress pattern: bump the counter, then store through it.
  p.add(loop("I", c(1), c(8),
             when(cmp(a("B", {v("I")}), CmpOp::GT, f(0.0)),
                  assign(lvs("KC"), s("KC") + f(1.0)),
                  assign(lv("A", {ivar("KC")}), vindex(v("I"))))));
  p.add(loop("I", c(1), ivar("KC"), assign(lv("A", {v("I")}),
                                           a("A", {v("I")}) * f(2.0))));
  expect_engines_agree(p, {}, 23);
}

TEST(VmEdge, RuntimeStepFromArray) {
  // A loop step read from memory exercises the runtime-sign loop guard.
  Program p;
  p.array("S", {c(2)});
  p.array("A", {c(12)});
  p.add(assign(lv("S", {c(1)}), f(3.0)));
  p.add(assign(lv("S", {c(2)}), f(-2.0)));
  p.add(loop_step("I", c(1), c(12), ielem("S", c(1)),
                  assign(lv("A", {v("I")}), f(1.0))));
  p.add(loop_step("I", c(12), c(1), ielem("S", c(2)),
                  assign(lv("A", {v("I")}), a("A", {v("I")}) + f(1.0))));
  expect_engines_agree(p, {}, 29);
}

TEST(VmEdge, SequentialLoopVarReuseAndScalarRouting) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.scalar("T");
  p.add(loop("I", c(1), v("N"), assign(lvs("T"), a("A", {v("I")}))));
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), s("T") + vindex(v("I")))));
  expect_engines_agree(p, {{"N", 6}}, 31);
}

TEST(VmEdge, OutOfBoundsThrowsOnBothEngines) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), iadd(v("N"), c(1)),
             assign(lv("A", {v("I")}), f(0.0))));
  ExecEngine tw(p, {{"N", 3}}, Engine::TreeWalker);
  ExecEngine vm(p, {{"N", 3}}, Engine::Vm);
  EXPECT_THROW(tw.run(), Error);
  EXPECT_THROW(vm.run(), Error);
}

TEST(VmEdge, UnboundIndexVariableThrowsOnlyWhenExecuted) {
  Program p;
  p.array("A", {c(4)});
  // Dead guard: the unbound index variable Q is never evaluated.
  p.add(loop("I", c(2), c(1), assign(lv("A", {ivar("Q")}), f(1.0))));
  p.add(assign(lv("A", {c(1)}), f(5.0)));
  expect_engines_agree(p, {}, 37);
  // Executed, it throws on both engines.
  Program q;
  q.array("A", {c(4)});
  q.add(assign(lv("A", {ivar("Q")}), f(1.0)));
  ExecEngine tw(q, {}, Engine::TreeWalker);
  ExecEngine vm(q, {}, Engine::Vm);
  EXPECT_THROW(tw.run(), Error);
  EXPECT_THROW(vm.run(), Error);
}

TEST(VmEdge, ZeroStepThrowsOnBothEngines) {
  Program p;
  p.array("A", {c(4)});
  p.add(loop_step("I", c(1), c(4), c(0), assign(lv("A", {v("I")}), f(1.0))));
  ExecEngine tw(p, {}, Engine::TreeWalker);
  ExecEngine vm(p, {}, Engine::Vm);
  EXPECT_THROW(tw.run(), Error);
  EXPECT_THROW(vm.run(), Error);
}

// ---- Facade and buffer ------------------------------------------------------

TEST(TraceBufferStreaming, FlushesBatchesWithoutLosingRecords) {
  struct Seen {
    std::vector<TraceRecord> recs;
    std::size_t batches = 0;
  } seen;
  TraceBuffer buf(16, &seen, [](void* ctx, std::span<const TraceRecord> recs) {
    Seen& s = *static_cast<Seen*>(ctx);
    ++s.batches;
    EXPECT_LE(recs.size(), 16u);
    s.recs.insert(s.recs.end(), recs.begin(), recs.end());
  });
  for (std::uint64_t i = 0; i < 100; ++i)
    buf.append(i * 8, (i % 3) == 0);
  buf.flush();
  ASSERT_EQ(seen.recs.size(), 100u);
  EXPECT_GE(seen.batches, 6u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(seen.recs[i].addr, i * 8);
    EXPECT_EQ(seen.recs[i].is_write, (i % 3) == 0);
  }
}

TEST(VmCompile, DisassemblyMentionsStrengthReducedSites) {
  Program p = kernels::lu_point_ir();
  Vm vm(p, {{"N", 8}});
  const std::string dis = vm.compiled().disassemble();
  EXPECT_NE(dis.find("affinit"), std::string::npos);
  EXPECT_NE(dis.find("affstep"), std::string::npos);
  EXPECT_NE(dis.find("(A)"), std::string::npos);
}

}  // namespace
}  // namespace blk::interp
