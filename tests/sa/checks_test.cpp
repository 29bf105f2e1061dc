// Dead-store and uninitialized-region-read checkers.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "ir/builder.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "sa/checks.hpp"
#include "sa/sa.hpp"
#include "testutil.hpp"

namespace blk::sa {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;
using analysis::Assumptions;

int count_code(const verify::Report& rep, const std::string& code) {
  int n = 0;
  for (const auto& d : rep.diags)
    if (d.code == code) ++n;
  return n;
}

TEST(DeadStore, StraightLineOverwrite) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(assign(lv("A", {c(1)}), f(1.0)));
  p.add(assign(lv("A", {c(1)}), f(2.0)));
  verify::Report rep = check_dead_stores(p);
  EXPECT_EQ(count_code(rep, "dead-store"), 1) << rep.to_string();
}

TEST(DeadStore, InterveningReadKeepsStoreAlive) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(assign(lv("A", {c(1)}), f(1.0)));
  p.add(assign(lv("B", {c(1)}), a("A", {c(1)})));
  p.add(assign(lv("A", {c(1)}), f(2.0)));
  verify::Report rep = check_dead_stores(p);
  EXPECT_EQ(count_code(rep, "dead-store"), 0) << rep.to_string();
}

TEST(DeadStore, WholeArrayReinitializedByLoop) {
  // DO I: A(I)=0 then DO I: A(I)=B(I) with no read in between — the first
  // loop's stores are dead.  Needs N>=1 so both loops provably execute.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"), assign(lv("A", {v("I")}), f(0.0))));
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("B", {v("I")}))));
  Assumptions ctx;
  ctx.assert_ge(v("N"), c(1));
  verify::Report rep = check_dead_stores(p, {.ctx = &ctx});
  EXPECT_EQ(count_code(rep, "dead-store"), 1) << rep.to_string();
  // Without the trip-count fact nothing is provable — and nothing reported.
  EXPECT_EQ(count_code(check_dead_stores(p), "dead-store"), 0);
}

TEST(DeadStore, GuardedOverwriteDoesNotKill) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(assign(lv("A", {c(1)}), f(1.0)));
  p.add(when(cmp(a("B", {c(1)}), CmpOp::GT, f(0.0)),
             assign(lv("A", {c(1)}), f(2.0))));
  verify::Report rep = check_dead_stores(p);
  EXPECT_EQ(count_code(rep, "dead-store"), 0) << rep.to_string();
}

TEST(DeadStore, GuardedWriteInsideLoopDoesNotKill) {
  // The second loop writes A(I) only where B(I) > 0: its section covers
  // the first loop's, but it is not a must-write.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"), assign(lv("A", {v("I")}), f(0.0))));
  p.add(loop("I", c(1), v("N"),
             when(cmp(a("B", {v("I")}), CmpOp::GT, f(0.0)),
                  assign(lv("A", {v("I")}), f(1.0)))));
  Assumptions ctx;
  ctx.assert_ge(v("N"), c(1));
  verify::Report rep = check_dead_stores(p, {.ctx = &ctx});
  EXPECT_EQ(count_code(rep, "dead-store"), 0) << rep.to_string();
}

TEST(DeadStore, ChildSectionsKeepEnclosingLoopsSymbolic) {
  // Inside DO K each child is summarized over its own loops only, so the
  // dead store is the column A(1:N,K:K) of the current K.
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.add(loop("K", c(1), v("N"),
             loop("I", c(1), v("N"), assign(lv("A", {v("I"), v("K")}),
                                            f(0.0))),
             loop("I", c(1), v("N"), assign(lv("A", {v("I"), v("K")}),
                                            f(1.0)))));
  Assumptions ctx;
  ctx.assert_ge(v("N"), c(1));
  verify::Report rep = check_dead_stores(p, {.ctx = &ctx});
  ASSERT_EQ(count_code(rep, "dead-store"), 1) << rep.to_string();
  EXPECT_NE(rep.diags[0].message.find("store to A(1:N,K:K)"),
            std::string::npos)
      << rep.diags[0].message;
}

TEST(DeadStore, RectangularOverwriteStillWarns) {
  Program p;
  p.param("N");
  p.array("M", {v("N"), v("N")});
  for (double val : {1.0, 2.0})
    p.add(loop("J", c(1), v("N"),
               loop("I", c(1), v("N"),
                    assign(lv("M", {v("I"), v("J")}), f(val)))));
  Assumptions ctx;
  ctx.assert_ge(v("N"), c(2));
  verify::Report rep = check_dead_stores(p, {.ctx = &ctx});
  EXPECT_EQ(count_code(rep, "dead-store"), 1) << rep.to_string();
}

TEST(DeadStore, DiagonalWriteDoesNotKillAColumn) {
  // M(K,K)'s section M(1:N,1:N) covers the column M(1:N,2:2), but the
  // diagonal rewrites only M(2,2); X reads M(1,2), M(3,2), ... from the
  // first loop.
  Program p;
  p.param("N");
  p.array("M", {v("N"), v("N")});
  p.array("X", {v("N")});
  p.add(loop("J", c(1), v("N"), assign(lv("M", {v("J"), c(2)}), f(1.0))));
  p.add(loop("K", c(1), v("N"), assign(lv("M", {v("K"), v("K")}), f(2.0))));
  p.add(loop("J", c(1), v("N"),
             assign(lv("X", {v("J")}), a("M", {v("J"), c(2)}))));
  Assumptions ctx;
  ctx.assert_ge(v("N"), c(2));
  verify::Report rep = check_dead_stores(p, {.ctx = &ctx});
  EXPECT_EQ(count_code(rep, "dead-store"), 0) << rep.to_string();
}

TEST(DeadStore, StridedWriteDoesNotKill) {
  // DO I = 1, N, 2 rewrites only the odd elements of A(1:N).
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("X", {v("N")});
  p.add(loop("I", c(1), v("N"), assign(lv("A", {v("I")}), f(1.0))));
  p.add(loop_step("I", c(1), v("N"), c(2),
                  assign(lv("A", {v("I")}), f(2.0))));
  p.add(loop("I", c(1), v("N"),
             assign(lv("X", {v("I")}), a("A", {v("I")}))));
  Assumptions ctx;
  ctx.assert_ge(v("N"), c(2));
  verify::Report rep = check_dead_stores(p, {.ctx = &ctx});
  EXPECT_EQ(count_code(rep, "dead-store"), 0) << rep.to_string();
}

TEST(DeadStore, KernelsAreCleanTrueNegatives) {
  // The paper's kernels recompute in place; none of their stores are dead.
  using Factory = Program (*)();
  for (Factory make :
       {&blk::kernels::lu_point_ir, &blk::kernels::lu_pivot_point_ir,
        &blk::kernels::conv_ir, &blk::kernels::givens_qr_ir}) {
    Program p = make();
    Assumptions ctx;
    ctx.assert_ge(v("N"), c(2));
    verify::Report rep = check_dead_stores(p, {.ctx = &ctx});
    EXPECT_EQ(count_code(rep, "dead-store"), 0) << rep.to_string();
  }
}

TEST(UninitRead, ReadBelowWrittenRegion) {
  // T(2:N) is written; reading T(1) afterwards is provably uninitialized.
  // (B is never written, so it counts as external input and stays quiet.)
  Program p;
  p.param("N");
  p.array("T", {v("N")});
  p.array("B", {v("N")});
  p.array("X", {v("N")});
  p.add(loop("I", c(2), v("N"),
             assign(lv("T", {v("I")}), a("B", {v("I")}))));
  p.add(assign(lv("X", {c(1)}), a("T", {c(1)})));
  verify::Report rep = check_uninit_reads(p);
  EXPECT_EQ(count_code(rep, "uninit-region-read"), 1) << rep.to_string();
}

TEST(UninitRead, ReadBeforeAnyWrite) {
  Program p;
  p.param("N");
  p.array("T", {v("N")});
  p.array("X", {v("N")});
  p.add(assign(lv("X", {c(1)}), a("T", {c(1)})));  // T written only later
  p.add(assign(lv("T", {c(1)}), f(0.0)));
  verify::Report rep = check_uninit_reads(p);
  EXPECT_EQ(count_code(rep, "uninit-region-read"), 1) << rep.to_string();
}

TEST(UninitRead, LaterWriteInSameLoopIsVisible) {
  // DO I: B(I) = A(I); A(I) = ...: the A(I) read comes first in the body,
  // but an earlier iteration's write may precede it.  Straight-line, the
  // same two statements read A(1) before any write.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("B", {v("I")}), a("A", {v("I")})),
             assign(lv("A", {v("I")}), a("B", {v("I")}) + f(1.0))));
  verify::Report rep = check_uninit_reads(p);
  EXPECT_EQ(count_code(rep, "uninit-region-read"), 0) << rep.to_string();

  Program straight;
  straight.param("N");
  straight.array("A", {v("N")});
  straight.array("B", {v("N")});
  straight.add(assign(lv("B", {c(1)}), a("A", {c(1)})));
  straight.add(assign(lv("A", {c(1)}), a("B", {c(1)}) + f(1.0)));
  rep = check_uninit_reads(straight);
  EXPECT_EQ(count_code(rep, "uninit-region-read"), 1) << rep.to_string();
}

TEST(UninitRead, UnanalyzableWriteSilencesTheArray) {
  // T(2:N) alone leaves T(1) provably unwritten; a preceding write T(I*I)
  // defeats section analysis, so nothing about T is provable any more.
  for (bool square : {false, true}) {
    Program p;
    p.param("N");
    p.array("T", {v("N")});
    p.array("X", {v("N")});
    if (square)
      p.add(loop("I", c(1), v("N"),
                 assign(lv("T", {imul(ivar("I"), ivar("I"))}), f(1.0))));
    p.add(loop("I", c(2), v("N"), assign(lv("T", {v("I")}), f(0.0))));
    p.add(assign(lv("X", {c(1)}), a("T", {c(1)})));
    verify::Report rep = check_uninit_reads(p);
    EXPECT_EQ(count_code(rep, "uninit-region-read"), square ? 0 : 1)
        << rep.to_string();
  }
}

TEST(UninitRead, WhereNamesTheNestedPath) {
  Program p;
  p.param("N");
  p.array("T", {v("N")});
  p.array("X", {v("N")});
  p.add(loop("K", c(1), v("N"),
             loop("J", c(1), v("N"),
                  loop("I", c(1), v("N"),
                       assign(lv("X", {v("I")}), a("T", {c(1)}), 10)))));
  p.add(loop("I", c(1), v("N"), assign(lv("T", {v("I")}), f(0.0))));
  verify::Report rep = check_uninit_reads(p);
  ASSERT_EQ(count_code(rep, "uninit-region-read"), 1) << rep.to_string();
  EXPECT_EQ(rep.diags[0].where, "DO K > DO J > DO I > 10: X(I)=...");
}

TEST(UninitRead, DescendingLoopWriteCoversItsRange) {
  // DO I = N, 1, -1 writes T(1:N); the inverted section T(N:1) used to
  // make X(1) = T(1) look like a read of an unwritten element.
  Program p;
  p.param("N");
  p.array("T", {v("N")});
  p.array("X", {v("N")});
  p.add(loop_step("I", v("N"), c(1), c(-1),
                  assign(lv("T", {v("I")}), f(1.0))));
  p.add(assign(lv("X", {c(1)}), a("T", {c(1)})));
  Assumptions ctx;
  ctx.assert_ge(v("N"), c(2));
  verify::Report rep = check_uninit_reads(p, {.ctx = &ctx});
  EXPECT_EQ(count_code(rep, "uninit-region-read"), 0) << rep.to_string();
}

TEST(UninitRead, ExternalInputArraysAreExempt) {
  // B is never written: treated as external input, not flagged.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("B", {v("I")}))));
  verify::Report rep = check_uninit_reads(p);
  EXPECT_EQ(count_code(rep, "uninit-region-read"), 0) << rep.to_string();
}

TEST(UninitRead, InPlaceKernelsAreClean) {
  using Factory = Program (*)();
  for (Factory make :
       {&blk::kernels::lu_point_ir, &blk::kernels::lu_pivot_point_ir,
        &blk::kernels::conv_ir, &blk::kernels::givens_qr_ir,
        &blk::kernels::sum_example_ir}) {
    Program p = make();
    verify::Report rep = check_uninit_reads(p);
    EXPECT_EQ(count_code(rep, "uninit-region-read"), 0) << rep.to_string();
  }
}

/// Random programs for the region checks: a sequence of 1-4 top-level
/// items (a loop nest up to 3 deep, or an assignment) over A (2-D), B and
/// C (1-D), with IF guards, triangular and MIN bounds, coupled and
/// diagonal subscripts, step-2 and descending loops.  Every assignment
/// gets a distinct label, so a diagnostic's `where` names one statement.
struct NestGen {
  static constexpr long kPad = 40;  // ample for every subscript at N <= 6
  std::mt19937_64 rng;
  int label = 0;

  explicit NestGen(std::uint64_t seed) : rng(seed) {}

  long pick(long lo, long hi) {
    return std::uniform_int_distribution<long>(lo, hi)(rng);
  }
  bool coin(double p = 0.5) {
    return std::uniform_real_distribution<double>(0, 1)(rng) < p;
  }
  IExprPtr any(const std::vector<std::string>& vars) {
    return ivar(vars[static_cast<std::size_t>(
        pick(0, static_cast<long>(vars.size()) - 1))]);
  }

  IExprPtr subscript(const std::vector<std::string>& vars) {
    long roll = pick(0, 19);
    if (vars.empty() || roll < 2) return c(pick(1, 3));
    // Draw before building: argument evaluation order is unspecified, and
    // a seed must give the same program under every compiler.
    IExprPtr x = any(vars);
    if (roll < 11) return x;
    if (roll < 14) return simplify(iadd(x, c(pick(-1, 1))));
    if (roll < 16) return simplify(isub(c(pick(0, 4)), x));
    if (roll < 18) return simplify(iadd(x, any(vars)));
    return simplify(imul(c(2), x));
  }

  VExprPtr read(const std::vector<std::string>& vars) {
    switch (pick(0, 2)) {
      case 0: return a("A", {subscript(vars), subscript(vars)});
      case 1: return a("B", {subscript(vars)});
      default: return a("C", {subscript(vars)});
    }
  }

  StmtPtr assignment(const std::vector<std::string>& vars) {
    VExprPtr rhs = f(static_cast<double>(pick(1, 9)));
    if (coin(0.5)) rhs = read(vars) + std::move(rhs);
    if (coin(0.2)) rhs = read(vars) * std::move(rhs);
    switch (pick(0, 2)) {
      case 0:
        return assign(lv("A", {subscript(vars), subscript(vars)}),
                      std::move(rhs), ++label);
      case 1:
        return assign(lv("B", {subscript(vars)}), std::move(rhs), ++label);
      default:
        return assign(lv("C", {subscript(vars)}), std::move(rhs), ++label);
    }
  }

  StmtPtr statement(std::vector<std::string>& vars) {
    StmtPtr st = vars.size() < 3 && coin(0.35) ? nest(vars) : assignment(vars);
    if (!coin(0.15)) return st;
    StmtList guarded;
    guarded.push_back(std::move(st));
    return make_if({.lhs = read(vars), .op = CmpOp::GT, .rhs = f(0.5)},
                   std::move(guarded));
  }

  StmtPtr nest(std::vector<std::string>& vars) {
    static const char* names[] = {"I", "J", "K"};
    IExprPtr lb = c(1), ub = v("N"), step = c(1);
    if (!vars.empty() && coin(0.3)) {
      IExprPtr outer = ivar(vars.back());
      switch (pick(0, 2)) {
        case 0: lb = simplify(iadd(outer, c(pick(0, 1)))); break;
        case 1: ub = outer; break;
        default: ub = imin(v("N"), iadd(outer, c(pick(1, 2)))); break;
      }
    }
    if (coin(0.1)) {
      step = c(2);
    } else if (coin(0.12)) {
      std::swap(lb, ub);
      step = c(-1);
    }
    vars.emplace_back(names[vars.size()]);
    StmtList body;
    for (long n = pick(1, 3); n > 0; --n) body.push_back(statement(vars));
    std::string var = vars.back();
    vars.pop_back();
    return make_loop(var, std::move(lb), std::move(ub), std::move(body),
                     std::move(step));
  }

  Program program() {
    Program p;
    p.param("N");
    p.array_bounds("A", {{.lb = c(-kPad), .ub = c(kPad)},
                         {.lb = c(-kPad), .ub = c(kPad)}});
    p.array_bounds("B", {{.lb = c(-kPad), .ub = c(kPad)}});
    p.array_bounds("C", {{.lb = c(-kPad), .ub = c(kPad)}});
    std::vector<std::string> vars;
    for (long n = pick(1, 4); n > 0; --n)
      p.add(coin(0.8) ? nest(vars) : assignment(vars));
    return p;
  }
};

/// Remove the assignment labelled `label` from `body`, at any depth.
bool erase_label(StmtList& body, int label) {
  for (auto it = body.begin(); it != body.end(); ++it) {
    Stmt& s = **it;
    if (s.kind() == SKind::Assign && s.as_assign().label == label) {
      body.erase(it);
      return true;
    }
    if ((s.kind() == SKind::Loop && erase_label(s.as_loop().body, label)) ||
        (s.kind() == SKind::If &&
         (erase_label(s.as_if().then_body, label) ||
          erase_label(s.as_if().else_body, label))))
      return true;
  }
  return false;
}

/// Every array of the VM's store after running `p` at N = `n` on seeded
/// inputs, as raw bytes.
std::string vm_bytes(const Program& p, long n) {
  interp::ExecEngine eng(p, {{"N", n}});
  test::seed_inputs(eng, 11);
  eng.run();
  std::string out;
  for (const auto& [name, t] : eng.store().arrays)
    out.append(reinterpret_cast<const char*>(t.flat().data()),
               t.flat().size_bytes());
  return out;
}

TEST(DeadStore, DeletingAFlaggedStoreNeverChangesTheResult) {
  // The oracle for "dead": on random programs, delete each assignment a
  // dead-store warning flags and require bitwise-identical VM stores at
  // N = 1, 3, 6 (every N the facts allow).
  Assumptions n_ge_1;
  n_ge_1.assert_ge(v("N"), c(1));
  const Assumptions* contexts[] = {nullptr, &n_ge_1};
  int warnings = 0, compared = 0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    NestGen gen(seed * 7919 + 3);
    Program p = gen.program();
    for (const Assumptions* ctx : contexts) {
      for (const auto& d : check_dead_stores(p, {.ctx = ctx}).diags) {
        ++warnings;
        // `where` ends in the flagged statement: "<label>: <target>=...".
        std::size_t at = d.where.rfind("> ");
        int label = std::stoi(
            d.where.substr(at == std::string::npos ? 0 : at + 2));
        Program cut = p.clone();
        ASSERT_TRUE(erase_label(cut.body, label)) << d.where;
        for (long n : {1L, 3L, 6L}) {
          std::string want, got;
          try {
            want = vm_bytes(p, n);
            got = vm_bytes(cut, n);
          } catch (const blk::Error&) {
            continue;
          }
          ++compared;
          ASSERT_EQ(want, got)
              << "deleting " << d.where << " changed the result at N=" << n
              << "\n" << d.to_string() << "\n" << print(p.body);
        }
      }
    }
  }
  EXPECT_GE(warnings, 200);
  EXPECT_GE(compared, 500);
}

TEST(Analyze, FacadeMergesEverythingCanonically) {
  Program p = blk::kernels::lu_point_ir();
  SaResult res = analyze(p);
  EXPECT_TRUE(res.report.ok());
  EXPECT_EQ(res.verdicts.loops.size(), 4u);
  // Verdict notes are present with stable codes.
  EXPECT_GE(count_code(res.report, "certify-parallel"), 1);
  EXPECT_EQ(count_code(res.report, "certify-serial"), 1);
  // Canonical: sorted by (where, code, subscript) and deduplicated.
  for (std::size_t i = 1; i < res.report.diags.size(); ++i) {
    const auto& a = res.report.diags[i - 1];
    const auto& b = res.report.diags[i];
    EXPECT_LE(std::tie(a.where, a.code, a.subscript),
              std::tie(b.where, b.code, b.subscript));
  }
}

}  // namespace
}  // namespace blk::sa
