// Dependence-preservation checker tests: legal transformations pass,
// seeded-illegal ones are rejected with actionable diagnostics.
#include <gtest/gtest.h>

#include "analysis/depgraph.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "transform/distribute.hpp"
#include "transform/fuse.hpp"
#include "transform/interchange.hpp"
#include "transform/stripmine.hpp"
#include "verify/depcheck.hpp"

namespace blk::verify {
namespace {

using namespace blk::ir;
using namespace blk::ir::dsl;

[[nodiscard]] const Diagnostic* find_code(const Report& r,
                                          const std::string& code) {
  for (const auto& d : r.diags)
    if (d.code == code) return &d;
  return nullptr;
}

// DO I = 2, N ; DO J = 1, N-1 : A(I,J) = A(I-1,J+1) — the textbook
// (<,>)-direction nest where interchange is illegal.
Program skewed_nest() {
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = iconst(0), .ub = ivar("N")},
                       {.lb = iconst(0), .ub = iadd(ivar("N"), iconst(1))}});
  p.add(loop("I", c(2), v("N"),
             loop("J", c(1), v("N") - 1,
                  assign(lv("A", {v("I"), v("J")}),
                         a("A", {v("I") - 1, v("J") + 1}), 10))));
  return p;
}

TEST(DepCheck, AcceptsLegalInterchange) {
  // Matmul: all dependences are on C with (=,=) directions; interchange
  // is legal and must verify.
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.array("B", {v("N"), v("N")});
  p.array("C", {v("N"), v("N")});
  p.add(loop("I", c(1), v("N"),
             loop("J", c(1), v("N"),
                  assign(lv("C", {v("I"), v("J")}),
                         a("C", {v("I"), v("J")}) +
                             a("A", {v("I"), v("J")}) *
                                 a("B", {v("J"), v("I")})))));
  Program pre = p.clone();
  transform::interchange(p.body, p.body[0]->as_loop());
  Report r = check_dependence_preservation(pre, p);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(DepCheck, RejectsIllegalInterchange) {
  Program p = skewed_nest();
  Program pre = p.clone();
  transform::interchange(p.body, p.body[0]->as_loop(), /*check=*/false);
  Report r = check_dependence_preservation(pre, p);
  EXPECT_FALSE(r.ok()) << print(p.body);
  const Diagnostic* d = find_code(r, "dep-broken");
  ASSERT_NE(d, nullptr) << r.to_string();
  EXPECT_NE(d->message.find("flow"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("A"), std::string::npos);
  EXPECT_NE(d->message.find("not preserved"), std::string::npos);
}

TEST(DepCheck, AcceptsLegalDistribution) {
  // No recurrence: A feeds C forward only.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.array("C", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("B", {v("I")}), 10),
             assign(lv("C", {v("I")}), a("A", {v("I")}), 20)));
  Program pre = p.clone();
  auto pieces = transform::distribute(p.body, p.body[0]->as_loop());
  ASSERT_EQ(pieces.size(), 2u);
  Report r = check_dependence_preservation(pre, p);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(DepCheck, RejectsDistributionAcrossRecurrence) {
  // S10: A(I) = B(I-1) and S20: B(I) = A(I) form a recurrence (A forward
  // within the iteration, B carried backward).  Forcing distribution by
  // ignoring every edge breaks the carried flow on B.
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = iconst(0), .ub = ivar("N")}});
  p.array_bounds("B", {{.lb = iconst(0), .ub = ivar("N")}});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("B", {v("I") - 1}), 10),
             assign(lv("B", {v("I")}), a("A", {v("I")}), 20)));
  Program pre = p.clone();
  auto pieces = transform::distribute(
      p.body, p.body[0]->as_loop(), nullptr,
      [](const analysis::DepGraph::Edge&) { return true; });
  ASSERT_EQ(pieces.size(), 2u);
  Report r = check_dependence_preservation(pre, p);
  EXPECT_FALSE(r.ok()) << print(p.body);
  const Diagnostic* d = find_code(r, "dep-broken");
  ASSERT_NE(d, nullptr) << r.to_string();
  EXPECT_NE(d->message.find("B"), std::string::npos);
}

TEST(DepCheck, RejectsIllegalReversal) {
  // A(I) = A(I-1) carries a distance-1 flow; running the loop backwards
  // consumes values before they are produced.
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = iconst(0), .ub = ivar("N")}});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I") - 1}), 10)));
  Program pre = p.clone();
  transform::reverse_loop(p.body, p.body[0]->as_loop(), /*check=*/false);
  Report r = check_dependence_preservation(pre, p);
  EXPECT_FALSE(r.ok()) << print(p.body);
  EXPECT_NE(find_code(r, "dep-broken"), nullptr) << r.to_string();
}

TEST(DepCheck, AcceptsLegalReversal) {
  // No carried dependence: reversal is legal and must verify (exercises
  // the descending-loop normalization on the post side).
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("B", {v("I")}) + a("A", {v("I")}))));
  Program pre = p.clone();
  transform::reverse_loop(p.body, p.body[0]->as_loop());
  Report r = check_dependence_preservation(pre, p);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(DepCheck, RejectsIllegalFusion) {
  // The second loop reads A(I+1), produced by the *next* iteration of the
  // first loop's statement once fused: fusion reverses that dependence.
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = iconst(1), .ub = iadd(ivar("N"), iconst(1))}});
  p.array("B", {v("N")});
  p.array("C", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("B", {v("I")}), 10)));
  p.add(loop("I", c(1), v("N"),
             assign(lv("C", {v("I")}), a("A", {v("I") + 1}), 20)));
  Program pre = p.clone();
  transform::fuse(p.body, p.body[0]->as_loop(), /*check=*/false);
  Report r = check_dependence_preservation(pre, p);
  EXPECT_FALSE(r.ok()) << print(p.body);
  EXPECT_NE(find_code(r, "dep-broken"), nullptr) << r.to_string();
}

TEST(DepCheck, RejectsManualStatementSwap) {
  // Not a pass at all: hand-editing the tree to swap a producer past its
  // consumer must still be caught.
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.array("C", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("B", {v("I")}), 10),
             assign(lv("C", {v("I")}), a("A", {v("I")}), 20)));
  Program post = p.clone();
  auto& body = post.body[0]->as_loop().body;
  std::swap(body[0], body[1]);
  Report r = check_dependence_preservation(p, post);
  EXPECT_FALSE(r.ok());
  const Diagnostic* d = find_code(r, "dep-broken");
  ASSERT_NE(d, nullptr) << r.to_string();
  EXPECT_NE(d->message.find("anti"), std::string::npos) << d->message;
}

TEST(DepCheck, ReportsLostStatement) {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("B", {v("I")}), 10),
             assign(lv("B", {v("I")}), a("A", {v("I")}), 20)));
  Program post = p.clone();
  post.body[0]->as_loop().body.pop_back();
  Report r = check_dependence_preservation(p, post);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(find_code(r, "lost-statement"), nullptr) << r.to_string();
}

TEST(DepCheck, AcceptsStripMine) {
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = iconst(0), .ub = ivar("N")}});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I") - 1}), 10)));
  Program pre = p.clone();
  transform::strip_mine(p, p.body[0]->as_loop(), iconst(4));
  Report r = check_dependence_preservation(pre, p);
  EXPECT_TRUE(r.ok()) << r.to_string() << print(p.body);
}

TEST(DepCheck, CommutativeRowSwapWhitelisted) {
  // §5.2: a row interchange commutes with whole-column updates even though
  // data dependence forbids reordering them.  The whitelist admits the
  // reordering; switching it off exposes the raw dependence violation.
  auto build = [](bool swap_first) {
    Program p;
    p.param("N");
    p.param("K");
    p.array("A", {v("N"), v("N")});
    p.scalar("TAU");
    p.scalar("IMAX");
    StmtPtr update =
        loop("J2", c(1), v("N"),
             loop("I", c(1), v("N"),
                  assign(lv("A", {v("I"), v("J2")}),
                         a("A", {v("I"), v("J2")}) -
                             a("A", {v("I"), v("K")}) *
                                 a("A", {v("K"), v("J2")}),
                         10)));
    StmtPtr swap =
        loop("J", c(1), v("N"),
             assign(lvs("TAU"), a("A", {v("K"), v("J")})),
             assign(lv("A", {v("K"), v("J")}), a("A", {ivar("IMAX"), v("J")}),
                    25),
             assign(lv("A", {ivar("IMAX"), v("J")}), s("TAU"), 30));
    if (swap_first) {
      p.add(std::move(swap));
      p.add(std::move(update));
    } else {
      p.add(std::move(update));
      p.add(std::move(swap));
    }
    return p;
  };
  Program pre = build(/*swap_first=*/false);
  Program post = build(/*swap_first=*/true);

  Report with = check_dependence_preservation(pre, post);
  EXPECT_TRUE(with.ok()) << with.to_string();

  Report without = check_dependence_preservation(
      pre, post,
      {.ctx = nullptr, .allow_commutative_swaps = false});
  EXPECT_FALSE(without.ok());
}

TEST(DepCheck, StmtKeysStableUnderIndexSubstitution) {
  StmtPtr s1 = assign(lv("A", {v("I"), v("J")}),
                      a("A", {v("I") - 1, v("J")}) * a("B", {v("J")}), 10);
  StmtPtr s2 = s1->clone();
  // The substitutions reordering passes perform must not change the key...
  s2->as_assign().lhs.subs[0] = iadd(ivar("II"), iconst(3));
  s2->as_assign().rhs = substitute_index(s2->as_assign().rhs, "I", ivar("II"));
  EXPECT_EQ(stmt_key(*s1), stmt_key(*s2));

  // ...but a different label or a different operator tree must.
  StmtPtr other = assign(lv("A", {v("I"), v("J")}),
                         a("A", {v("I") - 1, v("J")}) * a("B", {v("J")}), 20);
  EXPECT_NE(stmt_key(*s1), stmt_key(*other));
  StmtPtr shape = assign(lv("A", {v("I"), v("J")}),
                         a("A", {v("I") - 1, v("J")}) + a("B", {v("J")}), 10);
  EXPECT_NE(stmt_key(*s1), stmt_key(*shape));
}

}  // namespace
}  // namespace blk::verify
