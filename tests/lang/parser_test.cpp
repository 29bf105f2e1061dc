// Parser tests: mini-Fortran to IR, including the §6 extensions.
#include <gtest/gtest.h>

#include <random>

#include "interp/interp.hpp"
#include "interp/vm.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "lang/blockdo.hpp"
#include "ir/builder.hpp"
#include "lang/parser.hpp"
#include "testutil.hpp"

namespace blk::lang {
namespace {

using namespace blk::ir;

TEST(Parser, Declarations) {
  auto cr = compile(
      "PARAMETER N, M\n"
      "REAL*8 A(N,M), F(-M:0), X\n");
  EXPECT_TRUE(cr.program.has_param("N"));
  EXPECT_TRUE(cr.program.has_param("M"));
  EXPECT_TRUE(cr.program.has_array("A"));
  EXPECT_TRUE(cr.program.has_scalar("X"));
  const ArrayDecl& f = cr.program.array_decl("F");
  EXPECT_EQ(to_string(f.dims[0].lb), "0-M");
  EXPECT_EQ(to_string(f.dims[0].ub), "0");
}

TEST(Parser, LuPointRoundTripsAgainstBuilder) {
  auto cr = compile(
      "PARAMETER N\n"
      "REAL*8 A(N,N)\n"
      "DO K = 1, N-1\n"
      "  DO I = K+1, N\n"
      "    20: A(I,K) = A(I,K)/A(K,K)\n"
      "  ENDDO\n"
      "  DO J = K+1, N\n"
      "    DO I = K+1, N\n"
      "      10: A(I,J) = A(I,J) - A(I,K)*A(K,J)\n"
      "    ENDDO\n"
      "  ENDDO\n"
      "ENDDO\n");
  Program built = blk::kernels::lu_point_ir();
  EXPECT_EQ(print(cr.program.body), print(built.body));
}

TEST(Parser, PrinterOutputReparses) {
  // print() emits the same dialect the parser accepts: round trip the
  // Givens kernel.
  Program g = blk::kernels::givens_qr_ir();
  std::string src = print(g);
  auto cr = compile(src);
  EXPECT_EQ(print(cr.program.body), print(g.body));
}

TEST(Parser, IfElse) {
  auto cr = compile(
      "REAL*8 X, Y\n"
      "IF (X .LT. 0.0) THEN\n"
      "  Y = 1\n"
      "ELSE\n"
      "  Y = 2\n"
      "ENDIF\n");
  ASSERT_EQ(cr.program.body.size(), 1u);
  const If& f = cr.program.body[0]->as_if();
  EXPECT_EQ(f.cond.op, CmpOp::LT);
  EXPECT_EQ(f.then_body.size(), 1u);
  EXPECT_EQ(f.else_body.size(), 1u);
}

TEST(Parser, DoWithStep) {
  auto cr = compile(
      "PARAMETER N\n"
      "REAL*8 A(N)\n"
      "DO I = 1, N, 4\n"
      "  A(I) = 0.0\n"
      "ENDDO\n");
  EXPECT_EQ(cr.program.body[0]->as_loop().const_step(), 4);
}

TEST(Parser, MinMaxVariadic) {
  auto cr = compile(
      "PARAMETER N, K\n"
      "REAL*8 A(N)\n"
      "DO I = MAX(1,K-2), MIN(N,K+2,2*K)\n"
      "  A(I) = 1.0\n"
      "ENDDO\n");
  const Loop& l = cr.program.body[0]->as_loop();
  EXPECT_EQ(to_string(l.lb), "MAX(1,K-2)");
  EXPECT_EQ(to_string(l.ub), "MIN(N,K+2,2*K)");
}

TEST(Parser, IntrinsicsAndUnaryMinus) {
  auto cr = compile(
      "REAL*8 X, Y\n"
      "X = SQRT(Y*Y) + ABS(-Y)\n");
  const Assign& a = cr.program.body[0]->as_assign();
  EXPECT_NE(to_string(*a.rhs).find("SQRT"), std::string::npos);
  EXPECT_NE(to_string(*a.rhs).find("ABS"), std::string::npos);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    (void)compile("PARAMETER N\nREAL*8 A(N)\nDO I = 1 N\nENDDO\n");
    FAIL() << "expected parse error";
  } catch (const blk::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

/// The message of the blk::Error compiling `src` throws ("" if none).
std::string compile_error(const std::string& src) {
  try {
    (void)compile(src);
  } catch (const blk::Error& e) {
    return e.what();
  }
  return "";
}

TEST(Parser, DeepNestingIsRejectedWithItsLine) {
  // Nesting past the parser's fixed depth is an error naming the line, not
  // a stack overflow: 200k parentheses, a 200k-long chain of unary minus
  // and 10k nested IFs.
  const std::string decls = "PARAMETER N\nREAL*8 A(N), X\n";
  const std::string deep = std::string(200000, '(') + "1" +
                           std::string(200000, ')');
  for (const std::string& src :
       {decls + "DO I = 1, N\n  A(I) = " + deep + "\nENDDO\n",
        decls + "DO I = 1, N\n  A(" + deep + ") = 0\nENDDO\n",
        decls + "DO I = 1, N\n  X = " + std::string(200000, '-') +
            "1\nENDDO\n"}) {
    const std::string what = compile_error(src);
    EXPECT_NE(what.find("nesting deeper than"), std::string::npos) << what;
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
  }
  std::string ifs = decls;
  for (int i = 0; i < 10000; ++i) ifs += "IF (X .GT. 0) THEN\n";
  EXPECT_NE(compile_error(ifs).find("nesting deeper than"), std::string::npos);
  // Ordinary depth parses.
  EXPECT_EQ(compile_error(decls + "X = " + std::string(100, '(') + "1" +
                          std::string(100, ')') + "\n"),
            "");
}

TEST(Parser, BoundsMayNameABlockFactor) {
  // §6's compact-WY T matrix: a local array sized by the BLOCK DO factor,
  // which the BLOCK DO after the declarations introduces.
  auto cr = compile(
      "PARAMETER N\n"
      "REAL*8 A(N), T(BS_K,BS_K)\n"
      "BLOCK DO K = 1, N\n"
      "  IN K DO KK\n"
      "    T(KK-K+1,KK-K+1) = A(KK)\n"
      "  ENDDO\n"
      "ENDDO\n");
  const ArrayDecl& t = cr.program.array_decl("T");
  EXPECT_EQ(to_string(t.dims[0].ub), "BS_K");
  EXPECT_EQ(to_string(t.dims[1].ub), "BS_K");
  EXPECT_TRUE(cr.program.has_param("BS_K"));
  interp::ExecEngine e(cr.program, {{"N", 10}, {"BS_K", 4}});
  e.store().arrays.at("A").flat()[8] = 2.5;  // A(9): block 9..10
  e.run();
  EXPECT_EQ(e.store().arrays.at("T").flat()[0], 2.5);  // T(1,1)
}

TEST(Parser, RejectsBoundsNamingNoParameter) {
  // BS_J belongs to no BLOCK DO; Q is not a PARAMETER.
  std::string what = compile_error(
      "PARAMETER N\nREAL*8 A(N)\nREAL*8 T(BS_J,BS_J)\n"
      "BLOCK DO K = 1, N\n  A(K) = 0.0\nENDDO\n");
  EXPECT_NE(what.find("BS_J"), std::string::npos) << what;
  EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  what = compile_error("REAL*8 A(Q)\n");
  EXPECT_NE(what.find("Q in an array bound"), std::string::npos) << what;
}

TEST(Parser, RejectsUndeclaredNames) {
  EXPECT_THROW((void)compile("Z = 1.0\n"), blk::Error);
  EXPECT_THROW((void)compile("REAL*8 X\nX = Q(3)\n"), blk::Error);
}

TEST(Parser, RejectsShadowedLoopVariable) {
  EXPECT_THROW((void)compile("PARAMETER N\nREAL*8 A(N)\n"
                             "DO I = 1, N\n  DO I = 1, N\n"
                             "    A(I) = 0.0\n  ENDDO\nENDDO\n"),
               blk::Error);
}

TEST(Parser, RejectsEndifMismatch) {
  EXPECT_THROW((void)compile("REAL*8 X\nIF (X .GT. 0.0) THEN\nX = 1\n"),
               blk::Error);
}

// ---- §6 extensions ----------------------------------------------------

static const char* kBlockLuSource = R"(
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
)";

TEST(BlockDo, Fig11LowersToStripLoops) {
  auto cr = compile(kBlockLuSource);
  ASSERT_EQ(cr.block_params.size(), 1u);
  EXPECT_EQ(cr.block_params.at("K"), "BS_K");
  const Loop& k = cr.program.body[0]->as_loop();
  EXPECT_EQ(to_string(k.step), "BS_K");
  const Loop& kk = k.body[0]->as_loop();
  EXPECT_EQ(to_string(kk.lb), "K");
  EXPECT_EQ(to_string(kk.ub), "MIN(K+BS_K-1,N-1)");
}

TEST(BlockDo, Fig11MatchesPointLuForAnyFactor) {
  auto cr = compile(kBlockLuSource);
  Program point = blk::kernels::lu_point_ir();
  for (long n : {9L, 22L}) {
    for (long bs : {1L, 3L, 8L, 64L}) {
      ir::Env env{{"N", n}, {"BS_K", bs}};
      EXPECT_EQ(0.0,
                blk::test::run_and_diff(point, cr.program, env, 81,
                                        {{"A", static_cast<double>(n)}}))
          << "N=" << n << " BS=" << bs;
    }
  }
}

/// kBlockLuSource with an explicit BLOCK(8) factor override.
std::string fixed_factor_source() {
  std::string src = kBlockLuSource;
  src.replace(src.find("BLOCK DO"), 8, "BLOCK(8) DO");
  return src;
}

TEST(BlockDo, ExplicitFactorIsRecorded) {
  auto cr = compile(fixed_factor_source());
  ASSERT_EQ(cr.block_params.size(), 1u);
  ASSERT_TRUE(cr.fixed_factors.contains("BS_K"));
  EXPECT_EQ(cr.fixed_factors.at("BS_K"), 8);
  // The lowering is unchanged: BS_K stays symbolic until bound.
  EXPECT_EQ(to_string(cr.program.body[0]->as_loop().step), "BS_K");
}

TEST(BlockDo, ExplicitFactorOverridesChooser) {
  auto cr = compile(fixed_factor_source());
  model::MachineParams machine;
  EXPECT_EQ(choose_block_sizes(cr, machine).at("BS_K"), 8);
}

TEST(BlockDo, RejectsBadExplicitFactor) {
  std::string src = kBlockLuSource;
  src.replace(src.find("BLOCK DO"), 8, "BLOCK(0) DO");
  EXPECT_THROW((void)compile(src), blk::Error);
  src = kBlockLuSource;
  src.replace(src.find("BLOCK DO"), 8, "BLOCK(X) DO");
  EXPECT_THROW((void)compile(src), blk::Error);
}

TEST(BlockDo, AnalyticModelChoosesFactorFromCacheSize) {
  auto cr = compile(kBlockLuSource);
  model::MachineParams big;
  big.levels = {model::parse_cache_config("64K/64B/4")};
  model::MachineParams tiny;
  tiny.levels = {model::parse_cache_config("4K/64B/2")};
  long bs_big = choose_block_sizes(cr, big, /*probe=*/96).at("BS_K");
  long bs_tiny = choose_block_sizes(cr, tiny, /*probe=*/96).at("BS_K");
  EXPECT_GE(bs_big, 2);
  EXPECT_GE(bs_tiny, 2);
  EXPECT_GT(bs_big, bs_tiny) << "a bigger cache affords a bigger block";
  // The chosen factor yields a program that still matches point LU.
  bind_block_sizes(cr, {{"BS_K", bs_tiny}});
  Program point = blk::kernels::lu_point_ir();
  EXPECT_EQ(0.0, blk::test::run_and_diff(point, cr.program, {{"N", 22}}, 81,
                                         {{"A", 22.0}}));
}

TEST(BlockDo, BindBlockSizesSubstitutesConstants) {
  auto cr = compile(kBlockLuSource);
  bind_block_sizes(cr, {{"BS_K", 16}});
  std::string out = print(cr.program.body);
  EXPECT_EQ(out.find("BS_K"), std::string::npos);
  EXPECT_NE(out.find("DO K = 1, N-1, 16"), std::string::npos);
}

TEST(BlockDo, BindRequiresAllFactors) {
  auto cr = compile(kBlockLuSource);
  EXPECT_THROW(bind_block_sizes(cr, {}), blk::Error);
}

TEST(BlockDo, LastOutsideBlockIsAnError) {
  EXPECT_THROW((void)compile("PARAMETER N\nREAL*8 A(N)\n"
                             "DO I = 1, LAST(I)\n  A(I) = 0.0\nENDDO\n"),
               blk::Error);
}

TEST(BlockDo, InWithoutBlockIsAnError) {
  EXPECT_THROW((void)compile("PARAMETER N\nREAL*8 A(N)\n"
                             "IN K DO KK\n  A(KK) = 0.0\nENDDO\n"),
               blk::Error);
}

// ---- printer/parser round-trip properties ------------------------------

class RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RoundTrip, RandomProgramsSurvivePrintParsePrint) {
  // Generate random nests (the fuzzer generator's shape), print them,
  // parse the text back, and require identical re-prints: the printer
  // emits exactly the dialect the parser accepts.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 101 + 7);
  auto pick = [&](long lo, long hi) {
    return std::uniform_int_distribution<long>(lo, hi)(rng);
  };
  for (int round = 0; round < 10; ++round) {
    Program p;
    p.param("N");
    p.array("A", {iconst(64), iconst(64)});
    p.array("B", {iconst(64)});
    p.scalar("T");
    using namespace blk::ir::dsl;
    auto sub = [&]() {
      IExprPtr e = iconst(pick(1, 8));
      if (pick(0, 1)) e = iadd(std::move(e), imul(iconst(pick(1, 2)), ivar("I")));
      if (pick(0, 1)) e = imin(std::move(e), iconst(40));
      return e;
    };
    StmtList body;
    body.push_back(assign(lv("A", {sub(), sub()}),
                          a("A", {sub(), sub()}) + a("B", {sub()})));
    if (pick(0, 1))
      body.push_back(assign(lvs("T"), vsqrt(a("B", {sub()}))));
    if (pick(0, 1)) {
      StmtList then_body;
      then_body.push_back(assign(lv("B", {sub()}), s("T") * f(0.5)));
      body.push_back(make_if({.lhs = a("B", {sub()}),
                              .op = CmpOp::GT,
                              .rhs = vconst(0.0)},
                             std::move(then_body)));
    }
    p.add(make_loop("I", iconst(1), imin(ivar("N"), iconst(30)),
                    std::move(body)));

    std::string text = print(p);
    CompileResult back = compile(text);
    EXPECT_EQ(print(back.program), text) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTrip, ::testing::Range(0, 8));

}  // namespace
}  // namespace blk::lang
