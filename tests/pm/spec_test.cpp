// Pipeline-spec parser: round-trip of every registered pass, and
// diagnostics that name the offending token.
#include <gtest/gtest.h>

#include "ir/error.hpp"
#include "pm/spec.hpp"

namespace blk::pm {
namespace {

TEST(SpecParser, SingleBarePass) {
  Pipeline p = parse_pipeline("interchange");
  ASSERT_EQ(p.passes.size(), 1u);
  EXPECT_EQ(p.passes[0].pass, "interchange");
  EXPECT_TRUE(p.passes[0].options.empty());
}

TEST(SpecParser, FullPipelineWithOptions) {
  Pipeline p = parse_pipeline(
      "stripmine(b=32); split; distribute(commutativity); interchange");
  ASSERT_EQ(p.passes.size(), 4u);
  EXPECT_EQ(p.passes[0].pass, "stripmine");
  ASSERT_NE(p.passes[0].find("b"), nullptr);
  EXPECT_EQ(p.passes[0].find("b")->int_value, 32);
  EXPECT_TRUE(p.passes[2].flag("commutativity"));
  EXPECT_TRUE(p.uses_commutativity());
}

TEST(SpecParser, SymbolicOptionValue) {
  Pipeline p = parse_pipeline("stripmine(b=BS)");
  ir::IExprPtr b = p.passes[0].expr("b");
  ASSERT_TRUE(b);
  EXPECT_EQ(b->kind, ir::IKind::Var);
  EXPECT_EQ(b->name, "BS");
}

TEST(SpecParser, WhitespaceAndTrailingSemicolonAreInsignificant) {
  Pipeline a = parse_pipeline("  stripmine ( b = 8 ) ;  split ; ");
  Pipeline b = parse_pipeline("stripmine(b=8);split");
  EXPECT_EQ(a.to_string(), b.to_string());
}

// Every registered pass round-trips through its canonical spelling — with
// every declared option given a kind-appropriate value.
TEST(SpecParser, EveryRegisteredPassRoundTrips) {
  for (const auto& [name, info] : Registry::instance().passes()) {
    std::string spec = name;
    if (!info.options.empty()) {
      spec += '(';
      bool first = true;
      for (const OptionSpec& opt : info.options) {
        if (!first) spec += ", ";
        first = false;
        spec += opt.name;
        switch (opt.kind) {
          case OptKind::Int:
            spec += "=7";
            break;
          case OptKind::Expr:
            spec += "=BS";
            break;
          case OptKind::Str:
            spec += "=TAU";
            break;
          case OptKind::Flag:
            break;
        }
      }
      spec += ')';
    }
    Pipeline parsed = parse_pipeline(spec);
    EXPECT_EQ(parsed.to_string(), spec) << "canonical form of " << name;
    Pipeline reparsed = parse_pipeline(parsed.to_string());
    EXPECT_EQ(reparsed.to_string(), parsed.to_string())
        << "round trip of " << name;
  }
}

// --- diagnostics: the offending token must be named --------------------

void expect_error_mentions(const std::string& spec,
                           const std::string& needle) {
  try {
    (void)parse_pipeline(spec);
    FAIL() << "expected parse of '" << spec << "' to fail";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error for '" << spec << "' was: " << e.what();
  }
}

TEST(SpecParserDiagnostics, UnknownPassIsNamed) {
  expect_error_mentions("frobnicate", "unknown pass 'frobnicate'");
  expect_error_mentions("stripmine(b=8); frobnicate",
                        "unknown pass 'frobnicate'");
}

TEST(SpecParserDiagnostics, UnknownOptionIsNamed) {
  expect_error_mentions("stripmine(q=8)",
                        "pass 'stripmine' has no option 'q'");
  // Knobs that became constants are gone from the registry.
  expect_error_mentions("selectblock(seed=1)",
                        "pass 'selectblock' has no option 'seed'");
  expect_error_mentions("selectblock(name=KB)",
                        "pass 'selectblock' has no option 'name'");
  expect_error_mentions("selectblock(fraction=50)",
                        "pass 'selectblock' has no option 'fraction'");
  expect_error_mentions("selectblock(sampletol=100)",
                        "pass 'selectblock' has no option 'sampletol'");
  expect_error_mentions("stripmine(b=8, exact)",
                        "pass 'stripmine' has no option 'exact'");
}

TEST(SpecParserDiagnostics, IntOptionRejectsName) {
  expect_error_mentions("unrolljam(u=KS)",
                        "option 'u' of pass 'unrolljam' expects an integer, "
                        "got name 'KS'");
}

TEST(SpecParserDiagnostics, FlagOptionRejectsValue) {
  expect_error_mentions("distribute(commutativity=1)",
                        "option 'commutativity' of pass 'distribute' is a "
                        "flag and takes no value");
}

TEST(SpecParserDiagnostics, ExprOptionRejectsBareFlag) {
  expect_error_mentions("stripmine(b)",
                        "option 'b' of pass 'stripmine' expects an integer "
                        "or parameter name");
}

TEST(SpecParserDiagnostics, MissingRequiredOptionIsNamed) {
  expect_error_mentions("splitat",
                        "pass 'splitat' is missing required option 'at'");
}

TEST(SpecParserDiagnostics, TrailingGarbageIsNamed) {
  expect_error_mentions("interchange)", "trailing garbage ')'");
  expect_error_mentions("split extra", "trailing garbage 'extra'");
}

TEST(SpecParserDiagnostics, DuplicateOptionIsNamed) {
  expect_error_mentions("stripmine(b=8, b=16)",
                        "duplicate option 'b' for pass 'stripmine'");
}

TEST(SpecParserDiagnostics, EmptySpecIsRejected) {
  expect_error_mentions("", "empty spec");
  expect_error_mentions("   ", "empty spec");
}

// --- the shared --assume fact parser -----------------------------------

TEST(FactParser, ParsesLeAndGe) {
  analysis::Assumptions ctx;
  add_fact(ctx, "K+BS-1<=N-1");
  add_fact(ctx, "N >= 1");
  EXPECT_EQ(ctx.fact_count(), 2u);
}

TEST(FactParser, RejectsMalformedFacts) {
  analysis::Assumptions ctx;
  EXPECT_THROW(add_fact(ctx, "N==1"), Error);
  EXPECT_THROW(add_fact(ctx, "N<1"), Error);
  EXPECT_THROW(add_fact(ctx, "<=N"), Error);
}

}  // namespace
}  // namespace blk::pm
