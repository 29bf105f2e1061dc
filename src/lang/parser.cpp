#include "lang/parser.hpp"

#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "ir/error.hpp"
#include "lang/lexer.hpp"

namespace blk::lang {

using namespace blk::ir;

namespace {

class Parser {
 public:
  explicit Parser(std::string_view src) : toks_(lex(src)) {}

  CompileResult run() {
    skip_newlines();
    while (is_ident("PARAMETER") || is_ident("REAL")) {
      parse_decl();
      skip_newlines();
    }
    res_.program.body = parse_stmts({});
    expect(Tok::End, "end of input");
    for (const auto& [name, line] : extent_names_)
      if (!res_.program.has_param(name))
        throw Error("parse: " + name +
                    " in an array bound is neither a PARAMETER nor a BLOCK "
                    "DO factor at line " + std::to_string(line));
    return std::move(res_);
  }

 private:
  /// Deepest statement or expression nesting accepted: past it the parser
  /// reports an error instead of overflowing its recursion.
  static constexpr int kMaxDepth = 256;

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  CompileResult res_;
  std::set<std::string> loop_vars_;
  int depth_ = 0;
  /// Names in declared array bounds and their lines.  They are checked at
  /// the end of input: a bound may name a BLOCK DO factor, BS_<var>, which
  /// the BLOCK DO declares after the declarations.
  std::vector<std::pair<std::string, int>> extent_names_;

  /// Counts one level of nesting for the lifetime of a recursive call.
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxDepth)
        p_.fail("nesting deeper than " + std::to_string(kMaxDepth));
    }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& p_;
  };

  struct BlockCtx {
    std::string var;
    IExprPtr ub;       // the BLOCK DO's upper bound
    std::string bs;    // blocking-factor parameter name
  };
  std::vector<BlockCtx> blocks_;

  // ---- token plumbing ------------------------------------------------

  [[nodiscard]] const Token& cur() const { return toks_[pos_]; }
  void advance() {
    if (cur().kind != Tok::End) ++pos_;
  }
  [[nodiscard]] bool is(Tok k) const { return cur().kind == k; }
  [[nodiscard]] bool is_ident(std::string_view kw) const {
    return cur().kind == Tok::Ident && cur().text == kw;
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("parse: " + what + " at line " +
                std::to_string(cur().line));
  }
  void expect(Tok k, const std::string& what) {
    if (!is(k)) fail("expected " + what);
    advance();
  }
  void expect_ident(std::string_view kw) {
    if (!is_ident(kw)) fail("expected " + std::string(kw));
    advance();
  }
  void end_of_stmt() {
    if (is(Tok::End)) return;
    expect(Tok::Newline, "end of statement");
    skip_newlines();
  }
  void skip_newlines() {
    while (is(Tok::Newline)) advance();
  }

  // ---- declarations ---------------------------------------------------

  void parse_decl() {
    if (is_ident("PARAMETER")) {
      advance();
      for (;;) {
        if (!is(Tok::Ident)) fail("expected parameter name");
        res_.program.param(cur().text);
        advance();
        if (!is(Tok::Comma)) break;
        advance();
      }
      end_of_stmt();
      return;
    }
    expect_ident("REAL");
    if (is(Tok::Star)) {  // REAL*8
      advance();
      expect(Tok::Integer, "width after REAL*");
    }
    for (;;) {
      if (!is(Tok::Ident)) fail("expected variable name");
      std::string name = cur().text;
      advance();
      if (is(Tok::LParen)) {
        advance();
        std::vector<Dim> dims;
        for (;;) {
          IExprPtr a = parse_iexpr();
          if (is(Tok::Colon)) {
            advance();
            IExprPtr b = parse_iexpr();
            dims.push_back({.lb = std::move(a), .ub = std::move(b)});
          } else {
            dims.push_back({.lb = iconst(1), .ub = std::move(a)});
          }
          if (is(Tok::Comma)) {
            advance();
            continue;
          }
          break;
        }
        expect(Tok::RParen, ")");
        for (const Dim& d : dims)
          for (const IExprPtr* e : {&d.lb, &d.ub})
            for (std::string& n : free_vars(*e))
              extent_names_.emplace_back(std::move(n), cur().line);
        res_.program.array_bounds(name, std::move(dims));
      } else {
        res_.program.scalar(name);
      }
      if (!is(Tok::Comma)) break;
      advance();
    }
    end_of_stmt();
  }

  // ---- statements -----------------------------------------------------

  /// Parse until one of `stops` (an identifier keyword) or End; the stop
  /// token is left unconsumed.
  StmtList parse_stmts(const std::set<std::string>& stops) {
    StmtList out;
    skip_newlines();
    while (!is(Tok::End)) {
      if (cur().kind == Tok::Ident && stops.contains(cur().text)) break;
      out.push_back(parse_stmt());
      skip_newlines();
    }
    return out;
  }

  StmtPtr parse_stmt() {
    Nest nest(*this);
    if (is_ident("DO")) return parse_do(/*block=*/false);
    if (is_ident("BLOCK")) {
      advance();
      long factor = 0;
      if (is(Tok::LParen)) {  // BLOCK(8) DO: explicit factor override
        advance();
        if (!is(Tok::Integer)) fail("expected integer blocking factor");
        factor = std::stol(cur().text);
        if (factor < 1) fail("blocking factor must be >= 1");
        advance();
        expect(Tok::RParen, ")");
      }
      return parse_do(/*block=*/true, factor);
    }
    if (is_ident("IN")) return parse_in_do();
    if (is_ident("IF")) return parse_if();
    return parse_assign();
  }

  StmtPtr parse_do(bool block, long factor = 0) {
    expect_ident("DO");
    if (!is(Tok::Ident)) fail("expected loop variable");
    std::string var = cur().text;
    advance();
    expect(Tok::Assign, "=");
    IExprPtr lb = parse_iexpr();
    expect(Tok::Comma, ",");
    IExprPtr ub = parse_iexpr();
    IExprPtr step = iconst(1);
    if (!block && is(Tok::Comma)) {
      advance();
      step = parse_iexpr();
    }
    end_of_stmt();

    if (loop_vars_.contains(var)) fail("loop variable " + var + " shadowed");
    loop_vars_.insert(var);
    if (block) {
      // §6: the compiler owns the blocking factor; introduce BS_<var>.
      std::string bs = "BS_" + var;
      res_.program.param(bs);
      res_.block_params[var] = bs;
      if (factor > 0) res_.fixed_factors[bs] = factor;
      blocks_.push_back({.var = var, .ub = ub, .bs = bs});
      step = ivar(bs);
    }
    StmtList body = parse_stmts({"ENDDO"});
    expect_ident("ENDDO");
    loop_vars_.erase(var);
    if (block) blocks_.pop_back();
    res_.program.note_var(var);
    return make_loop(var, std::move(lb), std::move(ub), std::move(body),
                     std::move(step));
  }

  /// IN V DO VV [= lb, ub]: a loop over the current block of BLOCK DO V.
  StmtPtr parse_in_do() {
    expect_ident("IN");
    if (!is(Tok::Ident)) fail("expected BLOCK DO variable after IN");
    std::string region = cur().text;
    advance();
    const BlockCtx* ctx = nullptr;
    for (const auto& b : blocks_)
      if (b.var == region) ctx = &b;
    if (!ctx) fail("IN " + region + ": no enclosing BLOCK DO " + region);
    expect_ident("DO");
    if (!is(Tok::Ident)) fail("expected loop variable");
    std::string var = cur().text;
    advance();
    IExprPtr lb, ub;
    if (is(Tok::Assign)) {
      advance();
      lb = parse_iexpr();
      expect(Tok::Comma, ",");
      ub = parse_iexpr();
    } else {
      // Default region: first to last index of the current block.
      lb = ivar(region);
      ub = last_of(*ctx);
    }
    end_of_stmt();
    if (loop_vars_.contains(var)) fail("loop variable " + var + " shadowed");
    loop_vars_.insert(var);
    StmtList body = parse_stmts({"ENDDO"});
    expect_ident("ENDDO");
    loop_vars_.erase(var);
    res_.program.note_var(var);
    return make_loop(var, std::move(lb), std::move(ub), std::move(body));
  }

  StmtPtr parse_if() {
    expect_ident("IF");
    expect(Tok::LParen, "(");
    VExprPtr lhs = parse_vexpr();
    if (!is(Tok::RelOp)) fail("expected relational operator");
    std::string op = cur().text;
    advance();
    VExprPtr rhs = parse_vexpr();
    expect(Tok::RParen, ")");
    expect_ident("THEN");
    end_of_stmt();
    StmtList then_body = parse_stmts({"ELSE", "ENDIF"});
    StmtList else_body;
    if (is_ident("ELSE")) {
      advance();
      end_of_stmt();
      else_body = parse_stmts({"ENDIF"});
    }
    expect_ident("ENDIF");
    CmpOp cmp = op == ".EQ." ? CmpOp::EQ
                : op == ".NE." ? CmpOp::NE
                : op == ".LT." ? CmpOp::LT
                : op == ".LE." ? CmpOp::LE
                : op == ".GT." ? CmpOp::GT
                               : CmpOp::GE;
    return make_if({.lhs = std::move(lhs), .op = cmp, .rhs = std::move(rhs)},
                   std::move(then_body), std::move(else_body));
  }

  StmtPtr parse_assign() {
    int label = 0;
    if (is(Tok::Integer)) {  // optional "10:" statement label
      label = static_cast<int>(cur().ivalue);
      advance();
      expect(Tok::Colon, ":");
    }
    if (!is(Tok::Ident)) fail("expected assignment target");
    std::string name = cur().text;
    advance();
    LValue lhs{.name = name, .subs = {}};
    if (is(Tok::LParen)) {
      if (!res_.program.has_array(name))
        fail(name + " is not a declared array");
      advance();
      for (;;) {
        lhs.subs.push_back(parse_iexpr());
        if (is(Tok::Comma)) {
          advance();
          continue;
        }
        break;
      }
      expect(Tok::RParen, ")");
    } else if (!res_.program.has_scalar(name)) {
      fail(name + " is not a declared scalar");
    }
    expect(Tok::Assign, "=");
    VExprPtr rhs = parse_vexpr();
    end_of_stmt();
    return make_assign(std::move(lhs), std::move(rhs), label);
  }

  // ---- index expressions ----------------------------------------------

  [[nodiscard]] IExprPtr last_of(const BlockCtx& b) const {
    // LAST(V) = MIN(V + BS_V - 1, <BLOCK DO upper bound>)
    return imin(isub(iadd(ivar(b.var), ivar(b.bs)), iconst(1)), b.ub);
  }

  IExprPtr parse_iexpr() {
    IExprPtr e = parse_iterm();
    while (is(Tok::Plus) || is(Tok::Minus)) {
      bool add = is(Tok::Plus);
      advance();
      IExprPtr r = parse_iterm();
      e = add ? iadd(std::move(e), std::move(r))
              : isub(std::move(e), std::move(r));
    }
    return e;
  }

  IExprPtr parse_iterm() {
    IExprPtr e = parse_ifactor();
    while (is(Tok::Star) || is(Tok::Slash)) {
      bool mul = is(Tok::Star);
      advance();
      IExprPtr r = parse_ifactor();
      if (mul) {
        e = imul(std::move(e), std::move(r));
      } else {
        if (r->kind != IKind::Const || r->value <= 0)
          fail("index division requires a positive constant divisor");
        e = ifloordiv(std::move(e), r->value);
      }
    }
    return e;
  }

  IExprPtr parse_ifactor() {
    Nest nest(*this);
    if (is(Tok::Minus)) {
      advance();
      return isub(iconst(0), parse_ifactor());
    }
    if (is(Tok::Integer)) {
      long v = cur().ivalue;
      advance();
      return iconst(v);
    }
    if (is(Tok::LParen)) {
      advance();
      IExprPtr e = parse_iexpr();
      expect(Tok::RParen, ")");
      return e;
    }
    if (!is(Tok::Ident)) fail("expected index expression");
    std::string name = cur().text;
    advance();
    if (name == "MIN" || name == "MAX") {
      expect(Tok::LParen, "(");
      IExprPtr e = parse_iexpr();
      do {
        expect(Tok::Comma, ",");
        IExprPtr r = parse_iexpr();
        e = name == "MIN" ? imin(std::move(e), std::move(r))
                          : imax(std::move(e), std::move(r));
      } while (is(Tok::Comma));
      expect(Tok::RParen, ")");
      return e;
    }
    if (name == "LAST") {
      expect(Tok::LParen, "(");
      if (!is(Tok::Ident)) fail("LAST expects a BLOCK DO variable");
      std::string region = cur().text;
      advance();
      expect(Tok::RParen, ")");
      for (const auto& b : blocks_)
        if (b.var == region) return last_of(b);
      fail("LAST(" + region + "): no enclosing BLOCK DO " + region);
    }
    if (is(Tok::LParen)) {
      // Integer-valued array element as an index (IF-inspection style).
      advance();
      IExprPtr ix = parse_iexpr();
      expect(Tok::RParen, ")");
      return ielem(name, std::move(ix));
    }
    return ivar(name);
  }

  // ---- value expressions ----------------------------------------------

  VExprPtr parse_vexpr() {
    VExprPtr e = parse_vterm();
    while (is(Tok::Plus) || is(Tok::Minus)) {
      bool add = is(Tok::Plus);
      advance();
      VExprPtr r = parse_vterm();
      e = add ? vadd(std::move(e), std::move(r))
              : vsub(std::move(e), std::move(r));
    }
    return e;
  }

  VExprPtr parse_vterm() {
    VExprPtr e = parse_vfactor();
    while (is(Tok::Star) || is(Tok::Slash)) {
      bool mul = is(Tok::Star);
      advance();
      VExprPtr r = parse_vfactor();
      e = mul ? vmul(std::move(e), std::move(r))
              : vdiv(std::move(e), std::move(r));
    }
    return e;
  }

  VExprPtr parse_vfactor() {
    Nest nest(*this);
    if (is(Tok::Minus)) {
      advance();
      return vneg(parse_vfactor());
    }
    if (is(Tok::Integer)) {
      double v = static_cast<double>(cur().ivalue);
      advance();
      return vconst(v);
    }
    if (is(Tok::Real)) {
      double v = cur().rvalue;
      advance();
      return vconst(v);
    }
    if (is(Tok::LParen)) {
      advance();
      VExprPtr e = parse_vexpr();
      expect(Tok::RParen, ")");
      return e;
    }
    if (!is(Tok::Ident)) fail("expected expression");
    std::string name = cur().text;
    advance();
    if (name == "SQRT" || name == "ABS" || name == "DSQRT" ||
        name == "DABS") {
      expect(Tok::LParen, "(");
      VExprPtr e = parse_vexpr();
      expect(Tok::RParen, ")");
      return vun(name == "SQRT" || name == "DSQRT" ? UnOp::Sqrt : UnOp::Abs,
                 std::move(e));
    }
    if (is(Tok::LParen)) {
      if (!res_.program.has_array(name))
        fail(name + " is not a declared array");
      advance();
      std::vector<IExprPtr> subs;
      for (;;) {
        subs.push_back(parse_iexpr());
        if (is(Tok::Comma)) {
          advance();
          continue;
        }
        break;
      }
      expect(Tok::RParen, ")");
      return vref(name, std::move(subs));
    }
    if (res_.program.has_scalar(name)) return vscalar(name);
    // Loop variable or parameter used as a value.
    return vindex(ivar(name));
  }
};

}  // namespace

CompileResult compile(std::string_view source) {
  return Parser(source).run();
}

std::string read_source(const std::string& path) {
  std::ostringstream os;
  if (path == "-") {
    os << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) throw Error("cannot open " + path);
    os << in.rdbuf();
  }
  return os.str();
}

}  // namespace blk::lang
