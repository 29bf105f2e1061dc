// Statements: DO loops, IF statements and assignments.
//
// Statements form a mutable tree owned through std::unique_ptr — the loop
// transformations in src/transform edit this tree in place (splitting,
// distributing, interchanging, unrolling).  `clone()` provides the deep
// copies unrolling and splitting need.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/iexpr.hpp"
#include "ir/vexpr.hpp"

namespace blk::ir {

enum class SKind : std::uint8_t { Assign, Loop, If };

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

/// Assignment target: a scalar variable or an array element.
struct LValue {
  std::string name;
  std::vector<IExprPtr> subs;  ///< empty for scalars

  [[nodiscard]] bool is_array() const { return !subs.empty(); }
};

/// Base statement.  Concrete kinds are Assign, Loop and If; dynamic casts go
/// through the as_*() accessors which throw on kind mismatch.
class Stmt {
 public:
  virtual ~Stmt() = default;
  Stmt(const Stmt&) = delete;
  Stmt& operator=(const Stmt&) = delete;

  [[nodiscard]] SKind kind() const { return kind_; }
  [[nodiscard]] virtual StmtPtr clone() const = 0;

  [[nodiscard]] class Assign& as_assign();
  [[nodiscard]] const class Assign& as_assign() const;
  [[nodiscard]] class Loop& as_loop();
  [[nodiscard]] const class Loop& as_loop() const;
  [[nodiscard]] class If& as_if();
  [[nodiscard]] const class If& as_if() const;

 protected:
  explicit Stmt(SKind k) : kind_(k) {}

 private:
  SKind kind_;
};

/// `lhs = rhs`, optionally labelled with the paper's statement number so
/// analyses and golden tests can refer to "statement 10".
class Assign final : public Stmt {
 public:
  LValue lhs;
  VExprPtr rhs;
  int label = 0;  ///< 0 = unlabelled

  Assign(LValue l, VExprPtr r, int lab = 0)
      : Stmt(SKind::Assign), lhs(std::move(l)), rhs(std::move(r)), label(lab) {}
  [[nodiscard]] StmtPtr clone() const override;
};

/// `DO var = lb, ub, step` with a body.  `step` is a (usually constant)
/// index expression; strip-mined outer loops carry step KS.
class Loop final : public Stmt {
 public:
  std::string var;
  IExprPtr lb, ub, step;
  StmtList body;

  Loop(std::string v, IExprPtr l, IExprPtr u, IExprPtr s, StmtList b = {})
      : Stmt(SKind::Loop),
        var(std::move(v)),
        lb(std::move(l)),
        ub(std::move(u)),
        step(std::move(s)),
        body(std::move(b)) {}
  [[nodiscard]] StmtPtr clone() const override;

  /// Constant step value; throws if the step is symbolic.
  [[nodiscard]] long const_step() const;
};

/// `IF (cond) THEN ... [ELSE ...] ENDIF`.
class If final : public Stmt {
 public:
  Cond cond;
  StmtList then_body;
  StmtList else_body;

  If(Cond c, StmtList t, StmtList e = {})
      : Stmt(SKind::If),
        cond(std::move(c)),
        then_body(std::move(t)),
        else_body(std::move(e)) {}
  [[nodiscard]] StmtPtr clone() const override;
};

// ---- Construction helpers --------------------------------------------------

[[nodiscard]] StmtPtr make_assign(LValue lhs, VExprPtr rhs, int label = 0);
[[nodiscard]] StmtPtr make_loop(std::string var, IExprPtr lb, IExprPtr ub,
                                StmtList body = {}, IExprPtr step = nullptr);
[[nodiscard]] StmtPtr make_if(Cond c, StmtList then_body,
                              StmtList else_body = {});
[[nodiscard]] StmtList clone_list(const StmtList& l);

// ---- Traversal -------------------------------------------------------------

/// Call `fn` on every statement in pre-order (loop/if bodies included).
void for_each_stmt(StmtList& body, const std::function<void(Stmt&)>& fn);
void for_each_stmt(const StmtList& body,
                   const std::function<void(const Stmt&)>& fn);

/// Is `target` the statement `s` or a statement inside it?
[[nodiscard]] bool contains(const Stmt& s, const Stmt* target);

/// Location of a loop inside its parent statement list, precise enough for a
/// transformation to replace the loop with something else.
struct LoopLocation {
  StmtList* parent = nullptr;  ///< list physically containing the loop
  std::size_t index = 0;       ///< position within *parent
  Loop* loop = nullptr;

  [[nodiscard]] explicit operator bool() const { return loop != nullptr; }
};

/// Find the first loop with induction variable `var` (pre-order); a null
/// result has `loop == nullptr`.
[[nodiscard]] LoopLocation find_loop(StmtList& body, const std::string& var);

/// Chain of loops enclosing each statement: outermost first.  Populated by
/// `enclosing_loops` walking from the roots.
[[nodiscard]] std::vector<Loop*> enclosing_loops(StmtList& body,
                                                 const Stmt& target);

/// Rename the induction variable of `loop` to `fresh`, substituting through
/// bounds/subscripts/conditions of its body.
void rename_loop_var(Loop& loop, const std::string& fresh);

/// Substitute index variable `name` by `replacement` in every bound,
/// subscript and condition in `body` (does not touch loops that rebind
/// `name`, which would be shadowing — the IR forbids shadowing and this
/// function throws if it finds it).
void substitute_index_in_list(StmtList& body, const std::string& name,
                              const IExprPtr& replacement);

/// Rename scalar `from` to `to` in every read, write and index use in
/// `body`.
void rename_scalar(StmtList& body, const std::string& from,
                   const std::string& to);

}  // namespace blk::ir
