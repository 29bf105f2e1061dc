#include "ir/stmt.hpp"

#include <algorithm>

#include "ir/error.hpp"

namespace blk::ir {

Assign& Stmt::as_assign() {
  if (kind_ != SKind::Assign) throw Error("Stmt: not an Assign");
  return static_cast<Assign&>(*this);
}
const Assign& Stmt::as_assign() const {
  if (kind_ != SKind::Assign) throw Error("Stmt: not an Assign");
  return static_cast<const Assign&>(*this);
}
Loop& Stmt::as_loop() {
  if (kind_ != SKind::Loop) throw Error("Stmt: not a Loop");
  return static_cast<Loop&>(*this);
}
const Loop& Stmt::as_loop() const {
  if (kind_ != SKind::Loop) throw Error("Stmt: not a Loop");
  return static_cast<const Loop&>(*this);
}
If& Stmt::as_if() {
  if (kind_ != SKind::If) throw Error("Stmt: not an If");
  return static_cast<If&>(*this);
}
const If& Stmt::as_if() const {
  if (kind_ != SKind::If) throw Error("Stmt: not an If");
  return static_cast<const If&>(*this);
}

StmtPtr Assign::clone() const {
  return std::make_unique<Assign>(lhs, rhs, label);
}

StmtPtr Loop::clone() const {
  return std::make_unique<Loop>(var, lb, ub, step, clone_list(body));
}

long Loop::const_step() const {
  if (step->kind != IKind::Const)
    throw Error("Loop: symbolic step for loop " + var);
  return step->value;
}

StmtPtr If::clone() const {
  return std::make_unique<If>(cond, clone_list(then_body),
                              clone_list(else_body));
}

StmtPtr make_assign(LValue lhs, VExprPtr rhs, int label) {
  return std::make_unique<Assign>(std::move(lhs), std::move(rhs), label);
}

StmtPtr make_loop(std::string var, IExprPtr lb, IExprPtr ub, StmtList body,
                  IExprPtr step) {
  if (!step) step = iconst(1);
  return std::make_unique<Loop>(std::move(var), std::move(lb), std::move(ub),
                                std::move(step), std::move(body));
}

StmtPtr make_if(Cond c, StmtList then_body, StmtList else_body) {
  return std::make_unique<If>(std::move(c), std::move(then_body),
                              std::move(else_body));
}

StmtList clone_list(const StmtList& l) {
  StmtList out;
  out.reserve(l.size());
  for (const auto& s : l) out.push_back(s->clone());
  return out;
}

void for_each_stmt(StmtList& body, const std::function<void(Stmt&)>& fn) {
  for (auto& s : body) {
    fn(*s);
    switch (s->kind()) {
      case SKind::Loop:
        for_each_stmt(s->as_loop().body, fn);
        break;
      case SKind::If:
        for_each_stmt(s->as_if().then_body, fn);
        for_each_stmt(s->as_if().else_body, fn);
        break;
      case SKind::Assign:
        break;
    }
  }
}

namespace {

void for_each_stmt_const(const StmtList& body,
                         const std::function<void(const Stmt&)>& fn) {
  for (const auto& s : body) {
    fn(*s);
    switch (s->kind()) {
      case SKind::Loop: {
        const Loop& l = s->as_loop();
        for_each_stmt_const(l.body, fn);
        break;
      }
      case SKind::If: {
        const If& f = s->as_if();
        for_each_stmt_const(f.then_body, fn);
        for_each_stmt_const(f.else_body, fn);
        break;
      }
      case SKind::Assign:
        break;
    }
  }
}

}  // namespace

void for_each_stmt(const StmtList& body,
                   const std::function<void(const Stmt&)>& fn) {
  for_each_stmt_const(body, fn);
}

bool contains(const Stmt& s, const Stmt* target) {
  if (&s == target) return true;
  auto any = [target](const StmtList& body) {
    return std::ranges::any_of(
        body, [target](const StmtPtr& c) { return contains(*c, target); });
  };
  switch (s.kind()) {
    case SKind::Loop:
      return any(s.as_loop().body);
    case SKind::If:
      return any(s.as_if().then_body) || any(s.as_if().else_body);
    case SKind::Assign:
      break;
  }
  return false;
}

LoopLocation find_loop(StmtList& body, const std::string& var) {
  for (std::size_t i = 0; i < body.size(); ++i) {
    Stmt& s = *body[i];
    switch (s.kind()) {
      case SKind::Loop: {
        Loop& l = s.as_loop();
        if (l.var == var) return {.parent = &body, .index = i, .loop = &l};
        if (auto found = find_loop(l.body, var)) return found;
        break;
      }
      case SKind::If: {
        If& f = s.as_if();
        if (auto found = find_loop(f.then_body, var)) return found;
        if (auto found = find_loop(f.else_body, var)) return found;
        break;
      }
      case SKind::Assign:
        break;
    }
  }
  return {};
}

namespace {

bool collect_enclosing(StmtList& body, const Stmt& target,
                       std::vector<Loop*>& chain) {
  for (auto& s : body) {
    if (s.get() == &target) return true;
    switch (s->kind()) {
      case SKind::Loop: {
        Loop& l = s->as_loop();
        chain.push_back(&l);
        if (collect_enclosing(l.body, target, chain)) return true;
        chain.pop_back();
        break;
      }
      case SKind::If: {
        If& f = s->as_if();
        if (collect_enclosing(f.then_body, target, chain)) return true;
        if (collect_enclosing(f.else_body, target, chain)) return true;
        break;
      }
      case SKind::Assign:
        break;
    }
  }
  return false;
}

}  // namespace

std::vector<Loop*> enclosing_loops(StmtList& body, const Stmt& target) {
  std::vector<Loop*> chain;
  if (!collect_enclosing(body, target, chain))
    throw Error("enclosing_loops: target statement not found in tree");
  return chain;
}

void substitute_index_in_list(StmtList& body, const std::string& name,
                              const IExprPtr& replacement) {
  for (auto& s : body) {
    switch (s->kind()) {
      case SKind::Assign: {
        Assign& a = s->as_assign();
        for (auto& sub : a.lhs.subs) sub = substitute(sub, name, replacement);
        a.rhs = substitute_index(a.rhs, name, replacement);
        break;
      }
      case SKind::Loop: {
        Loop& l = s->as_loop();
        if (l.var == name)
          throw Error("substitute_index_in_list: variable " + name +
                      " is shadowed by an inner loop");
        l.lb = substitute(l.lb, name, replacement);
        l.ub = substitute(l.ub, name, replacement);
        l.step = substitute(l.step, name, replacement);
        substitute_index_in_list(l.body, name, replacement);
        break;
      }
      case SKind::If: {
        If& f = s->as_if();
        f.cond.lhs = substitute_index(f.cond.lhs, name, replacement);
        f.cond.rhs = substitute_index(f.cond.rhs, name, replacement);
        substitute_index_in_list(f.then_body, name, replacement);
        substitute_index_in_list(f.else_body, name, replacement);
        break;
      }
    }
  }
}

void rename_scalar(StmtList& body, const std::string& from,
                   const std::string& to) {
  substitute_index_in_list(body, from, ivar(to));
  const VExprPtr ref = vscalar(to);
  for_each_stmt(body, [&](Stmt& s) {
    if (s.kind() == SKind::Assign) {
      Assign& a = s.as_assign();
      a.rhs = substitute_scalar(a.rhs, from, ref);
      if (!a.lhs.is_array() && a.lhs.name == from) a.lhs.name = to;
    } else if (s.kind() == SKind::If) {
      If& f = s.as_if();
      f.cond.lhs = substitute_scalar(f.cond.lhs, from, ref);
      f.cond.rhs = substitute_scalar(f.cond.rhs, from, ref);
    }
  });
}

void rename_loop_var(Loop& loop, const std::string& fresh) {
  if (loop.var == fresh) return;
  substitute_index_in_list(loop.body, loop.var, ivar(fresh));
  loop.var = fresh;
}

}  // namespace blk::ir
