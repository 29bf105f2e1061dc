#include "ir/program.hpp"

#include <algorithm>

#include "ir/error.hpp"

namespace blk::ir {

ArrayDecl& Program::array(const std::string& name,
                          std::vector<IExprPtr> extents) {
  std::vector<Dim> dims;
  dims.reserve(extents.size());
  for (auto& e : extents) dims.push_back({.lb = iconst(1), .ub = std::move(e)});
  return array_bounds(name, std::move(dims));
}

ArrayDecl& Program::array_bounds(const std::string& name,
                                 std::vector<Dim> dims) {
  if (name.empty()) throw Error("Program::array: empty name");
  if (dims.empty()) throw Error("Program::array: rank-0 array " + name);
  if (arrays_.contains(name) || scalars_.contains(name))
    throw Error("Program::array: duplicate declaration of " + name);
  auto [it, ok] =
      arrays_.emplace(name, ArrayDecl{.name = name, .dims = std::move(dims)});
  (void)ok;
  return it->second;
}

void Program::scalar(const std::string& name) {
  if (arrays_.contains(name))
    throw Error("Program::scalar: " + name + " already declared as array");
  scalars_.insert(name);
}

void Program::temporary(const std::string& name) {
  scalar(name);
  temporaries_.insert(name);
}

void Program::param(const std::string& name) {
  if (std::find(params_.begin(), params_.end(), name) == params_.end())
    params_.push_back(name);
}

bool Program::has_array(const std::string& name) const {
  return arrays_.contains(name);
}
bool Program::has_scalar(const std::string& name) const {
  return scalars_.contains(name);
}
bool Program::has_param(const std::string& name) const {
  return std::find(params_.begin(), params_.end(), name) != params_.end();
}

const ArrayDecl& Program::array_decl(const std::string& name) const {
  auto it = arrays_.find(name);
  if (it == arrays_.end())
    throw Error("Program: undeclared array " + name);
  return it->second;
}

Stmt& Program::add(StmtPtr s) {
  body.push_back(std::move(s));
  Stmt& ref = *body.back();
  // Track loop variable names for fresh_var.
  for_each_stmt(body, [this](Stmt& st) {
    if (st.kind() == SKind::Loop) used_vars_.insert(st.as_loop().var);
  });
  return ref;
}

Program Program::clone() const {
  Program p;
  p.arrays_ = arrays_;
  p.scalars_ = scalars_;
  p.temporaries_ = temporaries_;
  p.params_ = params_;
  p.used_vars_ = used_vars_;
  p.body = clone_list(body);
  return p;
}

std::string Program::fresh_var(const std::string& base) const {
  // Recompute the used set from the current tree: transformations add loops
  // without going through add().
  std::set<std::string> used = used_vars_;
  for_each_stmt(body, [&used](const Stmt& st) {
    if (st.kind() == SKind::Loop) used.insert(st.as_loop().var);
  });
  for (const auto& p : params_) used.insert(p);
  std::string doubled = base + base;  // K -> KK, I -> II: the paper's style
  if (!used.contains(doubled) && !scalars_.contains(doubled) &&
      !arrays_.contains(doubled))
    return doubled;
  for (int i = 2;; ++i) {
    std::string cand = doubled + std::to_string(i);
    if (!used.contains(cand) && !scalars_.contains(cand) &&
        !arrays_.contains(cand))
      return cand;
  }
}

}  // namespace blk::ir
