#include "analysis/manager.hpp"

#include <chrono>

namespace blk::analysis {

namespace {

thread_local std::vector<AnalysisManager*> t_managers;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

DepGraphPtr AnalysisManager::dep_graph(ir::StmtList& root, ir::Loop& loop,
                                       const Assumptions* ctx) {
  DepKey key{.root = &root,
             .loop = &loop,
             .ctx = ctx,
             .ctx_facts = ctx ? ctx->fact_count() : 0};
  if (caching_) {
    auto it = dep_cache_.find(key);
    if (it != dep_cache_.end()) {
      ++stats_.dep_hits;
      return it->second;
    }
  }
  ++stats_.dep_misses;
  auto t0 = std::chrono::steady_clock::now();
  auto g = std::make_shared<const DepGraph>(root, loop, ctx);
  stats_.build_seconds += seconds_since(t0);
  if (caching_) dep_cache_.insert_or_assign(key, g);
  return g;
}

Section AnalysisManager::section_within(const RefInfo& ref,
                                        const ir::Loop& outer) {
  SectionKey key{.outer = &outer,
                 .array = ref.array,
                 .is_write = ref.is_write,
                 .subs = {},
                 .loops = {}};
  key.subs.reserve(ref.subs.size());
  for (const auto& s : ref.subs) key.subs.push_back(s.get());
  key.loops.reserve(ref.loops.size());
  for (const auto* l : ref.loops) key.loops.push_back(l);
  if (caching_) {
    auto it = section_cache_.find(key);
    if (it != section_cache_.end()) {
      ++stats_.section_hits;
      return it->second;
    }
  }
  ++stats_.section_misses;
  auto t0 = std::chrono::steady_clock::now();
  Section s = blk::analysis::section_within(ref, outer);
  stats_.build_seconds += seconds_since(t0);
  if (caching_) section_cache_.insert_or_assign(std::move(key), s);
  return s;
}

namespace {

void append_size(std::string& out, std::size_t n) {
  out.append(reinterpret_cast<const char*>(&n), sizeof n);
}

/// Everything test_pair reads of one reference: its array, access,
/// subscript trees and enclosing loop headers, outermost first.
std::string ref_key(const RefInfo& r) {
  std::string k;
  append_size(k, r.array.size());
  k += r.array;
  k += r.is_write ? 'w' : 'r';
  append_size(k, r.subs.size());
  for (const auto& s : r.subs) append_structure(k, s.get());
  append_size(k, r.loops.size());
  for (const ir::Loop* l : r.loops) {
    append_size(k, l->var.size());
    k += l->var;
    append_structure(k, l->lb.get());
    append_structure(k, l->ub.get());
    append_structure(k, l->step.get());
  }
  return k;
}

/// `key`'s id in `table`, interning it when new.
std::uint32_t intern(std::unordered_map<std::string, std::uint32_t>& table,
                     std::string key) {
  const auto id = static_cast<std::uint32_t>(table.size());
  return table.try_emplace(std::move(key), id).first->second;
}

}  // namespace

void AnalysisManager::clear_pair_memo() {
  pair_memo_.clear();
  ref_ids_.clear();
  ctx_ids_.clear();
}

AnalysisManager::PairKeys AnalysisManager::pair_keys(
    const std::vector<RefInfo>& refs, const Assumptions* ctx) {
  if (!caching_) return {};
  if (pair_memo_.size() + ref_ids_.size() + ctx_ids_.size() >=
      kMaxPairEntries)
    clear_pair_memo();
  std::string ck(1, ctx ? 'c' : '-');  // "no context" is its own key
  if (ctx) ctx->fingerprint(ck);
  PairKeys keys{.ctx = intern(ctx_ids_, std::move(ck)), .refs = {}};
  keys.refs.reserve(refs.size());
  for (const RefInfo& r : refs)
    keys.refs.push_back(intern(ref_ids_, ref_key(r)));
  return keys;
}

std::vector<Dependence> AnalysisManager::test_pair(
    const std::vector<RefInfo>& refs, const PairKeys& keys, std::size_t i,
    std::size_t j, const Assumptions* ctx) {
  const RefInfo& a = refs[i];
  const RefInfo& b = refs[j];
  if (!caching_) {
    ++stats_.pair_misses;
    return analysis::test_pair(a, b, ctx);
  }
  const PairKey key{
      .a = keys.refs[i],
      .b = keys.refs[j],
      .ctx = keys.ctx,
      .depth = static_cast<std::uint32_t>(a.common_depth(b)),
      .order = (a.textual_pos > b.textual_pos) -
               (a.textual_pos < b.textual_pos),
      .same_stmt = a.stmt == b.stmt,
      .a_stmt = a.stmt != nullptr,
      .b_stmt = b.stmt != nullptr};
  if (auto it = pair_memo_.find(key); it != pair_memo_.end()) {
    ++stats_.pair_hits;
    return pair_dependences(a, b, it->second);
  }
  ++stats_.pair_misses;
  std::vector<PairEdge> edges = pair_edges(a, b, ctx);
  pair_memo_.emplace(key, edges);
  return pair_dependences(a, b, std::move(edges));
}

void AnalysisManager::invalidate() {
  ++stats_.invalidations;
  dep_cache_.clear();
  section_cache_.clear();
}

AnalysisManager* current_analysis_manager() {
  return t_managers.empty() ? nullptr : t_managers.back();
}

ScopedAnalysisManager::ScopedAnalysisManager(AnalysisManager& am)
    : installed_(&am) {
  t_managers.push_back(&am);
}

ScopedAnalysisManager::~ScopedAnalysisManager() {
  // Pop down to (and including) our entry; tolerate out-of-order exits.
  while (!t_managers.empty()) {
    AnalysisManager* top = t_managers.back();
    t_managers.pop_back();
    if (top == installed_) break;
  }
}

void notify_pass_end() {
  if (AnalysisManager* am = current_analysis_manager()) am->invalidate();
}

void notify_ir_mutation() {
  if (AnalysisManager* am = current_analysis_manager()) am->invalidate();
}

DepGraphPtr dep_graph_for(ir::StmtList& root, ir::Loop& loop,
                          const Assumptions* ctx) {
  if (AnalysisManager* am = current_analysis_manager())
    return am->dep_graph(root, loop, ctx);
  return std::make_shared<const DepGraph>(root, loop, ctx);
}

Section section_within_for(const RefInfo& ref, const ir::Loop& outer) {
  if (AnalysisManager* am = current_analysis_manager())
    return am->section_within(ref, outer);
  return section_within(ref, outer);
}

}  // namespace blk::analysis
