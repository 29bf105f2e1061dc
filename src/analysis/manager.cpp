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
