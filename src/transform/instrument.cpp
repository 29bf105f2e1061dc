#include "transform/instrument.hpp"

#include <algorithm>
#include <exception>
#include <vector>

#include "analysis/manager.hpp"

namespace blk::transform {

namespace {
// One observer stack per thread: fuzzer campaigns install a
// VerifiedPipeline per seed from a thread pool and must not see (or
// clobber) each other's observers.
thread_local std::vector<PassObserver*> t_observers;
// Nestable mute count: while non-zero, new PassScopes skip observers.
thread_local int t_mute = 0;
}  // namespace

ObserverMute::ObserverMute() { ++t_mute; }
ObserverMute::~ObserverMute() { --t_mute; }

bool pass_observers_muted() { return t_mute > 0; }

PassObserver* set_pass_observer(PassObserver* obs) {
  PassObserver* prev = t_observers.empty() ? nullptr : t_observers.back();
  if (obs == nullptr) {
    t_observers.clear();
    return prev;
  }
  // Restoring a pointer already on the stack pops down to it (the RAII
  // uninstall path); anything new pushes.
  auto it = std::find(t_observers.begin(), t_observers.end(), obs);
  if (it != t_observers.end())
    t_observers.erase(it + 1, t_observers.end());
  else
    t_observers.push_back(obs);
  return prev;
}

PassObserver* pass_observer() {
  return t_observers.empty() ? nullptr : t_observers.back();
}

std::size_t pass_observer_depth() { return t_observers.size(); }

PassScope::PassScope(std::string_view name, ir::StmtList& root)
    : name_(name),
      root_(root),
      uncaught_(std::uncaught_exceptions()),
      // A muted scope captures depth 0: no before callbacks now, no after
      // callbacks in the destructor — but notify_pass_end still fires.
      depth_(t_mute > 0 ? 0 : t_observers.size()) {
  for (std::size_t i = 0; i < depth_; ++i)
    t_observers[i]->before_pass(name_, root_);
}

PassScope::~PassScope() {
  // The pass committed iff no new exception is in flight relative to
  // construction time (legality refusals throw after undoing trials).
  bool committed = std::uncaught_exceptions() == uncaught_;
  // Whatever happened, the tree may have been rewritten (trial undos
  // restore *values*, not node identities): cached analyses go stale.
  analysis::notify_pass_end();
  // Observers that joined mid-pass never saw `before`; skip their `after`.
  std::size_t n = std::min(depth_, t_observers.size());
  for (std::size_t i = n; i-- > 0;)
    t_observers[i]->after_pass(name_, root_, committed);
}

}  // namespace blk::transform
