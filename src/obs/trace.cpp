#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>

#include "common/assert.hpp"
#include "obs/json.hpp"
#include "obs/stats_stream.hpp"

namespace hgr::obs {

namespace {

std::atomic<Registry*> g_override{nullptr};

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void phase_to_json(JsonWriter& w, const PhaseSnapshot& node) {
  w.begin_object().key("name").str(node.name);
  w.key("seconds").num(node.seconds).key("calls").u64(node.calls);
  w.key("max_seconds").num(node.max_seconds);
  w.key("min_seconds").num(node.min_seconds);
  if (!node.children.empty()) {
    w.key("children").begin_array();
    for (const PhaseSnapshot& child : node.children) phase_to_json(w, child);
    w.end_array();
  }
  w.end_object();
}

}  // namespace

Registry::Registry() : id_(next_registry_id()) {}

const PhaseSnapshot* find_phase(const PhaseSnapshot& root,
                                std::initializer_list<std::string_view> path) {
  const PhaseSnapshot* node = &root;
  for (const std::string_view part : path) {
    const PhaseSnapshot* next = nullptr;
    for (const PhaseSnapshot& child : node->children) {
      if (child.name == part) {
        next = &child;
        break;
      }
    }
    if (next == nullptr) return nullptr;
    node = next;
  }
  return node;
}

template <typename T>
T& Registry::get_or_create(Named<T>& metrics, std::string_view name) {
  std::lock_guard lock(mutex_);
  const auto it = metrics.find(name);
  if (it != metrics.end()) return *it->second;
  return *metrics.emplace(std::string(name), std::make_unique<T>())
              .first->second;
}

std::atomic<std::uint64_t>& Registry::counter(std::string_view name) {
  return get_or_create(counters_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  return get_or_create(histograms_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  return get_or_create(gauges_, name);
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->load();
}

std::map<std::string, std::uint64_t> Registry::counters() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, cell] : counters_) out[name] = cell->load();
  return out;
}

std::map<std::string, HistogramSnapshot> Registry::histograms() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, hist] : histograms_) out[name] = hist->snapshot();
  return out;
}

std::map<std::string, std::int64_t> Registry::gauges() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  return out;
}

Registry::Node* Registry::find_or_add_child(Node& parent,
                                            std::string_view name) {
  for (const auto& child : parent.children)
    if (child->name == name) return child.get();
  auto node = std::make_unique<Node>();
  node->name = std::string(name);
  parent.children.push_back(std::move(node));
  return parent.children.back().get();
}

void Registry::begin_phase(std::string_view name) {
  std::lock_guard lock(mutex_);
  std::vector<Node*>& stack = stacks_[std::this_thread::get_id()];
  Node& parent = stack.empty() ? root_ : *stack.back();
  stack.push_back(find_or_add_child(parent, name));
}

void Registry::end_phase(double seconds) {
  // The name of a closing *top-level* phase (the thread's stack emptied):
  // that boundary is where the live stats stream samples.
  std::string top_level_closed;
  {
    std::lock_guard lock(mutex_);
    std::vector<Node*>& stack = stacks_[std::this_thread::get_id()];
    HGR_ASSERT_MSG(!stack.empty(), "TraceScope end without matching begin");
    Node* node = stack.back();
    stack.pop_back();
    node->seconds += seconds;
    node->max_seconds = std::max(node->max_seconds, seconds);
    node->min_seconds =
        node->calls == 0 ? seconds : std::min(node->min_seconds, seconds);
    ++node->calls;
    if (stack.empty()) top_level_closed = node->name;
  }
  // Sampling re-enters the registry (counters/gauges snapshots), so it
  // must run after the lock is released.
  if (!top_level_closed.empty() && stats_stream_enabled())
    stats_stream_on_phase_close(*this, top_level_closed, seconds);
}

void Registry::set_section(std::string_view name, std::string json) {
  std::lock_guard lock(mutex_);
  sections_[std::string(name)] = std::move(json);
}

std::map<std::string, std::string> Registry::sections() const {
  std::lock_guard lock(mutex_);
  return {sections_.begin(), sections_.end()};
}

PhaseSnapshot Registry::phase_tree() const {
  std::lock_guard lock(mutex_);
  // Iterative deep copy (the tree is shallow; recursion would be fine too,
  // but this keeps the lock-held work simple and allocation-bounded).
  struct Frame {
    const Node* src;
    PhaseSnapshot* dst;
  };
  const auto snapshot_node = [](const Node& n) {
    PhaseSnapshot s;
    s.name = n.name;
    s.seconds = n.seconds;
    s.calls = n.calls;
    s.max_seconds = n.max_seconds;
    s.min_seconds = n.min_seconds;
    return s;
  };
  PhaseSnapshot root = snapshot_node(root_);
  std::vector<Frame> work{{&root_, &root}};
  while (!work.empty()) {
    const Frame f = work.back();
    work.pop_back();
    f.dst->children.reserve(f.src->children.size());
    for (const auto& child : f.src->children) {
      f.dst->children.push_back(snapshot_node(*child));
      work.push_back({child.get(), &f.dst->children.back()});
    }
  }
  return root;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (const auto& [tid, stack] : stacks_)
    HGR_ASSERT_MSG(stack.empty(), "Registry::reset inside an open TraceScope");
  stacks_.clear();
  root_ = Node{};
  counters_.clear();
  histograms_.clear();
  gauges_.clear();
  sections_.clear();
}

Registry& global_registry() {
  static Registry default_registry;
  Registry* injected = g_override.load(std::memory_order_acquire);
  return injected != nullptr ? *injected : default_registry;
}

Registry* set_global_registry(Registry* r) {
  return g_override.exchange(r, std::memory_order_acq_rel);
}

std::string trace_to_json(const Registry& reg) {
  const PhaseSnapshot root = reg.phase_tree();
  std::string out;
  JsonWriter w(out);
  w.begin_object().key("schema").str("hgr-trace-v2");
  w.key("phases").begin_array();
  for (const PhaseSnapshot& phase : root.children) phase_to_json(w, phase);
  w.end_array().key("counters").begin_object();
  for (const auto& [name, value] : reg.counters()) w.key(name).u64(value);
  w.end_object().key("histograms").begin_object();
  for (const auto& [name, snap] : reg.histograms())
    w.key(name).raw(snap.to_json());
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, value] : reg.gauges()) w.key(name).i64(value);
  w.end_object();
  for (const auto& [name, json] : reg.sections()) w.key(name).raw(json);
  w.end_object();
  return out;
}

std::string trace_to_json() { return trace_to_json(global_registry()); }

bool write_trace_json(const std::string& path, const Registry& reg) {
  std::ofstream out(path);
  if (!out) return false;
  out << trace_to_json(reg) << '\n';
  return static_cast<bool>(out);
}

bool write_trace_json(const std::string& path) {
  return write_trace_json(path, global_registry());
}

}  // namespace hgr::obs
