// Fundamental index, id, and weight types used across the hgr library.
//
// The library follows the conventions of the IPDPS'07 repartitioning paper:
// vertices carry a *weight* (computational load) and a *size* (bytes of data
// that must move if the vertex migrates); nets carry a *cost* (bytes
// communicated per iteration when the net is cut).
//
// Id safety (docs/CHECKING.md, "Static-analysis stack"): the four id spaces
// in flight — vertices, nets, parts, ranks — are distinct StrongId
// instantiations, so passing a net id where a vertex id is expected, or a
// rank where a part is expected, is a compile error instead of a silently
// wrong array lookup. Conventions:
//
//   - `Index` stays a plain 32-bit integer for *counts and positions*
//     (num_vertices(), CSR offsets, loop trip counts, pin slots). An id
//     names an element; an Index measures or locates.
//   - `id.v` is the sanctioned raw accessor for arithmetic that genuinely
//     mixes spaces (flat table indexing like `net.v * k + part.v`, hashing,
//     printing through C APIs).
//   - `to_raw()` / `from_raw()` are the *bulk* conversion points for the
//     comm-buffer and file-IO boundaries, where ids must travel as plain
//     integers. hgr_lint's `raw-escape` rule confines them to those
//     boundaries (tools/hgr_lint.py).
//   - `IdVector<Id, T>` / `IdSpan<Id, T>` are vectors/spans whose subscript
//     only accepts the matching id type, for arrays keyed by an id space
//     (the partition vector, fine->coarse maps, per-part weights).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <ostream>
#include <span>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"

namespace hgr {

/// Count or position (CSR offsets, sizes, loop bounds). Signed so that -1
/// can mean "none" in work arrays.
using Index = std::int32_t;

/// Weights, sizes, costs, and cut values. 64-bit: cut sums over millions of
/// pins times alpha up to 1000 overflow 32 bits easily.
using Weight = std::int64_t;

/// Sentinel for "no position".
inline constexpr Index kInvalidIndex = -1;

/// A strongly-typed id: a 32-bit integer that names an element of one id
/// space (vertex, net, part, rank) and refuses to mix with the others.
/// Construction from an integer is explicit; `.v` reads the raw value.
template <class Tag>
struct StrongId {
  using Raw = std::int32_t;

  Raw v = -1;

  constexpr StrongId() = default;
  template <class I, std::enable_if_t<std::is_integral_v<I>, int> = 0>
  explicit constexpr StrongId(I raw) : v(static_cast<Raw>(raw)) {}

  /// True iff this id names an element (is not a sentinel).
  constexpr bool valid() const { return v >= 0; }

  friend constexpr bool operator==(StrongId a, StrongId b) = default;
  friend constexpr auto operator<=>(StrongId a, StrongId b) = default;

  constexpr StrongId& operator++() { ++v; return *this; }
  constexpr StrongId operator++(int) { StrongId old = *this; ++v; return old; }
  constexpr StrongId& operator--() { --v; return *this; }
  constexpr StrongId operator--(int) { StrongId old = *this; --v; return old; }

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    return os << id.v;
  }
};

struct VertexTag {};
struct NetTag {};
struct PartTag {};
struct RankTag {};

/// Names a vertex of a hypergraph (a row of the incident-nets CSR).
using VertexId = StrongId<VertexTag>;
/// Names a net (hyperedge) of a hypergraph (a row of the pin CSR).
using NetId = StrongId<NetTag>;
/// Names a part of a partition, in [0, k).
using PartId = StrongId<PartTag>;
/// Names a rank of the (emulated) distributed run, in [0, p).
using RankId = StrongId<RankTag>;

/// Sentinels for "no vertex / no net / no part / no rank".
inline constexpr VertexId kInvalidVertex{-1};
inline constexpr NetId kInvalidNet{-1};
inline constexpr PartId kNoPart{-1};
inline constexpr RankId kNoRank{-1};

// ---------------------------------------------------------------------------
// Raw conversion points (comm-buffer / file-IO boundary).
//
// Scalar and bulk escapes out of (and into) the typed world. hgr_lint's
// `raw-escape` rule keeps calls to these outside the allowlisted boundary
// files from landing; everywhere else, prefer `.v` for per-element access.

template <class Tag>
constexpr typename StrongId<Tag>::Raw to_raw(StrongId<Tag> id) {
  return id.v;
}

template <class Id, class I, std::enable_if_t<std::is_integral_v<I>, int> = 0>
constexpr Id from_raw(I raw) {
  return Id{static_cast<typename Id::Raw>(raw)};
}

/// Reinterpret a span of strong ids as a span of their raw integers (legal:
/// StrongId is standard-layout with a single Raw member). For filling comm
/// buffers without an element-wise copy.
template <class Tag>
inline std::span<const typename StrongId<Tag>::Raw> to_raw(
    std::span<const StrongId<Tag>> ids) {
  static_assert(sizeof(StrongId<Tag>) == sizeof(typename StrongId<Tag>::Raw));
  return {reinterpret_cast<const typename StrongId<Tag>::Raw*>(ids.data()),
          ids.size()};
}

/// Reinterpret a span of raw integers as a span of strong ids: the inverse
/// of the to_raw() span view, for consuming comm buffers without a copy.
template <class Id>
inline std::span<const Id> from_raw_span(
    std::span<const typename Id::Raw> raw) {
  static_assert(sizeof(Id) == sizeof(typename Id::Raw));
  return {reinterpret_cast<const Id*>(raw.data()), raw.size()};
}

// ---------------------------------------------------------------------------
// Id ranges: iterate an id space without touching raw integers.
//
//   for (VertexId v : hg.vertices()) ...
//   for (PartId p : part_range(k)) ...

template <class Id>
class IdRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Id;
    using difference_type = std::ptrdiff_t;
    using pointer = const Id*;
    using reference = Id;

    constexpr iterator() = default;
    explicit constexpr iterator(Id at) : at_(at) {}
    constexpr Id operator*() const { return at_; }
    constexpr iterator& operator++() { ++at_; return *this; }
    constexpr iterator operator++(int) { iterator o = *this; ++at_; return o; }
    friend constexpr bool operator==(iterator a, iterator b) = default;

   private:
    Id at_{};
  };

  constexpr IdRange() = default;
  /// The half-open range [0, n).
  explicit constexpr IdRange(Index n) : begin_(Id{0}), end_(Id{n}) {}
  constexpr IdRange(Id begin, Id end) : begin_(begin), end_(end) {}

  constexpr iterator begin() const { return iterator(begin_); }
  constexpr iterator end() const { return iterator(end_); }
  constexpr Index size() const { return end_.v - begin_.v; }
  constexpr bool empty() const { return size() <= 0; }

 private:
  Id begin_{0};
  Id end_{0};
};

/// [PartId{0}, PartId{k}) — the parts of a k-way partition.
inline constexpr IdRange<PartId> part_range(Index k) { return IdRange<PartId>(k); }
/// [VertexId{0}, VertexId{n}).
inline constexpr IdRange<VertexId> vertex_range(Index n) {
  return IdRange<VertexId>(n);
}
/// [NetId{0}, NetId{m}).
inline constexpr IdRange<NetId> net_range(Index m) { return IdRange<NetId>(m); }
/// [RankId{0}, RankId{p}).
inline constexpr IdRange<RankId> rank_range(Index p) {
  return IdRange<RankId>(p);
}

// ---------------------------------------------------------------------------
// Typed containers: arrays keyed by one id space.

/// A std::span whose subscript only accepts the matching id type. T may be
/// const-qualified for read-only views.
template <class Id, class T>
class IdSpan {
 public:
  constexpr IdSpan() = default;
  constexpr IdSpan(std::span<T> s) : span_(s) {}
  constexpr IdSpan(T* data, std::size_t n) : span_(data, n) {}
  /// Views of non-const element spans convert to const-element views.
  template <class U = T,
            std::enable_if_t<std::is_const_v<U>, int> = 0>
  constexpr IdSpan(IdSpan<Id, std::remove_const_t<T>> other)
      : span_(other.raw()) {}

  constexpr T& operator[](Id id) const {
    HGR_DASSERT(id.v >= 0 &&
                static_cast<std::size_t>(id.v) < span_.size());
    return span_[static_cast<std::size_t>(id.v)];
  }

  constexpr std::size_t size() const { return span_.size(); }
  constexpr Index ssize() const { return static_cast<Index>(span_.size()); }
  constexpr bool empty() const { return span_.empty(); }
  constexpr T* data() const { return span_.data(); }
  constexpr auto begin() const { return span_.begin(); }
  constexpr auto end() const { return span_.end(); }
  /// The ids this span is keyed by: [Id{0}, Id{size()}).
  constexpr IdRange<Id> ids() const { return IdRange<Id>(ssize()); }
  /// The typed view of the first n elements (same id space).
  constexpr IdSpan first(Index n) const {
    return IdSpan(span_.first(static_cast<std::size_t>(n)));
  }
  /// Untyped escape (bulk ops, comm boundary) — policed by hgr_lint.
  constexpr std::span<T> raw() const { return span_; }

 private:
  std::span<T> span_;
};

/// A std::vector whose subscript only accepts the matching id type.
template <class Id, class T>
class IdVector {
 public:
  IdVector() = default;
  explicit IdVector(Index n) : data_(static_cast<std::size_t>(n)) {}
  IdVector(Index n, const T& value)
      : data_(static_cast<std::size_t>(n), value) {}
  /// Adopt an untyped vector (IO / comm boundary) — policed by hgr_lint.
  static IdVector adopt_raw(std::vector<T> raw) {
    IdVector out;
    out.data_ = std::move(raw);
    return out;
  }

  // decltype(auto): std::vector<bool> subscripts yield a proxy, not bool&.
  decltype(auto) operator[](Id id) {
    HGR_DASSERT(id.v >= 0 &&
                static_cast<std::size_t>(id.v) < data_.size());
    return data_[static_cast<std::size_t>(id.v)];
  }
  decltype(auto) operator[](Id id) const {
    HGR_DASSERT(id.v >= 0 &&
                static_cast<std::size_t>(id.v) < data_.size());
    return data_[static_cast<std::size_t>(id.v)];
  }

  std::size_t size() const { return data_.size(); }
  Index ssize() const { return static_cast<Index>(data_.size()); }
  bool empty() const { return data_.empty(); }
  void clear() { data_.clear(); }
  void resize(Index n) { data_.resize(static_cast<std::size_t>(n)); }
  void resize(Index n, const T& value) {
    data_.resize(static_cast<std::size_t>(n), value);
  }
  void assign(Index n, const T& value) {
    data_.assign(static_cast<std::size_t>(n), value);
  }
  void reserve(Index n) { data_.reserve(static_cast<std::size_t>(n)); }
  void push_back(const T& value) { data_.push_back(value); }
  void push_back(T&& value) { data_.push_back(std::move(value)); }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }
  T& back() { return data_.back(); }
  const T& back() const { return data_.back(); }

  /// The ids this vector is keyed by: [Id{0}, Id{size()}).
  IdRange<Id> ids() const { return IdRange<Id>(ssize()); }

  /// Typed views (implicit, mirroring vector -> span).
  operator IdSpan<Id, T>() { return IdSpan<Id, T>(std::span<T>(data_)); }
  operator IdSpan<Id, const T>() const {
    return IdSpan<Id, const T>(std::span<const T>(data_));
  }
  IdSpan<Id, T> span() { return *this; }
  IdSpan<Id, const T> span() const { return *this; }

  /// Untyped escape (bulk ops, IO, comm boundary) — policed by hgr_lint.
  std::vector<T>& raw() { return data_; }
  const std::vector<T>& raw() const { return data_; }

  friend bool operator==(const IdVector&, const IdVector&) = default;

 private:
  std::vector<T> data_;
};

}  // namespace hgr

template <class Tag>
struct std::hash<hgr::StrongId<Tag>> {
  std::size_t operator()(hgr::StrongId<Tag> id) const noexcept {
    return std::hash<std::int32_t>{}(id.v);
  }
};
