// Small vector with inline capacity — the request hot path's scratch type.
//
// The per-request structures (DRT segments, redirect segments, striped
// sub-extents, scheduler sub-requests) are almost always tiny: a request
// touches a handful of region files and servers.  SmallVec<T, N> keeps up to
// N elements in inline storage and spills to the heap only beyond that, and
// clear() never releases capacity — so a caller-owned scratch SmallVec that
// is reused across requests performs zero heap allocations in steady state
// (at most one, on the first request that spills).
//
// Deliberately a subset of std::vector: append/clear/iterate/index, plus
// resize for fill-style use.  No insert/erase in the middle — hot-path
// consumers never need them, and the smaller surface keeps the type easy to
// audit.  Unlike std::vector, moving a SmallVec that sits in inline storage
// moves elements one by one (pointers into a SmallVec are invalidated by
// move — never hold them across one).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace mha::common {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(N > 0, "SmallVec needs at least one inline slot");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() noexcept = default;

  SmallVec(const SmallVec& other) { append_range(other.begin(), other.end()); }

  SmallVec(SmallVec&& other) noexcept(std::is_nothrow_move_constructible_v<T>) {
    take_from(std::move(other));
  }

  SmallVec& operator=(const SmallVec& other) {
    if (this == &other) return *this;
    clear();
    append_range(other.begin(), other.end());
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept(std::is_nothrow_move_constructible_v<T>) {
    if (this == &other) return *this;
    destroy_all();
    release_heap();
    take_from(std::move(other));
    return *this;
  }

  ~SmallVec() {
    destroy_all();
    release_heap();
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  iterator begin() noexcept { return data_; }
  iterator end() noexcept { return data_ + size_; }
  const_iterator begin() const noexcept { return data_; }
  const_iterator end() const noexcept { return data_ + size_; }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// True once the vector has spilled past its inline storage.
  bool spilled() const noexcept { return data_ != inline_data(); }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  T& front() noexcept { return data_[0]; }
  const T& front() const noexcept { return data_[0]; }
  T& back() noexcept { return data_[size_ - 1]; }
  const T& back() const noexcept { return data_[size_ - 1]; }

  /// Destroys all elements; capacity (inline or spilled) is retained.
  void clear() noexcept {
    destroy_all();
    size_ = 0;
  }

  void reserve(std::size_t n) {
    if (n > capacity_) grow_to(n);
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow_to(capacity_ * 2);
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  void pop_back() noexcept {
    --size_;
    data_[size_].~T();
  }

  /// Grows (value-initialized) or shrinks to exactly `n` elements.
  void resize(std::size_t n) {
    if (n > capacity_) grow_to(n);
    while (size_ > n) pop_back();
    while (size_ < n) emplace_back();
  }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(a.data_[i] == b.data_[i])) return false;
    }
    return true;
  }

 private:
  T* inline_data() noexcept { return reinterpret_cast<T*>(inline_storage_); }
  const T* inline_data() const noexcept { return reinterpret_cast<const T*>(inline_storage_); }

  void destroy_all() noexcept {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
  }

  void release_heap() noexcept {
    if (spilled()) ::operator delete(data_);
    data_ = inline_data();
    capacity_ = N;
    size_ = 0;
  }

  void grow_to(std::size_t n) {
    if (n < capacity_ * 2) n = capacity_ * 2;
    // capacity_ >= N already makes n >= 2N; the explicit floor lets GCC see
    // that the block is never empty (else -Warray-bounds at every caller).
    if (n < N) n = N;
    T* fresh = static_cast<T*>(::operator new(n * sizeof(T)));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (spilled()) ::operator delete(data_);
    data_ = fresh;
    capacity_ = n;
  }

  void append_range(const T* first, const T* last) {
    reserve(size_ + static_cast<std::size_t>(last - first));
    for (; first != last; ++first) emplace_back(*first);
  }

  /// Move-adopts `other`'s contents; *this must be empty with no heap block.
  void take_from(SmallVec&& other) noexcept(std::is_nothrow_move_constructible_v<T>) {
    if (other.spilled()) {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_data();
      other.size_ = 0;
      other.capacity_ = N;
      return;
    }
    for (std::size_t i = 0; i < other.size_; ++i) {
      ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
      other.data_[i].~T();
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  alignas(T) std::byte inline_storage_[N * sizeof(T)];
  T* data_ = inline_data();
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace mha::common
