// Move-only callable with a small-buffer optimisation.
//
// The event engine schedules millions of callbacks per simulated run and the
// common capture set is a handful of pointers (driver, request, process).
// `std::function` spills anything beyond ~16 bytes to the heap; this type
// keeps captures up to kInlineSize bytes in place. Larger callables still
// work — they fall back to a single heap cell, silently.
//
// The request path stays allocation-free because its closures capture only
// `{this, slab slot}` and a few scalars (the records themselves live in the
// owners' sim::Slab, see sim/slab.hpp), and each such closure is wrapped in
// `inline_fn(...)`, which refuses to compile a capture that would spill.
//
// `UniqueFn<R(Args...)>` is the general form; `UniqueFunction` is the
// `void()` instantiation the engine and most completion callbacks use.
//
// Beware of nesting: a UniqueFunction is 64 bytes, so a lambda that captures
// one by value exceeds the 48-byte inline buffer and spills. Hot-path code
// parks the continuation in a slab record or a fan-in (sim/fanin.hpp) and
// captures its slot, or stores it in a member, instead of re-capturing it.
//
// The object is the buffer plus two pointers: an invoker and a manager
// table that relocates or destroys the callable. Captures that are
// trivially copyable and destructible (pointers, ids, scalars) have no
// manager and move as raw bytes; Relocatable closures and heap-stored
// callables also move as bytes and call their manager only to be destroyed.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dpar::sim {

/// UniqueFn's small-buffer size: lambdas capturing up to six pointer-sized
/// values stay inline.
inline constexpr std::size_t kInlineFnSize = 48;

/// True when a callable of type Fn is stored inside UniqueFn's buffer.
template <class Fn>
inline constexpr bool kFitsInline = sizeof(Fn) <= kInlineFnSize &&
                                    alignof(Fn) <= alignof(std::max_align_t) &&
                                    std::is_nothrow_move_constructible_v<Fn>;

/// Pass `f` through unchanged, but only if it fits UniqueFn's inline buffer:
/// hot-path closures are built as `inline_fn([this, slot] { ... })`, so a
/// capture that grows past kInlineFnSize bytes fails to build instead of
/// silently costing a malloc per event.
template <class F>
std::remove_cvref_t<F> inline_fn(F&& f) {
  static_assert(kFitsInline<std::remove_cvref_t<F>>,
                "closure spills past UniqueFn's inline buffer: capture a slab "
                "slot or pointer instead of the data");
  return std::forward<F>(f);
}

/// A closure whose captures move as raw bytes but must be destroyed once:
/// pointers, scalars and handles like pfs::Client's counted call reference,
/// which a byte copy hands over whole (the source is abandoned, never
/// destroyed) and whose destructor releases what it holds. UniqueFn moves it
/// without a call and runs its manager only to destroy it. Built by
/// relocatable_fn().
template <class F>
struct Relocatable {
  F fn;
  template <class... A>
  decltype(auto) operator()(A&&... args) {
    return fn(std::forward<A>(args)...);
  }
};

template <class T>
inline constexpr bool kIsRelocatable = false;
template <class F>
inline constexpr bool kIsRelocatable<Relocatable<F>> = true;

/// inline_fn() for a closure that holds a releasing handle: marks it
/// Relocatable. Only for captures that stay valid when moved by memcpy and
/// need no destructor once moved from (no self-pointers, no SSO strings).
template <class F>
Relocatable<std::remove_cvref_t<F>> relocatable_fn(F&& f) {
  static_assert(kFitsInline<Relocatable<std::remove_cvref_t<F>>>,
                "closure spills past UniqueFn's inline buffer: capture a slab "
                "slot or pointer instead of the data");
  return {std::forward<F>(f)};
}

template <class Sig>
class UniqueFn;

template <class R, class... Args>
class UniqueFn<R(Args...)> {
 public:
  static constexpr std::size_t kInlineSize = kInlineFnSize;

  UniqueFn() noexcept = default;

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, UniqueFn> &&
             std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>)
  UniqueFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_.buf)) Fn(std::forward<F>(f));
      invoke_ = [](UniqueFn& self, Args... args) -> R {
        return (*self.inline_ptr<Fn>())(std::forward<Args>(args)...);
      };
      if constexpr (std::is_trivially_copyable_v<Fn> &&
                    std::is_trivially_destructible_v<Fn>) {
        // Captures of pointers and scalars (the common case) move as raw
        // bytes and need no destructor: no manager.
      } else if constexpr (kIsRelocatable<Fn>) {
        static constexpr Manager kManager{nullptr, &destroy_inline<Fn>};
        manager_ = &kManager;
      } else {
        static constexpr Manager kManager{&relocate_inline<Fn>, &destroy_inline<Fn>};
        manager_ = &kManager;
      }
    } else {
      storage_.ptr = new Fn(std::forward<F>(f));
      invoke_ = [](UniqueFn& self, Args... args) -> R {
        return (*self.heap_ptr<Fn>())(std::forward<Args>(args)...);
      };
      // The heap pointer moves as bytes.
      static constexpr Manager kManager{nullptr, &destroy_heap<Fn>};
      manager_ = &kManager;
    }
  }

  UniqueFn(UniqueFn&& other) noexcept { take_(other); }

  UniqueFn& operator=(UniqueFn&& other) noexcept {
    if (this != &other) {
      reset();
      take_(other);
    }
    return *this;
  }

  UniqueFn(const UniqueFn&) = delete;
  UniqueFn& operator=(const UniqueFn&) = delete;

  ~UniqueFn() { reset(); }

  void reset() noexcept {
    if (invoke_) {
      if (manager_) manager_->destroy(*this);
      invoke_ = nullptr;
      manager_ = nullptr;
    }
  }

  R operator()(Args... args) {
    return invoke_(*this, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  /// How a stored callable that is not plain bytes moves and ends.
  struct Manager {
    /// Moves the callable into `dst` and ends it in `src`. Null: the stored
    /// bytes move as they are.
    void (*relocate)(UniqueFn& dst, UniqueFn& src);
    void (*destroy)(UniqueFn& self);
  };

  template <class Fn>
  static void relocate_inline(UniqueFn& dst, UniqueFn& src) {
    ::new (static_cast<void*>(dst.storage_.buf)) Fn(std::move(*src.inline_ptr<Fn>()));
    src.inline_ptr<Fn>()->~Fn();
  }
  template <class Fn>
  static void destroy_inline(UniqueFn& self) {
    self.inline_ptr<Fn>()->~Fn();
  }
  template <class Fn>
  static void destroy_heap(UniqueFn& self) {
    delete self.heap_ptr<Fn>();
  }

  void take_(UniqueFn& other) noexcept {
    if (other.invoke_) {
      if (other.manager_ != nullptr && other.manager_->relocate != nullptr) {
        other.manager_->relocate(*this, other);
      } else {
        storage_ = other.storage_;
      }
      invoke_ = other.invoke_;
      manager_ = other.manager_;
      other.invoke_ = nullptr;
      other.manager_ = nullptr;
    }
  }

  template <class Fn>
  Fn* inline_ptr() noexcept {
    return std::launder(reinterpret_cast<Fn*>(storage_.buf));
  }
  template <class Fn>
  Fn* heap_ptr() noexcept {
    return static_cast<Fn*>(storage_.ptr);
  }

  union Storage {
    alignas(std::max_align_t) unsigned char buf[kInlineSize];
    void* ptr;
  } storage_;
  R (*invoke_)(UniqueFn&, Args...) = nullptr;  ///< null iff empty
  /// Null for trivially copyable and destructible inline callables, which
  /// move as bytes and need no destructor.
  const Manager* manager_ = nullptr;
};

/// The engine's callback type and the I/O stack's completion-callback type.
using UniqueFunction = UniqueFn<void()>;

}  // namespace dpar::sim
