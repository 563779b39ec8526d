/**
 * @file
 * InlineFunction: a move-only callable wrapper with small-buffer
 * storage, sized by the caller.
 *
 * std::function heap-allocates any capture larger than two pointers,
 * which made every scheduled event, MSHR waiter, and memory-request
 * completion in the simulator a malloc/free pair. InlineFunction stores
 * the callable inside the wrapper up to a caller-chosen capacity —
 * large enough for the simulator's hot-path captures — and falls back
 * to the heap only for oversized or over-aligned callables, so
 * correctness never depends on the capture fitting.
 *
 * Trivially copyable callables — the simulator's hot-path captures of
 * `this`, a record index and a cycle — move with a fixed-size memcpy
 * and need no destructor call, so relocating one costs no indirect
 * call. hotCapture() turns "this capture must never reach the heap"
 * into a compile-time check at the call site.
 */

#ifndef TEMPO_COMMON_INLINE_FUNCTION_HH
#define TEMPO_COMMON_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace tempo {

template <typename Signature, std::size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
    static_assert(Capacity >= sizeof(void *),
                  "capacity must hold at least the heap-fallback pointer");

  public:
    // Zeroed so that moveFrom()'s fixed-size copy never reads an
    // uninitialized buffer, also where the compiler cannot see that an
    // empty function copies nothing.
    InlineFunction() noexcept : buf_{} {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction>
                  && std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction(F &&fn)
    {
        emplace(std::forward<F>(fn));
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    R
    operator()(Args... args)
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    /** Destroy the held callable (no-op when empty). */
    void
    reset() noexcept
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /** True when the callable lives in the inline buffer (not heap). */
    bool inlineStored() const noexcept { return ops_ && ops_->isInline; }

  private:
    /** Per-callable-type operations. A null relocate means the stored
     * bytes move with memcpy; a null destroy means nothing to run. */
    struct Ops {
        R (*invoke)(void *, Args &&...);
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
        bool isInline;
    };

    template <typename Fn>
    static constexpr bool storedInline =
        sizeof(Fn) <= Capacity && alignof(Fn) <= alignof(std::max_align_t)
        && std::is_nothrow_move_constructible_v<Fn>;

    template <typename Fn>
    struct InlineModel {
        static R
        invoke(void *p, Args &&...args)
        {
            return static_cast<R>(
                (*static_cast<Fn *>(p))(std::forward<Args>(args)...));
        }
        static void
        relocate(void *dst, void *src) noexcept
        {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            static_cast<Fn *>(src)->~Fn();
        }
        static void
        destroy(void *p) noexcept
        {
            static_cast<Fn *>(p)->~Fn();
        }
        static constexpr Ops ops{
            &invoke,
            std::is_trivially_copyable_v<Fn> ? nullptr : &relocate,
            std::is_trivially_destructible_v<Fn> ? nullptr : &destroy,
            true};
    };

    template <typename Fn>
    struct HeapModel {
        static Fn *
        held(void *p) noexcept
        {
            Fn *fn;
            std::memcpy(&fn, p, sizeof(fn));
            return fn;
        }
        static R
        invoke(void *p, Args &&...args)
        {
            return static_cast<R>(
                (*held(p))(std::forward<Args>(args)...));
        }
        static void
        destroy(void *p) noexcept
        {
            delete held(p);
        }
        // The buffer holds only the pointer: it moves with memcpy.
        static constexpr Ops ops{&invoke, nullptr, &destroy, false};
    };

    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (storedInline<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
            ops_ = &InlineModel<Fn>::ops;
        } else {
            Fn *heap = new Fn(std::forward<F>(fn));
            std::memcpy(buf_, &heap, sizeof(heap));
            ops_ = &HeapModel<Fn>::ops;
        }
    }

    void
    moveFrom(InlineFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            if (ops_->relocate)
                ops_->relocate(buf_, other.buf_);
            else
                std::memcpy(buf_, other.buf_, Capacity);
            other.ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[Capacity];
};

/** Capture budget of the simulator's per-reference path: `this`, a
 * record index and a cycle. */
inline constexpr std::size_t kHotCaptureBytes = 24;

/**
 * Return @p fn unchanged. Fails to compile unless @p fn is trivially
 * copyable and at most @p Bytes (by default kHotCaptureBytes), so
 * storing it in any InlineFunction of at least that capacity can never
 * take the heap fallback and always relocates with memcpy.
 */
template <std::size_t Bytes = kHotCaptureBytes, typename F>
constexpr F
hotCapture(F fn)
{
    static_assert(sizeof(F) <= Bytes,
                  "hot-path capture exceeds its inline budget: capture "
                  "a record index instead of the record");
    static_assert(std::is_trivially_copyable_v<F>,
                  "hot-path capture must be trivially copyable");
    return fn;
}

} // namespace tempo

#endif // TEMPO_COMMON_INLINE_FUNCTION_HH
