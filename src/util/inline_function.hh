/**
 * @file
 * A move-only type-erased callable with small-buffer optimization.
 *
 * The discrete-event kernel schedules one callback per simulated event;
 * with std::function every capture larger than the libstdc++ 16-byte
 * SBO window costs a heap allocation on the schedule path.  Simulator
 * callbacks routinely capture a this-pointer plus a couple of transfer
 * parameters (24-48 bytes), so InlineFunction widens the inline window
 * to 48 bytes and never allocates for captures that fit.
 *
 * Differences from std::function:
 *  - move-only (so move-only captures like unique_ptr are supported);
 *  - no target()/target_type() RTTI;
 *  - invoking an empty InlineFunction is undefined (the event queue
 *    never stores empty callbacks);
 *  - with AllowHeap = false a capture that does not fit inline is a
 *    compile error instead of a heap allocation, for callables whose
 *    every construction must stay allocation-free.
 */

#ifndef CELLBW_UTIL_INLINE_FUNCTION_HH
#define CELLBW_UTIL_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cellbw::util
{

template <typename Signature, std::size_t InlineBytes = 48,
          bool AllowHeap = true>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineBytes,
          bool AllowHeap>
class InlineFunction<R(Args...), InlineBytes, AllowHeap>
{
    static_assert(InlineBytes >= sizeof(void *),
                  "inline buffer must at least hold the heap pointer");

  public:
    /** Capture sizes up to this many bytes are stored inline. */
    static constexpr std::size_t inlineCapacity = InlineBytes;

    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    InlineFunction(F &&f)
    {
        construct<D>(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&other) noexcept
        : vtable_(other.vtable_)
    {
        if (vtable_) {
            vtable_->relocate(&other.storage_, &storage_);
            other.vtable_ = nullptr;
        }
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            vtable_ = other.vtable_;
            if (vtable_) {
                vtable_->relocate(&other.storage_, &storage_);
                other.vtable_ = nullptr;
            }
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    void
    reset() noexcept
    {
        if (vtable_) {
            vtable_->destroy(&storage_);
            vtable_ = nullptr;
        }
    }

    explicit operator bool() const noexcept { return vtable_ != nullptr; }

    /** Const like std::function's: the target is logically mutable. */
    R
    operator()(Args... args) const
    {
        return vtable_->invoke(&storage_, std::forward<Args>(args)...);
    }

    /** True when the stored callable lives in the inline buffer. */
    bool
    isInline() const noexcept
    {
        return vtable_ != nullptr && vtable_->inlineStored;
    }

  private:
    struct VTable
    {
        R (*invoke)(void *, Args...);
        /** Move-construct into @p dst from @p src, then destroy src. */
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *) noexcept;
        bool inlineStored;
    };

    template <typename D>
    static constexpr bool fitsInline =
        sizeof(D) <= InlineBytes &&
        alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;

    template <typename D>
    struct InlineOps
    {
        static R
        invoke(void *p, Args... args)
        {
            return (*std::launder(reinterpret_cast<D *>(p)))(
                std::forward<Args>(args)...);
        }
        static void
        relocate(void *src, void *dst) noexcept
        {
            D *s = std::launder(reinterpret_cast<D *>(src));
            ::new (dst) D(std::move(*s));
            s->~D();
        }
        static void
        destroy(void *p) noexcept
        {
            std::launder(reinterpret_cast<D *>(p))->~D();
        }
        static constexpr VTable vtable = {&invoke, &relocate, &destroy,
                                          true};
    };

    template <typename D>
    struct HeapOps
    {
        static D *&
        ptr(void *p)
        {
            return *std::launder(reinterpret_cast<D **>(p));
        }
        static R
        invoke(void *p, Args... args)
        {
            return (*ptr(p))(std::forward<Args>(args)...);
        }
        static void
        relocate(void *src, void *dst) noexcept
        {
            ::new (dst) (D *)(ptr(src));
        }
        static void
        destroy(void *p) noexcept
        {
            delete ptr(p);
        }
        static constexpr VTable vtable = {&invoke, &relocate, &destroy,
                                          false};
    };

    template <typename D, typename F>
    void
    construct(F &&f)
    {
        if constexpr (fitsInline<D>) {
            ::new (static_cast<void *>(&storage_)) D(std::forward<F>(f));
            vtable_ = &InlineOps<D>::vtable;
        } else {
            static_assert(AllowHeap && sizeof(D) > 0,
                          "callable does not fit the inline buffer");
            ::new (static_cast<void *>(&storage_))
                (D *)(new D(std::forward<F>(f)));
            vtable_ = &HeapOps<D>::vtable;
        }
    }

    alignas(std::max_align_t) mutable unsigned char storage_[InlineBytes];
    const VTable *vtable_ = nullptr;
};

} // namespace cellbw::util

#endif // CELLBW_UTIL_INLINE_FUNCTION_HH
