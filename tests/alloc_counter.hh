/**
 * @file
 * Replacement global operator new/delete that count allocations, for
 * the allocation guards of the encode hot path and the serve bank
 * engine. Only the delta of g_allocCount across a measured region
 * matters; gtest's own allocations happen outside it.
 *
 * The replacements are ordinary definitions: include this header
 * from exactly one translation unit of a test binary.
 *
 * Every form routes through one malloc/free pair. The nothrow forms
 * must too: the STL's temporary buffers (e.g. stable_sort) allocate
 * with nothrow new, and under ASan a nothrow-new/plain-delete pair
 * split between the runtime's interceptor and these replacements
 * reports an alloc-dealloc mismatch.
 *
 * None of them is inlined. Inlined, GCC at -O3 sees std::free applied
 * to a pointer that came from operator new (or malloc's result passed
 * to operator delete) and warns -Wmismatched-new-delete, although the
 * pair is matched here.
 */

#ifndef WLCRC_TESTS_ALLOC_COUNTER_HH
#define WLCRC_TESTS_ALLOC_COUNTER_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace
{
std::atomic<uint64_t> g_allocCount{0};
}

[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

[[gnu::noinline]] void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return ::operator new(size, std::nothrow);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#endif // WLCRC_TESTS_ALLOC_COUNTER_HH
