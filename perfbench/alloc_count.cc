/**
 * @file
 * Global operator new/delete replacement for the traced benchmark
 * binary only: counts heap allocations per thread while counting is
 * switched on, so silobench can charge allocations to the public call
 * that made them (System constructor, run()) without touching the
 * simulator. Every other operator new form (array, nothrow) forwards to
 * the replaced single-object form, so all unaligned allocations count.
 */

#include <cstdint>
#include <cstdlib>
#include <new>

namespace silobench
{

/** Written only while no worker thread exists (between batches). */
bool countAllocs = false;
thread_local std::uint64_t allocCount = 0;

} // namespace silobench

void *
operator new(std::size_t size)
{
    if (silobench::countAllocs)
        ++silobench::allocCount;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
