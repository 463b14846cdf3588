// Debug invariant layer.
//
// DPAR_ASSERT guards the structural invariants the fast paths rely on
// (event-queue ordering, RangeSet sortedness + incremental byte totals,
// EMC id->slot index agreement, replica tracker counts). The
// checks are compiled out entirely unless DPAR_CHECK_INVARIANTS is defined
// (CMake option of the same name; ON by default for Debug builds, OFF for
// Release), so sanitizer CI legs verify the invariants continuously while
// the Release hot paths pay nothing.
//
// On failure DPAR_ASSERT prints the condition, message, and location to
// stderr and aborts — sanitizer runs and gtest death tests both catch the
// abort, and there is deliberately no exception path: a broken structural
// invariant means the simulation state can no longer be trusted.
#pragma once

#ifndef DPAR_CHECK_INVARIANTS
#define DPAR_CHECK_INVARIANTS 0
#endif

#if DPAR_CHECK_INVARIANTS

#include <cstdio>
#include <cstdlib>

namespace dpar::sim::detail {
[[noreturn]] inline void assert_fail(const char* cond, const char* msg,
                                     const char* file, int line) {
  std::fprintf(stderr, "DPAR_ASSERT failed: %s (%s) at %s:%d\n", cond, msg, file,
               line);
  std::abort();
}
}  // namespace dpar::sim::detail

/// Assert a structural invariant; active only under DPAR_CHECK_INVARIANTS.
#define DPAR_ASSERT(cond, msg)                                              \
  do {                                                                      \
    if (!(cond))                                                            \
      ::dpar::sim::detail::assert_fail(#cond, (msg), __FILE__, __LINE__);   \
  } while (0)

/// Run a statement (typically a full-structure validation) only when the
/// invariant layer is compiled in.
#define DPAR_IF_CHECKING(stmt) \
  do {                         \
    stmt;                      \
  } while (0)

#else

// sizeof keeps the operands parsed (so variables used only in assertions
// don't warn as unused) without evaluating or emitting anything.
#define DPAR_ASSERT(cond, msg)  \
  do {                          \
    (void)sizeof((cond) ? 0 : 0); \
    (void)sizeof(msg);          \
  } while (0)
#define DPAR_IF_CHECKING(stmt) \
  do {                         \
  } while (0)

#endif  // DPAR_CHECK_INVARIANTS
