// Clang thread-safety-analysis annotations (-Wthread-safety).
//
// Wrappers so annotated code still compiles under gcc (which has no
// such attributes): the macros expand to nothing unless the compiler
// is clang and knows the attribute. Annotate every mutex-guarded
// member with CELECT_GUARDED_BY; a clang build (CMakeLists.txt adds
// -Wthread-safety for it) checks each access holds the mutex.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define CELECT_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef CELECT_THREAD_ANNOTATION
#define CELECT_THREAD_ANNOTATION(x)
#endif

// Data member readable/writable only while `x` is held.
#define CELECT_GUARDED_BY(x) CELECT_THREAD_ANNOTATION(guarded_by(x))
