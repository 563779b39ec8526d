// EventQueue and friends are header-only; this translation unit exists
// so the build system has a home for them and to catch header
// self-sufficiency problems.
#include "common/event_queue.hh"
#include "common/inline_function.hh"
