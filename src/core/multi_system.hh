/**
 * @file
 * The multiprogrammed names of System and RunResult, kept for
 * perfbench/; new code includes core/system.hh.
 */

#ifndef TEMPO_CORE_MULTI_SYSTEM_HH
#define TEMPO_CORE_MULTI_SYSTEM_HH

#include "core/system.hh"

namespace tempo {

using MultiSystem = System;
using MultiResult = RunResult;

} // namespace tempo

#endif // TEMPO_CORE_MULTI_SYSTEM_HH
