/**
 * @file
 * The one-app name of System, kept for perfbench/; new code includes
 * core/system.hh.
 */

#ifndef TEMPO_CORE_TEMPO_SYSTEM_HH
#define TEMPO_CORE_TEMPO_SYSTEM_HH

#include "core/system.hh"

namespace tempo {

using TempoSystem = System;

} // namespace tempo

#endif // TEMPO_CORE_TEMPO_SYSTEM_HH
