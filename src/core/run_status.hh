/**
 * @file
 * Per-point completion status for the experiment engine's fault
 * isolation: instead of a failing (workload, config) point unwinding
 * the whole sweep, the engine captures what happened into the result
 * itself. A default-constructed status reads "ok" so code that builds
 * results directly (System::run and friends) needs no changes.
 */

#ifndef TEMPO_CORE_RUN_STATUS_HH
#define TEMPO_CORE_RUN_STATUS_HH

#include <cstdint>
#include <exception>
#include <string>

namespace tempo {

struct RunStatus {
    enum class Code {
        Ok,       //!< the point ran to completion; stats are valid
        Failed,   //!< an attempt threw; stats are zero
        TimedOut, //!< the wall-clock watchdog cancelled it; stats zero
    };

    Code code = Code::Ok;
    /** what() of the exception that ended the final attempt. */
    std::string error;
    /** Attempts made (1 + retries actually used). */
    unsigned attempts = 1;
    /** Workload seed of the final attempt (retries are reseeded). */
    std::uint64_t seedUsed = 0;
    /** Stable point digest (workload, config, refs, seed, index); 0
     * when the result did not come through the experiment engine. */
    std::uint64_t digest = 0;
    /** The exception that ended the final attempt, for callers that
     * want legacy rethrow semantics. Never serialized. */
    std::exception_ptr exception;

    bool ok() const { return code == Code::Ok; }

    const char *
    codeName() const
    {
        switch (code) {
          case Code::Ok: return "ok";
          case Code::Failed: return "failed";
          case Code::TimedOut: return "timed_out";
        }
        return "unknown";
    }
};

} // namespace tempo

#endif // TEMPO_CORE_RUN_STATUS_HH
