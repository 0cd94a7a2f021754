#include "campaign/retry.hh"

#include <algorithm>

#include "base/parse.hh"

namespace eat::campaign
{

std::string_view
failureClassName(FailureClass c)
{
    switch (c) {
      case FailureClass::None: return "none";
      case FailureClass::SpawnFailed: return "spawn-failed";
      case FailureClass::Crashed: return "signal";
      case FailureClass::TimedOut: return "timeout";
      case FailureClass::NonzeroExit: return "nonzero-exit";
      case FailureClass::BadPayload: return "bad-payload";
    }
    return "unknown";
}

Result<FailureClass>
parseFailureClass(std::string_view name)
{
    for (const FailureClass c :
         {FailureClass::None, FailureClass::SpawnFailed,
          FailureClass::Crashed, FailureClass::TimedOut,
          FailureClass::NonzeroExit, FailureClass::BadPayload}) {
        if (name == failureClassName(c))
            return c;
    }
    return Status::error("unknown failure class '", name, "'");
}

bool
isTransient(FailureClass c)
{
    return c == FailureClass::SpawnFailed || c == FailureClass::Crashed ||
           c == FailureClass::TimedOut;
}

unsigned
RetryPolicy::backoffMsForRetry(unsigned retry) const
{
    if (retry == 0)
        return 0;
    // Cap the shift too: 2^31 ms already dwarfs any sane cap.
    const unsigned shift = std::min(retry - 1, 31u);
    const std::uint64_t delay = std::uint64_t(backoffBaseMs) << shift;
    return static_cast<unsigned>(
        std::min<std::uint64_t>(delay, backoffCapMs));
}

Result<unsigned>
parseRetries(std::string_view text)
{
    const auto parsed = parseU64(text);
    if (!parsed.ok())
        return Status::error("retries: ", parsed.status().message());
    if (parsed.value() > kMaxRetries) {
        return Status::error("retries: ", parsed.value(),
                             " exceeds the cap of ", kMaxRetries,
                             " (a cell that failed that often is not "
                             "coming back)");
    }
    return static_cast<unsigned>(parsed.value());
}

} // namespace eat::campaign
