// The one durable write of the migration layer.  The Migration Library
// re-seals Table II and hands it to the persist OCALL inside every
// mutating operation (§VI-B); the Migration Enclave does the same with its
// transfer queue on every transition.  Either way the write is complete
// before the caller goes on: there is no deferred or batched commit.
#pragma once

#include <cstdint>
#include <string>

#include "obs/trace.h"
#include "support/status.h"

namespace sgxmig::migration {

/// Runs `commit` (seal + persist OCALL) inside a `persist.fence` span of
/// `trace` (null: untraced) on `lane`, with trace id `nonce` (0 when
/// unknown); the span's `kind` names what was written and its `outcome`
/// the result.  The span only reads the clock, so traced runs keep their
/// timings.
template <typename Commit>
Status traced_durable_write(obs::TraceRecorder* trace, const std::string& lane,
                            uint64_t nonce, const char* kind,
                            Commit&& commit) {
  uint64_t span = 0;
  if (trace != nullptr) {
    span = trace->begin_span("persist.fence", lane, nonce);
    trace->span_arg(span, "kind", kind);
  }
  const Status status = commit();
  if (span != 0) {
    trace->span_arg(span, "outcome", std::string(status_name(status)));
    trace->end_span(span);
  }
  return status;
}

}  // namespace sgxmig::migration
