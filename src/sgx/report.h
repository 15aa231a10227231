// Local-attestation REPORTs (EREPORT / verify_report).
//
// A REPORT proves, to another enclave on the *same machine*, which enclave
// produced it: the CPU MACs the report body with the target enclave's
// report key, which only that target (on that CPU) can re-derive.
#pragma once

#include "crypto/cmac.h"
#include "sgx/cpu.h"
#include "sgx/types.h"
#include "support/bytes.h"
#include "support/serde.h"
#include "support/status.h"

namespace sgxmig::sgx {

/// Its encoding is the bytes a report MAC and an IAS verdict cover.
struct ReportBody {
  EnclaveIdentity identity;
  ReportData report_data{};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.record(m.identity);
    io.fixed(m.report_data);
  }
};

struct Report {
  ReportBody body;
  crypto::CmacTag mac{};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.record(m.body);
    io.fixed(m.mac);
  }
};

/// EREPORT: creates a report of `self` targeted at `target`, MACed with the
/// target's report key on `cpu`.
Report create_report(const SimCpu& cpu, const EnclaveIdentity& self,
                     const TargetInfo& target, const ReportData& data);

/// Verifies a report that was targeted at `self_mr_enclave` on `cpu`.
/// Fails for reports produced on a different machine (different CPU secret)
/// or targeted at a different enclave.
bool verify_report(const SimCpu& cpu, const Measurement& self_mr_enclave,
                   const Report& report);

}  // namespace sgxmig::sgx
