#include "sgx/report.h"

namespace sgxmig::sgx {

Report create_report(const SimCpu& cpu, const EnclaveIdentity& self,
                     const TargetInfo& target, const ReportData& data) {
  Report report;
  report.body.identity = self;
  report.body.report_data = data;
  const Key128 key = cpu.report_key(target.mr_enclave);
  report.mac = crypto::aes_cmac(ByteView(key.data(), key.size()),
                                encode_record(report.body));
  return report;
}

bool verify_report(const SimCpu& cpu, const Measurement& self_mr_enclave,
                   const Report& report) {
  const Key128 key = cpu.report_key(self_mr_enclave);
  const crypto::CmacTag expected = crypto::aes_cmac(
      ByteView(key.data(), key.size()), encode_record(report.body));
  return constant_time_eq(ByteView(expected.data(), expected.size()),
                          ByteView(report.mac.data(), report.mac.size()));
}

}  // namespace sgxmig::sgx
