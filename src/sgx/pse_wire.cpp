#include "sgx/pse_wire.h"

namespace sgxmig::sgx {

crypto::CmacTag pse_session_token(const crypto::Cmac& machine_mac,
                                  const Measurement& owner) {
  return machine_mac.mac(ByteView(owner.data(), owner.size()));
}

}  // namespace sgxmig::sgx
