#include "migration/protocol.h"

namespace sgxmig::migration {

const char* me_msg_type_name(MeMsgType type) {
  switch (type) {
    case MeMsgType::kLaStart:
      return "la-start";
    case MeMsgType::kLaMsg2:
      return "la-msg2";
    case MeMsgType::kLaRecord:
      return "la-record";
    case MeMsgType::kRaMsg1:
      return "ra-msg1";
    case MeMsgType::kRaMsg3:
      return "ra-msg3";
    case MeMsgType::kTransfer:
      return "transfer";
    case MeMsgType::kDone:
      return "done";
    case MeMsgType::kPrecopyChunk:
      return "precopy-chunk";
    case MeMsgType::kPrecopyFinalize:
      return "precopy-finalize";
    case MeMsgType::kReconcile:
      return "reconcile";
    case MeMsgType::kAbort:
      return "abort";
    case MeMsgType::kSessionResume:
      return "session-resume";
  }
  return "unknown";
}

Bytes provider_auth_message(const std::array<uint8_t, 32>& transcript_hash) {
  BinaryWriter w;
  w.str("SGXMIG-PROVIDER-AUTH-v1");
  w.fixed(transcript_hash);
  return w.take();
}

}  // namespace sgxmig::migration
