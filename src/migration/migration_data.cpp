#include "migration/migration_data.h"

namespace sgxmig::migration {

void wipe(MigrationData& data) {
  secure_wipe(data.msk.data(), data.msk.size());
  secure_wipe(reinterpret_cast<uint8_t*>(data.counter_values.data()),
              sizeof(data.counter_values));
}

}  // namespace sgxmig::migration
