#include "dead/self_only.hpp"

namespace fixture {

int self_only() { return 4; }

}  // namespace fixture
