// Only its own .cpp includes this header: one dead-header finding.
#pragma once

namespace fixture {

int self_only();

}  // namespace fixture
