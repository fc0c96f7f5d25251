#include "net/failure.hpp"

#include "util/log.hpp"

namespace drs::net {

void FailureInjector::schedule(FailureAction action) {
  network_.simulator().schedule_at(action.at, [this, action] {
    apply_now(action.component, action.fail);
  });
}

void FailureInjector::schedule_outage(util::SimTime at, ComponentIndex component,
                                      util::Duration outage) {
  schedule(FailureAction{at, component, /*fail=*/true});
  if (outage > util::Duration::zero()) {
    schedule(FailureAction{at + outage, component, /*fail=*/false});
  }
}

void FailureInjector::apply_now(ComponentIndex component, bool fail) {
  network_.set_component_failed(component, fail);
  const auto now = network_.simulator().now();
  ++applied_;
  DRS_INFO("failure", "t=%s %s %s", util::to_string(now).c_str(),
           fail ? "FAIL" : "RESTORE",
           network_.describe_component(component).c_str());
  if (observer_) observer_(FailureAction{now, component, fail});
}

void FailureInjector::schedule_script(const std::vector<FailureAction>& actions) {
  for (const FailureAction& action : actions) schedule(action);
}

std::size_t FailureInjector::currently_failed() const {
  std::size_t failed = 0;
  for (ComponentIndex c = 0; c < network_.component_count(); ++c) {
    if (network_.component_failed(c)) ++failed;
  }
  return failed;
}

}  // namespace drs::net
