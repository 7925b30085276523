#include "src/core/cluster_types.h"

#include <cmath>

namespace lard {

bool IsValidCapacityWeight(double weight) { return std::isfinite(weight) && weight > 0.0; }

const char* MechanismName(Mechanism mechanism) {
  switch (mechanism) {
    case Mechanism::kRelayingFrontEnd:
      return "relay";
    case Mechanism::kSingleHandoff:
      return "singleHandoff";
    case Mechanism::kMultipleHandoff:
      return "multiHandoff";
    case Mechanism::kBackEndForwarding:
      return "BEforward";
    case Mechanism::kIdealHandoff:
      return "zeroCost";
  }
  return "?";
}

const char* NodeStateName(NodeState state) {
  switch (state) {
    case NodeState::kActive:
      return "active";
    case NodeState::kDraining:
      return "draining";
    case NodeState::kDead:
      return "dead";
  }
  return "?";
}

bool MechanismAllowsPerRequestDistribution(Mechanism mechanism) {
  switch (mechanism) {
    case Mechanism::kRelayingFrontEnd:
    case Mechanism::kMultipleHandoff:
    case Mechanism::kBackEndForwarding:
    case Mechanism::kIdealHandoff:
      return true;
    case Mechanism::kSingleHandoff:
      return false;
  }
  return false;
}

const char* AssignmentActionName(AssignmentAction action) {
  switch (action) {
    case AssignmentAction::kServeLocal:
      return "serve-local";
    case AssignmentAction::kHandoff:
      return "handoff";
    case AssignmentAction::kForward:
      return "forward";
    case AssignmentAction::kMigrate:
      return "migrate";
    case AssignmentAction::kRelay:
      return "relay";
  }
  return "?";
}

}  // namespace lard
