#include "serve/program_cache.hpp"

#include "common/check.hpp"

namespace obx::serve {

PreparedProgram::PreparedProgram(std::shared_ptr<const plan::ExecutionPlan> plan)
    : plan_(std::move(plan)) {
  OBX_CHECK(plan_ != nullptr, "prepared program needs a plan");
}

void ProgramCache::add(const std::string& id, trace::Program program) {
  OBX_CHECK(!id.empty(), "program id cannot be empty");
  OBX_CHECK(program.stream != nullptr, "program has no stream factory");
  // Plan outside the registry lock (optimise + compile + arrangement can be
  // slow); the plan cache collapses duplicate concurrent builds itself.
  auto prepared =
      std::make_unique<PreparedProgram>(plans_.get_or_build(id, program));
  std::lock_guard lock(mutex_);
  const bool inserted = programs_.emplace(id, std::move(prepared)).second;
  OBX_CHECK(inserted, "program id already registered: " + id);
}

const PreparedProgram& ProgramCache::get(const std::string& id) const {
  std::lock_guard lock(mutex_);
  const auto it = programs_.find(id);
  OBX_CHECK(it != programs_.end(), "unknown program id: " + id);
  return *it->second;
}

bool ProgramCache::contains(const std::string& id) const {
  std::lock_guard lock(mutex_);
  return programs_.count(id) > 0;
}

std::vector<std::string> ProgramCache::ids() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(programs_.size());
  for (const auto& [id, prepared] : programs_) out.push_back(id);
  return out;
}

}  // namespace obx::serve
