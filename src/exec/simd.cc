#include "exec/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exec/simd_scalar.h"

namespace dpcf {

namespace simd_internal {

const SimdOps* GetScalarSimdOps() {
  static const SimdOps table = [] {
    SimdOps t;
    FillScalarOps(&t);
    t.isa = SimdIsa::kScalar;
    return t;
  }();
  return &table;
}

}  // namespace simd_internal

namespace {

const SimdOps* TableFor(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return simd_internal::GetScalarSimdOps();
    case SimdIsa::kAvx2:
      return simd_internal::GetAvx2SimdOps();
  }
  return nullptr;
}

/// Best ISA the CPU + build supports; scalar is always last resort.
SimdIsa BestAvailable() {
  if (SimdIsaAvailable(SimdIsa::kAvx2)) return SimdIsa::kAvx2;
  return SimdIsa::kScalar;
}

/// Parses a DPCF_SIMD spelling; returns false for anything unrecognized.
bool ParseIsaName(const char* s, SimdIsa* out) {
  if (std::strcmp(s, "scalar") == 0) {
    *out = SimdIsa::kScalar;
    return true;
  }
  if (std::strcmp(s, "avx2") == 0) {
    *out = SimdIsa::kAvx2;
    return true;
  }
  return false;
}

// The active table, published once. Plain pointer store/load: every table
// is immutable and function-local-static, so a racing first use at worst
// resolves twice to the same answer.
std::atomic<const SimdOps*> g_active{nullptr};

const SimdOps* Resolve() {
  const SimdIsa isa = ChooseSimdIsa(std::getenv("DPCF_SIMD"));
  return TableFor(isa);
}

}  // namespace

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool SimdIsaAvailable(SimdIsa isa) { return TableFor(isa) != nullptr; }

std::vector<SimdIsa> AvailableSimdIsas() {
  std::vector<SimdIsa> out;
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2}) {
    if (SimdIsaAvailable(isa)) out.push_back(isa);
  }
  return out;
}

SimdIsa ChooseSimdIsa(const char* env_value) {
  if (env_value != nullptr && env_value[0] != '\0') {
    SimdIsa requested;
    if (!ParseIsaName(env_value, &requested)) {
      std::fprintf(stderr,
                   "dpcf: unrecognized DPCF_SIMD=\"%s\" "
                   "(want avx2|scalar); using %s\n",
                   env_value, SimdIsaName(BestAvailable()));
      return BestAvailable();
    }
    if (SimdIsaAvailable(requested)) return requested;
    std::fprintf(stderr,
                 "dpcf: DPCF_SIMD=%s not available on this build/CPU; "
                 "falling back to scalar\n",
                 env_value);
    return SimdIsa::kScalar;
  }
  return BestAvailable();
}

const SimdOps& ActiveSimdOps() {
  const SimdOps* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = Resolve();
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

SimdIsa ActiveSimdIsa() { return ActiveSimdOps().isa; }

const SimdOps& ScalarSimdOps() { return *simd_internal::GetScalarSimdOps(); }

Status SetActiveSimd(SimdIsa isa) {
  const SimdOps* t = TableFor(isa);
  if (t == nullptr) {
    return Status::InvalidArgument(std::string("SIMD ISA not available: ") +
                                   SimdIsaName(isa));
  }
  g_active.store(t, std::memory_order_release);
  return Status::OK();
}

}  // namespace dpcf
