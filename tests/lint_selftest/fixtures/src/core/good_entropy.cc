// dpcf-nondeterminism clean fixture: the core draws randomness from
// seeded generators (declared pure here, and the real one lives in the
// allowlisted src/common/random barrier) and emits a span timestamp via
// the observability sink (src/obs/report_sink.cc) — the barrier absorbs
// the clock read, so no finding.

struct Rng {
  explicit Rng(unsigned long long seed);
  unsigned long long Next();
};

namespace dpcf {

double NowMs();

unsigned long long DrawSeeded(Rng* rng) {
  return rng->Next();  // good: seeded plumbing
}

unsigned long long DrawSeededStd(unsigned long long seed) {
  std::mt19937_64 gen(seed);  // good: explicit seed
  return gen();
}

double ReportTimestamp() {
  return NowMs();  // good: callee is inside the src/obs barrier
}

}  // namespace dpcf
