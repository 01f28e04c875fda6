// dpcf-nondeterminism fixture: direct ambient-entropy reads inside
// src/core. Each line is a distinct entropy source.

extern "C" int rand();
extern "C" long time(void* t);

namespace dpcf {

int PickVictim(int n) {
  return rand() % n;  // bad: process-global PRNG
}

long long SampleSeed() {
  return static_cast<long long>(time(nullptr));  // bad: wall clock
}

unsigned DrawHardware() {
  std::random_device rd;  // bad: hardware entropy
  return rd();
}

long WallClockNow() {
  // bad: system_clock is wall time
  return std::chrono::system_clock::now().time_since_epoch().count();
}

unsigned DrawUnseeded() {
  std::mt19937 gen;  // bad: not seeded from MonitorOptions::seed
  return gen();
}

}  // namespace dpcf
