// dpcf-nondeterminism fixture: the entropy is two hops away — the
// core function calls a helper (src/support/entropy_helper.cc) whose body
// reads time(). No entropy token appears in this file, so only a
// call-graph walk can flag it; the finding's message carries the chain.

long NowSeconds();

namespace dpcf {

long StampRun() {
  return NowSeconds();  // bad: reaches time() via the helper
}

}  // namespace dpcf
