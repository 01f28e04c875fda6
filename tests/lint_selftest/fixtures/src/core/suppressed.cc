// Suppression fixture: real violations of a line rule and a call-graph
// rule, silenced with both NOLINT spellings; analyzed with every rule on,
// it must report nothing.

extern "C" int rand();

namespace dpcf {

int SuppressedNew() {
  int* a = new int(1);  // NOLINT(dpcf-naked-new) fixture: same-line form
  // NOLINTNEXTLINE(dpcf-naked-new)  fixture: next-line form
  delete a;
  // NOLINTNEXTLINE(dpcf-nondeterminism)  fixture: call-graph rule
  return rand();
}

}  // namespace dpcf
