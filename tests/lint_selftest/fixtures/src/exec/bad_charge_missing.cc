// dpcf-charge-conservation fixture: the function reads the page
// image (PageRowCount / RowInPage) and returns without ever charging
// IoStats or CpuStats — the page access is invisible to the accounting
// the estimation-error diagnosis trusts.

unsigned PageRowCount(const char* page);
const char* RowInPage(const char* page, unsigned slot);

namespace dpcf {

long long CountNonNullRows(const char* page) {
  long long n = 0;
  unsigned rows = PageRowCount(page);
  for (unsigned s = 0; s < rows; ++s) {
    if (RowInPage(page, s) != nullptr) ++n;
  }
  return n;  // bad: no charge on this path
}

}  // namespace dpcf
