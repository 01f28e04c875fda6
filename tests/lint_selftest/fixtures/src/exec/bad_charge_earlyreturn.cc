// dpcf-charge-conservation fixture: the happy path charges, but the
// early return bails out between the page read and the charge — exactly
// the kind of leak a whole-function regex cannot see.

unsigned PageRowCount(const char* page);

namespace dpcf {

struct CpuStats {
  long long rows_processed = 0;
};

long long SumPageRows(const char** pages, int n, CpuStats* cpu) {
  long long total = 0;
  for (int p = 0; p < n; ++p) {
    unsigned rows = PageRowCount(pages[p]);
    if (rows == 0) {
      return -1;  // bad: read happened, nothing charged yet
    }
    total += rows;
  }
  cpu->rows_processed += total;
  return total;
}

}  // namespace dpcf
