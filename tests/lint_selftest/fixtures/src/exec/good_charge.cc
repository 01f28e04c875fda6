// dpcf-charge-conservation clean fixture: one function charges
// CpuStats directly before any return, the other charges through a
// helper — the rule's charging set is closed over the call graph.

unsigned PageRowCount(const char* page);

namespace dpcf {

struct CpuStats {
  long long monitor_row_ops = 0;
};

unsigned ObservePage(const char* page, CpuStats* cpu) {
  unsigned rows = PageRowCount(page);
  cpu->monitor_row_ops += rows;  // direct charge covers both returns
  if (rows == 0) {
    return 0;
  }
  return rows;
}

void ChargeRows(CpuStats* cpu, unsigned rows) {
  cpu->monitor_row_ops += rows;
}

unsigned ObserveViaHelper(const char* page, CpuStats* cpu) {
  unsigned rows = PageRowCount(page);
  ChargeRows(cpu, rows);  // charge via callee
  return rows;
}

}  // namespace dpcf
